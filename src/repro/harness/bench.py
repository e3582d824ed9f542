"""Engine throughput benchmarking: instructions/second on fixed points.

The simulator's wall-clock per instruction is the binding constraint on
how many paper sweeps the harness can afford, so this module gives it a
measured trajectory: a small set of fixed ``(workload, config, length,
seed)`` points on the Table 1 machine, each run a few times with the best
(least-noisy) rate kept, and the results written to ``BENCH_engine.json``
at the repository root.  Future PRs rerun the benchmark and compare
against both the committed file and the recorded pre-optimization
reference, so a hot-path regression shows up as a number, not a feeling.

Simulated *results* on every point must stay deterministic — each point
reports the digest of its :class:`~repro.core.SimStats` dict, so a bench
run doubles as a cheap bit-identity check.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick    # CI
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable

from repro import select, vp
from repro.core import MachineConfig, SimStats
from repro.core.engine import Engine
from repro.select import LoadSelector
from repro.vp import ValuePredictor
from repro.workloads import get_workload

#: instructions/second measured at the pre-optimization engine (commit
#: 9c32395, the state before the kernel optimization PR), best of 3 on the
#: reference machine that recorded BENCH_engine.json.  Kept as the
#: trajectory origin so "how much faster is the kernel than when we
#: started measuring" survives arbitrarily many rewrites of the file.
PRE_OPT_REFERENCE_IPS = {
    "table1_baseline_mcf": 89761.0,
    "table1_mtvp_mcf": 69807.0,
}


@dataclasses.dataclass(frozen=True)
class BenchPoint:
    """One fixed throughput measurement point.

    Factories, not instances: predictor/selector state must be fresh for
    every repeat, exactly as in :class:`~repro.harness.runner.RunSpec`.
    Predictor/selector accept registry names or factory callables; they
    are resolved at run time (the dataclass is frozen).
    """

    name: str
    config_factory: Callable[[], MachineConfig]
    workload: str
    length: int
    seed: int
    predictor_factory: Callable[[], ValuePredictor] | str = "wang-franklin"
    selector_factory: Callable[[], LoadSelector] | str = "ilp-pred"

    def build(self, tracer=None, metrics=None, trace: list | None = None) -> Engine:
        """A fresh engine for this point (trace defaults to regenerating)."""
        if trace is None:
            trace = get_workload(self.workload).trace(
                length=self.length, seed=self.seed
            )
        return Engine(
            trace,
            self.config_factory(),
            predictor=vp.resolve(self.predictor_factory)(),
            selector=select.resolve(self.selector_factory)(),
            tracer=tracer,
            metrics=metrics,
        )


def _mtvp8() -> MachineConfig:
    return MachineConfig.mtvp(8)


#: the standard points: the Table 1 baseline machine (the pure
#: single-context kernel) and the Table 1 MTVP machine (spawn/confirm
#: machinery included), both on mcf — the paper's signature workload
TABLE1_POINTS = (
    BenchPoint(
        name="table1_baseline_mcf",
        config_factory=MachineConfig.hpca05_baseline,
        workload="mcf",
        length=12000,
        seed=0,
    ),
    BenchPoint(
        name="table1_mtvp_mcf",
        config_factory=_mtvp8,
        workload="mcf",
        length=12000,
        seed=0,
        selector_factory="always",
    ),
)


def stats_digest(stats: SimStats) -> str:
    """SHA-256 of the canonical JSON stats dict, minus volatile fields.

    ``extended``/``schema_version`` are excluded too: instrumentation is
    read-only by contract, so a traced run must digest identically to its
    untraced twin (the golden tests assert exactly that).
    """
    data = stats.to_dict()
    data.pop("instructions_stepped", None)
    data.pop("extended", None)
    data.pop("schema_version", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_point(point: BenchPoint, repeats: int = 3, length: int | None = None) -> dict:
    """Measure one point; returns a JSON-ready result record.

    The trace is generated once outside the timed region.  ``repeats``
    engines run back to back and the highest rate wins — the minimum-noise
    estimator for a deterministic workload on a shared machine.
    """
    n = length or point.length
    trace = get_workload(point.workload).trace(length=n, seed=point.seed)
    best_ips = 0.0
    best_stats: SimStats | None = None
    for _ in range(max(1, repeats)):
        stats = point.build(trace=trace).run()
        if stats.wall_seconds <= 0.0:
            continue
        ips = stats.instructions_stepped / stats.wall_seconds
        if ips > best_ips:
            best_ips = ips
            best_stats = stats
    assert best_stats is not None, "no timed repeat completed"
    record = {
        "name": point.name,
        "workload": point.workload,
        "length": n,
        "seed": point.seed,
        "instructions": best_stats.instructions_stepped,
        "wall_seconds": round(best_stats.wall_seconds, 6),
        "ips": round(best_ips, 1),
        "kips": round(best_ips / 1e3, 2),
        "stats_digest": stats_digest(best_stats),
    }
    reference = PRE_OPT_REFERENCE_IPS.get(point.name)
    if reference and n == point.length:
        record["pre_opt_ips"] = reference
        record["speedup_vs_pre_opt"] = round(best_ips / reference, 2)
    return record


def check_regression(results: dict, previous: dict | None, within_pct: float) -> int:
    """Exit code 1 if any point regressed more than ``within_pct`` percent.

    Points are matched by name against the committed record; lengths
    must match too (rates at different lengths are not comparable).
    """
    if not previous:
        print("no previous record to gate against; skipping assertion")
        return 0
    prev_points = {p["name"]: p for p in previous.get("points", [])}
    failed = False
    for p in results["points"]:
        prev = prev_points.get(p["name"])
        if not prev or prev.get("length") != p["length"] or not prev.get("ips"):
            continue
        drop_pct = 100.0 * (1.0 - p["ips"] / prev["ips"])
        status = "FAIL" if drop_pct > within_pct else "ok"
        print(
            f"assert-within {within_pct:.0f}%: {p['name']} "
            f"{p['ips']:.0f} vs {prev['ips']:.0f} ips "
            f"({-drop_pct:+.1f}%) {status}"
        )
        if drop_pct > within_pct:
            failed = True
    return 1 if failed else 0


def trace_point(
    point: BenchPoint,
    path: str | Path,
    fmt: str = "chrome",
    length: int | None = None,
) -> dict:
    """One fully observed run of ``point``; exports the trace to ``path``.

    Used by CI to prove the tracer stack works end to end on every build.
    Returns a small summary record (digest + tracer summary) so callers
    can cross-check against the untraced digest from :func:`run_point`.
    """
    from repro.obs import MetricsRegistry, Tracer

    n = length or point.length
    trace = get_workload(point.workload).trace(length=n, seed=point.seed)
    tracer = Tracer()
    stats = point.build(trace=trace, tracer=tracer, metrics=MetricsRegistry()).run()
    if fmt == "chrome":
        tracer.export_chrome(path)
    elif fmt == "jsonl":
        tracer.export_jsonl(path)
    else:
        raise ValueError(f"unknown trace format {fmt!r} (chrome or jsonl)")
    return {
        "name": point.name,
        "length": n,
        "stats_digest": stats_digest(stats),
        "trace": tracer.summary(),
    }


def run_bench(
    points: tuple[BenchPoint, ...] = TABLE1_POINTS,
    repeats: int = 3,
    length: int | None = None,
) -> dict:
    """Run every point; returns the full ``BENCH_engine.json`` payload."""
    return {
        "schema": 1,
        "benchmark": "engine-throughput",
        "points": [run_point(p, repeats=repeats, length=length) for p in points],
    }


def write_bench(results: dict, path: str | Path) -> Path:
    """Write benchmark results as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict | None:
    """Previous results from ``path``, or None if absent/corrupt."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def format_bench(results: dict, previous: dict | None = None) -> str:
    """Human-readable table, with deltas against a previous run if given."""
    prev_points = {}
    if previous:
        prev_points = {p["name"]: p for p in previous.get("points", [])}
    lines = [f"{'point':28s} {'kips':>9s} {'vs pre-opt':>11s} {'vs previous':>12s}"]
    for p in results["points"]:
        speedup = p.get("speedup_vs_pre_opt")
        vs_ref = f"{speedup:.2f}x" if speedup else "-"
        prev = prev_points.get(p["name"])
        # rates at different trace lengths are not comparable (startup
        # and cold-cache effects dominate short runs), so show a delta
        # only against a previous run of the same length
        if prev and prev.get("length") == p["length"] and prev.get("ips"):
            sign = "+" if p["ips"] >= prev["ips"] else "-"
            vs_prev = f"{sign}{abs(p['ips'] / prev['ips'] - 1):.1%}"
        else:
            vs_prev = "-"
        lines.append(f"{p['name']:28s} {p['kips']:>9.1f} {vs_ref:>11s} {vs_prev:>12s}")
    return "\n".join(lines)
