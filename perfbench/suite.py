"""The benchmark's four workloads and the timed pass each one repeats.

A *pass* is the unit of work one timed repetition performs:

* ``suite-point`` / ``long-run``: every point of a fixed grid, each timed
  around :meth:`repro.harness.RunSpec.run` (no result cache, no
  checkpoints);
* ``timing-sweep``: one :func:`repro.sweep.run_sweep` campaign into a
  fresh store and a fresh, empty result cache, then the report;
* ``campaign-rerun``: the same, but replayed against a result cache that
  set-up filled, so every row is a cache hit.  It runs by hand only: it
  is not in BENCHMARK.json because its time is largely disk waits (see
  README.md).

The benchmark seed picks the dynamic-stream seeds the program simulates
(``seed % SEED_CLASSES``), so the reference digests in ``reference.json``
cover every seed the benchmark can be given.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import shutil
import sys
from pathlib import Path

from repro.core import MachineConfig
from repro.harness import RunSpec
from repro.harness.cache import ResultCache
from repro.harness.policy import ExecutionPolicy
from repro.sweep import ResultStore, SweepSpec, aggregate, full_report, run_sweep
from repro.workloads import ALL_WORKLOADS

from hostspeed import RawClock

#: distinct input sets the benchmark seed maps onto; reference.json holds
#: the digests of every one of them
SEED_CLASSES = 8

WORKLOADS = ("suite-point", "long-run", "timing-sweep", "campaign-rerun")
SCALES = ("full", "tiny")

_PREDICTOR = "wang-franklin"
_SELECTOR = "ilp-pred"

#: machine recipes by name; partials (not lambdas) so RunSpec can describe them
MACHINES = {
    "baseline": MachineConfig.hpca05_baseline,
    "stvp": MachineConfig.stvp,
    "mtvp8": functools.partial(MachineConfig.mtvp, 8),
    "wide-window": MachineConfig.wide_window,
    "spmt8": functools.partial(MachineConfig.spmt, 8),
    "smt2": functools.partial(MachineConfig.smt, 2),
}

#: (workloads, machines, length) per point workload and scale
POINT_GRIDS = {
    "suite-point": {
        "full": (ALL_WORKLOADS, ("baseline", "stvp", "mtvp8", "wide-window"), 8000),
        "tiny": (("mcf", "gzip g", "swim"), ("baseline", "stvp", "mtvp8", "wide-window"), 600),
    },
    "long-run": {
        "full": (("mcf", "art 1", "swim", "gzip g"), ("baseline", "mtvp8", "spmt8", "smt2"), 64000),
        "tiny": (("mcf", "swim"), ("baseline", "mtvp8", "spmt8", "smt2"), 2000),
    },
}

#: the sweeps/store_buffer.toml design, held here so edits to the
#: checked-in campaign cannot change what the benchmark measures
_STORE_BUFFER = {
    "name": "store_buffer",
    "base": {"machine": "mtvp", "threads": 8, "predictor": _PREDICTOR, "selector": _SELECTOR},
    "axes": {"store_buffer_entries": [16, 32, 64, 128, 256, 512, 0]},
}
#: the sweeps/spawn_latency.toml design, likewise
_SPAWN_LATENCY = {
    "name": "spawn_latency",
    "base": {"machine": "mtvp", "predictor": _PREDICTOR, "selector": _SELECTOR},
    "axes": {"spawn_latency": [1, 8, 16], "threads": [2, 4, 8]},
}

#: (design, workloads, seeds per row, length, axis overrides) per campaign
CAMPAIGNS = {
    "timing-sweep": {
        "full": (_STORE_BUFFER, ("mcf", "gzip g"), 3, 8000, None),
        "tiny": (_STORE_BUFFER, ("mcf",), 2, 600, {"store_buffer_entries": [16, 0]}),
    },
    "campaign-rerun": {
        "full": (_SPAWN_LATENCY, ("gzip g", "gcc 1", "mcf", "parser"), 3, 1000, None),
        "tiny": (_SPAWN_LATENCY, ("mcf",), 2, 400, {"spawn_latency": [1, 16], "threads": [2]}),
    },
}


def stats_digest(data: dict) -> str:
    """Digest of a ``SimStats.to_dict()`` payload, minus volatile fields.

    The same rule as ``repro.harness.bench.stats_digest`` (instrumentation
    fields and the stepped count are excluded), kept here so the
    benchmark's output check does not depend on that module staying in
    the tree.  Truncated to 64 bits: it identifies results, it does not
    authenticate them.
    """
    data = dict(data)
    for volatile in ("instructions_stepped", "extended", "schema_version"):
        data.pop(volatile, None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cold_memos() -> None:
    """Drop the program's in-process memos, as a fresh CLI process has them.

    Named memos are reset by name and fail loudly if they move, so a
    benchmark that silently measured warm state cannot happen; any
    ``functools`` cache in a loaded ``repro`` module is cleared as well.
    """
    import repro.harness.cache as cache_mod
    import repro.workloads.suite as suite_mod

    suite_mod._CACHE.clear()  # get_workload memo, and the trace memos it owns
    cache_mod._CODE_VERSION = None
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    gc.collect()


@dataclasses.dataclass
class PassResult:
    """What one timed pass did and how long it took (in its clock's seconds)."""

    wall_s: float
    cpu_s: float
    #: latency of each point (campaigns: of each row) by identity
    point_s: dict[str, float]
    stepped: int  #: stepped instructions of the results delivered
    digests: dict[str, str]
    attempted: int
    failed: int


class PointWorkload:
    """A fixed grid of independent points, each one ``RunSpec.run`` call."""

    #: a pass is the sum of its points, so its best time can be assembled
    #: from each point's fastest attempt
    points_independent = True

    def __init__(self, name: str, scale: str, seed: int) -> None:
        names, machines, length = POINT_GRIDS[name][scale]
        trace_seed = seed % SEED_CLASSES
        # workload-major order: the modes of one workload share its trace
        # memo within a pass, as a comparison over modes does
        self.points = [
            (
                f"{wl}|{m}|{length}|{trace_seed}",
                wl,
                RunSpec(m, MACHINES[m], _PREDICTOR, _SELECTOR),
                length,
                trace_seed,
            )
            for wl in names
            for m in machines
        ]

    def setup(self, workdir: Path) -> None:
        pass

    def run_pass(self, clock=RawClock, region=contextlib.nullcontext) -> PassResult:
        """One pass timed by ``clock``; ``region`` brackets the timed work (tracing)."""
        cold_memos()
        latencies: dict[str, float] = {}
        results = []
        failed = 0
        cpu0 = clock.cpu()
        t0 = clock.read()
        with region():
            for key, wl, spec, length, seed in self.points:
                start = clock.read()
                try:
                    stats = spec.run(wl, length, seed)
                except Exception as exc:  # a failed point is counted, not fatal
                    print(f"perfbench: point {key} failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                latencies[key] = clock.read() - start
                results.append((key, stats))
        wall = clock.read() - t0
        cpu = clock.cpu() - cpu0
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            point_s=latencies,
            stepped=sum(s.instructions_stepped for _, s in results),
            digests={key: stats_digest(s.to_dict()) for key, s in results},
            attempted=len(self.points),
            failed=failed,
        )


class CampaignWorkload:
    """One sweep campaign through ``run_sweep`` plus its report.

    ``replay`` campaigns run against a cache that :meth:`setup` filled, so
    every timed row is a cache hit; the others start from an empty cache
    that the pass itself fills.
    """

    #: rows share the campaign's coordination and report, so only whole
    #: passes are comparable
    points_independent = False

    def __init__(self, name: str, scale: str, seed: int) -> None:
        design, names, n_seeds, length, axes = CAMPAIGNS[name][scale]
        base = seed % SEED_CLASSES
        data = dict(design)
        data["axes"] = axes if axes is not None else design["axes"]
        self.replay = name == "campaign-rerun"
        self.spec = SweepSpec.from_dict({
            **data,
            "workloads": list(names),
            "lengths": [length],
            "seeds": [base + i for i in range(n_seeds)],
        })
        self.workdir: Path | None = None
        self._passes = 0

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        if self.replay:
            # the pre-fill: one cold campaign whose results the timed
            # replays then read back from the cache
            cold_memos()
            with ResultStore(workdir / "prefill.db") as store:
                summary = run_sweep(
                    self.spec, store, policy=self._policy(), dispatch="local"
                )
            if not summary.complete:
                raise RuntimeError(f"cache pre-fill incomplete: {summary.format()}")

    def _cache_dir(self) -> Path:
        return self.workdir / ("cache" if self.replay else f"cache-{self._passes}")

    def _policy(self) -> ExecutionPolicy:
        return ExecutionPolicy(cache=ResultCache(self._cache_dir()))

    def run_pass(self, clock=RawClock, region=contextlib.nullcontext) -> PassResult:
        """One pass timed by ``clock``; ``region`` brackets the timed work (tracing)."""
        self._passes += 1
        db = self.workdir / f"pass-{self._passes}.db"
        policy = self._policy()
        cold_memos()
        stamps: list[tuple[str, float]] = []
        with ResultStore(db) as store:
            cpu0 = clock.cpu()
            t0 = clock.read()
            with region():
                summary = run_sweep(
                    self.spec,
                    store,
                    policy=policy,
                    dispatch="local",
                    progress=lambda e: stamps.append(
                        (f"{e['workload']}|{e['spec']}|{e['seed']}", clock.read())
                    ),
                )
                report = full_report(self.spec.name, aggregate(store.rows(self.spec.name)))
            wall = clock.read() - t0
            cpu = clock.cpu() - cpu0
            rows = store.rows(self.spec.name)
        # a row's latency: from the previous row's completion to its own
        ends = [t for _, t in stamps]
        latencies = {key: end - prev for (key, end), prev in zip(stamps, [t0] + ends)}
        digests: dict[str, str] = {}
        stepped = failed = 0
        for row in rows:
            if row["status"] != "done":
                failed += 1
                continue
            data = json.loads(row["stats"])
            stepped += data.get("instructions_stepped", 0)
            digests[f"{row['workload']}|{row['point_id']}|{row['seed']}"] = stats_digest(data)
        digests[f"report|{self.spec.name}"] = hashlib.sha256(report.encode()).hexdigest()[:16]
        db.unlink(missing_ok=True)
        for suffix in ("-wal", "-shm"):
            Path(f"{db}{suffix}").unlink(missing_ok=True)
        if not self.replay:
            shutil.rmtree(self._cache_dir(), ignore_errors=True)
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            point_s=latencies,
            stepped=stepped,
            digests=digests,
            attempted=summary.total,
            failed=failed,
        )


def build(name: str, scale: str, seed: int):
    """The workload object for ``name`` at ``scale`` with inputs from ``seed``."""
    if name in POINT_GRIDS:
        return PointWorkload(name, scale, seed)
    if name in CAMPAIGNS:
        return CampaignWorkload(name, scale, seed)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
