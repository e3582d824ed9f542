"""The paper's evaluation, experiment by experiment.

Every experiment is a sweep spec under ``sweeps/paper/<id>.toml`` (the
index lives in DESIGN.md §4; each spec's comments say what it runs)
plus a table renderer in :data:`EXPERIMENTS`, keyed by that id.
:func:`run_experiment` runs the spec through
:func:`~repro.sweep.run_sweep` into a fresh temporary store, folds the
rows with :func:`~repro.sweep.aggregate` and renders the figure's
:class:`~repro.harness.export.ExperimentResult`.  The store is temporary
because it keys rows by recipe, not by code version: a kept store would
serve numbers from older code, while the result cache named by the
execution policy is code-versioned and makes repeats cheap.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import Callable

from repro.core import SimStats
from repro.harness.export import ExperimentResult
from repro.harness.metrics import geomean_speedup
from repro.harness.policy import ExecutionPolicy
from repro.sweep.spec import SweepSpec, load_spec
from repro.sweep.stats import PointAggregate, aggregate
from repro.sweep.store import ResultStore
from repro.workloads import get_workload

#: the checked-in figure specs, one ``<id>.toml`` per experiment
PAPER_SPECS = Path(__file__).resolve().parents[3] / "sweeps" / "paper"


def load_experiment(exp_id: str) -> SweepSpec:
    """The sweep spec of one experiment id (its ``name`` is the id)."""
    return load_spec(PAPER_SPECS / f"{exp_id}.toml")


def run_experiment(
    experiment: str | SweepSpec,
    *,
    length: int | None = None,
    policy: ExecutionPolicy | None = None,
    echo=None,
) -> ExperimentResult:
    """Run one experiment's campaign and render its table.

    Args:
        experiment: An experiment id, or a spec whose ``name`` is one
            (e.g. :func:`load_experiment`'s with fewer workloads).
        length: Trace length for every run (default: the spec's, else
            ``$REPRO_TRACE_LEN``).
        policy: Execution settings (jobs, result cache, checkpoints).
        echo: Optional ``print``-like campaign progress callback.

    Raises:
        KeyError: before any simulation, when no renderer has the spec's name.
        RuntimeError: when any row failed; it names every failed row, and
            no table with gaps is ever rendered.
    """
    # the sweep driver imports this package (for its cache), so it is
    # resolved at call time
    from repro.sweep.execute import run_sweep

    spec = load_experiment(experiment) if isinstance(experiment, str) else experiment
    render = EXPERIMENTS[spec.name]
    if length is not None:
        spec = dataclasses.replace(spec, lengths=(length,))
    with tempfile.TemporaryDirectory(prefix="repro-experiment-") as tmp:
        with ResultStore(Path(tmp) / "experiment.db") as store:
            summary = run_sweep(spec, store, policy=policy, echo=echo)
            rows = store.rows(spec.name)
    if not summary.complete:
        failed = [
            f"{r['role']} {r['workload']} {r['params']} seed {r['seed']}: {r['error']}"
            for r in rows
            if r["status"] != "done"
        ]
        raise RuntimeError(
            f"experiment {spec.name}: {len(failed)} of {summary.total} rows "
            "did not complete:\n  " + "\n  ".join(failed)
        )
    return render(aggregate(rows))


# ----------------------------------------------------------------------
# Renderer helpers
# ----------------------------------------------------------------------
def _suite(agg: PointAggregate) -> str:
    return get_workload(agg.workload).suite


def _series(points: list[PointAggregate], labels) -> dict[str, list]:
    """Deal a campaign's points to its series, in the spec's series order.

    Campaign order is workload-major, so each workload contributes one
    point per series, consecutively.
    """
    series = {label: points[i :: len(labels)] for i, label in enumerate(labels)}
    workloads = {tuple(a.workload for a in aggs) for aggs in series.values()}
    if len(points) % len(labels) or len(workloads) != 1:
        raise ValueError(
            f"{len(points)} points do not split into the series {list(labels)}"
        )
    return series


def _by(points: list[PointAggregate], key: str) -> dict:
    """Points grouped by one param's value, in campaign order."""
    groups: dict = {}
    for agg in points:
        groups.setdefault(agg.params[key], []).append(agg)
    return groups


def _geomean(aggs: list[PointAggregate], suite: str | None = None) -> float:
    return geomean_speedup(
        [a.mean for a in aggs if suite is None or _suite(a) == suite]
    )


def _suite_geomeans(series: dict[str, list]) -> dict:
    summary: dict[str, float] = {}
    for label, aggs in series.items():
        for suite in ("int", "fp"):
            if any(_suite(a) == suite for a in aggs):
                summary[f"{label} geomean {suite.upper()} %"] = _geomean(aggs, suite)
    return summary


def _speedup_rows(series: dict[str, list]) -> list[dict]:
    """One row per workload: its speedup in every series."""
    rows = []
    for i, agg in enumerate(next(iter(series.values()))):
        row = {"workload": agg.workload, "suite": _suite(agg)}
        row.update((label, aggs[i].mean) for label, aggs in series.items())
        rows.append(row)
    return rows


def _per_workload(exp_id: str, title: str, labels) -> Callable:
    """A renderer for a per-workload speedup table with suite geomeans."""

    def render(points: list[PointAggregate]) -> ExperimentResult:
        series = _series(points, labels)
        return ExperimentResult(
            exp_id, title, ["workload", "suite", *labels],
            _speedup_rows(series), _suite_geomeans(series),
        )

    return render


def _per_suite(exp_id: str, title: str, labels, summary: bool) -> Callable:
    """A renderer for one geomean row per suite, optionally summarized."""

    def render(points: list[PointAggregate]) -> ExperimentResult:
        series = _series(points, labels)
        rows = [
            {"suite": f"AVG {suite.upper()}",
             **{label: _geomean(aggs, suite) for label, aggs in series.items()}}
            for suite in ("int", "fp")
        ]
        return ExperimentResult(
            exp_id, title, ["suite", *labels], rows,
            _suite_geomeans(series) if summary else {},
        )

    return render


# ----------------------------------------------------------------------
# One renderer per figure, keyed by spec name
# ----------------------------------------------------------------------
def _render_fig2(points: list[PointAggregate]) -> ExperimentResult:
    labels = ("stvp", "mtvp2", "mtvp4", "mtvp8")
    rows = []
    for latency, group in _by(points, "spawn_latency").items():
        series = _series(group, labels)
        for suite in ("int", "fp"):
            row = {"spawn latency": f"{latency} cyc", "suite": suite}
            row.update((label, _geomean(aggs, suite)) for label, aggs in series.items())
            rows.append(row)
    return ExperimentResult(
        "fig2", "Figure 2: Speedup vs thread spawn latency (geomean %)",
        ["spawn latency", "suite", *labels], rows, {},
    )


def _render_sec53(points: list[PointAggregate]) -> ExperimentResult:
    rows = []
    for size, group in _by(points, "store_buffer_entries").items():
        rows.append({
            "store buffer": str(size) if size else "unlimited",
            "geomean int %": _geomean(group, "int"),
            "geomean fp %": _geomean(group, "fp"),
            "sb stalls": sum(a.stats["store_buffer_stalls"] for a in group),
        })
    return ExperimentResult(
        "sec5.3", "Section 5.3: MTVP-8 speedup vs store buffer size",
        ["store buffer", "geomean int %", "geomean fp %", "sb stalls"], rows, {},
    )


def _render_fig5(points: list[PointAggregate]) -> ExperimentResult:
    rows = [
        {
            "workload": a.workload,
            "suite": _suite(a),
            "followed": a.stats["followed_predictions"],
            "fraction": round(SimStats.from_dict(a.stats).multivalue_fraction, 4),
        }
        for a in points
    ]
    fractions = [r["fraction"] for r in rows]
    return ExperimentResult(
        "fig5",
        "Figure 5: primary wrong but correct value present & over threshold",
        ["workload", "suite", "followed", "fraction"],
        rows,
        {"max fraction": max(fractions),
         "mean fraction": sum(fractions) / len(fractions)},
    )


def _render_sec56(points: list[PointAggregate]) -> ExperimentResult:
    series = _series(points, ("single", "multi"))
    rows = [
        {
            "workload": single.workload,
            "single-value %": single.mean,
            "multi-value %": multi.mean,
            "multi spawns": multi.stats["spawns"],
        }
        for single, multi in zip(series["single"], series["multi"])
    ]
    return ExperimentResult(
        "sec5.6", "Section 5.6: multiple-value MTVP (liberal W-F + L3-miss oracle)",
        ["workload", "single-value %", "multi-value %", "multi spawns"], rows, {},
    )


def _render_sec54(points: list[PointAggregate]) -> ExperimentResult:
    series = _series(points, ("mtvp8 wf", "mtvp8 dfcm"))
    rows = _speedup_rows(series)
    for row, wf, dfcm in zip(rows, series["mtvp8 wf"], series["mtvp8 dfcm"]):
        wf_stats = SimStats.from_dict(wf.stats)
        dfcm_stats = SimStats.from_dict(dfcm.stats)
        row["wf preds"] = wf_stats.total_predictions
        row["dfcm preds"] = dfcm_stats.total_predictions
        row["wf acc"] = round(wf_stats.prediction_accuracy, 3)
        row["dfcm acc"] = round(dfcm_stats.prediction_accuracy, 3)
    return ExperimentResult(
        "sec5.4",
        "Section 5.4: Wang-Franklin hybrid vs third-order DFCM under MTVP-8 (%)",
        ["workload", "suite", "mtvp8 wf", "mtvp8 dfcm",
         "wf preds", "dfcm preds", "wf acc", "dfcm acc"],
        rows,
        _suite_geomeans(series),
    )


def _render_sec4(points: list[PointAggregate]) -> ExperimentResult:
    rows = []
    for prefetch, group in _by(points, "prefetch_enabled").items():
        for suite in ("int", "fp"):
            pts = [a.mean for a in group if _suite(a) == suite]
            rows.append({
                "prefetcher": "on" if prefetch else "off",
                "suite": suite,
                "mtvp8 geomean %": geomean_speedup(pts),
                "negative benchmarks": sum(1 for p in pts if p < -1.0),
            })
    return ExperimentResult(
        "sec4", "Section 4: MTVP-8 speedup with and without the stride prefetcher",
        ["prefetcher", "suite", "mtvp8 geomean %", "negative benchmarks"], rows, {},
    )


def _render_ablation_latency(points: list[PointAggregate]) -> ExperimentResult:
    rows = []
    for latency, group in _by(points, "mem_latency").items():
        row = {"memory latency": f"{latency} cyc"}
        row.update(
            (label, _geomean(aggs))
            for label, aggs in _series(group, ("stvp", "mtvp8")).items()
        )
        rows.append(row)
    return ExperimentResult(
        "ablation-latency",
        "Ablation: speedup vs main-memory latency (geomean %, all workloads)",
        ["memory latency", "stvp", "mtvp8"], rows, {},
    )


#: one table renderer per experiment, keyed by spec name
EXPERIMENTS: dict[str, Callable[[list[PointAggregate]], ExperimentResult]] = {
    "fig1": _per_workload(
        "fig1", "Figure 1: Change in Useful IPC with Oracle Value Prediction (%)",
        ("stvp", "mtvp2", "mtvp4", "mtvp8"),
    ),
    "fig2": _render_fig2,
    "fig3": _per_workload(
        "fig3",
        "Figure 3: Change in Useful IPC with a realistic Wang-Franklin predictor (%)",
        ("stvp", "mtvp2", "mtvp4", "mtvp8"),
    ),
    "fig4": _per_workload(
        "fig4", "Figure 4: fetch policies — single fetch path vs no-stall (%)",
        ("stvp", "mtvp sfp", "mtvp no stall"),
    ),
    "fig5": _render_fig5,
    "fig6": _per_suite(
        "fig6", "Figure 6: wide-window vs MTVP vs spawn-only (geomean %)",
        ("wide window", "best mtvp", "spawn only"), summary=True,
    ),
    "sec4": _render_sec4,
    "sec5.1": _per_suite(
        "sec5.1",
        "Section 5.1: load selector comparison under oracle MTVP-8 (geomean %)",
        ("mtvp8 ilp-pred", "mtvp8 miss-oracle", "mtvp8 always"), summary=False,
    ),
    "sec5.3": _render_sec53,
    "sec5.4": _render_sec54,
    "sec5.6": _render_sec56,
    "ablation-latency": _render_ablation_latency,
}
