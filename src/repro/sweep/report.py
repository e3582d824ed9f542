"""Analysis and reporting over a sweep's aggregated results.

Renders :class:`~repro.sweep.stats.PointAggregate` lists as ASCII or
markdown tables (full per-point, plus per-axis marginals), extracts the
best point and the Pareto frontier over (speedup, contexts used,
store-buffer size), and exports rows as CSV/JSON — reusing
:mod:`repro.harness.export` by packaging the sweep as an
:class:`~repro.harness.export.ExperimentResult` — or as JSONL.

All output is deterministic: rows follow campaign order, statistics come
from the seeded bootstrap, and nothing volatile (wall time, timestamps)
appears, so a resumed campaign's report is byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import fmean

from repro.harness.export import ExperimentResult, format_cell
from repro.harness.metrics import geomean_speedup
from repro.sweep.stats import PointAggregate


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    return str(value)


def _combine(percents: list[float]) -> float:
    """Suite-style combination of per-point speedups: geomean when defined
    (every ratio positive), arithmetic mean otherwise."""
    try:
        return geomean_speedup(percents)
    except ValueError:
        return fmean(percents)


def sweep_result(name: str, aggregates: list[PointAggregate]) -> ExperimentResult:
    """Package aggregates as an :class:`ExperimentResult`.

    One row per design point: its axis/recipe values, per-seed statistics
    (mean, geomean, 95% bootstrap CI), replicate counts and a ``noise?``
    flag for CI-straddles-zero points.  The summary carries the best
    point and campaign health counts, so CSV/JSON exports round-trip
    everything a plot needs.
    """
    param_keys: list[str] = []
    for agg in aggregates:
        for key in agg.params:
            if key not in param_keys:
                param_keys.append(key)
    columns = (
        ["workload", "length"]
        + param_keys
        + ["mean %", "geomean %", "ci95 lo", "ci95 hi", "seeds", "failed", "noise?"]
    )
    rows: list[dict] = []
    for agg in aggregates:
        row: dict = {"workload": agg.workload, "length": agg.length}
        for key in param_keys:
            row[key] = _fmt_value(agg.params.get(key))
        if agg.failed:
            row.update({"mean %": None, "geomean %": None,
                        "ci95 lo": None, "ci95 hi": None})
        else:
            row.update({
                "mean %": agg.mean,
                "geomean %": agg.geomean,
                "ci95 lo": agg.ci_lo,
                "ci95 hi": agg.ci_hi,
            })
        row["seeds"] = agg.n_seeds
        row["failed"] = agg.n_failed
        row["noise?"] = (
            "FAILED" if agg.failed else ("yes" if agg.straddles_zero else "")
        )
        rows.append(row)

    summary: dict = {}
    best = best_point(aggregates)
    if best is not None:
        summary["best point"] = f"{best.label()} (mean {best.mean:+.1f}%)"
    n_noise = sum(1 for a in aggregates if not a.failed and a.straddles_zero)
    n_failed = sum(1 for a in aggregates if a.failed)
    summary["points"] = len(aggregates)
    if n_noise:
        summary["points with CI straddling zero"] = n_noise
    if n_failed:
        summary["points failed"] = n_failed
    return ExperimentResult(
        experiment_id=f"sweep:{name}",
        title=f"Sweep {name}: mean speedup over seed replicates "
              f"(95% bootstrap CI)",
        columns=columns,
        rows=rows,
        summary=summary,
    )


def axis_marginals(
    aggregates: list[PointAggregate], axis: str
) -> ExperimentResult | None:
    """Marginal table for one axis: each value's combined speedup.

    Groups completed points by their value on ``axis`` and combines each
    group's per-point means (geomean when defined), exposing the axis's
    main effect the way the paper's per-figure tables do.  Returns None
    when the axis never varies among completed points.
    """
    groups: dict[object, list[PointAggregate]] = {}
    for agg in aggregates:
        if agg.failed or axis not in agg.params:
            continue
        groups.setdefault(agg.params[axis], []).append(agg)
    if len(groups) < 2:
        return None
    rows = []
    for value, group in groups.items():  # insertion = campaign order
        rows.append({
            axis: _fmt_value(value),
            "points": len(group),
            "combined %": _combine([a.mean for a in group]),
            "min %": min(a.mean for a in group),
            "max %": max(a.mean for a in group),
        })
    return ExperimentResult(
        experiment_id=f"axis:{axis}",
        title=f"Marginal effect of {axis} (combined mean speedup %)",
        columns=[axis, "points", "combined %", "min %", "max %"],
        rows=rows,
        summary={},
    )


def best_point(aggregates: list[PointAggregate]) -> PointAggregate | None:
    """The completed point with the highest mean speedup."""
    done = [a for a in aggregates if not a.failed]
    if not done:
        return None
    return max(done, key=lambda a: a.mean)


def pareto_frontier(aggregates: list[PointAggregate]) -> list[PointAggregate]:
    """Non-dominated points over (speedup ↑, contexts ↓, store buffer ↓).

    A point is dominated when another completed point is at least as good
    on all three objectives — more (or equal) speedup from no more
    hardware contexts and no more store-buffer entries — and strictly
    better on at least one.  The frontier answers "how much machine does
    that speedup actually need", which a best-point scalar hides.
    """
    done = [a for a in aggregates if not a.failed]

    def dominates(a: PointAggregate, b: PointAggregate) -> bool:
        no_worse = (
            a.mean >= b.mean
            and a.contexts_used <= b.contexts_used
            and a.store_buffer_entries <= b.store_buffer_entries
        )
        better = (
            a.mean > b.mean
            or a.contexts_used < b.contexts_used
            or a.store_buffer_entries < b.store_buffer_entries
        )
        return no_worse and better

    return [
        b for b in done if not any(dominates(a, b) for a in done if a is not b)
    ]


def pareto_result(aggregates: list[PointAggregate]) -> ExperimentResult:
    """The Pareto frontier as a table (campaign order)."""
    rows = []
    for agg in pareto_frontier(aggregates):
        sb = agg.store_buffer_entries
        rows.append({
            "workload": agg.workload,
            "point": " ".join(f"{k}={v}" for k, v in agg.params.items()),
            "mean %": agg.mean,
            "contexts": agg.contexts_used,
            "store buffer": "unlimited" if sb == float("inf") else int(sb),
        })
    return ExperimentResult(
        experiment_id="pareto",
        title="Pareto frontier: speedup vs contexts vs store-buffer size",
        columns=["workload", "point", "mean %", "contexts", "store buffer"],
        rows=rows,
        summary={},
    )


def format_markdown(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as a GitHub-flavored table."""
    lines = [f"### {result.title}", ""]
    lines.append("| " + " | ".join(result.columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in result.columns) + "|")
    for row in result.rows:
        lines.append(
            "| " + " | ".join(format_cell(row.get(c)) for c in result.columns) + " |"
        )
    for key, value in result.summary.items():
        lines.append(f"\n**{key}:** {format_cell(value)}")
    return "\n".join(lines) + "\n"


def export_jsonl(
    aggregates: list[PointAggregate], path: str | Path | None = None
) -> str:
    """One JSON object per point, newline-delimited (plot/pandas-friendly)."""
    lines = []
    for agg in aggregates:
        lines.append(json.dumps({
            "point_id": agg.point_id,
            "workload": agg.workload,
            "length": agg.length,
            "params": agg.params,
            "seeds": agg.seeds,
            "speedups": agg.speedups,
            "mean": agg.mean,
            "geomean": agg.geomean,
            "ci95": [agg.ci_lo, agg.ci_hi],
            "straddles_zero": agg.straddles_zero,
            "n_failed": agg.n_failed,
            "contexts_used": agg.contexts_used,
        }, sort_keys=True))
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is not None:
        Path(path).write_text(text)
    return text


def full_report(name: str, aggregates: list[PointAggregate]) -> str:
    """The complete ASCII report: per-point table, marginals, Pareto."""
    parts = [sweep_result(name, aggregates).format_table()]
    axes_seen: list[str] = []
    for agg in aggregates:
        for key in agg.params:
            if key not in axes_seen:
                axes_seen.append(key)
    for axis in axes_seen:
        marginal = axis_marginals(aggregates, axis)
        if marginal is not None:
            parts.append(marginal.format_table())
    pareto = pareto_result(aggregates)
    if pareto.rows:
        parts.append(pareto.format_table())
    return "\n\n".join(parts)


def axis_progress(axes, rows) -> dict:
    """Per-axis done/total row progress, straight from store rows.

    For each axis named in ``axes`` (a :class:`SweepSpec`'s ``axes``
    mapping, or any iterable of param keys), returns
    ``{axis: {value_label: (done, total)}}`` counting the sweep's
    *point* rows by the axis value their params carry.  This is what
    makes a long campaign's ``sweep status`` legible: you see which
    slice of the design space is holding the sweep up, not just a
    global row count.
    """
    out: dict[str, dict[str, tuple[int, int]]] = {}
    for axis in axes:
        per: dict[str, tuple[int, int]] = {}
        for row in rows:
            if row["role"] != "point":
                continue
            params = row["params"]
            if isinstance(params, str):
                params = json.loads(params)
            if axis not in params:
                continue
            label = str(params[axis])
            done, total = per.get(label, (0, 0))
            per[label] = (done + (row["status"] == "done"), total + 1)
        if per:
            out[axis] = per
    return out
