"""Multi-seed statistics for sweep campaigns.

EXPERIMENTS.md warns that "per-benchmark numbers wobble with trace
length"; the same is true across dynamic-stream seeds.  This module turns
a point's seed replicates into defensible numbers: mean and geometric-mean
percent speedups, a percentile-bootstrap confidence interval over the
replicates, and a significance flag for points whose interval straddles
zero (the paper-honest way to say "this speedup might be noise").

Everything here is deterministic: the bootstrap RNG is seeded by
constant, so an interrupted-and-resumed campaign reports byte-identical
aggregates to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import random
from statistics import fmean

from repro.harness.metrics import geomean_speedup, percent_speedup

#: bootstrap resample count; plenty for 2-digit CI stability at small n
BOOTSTRAP_RESAMPLES = 2000


def bootstrap_ci(
    values: list[float],
    resamples: int = BOOTSTRAP_RESAMPLES,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap CI for the mean of ``values``.

    Resamples the replicates with replacement ``resamples`` times using a
    deterministic RNG and returns the central ``confidence`` mass of the
    resampled means (the ``(1-confidence)/2`` and ``(1+confidence)/2``
    percentiles).  ``confidence`` must lie in the open interval (0, 1);
    the default 0.95 matches the repo's historical hard-coded 95% level,
    while search promotion varies it per :class:`~repro.search.SearchSpec`.
    A single replicate yields a degenerate (v, v) interval — no spread
    information exists.
    """
    if not values:
        raise ValueError("need at least one value")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), not {confidence!r}")
    if len(values) == 1:
        return (values[0], values[0])
    alpha = 1.0 - confidence
    rng = random.Random(seed)
    k = len(values)
    means = sorted(fmean(rng.choices(values, k=k)) for _ in range(resamples))
    lo_idx = int((alpha / 2) * resamples)
    hi_idx = min(resamples - 1, int((1 - alpha / 2) * resamples))
    return (means[lo_idx], means[hi_idx])


@dataclasses.dataclass
class PointAggregate:
    """One design point's seed replicates, folded into statistics.

    ``speedups`` holds the per-seed percent speedups versus the paired
    baseline run (same workload, length and seed).  ``geomean`` is None
    when any replicate implies a non-positive ratio (≤ -100%), where a
    geometric mean is undefined.  ``config`` and ``stats`` are the first
    completed replicate's resolved machine and :meth:`SimStats.to_dict`.
    """

    point_id: str
    idx: int
    workload: str
    length: int
    params: dict
    config: dict
    seeds: list[int]
    speedups: list[float]
    n_failed: int
    stats: dict = dataclasses.field(default_factory=dict)
    mean: float | None = None
    geomean: float | None = None
    ci_lo: float | None = None
    ci_hi: float | None = None
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.speedups:
            self.mean = fmean(self.speedups)
            try:
                self.geomean = geomean_speedup(self.speedups)
            except ValueError:
                self.geomean = None
            self.ci_lo, self.ci_hi = bootstrap_ci(
                self.speedups, confidence=self.confidence
            )

    @property
    def n_seeds(self) -> int:
        return len(self.speedups)

    def label(self) -> str:
        """Compact human-readable tag used in summaries."""
        parts = [f"{k}={v}" for k, v in self.params.items()]
        return f"{self.workload}@{self.length} " + " ".join(parts)

    @property
    def straddles_zero(self) -> bool:
        """True when the CI contains zero — the speedup may be noise."""
        if self.ci_lo is None or self.ci_hi is None:
            return False
        return self.ci_lo <= 0.0 <= self.ci_hi

    @property
    def failed(self) -> bool:
        """True when no replicate completed at all."""
        return not self.speedups

    # knobs the Pareto frontier trades speedup against ------------------
    @property
    def contexts_used(self) -> int:
        return int(self.config.get("num_contexts", 1)) if self.config else 1

    @property
    def store_buffer_entries(self) -> float:
        """Entries, with unbounded mapped to +inf for minimization."""
        if not self.config:
            return float("inf")
        value = self.config.get("store_buffer_entries")
        return float("inf") if value is None else float(value)


def aggregate(rows, confidence: float = 0.95) -> list[PointAggregate]:
    """Fold store rows (points + baselines) into per-point aggregates.

    ``rows`` is the output of :meth:`ResultStore.rows`: ``done`` baseline
    rows index the denominators; each point's ``done`` replicates whose
    ``(workload, length, seed)`` has a baseline become speedups, while
    ``failed`` replicates are counted so graceful degradation stays
    visible in the report.  A baseline with a ``follow`` list pairs only
    with the points that hold its values on those axes.  ``confidence`` sets the
    bootstrap CI level on every aggregate (search promotion varies it;
    reports keep 0.95).
    """
    baselines: dict[tuple, float] = {}
    follow: list[str] = []
    for row in rows:
        if row["role"] == "baseline" and row["status"] == "done":
            stats = json.loads(row["stats"])
            params = json.loads(row["params"])
            follow = params.get("follow", [])
            cycles = stats.get("cycles", 0)
            useful = stats.get("useful_instructions", 0)
            if cycles > 0:
                key = (row["workload"], row["length"], row["seed"])
                baselines[key + tuple(params[k] for k in follow)] = useful / cycles

    grouped: dict[str, list] = {}
    for row in rows:
        if row["role"] == "point":
            grouped.setdefault(row["point_id"], []).append(row)

    out: list[PointAggregate] = []
    for pid, group in grouped.items():
        group.sort(key=lambda r: r["seed"])
        first = group[0]
        params = json.loads(first["params"])
        followed = tuple(params.get(k) for k in follow)
        seeds: list[int] = []
        speedups: list[float] = []
        n_failed = 0
        config: dict = {}
        first_stats: dict = {}
        for row in group:
            if row["status"] == "done":
                stats = json.loads(row["stats"])
                cycles = stats.get("cycles", 0)
                ipc = stats.get("useful_instructions", 0) / cycles if cycles else 0.0
                base = baselines.get(
                    (row["workload"], row["length"], row["seed"]) + followed
                )
                if base is None:
                    n_failed += 1  # denominator missing: unusable replicate
                    continue
                seeds.append(row["seed"])
                speedups.append(percent_speedup(ipc, base))
                if not config and row["config"]:
                    config = json.loads(row["config"])
                first_stats = first_stats or stats
            elif row["status"] == "failed":
                n_failed += 1
        out.append(
            PointAggregate(
                point_id=pid,
                idx=first["idx"],
                workload=first["workload"],
                length=first["length"],
                params=params,
                config=config,
                seeds=seeds,
                speedups=speedups,
                n_failed=n_failed,
                stats=first_stats,
                confidence=confidence,
            )
        )
    out.sort(key=lambda a: (a.idx, a.point_id))
    return out
