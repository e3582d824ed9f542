"""Profiled pass (non-gating): cProfile self time bucketed by ``repro`` package.

Outside spans cannot see inside ``Engine.run``; the profiler can, at a
price: it charges every Python call, so call-heavy packages (the step
kernel, the predictors) read larger than they are with profiling off.
Treat the shares as a map of where to look, never as a measurement to
compare across commits.

Time spent in builtins and the standard library is charged to the
``repro`` package that called it (split by the callers' recorded time),
so ``list.append`` inside the engine counts as engine time.
"""

from __future__ import annotations

import cProfile
import pstats

#: (module prefix, bucket); first match wins
_BUCKETS = (
    ("repro.core.engine", "core.engine"),
    ("repro.core.allocators", "core.allocators"),
    ("repro.core.modes", "core.modes"),
    ("repro.core", "core.engine"),  # context, stats, config: engine state
    ("repro.vp", "vp"),
    ("repro.memory", "memory"),
    ("repro.branch", "branch"),
    ("repro.select", "select"),
    ("repro.workloads", "workloads"),
    ("repro.harness", "harness"),
    ("repro.sweep", "sweep"),
    ("repro.dispatch", "sweep"),
)
BUCKETS = tuple(dict.fromkeys(b for _, b in _BUCKETS)) + ("other",)


def _module_of(filename: str) -> str | None:
    """Dotted ``repro`` module name for a source path, else None."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    tail[-1] = tail[-1].removesuffix(".py")
    return ".".join(tail)


def _bucket(func) -> str | None:
    module = _module_of(func[0])
    if module is None:
        return None
    for prefix, bucket in _BUCKETS:
        if module == prefix or module.startswith(prefix + "."):
            return bucket
    return "other"


def self_shares(profile: cProfile.Profile) -> dict[str, float]:
    """Share of profiled self time per bucket (sums to 1)."""
    stats = pstats.Stats(profile).stats
    totals = dict.fromkeys(BUCKETS, 0.0)
    for func, (_cc, _nc, self_time, _ct, callers) in stats.items():
        bucket = _bucket(func)
        if bucket is not None:
            totals[bucket] += self_time
            continue
        # not repro code: split its self time over its repro callers
        weights = {}
        for caller, (_cc, _nc, _tt, time_from_caller) in callers.items():
            caller_bucket = _bucket(caller)
            if caller_bucket is not None:
                weights[caller_bucket] = weights.get(caller_bucket, 0.0) + time_from_caller
        total_weight = sum(weights.values())
        if not total_weight:
            totals["other"] += self_time
            continue
        for caller_bucket, weight in weights.items():
            totals[caller_bucket] += self_time * weight / total_weight
    grand = sum(totals.values()) or 1.0
    return {bucket: value / grand for bucket, value in totals.items()}


def profiled_pass(workload):
    """One pass of ``workload`` under cProfile: ``self_share.*`` metrics, pass."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = workload.run_pass()
    finally:
        profile.disable()
    shares = {f"self_share.{b}": (v, "share") for b, v in self_shares(profile).items()}
    return shares, result
