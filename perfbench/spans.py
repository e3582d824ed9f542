"""Span tracing for the traced run, installed from the benchmark's side.

The traced run wraps the public calls into each layer of ``repro`` (the
program itself carries no benchmark spans).  Each wrapper records a span
— name, start, end and parent — in memory, plus the counters that give
the layer's ratios their base; :func:`layer_metrics` turns them into
per-layer *self* time (span time minus the time its child spans cover)
and counts.  Every timed region is one ``bench.pass`` root span, so the
self times of one pass add up to that pass's traced wall time.

Wrappers are installed only for the traced run (:meth:`Tracer.install`)
and removed afterwards; the untraced run never sees them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

#: per-layer self-time metric for each span name
SELF_TIME_METRICS = {
    "bench.pass": "bench.self_s",
    "workloads.trace": "workloads.trace_s",
    "core.engine.construct": "core.engine.construct_s",
    "core.engine.fast_forward": "core.engine.fast_forward_s",
    "core.engine.run": "core.engine.run_s",
    "core.stats.to_dict": "core.stats.to_dict_s",
    "harness.runner.point": "harness.runner.point_self_s",
    "harness.parallel": "harness.parallel.self_s",
    "harness.cache.get": "harness.cache.get_s",
    "harness.cache.put": "harness.cache.put_s",
    "harness.checkpoint.get": "harness.checkpoint.get_s",
    "harness.checkpoint.put": "harness.checkpoint.put_s",
    "sweep.store.ensure": "sweep.store.ensure_s",
    "sweep.store.claim": "sweep.store.claim_s",
    "sweep.store.commit": "sweep.store.commit_s",
    "sweep.store.rows": "sweep.store.rows_s",
    "sweep.report.aggregate": "sweep.report.aggregate_s",
    "sweep.report.render": "sweep.report.render_s",
    "sweep.coordinator": "sweep.coordinator_s",
}


def _count_cache_get(counts: Counter, result) -> None:
    counts["cache_hits" if result is not None else "cache_misses"] += 1


def _count_checkpoint_get(counts: Counter, result) -> None:
    if result is not None:
        counts["ckpt_hits"] += 1


def _count_checkpoint_put(counts: Counter, result) -> None:
    counts["ckpt_stores"] += 1


def _count_engine_run(counts: Counter, stats) -> None:
    if stats is None:  # a bounded run(max_steps) that has not finished
        return
    from repro.memory import MemLevel

    counts["stepped"] += stats.instructions_stepped
    counts["useful"] += stats.useful_instructions
    counts["spawns"] += stats.spawns
    counts["confirms"] += stats.confirms
    counts["spmt_spawns"] += stats.spmt_spawns
    counts["spmt_squashes"] += stats.spmt_squashes
    counts["predictions"] += stats.total_predictions
    counts["correct"] += stats.stvp_correct + stats.mtvp_correct
    counts["mispredicts"] += stats.branch_mispredicts
    counts["loads"] += stats.loads
    counts["memory_loads"] += stats.level_counts[MemLevel.MEMORY]
    counts["sb_stalls"] += stats.store_buffer_stalls


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped call."""
    from repro.core import Engine, SimStats
    from repro.harness import parallel, runner
    from repro.harness.cache import ResultCache
    from repro.harness.checkpoint import CheckpointStore
    from repro.sweep import execute, report, stats
    from repro.sweep.store import ResultStore
    from repro.workloads import Workload

    return [
        (Workload, "trace", "workloads.trace", None),
        (Workload, "trace_many", "workloads.trace", None),
        (Engine, "__init__", "core.engine.construct", None),
        (Engine, "fast_forward", "core.engine.fast_forward", None),
        (Engine, "restore", "core.engine.fast_forward", None),
        (Engine, "run", "core.engine.run", _count_engine_run),
        (SimStats, "to_dict", "core.stats.to_dict", None),
        (runner.RunSpec, "run", "harness.runner.point", None),
        (parallel, "run_simulations", "harness.parallel", None),
        (ResultCache, "get", "harness.cache.get", _count_cache_get),
        (ResultCache, "put", "harness.cache.put", None),
        (CheckpointStore, "get", "harness.checkpoint.get", _count_checkpoint_get),
        (CheckpointStore, "put", "harness.checkpoint.put", _count_checkpoint_put),
        (ResultStore, "ensure", "sweep.store.ensure", None),
        (ResultStore, "claim", "sweep.store.claim", None),
        (ResultStore, "mark_done", "sweep.store.commit", None),
        (ResultStore, "mark_failed", "sweep.store.commit", None),
        (ResultStore, "rows", "sweep.store.rows", None),
        (ResultStore, "runnable", "sweep.store.rows", None),
        (ResultStore, "running", "sweep.store.rows", None),
        (stats, "aggregate", "sweep.report.aggregate", None),
        (report, "full_report", "sweep.report.render", None),
        (execute, "run_sweep", "sweep.coordinator", None),
    ]


class Tracer:
    """In-memory spans and counters for the traced run."""

    def __init__(self, now=time.perf_counter) -> None:
        #: the time source spans are stamped with
        self.now = now
        #: [name, start, end, parent index or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.passes = 0
        self._stack: list[int] = []
        self._active = False
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self.now(), 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def region(self):
        """One traced pass: activates the wrappers under a root span."""
        self.passes += 1
        self._active = True
        index = len(self.spans)
        span = ["bench.pass", self.now(), 0.0, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = self.now()
            self._stack.pop()
            self._active = False

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target; functions are rebound in every module holding them."""
        for owner, attr, name, hook in _targets():
            if isinstance(owner, type):
                had_own = attr in owner.__dict__
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name, hook))
                self._undo.append((owner, attr, original if had_own else None))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for module in list(sys.modules.values()):
                if module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------
    def self_times(self) -> Counter:
        """Total self time per span name over every traced pass."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return totals

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, start/end (s), parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end, "parent": parent,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-pass per-layer metrics: ``{name: (value, unit)}``.

    Self times and counts are averaged over the traced passes;
    ``trace_self_sum_frac`` is the sum of all self times over
    ``traced_wall_s``, the traced passes' total wall time as timed outside
    the spans (1.0 when the spans nest and cover the passes).
    """
    n = max(1, tracer.passes)
    self_s = tracer.self_times()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {
        metric: (self_s.get(span, 0.0) / n, "s") for span, metric in SELF_TIME_METRICS.items()
    }
    out["trace_self_sum_frac"] = (_ratio(sum(self_s.values()), traced_wall_s), "ratio")
    gets = c["cache_hits"] + c["cache_misses"]
    run_s = sum(end - start for name, start, end, _ in tracer.spans if name == "core.engine.run")
    out.update({
        "harness.cache.hits": (c["cache_hits"] / n, "count"),
        "harness.cache.misses": (c["cache_misses"] / n, "count"),
        "harness.cache.hit_ratio": (_ratio(c["cache_hits"], gets), "ratio"),
        "harness.checkpoint.hits": (c["ckpt_hits"] / n, "count"),
        "harness.checkpoint.stores": (c["ckpt_stores"] / n, "count"),
        "core.engine.instructions_stepped": (c["stepped"] / n, "count"),
        "core.engine.useful_ratio": (_ratio(c["useful"], c["stepped"]), "ratio"),
        "core.engine.us_per_inst": (_ratio(run_s * 1e6, c["stepped"]), "us"),
        "core.modes.spawns": (c["spawns"] / n, "count"),
        "core.modes.spawn_confirm_ratio": (_ratio(c["confirms"], c["spawns"]), "ratio"),
        "core.modes.spmt_spawns": (c["spmt_spawns"] / n, "count"),
        "core.modes.spmt_squash_ratio": (_ratio(c["spmt_squashes"], c["spmt_spawns"]), "ratio"),
        "vp.predictions": (c["predictions"] / n, "count"),
        "vp.accuracy": (_ratio(c["correct"], c["predictions"]), "ratio"),
        "branch.mispredicts_per_kinst": (_ratio(c["mispredicts"] * 1e3, c["stepped"]), "1/kinst"),
        "memory.loads": (c["loads"] / n, "count"),
        "memory.miss_fraction": (_ratio(c["memory_loads"], c["loads"]), "ratio"),
        "memory.store_buffer_stalls": (c["sb_stalls"] / n, "count"),
    })
    return out
