"""Multi-program SMT co-scheduling: N independent workloads, one core.

The substrate the paper's machine descends from (and the setting of
Durbhakula's multithreaded branch-prediction study): every hardware
context runs its *own* program, and the interesting measurement is
interference — how much slower each program runs when co-scheduled over
the shared instruction queues, rename pool, issue ports, fetch bandwidth
and cache hierarchy than it would run alone.

No speculation of any kind: no value prediction, no spawns, no store
buffering (every context is non-speculative, so stores go straight to the
shared hierarchy, which is itself a genuine interference channel).  The
scheduler breaks time-hint ties ICOUNT-style — the context with the
fewest fetched instructions goes first — so no program starves even when
their clocks synchronize on a shared structural stall.
"""

from __future__ import annotations

from repro.core.modes.base import ExecutionModel


class SmtModel(ExecutionModel):
    """N workload contexts co-scheduled over the shared pipeline."""

    key = "smt"
    multi_program = True

    def context_priority(self, ctx) -> int:
        # ICOUNT fairness: among contexts ready at the same cycle, favor
        # the one that has made the least forward progress
        return ctx.fetched_count

    def finalize_stats(self, engine) -> None:
        rows = []
        for ctx in sorted(
            (c for c in engine._contexts if c is not None),
            key=lambda c: c.stream,
        ):
            cycles = ctx.last_within_commit
            rows.append(
                {
                    "stream": ctx.stream,
                    "instructions": ctx.within_commits,
                    "cycles": cycles,
                    "ipc": round(ctx.within_commits / cycles, 6) if cycles else 0.0,
                }
            )
        engine.stats.per_context = rows
