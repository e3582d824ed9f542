"""Context scheduling: microarchitectural *timing* control flow.

Both schedulers hold only timing state (local clocks, the pending spawn
heap); all architectural effects happen inside the step kernel and the
spawn lifecycle.  The optimized and reference schedulers must make
bit-identical decisions — tests compare the two.
"""

from __future__ import annotations

#: step budget meaning "run to completion" — a bound far beyond any trace,
#: so the bounded-run check stays one integer compare on the hot path
NO_LIMIT = 1 << 62


class SchedulerMixin:
    """Chooses which context steps next; drives the run to completion."""

    def _run_scheduler(self, stop_at: int = NO_LIMIT) -> None:
        """Step contexts in approximate time order until the trace drains.

        Scheduling policy (identical to :meth:`_run_scheduler_reference`):
        among runnable contexts, step the one with the smallest
        ``next_time_hint`` (ties break toward the lowest slot), unless a
        pending spawn record resolves at or before that hint.

        ``stop_at`` bounds the processor-wide fetched count: the loop
        suspends (between steps, never mid-step) once it is reached, which
        is what makes a run pausable for :meth:`Engine.snapshot`.

        Two things make this loop fast without changing any decision:

        * the candidate scan is inlined over the context slots — no list
          build, no ``min(key=lambda)``, no property calls — and with at
          most ``num_contexts`` (8) entries a first-minimum scan is already
          the "small ordered structure" the ≥2-runnable case needs;
        * once a context wins the scan, an inner loop keeps stepping it
          without rescanning for as long as a rescan would provably pick
          it again.  The other contexts' hints and runnable flags can only
          change inside ``_resolve_next`` or when a spawn allocates a new
          context, so between those events the winner keeps winning until
          its own hint passes the runner-up's (ties break by slot, exactly
          as in the scan).  This covers both the single-context modes and
          the dominant MTVP state (parent blocked on its spawn, one child
          running).
        """
        contexts = self._contexts
        pending = self._pending
        step = self._step
        while self._global_fetched < stop_at:
            best = None
            best_hint = 0
            for c in contexts:
                if (
                    c is None
                    or not c.alive
                    or c.blocked
                    or c.sb_paused
                    or c.done
                ):
                    continue
                hint = c.last_fetch
                if c.resume_at > hint:
                    hint = c.resume_at
                if best is None or hint < best_hint:
                    best = c
                    best_hint = hint
            if best is None:
                if pending:
                    self._resolve_next()
                    continue
                return
            if pending and pending[0][0] <= best_hint:
                self._resolve_next()
                continue
            # runner-up hint and the first slot achieving it: the winner
            # stays the scheduling choice while it beats this bound
            second_hint = -1
            second_slot = 0
            for c in contexts:
                if (
                    c is None
                    or c is best
                    or not c.alive
                    or c.blocked
                    or c.sb_paused
                    or c.done
                ):
                    continue
                hint = c.last_fetch
                if c.resume_at > hint:
                    hint = c.resume_at
                if second_hint < 0 or hint < second_hint:
                    second_hint = hint
                    second_slot = c.slot
            order_snap = self._next_order
            best_slot = best.slot
            c = best
            step(c)
            while (
                c.alive
                and not (c.blocked or c.sb_paused or c.done)
                and self._next_order == order_snap
                and self._global_fetched < stop_at
            ):
                hint = c.last_fetch
                if c.resume_at > hint:
                    hint = c.resume_at
                if second_hint >= 0 and (
                    hint > second_hint
                    or (hint == second_hint and best_slot > second_slot)
                ):
                    break
                if pending and pending[0][0] <= hint:
                    break
                step(c)

    def _run_scheduler_priority(self, stop_at: int = NO_LIMIT) -> None:
        """Time-ordered scheduling with a model-supplied fairness tie-break.

        Used when the bound execution model defines ``context_priority``
        (the SMT co-schedule): among runnable contexts the earliest time
        hint still wins — stepping out of time order would change shared
        allocator bookings — but ties resolve by the model's priority
        (ICOUNT-style: fewest fetched instructions first) before slot
        order, so independent programs share fetch bandwidth fairly when
        their clocks synchronize on a shared structural stall.
        """
        prio = self._priority_fn
        contexts = self._contexts
        pending = self._pending
        while self._global_fetched < stop_at:
            best = None
            best_key = None
            for c in contexts:
                if (
                    c is None
                    or not c.alive
                    or c.blocked
                    or c.sb_paused
                    or c.done
                ):
                    continue
                hint = c.last_fetch
                if c.resume_at > hint:
                    hint = c.resume_at
                key = (hint, prio(c), c.slot)
                if best is None or key < best_key:
                    best = c
                    best_key = key
            if best is None:
                if pending:
                    self._resolve_next()
                    continue
                return
            if pending and pending[0][0] <= best_key[0]:
                self._resolve_next()
                continue
            self._step(best)

    def _run_scheduler_reference(self, stop_at: int = NO_LIMIT) -> None:
        """The original rebuild-everything scheduler, kept for A/B tests.

        Bit-for-bit the pre-optimization loop; also tracks the peak number
        of simultaneously runnable contexts so tests can prove a trace
        exercised true multi-context scheduling.
        """
        while self._global_fetched < stop_at:
            runnable = [
                c for c in self._contexts if c is not None and c.alive and c.runnable
            ]
            if len(runnable) > self.max_runnable_observed:
                self.max_runnable_observed = len(runnable)
            if runnable:
                ctx = min(runnable, key=lambda c: c.next_time_hint)
                if self._pending and self._pending[0][0] <= ctx.next_time_hint:
                    self._resolve_next()
                    continue
                self._step(ctx)
                continue
            if self._pending:
                self._resolve_next()
                continue
            return
