"""Warm start and functional fast-forward.

Two mechanisms live here, both touching *architectural* state only:

* :meth:`WarmupMixin._warm_state` — the SimPoint-style warm start
  (``config.warm_caches``): pre-touch the steady-state footprint and train
  the predictors by replaying the trace functionally, without advancing
  the trace position.  The timed run still covers the whole trace.
* :meth:`WarmupMixin.fast_forward` — functional fast-forward: *advance*
  the root context through the first N instructions with architectural
  effects only (cache contents, prefetcher streams, branch/value predictor
  tables, branch history, trace position) and zero timing bookkeeping.
  The timed run then covers only the remaining instructions.  Component
  counters accumulated during the pass are reset so stats describe the
  measured interval alone.

:meth:`WarmupMixin.warm_start` is the one entry point that applies both
to a cold-built engine, or restores their combined result from a
checkpoint store instead of recomputing it.
"""

from __future__ import annotations

from repro.branch import update_history
from repro.core.context import ThreadContext
from repro.isa import OpClass


class WarmupMixin:
    """Architectural-only trace replay: warm start and fast-forward."""

    def warm_start(
        self, warm_addresses=None, warmup: int = 0, checkpoints=None,
        key: str | None = None,
    ) -> None:
        """Bring a cold-built engine to the state its timed run starts from.

        Applies the warm start (when ``config.warm_caches``) and then a
        functional fast-forward of ``warmup`` instructions.  Both produce
        architectural state only, so their combined result is one
        cacheable artifact: with a ``checkpoints`` store (anything with
        ``get``/``put``, e.g.
        :class:`~repro.harness.checkpoint.CheckpointStore`) and a ``key``
        (:func:`~repro.harness.checkpoint.arch_key`) it is restored from
        the store when present, and computed and stored otherwise.

        Instrumented engines always compute (arch snapshots exclude probe
        state), and so do multi-program co-schedules (arch snapshots cover
        a single root context).
        """
        if self._started:
            raise RuntimeError("warm_start() must run before Engine.run()")
        if key is None or self._obs is not None or self.model.multi_program:
            checkpoints = None
        if checkpoints is not None:
            payload = checkpoints.get(key)
            if payload is not None:
                self.restore(payload)
                return
        if self.config.warm_caches:
            self._warm_state(
                warm_addresses, [c for c in self._contexts if c is not None]
            )
        if warmup:
            self.fast_forward(warmup)
        if checkpoints is not None:
            checkpoints.put(key, self.snapshot(scope="arch"))

    def _warm_state(self, addresses, roots: list[ThreadContext]) -> None:
        """SimPoint-style warm start for long-lived microarchitectural state.

        A SimPoint window begins mid-execution, with caches, branch
        predictor and value predictor all trained by the preceding
        billions of instructions.  A short synthetic trace would otherwise
        charge all of that warm-up to the timed region:

        * cache contents: the caller supplies the footprints that are
          resident in steady state (regions that fit in the L3; giant
          non-revisiting walks stay cold, as they would be at any point of
          a real long run);
        * branch predictor and value predictor: one functional pass over
          the trace trains the tables exactly as the previous loop
          iterations of the real program would have.

        Stats are reset afterwards so only the timed run is reported.
        """
        hierarchy = self.hierarchy
        if addresses is not None:
            for addr in addresses:
                hierarchy.store(addr, 0)
            hierarchy.reset_stats()
        bp = self.branch_predictor
        vp = self.predictor
        # one functional pass per program: single-program engines have one
        # root over self.trace (the historical behaviour, bit for bit),
        # multi-program co-schedules train the shared tables from every
        # stream — itself a realistic interference channel
        for root in roots:
            hist = 0
            for inst in root.trace:
                if inst.op is OpClass.BRANCH:
                    bp.update(inst.pc, hist, inst.taken)
                    hist = update_history(hist, inst.taken)
                elif inst.op is OpClass.LOAD and inst.value is not None:
                    vp.train(inst, inst.value)
            # extra value-predictor passes: confidence counters (+1 per hit)
            # need far more history than one short trace to reach the steady
            # state a 100M-instruction run would have — minority pattern
            # values gain confidence a point at a time and need several
            # hundred sightings per static load before their counters mean
            # anything.  scale the replay count so each static load sees
            # ~800 trainings.
            load_insts = [
                inst
                for inst in root.trace
                if inst.op is OpClass.LOAD and inst.value is not None
            ]
            if load_insts:
                per_pc = len(load_insts) / max(1, len({i.pc for i in load_insts}))
                passes = min(40, max(1, round(800 / per_pc) - 1))
                for _ in range(passes):
                    for inst in load_insts:
                        vp.train(inst, inst.value)
            root.bhist = hist
        vp.lookups = 0
        vp.predictions = 0
        vp.correct = 0
        vp.incorrect = 0

    # ------------------------------------------------------------------
    def fast_forward(self, n: int, warm_components: bool = True) -> int:
        """Functionally advance the root context by ``n`` instructions.

        Architectural state only: the trace position and branch history
        move, the memory image flows through the cache hierarchy and
        prefetcher, and the branch/value predictor tables train exactly as
        a timed run would have trained them at commit.  No timestamps, no
        window/port/queue bookkeeping, no spawns, no stats — timing starts
        from a clean slate at the new position.

        Must be called before the timed run starts (it is the "cheap
        warmup" half of the warmup+sample protocol; see DESIGN.md §5f for
        the fidelity caveats).  Returns the number of instructions
        skipped.

        Args:
            n: Instructions to fast-forward past.  Must leave at least one
                instruction for the timed region.
            warm_components: When False, only the trace position and
                branch history advance — caches and predictors stay cold
                (useful for pure region selection).
        """
        if self._started:
            raise RuntimeError("fast_forward() must run before Engine.run()")
        if self.model.multi_program:
            raise RuntimeError(
                "fast_forward() advances the single root context; "
                "multi-program co-schedules have no single warmup stream"
            )
        if n < 0:
            raise ValueError("fast-forward distance must be non-negative")
        root = self._contexts[0]
        if n >= self._trace_len - root.pos:
            raise ValueError(
                f"fast-forward of {n} leaves no instructions to simulate "
                f"(trace has {self._trace_len - root.pos} left)"
            )
        if n == 0:
            return 0
        bp = self.branch_predictor
        vp = self.predictor
        hierarchy = self.hierarchy
        hist = root.bhist
        start = root.pos
        for inst in self.trace[start : start + n]:
            op = inst.op
            if op is OpClass.LOAD:
                if warm_components:
                    hierarchy.warm_access(inst.addr, inst.pc)
                    if inst.value is not None:
                        vp.train(inst, inst.value)
            elif op is OpClass.STORE:
                if warm_components:
                    hierarchy.store(inst.addr, 0)
            elif op is OpClass.BRANCH:
                if warm_components:
                    bp.update(inst.pc, hist, inst.taken)
                hist = update_history(hist, inst.taken)
        root.bhist = hist
        root.pos = start + n
        root.start_pos = root.pos
        # the pass is warmup, not measurement: drop the component counters
        # it inflated so the timed interval reports only itself
        if warm_components:
            hierarchy.reset_stats()
            pf = hierarchy.prefetcher
            if pf is not None:
                pf.reset_stats()
        self.stats.warmup_instructions += n
        return n
