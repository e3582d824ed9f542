"""Per-lane scalar operations and SoA↔scalar boundary of the lockstep kernel.

Everything here runs per *lane*: the stateful-component phases (memory
hierarchy, branch predictor, value-predictor training — invoked through
the ordinary scalar methods so behaviour is bit-identical by
construction), the vectorized-but-contended issue-port walk, and the
detach path that materializes a lane's SoA rows back into its engine's
scalar state.  The packed issue-ring entry layout shared with the step
loop (:mod:`~repro.core.engine.lockstep`) is defined here.
"""

from __future__ import annotations

import time
from collections import deque

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the batch module gates on numpy
    _np = None

from repro.branch import update_history
from repro.core.engine.records import _KIND_NONE, _ML_L2

#: queue-name order used to index the per-class issue-port count fields
_QUEUES = ("int", "fp", "mem")

#: packed issue-ring entry:
#:   cycle << 32 | total << 24 | mem << 16 | fp << 8 | int
#: Count fields are 8 bits wide so the SWAR saturation test — add
#: ``128 - cap`` to a field and look at its top bit — can never carry
#: into a neighbouring field (counts stay <= their caps <= 127).  An
#: empty slot is the integer zero: a real booking always has a nonzero
#: count, and zero entries read as "free" through the same arithmetic.
_TAG_SHIFT = 32
_TOTAL_SHIFT = 24
_CLASS_SHIFT = (0, 8, 16)

#: vector steps between overwrite-safety checks of the issue ring; the
#: ring is sized so the spread can grow for this many steps unchecked
_SPREAD_EVERY = 16

#: cycles probed per round of the vectorized contention walk.  The first
#: round probes a narrow window (with the known-busy hint the effective
#: walk is a few cycles even in port-saturated FP codes); lanes that
#: miss widen geometrically up to this cap
_WALK_FIRST = 8
_WALK_WINDOW = 256


class _LaneOpsMixin:
    """Mixed into :class:`~repro.core.engine.lockstep._LockstepBatch`."""

    def _load_phase(self, k: int, n: int, tq_list, ti_list):
        """Per-lane memory access and (optionally) the prediction path."""
        tc_list = []
        dr_list = []
        spawned = None
        vp_on, spawn_capable = self.vp_on, self.spawn_capable
        min_end, reg_ready = self.min_end, self.reg_ready
        base_global = self.base_global
        for i, (eng, ctx, trace, hier, handler) in enumerate(
            zip(self.engines, self.ctxs, self.traces, self.hiers, self.handlers)
        ):
            inst = trace[k]
            # the store buffer is empty by invariant (no speculative
            # context ever runs batched), so search() is a no-op miss
            level = hier.probe_level(inst.addr)
            tc, _level = hier.load(inst.addr, inst.pc, ti_list[i])
            if vp_on:
                # n = _global_fetched before this instruction retires
                eng._global_fetched = base_global[i] + n
                ctx.pos = k
                if spawn_capable:
                    # _spawn flash-copies the parent register map
                    ctx.reg_ready[:] = reg_ready[:, i].tolist()
                ready, record = handler(ctx, inst, tq_list[i], tc, level)
                if record is not None:
                    if spawned is None:
                        spawned = []
                    spawned.append((i, record))
                dr_list.append(ready)
                min_end[i] = ctx.measures_min_end
            else:
                dr_list.append(tc)
                if level >= _ML_L2:
                    eng._global_fetched = base_global[i] + n
                    eng._defer_measure(ctx, inst.pc, _KIND_NONE, tq_list[i], tc)
                    min_end[i] = ctx.measures_min_end
            tc_list.append(tc)
        return (
            _np.array(tc_list, dtype=_np.int64),
            _np.array(dr_list, dtype=_np.int64),
            spawned,
        )

    def _branch_phase(self, k: int, t_complete) -> None:
        resume_at = self.resume_at
        for i, (ctx, trace, bp) in enumerate(
            zip(self.ctxs, self.traces, self.bps)
        ):
            inst = trace[k]
            taken = inst.taken
            predicted = bp.predict_and_update(inst.pc, ctx.bhist, taken)
            ctx.bhist = update_history(ctx.bhist, taken)
            if predicted != taken:
                self.engines[i].stats.branch_mispredicts += 1
                redirect = int(t_complete[i]) + 1
                if redirect > int(resume_at[i]):
                    resume_at[i] = redirect

    def _train_phase(self, k: int) -> None:
        for trace, pred in zip(self.traces, self.preds):
            inst = trace[k]
            if inst.value is not None:
                pred.train(inst, inst.value)

    # ------------------------------------------------------------------
    # issue-ring slow path: the vectorized contention walk
    # ------------------------------------------------------------------
    def _acquire_walk(self, qi: int, lanes, tr, t_issue) -> None:
        """Resolve port contention for ``lanes``; writes into ``t_issue``.

        The scalar allocator's class/total agreement walk
        (:meth:`~repro.core.allocators.PortedIssue.acquire`) only ever
        skips a cycle after observing its class *or* total count at cap,
        so it terminates at the first cycle at/after ``t_ready`` where
        both are under cap — which is exactly the packed SWAR free test.
        This probes a window of consecutive cycles for every contended
        lane at once and books at each lane's first free cycle; lanes
        whose whole window is saturated advance a window and go again.
        """
        np_ = _np
        ar = self._ar
        ring_mask = self.ring - 1
        ring_flat = self.issue_ring.reshape(-1)
        inc = self.incs[qi]
        magic = self.magics[qi]
        hibit = self.hibits[qi]
        s0 = tr[lanes] + 1  # the fast path proved cycle tr itself is busy
        base, selp = self.walk_base[qi], self.walk_sel[qi]
        b, sp = base[lanes], selp[lanes]
        # the just-proven-busy cycle s0-1 merges with the known-busy
        # interval whenever it touches it (inside or adjacent at the end),
        # extending the interval instead of re-anchoring; first free is
        # then at/after the interval end
        overlap = (s0 > b) & (s0 <= sp + 1)
        cand = np_.where(overlap, np_.maximum(s0, sp), s0)
        base[lanes] = np_.where(overlap, b, s0 - 1)
        rowoff = self.row_off[lanes]
        w = _WALK_FIRST
        while lanes.size:
            cyc2 = cand[:, None] + ar[:w]
            entry2 = ring_flat[(cyc2 & ring_mask) + rowoff[:, None]]
            np_.multiply(entry2, (entry2 >> _TAG_SHIFT) == cyc2, out=entry2)
            free = ((entry2 + magic) & hibit) == 0
            hit = free.any(axis=1)
            if hit.any():
                sel = (cand + free.argmax(axis=1))[hit]
                s = (sel & ring_mask) + rowoff[hit]
                e = ring_flat[s]
                np_.multiply(e, (e >> _TAG_SHIFT) == sel, out=e)
                np_.maximum(e, sel << _TAG_SHIFT, out=e)
                e += inc
                ring_flat[s] = e
                hl = lanes[hit]
                t_issue[hl] = sel
                selp[hl] = sel
                if hit.all():
                    return
                keep = ~hit
                lanes = lanes[keep]
                cand = cand[keep]
                rowoff = rowoff[keep]
            cand += w
            if w < _WALK_WINDOW:
                w *= 4

    # ------------------------------------------------------------------
    # leaving the batch: materialize SoA rows back into scalar state
    # ------------------------------------------------------------------
    def _detach(self, lane: int, pos: int, spawned: bool) -> None:
        """Write lane ``lane`` back into its engine at trace position ``pos``.

        Values cross back as plain Python ints — np.int64 must never leak
        into contexts or stats (it would poison JSON serialization of
        cached results and goldens).
        """
        eng, ctx = self.engines[lane], self.ctxs[lane]
        n, wcount = self.steps, self.wcount
        ctx.last_fetch = int(self.last_fetch[lane])
        ctx.resume_at = int(self.resume_at[lane])
        ctx.last_commit = int(self.last_commit[lane])
        ctx.commit_cycle = int(self.commit_cycle[lane])
        ctx.commits_in_cycle = int(self.commits_in_cycle[lane])
        ctx.reg_ready = [int(v) for v in self.reg_ready[:, lane]]
        ctx.rob = deque(
            int(self.rob[j % self.rob_size, lane])
            for j in range(max(0, n - self.rob_size), n)
        )
        ctx.fetched_count += n
        ctx.within_commits += n
        if n:
            # arch_limit is None right up to a spawn, and a spawning step
            # still commits within (pos == arch_limit), so every batched
            # commit was architectural and the last one closes the run
            ctx.last_within_commit = int(self.last_commit[lane])
        ctx.pos = pos
        if pos >= self.trace_len:
            ctx.done = True
        if spawned and eng._fetch_single:
            ctx.blocked = True

        # in-flight writers arrived in commit order, so the FIFO ring is
        # already the sorted list a heap would hold
        eng._rename_groups[0] = [
            int(self.ren[j % self.rename_regs, lane])
            for j in range(max(0, wcount - self.rename_regs), wcount)
        ]
        iq_groups = eng._iq_groups[0]
        for qi, name in enumerate(_QUEUES):
            iq_groups[name] = sorted(
                int(v) for v in self.iqs[qi][lane, : self.iq_len[qi]]
            )
        fetch = eng._fetch_groups[0]
        if n:
            fetch.set_booked(
                [(int(self.last_fetch[lane]), int(self.fetch_cnt[lane]))]
            )
        fetch.acquired += n
        self._rebuild_issue(eng._issue_groups[0], lane, n)

        eng._global_fetched = self.base_global[lane] + n
        stats = eng.stats
        stats.loads += self.n_loads
        stats.stores += self.n_stores
        stats.branches += self.n_branches
        eng._wall_accum += (time.perf_counter() - self.t0) / self.lanes0

    def _rebuild_issue(self, ported, lane: int, n: int) -> None:
        """Unpack one lane's ring into the scalar PortedIssue dicts.

        Only cycles a future probe can still reach matter — probes start
        above the lane's fetch frontier — which keeps the rebuilt dicts
        near the scalar allocator's own pruned size.
        """
        row = self.issue_ring[lane]
        tags = row >> _TAG_SHIFT
        live = _np.flatnonzero(
            (tags >= int(self.last_fetch[lane])) & (row != 0)
        )
        total_counts: list[tuple[int, int]] = []
        class_counts: list[list[tuple[int, int]]] = [[], [], []]
        for s in live:
            entry = int(row[s])
            cycle = entry >> _TAG_SHIFT
            count = (entry >> _TOTAL_SHIFT) & 255
            if count:
                total_counts.append((cycle, count))
            for qi in range(3):
                count = (entry >> _CLASS_SHIFT[qi]) & 255
                if count:
                    class_counts[qi].append((cycle, count))
        ported._total.set_booked(total_counts)
        ported._total.acquired += n
        for qi, name in enumerate(_QUEUES):
            alloc = ported._classes[name]
            alloc.set_booked(class_counts[qi])
            alloc.acquired += self.q_acq[qi]

    def _compress(self, keep: list[int]) -> None:
        """Drop detached lanes from every SoA array."""
        self.engines = [self.engines[i] for i in keep]
        self.ctxs = [self.ctxs[i] for i in keep]
        self.traces = [self.traces[i] for i in keep]
        self.base_global = [self.base_global[i] for i in keep]
        self.hiers = [self.hiers[i] for i in keep]
        self.bps = [self.bps[i] for i in keep]
        self.preds = [self.preds[i] for i in keep]
        self.handlers = [self.handlers[i] for i in keep]
        idx = _np.array(keep, dtype=_np.intp)
        for name in (
            "last_fetch", "resume_at", "last_commit", "commit_cycle",
            "commits_in_cycle", "min_end", "fetch_cnt", "issue_ring",
        ):
            setattr(self, name, _np.ascontiguousarray(getattr(self, name)[idx]))
        for name in ("reg_ready", "rob", "ren"):
            setattr(
                self, name, _np.ascontiguousarray(getattr(self, name)[:, idx])
            )
        self.iqs = [_np.ascontiguousarray(a[idx]) for a in self.iqs]
        self.walk_base = [a[idx] for a in self.walk_base]
        self.walk_sel = [a[idx] for a in self.walk_sel]
        self._alloc_scratch(len(keep))
