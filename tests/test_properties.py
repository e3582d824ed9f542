"""Property-based tests (hypothesis) for core data structures and invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.branch import TwoBcGskewPredictor, update_history
from repro.core import MachineConfig, PortedIssue, SlotAllocator
from repro.isa import Instruction, InstructionBuilder, OpClass
from repro.memory import Cache, MemoryHierarchy, StoreBuffer
from repro.select import AlwaysSelector
from repro.vp import StridePredictor, WangFranklinPredictor

from tests.conftest import FixedPredictor, run_engine

addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)
values64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestCacheProperties:
    @given(st.lists(addresses, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache(4096, 2, line_size=64)
        for a in addrs:
            cache.insert(a)
        assert cache.occupancy <= 4096 // 64

    @given(st.lists(addresses, min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_insert_then_probe_is_present(self, addrs):
        cache = Cache(64 * 1024, 8, line_size=64)
        for a in addrs:
            cache.insert(a)
            assert cache.probe(a)

    @given(st.lists(addresses, min_size=1, max_size=100), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_lookup_miss_then_hit(self, addrs, pick):
        cache = Cache(1 << 20, 16, line_size=64)
        for a in addrs:
            if not cache.lookup(a):
                cache.insert(a)
        target = addrs[pick % len(addrs)]
        assert cache.probe(target)


class TestHierarchyProperties:
    @given(st.lists(st.tuples(addresses, st.integers(0, 10000)), min_size=1,
                    max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_completion_never_before_access(self, accesses):
        h = MemoryHierarchy(mem_latency=500)
        for addr, now in accesses:
            complete, _level = h.load(addr, 0x100, now)
            assert complete >= now

    @given(st.lists(addresses, min_size=2, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_level_counts_sum_to_accesses(self, addrs):
        h = MemoryHierarchy()
        for i, a in enumerate(addrs):
            h.load(a, 0x100, i * 10)
        assert sum(h.level_counts.values()) == h.accesses == len(addrs)


class TestStoreBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 100), addresses, values64),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_tracks_alloc_release(self, stores):
        sb = StoreBuffer(capacity=32)
        accepted = 0
        for owner, pos, addr, value in stores:
            if sb.allocate(owner, pos, addr, value, 0):
                accepted += 1
        assert len(sb) == accepted <= 32
        drained = sum(len(sb.confirm_thread(o)) for o in range(1, 5))
        assert drained == accepted
        assert len(sb) == 0

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 50), addresses, values64),
            min_size=1,
            max_size=40,
        ),
        addresses,
    )
    @settings(max_examples=50, deadline=None)
    def test_search_result_is_visible_and_older(self, stores, probe_addr):
        sb = StoreBuffer(capacity=None)
        for owner, pos, addr, value in stores:
            sb.allocate(owner, pos, addr, value, 0)
        hit = sb.search(probe_addr, visible=(1, 2), trace_pos=25)
        if hit is not None:
            assert hit.owner in (1, 2)
            assert hit.trace_pos < 25
            assert hit.addr >> 3 == probe_addr >> 3


class _ScanSlots:
    """Reference model: the allocator as a plain count dict searched by a
    linear walk over full cycles, pruned exactly like the real one."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.booked: dict[int, int] = {}

    def peek(self, t: int) -> int:
        cycle = t
        while self.booked.get(cycle, 0) >= self.capacity:
            cycle += 1
        return cycle

    def acquire(self, t: int) -> int:
        cycle = self.peek(t)
        self.booked[cycle] = self.booked.get(cycle, 0) + 1
        if len(self.booked) > 1 << 16:
            horizon = cycle - (1 << 14)
            for c in [c for c in self.booked if c < horizon]:
                del self.booked[c]
        return cycle

    def booked_at(self, t: int) -> int:
        return self.booked.get(t, 0)


class _ScanIssue:
    """Reference model of PortedIssue: alternate class and total scans."""

    def __init__(self, total: int, ports: dict[str, int]) -> None:
        self.total = _ScanSlots(total)
        self.classes = {name: _ScanSlots(cap) for name, cap in ports.items()}

    def acquire(self, port: str, t: int) -> int:
        cycle = t
        while True:
            cycle = self.classes[port].peek(cycle)
            at = self.total.peek(cycle)
            if at == cycle:
                break
            cycle = at
        self.classes[port].acquire(cycle)
        self.total.acquire(cycle)
        return cycle


def _assert_same_bookings(alloc: SlotAllocator, ref: _ScanSlots, cycles) -> None:
    assert [alloc.booked_at(c) for c in cycles] == [
        ref.booked_at(c) for c in cycles
    ]


#: ("acquire" | "peek", cycle, burst size): bursts book one cycle repeatedly
slot_ops = st.lists(
    st.tuples(st.sampled_from(["acquire", "peek"]), st.integers(0, 300),
              st.integers(1, 40)),
    min_size=1, max_size=60,
)
#: (port class or "peek-<class>", cycle, burst size)
issue_ops = st.lists(
    st.tuples(st.sampled_from(["int", "fp", "mem", "peek-int", "peek-mem"]),
              st.integers(0, 200), st.integers(1, 30)),
    min_size=1, max_size=60,
)


class TestAllocatorProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_capacity_respected_and_result_ge_request(self, requests, capacity):
        alloc = SlotAllocator(capacity)
        booked: dict[int, int] = {}
        for t in requests:
            got = alloc.acquire(t)
            assert got >= t
            booked[got] = booked.get(got, 0) + 1
        assert all(count <= capacity for count in booked.values())

    @given(slot_ops, st.integers(1, 8), st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_slots_match_linear_scan(self, ops, capacity, cut):
        """Every returned cycle and every count equal the linear scan's,
        across a snapshot/restore at op ``cut``."""
        alloc, ref = SlotAllocator(capacity), _ScanSlots(capacity)
        for i, (kind, t, burst) in enumerate(ops):
            if i == cut:
                payload = alloc.snapshot()
                assert payload["booked"] == [[c, n] for c, n in ref.booked.items()]
                alloc = SlotAllocator(capacity)
                alloc.restore(payload)
            for _ in range(burst):
                if kind == "peek":
                    assert alloc.peek(t) == ref.peek(t)
                else:
                    assert alloc.acquire(t) == ref.acquire(t)
        top = max(ref.booked, default=0) + 2
        _assert_same_bookings(alloc, ref, range(top))

    @given(issue_ops, st.integers(1, 8), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_ported_issue_matches_linear_scan(self, ops, total, int_ports,
                                              fp_ports, cut):
        ports = {"int": int_ports, "fp": fp_ports, "mem": 2}
        issue = PortedIssue(total, **{f"{k}_ports": v for k, v in ports.items()})
        ref = _ScanIssue(total, ports)
        for i, (kind, t, burst) in enumerate(ops):
            if i == cut:
                payload = issue.snapshot()
                issue = PortedIssue(
                    total, **{f"{k}_ports": v for k, v in ports.items()}
                )
                issue.restore(payload)
            for _ in range(burst):
                if kind.startswith("peek-"):
                    port = kind[len("peek-"):]
                    assert issue._classes[port].peek(t) == ref.classes[port].peek(t)
                else:
                    assert issue.acquire(kind, t) == ref.acquire(kind, t)
        top = max(ref.total.booked, default=0) + 2
        _assert_same_bookings(issue._total, ref.total, range(top))
        for port, alloc in issue._classes.items():
            _assert_same_bookings(alloc, ref.classes[port], range(top))

    @given(st.lists(st.integers(-3000, 300), min_size=1, max_size=40))
    @settings(max_examples=5, deadline=None)
    def test_pruned_stream_matches_linear_scan(self, offsets):
        """Past the 1 << 16 entry threshold both prune the same cycles,
        and requests below the horizon read them as free alike."""
        alloc, ref = SlotAllocator(2), _ScanSlots(2)
        # bursts of 8 at every 4th cycle fill it and the 3 after it:
        # runs of full cycles chained by forward pointers, 80000 in all
        for i in range(160_000):
            t = (i // 8) * 4
            assert alloc.acquire(t) == ref.acquire(t)
        assert alloc._booked.keys() == ref.booked.keys()
        horizon = min(ref.booked)
        assert horizon > 0
        for off in offsets:
            t = horizon + off
            assert alloc.peek(t) == ref.peek(t)
            assert alloc.acquire(t) == ref.acquire(t)
        cycles = sorted({horizon + off + d for off in offsets for d in range(3)})
        _assert_same_bookings(alloc, ref, cycles)


class TestPredictorProperties:
    @given(st.lists(values64, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_wang_franklin_never_crashes_and_learns_constants(self, tail):
        ib = InstructionBuilder()
        p = WangFranklinPredictor(threshold=4)
        for i, v in enumerate(tail):
            inst = ib.load(dst=1, addr=0x8000 + 8 * i, value=v, pc=0x1000)
            p.predict(inst)
            p.train(inst, v)
        # after any history, a long constant run must become predictable
        for i in range(30):
            inst = ib.load(dst=1, addr=0x9000, value=777, pc=0x1000)
            p.train(inst, 777)
        pred = p.predict(ib.load(dst=1, addr=0x9000, value=777, pc=0x1000))
        assert pred is not None and pred.value == 777

    @given(st.integers(0, (1 << 63)), st.integers(1, 1 << 30))
    @settings(max_examples=40, deadline=None)
    def test_stride_predictor_extrapolates_any_stride(self, start, stride):
        ib = InstructionBuilder()
        p = StridePredictor(threshold=2)
        mask = (1 << 64) - 1
        for i in range(5):
            v = (start + i * stride) & mask
            p.train(ib.load(dst=1, addr=0x8000, value=v, pc=0x1000), v)
        pred = p.predict(ib.load(dst=1, addr=0x8000, value=0, pc=0x1000))
        assert pred is not None
        assert pred.value == (start + 5 * stride) & mask


class TestBranchHistoryProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_history_is_pure_function_of_outcomes(self, outcomes):
        h1 = h2 = 0
        for taken in outcomes:
            h1 = update_history(h1, taken)
            h2 = update_history(h2, taken)
        assert h1 == h2
        assert 0 <= h1 < (1 << 16)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_predictor_update_never_crashes(self, outcomes):
        bp = TwoBcGskewPredictor()
        hist = 0
        for taken in outcomes:
            bp.predict(0x4000, hist)
            bp.update(0x4000, hist, taken)
            hist = update_history(hist, taken)


class TestPointIdProperties:
    """The sweep/search stacks key every store row, cache entry and
    promotion decision on point_id — it must be a pure content hash:
    invariant to params key order and identical across processes."""

    param_keys = st.sampled_from(
        ["machine", "threads", "spawn_latency", "store_buffer_entries",
         "predictor", "selector", "fetch_policy"]
    )
    param_values = st.one_of(
        st.integers(0, 1 << 16), st.text(max_size=12), st.booleans()
    )

    @given(
        st.dictionaries(param_keys, param_values, min_size=1, max_size=7),
        st.sampled_from(["mcf", "crafty", "swim"]),
        st.integers(1, 100000),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_params_key_order(self, params, workload, length, rnd):
        from repro.sweep.spec import point_id

        items = list(params.items())
        rnd.shuffle(items)
        shuffled = dict(items)
        assert list(shuffled) != list(params) or shuffled == params
        assert point_id(shuffled, workload, length) == point_id(
            params, workload, length
        )

    @given(
        st.dictionaries(param_keys, param_values, min_size=1, max_size=5),
        st.integers(1, 100000),
    )
    @settings(max_examples=40, deadline=None)
    def test_seedless_identity_separates_points(self, params, length):
        from repro.sweep.spec import point_id

        # changing any identity ingredient changes the id...
        base = point_id(params, "mcf", length)
        assert base != point_id(params, "crafty", length)
        assert base != point_id(params, "mcf", length + 1)
        # ...and the id is a stable 16-hex-digit digest
        assert len(base) == 16 and int(base, 16) >= 0

    def test_stable_across_processes(self):
        """The id of a fixed recipe must match both a golden literal
        (guarding the hash recipe against accidental change) and a
        fresh interpreter (no per-process salting a la PYTHONHASHSEED)."""
        import subprocess
        import sys

        from repro.sweep.spec import point_id

        params = {"machine": "mtvp", "threads": 8, "spawn_latency": 16}
        local = point_id(params, "mcf", 5000)
        assert local == "dc83bdd4810ebe6d"  # golden: the recipe is frozen

        code = (
            "from repro.sweep.spec import point_id; "
            "print(point_id({'spawn_latency': 16, 'threads': 8, "
            "'machine': 'mtvp'}, 'mcf', 5000), end='')"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert fresh.stdout == local


class TestEngineProperties:
    @staticmethod
    def _random_trace(ops):
        ib = InstructionBuilder()
        trace = []
        for kind, a, b in ops:
            if kind == 0:
                trace.append(ib.load(dst=1 + a % 8, addr=(1 << 33) + b * 64, value=b))
            elif kind == 1:
                trace.append(ib.store(addr=(1 << 33) + b * 64, srcs=(1 + a % 8,), value=b))
            elif kind == 2:
                trace.append(ib.int_alu(dst=1 + a % 8, srcs=(1 + b % 8,)))
            else:
                trace.append(ib.branch(taken=bool(b & 1), srcs=(1 + a % 8,)))
        return trace

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 63)),
            min_size=1,
            max_size=80,
        ),
        st.sampled_from(["baseline", "stvp", "mtvp", "spawn_only"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_trace_any_mode_accounts_exactly(self, ops, mode, wrong):
        """The global invariant: every instruction becomes architectural
        exactly once, under any mode, with any prediction quality."""
        trace = self._random_trace(ops)
        cfg = {
            "baseline": MachineConfig.hpca05_baseline,
            "stvp": MachineConfig.stvp,
            "mtvp": lambda **kw: MachineConfig.mtvp(4, **kw),
            "spawn_only": lambda **kw: MachineConfig.spawn_only(4, **kw),
        }[mode](warm_caches=False)
        predictor = FixedPredictor(offset=1 if wrong else 0)
        _, stats = run_engine(trace, cfg, predictor=predictor, selector=AlwaysSelector())
        assert stats.useful_instructions == len(trace)
        assert stats.cycles > 0
        assert stats.wasted_instructions >= 0
