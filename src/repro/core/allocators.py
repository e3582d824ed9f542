"""Cycle-granular bandwidth allocators shared between SMT contexts.

The timestamp-based pipeline has no central clock, so structural bandwidth
(issue ports, shared fetch in the no-stall policy) is arbitrated by these
allocators: ``acquire(t)`` books the earliest cycle at or after ``t`` with a
free slot.

Bookings arrive in approximate time order, but not in order within a
burst: every instruction waiting on one miss becomes ready at the same
cycle, and the 8192-entry wide window holds hundreds of them.  A linear
walk over the full cycles that the earlier ones filled is quadratic in
the burst: it probed 116.6 booked cycles per issue on wide-window points
of the 32-workload suite, against about 2 on the Table 1 machine.  So a
full cycle's entry in the booking dict is a negative forward pointer
instead of a count: ``-d`` says this cycle and the ``d - 1`` after it are
full, and the search goes on at ``cycle + d``.  A cycle that fills points
to its successor (``-1``); lookups follow the pointers and split the path
behind them (each entry visited is repointed past the one it led to), so
finding a free cycle is amortized near-O(1).  A free cycle still costs one
``dict.get``.  Pointers only span full cycles, which are keys, so the key
set is exactly that of a dict of counts and pruning drops the same
entries.
"""

from __future__ import annotations

from collections.abc import Iterable


def _first_free(booked: dict[int, int], cycle: int, entry: int) -> int:
    """First cycle after the full ``cycle`` (``entry < 0``) with a free slot."""
    nxt = cycle - entry
    entry = booked.get(nxt, 0)
    while entry < 0:
        # split the path: point cycle where nxt points, past nxt
        booked[cycle] = cycle - nxt + entry
        cycle = nxt
        nxt = cycle - entry
        entry = booked.get(nxt, 0)
    return nxt


class SlotAllocator:
    """Books up to ``capacity`` events per cycle.

    Sparse dict from cycle to booked count, or to a forward pointer once
    the cycle is full (see the module docstring); entries older than the
    pruning horizon are dropped opportunistically so memory stays bounded
    over long simulations.  Pruned cycles read as free.
    """

    def __init__(self, capacity: int, name: str = "slots") -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.name = name
        self._booked: dict[int, int] = {}
        self.acquired = 0

    def acquire(self, t: int) -> int:
        """Book one slot at the earliest cycle >= ``t``; returns that cycle."""
        cycle = int(t)
        booked = self._booked
        n = booked.get(cycle, 0)
        if n < 0:
            cycle = _first_free(booked, cycle, n)
            n = booked.get(cycle, 0)
        n += 1
        booked[cycle] = -1 if n == self.capacity else n
        self.acquired += 1
        if len(booked) > 1 << 16:
            self._prune(cycle)
        return cycle

    def peek(self, t: int) -> int:
        """Earliest cycle >= ``t`` with a free slot, without booking it."""
        cycle = int(t)
        n = self._booked.get(cycle, 0)
        if n < 0:
            return _first_free(self._booked, cycle, n)
        return cycle

    def _prune(self, now: int) -> None:
        horizon = now - (1 << 14)
        for cycle in [c for c in self._booked if c < horizon]:
            del self._booked[cycle]

    def booked_at(self, t: int) -> int:
        """How many slots are already booked in cycle ``t`` (for tests)."""
        n = self._booked.get(int(t), 0)
        return self.capacity if n < 0 else n

    def set_booked(self, counts: Iterable[tuple[int, int]]) -> None:
        """Replace every booking with ``(cycle, count)`` pairs.

        The one way in for counts from outside (snapshots, lane batches):
        full cycles become forward pointers here.
        """
        capacity = self.capacity
        booked: dict[int, int] = {}
        for cycle, n in counts:
            if not 1 <= n <= capacity:
                raise ValueError(
                    f"{self.name}: {n} bookings in cycle {cycle} "
                    f"(capacity {capacity})"
                )
            booked[cycle] = -1 if n == capacity else n
        self._booked = booked

    def snapshot(self) -> dict:
        """Serialize bookings and counters to a versioned picklable dict."""
        capacity = self.capacity
        return {
            "version": 1,
            "capacity": capacity,
            "booked": [
                [c, capacity if n < 0 else n] for c, n in self._booked.items()
            ],
            "acquired": self.acquired,
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload (same capacity)."""
        if data.get("version") != 1:
            raise ValueError(
                f"unsupported SlotAllocator snapshot version: "
                f"{data.get('version')!r}"
            )
        if data["capacity"] != self.capacity:
            raise ValueError("SlotAllocator snapshot capacity mismatch")
        self.set_booked(data["booked"])
        self.acquired = data["acquired"]


class PortedIssue:
    """Issue bandwidth: per-class port limits under a global width cap.

    Table 1: "8 instructions per cycle, up to 6 Integer, 2 FP, 4
    load/store".  ``acquire`` books one slot in both the class allocator
    and the global allocator at a common cycle.
    """

    def __init__(self, total: int = 8, int_ports: int = 6, fp_ports: int = 2,
                 mem_ports: int = 4) -> None:
        self._total = SlotAllocator(total, "issue-total")
        self._classes = {
            "int": SlotAllocator(int_ports, "issue-int"),
            "fp": SlotAllocator(fp_ports, "issue-fp"),
            "mem": SlotAllocator(mem_ports, "issue-mem"),
        }

    def acquire(self, port: str, t: int) -> int:
        """Book an issue slot of class ``port`` at or after ``t``.

        Equivalent to alternating ``peek`` calls on the class and total
        allocators until they agree, then ``acquire`` on both — but fused
        over the two booking dicts directly, since this runs once per
        simulated instruction and the calls dominated its cost.
        """
        class_alloc = self._classes[port]
        total = self._total
        class_booked = class_alloc._booked
        total_booked = total._booked
        cycle = int(t)
        while True:
            n = class_booked.get(cycle, 0)
            if n < 0:
                cycle = _first_free(class_booked, cycle, n)
                n = class_booked.get(cycle, 0)
            m = total_booked.get(cycle, 0)
            if m >= 0:
                break
            cycle = _first_free(total_booked, cycle, m)
        n += 1
        class_booked[cycle] = -1 if n == class_alloc.capacity else n
        class_alloc.acquired += 1
        if len(class_booked) > 1 << 16:
            class_alloc._prune(cycle)
        m += 1
        total_booked[cycle] = -1 if m == total.capacity else m
        total.acquired += 1
        if len(total_booked) > 1 << 16:
            total._prune(cycle)
        return cycle

    @property
    def issued(self) -> int:
        """Total issue slots booked."""
        return self._total.acquired

    def snapshot(self) -> dict:
        """Serialize the total and per-class allocators (versioned)."""
        return {
            "version": 1,
            "total": self._total.snapshot(),
            "classes": {
                name: alloc.snapshot() for name, alloc in self._classes.items()
            },
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload (same port structure)."""
        if data.get("version") != 1:
            raise ValueError(
                f"unsupported PortedIssue snapshot version: "
                f"{data.get('version')!r}"
            )
        if set(data["classes"]) != set(self._classes):
            raise ValueError("PortedIssue snapshot port classes mismatch")
        self._total.restore(data["total"])
        for name, alloc in self._classes.items():
            alloc.restore(data["classes"][name])
