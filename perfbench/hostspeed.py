"""Host-speed-normalized time: a clock that runs at a reference host's pace.

The benchmark runs on a few cores of a shared host whose speed is not
constant: it switches between a fast and a slow state (about 1.8x apart)
within seconds, and the share of time spent in each drifts over minutes.
Plain host seconds of the same code on the same input then spread by
tens of percent from run to run, more than any bound worth setting.

:class:`SpeedClock` corrects for it.  Every ``INTERVAL_S`` of wall time a
timer signal interrupts the process and runs :func:`probe`, a fixed
pure-Python kernel that imports nothing of the program.  The time from
one probe to the next is scaled by ``REFERENCE_PROBE_S / probe time`` —
how much faster or slower the host ran than the reference host at that
moment — and summed, so the clock reads the seconds the work would have
taken on the reference host.  The probes' own time is left out of both
wall and CPU readings.  The reference host is a 2-vCPU Intel Xeon (family
6, model 143) KVM guest, and ``REFERENCE_PROBE_S`` a probe time typical of
it: a run's median probe time there ranged from 0.7 to 1.25 ms.

A change to the program moves what the clock measures between probes but
not the probes themselves: the probe shares no code or data with the
program and disables the garbage collector while it runs, so a program
holding a larger heap does not slow it.
"""

from __future__ import annotations

import gc
import signal
import time

#: wall time between probes
INTERVAL_S = 0.05
#: steps of the probe kernel per probe (about 1 ms on the reference host)
PROBE_STEPS = 500
#: time of one probe on the reference host (a typical run's median)
REFERENCE_PROBE_S = 1.1e-3


class _Slot:
    __slots__ = ("tag", "ready", "uses")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.ready = 0
        self.uses = 0


class _Kernel:
    """A toy timing model: a tag array, a counter table and a ring.

    Built once and reused, so a probe allocates nothing but integers.  Its
    mix — attribute access, list and dict indexing, integer arithmetic,
    method calls — is the interpreter work a simulator step is made of.
    """

    def __init__(self) -> None:
        self.slots = [_Slot(i) for i in range(1024)]
        self.table = {i: 0 for i in range(4096)}
        self.ring = [0] * 64
        self.head = 0
        self.cycle = 0
        self.x = 12345

    def step(self, x: int) -> None:
        slot = self.slots[x & 1023]
        tag = x >> 10
        if slot.tag != tag:
            slot.tag = tag
            slot.ready = self.cycle + 20
        slot.uses += 1
        count = self.table[x & 4095]
        self.table[x & 4095] = count + 1 if count < 3 else 0
        ready = self.ring[self.head]
        if slot.ready > ready:
            ready = slot.ready
        self.cycle = max(self.cycle + 1, ready - 16) + (count & 1)
        self.ring[self.head] = self.cycle & 0xFFFFFF
        self.head = (self.head + 1) & 63


_KERNEL = _Kernel()


def probe(steps: int = PROBE_STEPS) -> float:
    """Host seconds that ``steps`` steps of the probe kernel take now."""
    kernel = _KERNEL
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = kernel.x
        for _ in range(steps):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            kernel.step(x >> 4)
        kernel.x = x
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RawClock:
    """Plain host seconds, with the interface of :class:`SpeedClock`."""

    read = staticmethod(time.perf_counter)
    cpu = staticmethod(time.process_time)


class SpeedClock:
    """Wall and CPU seconds at the reference host's speed (see module doc).

    Use as a context manager.  Between probes the clock advances at the
    speed the last probe measured, so readings are continuous.
    """

    def __init__(self) -> None:
        #: (normalized wall, host wall at last probe, normalized CPU,
        #: host CPU at last probe, speed), replaced whole by each probe so
        #: a reading never mixes two probes' state
        self._state = (0.0, 0.0, 0.0, 0.0, 1.0)
        #: probe times measured, host seconds
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> SpeedClock:
        speed = REFERENCE_PROBE_S / probe()
        self._state = (0.0, time.perf_counter(), 0.0, time.process_time(), speed)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # restart interrupted system calls (sqlite, waitpid) rather than fail them
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        now, cpu = time.perf_counter(), time.process_time()
        norm, last, cpu_norm, cpu_last, speed = self._state
        seconds = probe()
        self.samples.append(seconds)
        self._state = (
            norm + (now - last) * speed,
            time.perf_counter(),
            cpu_norm + (cpu - cpu_last) * speed,
            time.process_time(),
            REFERENCE_PROBE_S / seconds,
        )

    def read(self) -> float:
        """Normalized wall seconds since the clock started."""
        norm, last, _, _, speed = self._state
        return norm + (time.perf_counter() - last) * speed

    def cpu(self) -> float:
        """Normalized CPU seconds of this process since the clock started."""
        _, _, cpu_norm, cpu_last, speed = self._state
        return cpu_norm + (time.process_time() - cpu_last) * speed
