"""Selector implementations deciding whether/how to use a value prediction."""

from __future__ import annotations

import enum

from repro.isa import Instruction
from repro.memory import MemLevel


class PredictionKind(enum.IntEnum):
    """Outcome classes tracked by ILP-pred and returned by selectors."""

    NONE = 0
    STVP = 1
    MTVP = 2


class LoadSelector:
    """Base class for load selectors.

    The engine calls :meth:`choose` at the queue stage of every confident
    load prediction, passing what the machine knows at that point, and
    reports measured forward progress back through :meth:`record` when the
    prediction (or an unpredicted long-latency load) resolves.
    """

    def choose(
        self,
        inst: Instruction,
        spawn_available: bool,
        expected_level: MemLevel | None = None,
    ) -> PredictionKind:
        """Pick a prediction mode for this load.

        Args:
            inst: The load about to be (potentially) predicted.
            spawn_available: True when a free hardware context exists, so a
                multithreaded prediction is possible right now.
            expected_level: The cache level the load is known/expected to
                hit, for selectors with oracle miss knowledge.  ``None``
                when unknown.
        """
        raise NotImplementedError

    def record(
        self,
        pc: int,
        kind: PredictionKind,
        instructions: int,
        cycles: int,
        committed: int | None = None,
    ) -> None:
        """Report forward progress observed for a resolved episode.

        Args:
            pc: Static PC of the load.
            kind: Which mode the episode ran under (NONE episodes are
                unpredicted loads whose shadow the engine measured).
            instructions: Instructions fetched processor-wide between
                prediction and confirmation.
            cycles: Elapsed cycles for the episode.
            committed: Usefully committed instructions for the episode
                (confirmed speculative work only), when the engine can
                attribute them; selectors gauging progress by commit
                (Section 5.1's third predictor) use this instead.
        """

    def snapshot(self) -> dict:
        """Serialize selector state to a versioned picklable dict."""
        return {
            "version": 1,
            "kind": type(self).__name__,
            "state": self._snapshot_state(),
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload of the same kind."""
        if data.get("version") != 1:
            raise ValueError(
                f"unsupported LoadSelector snapshot version: "
                f"{data.get('version')!r}"
            )
        if data.get("kind") != type(self).__name__:
            raise ValueError(
                f"selector snapshot is for {data.get('kind')!r}, "
                f"not {type(self).__name__}"
            )
        self._restore_state(data["state"])

    def _snapshot_state(self) -> dict:
        """State contents for :meth:`snapshot`; stateless selectors: {}."""
        return {}

    def _restore_state(self, state: dict) -> None:
        """Restore contents captured by :meth:`_snapshot_state`."""


class AlwaysSelector(LoadSelector):
    """Predict every confident load; prefer MTVP whenever a context is free."""

    def choose(
        self,
        inst: Instruction,
        spawn_available: bool,
        expected_level: MemLevel | None = None,
    ) -> PredictionKind:
        return PredictionKind.MTVP if spawn_available else PredictionKind.STVP


class MissOracleSelector(LoadSelector):
    """Cache-level oracle from Section 5.1.

    "It assumes that L3 misses are profitable to perform a multithreaded
    value prediction ... Further, it assumes that L1 misses are profitable
    for single threaded value prediction."  Loads that hit in the L1 are
    not predicted at all.
    """

    def __init__(self, mtvp_level: MemLevel | str = MemLevel.MEMORY) -> None:
        if isinstance(mtvp_level, str):  # a level name, as spec files spell it
            mtvp_level = MemLevel[mtvp_level]
        #: minimum miss depth that justifies spawning a thread
        self.mtvp_level = mtvp_level

    def choose(
        self,
        inst: Instruction,
        spawn_available: bool,
        expected_level: MemLevel | None = None,
    ) -> PredictionKind:
        if expected_level is None or expected_level <= MemLevel.L1:
            return PredictionKind.NONE
        if spawn_available and expected_level >= self.mtvp_level:
            return PredictionKind.MTVP
        return PredictionKind.STVP


class _IlpEntry:
    """Per-PC forward-progress accumulators for each outcome class."""

    __slots__ = (
        "instructions",
        "cycles",
        "samples",
        "episodes",
        "latency",
        "optimistic",
    )

    def __init__(self) -> None:
        self.instructions = [0, 0, 0]
        self.cycles = [0, 0, 0]
        self.samples = [0, 0, 0]
        self.episodes = 0
        #: EWMA of observed episode length ~= the load's latency; this is
        #: the paper's simplified criticality predictor ("merely predict
        #: the latency of the load", Section 3.1).  -1 until first sample.
        self.latency = -1
        #: per-mode count of optimistic (pre-evidence) grants issued since
        #: the mode's last resolved sample; bounds warmup optimism so
        #: long-latency episodes cannot be granted without limit while the
        #: first samples are still in flight
        self.optimistic = [0, 0, 0]


class IlpPredSelector(LoadSelector):
    """The paper's implementable adaptive selector ("ILP-pred").

    Per static load it accumulates (instructions fetched, cycles) for
    episodes run with no prediction, with STVP, and with MTVP.  A mode is
    allowed only when its measured progress *rate* beats the no-prediction
    rate.  Rates use the paper's shift trick: "it is efficiently done in an
    imprecise manner by shifting down the forward progress counter by the
    largest integer power of two in the aggregate cycle count."

    Until a mode has ``warmup`` samples it is allowed optimistically, so
    the table can learn (the paper's counters likewise start permissive).
    Optimism is *bounded*: samples only land when an episode resolves,
    which for a thread spawn is hundreds of cycles after the grant, so an
    unbounded "samples < warmup → allow" rule would keep granting expensive
    speculative work on pure hope for as long as results are in flight.
    At most ``max_optimistic_grants`` grants per mode may be outstanding
    ahead of the evidence; each resolved sample resets the allowance.
    Every ``explore_period``-th episode per PC deliberately makes no
    prediction so the no-prediction baseline keeps fresh samples — without
    that, a PC whose loads always predict confidently would never measure
    what "no value prediction" is worth.
    """

    def __init__(
        self,
        entries: int = 4096,
        warmup: int = 4,
        explore_period: int = 16,
        stvp_min_latency: int = 6,
        mtvp_min_latency: int = 300,
        max_optimistic_grants: int = 16,
    ) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        if explore_period < 2:
            raise ValueError("explore_period must be at least 2")
        if max_optimistic_grants < 1:
            raise ValueError("max_optimistic_grants must be at least 1")
        self._table: dict[int, _IlpEntry] = {}
        self._entries = entries
        self.warmup = warmup
        self.explore_period = explore_period
        self.max_optimistic_grants = max_optimistic_grants
        #: criticality thresholds (Section 3.1: the critical path predictor
        #: is simplified to a latency predictor): a load whose learned
        #: latency cannot repay the recovery/spawn overhead is not worth
        #: that prediction mode — L1 hits are worth neither, only loads
        #: missing well past the L1 are worth a thread spawn
        self.stvp_min_latency = stvp_min_latency
        self.mtvp_min_latency = mtvp_min_latency
        self.decisions = {kind: 0 for kind in PredictionKind}

    def _entry(self, pc: int) -> _IlpEntry:
        # direct-mapped aliasing like the hardware table would have
        key = (pc >> 2) & (self._entries - 1)
        entry = self._table.get(key)
        if entry is None:
            entry = _IlpEntry()
            self._table[key] = entry
        return entry

    @staticmethod
    def _rate(instructions: int, cycles: int) -> int:
        """Shift-approximated instructions-per-cycle, scaled by 2**16."""
        if cycles <= 0:
            return 0
        shift = cycles.bit_length() - 1  # largest power of two in cycles
        return (instructions << 16) >> shift

    def choose(
        self,
        inst: Instruction,
        spawn_available: bool,
        expected_level: MemLevel | None = None,
    ) -> PredictionKind:
        entry = self._entry(inst.pc)
        entry.episodes += 1
        if entry.episodes == 2 or entry.episodes % self.explore_period == 0:
            # baseline refresh: decline so the engine measures a
            # no-prediction episode for this PC.  The episode-2 probe is
            # front-loaded so a baseline exists before the per-mode warmup
            # allowances run out — otherwise the "is NONE ever better?"
            # question stays unanswerable exactly while it matters most.
            self.decisions[PredictionKind.NONE] += 1
            return PredictionKind.NONE

        latency_known = entry.latency >= 0
        # grants made on hope rather than evidence this call, per mode;
        # only the mode actually chosen consumes optimism allowance
        optimism = [False, False, False]

        def allowed(kind: PredictionKind) -> bool:
            # criticality gate: the learned load latency must repay the
            # mode's overhead before forward-progress comparison applies.
            # Until a latency sample exists, a thread spawn is not risked
            # (STVP measures the latency cheaply on the first episodes).
            if not latency_known:
                if kind is PredictionKind.MTVP:
                    return False
                if entry.optimistic[kind] >= self.max_optimistic_grants:
                    return False
                optimism[kind] = True
                return True
            floor = (
                self.mtvp_min_latency
                if kind is PredictionKind.MTVP
                else self.stvp_min_latency
            )
            if entry.latency < floor:
                return False
            if (
                entry.samples[kind] < self.warmup
                or entry.samples[PredictionKind.NONE] < 1
            ):
                # pre-evidence optimism, bounded: in-flight episodes have
                # not sampled yet, so without the cap a slow mode would be
                # granted indefinitely before its first result lands
                if entry.optimistic[kind] >= self.max_optimistic_grants:
                    return False
                optimism[kind] = True
                return True
            # progress-rate comparison, exact via cross-multiplication.
            # (The paper sketches a shift-based approximate divide for the
            # hardware; the comparison itself is what matters, and the
            # shift's up-to-2x rounding would randomly flip close calls in
            # a way real hardware tuning would have ironed out.)
            i_k, c_k = entry.instructions[kind], entry.cycles[kind]
            i_n, c_n = (
                entry.instructions[PredictionKind.NONE],
                entry.cycles[PredictionKind.NONE],
            )
            return i_k * c_n > i_n * c_k

        if spawn_available and allowed(PredictionKind.MTVP):
            if optimism[PredictionKind.MTVP]:
                entry.optimistic[PredictionKind.MTVP] += 1
            self.decisions[PredictionKind.MTVP] += 1
            return PredictionKind.MTVP
        if allowed(PredictionKind.STVP):
            if optimism[PredictionKind.STVP]:
                entry.optimistic[PredictionKind.STVP] += 1
            self.decisions[PredictionKind.STVP] += 1
            return PredictionKind.STVP
        self.decisions[PredictionKind.NONE] += 1
        return PredictionKind.NONE

    def record(
        self,
        pc: int,
        kind: PredictionKind,
        instructions: int,
        cycles: int,
        committed: int | None = None,
    ) -> None:
        if cycles <= 0:
            return
        entry = self._entry(pc)
        entry.instructions[kind] += self._progress(instructions, committed)
        entry.cycles[kind] += cycles
        entry.samples[kind] += 1
        # evidence arrived: refill this mode's optimism allowance
        entry.optimistic[kind] = 0
        # episode length tracks the load's latency; quarter-weight EWMA
        if entry.latency < 0:
            entry.latency = cycles
        else:
            entry.latency += (cycles - entry.latency) >> 2
        # keep the accumulators bounded so old phases age out
        if entry.cycles[kind] > 1 << 24:
            entry.instructions[kind] >>= 1
            entry.cycles[kind] >>= 1
            entry.samples[kind] >>= 1

    @staticmethod
    def _progress(instructions: int, committed: int | None) -> int:
        """Which progress metric an episode contributes (fetched here)."""
        return instructions

    def _snapshot_state(self) -> dict:
        return {
            "table": [
                [
                    key,
                    list(e.instructions),
                    list(e.cycles),
                    list(e.samples),
                    e.episodes,
                    e.latency,
                    list(e.optimistic),
                ]
                for key, e in self._table.items()
            ],
            "decisions": {int(k): v for k, v in self.decisions.items()},
        }

    def _restore_state(self, state: dict) -> None:
        table: dict[int, _IlpEntry] = {}
        for key, instructions, cycles, samples, episodes, latency, optimistic in state[
            "table"
        ]:
            entry = _IlpEntry()
            entry.instructions = list(instructions)
            entry.cycles = list(cycles)
            entry.samples = list(samples)
            entry.episodes = episodes
            entry.latency = latency
            entry.optimistic = list(optimistic)
            table[key] = entry
        self._table = table
        self.decisions = {
            PredictionKind(int(k)): v for k, v in state["decisions"].items()
        }


class IlpCommitSelector(IlpPredSelector):
    """ILP-pred variant gauging progress by *committed* instructions.

    Section 5.1: "We also examined a third type of predictor similar to
    ILP-pred but which gauged forward progress based on committed rather
    than issued instructions.  This predictor was generally comparable to
    ILP-pred."  Where the engine can attribute usefully committed work
    (confirmed speculative commits), this selector scores episodes by that
    instead of raw fetch progress, which discounts speculative work that
    was later thrown away.
    """

    @staticmethod
    def _progress(instructions: int, committed: int | None) -> int:
        return committed if committed is not None else instructions
