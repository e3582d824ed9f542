"""Hybrid Wang–Franklin value predictor (Section 5.4 of the paper).

Structure, per the paper:

* **VHT** (value history table), 4K entries indexed by PC.  Each entry holds
  "the most recent values created by that PC" (five learned values here), a
  last-value and stride for the stride component, and "a pattern history
  (similar to a branch history) which is used to index the next table".
* **ValPHT** (value pattern history table), 32K entries, holding "the
  confidence level for the values in the VHT".

The predictor offers eight candidate *slots* per load: five learned values,
a hardwired zero, a hardwired one, and ``last + stride``.  Confidence is a
saturating counter per slot in the ValPHT entry selected by (PC, pattern):
"+1 on correct predictions ... −8 on incorrect predictions with a threshold
of 12 and a maximum counter value of 32".

The penalty of 8 makes it hard for more than one slot to be over threshold
at once — exactly the property Section 5.6 calls out when motivating a more
*liberal* parameterization for multiple-value prediction.  Pass a smaller
``penalty`` / ``threshold`` to build that liberal variant.
"""

from __future__ import annotations

from repro.isa import Instruction, OpClass
from repro.vp.base import ValuePrediction, ValuePredictor

_MASK64 = (1 << 64) - 1

#: Slot layout within a ValPHT confidence vector.
NUM_LEARNED = 5
SLOT_ZERO = 5
SLOT_ONE = 6
SLOT_STRIDE = 7
NUM_SLOTS = 8


def _build_ops() -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]:
    """Interned confidence-update ops, indexed ``[learned count][match mask]``.

    One training step changes a ValPHT vector according to two facts
    only: which slots hold a candidate (the learned values present plus
    zero, one and stride) and which candidates equal the committed value.
    Each op is that pair of slot tuples, built once here so recorded
    passes hold shared references rather than fresh tuples.
    """
    matches = [
        tuple(s for s in range(NUM_SLOTS) if mask >> s & 1)
        for mask in range(1 << NUM_SLOTS)
    ]
    table = []
    for learned in range(NUM_LEARNED + 1):
        avail = tuple(range(learned)) + (SLOT_ZERO, SLOT_ONE, SLOT_STRIDE)
        table.append(tuple((avail, match) for match in matches))
    return tuple(table)


_OPS = _build_ops()
#: pattern code of a match mask: its lowest matching slot, or NUM_SLOTS
_FIRST_MATCH = tuple(
    (mask & -mask).bit_length() - 1 if mask else NUM_SLOTS
    for mask in range(1 << NUM_SLOTS)
)


class _VhtEntry:
    """One value-history-table entry.

    ``last_value`` is the speculative head of the stride component (it may
    be advanced at the queue stage via :meth:`WangFranklinPredictor.
    speculative_update`); ``last_committed`` tracks architecturally
    committed values so training always computes the true inter-commit
    stride even when speculative updates intervene.
    """

    __slots__ = ("pc", "values", "last_value", "last_committed", "stride", "pattern")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        #: learned values, most recently used last
        self.values: list[int] = []
        self.last_value = 0
        self.last_committed = 0
        self.stride = 0
        #: shift register of recent matching slot indices (4 bits each)
        self.pattern = 0


class WangFranklinPredictor(ValuePredictor):
    """Hybrid multi-source value predictor with pattern-indexed confidence.

    Args:
        vht_entries: Value history table size (4K in the paper).
        valpht_entries: Pattern/confidence table size (32K in the paper).
        threshold: Confidence needed before a slot's value is predicted (12).
        bonus: Confidence increment on a correct slot (1).
        penalty: Confidence decrement on an incorrect slot (8).
        max_conf: Saturation ceiling (32).
        pattern_depth: How many recent slot outcomes form the pattern (2).
    """

    def __init__(
        self,
        vht_entries: int = 4096,
        valpht_entries: int = 32 * 1024,
        threshold: int = 12,
        bonus: int = 1,
        penalty: int = 8,
        max_conf: int = 32,
        pattern_depth: int = 2,
    ) -> None:
        super().__init__()
        if vht_entries & (vht_entries - 1) or valpht_entries & (valpht_entries - 1):
            raise ValueError("table sizes must be powers of two")
        self.threshold = threshold
        self.bonus = bonus
        self.penalty = penalty
        self.max_conf = max_conf
        self.pattern_depth = pattern_depth
        # 4 bits per outcome: slot indices 0-7 plus the distinct "no match"
        # code 8, so a miss is distinguishable from a stride-slot hit
        self._pattern_mask = (1 << (4 * pattern_depth)) - 1
        self._vht: list[_VhtEntry | None] = [None] * vht_entries
        self._vht_mask = vht_entries - 1
        self._valpht: list[list[int] | None] = [None] * valpht_entries
        self._valpht_mask = valpht_entries - 1

    # ------------------------------------------------------------------
    def _vht_entry(self, pc: int, allocate: bool) -> _VhtEntry | None:
        idx = (pc >> 2) & self._vht_mask
        entry = self._vht[idx]
        if entry is None or entry.pc != pc:
            if not allocate:
                return None
            entry = _VhtEntry(pc)
            self._vht[idx] = entry
        return entry

    def _confidences(self, entry: _VhtEntry) -> list[int]:
        idx = ((entry.pc >> 2) ^ (entry.pattern * 0x65D)) & self._valpht_mask
        vec = self._valpht[idx]
        if vec is None:
            vec = [0] * NUM_SLOTS
            self._valpht[idx] = vec
        return vec

    def _candidates(self, entry: _VhtEntry) -> list[int | None]:
        """Candidate value for each slot; None when the slot is empty."""
        values: list[int | None] = [None] * NUM_SLOTS
        for i, v in enumerate(entry.values[:NUM_LEARNED]):
            values[i] = v
        values[SLOT_ZERO] = 0
        values[SLOT_ONE] = 1
        values[SLOT_STRIDE] = (entry.last_value + entry.stride) & _MASK64
        return values

    # ------------------------------------------------------------------
    def predict(self, inst: Instruction) -> ValuePrediction | None:
        if inst.op is not OpClass.LOAD:
            return None
        self.lookups += 1
        entry = self._vht_entry(inst.pc, allocate=False)
        if entry is None:
            return None
        confidences = self._confidences(entry)
        candidates = self._candidates(entry)
        best_slot = -1
        best_conf = self.threshold - 1
        for slot in range(NUM_SLOTS):
            if candidates[slot] is None:
                continue
            if confidences[slot] > best_conf:
                best_conf = confidences[slot]
                best_slot = slot
        if best_slot < 0:
            return None
        return ValuePrediction(candidates[best_slot], best_conf, best_slot)

    def predict_all(self, inst: Instruction) -> list[ValuePrediction]:
        """All distinct over-threshold candidates, highest confidence first."""
        if inst.op is not OpClass.LOAD:
            return []
        entry = self._vht_entry(inst.pc, allocate=False)
        if entry is None:
            return []
        confidences = self._confidences(entry)
        candidates = self._candidates(entry)
        seen: set[int] = set()
        out: list[ValuePrediction] = []
        order = sorted(range(NUM_SLOTS), key=lambda s: -confidences[s])
        for slot in order:
            value = candidates[slot]
            if value is None or confidences[slot] < self.threshold or value in seen:
                continue
            seen.add(value)
            out.append(ValuePrediction(value, confidences[slot], slot))
        return out

    def speculative_update(self, inst: Instruction, predicted: int) -> None:
        """Queue-stage speculative advance of the stride component."""
        entry = self._vht_entry(inst.pc, allocate=False)
        if entry is not None:
            entry.last_value = predicted & _MASK64

    def train(self, inst: Instruction, actual: int) -> None:
        """Commit-time training: confidences, pattern, learned values, stride.

        The confidence rule follows the paper's wording: "value confidence
        increases by 1 on correct predictions and decreases by 8 on
        incorrect predictions" — the penalty lands on the slot that *would
        have been predicted* (the acting prediction), while any slot whose
        candidate matches the committed value is reinforced.  Slots that
        neither matched nor acted keep their confidence: this is what lets
        a minority value accumulate confidence in a bimodal stream, the
        effect Figure 5 measures.
        """
        actual &= _MASK64
        entry = self._vht_entry(inst.pc, allocate=True)
        confidences = self._confidences(entry)
        candidates = self._candidates(entry)
        # reconstruct the acting prediction exactly as predict() chooses it
        predicted_slot = -1
        best_conf = self.threshold - 1
        for slot in range(NUM_SLOTS):
            if candidates[slot] is not None and confidences[slot] > best_conf:
                best_conf = confidences[slot]
                predicted_slot = slot
        matched_slot = NUM_SLOTS  # distinct "no match" pattern code
        first_match = -1
        for slot in range(NUM_SLOTS):
            value = candidates[slot]
            if value is None:
                continue
            if value == actual:
                if first_match < 0:
                    first_match = slot
                confidences[slot] = min(confidences[slot] + self.bonus, self.max_conf)
            elif slot == predicted_slot:
                confidences[slot] = max(confidences[slot] - self.penalty, 0)
        if first_match >= 0:
            matched_slot = first_match
        # pattern update: shift in the matching slot (4 bits per outcome)
        entry.pattern = ((entry.pattern << 4) | matched_slot) & self._pattern_mask
        # learned-value LRU update
        if actual in entry.values:
            entry.values.remove(actual)
        entry.values.append(actual)
        if len(entry.values) > NUM_LEARNED:
            entry.values.pop(0)
        # stride component ("training and replacement ... when instructions commit")
        entry.stride = (actual - entry.last_committed) & _MASK64
        entry.last_committed = actual
        entry.last_value = actual

    # ------------------------------------------------------------------
    def replay(self, loads: list[Instruction], passes: int) -> None:
        """``passes`` rounds of :meth:`train` over ``loads``, computed faster.

        Training splits into two parts.  The VHT walk (learned values,
        stride, pattern, and so the ValPHT index and the candidate/match
        slots of every step) never reads a confidence counter.  The
        confidence update of a step reads and writes only its own ValPHT
        vector.  So each pass is a VHT walk that records, per vector, its
        list of ops (:data:`_OPS`), and vectors then replay their lists
        independently.

        Once a pass leaves the touched VHT entries as it found them, every
        later pass walks identically and records the same lists.  The
        remaining passes then only repeat each vector's op list, and a
        vector's next state depends on its current state alone.  So each
        vector detects the first repeated state exactly and skips whole
        periods.  If the VHT never settles, every pass is walked in full.
        """
        vht_mask = self._vht_mask
        touched = list({(inst.pc >> 2) & vht_mask for inst in loads})
        before = self._vht_state(touched)
        remaining = passes
        while remaining > 0:
            ops = self._walk(loads)
            remaining -= 1
            reps = 1
            if remaining:
                after = self._vht_state(touched)
                if after == before:
                    reps += remaining
                    remaining = 0
                before = after
            self._apply(ops, reps)

    def _vht_state(self, indices: list[int]) -> list[tuple | None]:
        """Everything but confidences of the VHT entries at ``indices``."""
        vht = self._vht
        return [
            None if e is None else (
                e.pc, tuple(e.values), e.last_value, e.last_committed,
                e.stride, e.pattern,
            )
            for e in (vht[i] for i in indices)
        ]

    def _walk(self, loads: list[Instruction]) -> dict[int, list]:
        """One training pass over the VHT; returns each vector's op list.

        Mirrors :meth:`train` step for step (learned values are distinct,
        so at most one learned slot can match), leaving every confidence
        counter untouched.
        """
        vht = self._vht
        vht_mask = self._vht_mask
        valpht_mask = self._valpht_mask
        pattern_mask = self._pattern_mask
        ops_table = _OPS
        first_match = _FIRST_MATCH
        ops: dict[int, list] = {}
        for inst in loads:
            pc = inst.pc
            actual = inst.value & _MASK64
            idx = (pc >> 2) & vht_mask
            entry = vht[idx]
            if entry is None or entry.pc != pc:
                entry = vht[idx] = _VhtEntry(pc)
            vec = ((pc >> 2) ^ (entry.pattern * 0x65D)) & valpht_mask
            values = entry.values
            learned = len(values)
            if actual in values:
                slot = values.index(actual)
                mask = 1 << slot
                del values[slot]
            else:
                mask = 0
                if learned == NUM_LEARNED:
                    del values[0]
            values.append(actual)
            if actual == 0:
                mask |= 1 << SLOT_ZERO
            elif actual == 1:
                mask |= 1 << SLOT_ONE
            if actual == (entry.last_value + entry.stride) & _MASK64:
                mask |= 1 << SLOT_STRIDE
            op = ops_table[learned][mask]
            try:
                ops[vec].append(op)
            except KeyError:
                ops[vec] = [op]
            entry.pattern = ((entry.pattern << 4) | first_match[mask]) & pattern_mask
            entry.stride = (actual - entry.last_committed) & _MASK64
            entry.last_committed = entry.last_value = actual
        return ops

    def _apply(self, ops: dict[int, list], reps: int) -> None:
        """Apply each vector's op list ``reps`` times, skipping whole cycles."""
        valpht = self._valpht
        floor = self.threshold - 1
        bonus = self.bonus
        penalty = self.penalty
        max_conf = self.max_conf
        for vec, vec_ops in ops.items():
            conf = valpht[vec]
            if conf is None:
                conf = valpht[vec] = [0] * NUM_SLOTS
            seen: dict[tuple, int] = {}
            states: list[tuple] = []
            for rep in range(reps):
                state = tuple(conf)
                start = seen.get(state)
                if start is not None:
                    conf[:] = states[start + (reps - start) % (rep - start)]
                    break
                seen[state] = rep
                states.append(state)
                for avail, match in vec_ops:
                    # the acting prediction, chosen exactly as predict() does
                    predicted = -1
                    best = floor
                    for slot in avail:
                        c = conf[slot]
                        if c > best:
                            best = c
                            predicted = slot
                    for slot in match:
                        c = conf[slot] + bonus
                        conf[slot] = c if c < max_conf else max_conf
                    if predicted >= 0 and predicted not in match:
                        c = conf[predicted] - penalty
                        conf[predicted] = c if c > 0 else 0

    def _snapshot_state(self) -> dict:
        return {
            "vht": [
                None
                if e is None
                else [
                    e.pc,
                    list(e.values),
                    e.last_value,
                    e.last_committed,
                    e.stride,
                    e.pattern,
                ]
                for e in self._vht
            ],
            "valpht": [None if v is None else list(v) for v in self._valpht],
        }

    def _restore_state(self, state: dict) -> None:
        if (
            len(state["vht"]) != len(self._vht)
            or len(state["valpht"]) != len(self._valpht)
        ):
            raise ValueError("WangFranklinPredictor snapshot table size mismatch")
        vht: list[_VhtEntry | None] = []
        for i, e in enumerate(state["vht"]):
            if e is None:
                vht.append(None)
                continue
            if len(e) != 6:
                raise ValueError(
                    f"WangFranklinPredictor snapshot VHT entry {i} has "
                    f"{len(e)} fields, expected 6"
                )
            if len(e[1]) > NUM_LEARNED:
                raise ValueError(
                    f"WangFranklinPredictor snapshot VHT entry {i} holds "
                    f"{len(e[1])} learned values, at most {NUM_LEARNED}"
                )
            entry = _VhtEntry(e[0])
            entry.values = list(e[1])
            entry.last_value = e[2]
            entry.last_committed = e[3]
            entry.stride = e[4]
            entry.pattern = e[5]
            vht.append(entry)
        valpht: list[list[int] | None] = []
        for i, v in enumerate(state["valpht"]):
            if v is not None and len(v) != NUM_SLOTS:
                raise ValueError(
                    f"WangFranklinPredictor snapshot ValPHT vector {i} has "
                    f"{len(v)} slots, expected {NUM_SLOTS}"
                )
            valpht.append(None if v is None else list(v))
        self._vht = vht
        self._valpht = valpht
