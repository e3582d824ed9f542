"""Unit tests for the hybrid Wang-Franklin value predictor."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.isa import InstructionBuilder
from repro.vp import (
    DfcmPredictor,
    LastValuePredictor,
    OraclePredictor,
    StridePredictor,
    WangFranklinPredictor,
)
from repro.vp.wang_franklin import NUM_LEARNED, SLOT_ONE, SLOT_STRIDE, SLOT_ZERO


def loads(values, pc=0x1000):
    ib = InstructionBuilder()
    return [ib.load(dst=1, addr=0x8000 + 8 * i, value=v, pc=pc) for i, v in enumerate(values)]


def train_seq(p, values, pc=0x1000):
    for inst in loads(values, pc):
        p.train(inst, inst.value)


class TestBasicPrediction:
    def test_cold_pc_predicts_nothing(self):
        p = WangFranklinPredictor()
        assert p.predict(loads([5])[0]) is None

    def test_constant_value_learned(self):
        p = WangFranklinPredictor()
        train_seq(p, [77] * 20)
        pred = p.predict(loads([77])[0])
        assert pred is not None and pred.value == 77

    def test_confidence_threshold_respected(self):
        p = WangFranklinPredictor(threshold=12)
        train_seq(p, [77] * 5)  # only 5 correct => confidence 5 < 12
        assert p.predict(loads([77])[0]) is None

    def test_hardwired_zero_slot(self):
        p = WangFranklinPredictor()
        train_seq(p, [0] * 20)
        pred = p.predict(loads([0])[0])
        assert pred.value == 0 and pred.slot == SLOT_ZERO

    def test_hardwired_one_slot(self):
        p = WangFranklinPredictor()
        train_seq(p, [1] * 20)
        pred = p.predict(loads([1])[0])
        assert pred.value == 1 and pred.slot == SLOT_ONE

    def test_stride_slot(self):
        p = WangFranklinPredictor()
        train_seq(p, list(range(100, 400, 10)))
        pred = p.predict(loads([400])[0])
        assert pred is not None
        assert pred.slot == SLOT_STRIDE
        assert pred.value == 400


class TestConfidenceDynamics:
    def test_penalty_is_heavier_than_bonus(self):
        p = WangFranklinPredictor(threshold=12, bonus=1, penalty=8)
        train_seq(p, [5] * 20)  # saturated-ish confidence
        assert p.predict(loads([5])[0]) is not None
        # two wrong values knock 16 off the counter
        train_seq(p, [9991, 9992])
        assert p.predict(loads([5])[0]) is None

    def test_liberal_parameterization_keeps_more_candidates(self):
        import random

        # a noisy mix of two values: the pattern index cannot cleanly
        # separate the contexts, so every ValPHT entry sees both values;
        # only a liberal penalty lets several slots stay over threshold
        rng = random.Random(13)
        noisy = [rng.choice([10, 20]) for _ in range(120)]
        strict = WangFranklinPredictor(threshold=12, penalty=8)
        liberal = WangFranklinPredictor(threshold=4, penalty=0)
        train_seq(strict, noisy)
        train_seq(liberal, noisy)
        probe = loads([10])[0]
        assert len(liberal.predict_all(probe)) > len(strict.predict_all(probe))


class TestMultiValue:
    def test_predict_all_orders_by_confidence(self):
        p = WangFranklinPredictor(threshold=1, penalty=1)
        train_seq(p, [5] * 12 + [9] * 4 + [5] * 12)
        candidates = p.predict_all(loads([5])[0])
        assert len(candidates) >= 1
        confidences = [c.confidence for c in candidates]
        assert confidences == sorted(confidences, reverse=True)

    def test_predict_all_deduplicates_values(self):
        p = WangFranklinPredictor(threshold=1, penalty=1)
        train_seq(p, [0] * 20)  # zero is learned AND hardwired
        candidates = p.predict_all(loads([0])[0])
        assert len({c.value for c in candidates}) == len(candidates)

    def test_pattern_values_all_represented(self):
        import random

        # noisy rotation keeps every value alive in several contexts
        rng = random.Random(7)
        seq = [rng.choice([11, 22, 33]) for _ in range(200)]
        p = WangFranklinPredictor(threshold=2, penalty=0)
        train_seq(p, seq)
        candidates = p.predict_all(loads([11])[0])
        values = {c.value for c in candidates}
        assert {11, 22, 33} <= values


class TestLearnedValueLru:
    def test_more_than_five_values_evicts_oldest(self):
        p = WangFranklinPredictor(threshold=1, penalty=0)
        train_seq(p, [1000, 2000, 3000, 4000, 5000, 6000])
        entry = p._vht_entry(0x1000, allocate=False)
        assert len(entry.values) == 5
        assert 1000 not in entry.values
        assert 6000 in entry.values

    def test_reuse_moves_to_mru(self):
        p = WangFranklinPredictor()
        train_seq(p, [1000, 2000, 1000])
        entry = p._vht_entry(0x1000, allocate=False)
        assert entry.values[-1] == 1000


class TestSpeculativeUpdate:
    def test_speculative_update_advances_stride_head(self):
        p = WangFranklinPredictor(threshold=1)
        train_seq(p, list(range(0, 200, 10)))
        probe = loads([200])[0]
        pred = p.predict(probe)
        assert pred.value == 200
        p.speculative_update(probe, 200)
        pred2 = p.predict(loads([210])[0])
        assert pred2.value == 210

    def test_commit_training_resyncs_after_speculation(self):
        p = WangFranklinPredictor(threshold=1)
        train_seq(p, list(range(0, 200, 10)))
        probe = loads([200])[0]
        p.speculative_update(probe, 200)
        p.train(probe, 200)
        entry = p._vht_entry(0x1000, allocate=False)
        assert entry.stride == 10
        assert entry.last_committed == 200


class TestAliasing:
    def test_distinct_pcs_do_not_interfere(self):
        p = WangFranklinPredictor()
        train_seq(p, [5] * 20, pc=0x1000)
        train_seq(p, [9] * 20, pc=0x2000)
        assert p.predict(loads([5], pc=0x1000)[0]).value == 5
        assert p.predict(loads([9], pc=0x2000)[0]).value == 9


def train_rounds(p, insts, n):
    for _ in range(n):
        for inst in insts:
            p.train(inst, inst.value)


#: PCs 4 bytes apart, so a 4-16 entry VHT maps several onto one index
_pcs = st.integers(0, 40).map(lambda k: 0x1000 + 4 * k)
#: small values hit the zero, one and stride slots; the 64-bit extremes
#: wrap the stride arithmetic
_values = st.one_of(
    st.integers(0, 6),
    st.sampled_from([100, 200, 300, (1 << 64) - 1, (1 << 64) - 2, -1]),
)


class TestReplay:
    @given(
        steps=st.lists(st.tuples(_pcs, _values), min_size=1, max_size=60),
        n=st.integers(1, 41),
        vht_entries=st.sampled_from([4, 8, 16, 4096]),
        valpht_entries=st.sampled_from([1, 2, 8, 64, 32 * 1024]),
        threshold=st.integers(0, 12),
        penalty=st.integers(0, 8),
        max_conf=st.integers(1, 32),
        pattern_depth=st.integers(1, 3),
        prefix=st.integers(0, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_replay_equals_rounds_of_train(
        self, steps, n, vht_entries, valpht_entries, threshold, penalty,
        max_conf, pattern_depth, prefix,
    ):
        ib = InstructionBuilder()
        insts = [ib.load(dst=1, addr=0x8000, value=v, pc=pc) for pc, v in steps]

        def make():
            p = WangFranklinPredictor(
                vht_entries=vht_entries, valpht_entries=valpht_entries,
                threshold=threshold, penalty=penalty, max_conf=max_conf,
                pattern_depth=pattern_depth,
            )
            # start from trained tables, not only from cold ones
            train_rounds(p, insts[:prefix], 1)
            return p

        trained, replayed = make(), make()
        train_rounds(trained, insts, n)
        replayed.replay(insts, n)
        assert replayed.snapshot() == trained.snapshot()

    def test_replay_of_a_workload_trace_equals_rounds_of_train(self):
        from repro.isa import OpClass
        from repro.workloads import get_workload

        trace = get_workload("mcf").trace(length=3000, seed=1)
        insts = [i for i in trace if i.op is OpClass.LOAD and i.value is not None]
        trained, replayed = WangFranklinPredictor(), WangFranklinPredictor()
        train_rounds(trained, insts, 41)
        replayed.replay(insts, 41)
        assert replayed.snapshot() == trained.snapshot()

    @pytest.mark.parametrize(
        "predictor", [LastValuePredictor, StridePredictor, DfcmPredictor, OraclePredictor]
    )
    @given(steps=st.lists(st.tuples(_pcs, _values), min_size=1, max_size=40),
           n=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_base_replay_equals_rounds_of_train(self, predictor, steps, n):
        ib = InstructionBuilder()
        insts = [ib.load(dst=1, addr=0x8000, value=v, pc=pc) for pc, v in steps]
        trained, replayed = predictor(), predictor()
        train_rounds(trained, insts, n)
        replayed.replay(insts, n)
        assert replayed.snapshot() == trained.snapshot()


class TestRestoreValidation:
    @staticmethod
    def fresh():
        return WangFranklinPredictor(vht_entries=16, valpht_entries=64)

    def corrupt(self, table, edit):
        """A trained snapshot with its first live ``table`` row edited."""
        p = self.fresh()
        train_seq(p, [3, 4, 5, 6, 7, 8, 9] * 3)
        payload = p.snapshot()
        rows = payload["state"][table]
        i = next(i for i, row in enumerate(rows) if row is not None)
        rows[i] = edit(rows[i])
        return payload, i

    def test_round_trip(self):
        payload, _ = self.corrupt("vht", lambda e: e)
        q = self.fresh()
        q.restore(payload)
        assert q.snapshot() == payload

    def test_truncated_valpht_vector_is_rejected(self):
        payload, i = self.corrupt("valpht", lambda v: v[:3])
        with pytest.raises(ValueError, match=rf"ValPHT vector {i} has 3 slots"):
            self.fresh().restore(payload)

    def test_short_vht_entry_is_rejected(self):
        payload, i = self.corrupt("vht", lambda e: e[:4])
        with pytest.raises(ValueError, match=rf"VHT entry {i} has 4 fields"):
            self.fresh().restore(payload)

    def test_too_many_learned_values_are_rejected(self):
        payload, i = self.corrupt(
            "vht", lambda e: [e[0], list(range(NUM_LEARNED + 1)), *e[2:]]
        )
        with pytest.raises(ValueError, match=rf"VHT entry {i} holds 6 learned"):
            self.fresh().restore(payload)
