"""The warm start leaves exactly the state of the per-call reference.

``Engine.warm_start`` pre-fills caches with :meth:`MemoryHierarchy.prefill`
and trains the value predictor with :meth:`ValuePredictor.replay`, both
faster algorithms for the same state.  :func:`reference_warm_state` keeps
the plain version — one ``store(addr, 0)`` per footprint line and one
``train`` per load per pass — and every workload of the suite must come
out of both identical, for a single-program machine, an MTVP machine and
an SMT co-schedule.

``python tests/test_warm_start.py LENGTH SEED...`` runs the same check
at a chosen length and set of seeds (slower; not part of the suite).
"""

from __future__ import annotations

import functools
import sys

import pytest

from repro import _steady_state_footprint
from repro.branch import update_history
from repro.core import Engine, MachineConfig
from repro.isa import OpClass
from repro.vp import WangFranklinPredictor
from repro.workloads import ALL_WORKLOADS, get_workload

MACHINES = {
    "baseline": MachineConfig.hpca05_baseline,
    "mtvp8": functools.partial(MachineConfig.mtvp, 8),
    "smt2": functools.partial(MachineConfig.smt, 2),
}


def reference_warm_state(engine: Engine, addresses) -> None:
    """The warm start computed call by call (state, not speed, is the spec)."""
    hierarchy = engine.hierarchy
    for addr in addresses:
        hierarchy.store(addr, 0)
    hierarchy.reset_stats()
    bp = engine.branch_predictor
    vp = engine.predictor
    for root in [c for c in engine._contexts if c is not None]:
        hist = 0
        for inst in root.trace:
            if inst.op is OpClass.BRANCH:
                bp.update(inst.pc, hist, inst.taken)
                hist = update_history(hist, inst.taken)
            elif inst.op is OpClass.LOAD and inst.value is not None:
                vp.train(inst, inst.value)
        loads = [
            inst for inst in root.trace
            if inst.op is OpClass.LOAD and inst.value is not None
        ]
        if loads:
            per_pc = len(loads) / len({i.pc for i in loads})
            passes = min(40, max(1, round(800 / per_pc) - 1))
            for _ in range(passes):
                for inst in loads:
                    vp.train(inst, inst.value)
        root.bhist = hist
    vp.lookups = vp.predictions = vp.correct = vp.incorrect = 0


def build(workload: str, machine: str, length: int, seed: int) -> tuple[Engine, list[int]]:
    """A cold engine with the Wang–Franklin predictor, plus its footprint."""
    config = MACHINES[machine]()
    w = get_workload(workload)
    traces = [
        w.trace(length=length, seed=seed + i) for i in range(config.num_contexts)
    ] if machine == "smt2" else [w.trace(length=length, seed=seed)]
    engine = Engine(
        traces[0], config, predictor=WangFranklinPredictor(),
        traces=traces, warm=False,
    )
    return engine, _steady_state_footprint(w, config)


def warm_state(engine: Engine) -> dict:
    """Everything the warm start writes (arch snapshots cover one root)."""
    return {
        "hierarchy": engine.hierarchy.snapshot(),
        "branch": engine.branch_predictor.snapshot(),
        "predictor": engine.predictor.snapshot(),
        "bhist": [c.bhist for c in engine._contexts if c is not None],
    }


def check(workload: str, machine: str, length: int, seed: int) -> None:
    fast, addresses = build(workload, machine, length, seed)
    fast.warm_start(addresses)
    ref, _ = build(workload, machine, length, seed)
    reference_warm_state(ref, addresses)
    if machine == "smt2":
        assert warm_state(fast) == warm_state(ref)
    else:
        assert fast.snapshot(scope="arch") == ref.snapshot(scope="arch")


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_warm_start_equals_per_call_reference(workload, machine):
    check(workload, machine, length=800, seed=3)


@pytest.mark.parametrize("workload", ["mcf", "gzip g"])
def test_warm_start_equals_reference_where_cycles_are_skipped(workload):
    # at 800 instructions most counters sit at fixed points by the last
    # pass; at 8000 fewer passes run and the cycle skip decides the state
    check(workload, "baseline", length=8000, seed=1)


if __name__ == "__main__":
    length = int(sys.argv[1])
    for seed in map(int, sys.argv[2:]):
        for workload in ALL_WORKLOADS:
            check(workload, "baseline", length, seed)
        print(f"seed {seed}: warm state identical on {len(ALL_WORKLOADS)} workloads")
