"""E1 — Figure 1: potential of multithreaded value prediction.

Oracle value predictor, ILP-pred load selection, idealized conditions
(1-cycle spawn, unbounded store buffer).  The shapes that must hold, per
the paper: STVP averages are modest (~24% INT, ~5% FP); MTVP grows with
thread count and far exceeds STVP; FP benefits more from MTVP than from
STVP by a wide margin; cache-resident benchmarks see roughly nothing.
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_fig1_oracle_potential(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("fig1", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    s = result.summary
    # STVP is modest; the paper reports +24% INT / +5% FP
    assert s["stvp geomean INT %"] < 45.0
    assert s["stvp geomean FP %"] < 20.0
    # MTVP-8 exceeds STVP on both suites (the headline claim)
    assert s["mtvp8 geomean INT %"] > s["stvp geomean INT %"]
    assert s["mtvp8 geomean FP %"] > s["stvp geomean FP %"]
    # FP gains from MTVP dwarf FP gains from STVP (Section 1)
    assert s["mtvp8 geomean FP %"] > 3 * max(1.0, s["stvp geomean FP %"])
    # more threads help on average (Figure 1: "more threads is
    # consistently better than fewer")
    assert s["mtvp8 geomean INT %"] >= s["mtvp2 geomean INT %"]
    assert s["mtvp8 geomean FP %"] >= s["mtvp2 geomean FP %"]
    # resident benchmarks are flat
    rows = {r["workload"]: r for r in result.rows}
    for quiet in ("crafty", "eon r", "mesa", "sixtrack"):
        assert abs(rows[quiet]["mtvp8"]) < 20.0
    # mcf is a headline winner
    assert rows["mcf"]["mtvp8"] > 100.0
