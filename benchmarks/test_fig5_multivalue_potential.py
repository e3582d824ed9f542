"""E6 — Figure 5: the multiple-value opportunity.

Fraction of followed predictions where the primary value was wrong but
the correct value was present in the predictor and over threshold.  The
paper: "Most of the benchmarks have this property to one degree or
another, with some having as much as 25% of their loads being good
candidates for multiple predictions."
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_fig5_multivalue_potential(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("fig5", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    fractions = [r["fraction"] for r in result.rows]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    # several benchmarks exhibit the property...
    assert sum(1 for f in fractions if f > 0.01) >= 5
    # ...some substantially.  (The paper shows peaks near 25%; at this
    # trace scale and with the suite's calibrated value noise the peaks
    # land lower, but the cross-benchmark spread — most near zero, a few
    # clearly above — matches the figure's shape.)
    assert max(fractions) > 0.03
