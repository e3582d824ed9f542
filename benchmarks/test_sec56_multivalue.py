"""E7 — Section 5.6: multiple-value multithreaded value prediction.

"With a more liberal predictor but a more discriminating criticality
measure ... swim and parser show speedups of 70% and 40% respectively,
outperforming their single value multithreaded value prediction speedups
of less than 1% and 14%."
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_sec56_multivalue(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("sec5.6", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rows = {r["workload"]: r for r in result.rows}
    for name in ("swim", "parser"):
        # multi-value with the liberal predictor beats single-value W-F
        assert rows[name]["multi-value %"] > rows[name]["single-value %"]
        assert rows[name]["multi spawns"] > 0
    # swim's single-value result is small (the paper reports <1%)
    assert rows["swim"]["single-value %"] < 25.0
