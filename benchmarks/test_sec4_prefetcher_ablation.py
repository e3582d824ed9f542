"""Ablation — Section 4 (in text): MTVP with and without the prefetcher.

"Without a stride prefetcher the effect of multithreaded value prediction
is greater and more consistent ... the mechanisms appear to be highly
complementary."
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_sec4_prefetcher_ablation(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("sec4", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rows = {(r["prefetcher"], r["suite"]): r for r in result.rows}
    # integer codes: clearly greater without the prefetcher
    assert (
        rows[("off", "int")]["mtvp8 geomean %"]
        > rows[("on", "int")]["mtvp8 geomean %"]
    )
    # and still very significant with it (complementary mechanisms)
    for suite in ("int", "fp"):
        assert rows[("on", suite)]["mtvp8 geomean %"] > 10.0
        assert rows[("off", suite)]["mtvp8 geomean %"] > 10.0
