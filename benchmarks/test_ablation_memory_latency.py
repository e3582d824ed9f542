"""Ablation — motivation: MTVP's value grows with memory latency.

Not a paper artifact per se, but the quantitative backbone of its
introduction: as memory latency heads toward (and past) 1000 cycles,
single-threaded value prediction saturates at the window bound while
threaded value prediction keeps scaling.
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_ablation_memory_latency(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("ablation-latency", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rows = {r["memory latency"]: r for r in result.rows}
    # MTVP's advantage widens as memory slows
    assert rows["2000 cyc"]["mtvp8"] > rows["250 cyc"]["mtvp8"]
    # and it beats STVP at every latency point past the small ones
    for lat in ("500 cyc", "1000 cyc", "2000 cyc"):
        assert rows[lat]["mtvp8"] > rows[lat]["stvp"]
