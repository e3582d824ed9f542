"""E4 — Section 5.3: store buffer sizing.

"Performance begins to tail off at 64 and below entries.  However, a
128-entry buffer gets nearly the performance of the largest buffer we
simulate."
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_sec53_store_buffer(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("sec5.3", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rows = {r["store buffer"]: r for r in result.rows}
    for suite_col in ("geomean int %", "geomean fp %"):
        full = rows["unlimited"][suite_col]
        # 128 entries achieve nearly the unlimited-buffer performance
        assert rows["128"][suite_col] > full - 6.0
        # 16 entries measurably tail off
        assert rows["16"][suite_col] <= rows["128"][suite_col] + 1.0
    # small buffers actually stall speculation
    assert rows["16"]["sb stalls"] > rows["256"]["sb stalls"]
