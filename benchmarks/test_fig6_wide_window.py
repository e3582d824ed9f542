"""E8 — Figure 6: wide-window / checkpoint comparison.

An idealized 8192-entry-window machine (unlimited registers) against the
best realistic MTVP and against spawn-only threads.  Paper shapes: the
wide window wins on nearly all of SPECfp; MTVP wins on integer codes where
parallelism must be *created* (vpr, mcf); spawn-only is "quite ineffective
alone".
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_fig6_wide_window(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("fig6", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rows = {r["suite"]: r for r in result.rows}
    # FP: the idealized wide window dominates MTVP
    assert rows["AVG FP"]["wide window"] > rows["AVG FP"]["best mtvp"]
    # INT: MTVP holds its own against the idealized machine
    assert rows["AVG INT"]["best mtvp"] >= rows["AVG INT"]["wide window"] - 5.0
    # spawn-only (decoupling without value prediction) is ineffective
    assert rows["AVG INT"]["spawn only"] < rows["AVG INT"]["best mtvp"]
    assert rows["AVG FP"]["spawn only"] < rows["AVG FP"]["best mtvp"]
    assert rows["AVG INT"]["spawn only"] < 15.0
