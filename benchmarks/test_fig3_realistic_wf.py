"""E3 — Figure 3: realistic hybrid Wang-Franklin value predictor.

8-cycle spawn latency, 128-entry store buffer.  The paper reports
"substantial average speedups of about 40% on SPECfp and SPECint with
eight threads", with some benchmarks negative due to mispredictions.
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_fig3_realistic_wf(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("fig3", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    s = result.summary
    # around +40% on both suites at eight threads (paper's headline)
    assert 15.0 < s["mtvp8 geomean INT %"] < 80.0
    assert 15.0 < s["mtvp8 geomean FP %"] < 80.0
    # still far better than realistic STVP
    assert s["mtvp8 geomean INT %"] > s["stvp geomean INT %"]
    assert s["mtvp8 geomean FP %"] > s["stvp geomean FP %"] + 10.0
    # realistic FP STVP is tiny — the classic "VP doesn't help FP" result
    assert s["stvp geomean FP %"] < 10.0
    rows = {r["workload"]: r for r in result.rows}
    # the paper's standouts stay standouts with a real predictor
    assert rows["mcf"]["mtvp8"] > 60.0
    assert rows["vpr r"]["mtvp8"] > 40.0
