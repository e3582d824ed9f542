"""E2 — Figure 2: sensitivity to the thread-spawn latency.

Speedups at 1-, 8- and 16-cycle register-map copy latencies.  The paper
finds the technique "only somewhat sensitive": still strong at 8 cycles,
and FP retains most of its advantage even at 16.
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_fig2_spawn_latency(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("fig2", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rows = {(r["spawn latency"], r["suite"]): r for r in result.rows}
    # gains must remain positive at an 8-cycle spawn latency
    assert rows[("8 cyc", "int")]["mtvp8"] > 0.0
    assert rows[("8 cyc", "fp")]["mtvp8"] > 0.0
    # the 1-cycle machine is at least as fast as the 16-cycle machine
    assert rows[("1 cyc", "fp")]["mtvp8"] >= rows[("16 cyc", "fp")]["mtvp8"] - 5.0
    # FP keeps a clear MTVP advantage over STVP even at 16 cycles
    assert rows[("16 cyc", "fp")]["mtvp8"] > rows[("16 cyc", "fp")]["stvp"]
    # STVP does not depend on spawn latency (sanity of the sweep itself)
    assert abs(rows[("1 cyc", "int")]["stvp"] - rows[("16 cyc", "int")]["stvp"]) < 3.0
