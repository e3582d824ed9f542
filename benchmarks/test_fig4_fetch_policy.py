"""E5 — Figure 4: fetch policies.

Letting the spawning thread keep fetching ("no stall", ICOUNT-arbitrated)
is consistently worse than single fetch path: "competition for fetch and
execution resources swamps any gains made by maximizing forward progress
in the case of incorrect predictions."
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_fig4_fetch_policy(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("fig4", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    s = result.summary
    # single fetch path beats no-stall on both suite averages
    assert s["mtvp sfp geomean INT %"] >= s["mtvp no stall geomean INT %"]
    assert s["mtvp sfp geomean FP %"] >= s["mtvp no stall geomean FP %"]
    # and on a clear majority of individual benchmarks
    worse = sum(1 for r in result.rows if r["mtvp sfp"] >= r["mtvp no stall"] - 1.0)
    assert worse >= int(0.7 * len(result.rows))
