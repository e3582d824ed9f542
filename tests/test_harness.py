"""Tests for the experiment harness: metrics, runner, result formatting,
and the paper figures run as sweep specs."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import MachineConfig
from repro.harness import (
    EXPERIMENTS,
    ExecutionPolicy,
    ExperimentResult,
    ResultCache,
    RunSpec,
    geomean_speedup,
    load_experiment,
    percent_speedup,
    run_experiment,
    run_once,
)
from repro.harness.runner import default_length

#: the rendered tables of every experiment on a four-workload subset,
#: captured from the figure code that predates the sweep specs (one
#: batch of runs per figure, baselines re-run per batch); the sweep path
#: must reproduce them byte for byte
TABLES = json.loads(
    (Path(__file__).parent / "data" / "paper_tables.json").read_text()
)


def small(exp_id: str, workloads=None):
    """An experiment's spec restricted to the fixture's workload subset."""
    spec = load_experiment(exp_id)
    if exp_id == "sec5.6":  # swim and parser are the experiment itself
        return spec
    return dataclasses.replace(
        spec, workloads=tuple(workloads or TABLES["workloads"])
    )


class TestMetrics:
    def test_percent_speedup(self):
        assert percent_speedup(2.0, 1.0) == pytest.approx(100.0)
        assert percent_speedup(0.5, 1.0) == pytest.approx(-50.0)
        assert percent_speedup(1.0, 1.0) == pytest.approx(0.0)

    def test_percent_speedup_rejects_zero_base(self):
        with pytest.raises(ValueError):
            percent_speedup(1.0, 0.0)

    def test_geomean_identity(self):
        assert geomean_speedup([0.0, 0.0]) == pytest.approx(0.0)

    def test_geomean_of_equal_speedups(self):
        assert geomean_speedup([100.0, 100.0, 100.0]) == pytest.approx(100.0)

    def test_geomean_mixes_gains_and_losses(self):
        # 2x and 0.5x cancel geometrically
        assert geomean_speedup([100.0, -50.0]) == pytest.approx(0.0)

    def test_geomean_below_arithmetic_mean(self):
        values = [10.0, 200.0]
        assert geomean_speedup(values) < sum(values) / 2

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean_speedup([])

    def test_geomean_rejects_total_loss(self):
        with pytest.raises(ValueError):
            geomean_speedup([-100.0])


class TestRunner:
    def test_run_once(self):
        spec = RunSpec("baseline", MachineConfig.hpca05_baseline)
        stats = run_once("crafty", spec, length=600)
        assert stats.useful_instructions == 600

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_default_length_rejects_non_positive_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE_LEN", value)
        with pytest.raises(ValueError, match=f"REPRO_TRACE_LEN.*'{value}'"):
            default_length()


class TestExperimentResult:
    def test_format_table_renders_rows_and_summary(self):
        result = ExperimentResult(
            experiment_id="t",
            title="A Title",
            columns=["workload", "x"],
            rows=[{"workload": "mcf", "x": 12.5}, {"workload": "vpr r", "x": -3.25}],
            summary={"geomean": 4.0},
        )
        text = result.format_table()
        assert "A Title" in text
        assert "mcf" in text
        assert "+12.5" in text
        assert "-3.2" in text
        assert "geomean" in text

    def test_format_table_empty_rows(self):
        result = ExperimentResult("t", "Empty", ["a"], [], {})
        assert "Empty" in result.format_table()


class TestExperimentRegistry:
    def test_registry_covers_every_artifact(self):
        assert set(EXPERIMENTS) == {
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "sec4",
            "sec5.1",
            "sec5.3",
            "sec5.4",
            "sec5.6",
            "ablation-latency",
        }

    def test_every_experiment_is_a_spec_named_by_its_id(self):
        for exp_id in EXPERIMENTS:
            spec = load_experiment(exp_id)
            assert spec.name == exp_id and spec.seeds == (0,)

    def test_small_experiment_end_to_end(self):
        """Run fig5 (the cheapest per-workload experiment) on a tiny trace."""
        result = run_experiment(small("fig5", ("crafty", "swim")), length=800)
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.0 <= row["fraction"] <= 1.0


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One result cache for the figure tables: figures share baselines."""
    return ResultCache(tmp_path_factory.mktemp("paper-cache"))


class TestPaperTables:
    @pytest.mark.parametrize("exp_id", sorted(TABLES["tables"]))
    def test_table_is_byte_identical(self, exp_id, shared_cache):
        result = run_experiment(
            small(exp_id), length=TABLES["length"],
            policy=ExecutionPolicy(jobs=1, cache=shared_cache),
        )
        assert result.format_table() == TABLES["tables"][exp_id]

    def test_failed_rows_raise_and_are_named(self):
        spec = dataclasses.replace(
            load_experiment("sec5.6"),
            base={"machine": "mtvp", "threads": 8, "spawn_latency": -1},
        )
        with pytest.raises(RuntimeError) as excinfo:
            run_experiment(spec, length=400,
                           policy=ExecutionPolicy(cache=False, retries=0))
        message = str(excinfo.value)
        assert "4 of 6 rows did not complete" in message
        for workload in ("swim", "parser"):
            assert f"point {workload} " in message
        assert "spawn_latency" in message

    def test_a_code_change_recomputes_every_row(self, tmp_path, monkeypatch):
        """The figure store is fresh per run and the result cache is keyed
        by code version, so numbers from older code are never served."""
        import repro.harness.cache as cache_mod

        spec = small("fig5", ("crafty", "swim"))
        tasks = len(spec.expand()) + 2  # points plus one baseline each

        def run():
            cache = ResultCache(tmp_path)
            table = run_experiment(
                spec, length=600, policy=ExecutionPolicy(jobs=1, cache=cache)
            ).format_table()
            return table, cache.hits, cache.misses

        first = run()
        assert first[1:] == (0, tasks)
        assert run() == (first[0], tasks, 0)  # same code: all served
        monkeypatch.setattr(cache_mod, "code_version", lambda: "edited")
        assert run() == (first[0], 0, tasks)  # edited code: all recomputed
