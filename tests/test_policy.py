"""The ExecutionPolicy surface: resolvers, merging, one spelling.

The API contract (DESIGN.md §5i): every entry point —
:class:`~repro.harness.Session`, :func:`~repro.harness.run_simulations`,
:func:`~repro.sweep.run_sweep`, :class:`~repro.serve.api.CampaignRunner`
— takes its execution settings as ``policy=ExecutionPolicy(...)`` and
nothing else, and **entry points that spell one request differently are
observationally identical**: same task keys (so a cache warmed through
one serves the other) and same results.
"""

from __future__ import annotations

import warnings

import pytest

from repro.harness.cache import task_key
from repro.harness.policy import (
    DISPATCH_MODES,
    ExecutionPolicy,
    resolve_dispatch,
    resolve_jobs,
    resolve_workers,
)


class TestResolveJobs:
    def test_unset_without_env_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_supplies_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match=r"REPRO_JOBS.*'many'"):
            resolve_jobs(None)

    def test_bool_is_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(True)


class TestResolveWorkers:
    def test_unset_without_env_defaults_to_two(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 2

    def test_env_and_all_cores(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(0) == (os.cpu_count() or 1)


class TestResolveDispatch:
    def test_unset_without_env_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        assert resolve_dispatch(None) == "auto"

    def test_env_supplies_the_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "workers")
        assert resolve_dispatch(None) == "workers"

    def test_names_are_normalized(self):
        assert resolve_dispatch(" POOL ") == "pool"
        for mode in DISPATCH_MODES:
            assert resolve_dispatch(mode) == mode

    def test_dispatcher_instances_pass_through(self):
        class Fake:
            def run(self, *a, **k):
                return {}

        fake = Fake()
        assert resolve_dispatch(fake) is fake

    def test_garbage_lists_the_modes(self):
        with pytest.raises(ValueError, match="local.*pool.*workers"):
            resolve_dispatch("cloud")


class TestExecutionPolicy:
    def test_blank_policy_reproduces_historical_defaults(self, monkeypatch):
        for var in ("REPRO_JOBS", "REPRO_DISPATCH",
                    "REPRO_WORKERS", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(var, raising=False)
        policy = ExecutionPolicy()
        assert policy.resolved_jobs() == 1
        assert policy.resolved_workers() == 2
        assert policy.resolved_dispatch() == "local"
        assert policy.resolved_cache() is None

    def test_auto_dispatch_follows_job_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        assert ExecutionPolicy(jobs=1).resolved_dispatch() == "local"
        assert ExecutionPolicy(jobs=4).resolved_dispatch() == "pool"

    def test_merged_ignores_none_and_overrides_rest(self):
        base = ExecutionPolicy(jobs=2, retries=1)
        merged = base.merged(jobs=None, retries=3, workers=5)
        assert merged.jobs == 2
        assert merged.retries == 3
        assert merged.workers == 5
        assert base.merged() is base  # no-op merge allocates nothing

    def test_policy_is_immutable(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().jobs = 9  # type: ignore[misc]


class TestDeprecationShims:
    """The deprecated per-keyword spellings are gone: every entry point
    rejects them outright, and ``policy=`` is the one silent spelling."""

    def test_session_legacy_keywords_rejected(self):
        from repro.harness import Session

        with pytest.raises(TypeError, match="jobs"):
            Session(jobs=2)

    def test_session_policy_spelling_is_silent(self):
        from repro.harness import Session

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = Session(policy=ExecutionPolicy(jobs=2, cache=False))
        assert session.policy.jobs == 2

    def test_run_simulations_legacy_keywords_rejected(self):
        from repro.harness import run_simulations

        with pytest.raises(TypeError, match="jobs"):
            run_simulations([], jobs=1)

    def test_run_sweep_legacy_keywords_rejected(self, tmp_path):
        from repro.sweep import ResultStore, run_sweep

        spec = _tiny_spec("shim")
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(TypeError, match="cache"):
                run_sweep(spec, store, cache=False)
            # nor may the old positional slots smuggle them in
            with pytest.raises(TypeError):
                run_sweep(spec, store, 1)

    def test_campaign_runner_legacy_keywords_rejected(self, tmp_path):
        from repro.serve.api import CampaignRunner

        with pytest.raises(TypeError, match="jobs"):
            CampaignRunner(state_dir=tmp_path, jobs=2)
        runner = CampaignRunner(
            state_dir=tmp_path, policy=ExecutionPolicy(jobs=2)
        )
        assert runner.policy.jobs == 2
        # the lease-liveness defaults survive the policy rewrite
        assert runner.stale_after == 300.0
        assert runner.heartbeat == 10.0


def _tiny_spec(name: str):
    from repro.sweep.spec import SweepSpec

    return SweepSpec.from_dict({
        "name": name,
        "axes": {"spawn_latency": [1]},
        "base": {"machine": "mtvp", "threads": 2,
                 "predictor": "wang-franklin"},
        "workloads": ["mcf"],
        "seeds": [0],
        "lengths": [300],
    })


class TestOldNewEquivalence:
    """One request spelled two ways: identical task keys, identical results."""

    def test_task_keys_are_identical_across_spellings(self):
        """A Session's policy warmup/sample and a RunSpec's own fields
        describe the same interval protocol, so they share a key."""
        from repro.core import MachineConfig
        from repro.harness import RunSpec, Session

        session = Session(
            predictor="wang-franklin", length=400,
            policy=ExecutionPolicy(jobs=2, cache=False,
                                   warmup=100, sample=200),
        )
        direct = RunSpec(
            "direct", MachineConfig.hpca05_baseline,
            predictor_factory="wang-franklin", warmup=100, sample=200,
        )
        key_session = task_key("mcf", session.spec(), session.length, 0)
        key_direct = task_key("mcf", direct, 400, 0)
        assert key_session == key_direct

    def test_results_and_cache_are_shared_across_spellings(self, tmp_path):
        """A cache warmed through a Session serves ``run_simulations`` on
        the same recipe without a single new simulation — the strongest
        form of 'same task keys'."""
        from repro.harness import ResultCache, Session, run_simulations

        cache = ResultCache(tmp_path / "cache")
        policy = ExecutionPolicy(cache=cache, jobs=1)
        session = Session(predictor="wang-franklin", length=400, policy=policy)
        stats_session = session.run_many(["mcf", "crafty"])
        misses_after_fill = cache.misses

        spec = session.spec()
        tasks = [(w, spec, 400, 0) for w in ("mcf", "crafty")]
        stats_direct = run_simulations(tasks, policy=policy)
        assert cache.misses == misses_after_fill, (
            "run_simulations missed a cache entry the Session wrote — "
            "task keys diverged")
        for a, b in zip(stats_session, stats_direct):
            assert a.cycles == b.cycles
            assert a.useful_ipc == b.useful_ipc

    def test_run_sweep_spellings_agree(self, tmp_path):
        """``dispatch=`` as a keyword and as a policy field: one campaign
        per spelling, separate stores, byte-identical reports."""
        from repro.sweep import ResultStore, aggregate, full_report, run_sweep

        spec = _tiny_spec("equiv")
        with ResultStore(tmp_path / "kw.db") as store:
            run_sweep(spec, store,
                      policy=ExecutionPolicy(cache=False, retries=0),
                      dispatch="local")
            rows_kw = store.rows("equiv")
        with ResultStore(tmp_path / "policy.db") as store:
            run_sweep(spec, store,
                      policy=ExecutionPolicy(jobs=1, cache=False, retries=0,
                                             dispatch="local"))
            rows_policy = store.rows("equiv")
        assert full_report("equiv", aggregate(rows_kw)) == \
            full_report("equiv", aggregate(rows_policy))
