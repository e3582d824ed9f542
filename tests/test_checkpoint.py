"""The warmup-checkpoint store and its wiring through the harness.

Covers :mod:`repro.harness.checkpoint` (keys, the store, single-file
helpers), the cache-key extensions for the warmup/sample protocol, the
prune ``dry_run`` mode, and the end-to-end property the whole layer
exists for: a warmed run restored from a checkpoint is byte-identical to
one that fast-forwarded itself.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.core import MachineConfig
from repro.harness import (
    CheckpointStore,
    ExecutionPolicy,
    ResultCache,
    RunSpec,
    arch_key,
    load_checkpoint,
    resolve_checkpoints,
    run_once,
    run_simulations,
    save_checkpoint,
    task_key,
)


def digest(stats) -> str:
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def warmed_spec(**overrides) -> RunSpec:
    factory = (
        functools.partial(MachineConfig.mtvp, 4, **overrides)
        if overrides
        else functools.partial(MachineConfig.mtvp, 4)
    )
    return RunSpec(
        "warmed", factory, predictor_factory="wang-franklin",
        warmup=2000, sample=1500,
    )


def cold_spec(**overrides) -> RunSpec:
    """A ``warmup=0`` spec: its checkpoint is the warm start alone."""
    return RunSpec(
        "cold", functools.partial(MachineConfig.mtvp, 8, **overrides),
        predictor_factory="wang-franklin",
    )


class TestArchKey:
    def test_no_key_without_warmup_or_warm_start(self):
        assert arch_key("mcf", 0, 0, cold_spec(warm_caches=False), 4000) is None
        assert arch_key("mcf", 0, 0, cold_spec(), 4000) is not None

    def test_warm_start_needs_a_known_length(self):
        assert arch_key("mcf", 0, 0, cold_spec()) is None
        # a spec that pins its sample knows its length without the caller
        assert arch_key("mcf", 0, 2000, warmed_spec()) == arch_key(
            "mcf", 0, 2000, warmed_spec(), 999
        )

    def test_multi_program_modes_have_no_key(self):
        smt = RunSpec("smt", functools.partial(MachineConfig.smt, 2))
        assert arch_key("mcf", 0, 0, smt, 4000) is None

    def test_warm_start_keys_shared_across_timing_axes(self):
        base = arch_key("mcf", 0, 0, cold_spec(), 4000)
        for timing in (
            {"store_buffer_entries": 16},
            {"store_buffer_entries": None},
            {"spawn_latency": 64},
        ):
            assert arch_key("mcf", 0, 0, cold_spec(**timing), 4000) == base
        other_selector = RunSpec(
            "sel", functools.partial(MachineConfig.mtvp, 8),
            predictor_factory="wang-franklin", selector_factory="always",
        )
        assert arch_key("mcf", 0, 0, other_selector, 4000) == base

    def test_warm_start_keys_split_by_length_seed_predictor_geometry(self):
        base = arch_key("mcf", 0, 0, cold_spec(), 4000)
        dfcm = RunSpec(
            "d", functools.partial(MachineConfig.mtvp, 8),
            predictor_factory="dfcm",
        )
        others = [
            arch_key("mcf", 0, 0, cold_spec(), 6000),
            arch_key("mcf", 1, 0, cold_spec(), 4000),
            arch_key("mcf", 0, 0, dfcm, 4000),
            arch_key("mcf", 0, 0, cold_spec(l3_size=1 << 20), 4000),
            arch_key("mcf", 0, 0, cold_spec(line_size=128), 4000),
        ]
        assert None not in others
        assert len({base, *others}) == 1 + len(others)

    def test_warmed_keys_split_by_total_length(self):
        short = RunSpec(
            "s", functools.partial(MachineConfig.mtvp, 8),
            predictor_factory="wang-franklin", warmup=2000,
        )
        assert arch_key("mcf", 1, 2000, short, 2000) != arch_key(
            "mcf", 1, 2000, short, 6000
        )
        # without the warm start the state is a trace prefix: length-free
        blind = RunSpec(
            "b", functools.partial(MachineConfig.mtvp, 8, warm_caches=False),
            predictor_factory="wang-franklin", warmup=2000,
        )
        assert arch_key("mcf", 1, 2000, blind, 2000) == arch_key(
            "mcf", 1, 2000, blind, 6000
        )

    def test_timing_axes_share_a_key(self):
        a = arch_key("mcf", 0, 2000, warmed_spec())
        b = arch_key("mcf", 0, 2000, warmed_spec(spawn_latency=64))
        c = arch_key("mcf", 0, 2000, warmed_spec(l2_latency=40, mshrs=4))
        assert a == b == c

    def test_architectural_axes_split_keys(self):
        base = arch_key("mcf", 0, 2000, warmed_spec())
        assert base != arch_key("mcf", 0, 2000, warmed_spec(l1_size=32 * 1024))
        assert base != arch_key(
            "mcf", 0, 2000, warmed_spec(prefetch_fill_latency=100)
        )

    def test_workload_seed_warmup_predictor_split_keys(self):
        base = arch_key("mcf", 0, 2000, warmed_spec())
        assert base != arch_key("art", 0, 2000, warmed_spec())
        assert base != arch_key("mcf", 1, 2000, warmed_spec())
        assert base != arch_key("mcf", 0, 2500, warmed_spec())
        dfcm = RunSpec(
            "d", MachineConfig.mtvp, predictor_factory="dfcm", warmup=2000
        )
        assert base != arch_key("mcf", 0, 2000, dfcm)

    def test_undescribable_factory_is_uncacheable(self):
        spec = RunSpec(
            "l", MachineConfig.mtvp,
            predictor_factory=lambda: None, warmup=2000,
        )
        assert arch_key("mcf", 0, 2000, spec) is None


class TestCheckpointStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.get("k") is None
        store.put("k", {"version": 1, "pos": 5})
        assert store.get("k") == {"version": 1, "pos": 5}
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)
        assert len(store) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "bad.ckpt").write_bytes(b"not a pickle")
        assert store.get("bad") is None
        assert store.misses == 1

    def test_resolve_conventions(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        assert resolve_checkpoints(None) is None
        assert resolve_checkpoints(False) is None
        store = resolve_checkpoints(tmp_path)
        assert isinstance(store, CheckpointStore)
        assert resolve_checkpoints(store) is store
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env"))
        assert resolve_checkpoints(None).directory == tmp_path / "env"
        with pytest.raises(TypeError):
            resolve_checkpoints(42)


class TestWarmedRuns:
    def test_restored_run_is_byte_identical(self, tmp_path):
        store = CheckpointStore(tmp_path)
        spec = warmed_spec()
        cold = spec.run("mcf", 4000, seed=0, checkpoints=store)
        assert store.stores == 1
        warm = spec.run("mcf", 4000, seed=0, checkpoints=store)
        assert store.hits == 1
        assert digest(warm) == digest(cold)

    def test_checkpoint_shared_across_timing_configs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        warmed_spec().run("mcf", 4000, seed=0, checkpoints=store)
        other = warmed_spec(spawn_latency=64)
        reference = digest(other.run("mcf", 4000, seed=0))  # no store
        restored = other.run("mcf", 4000, seed=0, checkpoints=store)
        assert store.hits == 1 and store.stores == 1
        assert digest(restored) == reference

    def test_sample_overrides_session_length(self):
        stats = warmed_spec().run("mcf", 999999, seed=0)
        assert stats.instructions_stepped == 1500
        assert stats.warmup_instructions == 2000

    def test_run_once_overrides(self, tmp_path):
        spec = RunSpec("s", MachineConfig.stvp)
        stats = run_once("mcf", spec, length=3000, warmup=1000, sample=800)
        assert stats.warmup_instructions == 1000
        assert stats.instructions_stepped == 800
        # the original spec is untouched
        assert spec.warmup == 0 and spec.sample is None

    def test_run_simulations_threads_store_serially(self, tmp_path):
        store = CheckpointStore(tmp_path)
        spec_a = warmed_spec()
        spec_b = warmed_spec(spawn_latency=64)
        run_simulations(
            [("mcf", spec_a, 4000, 0), ("mcf", spec_b, 4000, 0)],
            policy=ExecutionPolicy(jobs=1, cache=False, checkpoints=store),
        )
        assert store.stores == 1 and store.hits == 1


class TestWarmStartCheckpoints:
    """``warmup=0`` runs checkpoint their warm start alone."""

    def test_restored_warm_start_is_byte_identical(self, tmp_path):
        store = CheckpointStore(tmp_path)
        spec = cold_spec()
        reference = digest(spec.run("gzip g", 2000, seed=1))
        assert digest(spec.run("gzip g", 2000, seed=1, checkpoints=store)) \
            == reference
        other = cold_spec(store_buffer_entries=16)
        expected = digest(other.run("gzip g", 2000, seed=1))
        assert digest(other.run("gzip g", 2000, seed=1, checkpoints=store)) \
            == expected
        assert (store.stores, store.hits) == (1, 1)

    def test_store_hits_match_cold_runs_across_sample_lengths(self, tmp_path):
        # regression: the warm start trains on the whole trace, so a state
        # stored at one sample length must not serve another
        store = CheckpointStore(tmp_path)
        for sample in (2000, 6000):
            spec = RunSpec(
                "w", functools.partial(MachineConfig.mtvp, 8),
                predictor_factory="wang-franklin", warmup=2000, sample=sample,
            )
            cold = digest(spec.run("mcf", 0, seed=1))
            stored = digest(spec.run("mcf", 0, seed=1, checkpoints=store))
            restored = digest(spec.run("mcf", 0, seed=1, checkpoints=store))
            assert cold == stored == restored
        assert (store.stores, store.hits) == (2, 2)

    def test_instrumented_and_multi_program_runs_recompute(self, tmp_path):
        from repro import simulate
        from repro.obs import MetricsRegistry

        store = CheckpointStore(tmp_path)
        spec = RunSpec(
            "obs", functools.partial(MachineConfig.mtvp, 8),
            predictor_factory="wang-franklin", observe=True,
        )
        spec.run("mcf", 1500, seed=0, checkpoints=store)
        simulate(
            "mcf", MachineConfig.mtvp(8), length=1500,
            metrics=MetricsRegistry(), checkpoints=store, checkpoint_key="k",
        )
        simulate(
            "mcf", MachineConfig.smt(2), length=1500,
            checkpoints=store, checkpoint_key="k",
        )
        assert (store.hits, store.misses, store.stores) == (0, 0, 0)

    def test_warm_start_refuses_a_started_engine(self):
        from repro.core import Engine
        from repro.workloads import get_workload

        trace = get_workload("mcf").trace(length=300, seed=0)
        engine = Engine(trace, MachineConfig.mtvp(2), warm=False)
        engine.run()
        with pytest.raises(RuntimeError, match="warm_start"):
            engine.warm_start()


class TestDefaultStoreBesideCache:
    def test_policy_defaults_the_store_into_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ExecutionPolicy().resolved_checkpoints() is None
        store = ExecutionPolicy(cache=tmp_path).resolved_checkpoints()
        assert store.directory == tmp_path / "checkpoints"
        assert ExecutionPolicy(
            cache=tmp_path, checkpoints=False
        ).resolved_checkpoints() is None
        explicit = ExecutionPolicy(
            cache=tmp_path, checkpoints=tmp_path / "elsewhere"
        ).resolved_checkpoints()
        assert explicit.directory == tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env"))
        env = ExecutionPolicy(cache=tmp_path).resolved_checkpoints()
        assert env.directory == tmp_path / "env"

    def test_store_buffer_sweep_shares_warm_state(self, tmp_path):
        from repro.sweep import (
            ResultStore, SweepSpec, aggregate, full_report, load_spec, run_sweep,
        )

        sweeps = Path(__file__).resolve().parent.parent / "sweeps"
        design = load_spec(sweeps / "store_buffer.toml").to_dict()
        design.update(workloads=["mcf"], lengths=[800], seeds=[0, 1])
        spec = SweepSpec.from_dict(design)
        outputs = {}
        for label, checkpoints in (("off", False), ("on", None)):
            lines: list[str] = []
            policy = ExecutionPolicy(
                dispatch="local", cache=tmp_path / f"cache-{label}",
                checkpoints=checkpoints,
            )
            with ResultStore(tmp_path / f"{label}.db") as store:
                run_sweep(spec, store, policy=policy, echo=lines.append)
                rows = [
                    (r["point_id"], r["seed"], r["stats"])
                    for r in store.rows(spec.name)
                ]
                report = full_report(spec.name, aggregate(store.rows(spec.name)))
            outputs[label] = (sorted(rows), report)
            if checkpoints is None:
                # 7 points + the baseline per (workload, seed): 1 store
                # and 7 restores each, for 1 workload x 2 seeds
                assert any(
                    "warmup checkpoints: 14 restored, 2 stored" in line
                    for line in lines
                ), lines
                ckpts = tmp_path / "cache-on" / "checkpoints"
                assert len(list(ckpts.glob("*.ckpt"))) == 2
            else:
                assert not any("checkpoints" in line for line in lines)
        assert len(outputs["on"][0]) == 16
        assert outputs["on"] == outputs["off"]


class TestTaskKeyProtocolAxes:
    def test_default_spec_key_has_no_protocol_fields(self):
        # byte-compat: a spec without warmup/sample must produce the same
        # key the pre-protocol harness minted
        plain = RunSpec("p", MachineConfig.mtvp)
        zeroed = RunSpec("p", MachineConfig.mtvp, warmup=0, sample=None)
        assert task_key("mcf", plain, 4000, 0) == task_key(
            "mcf", zeroed, 4000, 0
        )

    def test_warmup_and_sample_enter_the_key(self):
        plain = RunSpec("p", MachineConfig.mtvp)
        warmed = RunSpec("p", MachineConfig.mtvp, warmup=2000)
        sampled = RunSpec("p", MachineConfig.mtvp, warmup=2000, sample=1000)
        keys = {
            task_key("mcf", s, 4000, 0) for s in (plain, warmed, sampled)
        }
        assert len(keys) == 3


class TestPruneDryRun:
    def _filled_cache(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path)
        from repro.core import SimStats

        for i in range(3):
            cache.put(f"key{i}", SimStats(cycles=i + 1))
        return cache

    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache = self._filled_cache(tmp_path)
        total = sum(p.stat().st_size for p in tmp_path.glob("*.json"))
        would = cache.prune(max_bytes=0, dry_run=True)
        assert would == 3
        assert cache.last_prune_bytes == total
        assert len(cache) == 3  # nothing deleted

    def test_real_prune_matches_the_dry_run(self, tmp_path):
        cache = self._filled_cache(tmp_path)
        would = cache.prune(max_bytes=0, dry_run=True)
        removed = cache.prune(max_bytes=0)
        assert removed == would
        assert len(cache) == 0

    def test_dry_run_cli_flag(self, tmp_path, capsys):
        self._filled_cache(tmp_path)
        from repro.__main__ import main

        assert main(["cache", "prune", "--max-bytes", "0",
                     "--dry-run", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "would prune 3 entries" in out
        assert len(list(tmp_path.glob("*.json"))) == 3


class TestPruneCoversCheckpoints:
    def test_prune_and_clear_reach_the_default_store(self, tmp_path):
        import os

        from repro.core import SimStats

        cache = ResultCache(tmp_path)
        cache.put("result", SimStats(cycles=1))
        store = CheckpointStore(tmp_path / "checkpoints")
        store.put("old", {"pos": 0})
        store.put("new", {"pos": 0})
        old = tmp_path / "checkpoints" / "old.ckpt"
        os.utime(old, (1_000, 1_000))
        assert cache.prune(max_age_days=1, dry_run=True) == 1
        assert cache.last_prune_bytes == old.stat().st_size
        assert cache.prune(max_age_days=1) == 1
        assert not old.exists() and len(store) == 1 and len(cache) == 1
        assert cache.prune(max_bytes=0) == 2
        assert len(store) == 0 and len(cache) == 0
        cache.put("result", SimStats(cycles=1))
        store.put("again", {"pos": 0})
        assert cache.clear() == 2
        assert len(store) == 0 and len(cache) == 0

    def test_cli_prune_counts_checkpoints(self, tmp_path, capsys):
        from repro.__main__ import main

        CheckpointStore(tmp_path / "checkpoints").put("k", {"pos": 0})
        assert main(["cache", "prune", "--max-bytes", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert not list((tmp_path / "checkpoints").glob("*.ckpt"))


class TestCheckpointFiles:
    def test_save_load_roundtrip_validates_identity(self, tmp_path):
        arch = {"version": 1, "scope": "arch", "pos": 1200, "bhist": 7,
                "warmup_instructions": 1200, "hierarchy": {}, "branch": {},
                "predictor": {}}
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, arch, workload="mcf", seed=3)
        payload = load_checkpoint(path, workload="mcf", seed=3)
        assert payload["warmup"] == 1200
        assert payload["arch"] == arch
        with pytest.raises(ValueError, match="workload"):
            load_checkpoint(path, workload="art", seed=3)
        with pytest.raises(ValueError, match="seed"):
            load_checkpoint(path, workload="mcf", seed=0)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        import pickle

        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a repro"):
            load_checkpoint(path)

    def test_cli_checkpoint_restore_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        ckpt = tmp_path / "mcf.ckpt"
        assert main(["run", "mcf", "--length", "2000", "--warmup", "1500",
                     "--checkpoint", str(ckpt)]) == 0
        first = capsys.readouterr().out
        assert "wrote warmup checkpoint (1500 instructions)" in first
        assert main(["run", "mcf", "--length", "2000",
                     "--restore", str(ckpt)]) == 0
        second = capsys.readouterr().out
        # identical simulated interval: cycle counts line up exactly
        assert [l for l in first.splitlines() if l.startswith("cycles")] == \
               [l for l in second.splitlines() if l.startswith("cycles")]

    def test_cli_checkpoint_requires_warmup(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["run", "mcf", "--checkpoint",
                     str(tmp_path / "x.ckpt")]) == 1
        assert "--warmup" in capsys.readouterr().out
