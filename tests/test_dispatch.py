"""Distributed sweep execution: dispatchers, workers, and chaos.

Covers the Dispatcher seam end to end (DESIGN.md §5i):

* mode resolution — ``get_dispatcher`` maps policy modes to
  implementations and passes ready instances through;
* all three dispatch modes produce byte-identical ``sweep report``
  output for the same spec;
* the standalone worker entrypoint (``python -m repro.sweep.worker``)
  drains a store over its CLI and emits a final JSON counter line;
* the kill-a-worker chaos drill: a 4-worker campaign survives a SIGKILL
  mid-flight — survivors reclaim the dead worker's stale leases, every
  row commits exactly once (the ``commits`` ledger proves it), attempts
  stay within the retry budget, and the report matches the
  single-process reference byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.dispatch import (
    Dispatcher,
    LocalDispatcher,
    PoolDispatcher,
    WorkerDispatcher,
    get_dispatcher,
)
from repro.harness.cache import ResultCache
from repro.harness.policy import ExecutionPolicy
from repro.sweep import ResultStore, aggregate, full_report, run_sweep
from repro.sweep.execute import campaign_rows
from repro.sweep.spec import SweepSpec


def _spec(name: str, *, axis=(1,), seeds=(0, 1), length=400) -> SweepSpec:
    return SweepSpec.from_dict({
        "name": name,
        "axes": {"spawn_latency": list(axis)},
        "base": {"machine": "mtvp", "threads": 2,
                 "predictor": "wang-franklin"},
        "workloads": ["mcf"],
        "seeds": list(seeds),
        "lengths": [length],
    })


def _report(store: ResultStore, name: str) -> str:
    return full_report(name, aggregate(store.rows(name)))


class TestDispatcherResolution:
    def test_modes_map_to_implementations(self):
        assert isinstance(
            get_dispatcher(ExecutionPolicy(dispatch="local")), LocalDispatcher)
        assert isinstance(
            get_dispatcher(ExecutionPolicy(dispatch="pool")), PoolDispatcher)
        assert isinstance(
            get_dispatcher(ExecutionPolicy(dispatch="workers")),
            WorkerDispatcher)

    def test_auto_settles_on_job_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(get_dispatcher(ExecutionPolicy()), LocalDispatcher)
        assert isinstance(
            get_dispatcher(ExecutionPolicy(jobs=3)), PoolDispatcher)

    def test_ready_instances_pass_through(self):
        mine = WorkerDispatcher(workers=1)
        assert get_dispatcher(ExecutionPolicy(dispatch=mine)) is mine

    def test_implementations_satisfy_the_protocol(self):
        for impl in (LocalDispatcher(), PoolDispatcher(), WorkerDispatcher()):
            assert isinstance(impl, Dispatcher)


class TestModeAgreement:
    """local, pool and workers: one spec, three stores, one report."""

    def test_all_dispatch_modes_produce_identical_reports(self, tmp_path):
        spec = _spec("agree")
        reports = {}
        for mode, policy in (
            ("local", ExecutionPolicy(dispatch="local", cache=False)),
            ("pool", ExecutionPolicy(dispatch="pool", jobs=2, cache=False)),
            ("workers", ExecutionPolicy(
                dispatch="workers", workers=2, cache=False,
                stale_after=30.0, heartbeat=1.0)),
        ):
            with ResultStore(tmp_path / f"{mode}.db") as store:
                summary = run_sweep(spec, store, policy=policy)
                assert summary.complete, f"{mode} left the campaign short"
                reports[mode] = _report(store, "agree")
        assert reports["local"] == reports["pool"] == reports["workers"]


class TestCheckpointParity:
    """A cached timing sweep restores warm state under every dispatcher."""

    def test_dispatchers_agree_and_restore_warm_state(self, tmp_path):
        import re

        spec = _spec("parity", axis=(1, 8, 32))
        rows = {}
        for mode, extra in (
            ("local", {}),
            ("pool", {"jobs": 2}),
            ("workers", {"workers": 2, "stale_after": 30.0, "heartbeat": 1.0}),
        ):
            lines: list[str] = []
            policy = ExecutionPolicy(
                dispatch=mode, cache=tmp_path / f"cache-{mode}", **extra
            )
            with ResultStore(tmp_path / f"{mode}.db") as store:
                summary = run_sweep(spec, store, policy=policy, echo=lines.append)
                assert summary.complete, f"{mode} left the campaign short"
                rows[mode] = sorted(
                    (r["point_id"], r["seed"], r["stats"])
                    for r in store.rows("parity")
                )
            traffic = [
                re.search(r"warmup checkpoints: (\d+) restored, (\d+) stored", line)
                for line in lines
            ]
            restored, stored = next(
                (int(m[1]), int(m[2])) for m in traffic if m is not None
            )
            assert restored > 0 and stored >= 2, (mode, lines)
            # 3 points + baseline per seed, 2 seeds: every row either
            # stored its warm state or restored one
            assert restored + stored >= 8, (mode, lines)
            # each fresh cache misses once per row, whoever ran the row
            assert "parity: result cache: 0 hits, 8 misses" in lines, (mode, lines)
        assert rows["local"] == rows["pool"] == rows["workers"]


class TestWorkerEntrypoint:
    """The standalone ``python -m repro.sweep.worker`` CLI."""

    def test_single_worker_drains_a_prepared_store(self, tmp_path):
        from repro.dispatch.workers import _repro_pythonpath

        spec = _spec("solo")
        path = tmp_path / "solo.db"
        with ResultStore(path) as store:
            store.ensure("solo", campaign_rows(spec))
            total = len(store.rows("solo"))
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sweep.worker",
             "--db", str(path), "--sweep", "solo", "--worker-id", "t0",
             "--no-cache", "--stale-after", "30", "--heartbeat", "1",
             "--quiet"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        counters = json.loads(proc.stdout.strip().splitlines()[-1])
        assert counters["worker"] == "t0"
        assert counters["simulated"] == total
        assert counters["lost"] == 0
        with ResultStore(path) as store:
            assert store.counts("solo")["done"] == total
            ledger = store.commit_stats("solo")
            assert ledger["max_commits"] == 1

    def test_worker_on_a_drained_store_is_a_noop(self, tmp_path):
        from repro.dispatch.workers import _repro_pythonpath

        spec = _spec("noop", seeds=(0,))
        path = tmp_path / "noop.db"
        with ResultStore(path) as store:
            run_sweep(spec, store,
                      policy=ExecutionPolicy(dispatch="local", cache=False))
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sweep.worker",
             "--db", str(path), "--sweep", "noop", "--no-cache", "--quiet"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        counters = json.loads(proc.stdout.strip().splitlines()[-1])
        assert counters["simulated"] == 0
        with ResultStore(path) as store:
            assert store.commit_stats("noop")["max_commits"] == 1


class TestWorkerChaos:
    """Satellite: SIGKILL one of four workers mid-campaign."""

    def test_campaign_survives_a_sigkilled_worker(self, tmp_path):
        spec = _spec("chaos", axis=(1, 8), seeds=(0, 1, 2), length=40000)
        path = tmp_path / "chaos.db"
        cache = ResultCache(tmp_path / "cache")
        dispatcher = WorkerDispatcher(workers=4, poll=0.05)
        policy = ExecutionPolicy(
            dispatch=dispatcher, retries=1, jobs=1, cache=cache,
            stale_after=2.0, heartbeat=0.25,
        )
        outcome: dict = {}

        def campaign() -> None:
            try:
                with ResultStore(path) as store:
                    outcome["summary"] = run_sweep(spec, store, policy=policy)
            except Exception as exc:  # noqa: BLE001 — surfaced by assert
                outcome["error"] = exc

        runner = threading.Thread(target=campaign)
        runner.start()
        try:
            # wait for real work to be in flight, then murder a worker
            with ResultStore(path) as watch:
                deadline = time.time() + 60.0
                while time.time() < deadline and runner.is_alive():
                    counts = watch.counts("chaos")
                    if dispatcher.procs and counts.get("running", 0):
                        break
                    time.sleep(0.02)
            dispatcher.procs[0].kill()  # SIGKILL, no cleanup
        finally:
            runner.join(timeout=480)
        assert not runner.is_alive(), "campaign never finished after the kill"
        assert "error" not in outcome, f"campaign raised: {outcome.get('error')}"
        assert outcome["summary"].complete

        with ResultStore(path) as store:
            rows = store.rows("chaos")
            assert all(r["status"] == "done" for r in rows)
            # retry budget: first claim + at most one reclaim of the
            # murdered worker's leases
            assert max(r["attempts"] for r in rows) <= 2, (
                [(r["point_id"], r["seed"], r["attempts"]) for r in rows])
            ledger = store.commit_stats("chaos")
            assert ledger["done"] == len(rows)
            assert ledger["max_commits"] == 1, (
                "a row was committed twice — exactly-once broke")
            chaos_report = _report(store, "chaos")

        # byte-identical to a single-process reference (sharing the cache,
        # so reclaimed rows also prove cache recovery: the reference run
        # simulates nothing new)
        with ResultStore(tmp_path / "ref.db") as ref_store:
            ref = run_sweep(
                spec, ref_store,
                policy=ExecutionPolicy(dispatch="local", cache=cache),
            )
            assert ref.complete
            ref_report = _report(ref_store, "chaos")
        assert chaos_report == ref_report


class TestWorkerSupervision:
    def test_exhausted_campaign_spawns_and_converges(self, tmp_path):
        """Workers racing a store where rows are mostly done: clean exit,
        no respawn storm (spawned stays within budget)."""
        spec = _spec("tail", seeds=(0,))
        path = tmp_path / "tail.db"
        with ResultStore(path) as store:
            run_sweep(spec, store,
                      policy=ExecutionPolicy(dispatch="local", cache=False))
        dispatcher = WorkerDispatcher(workers=2, poll=0.05)
        with ResultStore(path) as store:
            summary = run_sweep(
                spec, store,
                policy=ExecutionPolicy(
                    dispatch=dispatcher, cache=False,
                    stale_after=5.0, heartbeat=0.5),
            )
        assert summary.complete
        assert summary.simulated == 0
        assert dispatcher.spawned <= 2 + 2 * 2  # initial + respawn budget
