"""Coordinator dispatch: standalone worker subprocesses over one store.

:class:`WorkerDispatcher` turns a sweep campaign into ``N`` independent
``python -m repro.sweep.worker`` processes sharing the SQLite store, the
result cache and the warmup checkpoint store.  The coordinator itself
simulates nothing — it spawns workers with every execution setting
passed explicitly on their command line, watches their exits, respawns
casualties while work remains (a bounded budget prevents crash loops),
and folds each worker's final JSON counter line into one campaign-level
counter dict.

Fault model: a worker that dies silently (SIGKILL, OOM) stops
heartbeating; its leases go stale after ``stale_after`` seconds and the
survivors reclaim them through the ordinary
:meth:`~repro.sweep.store.ResultStore.claim` path.  Owner-conditional
commits make the handover exactly-once, and the shared cache usually
turns the re-run into a hit.  The coordinator's respawn only restores
*capacity*; correctness never depends on it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.harness.policy import ExecutionPolicy
from repro.sweep.store import ResultStore


def _repro_pythonpath() -> str:
    """A PYTHONPATH guaranteeing workers can import this very ``repro``."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if existing and src_root not in existing.split(os.pathsep):
        return src_root + os.pathsep + existing
    return existing or src_root


class _Worker:
    """One supervised worker subprocess and its captured stdout."""

    def __init__(self, worker_id: str, proc: subprocess.Popen) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.lines: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))

    def counters(self) -> dict | None:
        """The final JSON counter line, if the worker got that far."""
        self._reader.join(timeout=2.0)
        for line in reversed(self.lines):
            if line.startswith("{"):
                try:
                    return json.loads(line)
                except ValueError:
                    continue
        return None


class WorkerDispatcher:
    """Spawn and supervise ``repro.sweep.worker`` subprocesses.

    Args:
        workers: Worker-process count (``None`` defers to the policy,
            then ``$REPRO_WORKERS``, then 2).
        poll: Seconds between supervision sweeps.
        respawns: Replacement budget for dead workers (``None`` = twice
            the worker count).

    The spawned :class:`subprocess.Popen` handles are exposed as
    ``procs`` (in spawn order, replacements appended) — chaos tests
    reach in and SIGKILL one mid-campaign.
    """

    name = "workers"

    #: defaults for the lease-liveness protocol when the policy is silent —
    #: distributed campaigns *must* run with a staleness window, unlike the
    #: single-process modes where ``None`` is the historical default
    DEFAULT_STALE_AFTER = 60.0

    def __init__(
        self,
        workers: int | None = None,
        poll: float = 0.2,
        respawns: int | None = None,
    ) -> None:
        self.workers = workers
        self.poll = poll
        self.respawns = respawns
        self.procs: list[subprocess.Popen] = []
        self.spawned = 0

    # ------------------------------------------------------------------
    def _spawn(
        self, worker_id: str, argv: list[str], env: dict
    ) -> _Worker:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep.worker",
             "--worker-id", worker_id, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.procs.append(proc)
        self.spawned += 1
        return _Worker(worker_id, proc)

    def run(
        self,
        store: ResultStore,
        sweep: str,
        policy: ExecutionPolicy,
        *,
        mine: set | None = None,
        warmup: int = 0,
        sample: int | None = None,
        echo=None,
        progress=None,
    ) -> dict:
        say = echo if echo is not None else (lambda *_: None)
        n = self.workers if self.workers is not None else policy.resolved_workers()
        n = max(1, n)
        budget = self.respawns if self.respawns is not None else 2 * n
        retries = policy.retries if policy.retries is not None else 0
        stale_after = (
            policy.stale_after
            if policy.stale_after is not None
            else self.DEFAULT_STALE_AFTER
        )
        heartbeat = (
            policy.heartbeat
            if policy.heartbeat is not None
            else max(0.5, min(10.0, stale_after / 6.0))
        )
        cache_obj = policy.resolved_cache()
        ckpt_store = policy.resolved_checkpoints()

        argv = [
            "--db", str(store.path),
            "--sweep", sweep,
            "--peers", str(n),
            "--retries", str(retries),
            "--stale-after", str(stale_after),
            "--heartbeat", str(heartbeat),
            "--quiet",
        ]
        if policy.jobs is not None:
            argv += ["--jobs", str(policy.jobs)]
        if policy.chunk is not None:
            argv += ["--chunk", str(policy.chunk)]
        if cache_obj is not None:
            argv += ["--cache-dir", str(cache_obj.directory)]
        else:
            argv += ["--no-cache"]
        if ckpt_store is not None:
            argv += ["--checkpoint-dir", str(ckpt_store.directory)]
        else:
            argv += ["--no-checkpoints"]
        if warmup:
            argv += ["--warmup", str(warmup)]
        if sample is not None:
            argv += ["--sample", str(sample)]
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()

        def work_remains() -> bool:
            return bool(
                store.runnable(sweep, retries, stale_after=stale_after)
                or store.running(sweep, stale_after=stale_after)
            )

        def done_among_mine() -> tuple[int, int]:
            rows = store.rows(sweep)
            if mine is not None:
                rows = [
                    r for r in rows if (r["point_id"], r["seed"]) in mine
                ]
            done = sum(1 for r in rows if r["status"] == "done")
            return done, len(rows)

        say(f"{sweep}: spawning {n} workers on {store.path}")
        alive = [self._spawn(f"w{i}", argv, env) for i in range(n)]
        finished: list[_Worker] = []
        last_done = -1

        while alive:
            still = []
            for worker in alive:
                code = worker.proc.poll()
                if code is None:
                    still.append(worker)
                    continue
                finished.append(worker)
                if code != 0:
                    say(
                        f"{sweep}: worker {worker.worker_id} exited "
                        f"with code {code}"
                    )
                    if budget > 0 and work_remains():
                        budget -= 1
                        say(f"{sweep}: respawning {worker.worker_id}")
                        still.append(
                            self._spawn(worker.worker_id, argv, env)
                        )
            alive = still
            if not alive and budget > 0 and work_remains():
                # every worker exited cleanly yet rows remain (e.g. they
                # all drained while a claim was live and gave up after a
                # kill): field one more to finish the tail
                budget -= 1
                alive.append(self._spawn(f"w{self.spawned}", argv, env))
            if progress is not None:
                done, total = done_among_mine()
                if done != last_done:
                    last_done = done
                    try:
                        progress({
                            "source": "workers",
                            "completed": done,
                            "total": total,
                        })
                    except Exception:
                        pass
            if alive:
                time.sleep(self.poll)

        totals = {
            "simulated": 0, "retried": 0, "lost": 0, "shed": 0,
            "ckpt_enabled": 0, "ckpt_hits": 0, "ckpt_stores": 0,
            "cache_enabled": 0, "cache_hits": 0, "cache_misses": 0,
            "workers": self.spawned,
        }
        for worker in finished:
            counters = worker.counters()
            if counters is None:
                continue  # killed before its summary line: counts lost
            for key in totals.keys() - {"workers"}:
                totals[key] += int(counters.get(key, 0))
        totals["ckpt_enabled"] = int(bool(totals["ckpt_enabled"]))
        totals["cache_enabled"] = int(bool(totals["cache_enabled"]))
        return totals
