"""Serial in-process dispatch — the simplest, most debuggable mode."""

from __future__ import annotations

from repro.harness.policy import ExecutionPolicy
from repro.sweep.drain import drain_store, worker_token
from repro.sweep.store import ResultStore


class LocalDispatcher:
    """Drain the store serially in the calling process.

    ``jobs`` is forced to 1 — *local* means no process fan-out at all,
    which keeps tracebacks direct and checkpoint/cache counters exact
    (the warmup audit path).
    """

    name = "local"

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
        return drain_store(
            store,
            sweep,
            policy.merged(jobs=1),
            mine=mine,
            owner=worker_token(),
            warmup=warmup,
            sample=sample,
            echo=echo,
            progress=progress,
        )
