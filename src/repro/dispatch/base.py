"""The Dispatcher protocol and mode → implementation resolution.

A *dispatcher* decides where a sweep campaign's simulations execute; the
campaign logic (expansion, leases, commits, summaries) is identical
across all of them because every implementation ultimately runs
:func:`~repro.sweep.drain.drain_store` against the shared store — the
only question is in how many processes, spawned by whom:

========== =========================================================
``local``  serially, in the calling process
``pool``   in the calling process, fanning chunks over a
           ``ProcessPoolExecutor`` (the historical ``jobs > 1`` path)
``workers`` in ``N`` standalone ``repro.sweep.worker`` subprocesses,
           spawned and supervised by a coordinator
========== =========================================================

Anything with a compatible ``run`` method is a dispatcher —
:class:`~repro.harness.policy.ExecutionPolicy` accepts instances in its
``dispatch`` field, which is how tests inject instrumented dispatchers
(e.g. to reach a worker's process handle and kill it).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.harness.policy import ExecutionPolicy
from repro.sweep.store import ResultStore


@runtime_checkable
class Dispatcher(Protocol):
    """Executes a sweep's runnable rows; returns drain counters.

    Implementations receive the shared store, the sweep name, the full
    :class:`~repro.harness.policy.ExecutionPolicy`, and the campaign's
    row scope / interval protocol, and must return a counter dict with
    at least the keys :func:`~repro.sweep.drain.drain_store` produces
    (``simulated``/``retried``/``lost``/``shed``/``ckpt_*``/``cache_*``).
    """

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
    ) -> dict: ...


def get_dispatcher(policy: ExecutionPolicy) -> "Dispatcher":
    """The dispatcher a policy names (mode string or ready instance)."""
    from repro.dispatch.local import LocalDispatcher
    from repro.dispatch.pool import PoolDispatcher
    from repro.dispatch.workers import WorkerDispatcher

    mode = policy.resolved_dispatch()
    if isinstance(mode, str):
        if mode == "local":
            return LocalDispatcher()
        if mode == "pool":
            return PoolDispatcher()
        if mode == "workers":
            return WorkerDispatcher()
        raise ValueError(f"unknown dispatch mode {mode!r}")
    return mode  # a ready-made Dispatcher instance passed through policy
