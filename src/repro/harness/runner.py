"""Run descriptions: one named machine recipe, run on one workload."""

from __future__ import annotations

import dataclasses
import os
from typing import Callable

from repro import select, simulate, vp
from repro.core import MachineConfig, SimStats
from repro.select import LoadSelector
from repro.vp import ValuePredictor
from repro.workloads import get_workload

#: built-in dynamic trace length for experiments when ``REPRO_TRACE_LEN``
#: is unset; resolved lazily by :func:`default_length` so the environment
#: variable can be set (or monkeypatched) after this module is imported
_FALLBACK_LENGTH = 16000


def default_length() -> int:
    """The default dynamic trace length, honouring ``$REPRO_TRACE_LEN``.

    Read at call time — not import time — so tests and scripts can adjust
    the environment whenever they like.
    """
    env = os.environ.get("REPRO_TRACE_LEN", "").strip()
    if not env:
        return _FALLBACK_LENGTH
    try:
        length = int(env)
    except ValueError:
        length = 0
    if length < 1:
        raise ValueError(
            f"REPRO_TRACE_LEN must be a positive integer trace length, got {env!r}"
        )
    return length


@dataclasses.dataclass
class RunSpec:
    """One named machine configuration plus its predictor/selector recipe.

    Factories (not instances) are required because predictor and selector
    state must be fresh for every simulation.  The predictor and selector
    accept registry names (``"wang-franklin"``, ``"ilp-pred"``, ...; see
    :data:`repro.vp.REGISTRY` / :data:`repro.select.REGISTRY`) as well as
    explicit factory callables — names are resolved once at construction.

    ``observe=True`` attaches a fresh
    :class:`~repro.obs.MetricsRegistry` to every run so the resulting
    stats carry ``extended`` occupancy/speculation metrics; it is part of
    the cache identity, so observed and plain results never alias.

    ``warmup``/``sample`` select the interval protocol: ``warmup``
    instructions are fast-forwarded functionally before timing starts,
    and ``sample`` (when set) overrides the caller's trace length as the
    measured-interval length — so one spec pins "warm 50k, measure 10k"
    regardless of the session default.  Both are part of the cache
    identity; both default to the historical full-trace behaviour.
    """

    name: str
    config_factory: Callable[[], MachineConfig]
    predictor_factory: Callable[[], ValuePredictor] | str = "oracle"
    selector_factory: Callable[[], LoadSelector] | str = "ilp-pred"
    observe: bool = False
    warmup: int = 0
    sample: int | None = None

    def __post_init__(self) -> None:
        self.predictor_factory = vp.resolve(self.predictor_factory)
        self.selector_factory = select.resolve(self.selector_factory)
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.sample is not None and self.sample < 1:
            raise ValueError("sample must be positive (or None)")

    def run(
        self,
        workload_name: str,
        length: int,
        seed: int = 0,
        tracer=None,
        metrics=None,
        checkpoints=None,
    ) -> SimStats:
        """Simulate this configuration on one workload.

        ``checkpoints`` (a
        :class:`~repro.harness.checkpoint.CheckpointStore`) lets the run
        restore its architectural start state (warm start plus warmup
        fast-forward) instead of re-deriving it; the key covers only
        architectural ingredients, so specs differing in timing axes
        share checkpoints.
        """
        if metrics is None and self.observe:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        return simulate(
            get_workload(workload_name),
            self.config_factory(),
            predictor=self.predictor_factory(),
            selector=self.selector_factory(),
            length=self.sample if self.sample is not None else length,
            seed=seed,
            tracer=tracer,
            metrics=metrics,
            warmup=self.warmup,
            checkpoints=checkpoints,
            checkpoint_key=self.checkpoint_key(
                workload_name, length, seed, checkpoints
            ),
        )

    def checkpoint_key(
        self, workload_name: str, length: int, seed: int, checkpoints
    ) -> str | None:
        """The store key for this spec's start state (None without a store)."""
        if checkpoints is None:
            return None
        from repro.harness.checkpoint import arch_key

        return arch_key(workload_name, seed, self.warmup, self, length)


def run_once(
    workload_name: str,
    spec: RunSpec,
    length: int | None = None,
    seed: int = 0,
    tracer=None,
    metrics=None,
    warmup: int | None = None,
    sample: int | None = None,
    checkpoints=None,
) -> SimStats:
    """Convenience wrapper: one workload through one run spec.

    ``warmup``/``sample`` override the spec's interval protocol for this
    call only; ``checkpoints`` passes a warmup-checkpoint store through
    (see :meth:`RunSpec.run`).
    """
    if warmup is not None or sample is not None:
        spec = dataclasses.replace(
            spec,
            warmup=spec.warmup if warmup is None else warmup,
            sample=spec.sample if sample is None else sample,
        )
    return spec.run(
        workload_name,
        length or default_length(),
        seed,
        tracer=tracer,
        metrics=metrics,
        checkpoints=checkpoints,
    )
