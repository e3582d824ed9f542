"""repro — a reproduction of "Multithreaded Value Prediction".

Tuck & Tullsen, HPCA-11, 2005.

The package implements threaded value prediction (MTVP) on a trace-driven
SMT out-of-order timing model, together with every substrate the paper's
evaluation depends on: the Table 1 memory hierarchy with a stream-buffer
stride prefetcher, a 2bcgskew branch predictor, Wang–Franklin / DFCM /
oracle value predictors, the ILP-pred load selector, the tagged speculative
store buffer, and a synthetic SPEC CPU2000 workload suite.

Quickstart::

    from repro import MachineConfig, simulate
    from repro.workloads import get_workload

    workload = get_workload("mcf")
    base = simulate(workload, MachineConfig.hpca05_baseline())
    mtvp = simulate(workload, MachineConfig.mtvp(threads=8))
    print(f"speedup {mtvp.useful_ipc / base.useful_ipc:.2f}x")
"""

import dataclasses

from repro.core import Engine, FetchPolicy, MachineConfig, SimMode, SimStats
from repro.isa import Instruction, InstructionBuilder, OpClass
from repro.select import (
    AlwaysSelector,
    IlpCommitSelector,
    IlpPredSelector,
    LoadSelector,
    MissOracleSelector,
    PredictionKind,
)
from repro.vp import (
    DfcmPredictor,
    LastValuePredictor,
    OraclePredictor,
    StridePredictor,
    ValuePredictor,
    WangFranklinPredictor,
)
from repro.workloads import Workload, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "AlwaysSelector",
    "DfcmPredictor",
    "Engine",
    "FetchPolicy",
    "IlpCommitSelector",
    "IlpPredSelector",
    "Instruction",
    "InstructionBuilder",
    "LastValuePredictor",
    "LoadSelector",
    "MachineConfig",
    "MissOracleSelector",
    "OpClass",
    "OraclePredictor",
    "PredictionKind",
    "SimMode",
    "SimStats",
    "StridePredictor",
    "ValuePredictor",
    "WangFranklinPredictor",
    "Workload",
    "get_workload",
    "simulate",
    "workload_names",
]


def simulate(
    workload_or_trace,
    config: MachineConfig,
    predictor: ValuePredictor | None = None,
    selector: LoadSelector | None = None,
    length: int | None = None,
    seed: int = 0,
    tracer=None,
    metrics=None,
    warmup: int = 0,
    checkpoints=None,
    checkpoint_key: str | None = None,
) -> SimStats:
    """Run one simulation and return its statistics.

    Args:
        workload_or_trace: A :class:`~repro.workloads.Workload`, a workload
            name from the modeled suite, or an explicit instruction list.
        config: Machine configuration (see :class:`MachineConfig` presets).
        predictor: Value predictor; defaults to the oracle predictor.
        selector: Load selector; defaults to :class:`AlwaysSelector`.
        length: Trace length when a workload is given (defaults to the
            workload's own ``default_length``).  With ``warmup`` this is
            the *measured* length: the trace is extended by ``warmup``
            instructions that are fast-forwarded, not timed.
        seed: Dynamic-stream seed when a workload is given.
        tracer: Optional :class:`repro.obs.Tracer` collecting cycle-stamped
            events; export with its ``export_chrome``/``export_jsonl``.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; results land
            in ``stats.extended``.
        warmup: Instructions to execute *functionally* before timing
            starts (caches, prefetcher and predictor tables warm; no
            cycles accumulate).  Reported as
            ``stats.warmup_instructions``.
        checkpoints: Optional
            :class:`~repro.harness.checkpoint.CheckpointStore`; with a
            ``checkpoint_key`` the architectural start state (warm start
            plus ``warmup`` fast-forward) is restored from (or stored
            into) it, so it is computed once per trace.
        checkpoint_key: Store key identifying that state (see
            :func:`~repro.harness.checkpoint.arch_key`); ignored without
            a store.  Instrumented runs (``tracer``/``metrics``) and
            multi-program co-schedules never touch the store — arch
            snapshots exclude probe state and cover a single root — and
            recompute the state instead (see
            :meth:`~repro.core.Engine.warm_start`).

    Returns:
        The populated :class:`SimStats` for the run.

    Multi-program modes (``config.mode`` whose execution model is
    ``multi_program``, i.e. the SMT co-schedule) accept a
    :class:`~repro.workloads.TraceSet` — one program per hardware context
    (``num_contexts`` adapts to the set's size) — or a workload, in which
    case ``num_contexts`` independent dynamic streams of the same workload
    body are generated with seeds ``seed, seed+1, ...``.  ``warmup``
    (functional fast-forward) is single-stream by construction and is
    rejected for them.
    """
    from repro.core.modes import resolve_model
    from repro.workloads import TraceSet

    if isinstance(workload_or_trace, str):
        workload_or_trace = get_workload(workload_or_trace)
    warm_addresses = None
    traces = None
    if resolve_model(config.mode).multi_program:
        if warmup:
            raise ValueError(
                f"warmup is not supported in {config.mode.value} mode: "
                "fast-forward advances a single program stream"
            )
        if isinstance(workload_or_trace, TraceSet):
            traces = list(workload_or_trace.traces)
            if len(traces) != config.num_contexts:
                config = dataclasses.replace(
                    config, num_contexts=len(traces)
                )
        elif isinstance(workload_or_trace, Workload):
            traces = [
                workload_or_trace.trace(length=length, seed=seed + i)
                for i in range(config.num_contexts)
            ]
            if config.warm_caches:
                warm_addresses = _steady_state_footprint(
                    workload_or_trace, config
                )
        else:
            raise TypeError(
                f"{config.mode.value} mode needs a TraceSet or a workload "
                "(one explicit trace cannot fill multiple contexts)"
            )
        trace = traces[0]
    elif isinstance(workload_or_trace, TraceSet):
        if len(workload_or_trace) != 1:
            raise ValueError(
                f"mode {config.mode.value} runs a single program; the "
                f"TraceSet holds {len(workload_or_trace)}"
            )
        trace = list(workload_or_trace.traces[0])
    elif isinstance(workload_or_trace, Workload):
        if warmup:
            measured = (
                length
                if length is not None
                else workload_or_trace.spec.default_length
            )
            trace = workload_or_trace.trace(length=warmup + measured, seed=seed)
        else:
            trace = workload_or_trace.trace(length=length, seed=seed)
        if config.warm_caches:
            warm_addresses = _steady_state_footprint(workload_or_trace, config)
    else:
        trace = list(workload_or_trace)
    engine = Engine(
        trace, config, predictor=predictor, selector=selector,
        tracer=tracer, metrics=metrics, traces=traces, warm=False,
    )
    engine.warm_start(warm_addresses, warmup, checkpoints, checkpoint_key)
    return engine.run()


def _steady_state_footprint(workload: Workload, config: MachineConfig) -> list[int]:
    """Addresses a long-running execution would keep resident.

    Streams whose region fits in the L3 are fully warm in steady state;
    larger regions walked without revisits are as cold at the SimPoint as
    at startup, so they are left untouched.
    """
    addresses: list[int] = []
    for base, region_bytes in workload.stream_regions():
        if region_bytes <= config.l3_size:
            addresses.extend(
                base + off for off in range(0, region_bytes, config.line_size)
            )
    return addresses
