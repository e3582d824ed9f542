"""The :class:`ExecutionModel` protocol: pluggable per-mode engine policy.

Everything the staged engine used to decide by branching on ``SimMode``
inline lives here as a strategy object: whether loads go through the
value-prediction path at all, when a spawn is eligible, how the
prediction kind is routed, how an outstanding spawn is verified or
squashed, how resolutions attribute statistics, and how contexts are
prioritized by the scheduler.  The engine binds one (stateless, shared)
model instance at construction and consults it only at mode-policy
decision points — the per-instruction hot path still reads plain engine
attributes that the model populated once.

Models hold **no per-run state**; every method receives the engine.  That
keeps one module-level instance per mode shareable across engines,
processes and snapshots (a snapshot stores the mode string; restore
re-resolves the model from the registry).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import ThreadContext
    from repro.core.engine.records import SpawnRecord
    from repro.isa import Instruction
    from repro.memory import MemLevel


class ExecutionModel:
    """Base strategy object; subclasses override flags and policy hooks.

    Class attributes (the *capability flags* the engine hoists into its
    hot-loop bindings at construction):

    ``uses_value_prediction``
        Loads enter :meth:`handle_load_prediction`; False routes every
        load through the plain baseline timing path.
    ``spawn_capable``
        The model may allocate speculative contexts on predicted loads
        (the MTVP/spawn-only family).  Gates the spawn-eligibility check.
    ``spawn_on_branches``
        The step kernel offers every branch to :meth:`on_branch` and
        checks for position-triggered resolutions after each step (the
        SPMT family).
    ``single_context``
        Config normalization forces ``num_contexts = 1``.
    ``multi_program``
        The engine runs one root context per entry of its trace list
        (the SMT co-schedule family); requires ``traces=`` at
        construction and disables functional fast-forward.
    ``context_priority``
        ``None``, or a method ``(ctx) -> int`` used as the scheduler's
        tie-break between contexts with equal time hints (smaller wins).
        Leaving it ``None`` keeps the optimized slot-order scheduler.
    """

    #: registry key; equals the ``SimMode`` value it implements
    key: str = ""

    uses_value_prediction: bool = False
    spawn_capable: bool = False
    spawn_on_branches: bool = False
    single_context: bool = False
    multi_program: bool = False
    context_priority = None

    # ------------------------------------------------------------------
    # spawn eligibility
    # ------------------------------------------------------------------
    def spawn_possible(self, engine, ctx: "ThreadContext") -> bool:
        """Whether ``ctx`` may spawn a speculative child right now.

        The short-circuit order is load-bearing for determinism *and*
        speed: non-spawning models never scan the slot table.
        """
        return (
            self.spawn_capable
            and not ctx.pending_spawn
            and engine._free_slot() is not None
        )

    # ------------------------------------------------------------------
    # prediction-kind routing (the load path)
    # ------------------------------------------------------------------
    def handle_load_prediction(
        self,
        engine,
        ctx: "ThreadContext",
        inst: "Instruction",
        t_queue: int,
        t_complete: int,
        expected_level: "MemLevel | None",
    ) -> "tuple[int, SpawnRecord | None]":
        """Decide on and apply a value prediction for a load.

        Returns ``(destination ready time, spawn record or None)``.  Only
        called when ``uses_value_prediction`` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not route load predictions"
        )

    # ------------------------------------------------------------------
    # branch hook (spawn_on_branches models only)
    # ------------------------------------------------------------------
    def on_branch(
        self,
        engine,
        ctx: "ThreadContext",
        inst: "Instruction",
        t_queue: int,
        t_complete: int,
        predicted_ok: bool,
    ) -> None:
        """Offered every branch instruction when ``spawn_on_branches``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not spawn on branches"
        )

    # ------------------------------------------------------------------
    # verify / squash policy
    # ------------------------------------------------------------------
    def child_wins(
        self, record: "SpawnRecord", child: "ThreadContext", value: int
    ) -> bool:
        """Whether an alive child of a resolving record is the survivor."""
        raise NotImplementedError(
            f"{type(self).__name__} never resolves spawn records"
        )

    def on_mispredict(self, engine, record: "SpawnRecord", resolve_time: int) -> None:
        """Stats/selector attribution when no child survives resolution."""

    def on_confirm(
        self,
        engine,
        record: "SpawnRecord",
        winner: "ThreadContext",
        resolve_time: int,
    ) -> None:
        """Stats/selector attribution when ``winner`` survives resolution."""

    # ------------------------------------------------------------------
    # end-of-run stats attribution
    # ------------------------------------------------------------------
    def finalize_stats(self, engine) -> None:
        """Populate model-specific sections of ``engine.stats`` at close."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExecutionModel {self.key or type(self).__name__}>"
