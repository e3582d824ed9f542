"""Payload validation and job execution over the existing harness.

This module is the seam between the HTTP surface and the simulation
machinery: every service job — however it arrived — executes through the
same :class:`~repro.harness.Session` / :func:`~repro.sweep.run_sweep`
code paths the CLI and the Python API use, against **one** shared
:class:`~repro.harness.cache.ResultCache` and one shared
:class:`~repro.harness.checkpoint.CheckpointStore`.  That sharing is the
point of the service: identical submissions dedupe to one job
(:mod:`repro.serve.jobs`), overlapping *different* submissions still
share every common ``(point, seed)`` simulation through the cache, and
warmed campaigns share architectural checkpoints.

Payloads are *normalized* before they reach the job digest (defaults
applied, keys validated), so ``{"workload": "mcf"}`` and
``{"workload": "mcf", "seed": 0}`` coalesce onto the same job.

Run payload::

    {"workload": "mcf",              # required, a known workload
     "params": {"machine": "mtvp", "threads": 8,
                "predictor": "wang-franklin", ...},   # sweep-recipe keys
     "length": 16000, "seed": 0,
     "warmup": 0, "sample": null,
     "observe": false, "trace": false}

Sweep payload::

    {"spec": { ... SweepSpec.to_dict() / TOML-equivalent JSON ... },
     "max_points": null, "retries": null}

Search payload::

    {"spec": { ... SearchSpec.to_dict() / TOML-equivalent JSON ... },
     "max_points": null, "retries": null}
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

from repro.harness.cache import ResultCache, task_key
from repro.harness.checkpoint import CheckpointStore, resolve_checkpoints
from repro.harness.export import result_to_dict
from repro.harness.policy import ExecutionPolicy, resolve_cache
from repro.harness.runner import default_length
from repro.harness.session import Session
from repro.search.controller import run_search
from repro.search.spec import SearchSpec, SearchSpecError
from repro.serve.jobs import Job
from repro.sweep.execute import run_sweep
from repro.sweep.spec import SweepSpec, SweepSpecError, run_spec_for, _check_keys
from repro.sweep.store import ResultStore
from repro.workloads import get_workload

#: how many raw tracer events a traced run job forwards onto its event
#: stream (the full trace is summarized in the job result either way)
TRACE_EVENT_LIMIT = 1000


class ServiceError(ValueError):
    """A submission is invalid; ``status`` is the HTTP code to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


_RUN_KEYS = frozenset(
    ("workload", "params", "length", "seed", "warmup", "sample",
     "observe", "trace")
)
_SWEEP_KEYS = frozenset(("spec", "max_points", "retries"))
_SEARCH_KEYS = frozenset(("spec", "max_points", "retries"))


class CampaignRunner:
    """Executes service jobs through the harness, over shared stores.

    Args:
        state_dir: Directory for service-owned state (sweep result
            databases, and the default cache/checkpoint stores).  ``None``
            creates a private temporary directory that lives as long as
            the runner.
        cache: Shared result cache (see
            :func:`~repro.harness.parallel.resolve_cache`); when it
            resolves to nothing, a cache is created under ``state_dir`` —
            the service without a cache would re-simulate identical work,
            defeating its purpose.
        checkpoints: Shared warmup-checkpoint store (same resolution
            rules; defaults into ``state_dir`` too).
        policy: An :class:`~repro.harness.policy.ExecutionPolicy` with
            the sweep execution settings (jobs/dispatch/workers/retries,
            and the lease-liveness protocol).  ``jobs`` (worker
            processes per sweep chunk, unset = serial) multiplies with
            the server's worker threads, so keep the product near the
            core count.  Unset ``stale_after``/``heartbeat`` default to
            300 s / 10 s: the server's worker threads share one store,
            so campaigns must never run without a staleness window, and
            the heartbeat must stay well under it.
    """

    def __init__(
        self,
        state_dir: str | Path | None = None,
        cache=None,
        checkpoints=None,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        if state_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            state_dir = self._tmp.name
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        resolved = resolve_cache(cache)
        self.cache = (
            resolved if resolved is not None
            else ResultCache(self.state_dir / "cache")
        )
        resolved_ckpt = resolve_checkpoints(checkpoints)
        self.checkpoints = (
            resolved_ckpt if resolved_ckpt is not None
            else CheckpointStore(self.state_dir / "checkpoints")
        )
        if policy is None:
            policy = ExecutionPolicy()
        if policy.stale_after is None:
            policy = policy.merged(stale_after=300.0)
        if policy.heartbeat is None:
            policy = policy.merged(heartbeat=10.0)
        self.policy = policy

    # -- lease-liveness settings live on the policy
    @property
    def stale_after(self) -> float:
        return self.policy.stale_after

    @property
    def heartbeat(self) -> float:
        return self.policy.heartbeat

    # ------------------------------------------------------------------
    # validation / normalization (runs on the submitting thread)
    # ------------------------------------------------------------------
    def validate(self, kind: str, payload) -> dict:
        """Check a submission and return its normalized payload.

        Normalization applies every default explicitly so the job digest
        — computed over the result — coalesces equivalent submissions.
        Raises :class:`ServiceError` (HTTP 400) on anything malformed.
        """
        _require(isinstance(payload, dict), "request body must be a JSON object")
        if kind == "run":
            return self._validate_run(payload)
        if kind == "sweep":
            return self._validate_sweep(payload)
        if kind == "search":
            return self._validate_search(payload)
        raise ServiceError(f"unknown job kind {kind!r}")

    def _validate_run(self, payload: dict) -> dict:
        unknown = set(payload) - _RUN_KEYS
        _require(not unknown,
                 f"unknown run field(s) {sorted(unknown)}; "
                 f"valid: {sorted(_RUN_KEYS)}")
        workload = payload.get("workload")
        _require(isinstance(workload, str), "run needs a 'workload' name")
        try:
            default = get_workload(workload).spec.default_length
        except KeyError as exc:
            raise ServiceError(str(exc.args[0])) from None
        params = payload.get("params", {})
        _require(isinstance(params, dict), "'params' must be an object")
        length = payload.get("length", default or default_length())
        seed = payload.get("seed", 0)
        warmup = payload.get("warmup", 0)
        sample = payload.get("sample")
        _require(isinstance(length, int) and length >= 1,
                 "'length' must be a positive integer")
        _require(isinstance(seed, int), "'seed' must be an integer")
        _require(isinstance(warmup, int) and warmup >= 0,
                 "'warmup' must be a non-negative integer")
        _require(sample is None or (isinstance(sample, int) and sample >= 1),
                 "'sample' must be a positive integer or null")
        normalized = {
            "workload": workload,
            "params": {k: params[k] for k in sorted(params)},
            "length": length,
            "seed": seed,
            "warmup": warmup,
            "sample": sample,
            "observe": bool(payload.get("observe", False)),
            "trace": bool(payload.get("trace", False)),
        }
        # building the RunSpec now surfaces unknown recipe keys, unknown
        # machine presets and unknown predictor/selector names as a 400
        # instead of a failed job
        try:
            _check_keys(normalized["params"], "run params")
            run_spec_for(normalized["params"], warmup=warmup, sample=sample)
        except (SweepSpecError, KeyError, ValueError, TypeError) as exc:
            raise ServiceError(f"invalid run recipe: {exc}") from None
        return normalized

    def _validate_sweep(self, payload: dict) -> dict:
        unknown = set(payload) - _SWEEP_KEYS
        _require(not unknown,
                 f"unknown sweep field(s) {sorted(unknown)}; "
                 f"valid: {sorted(_SWEEP_KEYS)}")
        _require(isinstance(payload.get("spec"), dict),
                 "sweep needs a 'spec' object (SweepSpec fields)")
        try:
            spec = SweepSpec.from_dict(payload["spec"])
        except (SweepSpecError, KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"invalid sweep spec: {exc}") from None
        max_points = payload.get("max_points")
        retries = payload.get("retries")
        _require(max_points is None
                 or (isinstance(max_points, int) and max_points >= 1),
                 "'max_points' must be a positive integer or null")
        _require(retries is None or (isinstance(retries, int) and retries >= 0),
                 "'retries' must be a non-negative integer or null")
        return {
            "spec": spec.to_dict(),
            "max_points": max_points,
            "retries": retries,
        }

    def _validate_search(self, payload: dict) -> dict:
        unknown = set(payload) - _SEARCH_KEYS
        _require(not unknown,
                 f"unknown search field(s) {sorted(unknown)}; "
                 f"valid: {sorted(_SEARCH_KEYS)}")
        _require(isinstance(payload.get("spec"), dict),
                 "search needs a 'spec' object (SearchSpec fields)")
        try:
            spec = SearchSpec.from_dict(payload["spec"])
        except (SearchSpecError, KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"invalid search spec: {exc}") from None
        max_points = payload.get("max_points")
        retries = payload.get("retries")
        _require(max_points is None
                 or (isinstance(max_points, int) and max_points >= 1),
                 "'max_points' must be a positive integer or null")
        _require(retries is None or (isinstance(retries, int) and retries >= 0),
                 "'retries' must be a non-negative integer or null")
        return {
            "spec": spec.to_dict(),
            "max_points": max_points,
            "retries": retries,
        }

    # ------------------------------------------------------------------
    # execution (runs on a JobManager worker thread)
    # ------------------------------------------------------------------
    def __call__(self, job: Job) -> dict:
        if job.kind == "run":
            return self._run_job(job)
        if job.kind == "search":
            return self._search_job(job)
        return self._sweep_job(job)

    def _session_for(self, payload: dict, tracer=None) -> Session:
        rspec = run_spec_for(
            payload["params"],
            name="serve",
            warmup=payload["warmup"],
            sample=payload["sample"],
        )
        return Session(
            config=rspec.config_factory,
            predictor=rspec.predictor_factory,
            selector=rspec.selector_factory,
            length=payload["length"],
            seed=payload["seed"],
            observe=payload["observe"] or tracer is not None,
            tracer=tracer,
            name="serve",
            policy=ExecutionPolicy(
                jobs=1,
                cache=self.cache,
                checkpoints=self.checkpoints,
                warmup=payload["warmup"],
                sample=payload["sample"],
            ),
        )

    def _run_job(self, job: Job) -> dict:
        payload = job.payload
        tracer = None
        if payload["trace"]:
            from repro.obs import Tracer

            tracer = Tracer()
        session = self._session_for(payload, tracer=tracer)
        key = task_key(
            payload["workload"], session.spec(), session.length, session.seed
        )
        cached = (
            tracer is None and key is not None and self.cache.contains(key)
        )
        if tracer is not None:
            stats = session.run(payload["workload"])  # uncached by design
        else:
            stats = session.run_many(
                [payload["workload"]],
                progress=lambda info: job.events.emit("progress", **info),
            )[0]
        result = {
            "workload": payload["workload"],
            "length": session.length,
            "seed": session.seed,
            "cached": cached,
            "stats": stats.to_dict(),
        }
        if tracer is not None:
            self._bridge_trace(job, tracer)
            result["trace"] = tracer.summary()
        return result

    def _bridge_trace(self, job: Job, tracer) -> None:
        """Forward tracer events onto the job's NDJSON stream (bounded)."""
        from repro.obs.events import EVENT_NAMES

        events = tracer.events
        for cycle, kind, tid, args in events[:TRACE_EVENT_LIMIT]:
            job.events.emit(
                "trace",
                cycle=cycle,
                event=EVENT_NAMES[kind],
                tid=tid,
                args=args,
            )
        if len(events) > TRACE_EVENT_LIMIT:
            job.events.emit(
                "trace-truncated",
                forwarded=TRACE_EVENT_LIMIT,
                total=len(events),
            )

    def sweep_db(self, job: Job) -> Path:
        """Where a sweep job's results database lives (digest-addressed)."""
        return self.state_dir / f"sweep-{job.digest[:16]}.db"

    def _sweep_job(self, job: Job) -> dict:
        spec = SweepSpec.from_dict(job.payload["spec"])
        db = self.sweep_db(job)
        job.data["db"] = str(db)
        job.data["sweep"] = spec.name
        with ResultStore(db) as store:
            summary = run_sweep(
                spec,
                store,
                max_points=job.payload["max_points"],
                echo=lambda *parts: job.events.emit(
                    "log", message=" ".join(str(p) for p in parts)
                ),
                progress=lambda info: job.events.emit("progress", **info),
                policy=self.policy.merged(
                    retries=job.payload["retries"],
                    cache=self.cache,
                    checkpoints=self.checkpoints,
                ),
            )
        return {
            "sweep": spec.name,
            "db": str(db),
            "summary": dataclasses.asdict(summary),
            "complete": summary.complete,
        }

    def search_db(self, job: Job) -> Path:
        """Where a search job's results database lives (digest-addressed).
        All rungs (and the exhaustive reference, if one is ever run)
        share this one store."""
        return self.state_dir / f"search-{job.digest[:16]}.db"

    def _search_spec(self, job: Job) -> SearchSpec:
        return SearchSpec.from_dict(job.payload["spec"])

    def _search_job(self, job: Job) -> dict:
        spec = self._search_spec(job)
        db = self.search_db(job)
        job.data["db"] = str(db)
        job.data["search"] = spec.name
        with ResultStore(db) as store:
            summary = run_search(
                spec,
                store,
                max_points=job.payload["max_points"],
                echo=lambda *parts: job.events.emit(
                    "log", message=" ".join(str(p) for p in parts)
                ),
                progress=lambda info: job.events.emit("progress", **info),
                policy=self.policy.merged(
                    retries=job.payload["retries"],
                    cache=self.cache,
                    checkpoints=self.checkpoints,
                ),
            )
        return {
            "search": spec.name,
            "db": str(db),
            "summary": summary.to_dict(),
            "winner": summary.winner,
            "complete": summary.complete,
        }

    # ------------------------------------------------------------------
    # read-side helpers (any thread)
    # ------------------------------------------------------------------
    def partial(self, job: Job) -> dict | None:
        """Live per-status row counts for a running/finished sweep or
        search job (search counts sum over every rung sweep)."""
        if job.kind == "sweep":
            db, names = self.sweep_db(job), [job.payload["spec"]["name"]]
        elif job.kind == "search":
            db = self.search_db(job)
            spec = self._search_spec(job)
            names = [spec.rung_sweep(i) for i in range(len(spec.rungs))]
        else:
            return None
        if not db.exists():
            return None
        counts: dict = {}
        try:
            with ResultStore(db) as store:
                for name in names:
                    for status, n in store.counts(name).items():
                        counts[status] = counts.get(status, 0) + n
        except Exception:  # db mid-creation by the worker: no partials yet
            return None
        counts["total"] = sum(counts.values())
        return counts

    def report(self, job: Job, fmt: str = "markdown"):
        """Render a finished job's report (markdown str or JSON dict).

        For sweep jobs this is exactly the ``sweep report`` CLI output —
        deterministic, so every client of a deduped job receives
        byte-identical bytes.
        """
        if fmt not in ("markdown", "json"):
            raise ServiceError(f"unknown report format {fmt!r}")
        if job.status != "done":
            raise ServiceError(
                f"job {job.id} is {job.status}; reports need a finished job",
                status=409,
            )
        if job.kind == "run":
            if fmt == "json":
                return job.result
            stats = job.result["stats"]
            lines = [
                f"### Run {job.payload['workload']} "
                f"({job.payload['length']} instructions, "
                f"seed {job.payload['seed']})",
                "",
                "| metric | value |",
                "| --- | --- |",
            ]
            for key in sorted(stats):
                if isinstance(stats[key], (int, float, str)):
                    lines.append(f"| {key} | {stats[key]} |")
            return "\n".join(lines) + "\n"
        if job.kind == "search":
            from repro.search.report import format_search_report, search_result

            spec = self._search_spec(job)
            with ResultStore(self.search_db(job)) as store:
                summary = search_result(
                    spec, store, max_points=job.payload["max_points"]
                )
            if not summary.total:
                raise ServiceError(
                    f"search {spec.name} has no recorded rows", status=409
                )
            if fmt == "markdown":
                return format_search_report(spec, summary)
            return summary.to_dict()
        from repro.sweep.report import format_markdown, sweep_result
        from repro.sweep.stats import aggregate

        name = job.payload["spec"]["name"]
        with ResultStore(self.sweep_db(job)) as store:
            rows = store.rows(name)
        if not rows:
            raise ServiceError(f"sweep {name} has no recorded rows", status=409)
        result = sweep_result(name, aggregate(rows))
        if fmt == "markdown":
            return format_markdown(result)
        return result_to_dict(result)

    def stats(self) -> dict:
        """Shared-store traffic counters for the ``/stats`` endpoint."""
        return {
            "cache": {
                "directory": str(self.cache.directory),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "entries": len(self.cache),
            },
            "checkpoints": {
                "directory": str(self.checkpoints.directory),
                "hits": self.checkpoints.hits,
                "misses": self.checkpoints.misses,
                "stores": self.checkpoints.stores,
            },
        }
