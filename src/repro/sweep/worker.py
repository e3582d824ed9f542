"""Standalone sweep worker: ``python -m repro.sweep.worker``.

One worker process in a distributed campaign (``--dispatch workers``).
It opens the shared :class:`~repro.sweep.store.ResultStore`, then runs
:func:`~repro.sweep.drain.drain_store` under its own lease owner token:
lease a chunk of ``(point, seed)`` rows, heartbeat them while they
simulate, commit owner-conditionally, repeat until the sweep has nothing
left to run.  Workers need no spec file — every row carries its full
recipe in ``params``, from which
:func:`~repro.sweep.spec.run_spec_for` rebuilds the
:class:`~repro.harness.runner.RunSpec`.

The coordinator (:class:`repro.dispatch.WorkerDispatcher`) spawns these
processes and passes every execution setting explicitly, so a worker's
behaviour never depends on inherited ``REPRO_*`` environment variables.
On success the last stdout line is a JSON counter object (simulated /
retried / lost / shed / checkpoint traffic) the coordinator folds into
the campaign summary.  A worker killed mid-chunk loses at most its
current per-point group of uncommitted results; the shared
:class:`~repro.harness.cache.ResultCache` usually remembers even those,
so the reclaiming worker's retry is a cache hit, not a re-simulation.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness.policy import ExecutionPolicy
from repro.sweep.drain import drain_store, worker_token
from repro.sweep.store import ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep.worker",
        description="Lease and simulate rows of a sweep campaign.",
    )
    parser.add_argument("--db", required=True, help="shared results database")
    parser.add_argument("--sweep", required=True, help="sweep name in the db")
    parser.add_argument(
        "--worker-id", default=None,
        help="stable worker name (lease owner tokens derive from it)",
    )
    parser.add_argument(
        "--peers", type=int, default=1,
        help="total workers sharing the store (enables tail work-stealing)",
    )
    parser.add_argument("--jobs", default=None, help="processes per chunk")
    parser.add_argument(
        "--retries", type=int, default=None,
        help="extra attempts per failed row",
    )
    parser.add_argument(
        "--chunk", type=int, default=None, help="rows per commit batch"
    )
    parser.add_argument(
        "--stale-after", type=float, default=None,
        help="seconds before a silent claim counts as crashed",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None,
        help="seconds between lease touches while simulating",
    )
    parser.add_argument("--cache-dir", default=None, help="result cache dir")
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, help="warm-state checkpoint dir"
    )
    parser.add_argument(
        "--no-checkpoints", action="store_true",
        help="disable the checkpoint store (else it defaults beside the cache)",
    )
    parser.add_argument(
        "--warmup", type=int, default=0,
        help="warmup instructions per reconstructed spec",
    )
    parser.add_argument(
        "--sample", type=int, default=None,
        help="measured-interval length per reconstructed spec",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    policy = ExecutionPolicy(
        jobs=args.jobs if args.jobs is not None else 1,
        retries=args.retries,
        chunk=args.chunk,
        stale_after=args.stale_after,
        heartbeat=args.heartbeat,
        cache=False if args.no_cache else args.cache_dir,
        checkpoints=False if args.no_checkpoints else args.checkpoint_dir,
    )
    owner = worker_token(args.worker_id)
    echo = None if args.quiet else (
        lambda *parts: print(
            f"[{args.worker_id or owner}]", *parts, file=sys.stderr, flush=True
        )
    )
    with ResultStore(args.db) as store:
        counters = drain_store(
            store,
            args.sweep,
            policy,
            owner=owner,
            peers=max(1, args.peers),
            warmup=args.warmup,
            sample=args.sample,
            echo=echo,
        )
    # the coordinator parses this line; keep it last and keep it JSON
    print(json.dumps({"worker": args.worker_id or owner, **counters}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
