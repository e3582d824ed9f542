"""The repository benchmark: host time per answered point and per campaign.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite-point --seed 1 --seconds 30 --trace 0

It sets up (fresh-interpreter imports, plus the cache pre-fill of
``campaign-rerun``), repeats the workload's timed pass for about
``--seconds`` seconds (at least once), keeps the median time of each
point, checks every simulated result against the digests in
``reference.json``, and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a second,
traced set of passes with ``--trace 1``.  Every time is read from
``hostspeed.SpeedClock``: host seconds scaled to a reference host's
speed.  See README.md for the metrics, the workloads and why each was
chosen.

Extra options, not used by the contract runs: ``--scale tiny`` (the smoke
test's small grids), ``--record FILE`` (write the result with its digests,
for ``compare.py``) and ``--profile`` (a non-gating cProfile pass).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: repeats of the cheap set-up steps (fresh-interpreter imports, workload
#: build) and of the workload's own set-up (the cache pre-fill of
#: campaign-rerun, about 9 s); each step's median is reported
SETUP_REPEATS = 7
PREFILL_REPEATS = 2


def _quantile(values, q: float) -> float:
    """The ``q`` quantile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def set_up(args, suite, env: dict, clock, workdir: Path):
    """Set up the workload: the set-up time on ``clock`` and the workload.

    Set-up is a fresh interpreter importing the program's packages, the
    build of the workload's grid and its ``setup`` (the cache pre-fill of
    ``campaign-rerun``) into ``workdir``.  Each step is repeated and its
    median counted; the workload set up last is the one measured.
    """

    def timed(step, repeats):
        results = []
        for _ in range(repeats):
            start = clock.read()
            result = step()
            results.append((clock.read() - start, result))
        return statistics.median(seconds for seconds, _ in results), results[-1][1]

    def interpreter():
        # the child inherits a pin to one CPU, so the probes this process
        # runs while it waits measure the CPU the child runs on
        allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        if allowed:
            os.sched_setaffinity(0, {min(allowed)})
        try:
            subprocess.run(
                [sys.executable, "-c", "import repro, repro.harness, repro.sweep"],
                cwd=ROOT,
                env=env,
                check=True,
            )
        finally:
            if allowed:
                os.sched_setaffinity(0, allowed)

    def prefill():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload.setup(workdir)

    import_s, _ = timed(interpreter, SETUP_REPEATS)
    build_s, workload = timed(
        lambda: suite.build(args.workload, args.scale, args.seed), SETUP_REPEATS)
    prefill_s, _ = timed(prefill, PREFILL_REPEATS)
    return import_s + build_s + prefill_s, workload


def timed_passes(workload, seconds: float, clock, region=contextlib.nullcontext, count=None):
    """Whole passes for about ``seconds``, at least one (or exactly ``count``).

    Another pass starts only while it is expected to end within half a
    pass of the deadline, so a pass longer than ``seconds`` runs once.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(clock, region))
        if count is not None:
            if len(passes) >= count:
                return passes
            continue
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(passes)) >= seconds:
            return passes


def median_of(workload, passes) -> tuple[float, dict[str, float]]:
    """Median pass time and per-point latencies (clock seconds) over passes.

    The shared host switches between a fast and a slow speed within
    seconds, so the fastest attempt depends on whether a run happened to
    catch a fast moment; the median over the whole run does not.  A pass
    of independent points takes the sum of its points' medians; a
    campaign pass, whose rows share coordination and the report, the
    median whole pass.
    """
    samples: dict[str, list[float]] = {}
    for p in passes:
        for key, seconds in p.point_s.items():
            samples.setdefault(key, []).append(seconds)
    point_s = {key: statistics.median(values) for key, values in samples.items()}
    if workload.points_independent:
        return sum(point_s.values()), point_s
    return statistics.median(p.wall_s for p in passes), point_s


def end_to_end(workload, passes, setup_s: float) -> dict[str, tuple[float, str]]:
    pass_s, point_s = median_of(workload, passes)
    latencies_ms = [t * 1e3 for t in point_s.values()]
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (len(point_s) / pass_s, "1/s"),
        "point_ms_p50": (_quantile(latencies_ms, 0.5), "ms"),
        "point_ms_p90": (_quantile(latencies_ms, 0.9), "ms"),
        "campaign_s": (pass_s, "s"),
        "sim_kips": (passes[0].stepped / pass_s / 1e3, "kinst/s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def check_outputs(passes, reference: dict) -> int:
    """Digest mismatches against the reference, summed over passes."""
    return sum(
        1 for p in passes for key, digest in p.digests.items() if reference.get(key) != digest
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.profile and args.trace:
        parser.error("--profile replaces the timed passes; it cannot be traced")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program here (src/repro missing); "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    # the program reads execution defaults (jobs, lanes, cache) from
    # REPRO_* variables; the benchmark pins them by clearing them
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import hostspeed
    import suite  # the benchmark's own module; imports the program

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())[args.scale][args.workload]
    expected = reference[str(args.seed % suite.SEED_CLASSES)]

    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    traced = []
    try:
        with hostspeed.SpeedClock() as clock:
            setup_s, workload = set_up(args, suite, env, clock, workdir)
            if not args.profile:
                passes = timed_passes(workload, args.seconds, clock)
                metrics = end_to_end(workload, passes, setup_s)
            if args.trace:
                import spans

                tracer = spans.Tracer(now=clock.read)
                tracer.install()
                try:
                    traced = timed_passes(
                        workload, args.seconds, clock, tracer.region, count=len(passes))
                finally:
                    tracer.uninstall()
                metrics = spans.layer_metrics(tracer, sum(p.wall_s for p in traced))
                metrics["trace_overhead_frac"] = (
                    median_of(workload, traced)[0] / median_of(workload, passes)[0] - 1.0,
                    "ratio",
                )
                tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        if args.profile:
            # outside the clock: its probes would show in the profile
            import profiling

            metrics, profiled = profiling.profiled_pass(workload)
            passes = [profiled]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = passes + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every) + check_outputs(every, expected)
    # tracing is read-only: each traced pass must digest as the untraced ones
    failed += sum(1 for p in traced if passes and p.digests != passes[0].digests)
    if args.trace:
        metrics["error_rate"] = (failed / max(1, attempted), "ratio")
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "passes": len(passes),
            "probe_ms_median": statistics.median(clock.samples) * 1e3 if clock.samples else None,
            "digests": every[0].digests if every else {},
            **result,
        }, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
