"""Regenerate ``reference.json``: the expected result digest of every point.

For each scale, workload and seed class (``seed % SEED_CLASSES``) it runs
one untraced pass and records the digest of every point, row and report.
Regenerate only on purpose — when the simulated behaviour is meant to
change — since the benchmark counts every difference as a wrong output::

    python3 perfbench/reference.py                       # everything
    python3 perfbench/reference.py --workload long-run --scale tiny

Run from the root of a repository checkout.  Selected entries are
replaced; the rest of the file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--scale", action="append", default=None)
    args = parser.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import suite

    fresh: dict = {}
    workdir = ROOT / ".perfbench" / f"reference-{os.getpid()}"
    try:
        for scale in args.scale or suite.SCALES:
            for name in args.workload or suite.WORKLOADS:
                for seed in range(suite.SEED_CLASSES):
                    shutil.rmtree(workdir, ignore_errors=True)
                    workdir.mkdir(parents=True)
                    workload = suite.build(name, scale, seed)
                    workload.setup(workdir)
                    result = workload.run_pass()
                    if result.failed:
                        raise SystemExit(f"{scale}/{name}/{seed}: {result.failed} failed")
                    fresh.setdefault(scale, {}).setdefault(name, {})[str(seed)] = result.digests
                    print(f"{scale} {name} seed class {seed}: {len(result.digests)} digests",
                          flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for scale, by_name in fresh.items():
        data.setdefault(scale, {}).update(by_name)
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
