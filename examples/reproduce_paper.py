#!/usr/bin/env python3
"""Regenerate any (or every) table/figure of the paper from the command line.

Usage:
    python examples/reproduce_paper.py            # list experiments
    python examples/reproduce_paper.py fig1       # one experiment
    python examples/reproduce_paper.py all 12000  # everything, 12k instrs

Each experiment is a sweep spec under sweeps/paper/<id>.toml, run by
repro.harness.run_experiment; the id-to-artifact mapping is documented in
DESIGN.md §4 and the measured-vs-paper comparison in EXPERIMENTS.md.
"""

import sys
import time

from repro.harness import EXPERIMENTS, run_experiment
from repro.harness.experiments import PAPER_SPECS


def main() -> int:
    if len(sys.argv) < 2:
        print("experiments:")
        for exp_id in EXPERIMENTS:
            spec_file = PAPER_SPECS / f"{exp_id}.toml"
            title = spec_file.read_text().splitlines()[0].lstrip("# ")
            print(f"  {exp_id:16s} {title}")
        print(f"\nusage: {sys.argv[0]} <experiment-id|all> [trace-length]")
        return 0
    target = sys.argv[1]
    length = int(sys.argv[2]) if len(sys.argv) > 2 else None
    ids = list(EXPERIMENTS) if target == "all" else [target]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"known: {', '.join(EXPERIMENTS)}")
        return 1
    for exp_id in ids:
        start = time.time()
        result = run_experiment(exp_id, length=length)
        print(result.format_table())
        print(f"[{exp_id} took {time.time() - start:.0f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
