"""Compare two sets of benchmark results: parent commit vs change.

Each side is a directory of result records written by
``run.py --record FILE`` with ``--trace 0``.  One row is printed per
workload × end-to-end metric, with each side's median and quartiles, the
share of pairs the change won (runs paired in seed order, ties counting
for neither) and a verdict:

* ``worse``      — the change's median is worse than the parent's by more
                   than the metric's bound in BENCHMARK.json;
* ``better``     — the change won at least nine tenths of the pairs and
                   the medians differ by more than the parent's quartile
                   spread;
* ``unresolved`` — the parent's own quartile spread exceeds the bound, so
                   "no change" cannot be told from noise — unless every
                   change run beats every parent run, which reads
                   ``no regression (every run better)``;
* ``unchanged``  — none of the above.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced records by workload, ordered by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def verdict(metric: dict, parent: list[float], change: list[float], won: float) -> str:
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if worse_by > metric["bound"]:
        return "worse"
    if won >= 0.9 and worse_by < 0 and abs(cm - pm) > p3 - p1:
        return "better"
    if (p3 - p1) / pm > metric["bound"]:
        return "no regression (every run better)" if all_better else "unresolved"
    return "unchanged"


def compare(parent_dir: Path, change_dir: Path, benchmark: dict) -> list[str]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    lines = [
        f"{'workload':15s} {'metric':13s} {'parent median [q1, q3]':>30s} "
        f"{'change median [q1, q3]':>30s} {'won':>9s}  verdict"
    ]
    for workload in benchmark["workloads"]:
        name = workload["name"]
        parent, change = parent_runs.get(name, []), change_runs.get(name, [])
        if not parent or not change:
            lines.append(f"{name:15s} (missing runs: parent {len(parent)}, change {len(change)})")
            continue
        # both sides are ordered by seed, so equal seed sets pair up exactly
        paired = list(zip(parent, change))
        for metric in benchmark["end_to_end"]:
            key = metric["name"]

            def value(record):
                return record["metrics"][key]["value"]

            lower = metric["better"] == "lower"
            wins = sum(
                1 for p, c in paired
                if (value(c) < value(p) if lower else value(c) > value(p))
            )
            won = wins / len(paired) if paired else 0.0
            pv, cv = [value(r) for r in parent], [value(r) for r in change]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            lines.append(
                f"{name:15s} {key:13s} "
                f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30s} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30s} "
                f"{f'{wins}/{len(paired)}':>9s}  {verdict(metric, pv, cv, won)}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    print("\n".join(compare(args.parent, args.change, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
