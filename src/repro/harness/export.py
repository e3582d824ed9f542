"""Experiment results as tables, and their export to JSON/CSV.

:class:`ExperimentResult` is the table the paper figures and the sweep
reports render; downstream users typically want machine-readable outputs
next to the pretty tables, and these helpers keep that path
dependency-free.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

from repro.core import SimStats


@dataclasses.dataclass
class ExperimentResult:
    """Structured output of one reproduced experiment."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict]
    summary: dict

    def format_table(self) -> str:
        """Render the rows as a fixed-width ASCII table."""
        widths = {
            c: max(len(c), *(len(format_cell(r.get(c))) for r in self.rows))
            if self.rows
            else len(c)
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                "  ".join(format_cell(row.get(c)).ljust(widths[c]) for c in self.columns)
            )
        if self.summary:
            lines.append("-" * len(header))
            for key, value in self.summary.items():
                lines.append(f"{key}: {format_cell(value)}")
        return "\n".join(lines)


def format_cell(value) -> str:
    """One table cell: signed floats at a precision fit for percentages."""
    if value is None:
        return ""
    if isinstance(value, float):
        if 0 < abs(value) < 1:
            return f"{value:+.3f}"
        return f"{value:+.1f}" if abs(value) < 1000 else f"{value:.3g}"
    return str(value)


def stats_to_dict(stats: SimStats) -> dict:
    """Flatten a :class:`SimStats` into plain JSON-serializable types."""
    out = stats.to_dict()
    out["useful_ipc"] = stats.useful_ipc
    out["prediction_accuracy"] = stats.prediction_accuracy
    out["branch_accuracy"] = stats.branch_accuracy
    out["memory_miss_fraction"] = stats.memory_miss_fraction
    return out


def result_to_dict(result: ExperimentResult) -> dict:
    """Convert an :class:`ExperimentResult` into a JSON-serializable dict."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "summary": dict(result.summary),
    }


def result_to_json(result: ExperimentResult, path: str | Path | None = None) -> str:
    """Serialize a result to JSON; optionally also write it to ``path``."""
    text = json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def result_to_csv(result: ExperimentResult, path: str | Path | None = None) -> str:
    """Serialize a result's rows to CSV; optionally write to ``path``.

    The summary is appended as comment lines (``# key,value``) so a single
    file round-trips everything a plot needs.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=result.columns, extrasaction="ignore")
    writer.writeheader()
    for row in result.rows:
        writer.writerow(row)
    for key, value in result.summary.items():
        buffer.write(f"# {key},{value}\n")
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def load_result_json(path: str | Path) -> ExperimentResult:
    """Re-hydrate a result written by :func:`result_to_json`."""
    data = json.loads(Path(path).read_text())
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        title=data["title"],
        columns=data["columns"],
        rows=data["rows"],
        summary=data["summary"],
    )
