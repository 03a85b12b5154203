"""Full-report writer: every artifact to a directory.

Produces the deliverables a measurement study would archive: one text
file per table/figure, machine-readable CSVs for the tabular results,
and a combined ``report.txt``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List

from repro.io.csvexport import write_csv
from repro.reporting.paper import ARTIFACTS

if TYPE_CHECKING:  # avoid a circular import with the pipeline package
    from repro.pipeline.runner import PaperPipeline


def _write_text(directory: str, name: str, text: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
        f.write(text + "\n")


def write_report(pipeline: "PaperPipeline", directory: str) -> List[str]:
    """Write every table and figure under *directory*.

    Returns the list of files written (relative names, sorted).
    """
    os.makedirs(directory, exist_ok=True)
    parts = []
    for artifact in ARTIFACTS:
        text = getattr(pipeline, f"render_{artifact}")()
        _write_text(directory, f"{artifact}.txt", text)
        parts.append(text)
    # The same join as render_all(), without rendering anything twice.
    _write_text(directory, "report.txt", "\n\n".join(parts))

    write_csv(pipeline.table2(), os.path.join(directory, "table2.csv"))
    write_csv(pipeline.table3(), os.path.join(directory, "table3.csv"))
    write_csv(pipeline.figure6(), os.path.join(directory, "figure6.csv"))
    for kind in ("live", "tagged"):
        write_csv(
            pipeline.figure3(kind),
            os.path.join(directory, f"figure3_{kind}.csv"),
        )

    return sorted(
        entry for entry in os.listdir(directory)
        if entry.endswith((".txt", ".csv"))
    )
