"""Result records and flat-file serialization helpers.

A :class:`ResultRecord` captures one CLI invocation: the raw config it
ran from (so the run can be repeated byte-exactly), the solved
operating point, the command-specific results, and the versions of the
package, numpy and Python it ran with.  Records serialize
to JSON losslessly; sweep and convergence outputs additionally flatten
to CSV whose values round-trip through ``repr``.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import uuid
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__

__all__ = ["ResultRecord", "complex_matrix_to_json", "rows_to_csv"]


def complex_matrix_to_json(matrix: np.ndarray) -> list:
    """Nested [re, im] pairs for a complex matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


@dataclass
class ResultRecord:
    """One run's inputs and outputs."""

    command: str
    config: dict
    params: dict
    results: dict
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    versions: dict = field(
        default_factory=lambda: {
            "rydvdw": __version__, "numpy": np.__version__, "python": platform.python_version()
        }
    )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)


def rows_to_csv(rows: list[dict]) -> str:
    """Render dict rows as CSV; floats, numpy ones too, use a plain repr so parsing is lossless."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()})
    return buffer.getvalue()

