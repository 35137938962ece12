"""Result records and flat-file serialization helpers.

A :class:`ResultRecord` captures one CLI invocation: the raw config it
ran from (so the run can be repeated byte-exactly), the solved
operating point, and the command-specific results.  Records serialize
to JSON losslessly; sweep and convergence outputs additionally flatten
to CSV whose values round-trip through ``repr``.
"""

from __future__ import annotations

import csv
import io
import json
import uuid
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

__all__ = ["ResultRecord", "complex_matrix_to_json", "complex_matrix_from_json", "rows_to_csv", "rows_from_csv"]


def complex_matrix_to_json(matrix: np.ndarray) -> list:
    """Nested [re, im] pairs for a complex matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def complex_matrix_from_json(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


@dataclass
class ResultRecord:
    """One run's inputs and outputs."""

    command: str
    config: dict
    params: dict
    results: dict
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ResultRecord":
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        return cls.from_dict(json.loads(text))


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


def rows_from_csv(text: str) -> list[dict]:
    """Parse CSV back into dict rows, restoring ints and floats."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = int(value)
            except ValueError:
                try:
                    parsed[key] = float(value)
                except ValueError:
                    parsed[key] = value
        rows.append(parsed)
    return rows
