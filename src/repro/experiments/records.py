"""Experiment result records with JSON persistence."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.results import ResultSet, _null_safe

__all__ = ["ExperimentRecord", "study_record", "study_resultset"]


def study_record(name: str, params: dict, result) -> "ExperimentRecord":
    """An ExperimentRecord from a campaign result of dict-row units.

    ``result`` is a :class:`~repro.campaign.runner.CampaignResult` whose
    unit results are flat row dicts (``scale_point``, ``vc_split_point``,
    ...); one campaign run can feed both this record view and the
    :func:`study_resultset` projection.
    """
    rec = ExperimentRecord(name=name, params=dict(params))
    for row in result.results:
        rec.add_row(**row)
    return rec


def study_resultset(result):
    """Uniform ResultRows from any row-convertible campaign result."""
    from repro.api.convert import row_from_unit

    return ResultSet(
        row_from_unit(u, r) for u, r in zip(result.units, result.results)
    )


@dataclass
class ExperimentRecord:
    """A named experiment with parameters and tabular results."""

    name: str
    params: dict = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)
    created_at: float = field(default_factory=time.time)

    def add_row(self, **kwargs) -> None:
        """Append one result row."""
        self.rows.append(dict(kwargs))

    def to_json(self) -> str:
        """Serialise (stable key order, NaN-safe).

        Non-finite floats (NaN, +/-inf) become JSON ``null`` — the
        output is strictly valid JSON (``allow_nan=False`` enforces it).
        """
        return json.dumps(
            _null_safe(
                {
                    "name": self.name,
                    "params": self.params,
                    "rows": self.rows,
                    "created_at": self.created_at,
                }
            ),
            indent=2,
            sort_keys=True,
            default=str,
            allow_nan=False,
        )

    def save(self, directory: str | Path) -> Path:
        """Write ``<directory>/<name>.json`` and return the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentRecord":
        """Read a record previously written by :meth:`save`."""
        data = json.loads(Path(path).read_text())
        return cls(
            name=data["name"],
            params=data.get("params", {}),
            rows=data.get("rows", []),
            created_at=data.get("created_at", 0.0),
        )
