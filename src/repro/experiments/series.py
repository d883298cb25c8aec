"""Structured experiment output: series of points, figure-shaped.

Every experiment runner in :mod:`repro.experiments.figures` returns an
:class:`ExperimentSeries` — an ordered list of x-points (database size,
batch size, k, ...) each carrying named y-values (minutes per component,
ratios, bytes).  The table renderer and the benches consume this shape,
and ``EXPERIMENTS.md`` quotes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.exceptions import ParameterError

__all__ = ["SeriesPoint", "ExperimentSeries"]


@dataclass(frozen=True)
class SeriesPoint:
    """One x-position of a figure: ``x`` plus named series values."""

    x: float
    values: Dict[str, float]

    def get(self, column: str) -> float:
        """Value of one named column at this point."""
        if column not in self.values:
            raise ParameterError(
                "point x=%s has no column %r (has %s)"
                % (self.x, column, sorted(self.values))
            )
        return self.values[column]


@dataclass
class ExperimentSeries:
    """A reproduced figure (or table): metadata plus the data points."""

    experiment_id: str
    title: str
    x_label: str
    unit: str
    columns: List[str]
    points: List[SeriesPoint] = field(default_factory=list)
    notes: str = ""

    def add(self, x: float, **values: float) -> None:
        """Append a point; every declared column must be supplied."""
        missing = [c for c in self.columns if c not in values]
        extra = [c for c in values if c not in self.columns]
        if missing or extra:
            raise ParameterError(
                "point columns mismatch: missing %s, extra %s" % (missing, extra)
            )
        self.points.append(SeriesPoint(x, dict(values)))

    def column(self, name: str) -> List[float]:
        """One column's values across all points, in x order."""
        return [p.get(name) for p in self.points]

    def xs(self) -> List[float]:
        """The x positions of all points."""
        return [p.x for p in self.points]

    def at(self, x: float) -> SeriesPoint:
        """The point at an exact x position."""
        for p in self.points:
            if p.x == x:
                return p
        raise ParameterError("no point at x=%s" % x)

    def final(self) -> SeriesPoint:
        """The last (largest-x) point."""
        if not self.points:
            raise ParameterError("series %r is empty" % self.experiment_id)
        return self.points[-1]
