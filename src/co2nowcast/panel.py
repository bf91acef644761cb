"""Panel data containers and period arithmetic across mixed frequencies.

All containers are immutable after construction and safe to share across
threads. Week arithmetic assumes a fixed 52-week year; ISO week 53 must be
merged into week 52 by the data ingester.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, LengthError


class Frequency(enum.Enum):
    ANNUAL = "annual"
    QUARTERLY = "quarterly"
    MONTHLY = "monthly"
    WEEKLY = "weekly"

    @property
    def per_year(self) -> int:
        return _PER_YEAR[self]


_PER_YEAR = {
    Frequency.ANNUAL: 1,
    Frequency.QUARTERLY: 4,
    Frequency.MONTHLY: 12,
    Frequency.WEEKLY: 52,
}

_SUB_LETTER = {
    Frequency.QUARTERLY: "Q",
    Frequency.MONTHLY: "M",
    Frequency.WEEKLY: "W",
}


@dataclass(frozen=True, order=True)
class PeriodIndex:
    """A (year, subperiod) pair; subperiod is 1-based within the year."""

    year: int
    sub: int = 1

    def label(self, frequency: Frequency) -> str:
        if frequency is Frequency.ANNUAL:
            return str(self.year)
        return f"{self.year}:{_SUB_LETTER[frequency]}{self.sub}"


def validate_period(frequency: Frequency, period: PeriodIndex) -> None:
    ppy = frequency.per_year
    if not 1 <= period.sub <= ppy:
        raise DomainError(
            f"subperiod {period.sub} out of range [1, {ppy}] for {frequency.value}"
        )


def ordinal(frequency: Frequency, period: PeriodIndex) -> int:
    """Total ordering of periods as an integer count of subperiods."""
    return period.year * frequency.per_year + (period.sub - 1)


def from_ordinal(frequency: Frequency, k: int) -> PeriodIndex:
    ppy = frequency.per_year
    year, sub0 = divmod(k, ppy)
    return PeriodIndex(year, sub0 + 1)


def advance(frequency: Frequency, period: PeriodIndex, k: int) -> PeriodIndex:
    """Shift a period by k subperiods (k may be negative)."""
    return from_ordinal(frequency, ordinal(frequency, period) + k)


class MixedFreqSeries:
    """One entity's observations at a fixed frequency with contiguous indexing.

    Value k corresponds to `start` advanced by k periods. Interior missing
    values are rejected; trailing NaNs are trimmed at construction.
    """

    def __init__(self, entity: str, frequency: Frequency, start: PeriodIndex, values):
        validate_period(frequency, start)
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:
            raise DomainError("series values must be one-dimensional")
        # trim trailing missing markers, reject interior ones
        finite = np.isfinite(vals)
        if not finite.all():
            last = int(np.max(np.nonzero(finite)[0])) if finite.any() else -1
            if not finite[: last + 1].all():
                bad = int(np.nonzero(~finite[: last + 1])[0][0])
                period = advance(frequency, start, bad)
                raise DomainError(
                    f"interior missing value for entity {entity!r} at "
                    f"{period.label(frequency)}"
                )
            vals = vals[: last + 1]
        if vals.size == 0:
            raise LengthError(f"empty series for entity {entity!r}")
        self.entity = entity
        self.frequency = frequency
        self.start = start
        self.values = vals
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.size

    def value_at(self, period: PeriodIndex) -> float:
        k = ordinal(self.frequency, period) - ordinal(self.frequency, self.start)
        if not 0 <= k < len(self):
            raise CoverageError(
                f"entity {self.entity!r} has no value at "
                f"{period.label(self.frequency)}"
            )
        return float(self.values[k])


def yoy_log_growth(series: MixedFreqSeries) -> MixedFreqSeries:
    """Year-on-year log difference: value at p becomes ln(x_p) - ln(x_{p-1y})."""
    ppy = series.frequency.per_year
    if len(series) <= ppy:
        raise LengthError(
            f"entity {series.entity!r}: need more than {ppy} observations for "
            f"year-on-year growth, got {len(series)}"
        )
    if np.any(series.values <= 0):
        bad = int(np.nonzero(series.values <= 0)[0][0])
        period = advance(series.frequency, series.start, bad)
        raise DomainError(
            f"nonpositive value for entity {series.entity!r} at "
            f"{period.label(series.frequency)}"
        )
    logs = np.log(series.values)
    growth = logs[ppy:] - logs[:-ppy]
    return MixedFreqSeries(
        series.entity,
        series.frequency,
        advance(series.frequency, series.start, ppy),
        growth,
    )


def per_capita(values: MixedFreqSeries, population: MixedFreqSeries) -> MixedFreqSeries:
    """Divide each value by its year's population (annual step broadcast)."""
    if population.frequency is not Frequency.ANNUAL:
        raise DomainError("population series must be annual")
    if np.any(population.values <= 0):
        raise DomainError(f"nonpositive population for entity {population.entity!r}")
    out = np.empty(len(values))
    for k in range(len(values)):
        period = advance(values.frequency, values.start, k)
        pop = population.value_at(PeriodIndex(period.year))
        out[k] = values.values[k] / pop
    return MixedFreqSeries(values.entity, values.frequency, values.start, out)


class PanelDataset:
    """Map from (variable, entity) to series, with variable/entity rosters.

    All series of one variable must share a frequency. The container is
    treated as immutable once populated.
    """

    def __init__(self):
        self._series: dict[tuple[str, str], MixedFreqSeries] = {}
        self._freq: dict[str, Frequency] = {}
        self._entities: set[str] = set()

    def add(self, variable: str, series: MixedFreqSeries) -> None:
        key = (variable, series.entity)
        if key in self._series:
            raise DomainError(f"duplicate series for {variable!r}/{series.entity!r}")
        freq = self._freq.get(variable)
        if freq is not None and freq is not series.frequency:
            raise DomainError(
                f"variable {variable!r} mixes frequencies "
                f"{freq.value} and {series.frequency.value}"
            )
        self._freq[variable] = series.frequency
        self._series[key] = series
        self._entities.add(series.entity)

    @property
    def entities(self) -> list[str]:
        return sorted(self._entities)

    @property
    def variables(self) -> list[str]:
        return sorted(self._freq)

    def frequency(self, variable: str) -> Frequency:
        try:
            return self._freq[variable]
        except KeyError:
            raise CoverageError(f"unknown variable {variable!r}") from None

    def get(self, variable: str, entity: str) -> MixedFreqSeries:
        try:
            return self._series[(variable, entity)]
        except KeyError:
            raise CoverageError(f"no series for {variable!r}/{entity!r}") from None

    def series_of(self, variable: str):
        """All (entity, series) pairs of a variable, entity-sorted."""
        return [
            (e, self._series[(variable, e)])
            for e in self.entities
            if (variable, e) in self._series
        ]

