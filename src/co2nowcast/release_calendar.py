"""Simulated weekly release calendar producing the ragged edge.

For a prediction year t and calendar week v in 1..48, each release rule maps
(t, v) to the latest available period of its variable. The default schedule
mirrors the weekly information-availability pattern of the annual CO2/EC
releases, quarterly personal income, monthly electricity sales, and the
weekly economic conditions index: weeks 1-4 are the backcast phase (weekly
data still refers to the previous year), weeks 5-48 the nowcast phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, UnknownVariableError
from .panel import Frequency, PeriodIndex

N_WEEKS = 48
BACKCAST_LAST_WEEK = 4

VAR_CO2 = "CO2"
VAR_EC = "EC"
VAR_PI = "PI"
VAR_ELEC = "ELEC"
VAR_WECI = "WECI"


@dataclass(frozen=True)
class ScheduleEntry:
    week_from: int
    week_to: int
    year_offset: int
    sub: int


@dataclass(frozen=True)
class ReleaseRule:
    """Piecewise-constant availability: for v in [week_from, week_to], the
    latest period is (t + year_offset, sub)."""

    variable: str
    frequency: Frequency
    schedule: tuple

    def latest(self, t: int, v: int) -> PeriodIndex:
        for entry in self.schedule:
            if entry.week_from <= v <= entry.week_to:
                return PeriodIndex(t + entry.year_offset, entry.sub)
        raise DomainError(f"week {v} not covered by the schedule of {self.variable!r}")


@dataclass(frozen=True)
class InformationSet:
    year: int
    week: int
    latest: dict  # variable -> PeriodIndex

    @property
    def phase(self) -> str:
        return phase(self.week)

    def __getitem__(self, variable: str) -> PeriodIndex:
        try:
            return self.latest[variable]
        except KeyError:
            raise UnknownVariableError(
                f"variable {variable!r} not in the information set"
            ) from None


def table2_rules() -> tuple:
    """Default weekly availability schedule for the five model variables."""
    co2 = ReleaseRule(VAR_CO2, Frequency.ANNUAL, (
        ScheduleEntry(1, 8, -4, 1),
        ScheduleEntry(9, N_WEEKS, -3, 1),
    ))
    ec = ReleaseRule(VAR_EC, Frequency.ANNUAL, (
        ScheduleEntry(1, 20, -3, 1),
        ScheduleEntry(21, N_WEEKS, -2, 1),
    ))
    pi = ReleaseRule(VAR_PI, Frequency.QUARTERLY, (
        ScheduleEntry(1, 8, -1, 3),
        ScheduleEntry(9, 20, -1, 4),
        ScheduleEntry(21, 32, 0, 1),
        ScheduleEntry(33, 44, 0, 2),
        ScheduleEntry(45, N_WEEKS, 0, 3),
    ))
    elec_entries = [ScheduleEntry(1, 4, -1, 11), ScheduleEntry(5, 8, -1, 12)]
    for m in range(1, 11):  # month m available during weeks 8+4(m-1)+1 .. 8+4m
        elec_entries.append(ScheduleEntry(9 + 4 * (m - 1), 8 + 4 * m, 0, m))
    elec = ReleaseRule(VAR_ELEC, Frequency.MONTHLY, tuple(elec_entries))
    weci_entries = [ScheduleEntry(v, v, -1, 48 + v) for v in range(1, 5)]
    weci_entries += [ScheduleEntry(v, v, 0, v - 4) for v in range(5, N_WEEKS + 1)]
    weci = ReleaseRule(VAR_WECI, Frequency.WEEKLY, tuple(weci_entries))
    return (co2, ec, pi, elec, weci)


def phase(week: int) -> str:
    """Backcast while a week's weekly data refer to the previous year, then Nowcast."""
    return "Backcast" if week <= BACKCAST_LAST_WEEK else "Nowcast"


def information_set(rules, t: int, v: int) -> InformationSet:
    if not 1 <= v <= N_WEEKS:
        raise DomainError(f"week v={v} outside [1, {N_WEEKS}]")
    latest = {rule.variable: rule.latest(t, v) for rule in rules}
    return InformationSet(year=t, week=v, latest=latest)


def calendar_rows(rules, t: int):
    """One row per week: (phase, v, date label, cell per calendar variable)."""
    rows = []
    for v in range(1, N_WEEKS + 1):
        info = information_set(rules, t, v)
        cells = []
        for rule in rules:
            cells.append(info[rule.variable].label(rule.frequency))
        rows.append((info.phase, v, f"{t}:W{v}", tuple(cells)))
    return rows
