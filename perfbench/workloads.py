"""Workload shapes: panel size, evaluation years, specs and run options.

Every workload includes `HistMean` (the scoring benchmark) and the paper's
headline bridge spec `AR-W-M-Q`, so the accuracy tables exist everywhere.

Every seed shares one training history: the panel's years before the first
evaluation year come from a fixed stream, and the seed draws the evaluation
years. The program's solvers take a data-dependent number of steps: between
fully redrawn panels, the L-BFGS steps of `wide` and the skew-t root finding
of `density` vary by a quarter, and a run fits only a few distinct training
sets, so that variation would swamp any change the benchmark must resolve.
"""

from __future__ import annotations

from dataclasses import dataclass

CALENDAR_WEEKS = 48  # weeks per target year in the default release calendar
EVAL_END = 2012
FIRST_YEAR = 1986
ESTIMATION_START = 1990
HEADLINE = "AR-W-M-Q"
ALL_SPECS = ("HistMean", "AR", "AR-M", "AR-Q", "AR-W", "AR-W-M", "AR-W-M-Q",
             "DirectAR-W-M-Q")


@dataclass(frozen=True)
class Workload:
    name: str
    entities: int
    eval_years: int
    specs: tuple
    fit_density: bool
    taus: tuple = (0.25, 0.5, 0.75)
    estimation_back: int | None = None  # years before eval_start; None = 1990
    history_start: int = FIRST_YEAR  # first year of annual data

    @property
    def eval_start(self) -> int:
        return EVAL_END - self.eval_years + 1

    @property
    def estimation_start(self) -> int:
        if self.estimation_back is None:
            return ESTIMATION_START
        return self.eval_start - self.estimation_back

    @property
    def hf_first_year(self) -> int:
        """First year of high-frequency data in the raw files: four years of
        history ahead of the first training year cover the longest
        autoregressive lag in the calendar."""
        return min(FIRST_YEAR, self.estimation_start - 4)

    @property
    def first_year(self) -> int:
        """First year of annual data."""
        return min(self.history_start, self.hf_first_year)

    @property
    def cells(self) -> int:
        """(entity, target year, week, spec) cells of one run."""
        return self.entities * self.eval_years * CALENDAR_WEEKS * len(self.specs)

    @property
    def expected_rows(self) -> int:
        """Archive plus density rows of a run with no gaps: one energy point
        per non-direct spec, one CO2 row per tau, one density row if fitted."""
        per_cell = 0
        for spec in self.specs:
            per_cell += (0 if spec.startswith("Direct") else 1) + len(self.taus)
            per_cell += 1 if self.fit_density else 0
        return self.entities * self.eval_years * CALENDAR_WEEKS * per_cell

    def config_text(self, store_dir: str) -> str:
        return "\n".join([
            f"# benchmark workload {self.name}",
            f"data_dir = {store_dir}",
            f"estimation_start = {self.estimation_start}",
            f"eval_start = {self.eval_start}",
            f"eval_end = {EVAL_END}",
            f"taus = {','.join(repr(t) for t in self.taus)}",
            f"specs = {','.join(self.specs)}",
            f"fit_density = {'true' if self.fit_density else 'false'}",
        ]) + "\n"


WORKLOADS = {
    w.name: w for w in (
        # Seeds should not differ in how many density fits end at the skew-t
        # shape bound, which cost less than the rest: a long annual history
        # keeps every HistMean quantile triple inside the family, and a long
        # training window (about 100 rows per fit, still the exact LP path)
        # keeps the AR-W-M-Q triples from swinging between seeds.
        Workload("density", entities=2, eval_years=1,
                 specs=("HistMean", HEADLINE), fit_density=True,
                 estimation_back=52, history_start=1750),
        Workload("menu", entities=2, eval_years=2, specs=ALL_SPECS,
                 fit_density=False, taus=(0.5,)),
        # Not in BENCHMARK.json: its 20 s repetitions need long runs, and
        # with three workloads the time budget for all runs allows only
        # runs too short to hold the spread of a shared 2-vCPU host within
        # the bounds. Run it by name to time the smoothed quantile path
        # (over 200 rows per fit) and the O(E^2) cross-section factors at
        # the paper's 51 entities.
        Workload("wide", entities=51, eval_years=1,
                 specs=("HistMean", HEADLINE), fit_density=False,
                 taus=(0.5,), estimation_back=7),
        # miniature shapes for the self-check; not part of BENCHMARK.json
        Workload("mini", entities=2, eval_years=1,
                 specs=("HistMean", HEADLINE), fit_density=False),
        # training would start in the evaluation year: `co2nowcast run` fails
        Workload("fatal", entities=2, eval_years=1,
                 specs=("HistMean", HEADLINE), fit_density=False,
                 estimation_back=0),
    )
}
