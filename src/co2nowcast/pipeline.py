"""Two-stage nowcasting pipeline and the expanding-window evaluation loop.

Stage one fits a panel MIDAS regression of annual energy-consumption growth
on its latest available lag plus unrestricted quarterly/monthly blocks and an
Almon-restricted weekly block. Stage two feeds the energy nowcast into a
penalized panel quantile bridge for CO2-emissions growth (or, for the direct
variant, conditions the quantile regression on the high-frequency blocks
themselves), then matches a skewed Student-t density to the quantile triple.

`run_out_of_sample` builds the panel's arrays once per run (`PanelArrays`).
The calendar week is the unit of work: every stage reads those arrays only
through the week's information set, which hides each period after its
latest period of the variable; a bridge spec's CO2 stage receives the
energy nowcasts that stage one produced for that week. No target year
reads another year's fits, so the years run in parallel, one forked worker
process per year up to the usable CPUs, and are merged in year order; the
archive is the same as that of one process running them in turn. Lag
offsets are pure functions of the calendar week, applied identically to
training years and the target year (the "direct method" alignment), so no
regressor can use information beyond the week's information set.

A design builds every (entity, year) row at once: one fancy index per block
gathers the AR lag, the lag windows, the Almon-weighted weekly lags and the
cross-sectional factors of all years. A row with any missing value is
skipped.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from . import release_calendar as cal
from .almon import AlmonSpec, build_almon_map
from .errors import (
    ConfigError,
    CoverageError,
    DataError,
    DomainError,
    UnknownVariableError,
)
from .panel import Frequency, PanelDataset, PeriodIndex, ordinal
from .panel_ls import DesignRow, fit_within, predict
from .panel_qr import QuantileSpec, fit_quantile, predict_quantile, rearrange
from .release_calendar import (
    VAR_CO2,
    VAR_EC,
    VAR_ELEC,
    VAR_PI,
    VAR_WECI,
    InformationSet,
    information_set,
    table2_rules,
)
from .skew_t import SkewTParams, fit_from_quantiles

MODEL_KINDS = (
    "HistMean",
    "AR",
    "AR-M",
    "AR-Q",
    "AR-W",
    "AR-W-M",
    "AR-W-M-Q",
    "DirectAR-W-M-Q",
)

N_QUARTER_LAGS = 4
N_MONTH_LAGS = 12
N_WEEK_LAGS = 52

ALMON_MAP = build_almon_map(AlmonSpec(C=N_WEEK_LAGS))


@dataclass(frozen=True)
class ModelSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")

    @property
    def _blocks(self) -> set:
        return set(self.kind.removeprefix("Direct").split("-"))

    @property
    def has_w(self) -> bool:
        return "W" in self._blocks

    @property
    def has_m(self) -> bool:
        return "M" in self._blocks

    @property
    def has_q(self) -> bool:
        return "Q" in self._blocks

    @property
    def is_direct(self) -> bool:
        return self.kind.startswith("Direct")


@dataclass(frozen=True)
class RunConfig:
    estimation_start: int = 1990
    eval_start: int = 2009
    eval_end: int = 2018
    taus: tuple = (0.25, 0.5, 0.75)
    lam: float = 1.0
    specs: tuple = MODEL_KINDS
    fit_density: bool = True

    def __post_init__(self):
        if self.eval_start > self.eval_end:
            raise ConfigError("eval_start must be <= eval_end")
        if self.estimation_start >= self.eval_start:
            raise ConfigError("estimation_start must precede the evaluation years")
        if len(self.taus) != len(set(self.taus)) or list(self.taus) != sorted(self.taus):
            raise ConfigError("taus must be strictly ascending")
        if self.fit_density and len(self.taus) != 3:
            raise ConfigError(
                f"fit_density needs exactly three taus, got {len(self.taus)}"
            )

    @property
    def eval_years(self):
        return range(self.eval_start, self.eval_end + 1)


@dataclass(frozen=True)
class EnergyNowcast:
    entity: str
    year: int
    week: int
    value: float


@dataclass(frozen=True)
class CO2DensityNowcast:
    entity: str
    year: int
    week: int
    quantiles: tuple  # ascending, post-rearrangement
    benchmark: tuple  # per-entity historical quantiles at the same levels
    params: SkewTParams | None


class PanelArrays:
    """Each variable of a panel as one (entity x period) array from its
    earliest start, NaN where an entity has no value, plus a last all-NaN
    column that every period outside the array reads; a variable the panel
    lacks reads NaN. Every read but `realized` takes a week's information
    set and hides each period after the set's latest period of the variable."""

    def __init__(self, dataset: PanelDataset):
        self.entities = dataset.entities
        self._vars = {}  # variable -> (frequency, first ordinal, array, spans)
        for var in dataset.variables:
            freq = dataset.frequency(var)
            series = [(e, self.entities.index(e), ordinal(freq, s.start), s.values)
                      for e, s in dataset.series_of(var)]
            first = min(k for _, _, k, _ in series)
            # (entity, row, first column, end column) per entity with a series
            spans = [(e, i, k - first, k - first + v.size) for e, i, k, v in series]
            arr = np.full((len(self.entities), max(s[3] for s in spans) + 1), np.nan)
            for (_, i, a, b), (*_, v) in zip(spans, series):
                arr[i, a:b] = v
            self._vars[var] = freq, first, arr, spans
        self._missing = Frequency.ANNUAL, 0, np.full((len(self.entities), 1), np.nan), []

    def _col(self, var, period):
        """`var`'s frequency, array and spans, and the column of `period`."""
        freq, first, arr, spans = self._vars.get(var, self._missing)
        return freq, arr, spans, ordinal(freq, period) - first

    def entities_of(self, var) -> list:
        """The entities with a `var` series, sorted."""
        return [e for e, *_ in self._vars.get(var, self._missing)[3]]

    def check(self, info: InformationSet) -> None:
        """Raise, variable by variable in sorted order, `UnknownVariableError`
        for one without a release rule in `info` and `CoverageError` for the
        first entity whose series starts after the variable's latest period."""
        for var, (freq, *_) in sorted(self._vars.items()):
            if var not in info.latest:
                raise UnknownVariableError(f"variable {var!r} has no release rule")
            for e, values in self.visible(info, var):
                if not values.size:
                    raise CoverageError(f"truncation at {info[var].label(freq)} "
                                        f"precedes the start of entity {e!r}")

    def visible(self, info: InformationSet, var) -> list:
        """(entity, values) per entity with a `var` series: its own span as
        `info` shows it."""
        shown = [(e, self._read(info, var, i, np.arange(a, b)))
                 for e, i, a, b in self._col(var, info[var])[2]]
        return [(e, v[np.isfinite(v)]) for e, v in shown]

    def read(self, info: InformationSet, var, anchor, years, n, rows):
        """`var` at ordinal(anchor) + per_year * years[j] minus 0..n-1 for the
        entity rows `rows`, as an (entity, year, lag) array."""
        freq, _, _, k = self._col(var, anchor)
        k = k + freq.per_year * years[:, None] - np.arange(n)
        return self._read(info, var, rows[:, None, None], k)

    def _read(self, info, var, rows, k):
        """arr[rows, k] of `var`: NaN at every column k outside the array or
        after the latest period of `var` in `info`. Every read ends here."""
        _, arr, _, end = self._col(var, info[var])
        k[(k < 0) | (k > end) | (k >= arr.shape[1] - 1)] = -1
        return arr[rows, k]

    def realized(self, var, t: int) -> dict:
        """Each entity's annual `var` in year t, NaN where it has none: the
        outcome a nowcast of t is scored on, which no information set hides."""
        _, arr, _, k = self._col(var, PeriodIndex(t))
        col = arr[:, k if 0 <= k < arr.shape[1] - 1 else -1]
        return dict(zip(self.entities, col.tolist()))


def _hf_x(read, info, spec):
    """The high-frequency blocks `spec` reads: quarterly and monthly lags,
    and the Almon-weighted weekly lags."""
    blocks = []
    for has, var, n_lags in ((spec.has_q, VAR_PI, N_QUARTER_LAGS),
                             (spec.has_m, VAR_ELEC, N_MONTH_LAGS),
                             (spec.has_w, VAR_WECI, N_WEEK_LAGS)):
        if has:
            lags = read(var, info[var], n_lags)
            if var == VAR_WECI:  # one Q @ lags per row, bit for bit
                w = np.matmul(ALMON_MAP.Q, lags.reshape(-1, n_lags, 1))
                lags = w.reshape(*lags.shape[:2], -1)
            blocks.append(lags)
    return blocks


def _factor(read, var, anchor):
    """The cross-sectional mean of `var` at `anchor` per year, over every
    entity of the panel with a value there; NaN where none has one."""
    means = []
    for col in read(var, anchor, every=True)[:, :, 0].T:
        have = col[np.isfinite(col)]
        means.append(math.fsum(have) / have.size if have.size else np.nan)
    return np.array(means)[None, :, None]


def _hf_labels(spec):
    labels = []
    if spec.has_q:
        labels += [f"q{j}" for j in range(1, N_QUARTER_LAGS + 1)]
    if spec.has_m:
        labels += [f"m{j}" for j in range(1, N_MONTH_LAGS + 1)]
    if spec.has_w:
        labels += [f"w{j}" for j in range(1, ALMON_MAP.spec.n_params + 1)]
    return tuple(labels)


def _design(panel, info, y_var, t, estimation_start, x_of, name):
    """Training rows for the years from `estimation_start` to the latest year
    of `y_var` in `info`, and a prediction row for the target year t, per
    entity with a `y_var` series, entity-major with years ascending.

    The regressors are the AR lag of `y_var` and the blocks `x_of(read,
    names)` returns, each an (entity, year, column) array over the design
    entities and the years (t last). `read(var, anchor, n)` is `var` at
    ordinal(anchor) + per_year * (s - t) minus 0..n-1 in year s as `info`
    shows it; `every=True` reads every entity of the panel. A row with any
    missing value is skipped."""
    names = panel.entities_of(y_var)
    own = np.array([panel.entities.index(e) for e in names], dtype=np.intp)
    years = np.append(np.arange(estimation_start, info[y_var].year + 1), t)

    def read(var, anchor, n=1, every=False):
        rows = np.arange(len(panel.entities)) if every else own
        return panel.read(info, var, anchor, years - t, n, rows)

    y = read(y_var, PeriodIndex(t))[:, :, 0]
    blocks = [read(y_var, info[y_var]), *x_of(read, names)]
    X = np.concatenate([np.broadcast_to(b, y.shape + b.shape[2:]) for b in blocks],
                       axis=2)
    ok = np.isfinite(X).all(axis=2)
    train = ok[:, :-1] & np.isfinite(y[:, :-1])
    year_of, y_of = years.tolist(), y.tolist()
    rows = [DesignRow(entity=names[i], year=year_of[j], y=y_of[i][j], x=X[i, j])
            for i, j in zip(*np.nonzero(train))]
    if not rows:
        raise CoverageError(f"empty {name} design at ({t}, week {info.week})")
    # copies: a view into X can be less aligned than a fresh array, and the
    # dot product in `predict` may then round differently
    pred = [(names[i], X[i, -1].copy()) for i in np.flatnonzero(ok[:, -1])]
    return rows, pred


def assemble_energy_design(panel, info: InformationSet, spec: ModelSpec, t: int,
                           estimation_start: int):
    """Training rows plus prediction rows for the MIDAS energy regression,
    read from `panel` through `info`. Training years with insufficient
    history are dropped per entity.
    """
    rows, pred = _design(panel, info, VAR_EC, t, estimation_start,
                         lambda read, _: _hf_x(read, info, spec), "energy")
    return rows, pred, ("ar_c",) + _hf_labels(spec)


def _drop_thin_entities(rows, pred, entities, min_rows=2):
    """Entities need >= min_rows training rows for a fixed effect and a
    prediction row. Every other entity of `entities` (those with a series of
    the design's variable) is a gap; one with training rows but no
    prediction row keeps its rows."""
    counts = Counter(r.entity for r in rows)
    keep = {e for e, n in counts.items() if n >= min_rows}
    dropped = sorted(set(entities) - (keep & {e for e, _ in pred}))
    rows = [r for r in rows if r.entity in keep]
    pred = [(e, x) for e, x in pred if e in keep]
    return rows, pred, dropped


def energy_hist_mean(panel, info: InformationSet) -> dict:
    """Historical mean of available energy growth per entity (the benchmark)."""
    return {e: float(np.mean(v)) for e, v in panel.visible(info, VAR_EC)}


def nowcast_energy(panel, info: InformationSet, spec: ModelSpec, config: RunConfig):
    """Stage one for the week of `info`, read from `panel` through `info`:
    assemble, fit, predict. Returns (nowcasts, gap entities)."""
    if spec.is_direct:
        raise DomainError("the direct model has no energy stage")
    t, v = info.year, info.week
    if spec.kind == "HistMean":
        return [EnergyNowcast(entity=e, year=t, week=v, value=mean)
                for e, mean in energy_hist_mean(panel, info).items()], []
    rows, pred, labels = assemble_energy_design(panel, info, spec, t,
                                                config.estimation_start)
    rows, pred, gaps = _drop_thin_entities(rows, pred, panel.entities_of(VAR_EC))
    model = fit_within(rows, labels=labels)
    return [EnergyNowcast(entity=e, year=t, week=v, value=predict(model, e, x))
            for e, x in pred], gaps


BRIDGE_LABELS = ("ar_e", "c_hat", "f_e", "f_c")


def bridge_design(panel, info: InformationSet, energy: dict, t: int,
                  estimation_start: int):
    """Quantile-bridge design: AR lag of emissions growth, the energy term
    (realized in training, first-stage nowcast in prediction) and the
    cross-sectional-average factors at the latest available lag."""
    def x_of(read, entities):
        c = read(VAR_EC, PeriodIndex(t))  # realized energy in training years
        c[:, -1, 0] = [energy.get(e, np.nan) for e in entities]
        lag = info[VAR_CO2]
        return [c, _factor(read, VAR_CO2, lag), _factor(read, VAR_EC, lag)]

    rows, pred = _design(panel, info, VAR_CO2, t, estimation_start, x_of, "bridge")
    return rows, pred, BRIDGE_LABELS


def direct_design(panel, info: InformationSet, spec: ModelSpec, t: int,
                  estimation_start: int):
    """Direct quantile design: emissions growth on its own AR lag, the
    high-frequency blocks, and the scalar emissions factor."""
    def x_of(read, _):
        return [*_hf_x(read, info, spec), _factor(read, VAR_CO2, info[VAR_CO2])]

    rows, pred = _design(panel, info, VAR_CO2, t, estimation_start, x_of, "direct")
    return rows, pred, ("ar_e",) + _hf_labels(spec) + ("f_e",)


def co2_benchmark_quantiles(panel, info: InformationSet, taus) -> dict:
    """Per-entity empirical quantiles of available emissions growth (linear
    interpolation of order statistics)."""
    return {e: tuple(float(q) for q in np.quantile(v, taus))
            for e, v in panel.visible(info, VAR_CO2)}


def nowcast_co2_density(panel, info: InformationSet, spec: ModelSpec,
                        config: RunConfig, energy, benchmarks):
    """Stage two for the week of `info`, read from `panel` through `info`:
    quantile predictions, rearrangement, density fit and benchmark triple.
    `energy` is the spec's stage-one result (nowcasts, gap entities);
    HistMean ignores it and direct specs pass None. `benchmarks` is the
    week's `co2_benchmark_quantiles` at `config.taus`.

    Returns (nowcasts, gap entities), the gaps including stage one's. A
    density fit that fails raises its `DataError` to the caller."""
    t, v = info.year, info.week
    taus = config.taus

    def nowcast(e, triple):
        q = rearrange(triple)
        params = fit_from_quantiles(taus, q) if config.fit_density else None
        return CO2DensityNowcast(entity=e, year=t, week=v, quantiles=q,
                                 benchmark=benchmarks[e], params=params)

    if spec.kind == "HistMean":
        return [nowcast(e, benchmarks[e]) for e in sorted(benchmarks)], []
    if spec.is_direct:
        rows, pred, labels = direct_design(panel, info, spec, t,
                                           config.estimation_start)
        gaps_energy = []
    else:
        nowcasts, gaps_energy = energy
        rows, pred, labels = bridge_design(
            panel, info, {n.entity: n.value for n in nowcasts}, t,
            config.estimation_start,
        )
    rows, pred, gaps = _drop_thin_entities(rows, pred, benchmarks, min_rows=1)
    gaps = sorted(set(gaps) | set(gaps_energy))

    models = [fit_quantile(rows, QuantileSpec(tau=tau, lam=config.lam), labels=labels)
              for tau in taus]
    return [nowcast(e, [predict_quantile(m, e, x) for m in models])
            for e, x in pred], gaps


@dataclass
class NowcastArchive:
    """Flat archive of every prediction with realized outcomes joined."""

    energy_rows: list = field(default_factory=list)
    co2_rows: list = field(default_factory=list)
    density_rows: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["spec,variable,entity,target_year,week,tau_or_point,"
                 "prediction,benchmark,realized"]
        for r in self.energy_rows:
            lines.append(
                f"{r['spec']},EC,{r['entity']},{r['year']},{r['week']},point,"
                f"{r['prediction']!r},{r['benchmark']!r},{r['realized']!r}"
            )
        for r in self.co2_rows:
            lines.append(
                f"{r['spec']},CO2,{r['entity']},{r['year']},{r['week']},{r['tau']!r},"
                f"{r['prediction']!r},{r['benchmark']!r},{r['realized']!r}"
            )
        return "\n".join(lines) + "\n"

    def density_csv(self) -> str:
        lines = ["spec,entity,target_year,week,mu,sigma,alpha,nu"]
        for r in self.density_rows:
            p = r["params"]
            lines.append(
                f"{r['spec']},{r['entity']},{r['year']},{r['week']},"
                f"{p.mu!r},{p.sigma!r},{p.alpha!r},{p.nu!r}"
            )
        return "\n".join(lines) + "\n"

    def diagnostics_csv(self) -> str:
        """Diagnostics rows; a detail containing commas or quotes is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["spec", "target_year", "week", "stage", "detail"])
        for d in self.diagnostics:
            writer.writerow([d["spec"], d["year"], d["week"], d["stage"], d["detail"]])
        return out.getvalue()


def _run_year(panel: PanelArrays, config: RunConfig, t: int) -> NowcastArchive:
    """Every calendar week and model spec of target year t, re-fitted on what
    the week's information set shows of the panel; failures become
    diagnostics rows."""
    rules = table2_rules()
    specs = tuple(ModelSpec(kind=k) for k in config.specs)
    realized = {var: panel.realized(var, t) for var in (VAR_EC, VAR_CO2)}
    archive = NowcastArchive()
    for v in range(1, cal.N_WEEKS + 1):

        def note(spec_kind, stage, detail):
            archive.diagnostics.append(dict(
                spec=spec_kind, year=t, week=v, stage=stage, detail=detail,
            ))

        info = information_set(rules, t, v)
        try:
            panel.check(info)
            bench_energy = energy_hist_mean(panel, info)
            bench_co2 = co2_benchmark_quantiles(panel, info, config.taus)
        except DataError as exc:
            note("*", "benchmark", str(exc))
            continue
        for spec in specs:
            energy = None
            if not spec.is_direct:
                try:
                    energy = nowcast_energy(panel, info, spec, config)
                except DataError as exc:
                    # a bridge CO2 stage reads stage one, so it fails alike
                    # (HistMean's stage one cannot raise)
                    note(spec.kind, "energy", str(exc))
                    note(spec.kind, "co2", str(exc))
                    continue
                nowcasts, gaps = energy
                for n in nowcasts:
                    archive.energy_rows.append(dict(
                        spec=spec.kind, entity=n.entity, year=t, week=v,
                        prediction=n.value,
                        benchmark=bench_energy[n.entity],
                        realized=realized[VAR_EC][n.entity],
                    ))
                for e in gaps:
                    note(spec.kind, "energy",
                         f"entity {e} dropped: insufficient history")
            try:
                densities, gaps = nowcast_co2_density(panel, info, spec, config,
                                                      energy, bench_co2)
            except DataError as exc:
                note(spec.kind, "co2", str(exc))
                continue
            for n in densities:
                for tau, pred_q, bench_q in zip(config.taus, n.quantiles, n.benchmark):
                    archive.co2_rows.append(dict(
                        spec=spec.kind, entity=n.entity, year=t, week=v,
                        tau=tau, prediction=pred_q, benchmark=bench_q,
                        realized=realized[VAR_CO2][n.entity],
                    ))
                if n.params is not None:
                    archive.density_rows.append(dict(
                        spec=spec.kind, entity=n.entity, year=t, week=v,
                        params=n.params,
                    ))
            for e in gaps:
                note(spec.kind, "co2", f"entity {e} dropped: insufficient history")
    return archive


def _worker_count(n_years: int) -> int:
    """Processes for `n_years` target years: one per year up to the usable
    CPUs, and 1 where the fork start method is missing."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(n_years, cpus))


def run_out_of_sample(dataset: PanelDataset, config: RunConfig) -> NowcastArchive:
    """Full pseudo-out-of-sample loop: every evaluation year, every calendar
    week, every model spec, re-fitted on what the week's information set
    shows of the panel's arrays, built once here. Deterministic given
    dataset and config; failures become diagnostics rows, not crashes.

    The years run in forked worker processes when there is more than one
    year and more than one usable CPU, else in this process; either way the
    archive lists them in year order and is the same."""
    years = config.eval_years
    panel = PanelArrays(dataset)
    n_workers = _worker_count(len(years))
    if n_workers == 1:
        parts = [_run_year(panel, config, t) for t in years]
    else:
        # fork, named: spawn and forkserver re-import numpy and scipy per worker
        with ProcessPoolExecutor(
            n_workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            parts = list(pool.map(_run_year, repeat(panel), repeat(config), years))
    archive = NowcastArchive()
    for part in parts:
        for f in fields(NowcastArchive):
            getattr(archive, f.name).extend(getattr(part, f.name))
    return archive
