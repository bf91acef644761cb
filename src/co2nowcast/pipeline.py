"""Two-stage nowcasting pipeline and the expanding-window evaluation loop.

Stage one fits a panel MIDAS regression of annual energy-consumption growth
on its latest available lag plus unrestricted quarterly/monthly blocks and an
Almon-restricted weekly block. Stage two feeds the energy nowcast into a
penalized panel quantile bridge for CO2-emissions growth (or, for the direct
variant, conditions the quantile regression on the high-frequency blocks
themselves), then matches a skewed Student-t density to the quantile triple.

The calendar week is the unit of work. `run_out_of_sample` builds each
week's information set and truncates the panel once, then hands the
truncated panel and the information set to every stage; a bridge spec's CO2
stage receives the energy nowcasts that stage one produced for that week.
No target year reads another year's fits, so the years run in parallel, one
forked worker process per year up to the usable CPUs, and are merged in year
order; the archive is the same as that of one process running them in turn.
Lag offsets are pure functions of the calendar week, applied identically to
training years and the target year (the "direct method" alignment), so no
regressor can ever use information beyond the week's information set: all
data access goes through that one calendar truncation.

A design reads each variable of the truncated panel as one (entity x period)
array, NaN where an entity has no value, and builds every (entity, year) row
at once: one fancy index per block gathers the AR lag, the lag windows, the
Almon-weighted weekly lags and the cross-sectional factors of all years. A
row with any missing value is skipped.
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
from .errors import ConfigError, CoverageError, DataError, DomainError
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
    truncate,
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


def _panel_array(ds, var):
    """`var` of `ds` as (first ordinal, frequency, array): the array has one
    row per entity of `ds` and one column per period from the earliest start,
    NaN where the entity has no value, and a last all-NaN column that every
    period outside the array reads."""
    series = dict(ds.series_of(var))
    freq = ds.frequency(var) if series else Frequency.ANNUAL
    spans = [(i, ordinal(freq, series[e].start), series[e].values)
             for i, e in enumerate(ds.entities) if e in series]
    first = min((k for _, k, _ in spans), default=0)
    end = max((k + v.size for _, k, v in spans), default=first)
    arr = np.full((len(ds.entities), end - first + 1), np.nan)
    for i, k, v in spans:
        arr[i, k - first : k - first + v.size] = v
    return first, freq, arr


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


def _design(ds, info, y_var, t, estimation_start, x_of, name):
    """Training rows for the years from `estimation_start` to the latest year
    of `y_var` in `info`, and a prediction row for the target year t, per
    entity with a `y_var` series, entity-major with years ascending.

    The regressors are the AR lag of `y_var` and the blocks `x_of(read,
    names)` returns, each an (entity, year, column) array over the design
    entities and the years (t last). `read(var, anchor, n)` is `var` at
    ordinal(anchor) + per_year * (s - t) minus 0..n-1 in year s, NaN where
    `ds` has no value; `every=True` reads every entity of `ds`. A row with
    any missing value is skipped."""
    entities = ds.entities
    names = [e for e, _ in ds.series_of(y_var)]
    own = np.array([entities.index(e) for e in names], dtype=np.intp)
    years = np.append(np.arange(estimation_start, info[y_var].year + 1), t)
    arrays = {}

    def read(var, anchor, n=1, every=False):
        if var not in arrays:
            arrays[var] = _panel_array(ds, var)
        first, freq, arr = arrays[var]
        k = (ordinal(freq, anchor) - first + freq.per_year * (years - t)[:, None]
             - np.arange(n))
        k[(k < 0) | (k >= arr.shape[1] - 1)] = -1
        rows = np.arange(len(entities)) if every else own
        return arr[rows[:, None, None], k]

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


def assemble_energy_design(ds, info: InformationSet, spec: ModelSpec, t: int,
                           estimation_start: int):
    """Training rows plus prediction rows for the MIDAS energy regression.

    `ds` must already be truncated by the information set. Training years
    with insufficient history are dropped per entity.
    """
    rows, pred = _design(ds, info, VAR_EC, t, estimation_start,
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


def energy_hist_mean(ds, entity: str) -> float:
    """Historical mean of available energy growth (the benchmark nowcast)."""
    return float(np.mean(ds.get(VAR_EC, entity).values))


def nowcast_energy(ds, info: InformationSet, spec: ModelSpec, config: RunConfig):
    """Stage one for the week of `info` on `ds`, the panel truncated by
    `info`: assemble, fit, predict. Returns (nowcasts, gap entities)."""
    if spec.is_direct:
        raise DomainError("the direct model has no energy stage")
    t, v = info.year, info.week
    if spec.kind == "HistMean":
        out = [
            EnergyNowcast(entity=e, year=t, week=v, value=energy_hist_mean(ds, e))
            for e, _ in ds.series_of(VAR_EC)
        ]
        return out, []
    rows, pred, labels = assemble_energy_design(
        ds, info, spec, t, config.estimation_start
    )
    rows, pred, gaps = _drop_thin_entities(
        rows, pred, [e for e, _ in ds.series_of(VAR_EC)]
    )
    model = fit_within(rows, labels=labels)
    out = [
        EnergyNowcast(entity=e, year=t, week=v, value=predict(model, e, x))
        for e, x in pred
    ]
    return out, gaps


BRIDGE_LABELS = ("ar_e", "c_hat", "f_e", "f_c")


def bridge_design(ds, info: InformationSet, energy: dict, t: int,
                  estimation_start: int):
    """Quantile-bridge design: AR lag of emissions growth, the energy term
    (realized in training, first-stage nowcast in prediction) and the
    cross-sectional-average factors at the latest available lag."""
    def x_of(read, entities):
        c = read(VAR_EC, PeriodIndex(t))  # realized energy in training years
        c[:, -1, 0] = [energy.get(e, np.nan) for e in entities]
        lag = info[VAR_CO2]
        return [c, _factor(read, VAR_CO2, lag), _factor(read, VAR_EC, lag)]

    rows, pred = _design(ds, info, VAR_CO2, t, estimation_start, x_of, "bridge")
    return rows, pred, BRIDGE_LABELS


def direct_design(ds, info: InformationSet, spec: ModelSpec, t: int,
                  estimation_start: int):
    """Direct quantile design: emissions growth on its own AR lag, the
    high-frequency blocks, and the scalar emissions factor."""
    def x_of(read, _):
        return [*_hf_x(read, info, spec), _factor(read, VAR_CO2, info[VAR_CO2])]

    rows, pred = _design(ds, info, VAR_CO2, t, estimation_start, x_of, "direct")
    return rows, pred, ("ar_e",) + _hf_labels(spec) + ("f_e",)


def co2_benchmark_quantiles(ds, entity: str, taus) -> tuple:
    """Per-entity empirical quantiles of available emissions growth
    (linear interpolation of order statistics)."""
    values = ds.get(VAR_CO2, entity).values
    return tuple(float(q) for q in np.quantile(values, taus))


def nowcast_co2_density(ds, info: InformationSet, spec: ModelSpec,
                        config: RunConfig, energy):
    """Stage two for the week of `info` on `ds`, the panel truncated by
    `info`: quantile predictions, rearrangement, density fit and benchmark
    triple. `energy` is the spec's stage-one result (nowcasts, gap
    entities); HistMean ignores it and direct specs pass None.

    Returns (nowcasts, gap entities), the gaps including stage one's. A
    density fit that fails raises its `DataError` to the caller."""
    t, v = info.year, info.week
    taus = config.taus
    benchmarks = {
        e: co2_benchmark_quantiles(ds, e, taus) for e, _ in ds.series_of(VAR_CO2)
    }

    if spec.kind == "HistMean":
        out = []
        for e in sorted(benchmarks):
            q = rearrange(benchmarks[e])
            params = fit_from_quantiles(taus, q) if config.fit_density else None
            out.append(CO2DensityNowcast(
                entity=e, year=t, week=v, quantiles=q,
                benchmark=benchmarks[e], params=params,
            ))
        return out, []

    if spec.is_direct:
        rows, pred, labels = direct_design(ds, info, spec, t, config.estimation_start)
        gaps_energy = []
    else:
        nowcasts, gaps_energy = energy
        rows, pred, labels = bridge_design(
            ds, info, {n.entity: n.value for n in nowcasts}, t,
            config.estimation_start,
        )
    rows, pred, gaps = _drop_thin_entities(rows, pred, benchmarks, min_rows=1)
    gaps = sorted(set(gaps) | set(gaps_energy))

    models = [fit_quantile(rows, QuantileSpec(tau=tau, lam=config.lam), labels=labels)
              for tau in taus]
    out = []
    for e, x in pred:
        preds = [predict_quantile(m, e, x) for m in models]
        q = rearrange(preds)
        params = fit_from_quantiles(taus, q) if config.fit_density else None
        out.append(CO2DensityNowcast(
            entity=e, year=t, week=v, quantiles=q,
            benchmark=benchmarks.get(e, ()), params=params,
        ))
    return out, gaps


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


def _realized(dataset, variable, entity, year):
    try:
        return dataset.get(variable, entity).value_at(PeriodIndex(year))
    except CoverageError:
        return float("nan")


def _run_year(dataset: PanelDataset, config: RunConfig, t: int) -> NowcastArchive:
    """Every calendar week and model spec of target year t, re-fitted on the
    week's one truncation of the panel; failures become diagnostics rows."""
    rules = table2_rules()
    specs = tuple(ModelSpec(kind=k) for k in config.specs)
    archive = NowcastArchive()
    for v in range(1, cal.N_WEEKS + 1):

        def note(spec_kind, stage, detail):
            archive.diagnostics.append(dict(
                spec=spec_kind, year=t, week=v, stage=stage, detail=detail,
            ))

        info = information_set(rules, t, v)
        try:
            ds = truncate(dataset, info)
            bench_energy = {
                e: energy_hist_mean(ds, e) for e, _ in ds.series_of(VAR_EC)
            }
        except DataError as exc:
            note("*", "benchmark", str(exc))
            continue
        for spec in specs:
            energy = None
            if not spec.is_direct:
                try:
                    energy = nowcast_energy(ds, info, spec, config)
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
                        benchmark=bench_energy.get(n.entity, float("nan")),
                        realized=_realized(dataset, VAR_EC, n.entity, t),
                    ))
                for e in gaps:
                    note(spec.kind, "energy",
                         f"entity {e} dropped: insufficient history")
            try:
                densities, gaps = nowcast_co2_density(ds, info, spec, config, energy)
            except DataError as exc:
                note(spec.kind, "co2", str(exc))
                continue
            for n in densities:
                realized = _realized(dataset, VAR_CO2, n.entity, t)
                for tau, pred_q, bench_q in zip(
                    config.taus, n.quantiles, n.benchmark
                ):
                    archive.co2_rows.append(dict(
                        spec=spec.kind, entity=n.entity, year=t, week=v,
                        tau=tau, prediction=pred_q, benchmark=bench_q,
                        realized=realized,
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
    week, every model spec, re-fitted on the week's one truncation of the
    panel. Deterministic given dataset and config; failures become
    diagnostics rows, not crashes.

    The years run in forked worker processes when there is more than one
    year and more than one usable CPU, else in this process; either way the
    archive lists them in year order and is the same."""
    years = config.eval_years
    n_workers = _worker_count(len(years))
    if n_workers == 1:
        parts = [_run_year(dataset, config, t) for t in years]
    else:
        # fork, named: spawn and forkserver re-import numpy and scipy per worker
        with ProcessPoolExecutor(
            n_workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            parts = list(pool.map(_run_year, repeat(dataset), repeat(config), years))
    archive = NowcastArchive()
    for part in parts:
        for f in fields(NowcastArchive):
            getattr(archive, f.name).extend(getattr(part, f.name))
    return archive
