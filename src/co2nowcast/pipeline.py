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
Lag offsets are pure functions of the calendar week, applied identically to
training years and the target year (the "direct method" alignment), so no
regressor can ever use information beyond the week's information set: all
data access goes through that one calendar truncation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import release_calendar as cal
from .almon import AlmonMap, AlmonSpec, build_almon_map
from .errors import ConfigError, CoverageError, DataError, DomainError
from .panel import PanelDataset, PeriodIndex, cross_section_mean, lag_vector
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


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    almon: AlmonSpec = field(default_factory=AlmonSpec)

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
    weci_transform: str = "levels"  # or "yoy_log"; applied at ingestion
    fit_density: bool = True

    def __post_init__(self):
        if self.eval_start > self.eval_end:
            raise ConfigError("eval_start must be <= eval_end")
        if self.estimation_start >= self.eval_start:
            raise ConfigError("estimation_start must precede the evaluation years")
        if self.weci_transform not in ("levels", "yoy_log"):
            raise ConfigError(f"unknown weci_transform {self.weci_transform!r}")
        if len(self.taus) != len(set(self.taus)) or list(self.taus) != sorted(self.taus):
            raise ConfigError("taus must be strictly ascending")

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


def _shifted(latest: PeriodIndex, t: int, s: int) -> PeriodIndex:
    """The anchor for training year s: the week's availability pattern shifted
    by whole years, so offsets are the same function of v for every year."""
    return PeriodIndex(latest.year + (s - t), latest.sub)


def _energy_row_x(ds, info, spec, amap, entity, t, s, d_v):
    parts = [np.array([ds.get(VAR_EC, entity).value_at(PeriodIndex(s - d_v))])]
    if spec.has_q:
        anchor = _shifted(info[VAR_PI], t, s)
        parts.append(lag_vector(ds.get(VAR_PI, entity), anchor, N_QUARTER_LAGS))
    if spec.has_m:
        anchor = _shifted(info[VAR_ELEC], t, s)
        parts.append(lag_vector(ds.get(VAR_ELEC, entity), anchor, N_MONTH_LAGS))
    if spec.has_w:
        anchor = _shifted(info[VAR_WECI], t, s)
        w = lag_vector(ds.get(VAR_WECI, entity), anchor, N_WEEK_LAGS)
        parts.append(amap.Q @ w)
    return np.concatenate(parts)


def _energy_labels(spec, amap):
    labels = ["ar_c"]
    if spec.has_q:
        labels += [f"q{j}" for j in range(1, N_QUARTER_LAGS + 1)]
    if spec.has_m:
        labels += [f"m{j}" for j in range(1, N_MONTH_LAGS + 1)]
    if spec.has_w:
        labels += [f"w{j}" for j in range(1, amap.spec.n_params + 1)]
    return tuple(labels)


def assemble_energy_design(ds, info: InformationSet, spec: ModelSpec, t: int,
                           estimation_start: int, amap: AlmonMap | None = None):
    """Training rows plus prediction rows for the MIDAS energy regression.

    `ds` must already be truncated by the information set. Training years
    with insufficient history are dropped per entity.
    """
    if amap is None and spec.has_w:
        amap = build_almon_map(spec.almon)
    ec_latest = info[VAR_EC].year
    d_v = t - ec_latest
    rows, pred = [], []
    for entity in ds.entities:
        if not ds.has(VAR_EC, entity):
            continue
        for s in range(estimation_start, ec_latest + 1):
            try:
                y = ds.get(VAR_EC, entity).value_at(PeriodIndex(s))
                x = _energy_row_x(ds, info, spec, amap, entity, t, s, d_v)
            except CoverageError:
                continue
            rows.append(DesignRow(entity=entity, year=s, y=y, x=x))
        try:
            xp = _energy_row_x(ds, info, spec, amap, entity, t, t, d_v)
        except CoverageError:
            continue
        pred.append((entity, xp))
    if not rows:
        raise CoverageError(f"empty energy design at ({t}, week {info.week})")
    return rows, pred, _energy_labels(spec, amap)


def _drop_thin_entities(rows, pred, min_rows=2):
    """Entities need >= min_rows training rows for a fixed effect."""
    counts: dict = {}
    for r in rows:
        counts[r.entity] = counts.get(r.entity, 0) + 1
    keep = {e for e, n in counts.items() if n >= min_rows}
    dropped = sorted(set(counts) | {e for e, _ in pred})
    dropped = [e for e in dropped if e not in keep]
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
    rows, pred, gaps = _drop_thin_entities(rows, pred)
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
    co2_latest = info[VAR_CO2].year
    g_v = t - co2_latest

    def factors(year):
        return np.array([
            cross_section_mean(ds, VAR_CO2, PeriodIndex(year)),
            cross_section_mean(ds, VAR_EC, PeriodIndex(year)),
        ])

    rows, pred = [], []
    for entity in ds.entities:
        if not (ds.has(VAR_CO2, entity) and ds.has(VAR_EC, entity)):
            continue
        e_series = ds.get(VAR_CO2, entity)
        c_series = ds.get(VAR_EC, entity)
        for s in range(estimation_start, co2_latest + 1):
            try:
                y = e_series.value_at(PeriodIndex(s))
                x = np.concatenate([
                    [e_series.value_at(PeriodIndex(s - g_v))],
                    [c_series.value_at(PeriodIndex(s))],
                    factors(s - g_v),
                ])
            except CoverageError:
                continue
            rows.append(DesignRow(entity=entity, year=s, y=y, x=x))
        if entity not in energy:
            continue
        try:
            xp = np.concatenate([
                [e_series.value_at(PeriodIndex(t - g_v))],
                [energy[entity]],
                factors(t - g_v),
            ])
        except CoverageError:
            continue
        pred.append((entity, xp))
    if not rows:
        raise CoverageError(f"empty bridge design at ({t}, week {info.week})")
    return rows, pred, BRIDGE_LABELS


def direct_design(ds, info: InformationSet, spec: ModelSpec, t: int,
                  estimation_start: int, amap: AlmonMap | None = None):
    """Direct quantile design: emissions growth on its own AR lag, the
    high-frequency blocks, and the scalar emissions factor."""
    if amap is None and spec.has_w:
        amap = build_almon_map(spec.almon)
    co2_latest = info[VAR_CO2].year
    g_v = t - co2_latest
    rows, pred = [], []
    for entity in ds.entities:
        if not ds.has(VAR_CO2, entity):
            continue
        e_series = ds.get(VAR_CO2, entity)

        def build_x(s):
            parts = [np.array([e_series.value_at(PeriodIndex(s - g_v))])]
            if spec.has_q:
                parts.append(lag_vector(
                    ds.get(VAR_PI, entity), _shifted(info[VAR_PI], t, s),
                    N_QUARTER_LAGS,
                ))
            if spec.has_m:
                parts.append(lag_vector(
                    ds.get(VAR_ELEC, entity), _shifted(info[VAR_ELEC], t, s),
                    N_MONTH_LAGS,
                ))
            if spec.has_w:
                w = lag_vector(
                    ds.get(VAR_WECI, entity), _shifted(info[VAR_WECI], t, s),
                    N_WEEK_LAGS,
                )
                parts.append(amap.Q @ w)
            parts.append(np.array([
                cross_section_mean(ds, VAR_CO2, PeriodIndex(s - g_v))
            ]))
            return np.concatenate(parts)

        for s in range(estimation_start, co2_latest + 1):
            try:
                y = e_series.value_at(PeriodIndex(s))
                x = build_x(s)
            except CoverageError:
                continue
            rows.append(DesignRow(entity=entity, year=s, y=y, x=x))
        try:
            xp = build_x(t)
        except CoverageError:
            continue
        pred.append((entity, xp))
    if not rows:
        raise CoverageError(f"empty direct design at ({t}, week {info.week})")
    labels = _energy_labels(spec, amap)[1:]  # drop the energy AR label
    labels = ("ar_e",) + labels + ("f_e",)
    return rows, pred, labels


def co2_benchmark_quantiles(ds, entity: str, taus) -> tuple:
    """Per-entity empirical quantiles of available emissions growth
    (linear interpolation of order statistics)."""
    values = ds.get(VAR_CO2, entity).values
    return tuple(float(q) for q in np.quantile(values, taus))


def _fit_density(quantiles, taus):
    try:
        return fit_from_quantiles(taus, quantiles)
    except DataError:
        return None


def nowcast_co2_density(ds, info: InformationSet, spec: ModelSpec,
                        config: RunConfig, energy):
    """Stage two for the week of `info` on `ds`, the panel truncated by
    `info`: quantile predictions, rearrangement, density fit and benchmark
    triple. `energy` is the spec's stage-one result (nowcasts, gap
    entities); HistMean ignores it and direct specs pass None.

    Returns (nowcasts, gap entities), the gaps including stage one's."""
    t, v = info.year, info.week
    taus = config.taus
    benchmarks = {
        e: co2_benchmark_quantiles(ds, e, taus) for e, _ in ds.series_of(VAR_CO2)
    }

    if spec.kind == "HistMean":
        out = []
        for e in sorted(benchmarks):
            q = rearrange(benchmarks[e]) if len(taus) == 3 else tuple(benchmarks[e])
            params = _fit_density(q, taus) if config.fit_density else None
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
    rows, pred, gaps = _drop_thin_entities(rows, pred, min_rows=1)
    gaps = sorted(set(gaps) | set(gaps_energy))

    models = [fit_quantile(rows, QuantileSpec(tau=tau, lam=config.lam), labels=labels)
              for tau in taus]
    out = []
    for e, x in pred:
        preds = [predict_quantile(m, e, x) for m in models]
        q = rearrange(preds) if len(preds) == 3 else tuple(sorted(preds))
        params = _fit_density(q, taus) if config.fit_density else None
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


def run_out_of_sample(dataset: PanelDataset, config: RunConfig,
                      specs=None, rules=None) -> NowcastArchive:
    """Full pseudo-out-of-sample loop: every evaluation year, every calendar
    week, every model spec, re-fitted on the week's one truncation of the
    panel. Deterministic given dataset and config; failures become
    diagnostics rows, not crashes."""
    if rules is None:
        rules = table2_rules()
    if specs is None:
        specs = tuple(ModelSpec(kind=k) for k in config.specs)
    archive = NowcastArchive()
    for t in config.eval_years:
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
