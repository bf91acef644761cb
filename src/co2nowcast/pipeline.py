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
latest period of the variable; a bridge spec's CO2 stage reads the energy
nowcasts that stage one produced from that information. No target year
reads another year's fits, so the years run in parallel, one forked worker
process per year up to the usable CPUs. A worker formats each row as its
CSV line straight from the week's kept stage result, with no per-cell
object, and the parent concatenates the years' lines in year order; the
archive is that of one process running them in turn. Lag offsets are pure
functions of the calendar week, applied identically to training years and
the target year (the "direct method" alignment), so no regressor can use
information beyond the week's information set.

Every stage takes its calendar week as a `Week`, whose one frame is every
entity and every year from the first training year to the target year.
One fancy index per distinct (variable, anchor variable, lags) read
gathers a block over the frame for every design and factor. A design is
one record array (`panel_ls.design`), one record per complete (entity,
year) of the frame, gathered by one masked index: a row with any missing
value is skipped, which leaves the design its regressand's own entities
and published years. The bridge's training set reads realized energy, so
it and its quantile fits serve every bridge spec.

One rule decides what is reused: the weeks of a year share one store, and
each item a week builds (a read block, a benchmark, a factor, the bridge's
training set and fits, each spec's two stages) is kept there with its
stamp, the latest periods of the variables its build looked up in the
week's information set, itself or through the items it used, which it
must fetch inside the build. No key holds a period, and every value a
week reads from the panel is read inside a kept build (the coverage check
reads none). A week drops every item whose stamp its information set does
not match and builds only what is missing; a build that raises keeps
nothing. With all eight specs, a year of the Table 2 calendar builds 214
CO2 stages (2 for HistMean) and 165 energy stages (2 each for HistMean and
AR) over its 384 (spec, week) cells.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
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
from .panel_ls import design, fit_within, predict
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
from .skew_t import fit_from_quantiles

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

ALMON_MAP = build_almon_map(AlmonSpec(C=52))

# (block letter, variable, lags, label prefix, Almon map or None) of each
# high-frequency block, in design order: a spec reads the blocks whose
# letters its kind names, and a mapped block enters as its Almon parameters
HF_BLOCKS = (
    ("Q", VAR_PI, 4, "q", None),
    ("M", VAR_ELEC, 12, "m", None),
    ("W", VAR_WECI, ALMON_MAP.spec.C, "w", ALMON_MAP),
)


@dataclass(frozen=True)
class ModelSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")

    @property
    def is_direct(self) -> bool:
        return self.kind.startswith("Direct")

    @property
    def hf(self) -> tuple:
        """The rows of `HF_BLOCKS` whose letters the spec's kind names."""
        letters = self.kind.removeprefix("Direct").split("-")
        return tuple(b for b in HF_BLOCKS if b[0] in letters)


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
        if not all(0.0 < tau < 1.0 for tau in self.taus):
            raise ConfigError(f"taus must lie inside (0, 1), got {self.taus}")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if len(self.taus) != len(set(self.taus)) or list(self.taus) != sorted(self.taus):
            raise ConfigError("taus must be strictly ascending")
        if not self.specs:
            raise ConfigError("specs must name at least one model")
        if unknown := [s for s in self.specs if s not in MODEL_KINDS]:
            raise ConfigError(f"unknown model {unknown[0]!r}; expected one of {MODEL_KINDS}")
        repeated = sorted({s for s in self.specs if self.specs.count(s) > 1})
        if repeated:
            raise ConfigError(f"specs name a model more than once: {repeated}")
        if self.fit_density and len(self.taus) != 3:
            raise ConfigError(
                f"fit_density needs exactly three taus, got {len(self.taus)}"
            )

    @property
    def eval_years(self):
        return range(self.eval_start, self.eval_end + 1)


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
        first entity whose series starts after the variable's latest period,
        reading no value: a series has no interior gaps."""
        for var in sorted(self._vars):
            if var not in info.latest:
                raise UnknownVariableError(f"variable {var!r} has no release rule")
            freq, _, spans, end = self._col(var, info[var])
            for e, _, a, _ in spans:
                if a > end:
                    raise CoverageError(f"truncation at {info[var].label(freq)} "
                                        f"precedes the start of entity {e!r}")

    def visible(self, info: InformationSet, var) -> list:
        """(entity, values) per entity with a `var` series: its own span as
        `info` shows it."""
        shown = [(e, self._read(info, var, i, np.arange(a, b)))
                 for e, i, a, b in self._col(var, info[var])[2]]
        return [(e, v[np.isfinite(v)]) for e, v in shown]

    def read(self, info: InformationSet, var, anchor, years, n):
        """`var` at ordinal(anchor) + per_year * years[j] minus 0..n-1 for
        every entity, as an (entity, year, lag) array."""
        freq, _, _, k = self._col(var, anchor)
        k = k + freq.per_year * years[:, None] - np.arange(n)
        return self._read(info, var, slice(None), k)

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


def _hf_labels(spec):
    return tuple(f"{prefix}{j}" for _, _, n, prefix, almon in spec.hf
                 for j in range(1, (n if almon is None else almon.spec.n_params) + 1))


BRIDGE_LABELS = ("ar_e", "c_hat", "f_e", "f_c")


class _Looked(dict):
    """A week's latest periods, which note each variable looked up into
    `open`, the set of variables of each build open in `Week._keep`."""

    def __getitem__(self, var):
        for looked in self.open:
            looked.add(var)
        return super().__getitem__(var)


class Week:
    """One calendar week: the panel's arrays, its information set `info`
    and the first training year, with what the week's specs share, each item
    built on first use and kept in `kept`, the store that the weeks of one
    year share in turn (None: a store of this week alone). An item is kept
    with its stamp, the week's latest periods of the variables its build
    looked up in `info`, itself or through the items it fetched inside it,
    until a week whose `info` differs there; every panel value is read
    inside a build. `lp` is the year's dict of final quantile-LP bases
    (`fit_quantile`), which looks up no variable.

    The frame is every entity of the panel and the years from
    `estimation_start` to the target year t, `info.year`, last: `info` hides
    y after the regressand's latest year, and an entity without a series of
    the regressand reads y and its AR lag as NaN, so a design's complete
    rows are its own entities and years. An energy or direct design
    concatenates the blocks its spec names, so a row's validity is judged on
    its own columns only; a bridge spec only fills its own nowcasts into the
    prediction rows of the shared bridge design."""

    def __init__(self, panel: PanelArrays, info: InformationSet, estimation_start: int,
                 kept: dict | None = None):
        self.panel, self.t = panel, info.year
        self.info = replace(info, latest=_Looked(info.latest))
        self.info.latest.open = []
        self.years = np.arange(estimation_start, self.t + 1)
        self._kept = {} if kept is None else kept
        for key in [key for key, (stamp, _) in self._kept.items()
                    if any(info[var] != period for var, period in stamp)]:
            del self._kept[key]
        self.lp = self._keep("lp bases", dict)

    def _keep(self, key, build):
        """The item kept under `key`, built by build() if the store lacks it;
        an item used inside another build, built or found, adds its stamp to
        that build's. A build that raises keeps nothing."""
        latest = self.info.latest
        if key not in self._kept:
            latest.open.append(set())
            try:
                value = build()
            finally:
                looked = latest.open.pop()
            self._kept[key] = tuple((v, p) for v, p in latest.items() if v in looked), value
        stamp, value = self._kept[key]
        for looked in latest.open:
            looked.update(var for var, _ in stamp)
        return value

    def read(self, var, anchor=None, n=1, almon=None):
        """`var` at the latest period of variable `anchor` (None: year t)
        plus per_year * (s - t), minus 0..n-1, in each year s of the frame,
        as a read-only (entity, year, lag) array, or with an Almon map
        `almon` its Almon-weighted lags; the build looks up that period."""
        def build():
            p = PeriodIndex(self.t) if anchor is None else self.info[anchor]
            block = self.panel.read(self.info, var, p, self.years - self.t, n)
            if almon is not None:  # one Q @ lags per row, bit for bit
                block = np.matmul(almon.Q, block.reshape(-1, n, 1)).reshape(
                    *block.shape[:2], -1)
            block.flags.writeable = False
            return block
        return self._keep(("read", var, anchor, n, almon and almon.spec), build)

    def hf(self, spec):
        """The blocks of `spec.hf` at their latest periods."""
        return [self.read(var, var, n, almon) for _, var, n, _, almon in spec.hf]

    def hist_mean(self):
        """The week's `energy_hist_mean`: the archive's energy benchmark and
        the HistMean spec's nowcasts."""
        return self._keep("hist_mean", lambda: energy_hist_mean(self.panel, self.info))

    def co2_benchmarks(self, taus):
        """The week's `co2_benchmark_quantiles` at `taus`: the archive's CO2
        benchmark and the HistMean spec's quantiles."""
        return self._keep(("co2 benchmarks", taus),
                          lambda: co2_benchmark_quantiles(self.panel, self.info, taus))

    def factor(self, var):
        """The cross-sectional mean of `var` at the latest CO2 lag in each
        year of the frame, over every entity with a value there; NaN where
        none has one."""
        def build():
            means = []
            for col in self.read(var, VAR_CO2)[:, :, 0].T:
                have = col[np.isfinite(col)]
                means.append(math.fsum(have) / have.size if have.size else np.nan)
            return np.array(means)[None, :, None]
        return self._keep(("factor", var), build)

    def design(self, y_var, blocks, name):
        """The `y_var` design on its AR lag and `blocks`: its training
        records, entity-major with years ascending, skipping any row with a
        missing value, and the target year's (entity, regressor) array, both
        read-only: the bridge's serve every bridge spec until a release."""
        y = self.read(y_var)[:, :, 0]
        blocks = [self.read(y_var, y_var), *blocks]
        X = np.concatenate([np.broadcast_to(b, y.shape + b.shape[2:]) for b in blocks],
                           axis=2)
        train = np.isfinite(X[:, :-1]).all(axis=2) & np.isfinite(y[:, :-1])
        i, j = np.nonzero(train)
        if not i.size:
            raise CoverageError(
                f"empty {name} design at ({self.t}, week {self.info.week})")
        names = np.asarray(self.panel.entities)
        rows, last = design(names[i], self.years[j], y[i, j], X[i, j]), X[:, -1]
        rows.flags.writeable = last.flags.writeable = False
        return rows, last

    def pred(self, last):
        """(entity, regressors) per entity whose target-year row `last` is
        complete; copies: a view into X can be less aligned than a fresh
        array, and the dot product in `predict` may then round differently."""
        return [(self.panel.entities[i], last[i].copy())
                for i in np.flatnonzero(np.isfinite(last).all(axis=1))]

    def bridge(self):
        """The bridge design on realized energy: its training rows, shared by
        every bridge spec, and a target-year array without c_hat."""
        def build():
            blocks = [self.read(VAR_EC), self.factor(VAR_CO2), self.factor(VAR_EC)]
            return self.design(VAR_CO2, blocks, "bridge")
        return self._keep("bridge", build)

    def bridge_models(self, taus, lam):
        """One quantile fit of the shared bridge training rows per level."""
        return self._keep(("bridge fits", taus, lam), lambda: [
            fit_quantile(self.bridge()[0], QuantileSpec(tau=tau, lam=lam),
                         labels=BRIDGE_LABELS, lp=self.lp) for tau in taus])

    def stage(self, build, spec, *args):
        """build(self, spec, *args), one stage of `spec`, kept."""
        return self._keep((build, spec, *args), lambda: build(self, spec, *args))


def assemble_energy_design(week: Week, spec: ModelSpec):
    """Training rows plus prediction rows for the MIDAS energy regression of
    `week`. Training years with insufficient history are dropped per entity."""
    rows, last = week.design(VAR_EC, week.hf(spec), "energy")
    return rows, week.pred(last), ("ar_c",) + _hf_labels(spec)


def _drop_thin_entities(rows, pred, entities, min_rows=2):
    """Entities need >= min_rows training rows for a fixed effect and a
    prediction row. Every other entity of `entities` (those with a series of
    the design's variable) is a gap; one with training rows but no
    prediction row keeps its rows."""
    names, counts = np.unique(rows.entity, return_counts=True)
    kept = names[counts >= min_rows]
    keep = set(kept.tolist())
    dropped = sorted(set(entities) - (keep & {e for e, _ in pred}))
    pred = [(e, x) for e, x in pred if e in keep]
    if kept.size < names.size:  # a mask only where an entity is too thin
        rows = rows[np.isin(rows.entity, kept)]
    return rows, pred, dropped


def energy_hist_mean(panel, info: InformationSet) -> dict:
    """Historical mean of available energy growth per entity (the benchmark)."""
    return {e: float(np.mean(v)) for e, v in panel.visible(info, VAR_EC)}


def _energy(week: Week, spec: ModelSpec):
    """Stage one of `spec` for `week`: assemble, fit, predict. Returns
    ((entity, nowcast) per predicted entity, gap entities), both tuples."""
    if spec.kind == "HistMean":
        return tuple(week.hist_mean().items()), ()
    rows, pred, labels = assemble_energy_design(week, spec)
    rows, pred, gaps = _drop_thin_entities(rows, pred, week.panel.entities_of(VAR_EC))
    model = fit_within(rows, labels=labels)
    return tuple((e, predict(model, e, x)) for e, x in pred), tuple(gaps)


def nowcast_energy(week: Week, info: InformationSet, spec: ModelSpec):
    """Stage one of `spec` for `week`, as kept (see `_energy`). `info` is
    unused: it goes with this wrapper once the benchmark stops pinning both."""
    if spec.is_direct:
        raise DomainError("the direct model has no energy stage")
    return week.stage(_energy, spec)


def bridge_design(week: Week, energy: dict):
    """Quantile-bridge design of `week`: AR lag of emissions growth, the
    energy term (realized in training, the first-stage nowcast `energy` in
    prediction) and the cross-sectional-average factors at the latest
    available lag."""
    rows, last = week.bridge()
    last = last.copy()
    last[:, 1] = [energy.get(e, np.nan) for e in week.panel.entities]
    return rows, week.pred(last), BRIDGE_LABELS


def direct_design(week: Week, spec: ModelSpec):
    """Direct quantile design of `week`: emissions growth on its own AR lag,
    the high-frequency blocks, and the scalar emissions factor."""
    blocks = [*week.hf(spec), week.factor(VAR_CO2)]
    rows, last = week.design(VAR_CO2, blocks, "direct")
    return rows, week.pred(last), ("ar_e",) + _hf_labels(spec) + ("f_e",)


def co2_benchmark_quantiles(panel, info: InformationSet, taus) -> dict:
    """Per-entity empirical quantiles of available emissions growth (linear
    interpolation of order statistics)."""
    return {e: tuple(float(q) for q in np.quantile(v, taus))
            for e, v in panel.visible(info, VAR_CO2)}


def _co2(week: Week, spec: ModelSpec, config: RunConfig):
    """Stage two of `spec` for `week`: quantile predictions at `config.taus`,
    rearrangement and density fit. A bridge spec reads its stage one through
    `week`. Returns ((entity, quantiles, params) per predicted entity, gap
    entities, the gaps including stage one's), both tuples."""
    taus = config.taus
    benchmarks = week.co2_benchmarks(taus)

    def cell(e, triple):
        q = rearrange(triple)
        return e, q, fit_from_quantiles(taus, q) if config.fit_density else None

    if spec.kind == "HistMean":
        return tuple(cell(e, benchmarks[e]) for e in sorted(benchmarks)), ()
    if spec.is_direct:
        rows, pred, labels = direct_design(week, spec)
        models = [fit_quantile(rows, QuantileSpec(tau=tau, lam=config.lam),
                               labels=labels, lp=week.lp) for tau in taus]
        gaps_energy = ()
    else:
        values, gaps_energy = week.stage(_energy, spec)
        _, pred, _ = bridge_design(week, dict(values))
        models = week.bridge_models(taus, config.lam)
    # an entity is predicted where it has training rows (the fits' entities)
    # and a prediction row; every other entity with a benchmark is a gap
    pred = [(e, x) for e, x in pred if e in models[0].gamma]
    gaps = tuple(sorted(set(benchmarks).difference(e for e, _ in pred).union(gaps_energy)))
    return tuple(cell(e, [predict_quantile(m, e, x) for m in models]) for e, x in pred), gaps


def nowcast_co2_density(week: Week, info: InformationSet, spec: ModelSpec,
                        config: RunConfig):
    """Stage two of `spec` for `week`, as kept (see `_co2`); either stage's
    `DataError` reaches the caller. `info` is unused: it goes with this
    wrapper once the benchmark stops pinning both."""
    return week.stage(_co2, spec, config)


@dataclass
class NowcastArchive:
    """The archive as the lines of its three files, each line one row ending
    in a newline: archive.csv's energy rows, then its CO2 rows, with realized
    outcomes joined; density_params.csv's rows; and diagnostics.csv's rows.
    Each line is formatted once, where its row is computed."""

    energy: list = field(default_factory=list)
    co2: list = field(default_factory=list)
    density: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def to_csv(self) -> str:
        return ("spec,variable,entity,target_year,week,tau_or_point,"
                "prediction,benchmark,realized\n"
                + "".join(self.energy) + "".join(self.co2))

    def density_csv(self) -> str:
        return "spec,entity,target_year,week,mu,sigma,alpha,nu\n" + "".join(self.density)

    def diagnostics_csv(self) -> str:
        return "spec,target_year,week,stage,detail\n" + "".join(self.diagnostics)


def _csv_line(*values) -> str:
    """One CSV line of `values`; a field containing commas or quotes is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(values)
    return out.getvalue()


def _run_year(panel: PanelArrays, config: RunConfig, t: int) -> NowcastArchive:
    """Every calendar week and model spec of target year t, fitted on what
    the week's information set shows of the panel; the weeks share one store,
    made here, of what they build, so each item is rebuilt only when a period
    it reads is released, and nothing outlives the year. Each row is archived
    as its CSV line. Failures become diagnostics rows."""
    rules, kept = table2_rules(), {}
    specs = tuple(ModelSpec(kind=k) for k in config.specs)
    realized = {var: panel.realized(var, t) for var in (VAR_EC, VAR_CO2)}
    archive = NowcastArchive()
    for v in range(1, cal.N_WEEKS + 1):

        def note(spec_kind, stage, detail):
            archive.diagnostics.append(_csv_line(spec_kind, t, v, stage, detail))

        info = information_set(rules, t, v)
        week = Week(panel, info, config.estimation_start, kept)
        try:
            panel.check(info)
            bench_energy = week.hist_mean()
            bench_co2 = week.co2_benchmarks(config.taus)
        except DataError as exc:
            note("*", "benchmark", str(exc))
            continue
        for spec in specs:
            if not spec.is_direct:
                try:
                    values, gaps = nowcast_energy(week, info, spec)
                except DataError as exc:
                    # a bridge CO2 stage reads stage one, so it fails alike
                    # (HistMean's stage one cannot raise)
                    note(spec.kind, "energy", str(exc))
                    note(spec.kind, "co2", str(exc))
                    continue
                archive.energy.extend(
                    f"{spec.kind},EC,{e},{t},{v},point,{value!r},"
                    f"{bench_energy[e]!r},{realized[VAR_EC][e]!r}\n"
                    for e, value in values)
                for e in gaps:
                    note(spec.kind, "energy",
                         f"entity {e} dropped: insufficient history")
            try:
                cells, gaps = nowcast_co2_density(week, info, spec, config)
            except DataError as exc:
                note(spec.kind, "co2", str(exc))
                continue
            for e, quantiles, p in cells:
                archive.co2.extend(
                    f"{spec.kind},CO2,{e},{t},{v},{tau!r},{pred_q!r},{bench_q!r},"
                    f"{realized[VAR_CO2][e]!r}\n"
                    for tau, pred_q, bench_q in zip(config.taus, quantiles, bench_co2[e]))
                if p is not None:
                    archive.density.append(f"{spec.kind},{e},{t},{v},"
                                           f"{p.mu!r},{p.sigma!r},{p.alpha!r},{p.nu!r}\n")
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
