"""Scoring of archived nowcasts: RMSFE, quantile score, discrete CRPS and
cross-state distribution tables relative to a benchmark.

The quantile score uses the standard pinball loss rho_tau(u) = u(tau - 1{u<0})
with u = realized - predicted quantile, which is nonnegative and zero only at
a perfect quantile forecast. Cross-state quantiles use linear interpolation
of order statistics (type 7).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ScoringGapError

DIST_LEVELS = (0.10, 0.25, 0.50, 0.75, 0.90)


def _check_rows(rows, what):
    if not rows:
        raise ScoringGapError(f"no rows to score for {what}")
    for r in rows:
        if not (math.isfinite(r["prediction"]) and math.isfinite(r["realized"])):
            raise ScoringGapError(
                f"missing prediction or realized value for entity "
                f"{r['entity']!r}, year {r['year']}"
            )


def _per_entity(rows, reducer):
    groups: dict = {}
    for r in rows:
        groups.setdefault(r["entity"], []).append(r)
    return {e: reducer(g) for e, g in sorted(groups.items())}


def rmsfe_per_entity(rows) -> dict:
    _check_rows(rows, "RMSFE")

    def rmse(group):
        errs = np.array([g["prediction"] - g["realized"] for g in group])
        return float(np.sqrt(np.mean(errs**2)))

    return _per_entity(rows, rmse)


def rmsfe(rows) -> float:
    """Per-entity root mean squared error over the evaluation years, then
    averaged across entities (mean of roots, not root of means)."""
    per = rmsfe_per_entity(rows)
    return float(np.mean(list(per.values())))


def pinball(u, tau: float):
    u = np.asarray(u, dtype=float)
    return u * (tau - (u < 0.0))


def quantile_score_per_entity(rows, tau: float) -> dict:
    _check_rows(rows, f"QS({tau})")

    def qs(group):
        losses = [pinball(g["realized"] - g["prediction"], tau) for g in group]
        return float(np.mean(losses))

    return _per_entity(rows, qs)


def quantile_score(rows, tau: float) -> float:
    per = quantile_score_per_entity(rows, tau)
    return float(np.mean(list(per.values())))


def crps(rows_by_tau: dict) -> float:
    """Equal-weight mean over quantile levels of the quantile scores."""
    taus = sorted(rows_by_tau)
    if not taus:
        raise ScoringGapError("no quantile levels to aggregate")
    return float(np.mean([quantile_score(rows_by_tau[tau], tau) for tau in taus]))


def crps_per_entity(rows_by_tau: dict) -> dict:
    taus = sorted(rows_by_tau)
    per = [quantile_score_per_entity(rows_by_tau[tau], tau) for tau in taus]
    entities = set(per[0])
    for p in per[1:]:
        if set(p) != entities:
            raise ScoringGapError("entity sets differ across quantile levels")
    return {e: float(np.mean([p[e] for p in per])) for e in sorted(entities)}


def relative_and_distribution(model_per_entity: dict, bench_per_entity: dict) -> dict:
    """Aggregate ratio plus cross-state quantiles of per-entity ratios."""
    if set(model_per_entity) != set(bench_per_entity):
        raise ScoringGapError(
            "model and benchmark cover different entities: "
            f"{sorted(set(model_per_entity) ^ set(bench_per_entity))}"
        )
    bench_agg = float(np.mean(list(bench_per_entity.values())))
    model_agg = float(np.mean(list(model_per_entity.values())))
    if bench_agg == 0.0:
        raise DomainError("benchmark aggregate score is zero; ratio undefined")
    ratios = []
    for e in sorted(model_per_entity):
        if bench_per_entity[e] == 0.0:
            raise DomainError(f"benchmark score for entity {e!r} is zero")
        ratios.append(model_per_entity[e] / bench_per_entity[e])
    dist = tuple(float(q) for q in np.quantile(ratios, DIST_LEVELS))
    return dict(
        aggregate=model_agg / bench_agg,
        distribution=dist,
        model_aggregate=model_agg,
        benchmark_aggregate=bench_agg,
    )


def score_table(rows_by_week, bench_rows_by_week, metric: str, tau: float | None = None):
    """Tables 3/4-shaped rows: per week, the cross-state ratio distribution.

    `rows_by_week` maps week -> archive rows (for crps: week -> {tau: rows}).
    Returns a list of dicts with keys phase, week, q10..q90, aggregate.
    """
    from .release_calendar import BACKCAST_LAST_WEEK

    missing = sorted(set(rows_by_week) - set(bench_rows_by_week))
    if missing:
        raise ScoringGapError(f"benchmark has no rows at weeks {missing}")
    out = []
    for v in sorted(rows_by_week):
        if metric == "rmsfe":
            model = rmsfe_per_entity(rows_by_week[v])
            bench = rmsfe_per_entity(bench_rows_by_week[v])
        elif metric == "qs":
            if tau is None:
                raise DomainError("metric 'qs' requires a quantile level")
            model = quantile_score_per_entity(rows_by_week[v], tau)
            bench = quantile_score_per_entity(bench_rows_by_week[v], tau)
        elif metric == "crps":
            model = crps_per_entity(rows_by_week[v])
            bench = crps_per_entity(bench_rows_by_week[v])
        else:
            raise DomainError(f"unknown metric {metric!r}")
        rel = relative_and_distribution(model, bench)
        q10, q25, q50, q75, q90 = rel["distribution"]
        out.append(dict(
            phase="Backcast" if v <= BACKCAST_LAST_WEEK else "Nowcast",
            week=v, q10=q10, q25=q25, q50=q50, q75=q75, q90=q90,
            aggregate=rel["aggregate"],
        ))
    return out


def score_table_csv(table_rows) -> str:
    def fmt(x):
        return f"{x:.6g}"

    lines = ["phase,week,q10,q25,q50,q75,q90,aggregate"]
    for r in table_rows:
        lines.append(
            f"{r['phase']},{r['week']},{fmt(r['q10'])},{fmt(r['q25'])},"
            f"{fmt(r['q50'])},{fmt(r['q75'])},{fmt(r['q90'])},{fmt(r['aggregate'])}"
        )
    return "\n".join(lines) + "\n"
