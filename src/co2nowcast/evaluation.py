"""Scoring of archived nowcasts: RMSFE, quantile score, discrete CRPS and
cross-state distribution tables relative to a benchmark. `score_columns`
scores a whole archive, held as columns, into one table per spec: per week,
the phase, the week, the cross-state quantiles q10..q90 of the per-entity
ratios to the benchmark, their aggregate ratio, and the two means that
ratio divides, model_aggregate and benchmark_aggregate. `score_table_csv`
writes a table without the two means.

The quantile score uses the standard pinball loss rho_tau(u) = u(tau - 1{u<0})
with u = realized - predicted quantile, which is nonnegative and zero only at
a perfect quantile forecast. Cross-state quantiles use linear interpolation
of order statistics (type 7).

Every mean and quantile over a group of rows is a last-axis reduction of a
dense block stacking the groups of one length, each in archive order: row
for row the same floats as a 1-D `np.mean` or `np.quantile` call on the
group (`np.add.reduceat` sums in another order, and its floats differ).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ScoringGapError
from .release_calendar import phase

DIST_LEVELS = (0.10, 0.25, 0.50, 0.75, 0.90)


def level(field) -> float:
    """The quantile level of an archive's tau_or_point field, NaN for a
    point nowcast's."""
    return math.nan if field == "point" else float(field)


def pinball(u, tau):
    u = np.asarray(u, dtype=float)
    return u * (tau - (u < 0.0))


def _losses(metric, prediction, realized, tau):
    """Each row's loss: the squared error for rmsfe, else the pinball loss at
    `tau` (one level, or one per row)."""
    if metric == "rmsfe":
        return (prediction - realized) ** 2
    return pinball(realized - prediction, tau)


def _codes(values):
    """Each value's index among the distinct values in sorted order, and
    those values."""
    names = sorted(set(values))
    index = {v: i for i, v in enumerate(names)}
    return np.fromiter(map(index.__getitem__, values), np.intp, len(values)), names


def _changes(keys, n):
    """True where one of the sorted `keys` (n values each) changes, and at 0."""
    new = np.zeros(n, bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return new


def _runs(keys):
    """The stable order that sorts rows by `keys` (most significant first),
    the length of each run of equal keys in that order, and each run's keys."""
    order = np.lexsort(keys[::-1])
    keys = [k[order] for k in keys]
    starts = np.flatnonzero(_changes(keys, len(order)))
    return order, np.diff(np.append(starts, len(order))), [k[starts] for k in keys]


def _stacked(values, lengths, out, reduce):
    """out[i] = reduce(block) of run i of `values` (consecutive runs of the
    given lengths); the runs of one length form one dense block."""
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    for n in np.unique(lengths):
        sel = np.flatnonzero(lengths == n)
        out[sel] = reduce(values[starts[sel, None] + np.arange(n)])
    return out


def _means(values, lengths):
    return _stacked(values, lengths, np.empty(len(lengths)),
                    lambda block: block.mean(axis=-1))


def _quantiles(values, lengths):
    return _stacked(values, lengths, np.empty((len(lengths), len(DIST_LEVELS))),
                    lambda block: np.quantile(block, DIST_LEVELS, axis=-1).T)


def _entity_scores(metric, keys, losses):
    """Score per distinct row key, in key order: the mean loss over the key's
    rows in row order, square-rooted for rmsfe. The last key is the entity;
    for crps the one before it is the quantile level, and an entity's score
    is the mean over its levels, in ascending order, of those means.

    Returns the distinct keys (without the level), their scores, and for
    crps whether each group (the keys before the level) has entities whose
    levels differ."""
    order, lengths, heads = _runs(keys)
    scores = _means(losses[order], lengths)
    if metric == "rmsfe":
        scores = np.sqrt(scores)
    mixed = None
    if metric == "crps":
        *group, lev, entity = heads
        gid = np.cumsum(_changes(group, len(entity))) - 1
        n_levels = np.bincount(gid[_changes([*group, lev], len(entity))])
        order, lengths, heads = _runs([*group, entity])
        scores = _means(scores[order], lengths)
        run_gid = gid[order][np.cumsum(lengths) - lengths]
        mixed = np.bincount(run_gid, weights=lengths != n_levels[run_gid]) > 0
    return heads, scores, mixed


def _first_failure(spec, week, bad, flagged, lev):
    """The (spec, week) an error names, and the row it names (None for a
    level mismatch). Of the failing groups, those with a non-finite row and
    the `flagged` ones, whose entities' levels differ, it is the group whose
    first row comes first in the archive; its row is the group's first
    non-finite row in archive order (for crps, at its lowest such level)."""
    keys = list(zip(spec.tolist(), week.tolist()))
    first: dict = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    rows = np.flatnonzero(bad).tolist()
    key = min({keys[i] for i in rows} | flagged, key=first.__getitem__)
    rows = [i for i in rows if keys[i] == key]
    if lev is not None:
        rows.sort(key=lev.__getitem__)
    return key, (rows[0] if rows else None)


def score_columns(columns: dict, metric: str, tau: float | None = None,
                  relative_to: str = "HistMean") -> dict:
    """{spec: Tables 3/4-shaped rows}, one table per spec of the archive
    `columns` (a spec without rows of the metric gets an empty one), one row
    per week in week order, with keys phase, week, q10..q90 (the cross-state
    distribution of the per-entity ratios to `relative_to`), aggregate
    (model_aggregate / benchmark_aggregate), model_aggregate and
    benchmark_aggregate (the spec's and the benchmark's mean over entities
    of the per-entity scores). rmsfe scores the EC rows, qs the CO2 rows at
    `tau` and crps all CO2 rows.

    `columns` holds the archive's columns spec, variable, entity,
    target_year (read for error messages only) and week, prediction and
    realized, and for qs and crps tau_or_point as levels (see `level`). An
    entity's score in a (spec, week) is the mean loss over its rows; each
    (spec, week), the benchmark's included, is scored once."""
    spec, specs = _codes(columns["spec"])
    if relative_to not in specs:
        raise ScoringGapError(
            f"benchmark spec {relative_to!r} not in archive; available: {specs}")
    if metric not in ("rmsfe", "qs", "crps"):
        raise DomainError(f"unknown metric {metric!r}")
    if metric == "qs" and tau is None:
        raise DomainError("metric 'qs' requires a quantile level")
    variable, names = _codes(columns["variable"])
    want = "EC" if metric == "rmsfe" else "CO2"
    pool = variable == (names.index(want) if want in names else -1)
    levels = None
    if metric != "rmsfe":
        if not pool.any():
            raise ScoringGapError(
                "metric requires quantile rows, but the archive holds only point nowcasts")
        levels = np.asarray(columns["tau_or_point"], dtype=float)
        if np.isnan(levels[pool]).any():
            raise ScoringGapError("CO2 rows without a quantile level")
        if metric == "qs":
            available = sorted(set(levels[pool].tolist()))
            if not any(abs(lv - tau) <= 1e-12 for lv in available):  # NaN is in none
                raise ScoringGapError(
                    f"quantile level tau={tau} not in archive; available: {available}")
            pool &= np.abs(levels - tau) <= 1e-12
    idx = np.flatnonzero(pool)
    tables = {name: [] for name in specs}
    if not idx.size:
        return tables

    def gap(code, detail):
        return ScoringGapError(f"spec {specs[code]!r} against {relative_to!r}: {detail}")

    spec, week = spec[idx], np.asarray(columns["week"])[idx]
    entity, entities = _codes(columns["entity"])
    entity = entity[idx]
    prediction, realized = (np.asarray(columns[k], dtype=float)[idx]
                            for k in ("prediction", "realized"))
    bad = ~(np.isfinite(prediction) & np.isfinite(realized))
    if bad.any():  # reported below, once the groups are known
        prediction, realized = np.where(bad, 0.0, prediction), np.where(bad, 0.0, realized)
    lev = levels[idx] if metric == "crps" else None
    keys = [spec, week, entity] if lev is None else [spec, week, lev, entity]
    losses = _losses(metric, prediction, realized, tau if metric == "qs" else lev)
    (gs, gw, ge), scores, mixed = _entity_scores(metric, keys, losses)

    # groups (spec, week), in sorted order; gid numbers each score's group
    n = len(ge)
    starts = np.flatnonzero(_changes([gs, gw], n))
    n_ent = np.diff(np.append(starts, n))
    gspec, gweek = gs[starts], gw[starts]
    gid = np.repeat(np.arange(len(starts)), n_ent)
    bench = specs.index(relative_to)
    bench_weeks = gweek[gspec == bench]
    missing = ~np.isin(gweek, bench_weeks)
    if missing.any():
        code = gspec[missing].min()
        raise gap(code, "benchmark has no rows at weeks "
                        f"{gweek[missing & (gspec == code)].tolist()}")
    if bad.any() or (mixed is not None and mixed.any()):
        flagged = set() if mixed is None else set(zip(gspec[mixed].tolist(),
                                                      gweek[mixed].tolist()))
        (code, _), i = _first_failure(spec, week, bad, flagged, lev)
        if i is None:
            raise gap(code, "entity sets differ across quantile levels")
        raise gap(code, "missing prediction or realized value for entity "
                        f"{columns['entity'][idx[i]]!r}, "
                        f"year {columns['target_year'][idx[i]]}")

    # each score's benchmark partner: same week and entity, in the bench group
    bench_group = np.flatnonzero(gspec == bench)[np.searchsorted(bench_weeks, gweek)]
    key, wanted = (g * len(entities) + ge for g in (gid, bench_group[gid]))
    partner = np.minimum(np.searchsorted(key, wanted), n - 1)
    differ = ((np.bincount(gid, weights=key[partner] != wanted) > 0)
              | (n_ent != n_ent[bench_group]))
    model_agg = _means(scores, n_ent)
    zero = np.bincount(gid, weights=scores == 0.0) > 0
    fails = differ | (model_agg[bench_group] == 0.0) | zero[bench_group]
    if fails.any():
        g = np.flatnonzero(fails)[0]
        b = bench_group[g]
        if differ[g]:
            own, other = ({entities[e] for e in ge[gid == h].tolist()} for h in (g, b))
            raise gap(gspec[g], "model and benchmark cover different entities: "
                                f"{sorted(own ^ other)}")
        if model_agg[b] == 0.0:
            raise DomainError("benchmark aggregate score is zero; ratio undefined")
        e = ge[(gid == b) & (scores == 0.0)][0]
        raise DomainError(f"benchmark score for entity {entities[e]!r} is zero")

    dist = _quantiles(scores / scores[partner], n_ent)
    bench_agg = model_agg[bench_group]
    for code, v, q, agg, m, b in zip(gspec.tolist(), gweek.tolist(), dist.tolist(),
                                     (model_agg / bench_agg).tolist(),
                                     model_agg.tolist(), bench_agg.tolist()):
        q10, q25, q50, q75, q90 = q
        tables[specs[code]].append(dict(
            phase=phase(v),
            week=v, q10=q10, q25=q25, q50=q50, q75=q75, q90=q90, aggregate=agg,
            model_aggregate=m, benchmark_aggregate=b))
    return tables


def score_table_csv(table_rows) -> str:
    lines = ["phase,week,q10,q25,q50,q75,q90,aggregate"]
    lines += [f"{r['phase']},{r['week']},{r['q10']:.6g},{r['q25']:.6g},{r['q50']:.6g},"
              f"{r['q75']:.6g},{r['q90']:.6g},{r['aggregate']:.6g}" for r in table_rows]
    return "\n".join(lines) + "\n"
