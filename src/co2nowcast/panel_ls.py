"""Panel least squares with entity fixed effects (within estimator).

A design is one numpy record array, one record per observation, with fields
`entity` (the name), `year`, `y` and `x` (the k regressors); `design` builds
it from one array per field, and the fits read its `y` and `x` columns whole.

A fit keeps no state between calls: each call fits its design afresh, and
the pipeline's week store decides which fits to reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateEntityError,
    LengthError,
    SingularDesignError,
    UnknownEntityError,
)

RANK_TOL = 1e-10  # relative to the largest pivot of the demeaned design


@dataclass(frozen=True)
class FixedEffectsModel:
    alpha: dict  # entity -> intercept
    beta: np.ndarray
    labels: tuple


def design(entity, year, y, X) -> np.recarray:
    """The design of observations (entity[i], year[i], y[i], X[i]) as one
    record array; `X` is (observation, regressor)."""
    entity, year = np.asarray(entity, dtype=str), np.asarray(year, dtype=np.int64)
    y = np.asarray(y, dtype=float)
    if not y.size:
        raise SingularDesignError("empty design")
    try:
        X = np.asarray(X, dtype=float)
    except ValueError as exc:  # rows of different lengths
        raise LengthError("regressor length varies across design rows") from exc
    if X.ndim != 2 or not len(entity) == len(year) == len(y) == len(X):
        raise LengthError(f"design columns of lengths {len(entity)}, {len(year)}, "
                          f"{len(y)} and regressors of shape {X.shape}")
    rows = np.empty(len(y), dtype=[("entity", entity.dtype), ("year", np.int64),
                                   ("y", float), ("x", float, X.shape[1:])])
    rows["entity"], rows["year"], rows["y"], rows["x"] = entity, year, y, X
    return rows.view(np.recarray)


def _stack(rows, labels):
    """A design's y and X as contiguous arrays, and its k regressor labels."""
    if not len(rows):
        raise SingularDesignError("empty design")
    y, X = np.ascontiguousarray(rows.y), np.ascontiguousarray(rows.x)
    k = X.shape[1]
    labels = tuple(f"x{j}" for j in range(k)) if labels is None else tuple(labels)
    if len(labels) != k:
        raise LengthError(f"{len(labels)} labels for {k} regressors")
    return y, X, labels


def _solve_pivoted(X, y, labels):
    """Least squares via column-pivoted QR with a deterministic rank check."""
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        raise SingularDesignError(f"all-zero design; columns {list(labels)}")
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    if rank < X.shape[1]:
        dropped = [labels[j] for j in piv[rank:]]
        raise SingularDesignError(
            f"rank-deficient design (rank {rank} of {X.shape[1]}); "
            f"collinear columns: {dropped}"
        )
    rhs = Q.T @ y
    beta_piv = scipy.linalg.solve_triangular(R, rhs)
    beta = np.empty_like(beta_piv)
    beta[piv] = beta_piv
    return beta


def fit_within(rows, labels=None) -> FixedEffectsModel:
    """Slopes from within-entity demeaned least squares on the design `rows`.

    Numerically equivalent to dummy-variable OLS; intercepts recovered as
    alpha_i = mean_i(y) - mean_i(x)' beta. Unbalanced panels are allowed;
    each entity is demeaned on its own rows. `beta` is read-only.
    """
    y, X, labels = _stack(rows, labels)
    names, idx, counts = np.unique(rows.entity, return_inverse=True, return_counts=True)
    if counts.min() < 2:
        i = counts.argmin()
        raise DegenerateEntityError(
            f"entity {names[i].item()!r} has {counts[i]} row(s); "
            "need >= 2 for fixed effects")
    # a stable sort keeps each entity's rows in row order, the order its means sum
    groups = np.split(np.argsort(idx, kind="stable"), np.cumsum(counts)[:-1])
    ybar = [y[g].mean() for g in groups]
    xbar = [X[g].mean(axis=0) for g in groups]
    beta = _solve_pivoted(X - np.array(xbar)[idx], y - np.array(ybar)[idx], labels)
    beta.flags.writeable = False
    alpha = {e: float(yb - xb @ beta) for e, yb, xb in zip(names.tolist(), ybar, xbar)}
    return FixedEffectsModel(alpha=alpha, beta=beta, labels=labels)


def predict(model: FixedEffectsModel, entity: str, x) -> float:
    if entity not in model.alpha:
        raise UnknownEntityError(f"entity {entity!r} was not in the training panel")
    x = np.asarray(x, dtype=float)
    if x.shape != model.beta.shape:
        raise LengthError(
            f"regressor length {x.shape} does not match model {model.beta.shape}"
        )
    return float(model.alpha[entity] + x @ model.beta)
