"""Panel least squares with entity fixed effects (within estimator).

Each distinct design is fitted once per process: `_fit` is a bounded
`lru_cache` keyed on the bytes and shape of y and X, the row entities and the
labels (which the rank-deficiency message names), everything the fit reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
class DesignRow:
    entity: str
    year: int
    y: float
    x: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FixedEffectsModel:
    alpha: dict  # entity -> intercept
    beta: np.ndarray
    labels: tuple


def _stack(rows):
    rows = list(rows)
    if not rows:
        raise SingularDesignError("empty design")
    k = len(rows[0].x)
    if any(len(r.x) != k for r in rows):
        raise LengthError("regressor length varies across design rows")
    y = np.array([r.y for r in rows], dtype=float)
    X = np.array([r.x for r in rows], dtype=float).reshape(len(rows), k)
    entities = [r.entity for r in rows]
    return y, X, entities


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
    """Slopes from within-entity demeaned least squares.

    Numerically equivalent to dummy-variable OLS; intercepts recovered as
    alpha_i = mean_i(y) - mean_i(x)' beta. Unbalanced panels are allowed;
    each entity is demeaned on its own rows. `beta` is read-only.
    """
    y, X, entities = _stack(rows)
    k = X.shape[1]
    if labels is None:
        labels = tuple(f"x{j}" for j in range(k))
    labels = tuple(labels)
    if len(labels) != k:
        raise LengthError(f"{len(labels)} labels for {k} regressors")
    alpha, beta = _fit(y.tobytes(), X.tobytes(), X.shape, tuple(entities), labels)
    return FixedEffectsModel(alpha=dict(alpha), beta=beta, labels=labels)


@functools.lru_cache(maxsize=32)
def _fit(y_bytes, X_bytes, shape, entities, labels):
    """The within fit on arrays rebuilt from the key alone: (alpha items,
    read-only beta). At paper shape a key holds at most 231 KB (a 1,377 x 19
    energy design), so the 32 entries hold at most about 7.5 MB."""
    y = np.frombuffer(y_bytes, dtype=float)
    X = np.frombuffer(X_bytes, dtype=float).reshape(shape)
    groups: dict = {}
    for i, e in enumerate(entities):
        groups.setdefault(e, []).append(i)
    for e, idx in groups.items():
        if len(idx) < 2:
            raise DegenerateEntityError(
                f"entity {e!r} has {len(idx)} row(s); need >= 2 for fixed effects"
            )

    yd = y.copy()
    Xd = X.copy()
    means = {}
    for e, idx in groups.items():
        idx = np.array(idx)
        ybar = y[idx].mean()
        xbar = X[idx].mean(axis=0)
        yd[idx] -= ybar
        Xd[idx] -= xbar
        means[e] = (ybar, xbar)

    beta = _solve_pivoted(Xd, yd, labels)
    beta.flags.writeable = False
    alpha = tuple((e, float(ybar - xbar @ beta)) for e, (ybar, xbar) in means.items())
    return alpha, beta


def predict(model: FixedEffectsModel, entity: str, x) -> float:
    if entity not in model.alpha:
        raise UnknownEntityError(f"entity {entity!r} was not in the training panel")
    x = np.asarray(x, dtype=float)
    if x.shape != model.beta.shape:
        raise LengthError(
            f"regressor length {x.shape} does not match model {model.beta.shape}"
        )
    return float(model.alpha[entity] + x @ model.beta)
