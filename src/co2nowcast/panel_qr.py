"""Penalized panel quantile regression.

Minimizes sum_it rho_tau(y_it - gamma_i - x_it' beta) + lambda * sum_i |a_i|
where the entity intercepts are parameterized as gamma_i = gamma0 + a_i with
an unpenalized common intercept gamma0: shrinkage pulls the entity effects
toward a common value rather than toward zero, so results do not depend on
the location of y. With lambda = 0 the split is degenerate and plain
per-entity intercepts are fitted instead (a_i = gamma_i, gamma0 = 0).

Every instance is solved exactly as a linear program (HiGHS). A
second-stage LP then picks, among the optima, the coefficient vector with the
smallest signed sum, so ties on flat faces are broken deterministically.

Each distinct LP is solved once per process: `_solve` is a bounded
`lru_cache` keyed on the bytes and shape of y, X and the entity index, the
entity count, tau and lambda, which is everything the LP reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .errors import DomainError, LengthError, SingularDesignError, UnknownEntityError
from .panel_ls import DesignRow, _stack  # noqa: F401  (DesignRow re-exported)


@dataclass(frozen=True)
class QuantileSpec:
    tau: float
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise DomainError(f"quantile level tau={self.tau} outside (0, 1)")
        if self.lam < 0.0:
            raise DomainError("shrinkage weight lambda must be >= 0")


@dataclass(frozen=True)
class QuantileModel:
    tau: float
    lam: float
    gamma: dict  # entity -> intercept gamma_i = common + deviation
    common: float
    deviations: dict  # entity -> penalized deviation a_i
    beta: np.ndarray
    labels: tuple
    objective: float


def check_loss(u, tau: float):
    """Pinball loss rho_tau(u) = u * (tau - 1{u < 0})."""
    u = np.asarray(u, dtype=float)
    return u * (tau - (u < 0.0))


def objective_value(y, X, entity_idx, gamma0, a, beta, tau, lam) -> float:
    resid = y - gamma0 - a[entity_idx] - X @ beta
    return float(np.sum(check_loss(resid, tau)) + lam * np.sum(np.abs(a)))


def _encode(rows):
    y, X, entities = _stack(rows)
    ents = sorted(set(entities))
    pos = {e: i for i, e in enumerate(ents)}
    idx = np.array([pos[e] for e in entities], dtype=np.intp)
    return y, X, idx, ents


def _constraint_matrix(X, idx, n_ent, lam):
    """CSC matrix [I, -I, G, -G, X, -X] of the LP's equality constraints,
    built from index arrays: G holds one indicator column per entity, after a
    column of ones for the common intercept when lam > 0. Zeros of X are not
    stored, and row indices ascend within each column."""
    n = X.shape[0]
    g_rows = np.argsort(idx, kind="stable")  # column by column, rows ascending
    g_counts = np.bincount(idx, minlength=n_ent)
    if lam != 0.0:
        g_rows = np.r_[np.arange(n), g_rows]
        g_counts = np.r_[n, g_counts]
    x_cols, x_rows = np.nonzero(X.T)
    x_vals = X[x_rows, x_cols]
    x_counts = np.bincount(x_cols, minlength=X.shape[1])
    rows = np.r_[np.arange(n), np.arange(n), g_rows, g_rows, x_rows, x_rows]
    data = np.r_[np.ones(n), -np.ones(n), np.ones(g_rows.size),
                 -np.ones(g_rows.size), x_vals, -x_vals]
    counts = np.r_[np.ones(2 * n, dtype=int), g_counts, g_counts, x_counts, x_counts]
    indptr = np.r_[0, np.cumsum(counts)]
    return sp.csc_matrix((data, rows, indptr), shape=(n, indptr.size - 1))


def _fit_lp(y, X, idx, n_ent, tau, lam):
    """Exact LP: split residuals and coefficients into positive parts.

    Variable layout: [u+ (n), u- (n), g+ (m), g- (m), b+ (k), b- (k)] where
    the g block holds per-entity intercepts when lam == 0 and
    [gamma0, a_1..a_N] when lam > 0.
    """
    n, k = X.shape
    m = n_ent if lam == 0.0 else n_ent + 1
    A_eq = _constraint_matrix(X, idx, n_ent, lam)
    pen = np.zeros(m) if lam == 0.0 else np.r_[0.0, np.full(n_ent, lam)]
    c = np.r_[
        np.full(n, tau), np.full(n, 1.0 - tau), pen, pen, np.zeros(k), np.zeros(k)
    ]
    res = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=y, method="highs")
    if not res.success:
        raise SingularDesignError(f"quantile LP failed: {res.message}")
    opt = float(res.fun)

    # stage 2: among optimal solutions, minimize the signed sum of the
    # intercepts and slopes (lexicographic tie-break toward small values)
    c2 = np.r_[
        np.zeros(2 * n), np.ones(m), -np.ones(m), np.ones(k), -np.ones(k)
    ]
    cap = opt + 1e-9 * (1.0 + abs(opt))
    res2 = scipy.optimize.linprog(
        c2,
        A_eq=A_eq,
        b_eq=y,
        A_ub=c.reshape(1, -1),
        b_ub=[cap],
        method="highs",
    )
    if res2.success:
        sol = res2.x
    else:
        sol = res.x

    g = sol[2 * n : 2 * n + m] - sol[2 * n + m : 2 * n + 2 * m]
    beta = sol[2 * n + 2 * m : 2 * n + 2 * m + k] - sol[2 * n + 2 * m + k :]
    if lam == 0.0:
        gamma0, a = 0.0, g
    else:
        gamma0, a = float(g[0]), g[1:]
    return gamma0, a, beta


@functools.lru_cache(maxsize=32)
def _solve(y_bytes, X_bytes, shape, idx_bytes, n_ent, tau, lam):
    """`_fit_lp` on arrays rebuilt from the key alone; a and beta read-only.
    At paper shape a key holds at most 233 KB (a 1,326 x 20 direct design),
    so the 32 entries hold at most about 7.5 MB."""
    y = np.frombuffer(y_bytes, dtype=float)
    X = np.frombuffer(X_bytes, dtype=float).reshape(shape)
    idx = np.frombuffer(idx_bytes, dtype=np.intp)
    gamma0, a, beta = _fit_lp(y, X, idx, n_ent, tau, lam)
    a.flags.writeable = False
    beta.flags.writeable = False
    return gamma0, a, beta


def fit_quantile(rows, spec: QuantileSpec, labels=None) -> QuantileModel:
    """Fit one quantile level by the exact LP; `beta` is read-only."""
    y, X, idx, ents = _encode(rows)
    k = X.shape[1]
    if labels is None:
        labels = tuple(f"x{j}" for j in range(k))
    labels = tuple(labels)
    if len(labels) != k:
        raise LengthError(f"{len(labels)} labels for {k} regressors")
    gamma0, a, beta = _solve(y.tobytes(), X.tobytes(), X.shape, idx.tobytes(),
                             len(ents), spec.tau, spec.lam)
    obj = objective_value(y, X, idx, gamma0, a, beta, spec.tau, spec.lam)
    gamma = {e: float(gamma0 + a[i]) for i, e in enumerate(ents)}
    deviations = {e: float(a[i]) for i, e in enumerate(ents)}
    return QuantileModel(
        tau=spec.tau,
        lam=spec.lam,
        gamma=gamma,
        common=gamma0,
        deviations=deviations,
        beta=beta,
        labels=labels,
        objective=obj,
    )


def predict_quantile(model: QuantileModel, entity: str, x) -> float:
    if entity not in model.gamma:
        raise UnknownEntityError(f"entity {entity!r} was not in the training panel")
    x = np.asarray(x, dtype=float)
    if x.shape != model.beta.shape:
        raise DomainError(
            f"regressor length {x.shape} does not match model {model.beta.shape}"
        )
    return float(model.gamma[entity] + x @ model.beta)


def rearrange(quantiles):
    """Sort quantile predictions ascending to undo quantile crossing."""
    q = tuple(float(v) for v in quantiles)
    if not all(np.isfinite(q)):
        raise DomainError("rearrange expects finite values")
    return tuple(sorted(q))
