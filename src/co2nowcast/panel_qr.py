"""Penalized panel quantile regression.

Minimizes sum_it rho_tau(y_it - gamma_i - x_it' beta) + lambda * sum_i |a_i|
where the entity intercepts are parameterized as gamma_i = gamma0 + a_i with
an unpenalized common intercept gamma0: shrinkage pulls the entity effects
toward a common value rather than toward zero, so results do not depend on
the location of y. With lambda = 0 the split is degenerate and plain
per-entity intercepts are fitted instead (a_i = gamma_i, gamma0 = 0).

Every instance is solved exactly by one HiGHS call on the dual LP, the
rank-score form (Koenker & Bassett 1978; Koenker 2005, ch. 6), whose
marginals are an optimal (gamma0, a, beta). Where the optimum is not unique,
the tie rule picks, on the exact optimal face, the coefficients with the
smallest signed sum gamma0 + sum(a) + sum(beta) (sum(gamma) + sum(beta) when
lambda = 0). When the predictions are unique and only the gamma0/a split
slides, that is the largest gamma0 the signs of the a_i admit, in closed
form; on any other flat face one small LP over the face picks the point. The
objective is never relaxed above the optimum.

A design is the record array of `panel_ls.design`; its entities index the
intercepts in sorted order. Each distinct LP is solved once per process:
`_solve` is a bounded `lru_cache` keyed on the bytes and shape of y, X and
the entity index, the entity count, tau and lambda, which is everything the
LP reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import DomainError, SingularDesignError, UnknownEntityError
from .evaluation import pinball
from .panel_ls import _stack


@dataclass(frozen=True)
class QuantileSpec:
    tau: float
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise DomainError(f"quantile level tau={self.tau} outside (0, 1)")
        if not self.lam >= 0.0:
            raise DomainError(f"shrinkage weight lambda={self.lam} must be >= 0")


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


def objective_value(y, X, entity_idx, gamma0, a, beta, tau, lam) -> float:
    resid = y - gamma0 - a[entity_idx] - X @ beta
    return float(np.sum(pinball(resid, tau)) + lam * np.sum(np.abs(a)))


_TOL = 1e-7  # HiGHS feasibility tolerance: a value this close to a bound is at it


def _fit_lp(y, X, idx, n_ent, tau, lam):
    """Exact optimum from one HiGHS solve of the dual, the rank-score form.

    The primal design D holds the intercept columns and then X: one indicator
    column per entity when lam == 0 (coefficients gamma_i), or a column of
    ones and then the indicators when lam > 0 (gamma0, a_1..a_N). The dual is

        min -y'd  s.t.  tau - 1 <= d <= tau,  D_f'd = 0,  |G'd| <= lam,

    where D_f are the free columns (all of D when lam == 0; the ones and X
    when lam > 0) and G the penalized indicators. Its marginals are an
    optimal primal vertex. Complementary slackness with d spans the optimal
    face: rows with d inside the box have zero residual, rows at tau (tau - 1)
    a residual >= 0 (<= 0), an entity with |G_i'd| < lam has a_i = 0, and
    G_i'd = +lam (-lam) gives a_i >= 0 (<= 0). The tie rule picks the point
    of the face with the smallest signed sum of all coefficients.
    """
    n, k = X.shape
    G = np.zeros((n, n_ent))
    G[np.arange(n), idx] = 1.0
    D = np.hstack([G, X]) if lam == 0.0 else np.hstack([np.ones((n, 1)), G, X])
    free = np.ones(D.shape[1], dtype=bool)
    A_ub = b_ub = None
    if lam != 0.0:
        free[1 : 1 + n_ent] = False
        A_ub, b_ub = np.vstack([G.T, -G.T]), np.full(2 * n_ent, lam)
    res = scipy.optimize.linprog(
        -y, A_ub=A_ub, b_ub=b_ub, A_eq=D[:, free].T, b_eq=np.zeros(free.sum()),
        bounds=(tau - 1.0, tau), method="highs",
    )
    if not res.success:
        raise SingularDesignError(f"quantile LP failed: {res.message}")
    d = res.x
    coef = np.empty(D.shape[1])
    coef[free] = -res.eqlin.marginals
    lo = np.where(free, -np.inf, 0.0)  # bounds of each coefficient on the face
    hi = np.where(free, np.inf, 0.0)
    if lam != 0.0:
        mu = res.ineqlin.marginals
        coef[~free] = mu[n_ent:] - mu[:n_ent]
        s, tol = G.T @ d, min(_TOL, 0.5 * lam)  # a tiny lam keeps its signs apart
        lo[~free] = np.where(s <= tol - lam, -np.inf, 0.0)
        hi[~free] = np.where(s >= lam - tol, np.inf, 0.0)
    keep = (lo != 0.0) | (hi != 0.0)  # coefficients not pinned at zero
    coef[~keep] = 0.0
    inner = (d > tau - 1.0 + _TOL) & (d < tau - _TOL)

    # With lam > 0 and no a_i pinned at zero, gamma0 + t, a - t keeps every
    # prediction. If the zero-residual rows pin everything else, that slide is
    # the only tie: the signed sum falls as gamma0 rises (N > 1), so take the
    # largest gamma0 the signs admit, the smallest gamma_i with a_i >= 0.
    slide = lam != 0.0 and keep[1 : 1 + n_ent].all()
    if np.linalg.matrix_rank(D[inner][:, keep]) == keep.sum() - slide:
        if slide:
            gamma = coef[0] + coef[1 : 1 + n_ent]
            coef[0] = gamma[hi[1 : 1 + n_ent] > 0.0].min()
            coef[1 : 1 + n_ent] = gamma - coef[0]
    else:  # a flat face: one small LP over (gamma, beta) picks the point
        upper = ~inner & (d > tau - 0.5)  # d at tau
        lower = ~inner & ~upper  # d at tau - 1
        face = scipy.optimize.linprog(
            np.ones(D.shape[1]),
            A_ub=np.vstack([D[upper], -D[lower]]), b_ub=np.r_[y[upper], -y[lower]],
            A_eq=D[inner], b_eq=y[inner], bounds=np.c_[lo, hi], method="highs",
        )
        if not face.success:  # unbounded: collinear columns of [G X]
            raise SingularDesignError(f"quantile tie-break LP failed: {face.message}")
        coef = face.x
    if lam == 0.0:
        return 0.0, coef[:n_ent], coef[n_ent:]
    return float(coef[0]), coef[1 : 1 + n_ent], coef[1 + n_ent :]


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
    """Fit one quantile level of the design `rows` (see `panel_ls.design`) by
    the exact LP; `beta` is read-only."""
    y, X, labels = _stack(rows, labels)
    ents, idx = np.unique(rows.entity, return_inverse=True)
    ents = ents.tolist()
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
