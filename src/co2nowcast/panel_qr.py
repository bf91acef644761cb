"""Penalized panel quantile regression.

Minimizes sum_it rho_tau(y_it - gamma_i - x_it' beta) + lambda * sum_i |a_i|
where the entity intercepts are parameterized as gamma_i = gamma0 + a_i with
an unpenalized common intercept gamma0: shrinkage pulls the entity effects
toward a common value rather than toward zero, so results do not depend on
the location of y. With lambda = 0 the split is degenerate and plain
per-entity intercepts are fitted instead (a_i = gamma_i, gamma0 = 0).

Every instance is solved exactly from the dual LP, the rank-score form
(Koenker & Bassett 1978; Koenker 2005, ch. 6), whose optimal solution marks
the rows of zero residual that pin an optimal (gamma0, a, beta). Where the
optimum is not unique, the tie rule picks, on the exact optimal face, the
coefficients with the smallest signed sum gamma0 + sum(a) + sum(beta)
(sum(gamma) + sum(beta) when lambda = 0). When the predictions are unique
and only the gamma0/a split slides, that is the largest gamma0 the signs of
the a_i admit, in closed form; on any other flat face one small LP over the
face picks the point. The objective is never relaxed above the optimum.

Each LP is one HiGHS model, built through SciPy's binding and solved
without presolve (`_highs`). A design is the record array of
`panel_ls.design`; its entities index the intercepts in sorted order. A fit
keeps no result between calls: the pipeline's week store decides which fits
to reuse. The fits of one target year may share one dict of final dual
bases, one per chain of same-sized duals (design shape, entity count, tau,
lambda): each dual solve starts from its chain's basis and leaves its own
there. A fit without the dict solves its dual cold, and a face LP always
starts cold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# the HiGHS binding, reached as an attribute: `from scipy.optimize._highspy
# import _core` runs scipy.optimize's import two frames deeper, which under
# CPython 3.11 was measured to fault about 25,000 more pages (0.2 s) at start
from scipy.optimize import _highspy

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


_TOL = 1e-7  # a value this close to a bound is at it
# HiGHS's feasibility tolerances, below its default 1e-7: without presolve, a
# face LP solved to 1e-7 can end on a basis whose vertex misses its rows'
# bounds by 3e-8, which raises the quantile objective above the optimum
_FEASIBLE = 1e-9


def _highs(cost, A, row_lo, row_hi, col_lo, col_hi, basis=None, what="quantile LP"):
    """min cost'x s.t. row_lo <= A x <= row_hi and col_lo <= x <= col_hi, by
    one HiGHS solve without presolve, from `basis` (a `HighsBasis` of an LP
    of the same size) if given. Returns x and the final basis; raises
    `SingularDesignError` unless the LP is solved to optimality."""
    m, n = A.shape
    j, i = np.nonzero(A.T)  # column-wise: the rows of each column in turn
    lp = _highspy._core.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, col_lo, col_hi
    lp.row_lower_, lp.row_upper_ = row_lo, row_hi
    mat = lp.a_matrix_
    mat.format_, mat.num_col_, mat.num_row_ = _highspy._core.MatrixFormat.kColwise, n, m
    mat.start_ = np.searchsorted(j, np.arange(n + 1)).astype(np.int32)
    mat.index_, mat.value_ = i.astype(np.int32), A[i, j]
    highs = _highspy._core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    for tolerance in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
        highs.setOptionValue(tolerance, _FEASIBLE)
    highs.passModel(lp)
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    status = highs.getModelStatus()
    if status != _highspy._core.HighsModelStatus.kOptimal:
        raise SingularDesignError(f"{what} failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value), highs.getBasis()


def _fit_lp(y, X, idx, n_ent, tau, lam, basis=None):
    """Exact optimum from one HiGHS solve of the dual, the rank-score form,
    started from `basis` if given; returns (gamma0, a, beta), a and beta
    read-only, and the dual's final basis.

    The primal design D holds the intercept columns and then X: one indicator
    column per entity when lam == 0 (coefficients gamma_i), or a column of
    ones and then the indicators when lam > 0 (gamma0, a_1..a_N). The dual is

        min -y'd  s.t.  tau - 1 <= d <= tau,  D_f'd = 0,  |G'd| <= lam,

    one row per column of D, where D_f are the free columns (all of D when
    lam == 0; the ones and X when lam > 0) and G the penalized indicators.
    Complementary slackness with an optimal d spans the optimal face of the
    primal: rows with d inside the box have zero residual, rows at tau
    (tau - 1) a residual >= 0 (<= 0), an entity with |G_i'd| < lam has
    a_i = 0, and G_i'd = +lam (-lam) gives a_i >= 0 (<= 0). The point is
    solved from the zero-residual rows by least squares, not read from the
    row duals, which carry the rounding of the final basis (a warm start's
    more than a cold one's): it depends only on which rows pin it. The tie
    rule picks the point of the face with the smallest signed sum of all
    coefficients.
    """
    n, k = X.shape
    G = np.zeros((n, n_ent))
    G[np.arange(n), idx] = 1.0
    D = np.hstack([G, X]) if lam == 0.0 else np.hstack([np.ones((n, 1)), G, X])
    free = np.ones(D.shape[1], dtype=bool)
    if lam != 0.0:
        free[1 : 1 + n_ent] = False
    bound = np.where(free, 0.0, lam)
    d, basis = _highs(-y, D.T, -bound, bound, np.full(n, tau - 1.0), np.full(n, tau),
                      basis)
    lo = np.where(free, -np.inf, 0.0)  # bounds of each coefficient on the face
    hi = np.where(free, np.inf, 0.0)
    if lam != 0.0:
        s, tol = G.T @ d, min(_TOL, 0.5 * lam)  # a tiny lam keeps its signs apart
        lo[~free] = np.where(s <= tol - lam, -np.inf, 0.0)
        hi[~free] = np.where(s >= lam - tol, np.inf, 0.0)
    keep = (lo != 0.0) | (hi != 0.0)  # coefficients not pinned at zero
    inner = (d > tau - 1.0 + _TOL) & (d < tau - _TOL)

    # With lam > 0 and no a_i pinned at zero, gamma0 + t, a - t keeps every
    # prediction. If the zero-residual rows pin everything else, that slide is
    # the only tie: the signed sum falls as gamma0 rises (N > 1), so take the
    # largest gamma0 the signs admit, the smallest gamma_i with a_i >= 0.
    slide = lam != 0.0 and keep[1 : 1 + n_ent].all()
    pinned, _, rank, _ = np.linalg.lstsq(D[inner][:, keep], y[inner], rcond=None)
    if rank == keep.sum() - slide:
        coef = np.zeros(D.shape[1])
        coef[keep] = pinned  # least norm along the slide, which keeps gamma
        if slide:
            gamma = coef[0] + coef[1 : 1 + n_ent]
            coef[0] = gamma[hi[1 : 1 + n_ent] > 0.0].min()
            coef[1 : 1 + n_ent] = gamma - coef[0]
    else:  # a flat face: one small LP over (gamma, beta) picks the point
        # a row with d at tau (tau - 1) keeps its residual >= 0 (<= 0)
        upper = ~inner & (d > tau - 0.5)
        lower = ~inner & ~upper
        _, face = _highs(np.ones(D.shape[1]), D, np.where(upper, -np.inf, y),
                         np.where(lower, np.inf, y), lo, hi,
                         what="quantile tie-break LP")  # unbounded: collinear [G X]
        # the vertex of its final basis, solved afresh: the rows the basis
        # holds at a bound have zero residual, and every coefficient outside
        # it sits at its one finite bound, 0
        basic = _highspy._core.HighsBasisStatus.kBasic
        at = np.array([s != basic for s in face.row_status])
        on = np.array([s == basic for s in face.col_status])
        coef = np.zeros(D.shape[1])
        coef[on] = np.linalg.solve(D[at][:, on], y[at])
    coef.flags.writeable = False
    if lam == 0.0:
        return (0.0, coef[:n_ent], coef[n_ent:]), basis
    return (float(coef[0]), coef[1 : 1 + n_ent], coef[1 + n_ent :]), basis


def fit_quantile(rows, spec: QuantileSpec, labels=None, lp=None) -> QuantileModel:
    """Fit one quantile level of the design `rows` (see `panel_ls.design`) by
    the exact LP. `lp`, if given, is the target year's dict of final dual
    bases per chain: the dual solve starts from its chain's basis and, if it
    succeeds, leaves its own there. `beta` is read-only."""
    y, X, labels = _stack(rows, labels)
    ents, idx = np.unique(rows.entity, return_inverse=True)
    ents = ents.tolist()
    chain = X.shape, len(ents), spec.tau, spec.lam
    (gamma0, a, beta), basis = _fit_lp(y, X, idx, len(ents), spec.tau, spec.lam,
                                       None if lp is None else lp.get(chain))
    if lp is not None:
        lp[chain] = basis
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
