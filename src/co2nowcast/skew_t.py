"""Generalized skewed Student-t density, CDF, quantile function and the
quantile-matching fit turning three conditional quantiles into a density.

Density (Azzalini & Capitanio form), with z = (x - mu) / sigma:

    f(x) = (2 / sigma) * t_nu(z) * T_{nu+1}(alpha * z * sqrt((nu+1)/(nu+z^2)))

The CDF is computed by substituting u = T_nu(s) in the integral of the
density, which compactifies the tails exactly:

    F(z) = int_0^{T_nu(z)} 2 * T_{nu+1}(alpha * w(T_nu^{-1}(u))) du,
    w(g) = g * sqrt((nu+1) / (nu + g^2)).

The integrand is bounded, approaches constants at u -> 0 and u -> 1 (handled
analytically below a dyadic cutoff), has an algebraic endpoint singularity in
its derivative, and for large |alpha| a sharp transition at u = 1/2; it is
integrated by composite Gauss-Legendre quadrature on panels graded dyadically
toward 0, 1/2 and 1. The breakpoints are one constant (`_BREAKS`), and every
integral that is not all tail starts at the cutoff 2^-30, so the work splits
three ways:

- once per nu: the nodes, weights and factors w(T_nu^{-1}(u)) of every panel
  between two breakpoints (`_interior_panels`);
- once per (alpha, nu): the weighted integrand on those panels and on the
  first panel [2^-30, 2^-29], and the integrand's limits at u -> 0 and u -> 1
  (`_alpha_pieces`); a quantile solve holds alpha fixed through all of its
  CDF calls;
- once per call: T_nu(z), and each z's last panel, which ends at T_nu(z).

Each value is the same elementwise expression wherever it is computed, so
the split changes no float. T_nu, T_nu^{-1} and t_nu are the
`scipy.special` functions that `scipy.stats.t` evaluates, called directly.

The fit matches three quantiles exactly at a fixed nu = 3 (`NU`): three
quantiles identify (mu, sigma, alpha) and leave nu unidentified, so nu is a
choice, not an estimate. It is the smallest nu of the grid
{3, 5, 8, 12, 20, 30} over which the fit once searched. For every nu there the
spacing ratio r of the matched triple is strictly monotone in alpha, and the
ranges are nested (at the quartiles, nu = 3 covers r in [0.3873, 0.6127] and
nu = 30 only [0.4242, 0.5758]). So nu = 3 matches every triple that a larger
nu matches and comes closest to every triple that none matches: a grid
search with ties going to the smallest nu returns nu = 3 for every triple.
Fits are memoised per distinct (levels, values, nu) in a bounded cache: a
benchmark triple, for one, repeats week after week.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import poch, stdtr, stdtrit

from .errors import DomainError, OrderingError

NU = 3.0  # degrees of freedom of every fitted density; see above
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_K_MAX = 30  # dyadic grading depth; tail mass below 2^-_K_MAX added analytically
_EPS = 2.0 ** (-_K_MAX)
# panel breakpoints in u, graded dyadically toward 0, 1/2 and 1 (the
# integrand's transition at u = 1/2 for large |alpha|)
_BREAKS = np.unique(np.concatenate([
    np.ldexp(1.0, -np.arange(1, _K_MAX)), 1.0 - np.ldexp(1.0, -np.arange(1, _K_MAX)),
    0.5 - np.ldexp(1.0, -np.arange(2, 22)), 0.5 + np.ldexp(1.0, -np.arange(2, 22)),
]))
_BREAKS.flags.writeable = False


@dataclass(frozen=True)
class SkewTParams:
    mu: float
    sigma: float
    alpha: float
    nu: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError(f"scale sigma={self.sigma} must be > 0")
        if not self.nu > 0:
            raise DomainError(f"degrees of freedom nu={self.nu} must be > 0")


def _skew_arg(z, alpha, nu):
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        w = z * np.sqrt((nu + 1.0) / (nu + z * z))
    w = np.where(np.isinf(z), np.sign(z) * np.sqrt(nu + 1.0), w)
    return alpha * w


def _t_pdf(z, nu):
    """Student-t density, in the closed form `scipy.stats.t` evaluates."""
    return np.exp(np.log(poch(0.5 * nu, 0.5)) - 0.5 * (np.log(nu) + np.log(np.pi))
                  - (nu + 1) / 2 * np.log1p(z * z / nu))


def _std_pdf(z, alpha, nu):
    return 2.0 * _t_pdf(z, nu) * stdtr(nu + 1.0, _skew_arg(z, alpha, nu))


def _gauss_rule(a, b):
    """Gauss-Legendre nodes and weights on the panels [a_i, b_i], flattened
    panel by panel."""
    mid = 0.5 * (b + a)
    half = 0.5 * (b - a)
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return u, w


@lru_cache(maxsize=16)
def _interior_panels(nu: float):
    """Weights and skew-argument factors w(T_nu^{-1}(u)) at the nodes of every
    panel between consecutive `_BREAKS`; they do not depend on the data."""
    u, w = _gauss_rule(_BREAKS[:-1], _BREAKS[1:])
    wg = _skew_arg(stdtrit(nu, u), 1.0, nu)
    w.flags.writeable = wg.flags.writeable = False
    return w, wg


def _weighted_integrand(a, b, alpha: float, nu: float) -> np.ndarray:
    """Quadrature weight times 2 T_{nu+1}(alpha w(T_nu^{-1}(u))) at the nodes
    of the panels [a_i, b_i], flattened panel by panel."""
    u, w = _gauss_rule(a, b)
    return w * (2.0 * stdtr(nu + 1.0, _skew_arg(stdtrit(nu, u), alpha, nu)))


@lru_cache(maxsize=64)
def _alpha_pieces(alpha: float, nu: float):
    """What every CDF call at (alpha, nu) shares: the weighted integrand at
    the nodes of every interior panel and of the first panel
    [2^-_K_MAX, _BREAKS[0]], and the integrand's limits at u -> 0 and u -> 1
    (the tail constants)."""
    w_in, wg_in = _interior_panels(nu)
    inner = w_in * (2.0 * stdtr(nu + 1.0, alpha * wg_in))
    first = _weighted_integrand(np.array([_EPS]), _BREAKS[:1], alpha, nu)
    inner.flags.writeable = first.flags.writeable = False
    lim_lo = 2.0 * stdtr(nu + 1.0, -alpha * np.sqrt(nu + 1.0))
    lim_hi = 2.0 * stdtr(nu + 1.0, alpha * np.sqrt(nu + 1.0))
    return inner, first, lim_lo, lim_hi


def _std_cdf_many(zs, alpha: float, nu: float) -> np.ndarray:
    """F(z) for a batch of z. Every z whose integral does not end in the
    analytic tail starts with the first panel, runs through the interior
    panels below T_nu(z) and ends in its own last panel; only that last
    panel is evaluated here, the rest comes from `_alpha_pieces`."""
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    uppers = stdtr(nu, zs)
    out = np.zeros(zs.shape)
    inner, first, lim_lo, lim_hi = _alpha_pieces(alpha, nu)
    last_a, last_b, ends, live, tails = [], [], [], [], []
    for j, upper in enumerate(uppers):
        if zs[j] == np.inf or upper >= 1.0:
            out[j] = 1.0
            continue
        if upper <= 0.0:
            continue
        upper = float(upper)
        tail = min(_EPS, upper) * lim_lo
        upper_eff = upper
        hi_tail = upper - (1.0 - _EPS)
        if hi_tail > 0.0:
            tail += hi_tail * lim_hi
            upper_eff = 1.0 - _EPS
        if upper_eff <= _EPS:  # the whole integral is the lower tail
            out[j] = min(tail, 1.0)
            continue
        # the breakpoints inside (2^-_K_MAX, upper_eff) are _BREAKS[:i1]; a
        # NaN z sorts past them all and its NaN last panel makes F NaN
        i1 = int(np.searchsorted(_BREAKS, upper_eff, side="left"))
        last_a.append(_BREAKS[i1 - 1] if i1 else _EPS)
        last_b.append(upper_eff)
        ends.append(i1)
        live.append(j)
        tails.append(tail)
    if live:
        n = len(_GL_NODES)
        last = _weighted_integrand(np.array(last_a), np.array(last_b), alpha,
                                   nu).reshape(-1, n)
        # each z's panels in order, so reduceat sums the same floats in the
        # same order as a per-z rule would
        pieces, offsets = [], [0]
        for k, i1 in enumerate(ends):
            if i1:
                pieces += [first, inner[:(i1 - 1) * n]]
            pieces.append(last[k])
            offsets.append(offsets[-1] + n * (i1 + 1))
        sums = np.add.reduceat(np.concatenate(pieces), np.array(offsets[:-1]))
        out[np.array(live)] = np.clip(sums + np.array(tails), 0.0, 1.0)
    return out


def _std_cdf(z: float, alpha: float, nu: float) -> float:
    if np.isnan(z):
        return np.nan
    return float(_std_cdf_many([z], alpha, nu)[0])


@lru_cache(maxsize=4096)
def _t_ppf(tau: float, nu: float) -> float:
    return float(stdtrit(nu, tau))


def _std_quantiles(taus, alpha: float, nu: float, z0=None) -> np.ndarray:
    """Roots of F(z) = tau, batched safeguarded Newton with bisection.
    `z0` optionally warm-starts the iteration (e.g. from a nearby alpha)."""
    taus = np.asarray(taus, dtype=float)
    lo = np.full(taus.shape, _t_ppf(float(np.min(taus)) / 2.0, nu) - 1.0)
    hi = np.full(taus.shape, _t_ppf(0.5 + float(np.max(taus)) / 2.0, nu) + 1.0)
    for _ in range(200):  # expand until the brackets contain the roots
        ends = _std_cdf_many(np.concatenate([lo, hi]), alpha, nu)
        bad_lo = ends[:len(taus)] > taus
        bad_hi = ends[len(taus):] < taus
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo[bad_lo] = 2.0 * lo[bad_lo] - 1.0
        hi[bad_hi] = 2.0 * hi[bad_hi] + 1.0

    z = 0.5 * (lo + hi)
    if z0 is not None:
        z0 = np.asarray(z0, dtype=float)
        inside = (lo < z0) & (z0 < hi)
        z = np.where(inside, z0, z)
    done = np.zeros(taus.shape, dtype=bool)
    for _ in range(80):
        f = _std_cdf_many(z, alpha, nu) - taus
        done |= np.abs(f) <= 1e-13
        if done.all():
            break
        hi = np.where(f > 0, z, hi)
        lo = np.where(f <= 0, z, lo)
        d = _std_pdf(z, alpha, nu)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_new = z - f / d
        inside = (lo < z_new) & (z_new < hi) & np.isfinite(z_new)
        z_next = np.where(inside, z_new, 0.5 * (lo + hi))
        z = np.where(done, z, z_next)
    return z


def _std_quantile(tau: float, alpha: float, nu: float) -> float:
    return float(_std_quantiles([tau], alpha, nu)[0])


def pdf(p: SkewTParams, x: float):
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    out = _std_pdf(z, p.alpha, p.nu) / p.sigma
    return float(out) if np.isscalar(x) else out


def cdf(p: SkewTParams, x: float) -> float:
    return _std_cdf((float(x) - p.mu) / p.sigma, p.alpha, p.nu)


def quantile(p: SkewTParams, tau: float) -> float:
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau={tau} outside (0, 1)")
    return p.mu + p.sigma * _std_quantile(tau, p.alpha, p.nu)


def _profile_mu_sigma(values, q, sigma_floor):
    """Exact least squares of values on [1, q]; slope is sigma, so the
    location-scale structure makes the inner fit closed-form."""
    q = np.asarray(q)
    qbar = q.mean()
    vbar = values.mean()
    denom = float(np.sum((q - qbar) ** 2))
    if denom <= 0:
        return vbar, sigma_floor
    sigma = float(np.sum((q - qbar) * (values - vbar)) / denom)
    sigma = max(sigma, sigma_floor)
    mu = vbar - sigma * qbar
    return mu, sigma


_ALPHA_GRID = (-32.0, -16.0, -8.0, -4.0, -2.0, -1.0, -0.5, 0.0,
               0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def _spacing_ratio(q):
    return (q[..., 1] - q[..., 0]) / (q[..., 2] - q[..., 0])


@lru_cache(maxsize=64)
def _grid_quantiles(levels: tuple, nu: float) -> np.ndarray:
    """Standardized quantiles at `levels` for every alpha of the grid; they
    do not depend on the data, so every fit at these levels shares them."""
    grid = np.array([_std_quantiles(np.asarray(levels), a, nu) for a in _ALPHA_GRID])
    grid.flags.writeable = False
    return grid


def fit_from_quantiles(levels, values, nu: float = NU) -> SkewTParams:
    """Match three conditional quantiles exactly, at fixed `nu`.

    With (mu, sigma) profiled out in closed form, the match depends on alpha
    only through the spacing ratio r = (v2 - v1) / (v3 - v1), which is
    strictly monotone in alpha. alpha is the root of r(alpha) = r inside the
    grid bracket that holds it; a ratio beyond the grid's range is clamped
    to the nearer end, alpha = +/-32. Fits are memoised per distinct
    (levels, values, nu); an input that is rejected raises on every call.
    """
    return _fit(tuple(float(t) for t in levels), tuple(float(v) for v in values),
                float(nu))


@lru_cache(maxsize=4096)
def _fit(levels: tuple, values: tuple, nu: float) -> SkewTParams:
    values = np.array(values)
    if any(not 0.0 < t < 1.0 for t in levels) or list(levels) != sorted(levels):
        raise DomainError("levels must be ascending and inside (0, 1)")
    if len(levels) != 3 or len(values) != 3:
        raise DomainError(
            f"a skew-t fit needs exactly three quantiles, got {len(levels)} "
            f"levels and {len(values)} values"
        )
    if not np.all(np.isfinite(values)):
        raise DomainError(f"quantile values must be finite, got {values.tolist()}")
    if np.any(np.diff(values) < 0):
        raise OrderingError(f"quantile values not ascending: {values.tolist()}")
    # widen exact ties so the target is strictly ascending
    eps = 1e-9 * max(1.0, abs(float(np.median(values))))
    for j in range(1, len(values)):
        if values[j] <= values[j - 1]:
            values[j] = values[j - 1] + eps
    sigma_floor = max(1e-8 * float(values[-1] - values[0]), 1e-300)
    target = _spacing_ratio(values)

    grid = _grid_quantiles(levels, nu)
    gaps = _spacing_ratio(grid) - target
    for k in range(len(_ALPHA_GRID) - 1):
        if gaps[k] == 0.0:
            alpha, q = _ALPHA_GRID[k], grid[k]
            break
        if gaps[k] * gaps[k + 1] < 0.0:
            # brentq evaluates both ends first: seed them from the grid, and
            # warm-start every later solve from the nearest alpha solved
            solved = {_ALPHA_GRID[k]: grid[k], _ALPHA_GRID[k + 1]: grid[k + 1]}

            def std_quantiles(a):
                if a not in solved:
                    z0 = solved[min(solved, key=lambda b: abs(b - a))]
                    solved[a] = _std_quantiles(np.asarray(levels), a, nu, z0=z0)
                return solved[a]

            alpha = float(brentq(lambda a: _spacing_ratio(std_quantiles(a)) - target,
                                 _ALPHA_GRID[k], _ALPHA_GRID[k + 1],
                                 xtol=1e-10, maxiter=200))
            q = std_quantiles(alpha)
            break
    else:  # r lies beyond the range r(alpha) covers: the nearer end
        k = 0 if abs(gaps[0]) < abs(gaps[-1]) else len(_ALPHA_GRID) - 1
        alpha, q = _ALPHA_GRID[k], grid[k]
    mu, sigma = _profile_mu_sigma(values, q, sigma_floor)
    return SkewTParams(mu=float(mu), sigma=float(sigma), alpha=float(alpha), nu=nu)


def density_grid(p: SkewTParams, n_points: int = 401, span: float = 5.0):
    """(x, pdf) grid over mu +/- span * IQR for CSV export."""
    iqr = quantile(p, 0.75) - quantile(p, 0.25)
    if iqr <= 0:
        iqr = p.sigma
    x = np.linspace(p.mu - span * iqr, p.mu + span * iqr, n_points)
    return x, pdf(p, x)
