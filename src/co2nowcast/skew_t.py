"""Generalized skewed Student-t density, CDF, quantile function and the
quantile-matching fit turning three conditional quantiles into a density.

Density (Azzalini & Capitanio form), with z = (x - mu) / sigma:

    f(x) = (2 / sigma) * t_nu(z) * T_{nu+1}(alpha * z * sqrt((nu+1)/(nu+z^2)))

The CDF is closed-form. Take (X0, X1) bivariate t_nu with correlation
delta = alpha / sqrt(1 + alpha^2); X1 given X0 > 0 is the skew-t (Azzalini &
Capitanio 2003, JRSS-B 65), so

    F(z) = 2 * T_2(z, 0; -delta, nu),

twice a bivariate t probability. At integer nu that is a finite sum (Dunnett
& Sobel 1954, Biometrika 41); `_std_cdf_many` evaluates it with Genz's
recurrence (2004, Statistics and Computing 14) at upper limit 0, vectorised
over z, for odd and even nu: at nu = 3 it is one `arctan2` plus one term.
Against a 20-digit integral it is within a few 1e-16 absolute. In the far
lower tail the terms cancel, so F is accurate in absolute terms only: at
z = -1e6, nu = 5 and alpha = 5 it gives 1.5e-22 against 1.7e-34. At
alpha = 0, F is T_nu for any nu; any other non-integer nu raises
`DomainError`. The same representation gives the derivative in alpha,

    dF/dalpha = -(1/pi) / (1 + alpha^2) * (1 + z^2 (1 + alpha^2) / nu)^(-nu/2).

The fit matches three quantiles exactly at a fixed nu = 3 (`NU`): three
quantiles identify (mu, sigma, alpha) and leave nu unidentified, so nu is a
choice, not an estimate. It is the smallest nu of the grid
{3, 5, 8, 12, 20, 30} over which the fit once searched. For every nu there the
spacing ratio r of the matched triple is strictly monotone in alpha, and the
ranges are nested (at the quartiles, nu = 3 covers r in [0.3873, 0.6127] and
nu = 30 only [0.4242, 0.5758]). So nu = 3 matches every triple that a larger
nu matches and comes closest to every triple that none matches: a grid
search with ties going to the smallest nu returns nu = 3 for every triple.

alpha is found by one joint Newton iteration on (alpha, z1, z2, z3), the
skew and the three standardized quantiles, inside the bracket of
`_ALPHA_GRID` that holds the ratio (`_solve_alpha`). The pdf and dF/dalpha
linearise each quantile in alpha, so a step is one scalar equation for
the change in alpha. A step that would leave the bracket, or that follows
a step which failed to shrink the ratio residual, is replaced by
bisection; the bracket ends move only on a residual whose sign the
quantiles' own error cannot flip. So alpha never leaves the bracket, the
bracket always holds the root, and the final quantiles are polished at
that alpha to |F(q) - tau| <= 1e-13. Fits are memoised per
distinct (levels, values, nu) in a bounded cache: a benchmark triple, for
one, repeats week after week.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import poch, stdtr, stdtrit

from .errors import DomainError, OrderingError

NU = 3.0  # degrees of freedom of every fitted density; see above


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


def _std_cdf_many(zs, alpha: float, nu: float) -> np.ndarray:
    """F(z) for a batch of z: 2 T_2(z, 0; -delta, nu) by Genz's recurrence,
    written in alpha so that no 1 - delta^2 is formed. NaN stays NaN."""
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if alpha == 0.0:
        return stdtr(nu, zs)
    if not float(nu).is_integer():
        raise DomainError(f"the skew-t CDF needs an integer nu when alpha != 0, got nu={nu}")
    n, rnu = int(nu), np.sqrt(nu)
    az = alpha * zs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.hypot(zs, rnu)                            # sqrt(nu + z^2)
        s = np.hypot(zs * np.hypot(1.0, alpha), rnu)     # sqrt(nu + z^2 (1 + alpha^2))
        c = (h / s) ** 2
        shrink = (rnu / h) ** 2                          # 1 / (1 + z^2 / nu)
        if n % 2:
            # s + alpha z without cancellation when alpha z < 0
            p = np.where(az >= 0.0, s + az, h * (h / (s - az)))
            half = np.arctan2(rnu * (p / s), alpha * nu / s - zs) / (2.0 * np.pi)
            a = b = az / s
            g = (zs / h) * (rnu / h) / (2.0 * np.pi)
            for j in range(1, (n - 1) // 2 + 1):
                half = half + g * (1.0 + a)
                b = b * ((2 * j - 1) / (2 * j) * c)
                a = a + b
                g = g * (2 * j / (2 * j + 1) * shrink)
        else:
            half = np.arctan2(1.0, alpha) / (2.0 * np.pi)
            a = (2.0 / np.pi) * np.arctan(az / h)
            b = (2.0 / np.pi) * (az / s) * (h / s)
            g = zs / (4.0 * h)
            for j in range(1, n // 2 + 1):
                half = half + g * (1.0 + a)
                a = a + b
                b = b * (2 * j / (2 * j + 1) * c)
                g = g * ((2 * j - 1) / (2 * j) * shrink)
    out = np.clip(2.0 * half, 0.0, 1.0)
    out[np.isinf(zs)] = zs[np.isinf(zs)] > 0
    return out


def _std_cdf_dalpha(z, alpha: float, nu: float) -> np.ndarray:
    """dF/dalpha at z, in closed form (see the module docstring)."""
    z = np.asarray(z, dtype=float)
    return -(1.0 + z * z * (1.0 + alpha * alpha) / nu) ** (-0.5 * nu) / (
        np.pi * (1.0 + alpha * alpha))


@lru_cache(maxsize=4096)
def _t_ppf(tau: float, nu: float) -> float:
    return float(stdtrit(nu, tau))


def _std_quantiles(taus, alpha: float, nu: float, z0=None) -> np.ndarray:
    """Roots of F(z) = tau, batched safeguarded Newton with bisection.
    F falls in alpha from min(2 T_nu(z), 1) (alpha -> -inf) through T_nu(z)
    to max(2 T_nu(z) - 1, 0) (alpha -> +inf), so every root lies between the
    t_nu quantiles at min(tau) / 2 and (1 + max(tau)) / 2, widened by 1.
    `z0` optionally warm-starts the iteration (e.g. from a nearby alpha).
    At alpha = 0 the roots are the t_nu quantiles themselves."""
    taus = np.asarray(taus, dtype=float)
    if alpha == 0.0:
        return stdtrit(nu, taus)
    lo = np.full(taus.shape, _t_ppf(float(np.min(taus)) / 2.0, nu) - 1.0)
    hi = np.full(taus.shape, _t_ppf(0.5 + float(np.max(taus)) / 2.0, nu) + 1.0)
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


def pdf(p: SkewTParams, x: float):
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    out = _std_pdf(z, p.alpha, p.nu) / p.sigma
    return float(out) if np.isscalar(x) else out


def cdf(p: SkewTParams, x: float) -> float:
    return float(_std_cdf_many((float(x) - p.mu) / p.sigma, p.alpha, p.nu)[0])


def quantile(p: SkewTParams, tau: float) -> float:
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau={tau} outside (0, 1)")
    return p.mu + p.sigma * float(_std_quantiles([tau], p.alpha, p.nu)[0])


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


def _solve_alpha(levels: tuple, target: float, k: int, nu: float):
    """The alpha in (_ALPHA_GRID[k], _ALPHA_GRID[k + 1]) whose quantiles at
    `levels` have spacing ratio `target`, and those quantiles.

    One Newton iteration on (alpha, z): at the current point, zq = z - f / pdf
    are the quantiles corrected at fixed alpha and -dF/dalpha / pdf their
    slopes in alpha, so the ratio equation is linear in the step. zq is off
    by less than max(f / pdf)^2 (measured: below 0.97 times it), so a
    residual beyond 8 times that plus 1e-14 (rounding) has the sign of the
    exact one and may move a bracket end; the ratio falls in alpha. The
    iteration stops after a step below 1e-8 relative (its error is second
    order), or once the residual is down to rounding.
    """
    taus = np.asarray(levels)
    grid = _grid_quantiles(levels, nu)
    lo, hi = _ALPHA_GRID[k], _ALPHA_GRID[k + 1]
    r_lo, r_hi = _spacing_ratio(grid[k]), _spacing_ratio(grid[k + 1])
    w = (r_lo - target) / (r_lo - r_hi)  # regula falsi on the grid
    alpha = lo + w * (hi - lo)
    z = grid[k] + w * (grid[k + 1] - grid[k])
    prev = np.inf  # the residual before the last Newton step
    for _ in range(100):
        dens = _std_pdf(z, alpha, nu)
        dz = (_std_cdf_many(z, alpha, nu) - taus) / dens
        zq = z - dz
        slope = -_std_cdf_dalpha(z, alpha, nu) / dens
        gap = (zq[1] - zq[0]) - target * (zq[2] - zq[0])
        dgap = (slope[1] - slope[0]) - target * (slope[2] - slope[0])
        if abs(gap) > 8.0 * float(np.max(dz * dz)) + 1e-14:
            if gap > 0.0:  # ratio above target: the root lies at larger alpha
                lo = alpha
            else:
                hi = alpha
        elif np.max(np.abs(dz)) <= 1e-8:
            z = zq
            break
        new = alpha - gap / dgap
        # bisect when the step leaves the bracket or the last one failed
        bisect = not lo < new < hi or abs(gap) >= prev
        prev = np.inf if bisect else abs(gap)
        if bisect:
            new = 0.5 * (lo + hi)
        step = new - alpha
        z = zq + slope * step
        alpha = new
        if abs(step) <= 1e-8 * max(1.0, abs(alpha)) and np.max(np.abs(dz)) <= 1e-8:
            break
    return alpha, _std_quantiles(taus, alpha, nu, z0=z)


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
            alpha, q = _solve_alpha(levels, target, k, nu)
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
