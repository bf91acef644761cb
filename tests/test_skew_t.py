import mpmath
import numpy as np
import pytest
import scipy.integrate
from scipy import optimize
from scipy.stats import t as student_t

from co2nowcast import skew_t
from co2nowcast.errors import DomainError, OrderingError
from co2nowcast.skew_t import (
    SkewTParams,
    cdf,
    density_grid,
    fit_from_quantiles,
    pdf,
    quantile,
)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            SkewTParams(mu=0.0, sigma=0.0, alpha=0.0, nu=5.0)
        with pytest.raises(DomainError):
            SkewTParams(mu=0.0, sigma=1.0, alpha=0.0, nu=-1.0)


class TestPdf:
    def test_cauchy_at_center(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=0.0, nu=1.0)
        assert pdf(p, 0.0) == pytest.approx(1.0 / np.pi, abs=1e-12)

    def test_symmetric_center_matches_student_t(self):
        p = SkewTParams(mu=2.0, sigma=1.7, alpha=0.0, nu=6.0)
        assert pdf(p, 2.0) == pytest.approx(student_t.pdf(0.0, 6.0) / 1.7)

    def test_integrates_to_one(self):
        p = SkewTParams(mu=0.3, sigma=1.7, alpha=4.0, nu=6.0)
        total, _ = scipy.integrate.quad(
            lambda x: pdf(p, x), 0.3 - 40 * 1.7, 0.3 + 40 * 1.7, limit=200
        )
        assert 0.999 <= total <= 1.001

    def test_nonnegative(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=-3.0, nu=4.0)
        x = np.linspace(-20, 20, 101)
        assert np.all(pdf(p, x) >= 0.0)


class TestCdf:
    def test_symmetric_center_is_half(self):
        p = SkewTParams(mu=1.2, sigma=0.8, alpha=0.0, nu=7.0)
        assert cdf(p, 1.2) == pytest.approx(0.5, abs=1e-12)

    def test_tail_limits(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=2.0, nu=8.0)
        assert cdf(p, -40.0) == pytest.approx(0.0, abs=1e-6)
        assert cdf(p, 40.0) == pytest.approx(1.0, abs=1e-6)

    def test_against_quadrature_oracle(self):
        # sign and value of the skewed CDF fixed by direct integration
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=3.0, nu=5.0)
        for z in (-1.5, 0.0, 0.7, 2.0):
            oracle, _ = scipy.integrate.quad(
                lambda x: pdf(p, x), -60.0, z, limit=400
            )
            assert cdf(p, z) == pytest.approx(oracle, abs=1e-9)
        assert cdf(p, 0.0) < 0.5  # right skew moves mass right of the location

    def test_monotone(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=-2.0, nu=4.0)
        xs = np.linspace(-6, 6, 25)
        vals = [cdf(p, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_pdf(self):
        p = SkewTParams(mu=0.1, sigma=1.3, alpha=1.5, nu=6.0)
        h = 1e-5
        for x in np.linspace(-3, 3, 20):
            deriv = (cdf(p, x + h) - cdf(p, x - h)) / (2 * h)
            assert deriv == pytest.approx(pdf(p, x), rel=1e-5)


class TestQuantile:
    def test_symmetric_median_is_mu(self):
        p = SkewTParams(mu=-0.7, sigma=2.0, alpha=0.0, nu=5.0)
        assert quantile(p, 0.5) == pytest.approx(-0.7, abs=1e-9)

    def test_normal_limit(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=0.0, nu=1e6)
        assert quantile(p, 0.975) == pytest.approx(1.95996, abs=1e-3)

    def test_cdf_round_trip(self):
        p = SkewTParams(mu=0.5, sigma=1.2, alpha=2.5, nu=6.0)
        for tau in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert cdf(p, quantile(p, tau)) == pytest.approx(tau, abs=1e-9)

    def test_quantile_round_trip(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=-4.0, nu=8.0)
        for x in (-2.0, 0.3, 1.5):
            assert quantile(p, cdf(p, x)) == pytest.approx(x, abs=1e-8)

    def test_strictly_increasing(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=1.0, nu=5.0)
        qs = [quantile(p, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_tau_domain(self):
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=0.0, nu=5.0)
        with pytest.raises(DomainError):
            quantile(p, 1.0)


LEVELS = (0.25, 0.5, 0.75)


class TestFitFromQuantiles:
    def test_recovers_generating_parameters(self):
        # with nu pinned, three matched quantiles identify (mu, sigma, alpha)
        truth = SkewTParams(mu=0.0, sigma=1.0, alpha=3.0, nu=8.0)
        values = [quantile(truth, t) for t in LEVELS]
        fit = fit_from_quantiles(LEVELS, values, nu=8.0)
        assert fit.mu == pytest.approx(truth.mu, abs=1e-3)
        assert fit.sigma == pytest.approx(truth.sigma, abs=1e-3)
        assert fit.alpha == pytest.approx(truth.alpha, abs=1e-3)

    def test_symmetric_input_gives_no_skew(self):
        q = 0.6745
        fit = fit_from_quantiles(LEVELS, (-q, 0.0, q), nu=8.0)
        assert abs(fit.alpha) < 1e-3
        assert abs(fit.mu) < 1e-3

    def test_normal_quartiles_near_standard_normal(self):
        # conditional on the heaviest-tailed grid entry being excluded, the
        # normal quartiles 0.67449 give back roughly a unit scale
        fit = fit_from_quantiles(LEVELS, (-0.6745, 0.0, 0.6745), nu=30.0)
        assert fit.mu == pytest.approx(0.0, abs=0.02)
        assert fit.sigma == pytest.approx(1.0, rel=0.02)

    def test_exact_match_objective(self):
        truth = SkewTParams(mu=0.4, sigma=0.7, alpha=-2.0, nu=5.0)
        values = [quantile(truth, t) for t in LEVELS]
        fit = fit_from_quantiles(LEVELS, values, nu=5.0)
        scale2 = max(1.0, max(abs(v) for v in values)) ** 2
        assert _residual(fit, values) <= 1e-12 * scale2

    def test_location_scale_equivariance(self):
        values = np.array([-0.8, 0.1, 1.3])
        base = fit_from_quantiles(LEVELS, values, nu=8.0)
        moved = fit_from_quantiles(LEVELS, 2.0 + 3.0 * values, nu=8.0)
        assert moved.mu == pytest.approx(2.0 + 3.0 * base.mu, abs=1e-6)
        assert moved.sigma == pytest.approx(3.0 * base.sigma, rel=1e-6)
        assert moved.alpha == pytest.approx(base.alpha, abs=1e-4)
        assert moved.nu == base.nu

    def test_descending_values_rejected(self):
        with pytest.raises(OrderingError):
            fit_from_quantiles(LEVELS, (1.0, 0.5, 2.0))

    def test_tied_values_widened_not_rejected(self):
        fit = fit_from_quantiles(LEVELS, (0.0, 0.0, 1.0), nu=8.0)
        assert fit.sigma > 0

    def test_bad_levels(self):
        with pytest.raises(DomainError):
            fit_from_quantiles((0.5, 0.25, 0.75), (0.0, 1.0, 2.0))

    def test_default_nu_fits_at_least_as_well_as_larger_nu(self):
        # r(alpha) ranges are nested in nu, so nu = 3 matches every triple a
        # larger nu matches and comes closest to those none matches
        rng = np.random.default_rng(5)
        ratios = [0.45, 0.52, 0.40, 0.60, 0.30, 0.36, 0.65, 0.70]
        for r in ratios:
            lo, width = rng.normal(0.0, 2.0), float(np.exp(rng.normal()))
            values = (lo, lo + r * width, lo + width)
            scale2 = max(1.0, max(abs(v) for v in values)) ** 2
            best = _residual(fit_from_quantiles(LEVELS, values), values)
            for nu in (5.0, 8.0, 12.0, 20.0, 30.0):
                other = _residual(fit_from_quantiles(LEVELS, values, nu=nu), values)
                assert best <= other + 1e-12 * scale2, (r, nu)

    def test_ratio_above_range_clamps_to_left_skew(self):
        # r = 0.7 > 0.6127, the widest ratio nu = 3 reaches
        fit = fit_from_quantiles(LEVELS, (0.0, 0.7, 1.0))
        assert fit.alpha == -32.0 and fit.nu == 3.0

    def test_ratio_below_range_clamps_to_right_skew(self):
        # r = 0.3 < 0.3873, the narrowest ratio nu = 3 reaches
        fit = fit_from_quantiles(LEVELS, (0.0, 0.3, 1.0))
        assert fit.alpha == 32.0 and fit.nu == 3.0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_other_level_counts_rejected(self, n):
        levels = tuple(np.linspace(0.1, 0.9, n)) if n > 1 else (0.5,)
        with pytest.raises(DomainError, match="three"):
            fit_from_quantiles(levels, tuple(range(n)))

    @pytest.mark.parametrize("values", [
        (0.0, np.nan, 1.0), (0.0, 0.5, np.inf), (-np.inf, 0.0, 1.0),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, values):
        # rejected before the search, which would warn or blame sigma
        with pytest.raises(DomainError, match="must be finite"):
            fit_from_quantiles(LEVELS, values)


def _residual(fit, values, levels=LEVELS):
    """Squared distance between the fitted and the target quantiles."""
    return sum((quantile(fit, t) - v) ** 2 for t, v in zip(levels, values))


def test_density_grid_normalization():
    p = SkewTParams(mu=0.2, sigma=0.5, alpha=2.0, nu=8.0)
    x, fx = density_grid(p)
    assert len(x) == 401 and len(fx) == 401
    total = np.trapezoid(fx, x)
    assert total == pytest.approx(1.0, abs=1e-2)


def _student_cdf(x, m):
    """T_m(x) at integer m, in mpmath (Abramowitz & Stegun 26.7.3-4)."""
    th = mpmath.atan(x / mpmath.sqrt(m))
    s, c = mpmath.sin(th), mpmath.cos(th)
    if m % 2:
        term = total = c if m > 1 else mpmath.mpf(0)
        for k in range(1, (m - 3) // 2 + 1):
            term *= c * c * 2 * k / (2 * k + 1)
            total += term
        a = 2 / mpmath.pi * (th + s * total)
    else:
        term = total = mpmath.mpf(1)
        for k in range(1, (m - 2) // 2 + 1):
            term *= c * c * (2 * k - 1) / (2 * k)
            total += term
        a = s * total
    return (1 + a) / 2


def _mpmath_cdf(zs, alpha, nu):
    """F at each z as a 20-digit integral of the density, cumulated over
    pieces split at 0, the decades +-1e-2 ... +-1e6 and the zs. Each piece
    is integrated in theta = atan(x / sqrt(nu)), where the density is the
    bounded 2 c cos(theta)^(nu-1) T_{nu+1}(alpha sqrt(nu+1) sin(theta))."""
    m = int(nu) + 1
    nu, alpha = mpmath.mpf(nu), mpmath.mpf(alpha)
    const = 2 * mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu / 2))

    def integrand(th):
        return const * mpmath.cos(th) ** (m - 2) * _student_cdf(
            alpha * mpmath.sqrt(nu + 1) * mpmath.sin(th), m)

    decades = [mpmath.mpf(10) ** k for k in range(-2, 7)]
    xs = sorted({mpmath.mpf(0), *decades, *(-d for d in decades),
                 *(mpmath.mpf(z) for z in zs)})
    thetas = [-mpmath.pi / 2] + [mpmath.atan(x / mpmath.sqrt(nu)) for x in xs]
    total, at = mpmath.mpf(0), {}
    for x, a, b in zip(xs, thetas[:-1], thetas[1:]):
        total += mpmath.quad(integrand, [a, b], method="gauss-legendre")
        at[x] = total
    return np.array([float(at[mpmath.mpf(z)]) for z in zs])


@pytest.mark.parametrize("nu", [1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 30.0])
def test_cdf_matches_mpmath(nu):
    zs = [-40.0, -9.0, -2.5, -0.6, 0.0, 0.3, 1.1, 3.0, 12.0, 40.0]
    with mpmath.workdps(20):
        for alpha in (-32.0, -3.3, -0.5, 0.0, 0.7, 4.0, 32.0):
            got = skew_t._std_cdf_many(zs, alpha, nu)
            want = _mpmath_cdf(zs, alpha, nu)
            assert np.max(np.abs(got - want)) <= 1e-14, alpha


def test_cdf_non_finite_z():
    # NaN stays NaN and the infinities map to 0 and 1; at z = 0, F is
    # 1/2 - arctan(alpha) / pi whatever nu is
    zs = np.array([np.nan, -np.inf, np.inf, 0.0])
    for nu in (1.0, 3.0, 4.0, 30.0):
        for alpha in (-32.0, -3.3, 0.0, -0.0, 0.7):
            got = skew_t._std_cdf_many(zs, alpha, nu)
            assert np.isnan(got[0]) and list(got[1:3]) == [0.0, 1.0], (nu, alpha)
            assert got[3] == pytest.approx(0.5 - np.arctan(alpha) / np.pi, abs=1e-15)


def test_cdf_bounded_and_monotone():
    # F never leaves [0, 1] and rises strictly wherever it is clear of 0
    # and 1. In the tails its value is rounding (the terms of the sum
    # cancel), so there it may step back by at most twice the absolute
    # error that the mpmath test sees (below 6e-16)
    zs = np.concatenate([-np.logspace(3, -3, 200), [0.0], np.logspace(-3, 3, 200)])
    for nu in (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 30.0):
        for alpha in (-32.0, -3.3, -0.5, 0.7, 4.0, 32.0):
            f = skew_t._std_cdf_many(zs, alpha, nu)
            assert f.min() >= 0.0 and f.max() <= 1.0
            assert np.diff(f).min() >= -1.2e-15, (nu, alpha)
            live = (f > 1e-12) & (f < 1.0 - 1e-12)
            assert np.all(np.diff(f[live]) > 0.0), (nu, alpha)


def test_cdf_alpha_derivative():
    zs = np.linspace(-8.0, 8.0, 41)
    for nu in (1.0, 3.0, 4.0, 5.0, 30.0):
        for alpha in (-32.0, -3.3, -0.5, 0.0, 0.7, 4.0, 32.0):
            h = 1e-5 * max(1.0, abs(alpha))
            central = (skew_t._std_cdf_many(zs, alpha + h, nu)
                       - skew_t._std_cdf_many(zs, alpha - h, nu)) / (2 * h)
            got = skew_t._std_cdf_dalpha(zs, alpha, nu)
            assert np.max(np.abs(got - central)) <= 1e-9, (nu, alpha)


class TestDomain:
    def test_non_integer_nu_raises(self):
        with pytest.raises(DomainError, match="nu=2.5"):
            skew_t._std_cdf_many([0.3], 1.5, 2.5)
        p = SkewTParams(mu=0.0, sigma=1.0, alpha=-0.7, nu=4.5)  # still accepted
        assert pdf(p, 0.0) > 0
        with pytest.raises(DomainError, match="nu=4.5"):
            cdf(p, 0.0)
        with pytest.raises(DomainError, match="nu=4.5"):
            fit_from_quantiles(LEVELS, (-0.8, 0.1, 1.3), nu=4.5)

    @pytest.mark.parametrize("nu", [2.5, 7.3, 1e6])
    def test_zero_skew_is_student_t_at_any_nu(self, nu):
        zs = np.array([-3.0, -0.4, 0.0, 1.7])
        assert np.array_equal(skew_t._std_cdf_many(zs, 0.0, nu), student_t.cdf(zs, nu))

    def test_cauchy(self):
        # nu = 1: the recurrence has no terms beyond the arctan2
        p = SkewTParams(mu=0.2, sigma=0.9, alpha=2.0, nu=1.0)
        for x in (-3.0, 0.0, 0.4, 5.0):
            oracle, _ = scipy.integrate.quad(lambda v: pdf(p, v), -np.inf, x, limit=400)
            assert cdf(p, x) == pytest.approx(oracle, abs=1e-9)
        for tau in (0.1, 0.5, 0.9):
            assert cdf(p, quantile(p, tau)) == pytest.approx(tau, abs=1e-12)


def _exact_quantiles(levels, alpha, nu=3.0):
    """Standardized quantiles, each bracketed and solved to full precision."""
    return np.array([optimize.brentq(
        lambda z: skew_t._std_cdf_many([z], alpha, nu)[0] - t, -60.0, 60.0,
        xtol=1e-300, rtol=1e-15) for t in levels])


def _reference_alpha(levels, ratio, nu=3.0):
    """The root of r(alpha) = ratio by bracketed search over [-32, 32]."""
    return optimize.brentq(
        lambda a: skew_t._spacing_ratio(_exact_quantiles(levels, a, nu)) - ratio,
        -32.0, 32.0, xtol=1e-13, maxiter=500)


@pytest.mark.parametrize("levels, exposed", [
    ((0.25, 0.5, 0.75), 0.3873664310733785), ((0.1, 0.5, 0.9), 0.284028494815727),
], ids=["quartiles", "deciles"])
def test_alpha_solve_across_matched_range(levels, exposed):
    # r(alpha) is flat near both ends (|alpha| near 32), where the ratio
    # pins alpha least. At `exposed`, a bracket end moved on a residual
    # whose sign the quantiles' error can still flip loses the root by
    # about 1e-7
    r_min = skew_t._spacing_ratio(_exact_quantiles(levels, 32.0))
    r_max = skew_t._spacing_ratio(_exact_quantiles(levels, -32.0))
    rng = np.random.default_rng(17)
    ratios = np.r_[rng.uniform(r_min, r_max, 8), r_min + 1e-4, r_min + 3e-5,
                   r_max - 1e-4, r_max - 3e-5]
    cases = [(rng.normal(0.0, 2.0), float(np.exp(rng.normal())), r) for r in ratios]
    for lo, width, r in cases + [(0.0, 1.0, exposed)]:
        values = (lo, lo + r * width, lo + width)
        fit = fit_from_quantiles(levels, values)
        scale2 = max(1.0, max(abs(v) for v in values)) ** 2
        assert _residual(fit, values, levels) <= 1e-12 * scale2, r
        assert abs(fit.alpha - _reference_alpha(levels, r)) <= 1e-9, r
    for r, alpha in ((r_min - 1e-6, 32.0), (r_max + 1e-6, -32.0)):
        assert fit_from_quantiles(levels, (0.0, r, 1.0)).alpha == alpha


# (name, levels, values, (mu, sigma, alpha) as float.hex): ratios at both
# ends of the matched range (alpha in (16, 32) and (-32, -16)), a symmetric
# triple, a fit clamped on each side, widened ties and decile levels. The
# closed-form CDF and the joint Newton solve are deterministic, so any change
# to either, to the quantile polish or to the profile must leave every float
# as it is or re-record it on purpose; the golden archive checks only to
# 1e-9 relative.
PINNED_FITS = [
    ("near_lower_end", (0.25, 0.5, 0.75), (0.0, 0.3873, 1.0),
     ("-0x1.4d007f6944665p-2", "0x1.dceff8a81fec5p-1", "0x1.27e3e07cdfcffp+4")),
    ("lower_side", (0.25, 0.5, 0.75), (-1.7, -1.3, -0.68),
     ("-0x1.022c53ba8fa79p+1", "0x1.e175fcd2249f6p-1", "0x1.393555cc6b6f3p+2")),
    ("near_upper_end", (0.25, 0.5, 0.75), (0.0, 0.6127, 1.0),
     ("0x1.53401fda51197p+0", "0x1.dceff8a81fec1p-1", "-0x1.27e3e07cddf5dp+4")),
    ("upper_side", (0.25, 0.5, 0.75), (2.5, 3.41, 4.0),
     ("0x1.1d77e0edffbc4p+2", "0x1.610fdd76c727bp+0", "-0x1.2113370cf1fd8p+2")),
    ("symmetric", (0.25, 0.5, 0.75), (-0.6745, 0.0, 0.6745),
     ("0x0.0p+0", "0x1.c37e5d5805803p-1", "0x0.0p+0")),
    ("generic", (0.25, 0.5, 0.75), (-0.8, 0.1, 1.3),
     ("-0x1.1cbdb9d0c72dbp+0", "0x1.bcab31f708180p+0", "0x1.9e039d8fc9010p+0")),
    ("clamped_left_skew", (0.25, 0.5, 0.75), (0.0, 0.7, 1.0),
     ("0x1.5d541caa8845dp+0", "0x1.e321dc5fb9e54p-1", "-0x1.0000000000000p+5")),
    ("clamped_right_skew", (0.25, 0.5, 0.75), (0.0, 0.3, 1.0),
     ("-0x1.755072aa21178p-2", "0x1.e321dc5fb9e56p-1", "0x1.0000000000000p+5")),
    ("tie_low", (0.25, 0.5, 0.75), (0.2, 0.2, 1.0),
     ("-0x1.98c7385b56616p-3", "0x1.936d89cf202f1p-1", "0x1.0000000000000p+5")),
    ("tie_all", (0.25, 0.5, 0.75), (1.5, 1.5, 1.5),
     ("0x1.8000000671448p+0", "0x1.0d86abf773809p-29", "0x0.0p+0")),
    ("tie_high", (0.25, 0.5, 0.75), (0.0, 1.0, 1.0),
     ("0x1.7fdf20d531d8ep+0", "0x1.f848ec4ba9d31p-1", "-0x1.0000000000000p+5")),
    ("deciles_left", (0.1, 0.5, 0.9), (-3.0, -0.4, 1.1),
     ("0x1.72a9861670abep-1", "0x1.99314a6721e07p+0", "-0x1.ace09d89dd6d7p+0")),
    ("deciles_right", (0.1, 0.5, 0.9), (0.01, 0.025, 0.032),
     ("0x1.06e86e7adbe02p-5", "0x1.33fac47449fccp-7", "-0x1.9a16e822449a9p+1")),
]


@pytest.mark.parametrize("levels, values, want", [c[1:] for c in PINNED_FITS],
                         ids=[c[0] for c in PINNED_FITS])
def test_fit_pinned_bit_for_bit(levels, values, want):
    fit = fit_from_quantiles(levels, values)
    assert (fit.mu.hex(), fit.sigma.hex(), fit.alpha.hex()) == want


class TestFitMemo:
    """What a fit that the pipeline keeps and shares relies on: a rejected
    triple raises on every call."""

    def test_rejected_input_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(OrderingError):
                fit_from_quantiles(LEVELS, (1.0, 0.5, 2.0))
