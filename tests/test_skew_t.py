import numpy as np
import pytest
import scipy.integrate
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


def _residual(fit, values):
    """Squared distance between the fitted and the target quantiles."""
    return sum((quantile(fit, t) - v) ** 2 for t, v in zip(LEVELS, values))


def test_density_grid_normalization():
    p = SkewTParams(mu=0.2, sigma=0.5, alpha=2.0, nu=8.0)
    x, fx = density_grid(p)
    assert len(x) == 401 and len(fx) == 401
    total = np.trapezoid(fx, x)
    assert total == pytest.approx(1.0, abs=1e-2)


def _reference_cdf(z, alpha, nu):
    """F(z) one z at a time: breakpoints collected in a set and
    scipy.stats.t's cdf and ppf, summed as `_std_cdf_many` sums them."""
    upper = float(student_t.cdf(z, nu))
    if z == np.inf or upper >= 1.0:
        return 1.0
    if upper <= 0.0:
        return 0.0
    eps = 2.0 ** -30
    lim = [2.0 * student_t.cdf(s * alpha * np.sqrt(nu + 1.0), nu + 1.0) for s in (-1, 1)]
    lo = min(eps, upper)
    tail = lo * lim[0]
    if upper - (1.0 - eps) > 0.0:
        tail += (upper - (1.0 - eps)) * lim[1]
        upper = 1.0 - eps
    if upper <= lo:
        return min(tail, 1.0)
    pts = {lo, upper}
    for k in range(1, 30):
        pts |= {p for p in (2.0 ** -k, 1.0 - 2.0 ** -k) if lo < p < upper}
    for k in range(2, 22):
        pts |= {p for p in (0.5 - 2.0 ** -k, 0.5 + 2.0 ** -k) if lo < p < upper}
    bp = np.array(sorted(pts))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    mid, half = 0.5 * (bp[1:] + bp[:-1]), 0.5 * (bp[1:] - bp[:-1])
    u = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    g = student_t.ppf(u, nu)
    wg = g * np.sqrt((nu + 1.0) / (nu + g * g))
    integrand = 2.0 * student_t.cdf(alpha * wg, nu + 1.0)
    total = np.add.reduceat(w * integrand, [0])[0] + tail
    return float(np.clip(total, 0.0, 1.0))


@pytest.mark.parametrize("nu", [3.0, 5.0, 30.0])
def test_cdf_kernel_bit_identical_to_reference(nu):
    rng = np.random.default_rng(11)
    # T_nu(z) below 2^-30 (tail only), in (2^-30, 2^-29) (the first and last
    # panels fall in one gap), at 2^-29, in (1 - 2^-29, 1 - 2^-30) and above
    # 1 - 2^-30 (upper tail added analytically)
    edges = student_t.ppf([2.0 ** -31, 2.0 ** -29.5, 2.0 ** -29,
                           1.0 - 2.0 ** -29.5, 1.0 - 2.0 ** -31], nu)
    zs = np.r_[1e6, -1e6, np.inf, -np.inf, 0.0, edges, rng.normal(0.0, 3.0, 30)]
    for alpha in (-32.0, -3.3, 0.0, 0.7, 32.0):
        got = skew_t._std_cdf_many(zs, alpha, nu)
        want = np.array([_reference_cdf(z, alpha, nu) for z in zs])
        assert np.array_equal(got, want), alpha


# (name, levels, values, (mu, sigma, alpha) as float.hex): ratios at both
# ends of the matched range (alpha in (16, 32) and (-32, -16)), a symmetric
# triple, a fit clamped on each side, widened ties and decile levels. Any
# change to the CDF kernel, the root finder or the profile must leave every
# float as it is; the golden archive checks only to 1e-9 relative.
PINNED_FITS = [
    ("near_lower_end", (0.25, 0.5, 0.75), (0.0, 0.3873, 1.0),
     ("-0x1.4d007f6944927p-2", "0x1.dceff8a81ffdep-1", "0x1.27e3e07b93647p+4")),
    ("lower_side", (0.25, 0.5, 0.75), (-1.7, -1.3, -0.68),
     ("-0x1.022c53ba8fbeap+1", "0x1.e175fcd2255d5p-1", "0x1.393555cc6b217p+2")),
    ("near_upper_end", (0.25, 0.5, 0.75), (0.0, 0.6127, 1.0),
     ("0x1.53401fda51244p+0", "0x1.dceff8a81ffd7p-1", "-0x1.27e3e07b6fa62p+4")),
    ("upper_side", (0.25, 0.5, 0.75), (2.5, 3.41, 4.0),
     ("0x1.1d77e0edffc0bp+2", "0x1.610fdd76c7349p+0", "-0x1.2113370cf321cp+2")),
    ("symmetric", (0.25, 0.5, 0.75), (-0.6745, 0.0, 0.6745),
     ("-0x1.2cfee8e559002p-53", "0x1.c37e5d5805803p-1", "0x0.0p+0")),
    ("generic", (0.25, 0.5, 0.75), (-0.8, 0.1, 1.3),
     ("-0x1.1cbdb9d0c72c9p+0", "0x1.bcab31f708174p+0", "0x1.9e039d8fc8fdap+0")),
    ("clamped_left_skew", (0.25, 0.5, 0.75), (0.0, 0.7, 1.0),
     ("0x1.5d541caa88478p+0", "0x1.e321dc5fb9e81p-1", "-0x1.0000000000000p+5")),
    ("clamped_right_skew", (0.25, 0.5, 0.75), (0.0, 0.3, 1.0),
     ("-0x1.755072aa211e6p-2", "0x1.e321dc5fb9e85p-1", "0x1.0000000000000p+5")),
    ("tie_low", (0.25, 0.5, 0.75), (0.2, 0.2, 1.0),
     ("-0x1.98c7385b566eep-3", "0x1.936d89cf20322p-1", "0x1.0000000000000p+5")),
    ("tie_all", (0.25, 0.5, 0.75), (1.5, 1.5, 1.5),
     ("0x1.8000000671448p+0", "0x1.0d86abf773809p-29", "0x0.0p+0")),
    ("tie_high", (0.25, 0.5, 0.75), (0.0, 1.0, 1.0),
     ("0x1.7fdf20d531dafp+0", "0x1.f848ec4ba9d6dp-1", "-0x1.0000000000000p+5")),
    ("deciles_left", (0.1, 0.5, 0.9), (-3.0, -0.4, 1.1),
     ("0x1.72a9861670aaep-1", "0x1.99314a6721e02p+0", "-0x1.ace09d89dd6bbp+0")),
    ("deciles_right", (0.1, 0.5, 0.9), (0.01, 0.025, 0.032),
     ("0x1.06e86e7adbdb8p-5", "0x1.33fac47449f43p-7", "-0x1.9a16e8224415cp+1")),
]


@pytest.mark.parametrize("levels, values, want", [c[1:] for c in PINNED_FITS],
                         ids=[c[0] for c in PINNED_FITS])
def test_fit_pinned_bit_for_bit(levels, values, want):
    skew_t._fit.cache_clear()
    skew_t._alpha_pieces.cache_clear()
    fit = fit_from_quantiles(levels, values)
    assert (fit.mu.hex(), fit.sigma.hex(), fit.alpha.hex()) == want


def test_alpha_pieces_cache_matches_fresh_calls():
    # each (alpha, nu) reused from the bounded per-alpha cache, interleaved
    # over alpha and nu, must give what a call on an empty cache gives; NaN z
    # stays NaN
    zs = np.r_[np.nan, -np.inf, np.inf, -1e6, -40.0, -1.5, 0.0, 0.7, 2.0, 1e6]
    keys = [(alpha, nu) for alpha in (0.7, -3.3, 0.0, -0.0) for nu in (3.0, 5.0)]
    fresh = []
    for alpha, nu in keys:
        skew_t._alpha_pieces.cache_clear()
        fresh.append(skew_t._std_cdf_many(zs, alpha, nu))
    assert np.isnan(fresh[0][0]) and not np.isnan(fresh[0][1:]).any()
    skew_t._alpha_pieces.cache_clear()
    order = list(range(len(keys)))
    for i in order + order[::-1]:
        got = skew_t._std_cdf_many(zs, *keys[i])
        assert np.array_equal(got, fresh[i], equal_nan=True), keys[i]
        assert np.isnan(got[0]), keys[i]
    assert skew_t._alpha_pieces.cache_info().maxsize is not None


class TestFitMemo:
    VALUES = (-0.8, 0.1, 1.3)  # spacing ratio 0.43, inside the matched range

    @pytest.fixture
    def roots(self, monkeypatch):
        skew_t._fit.cache_clear()
        calls = []
        brentq = skew_t.brentq

        def counting_brentq(*args, **kwargs):
            calls.append(args)
            return brentq(*args, **kwargs)

        monkeypatch.setattr(skew_t, "brentq", counting_brentq)
        return calls

    def test_same_triple_fits_once(self, roots):
        first = fit_from_quantiles(LEVELS, self.VALUES)
        second = fit_from_quantiles(list(LEVELS), np.array(self.VALUES))
        assert len(roots) == 1
        assert first == second

    @pytest.mark.parametrize("levels, values, nu", [
        (LEVELS, VALUES, 5.0),
        ((0.1, 0.5, 0.9), VALUES, 3.0),
        (LEVELS, (-0.8, 0.1, 1.31), 3.0),
    ], ids=["nu", "levels", "value"])
    def test_any_change_is_a_new_fit(self, roots, levels, values, nu):
        base = fit_from_quantiles(LEVELS, self.VALUES)
        other = fit_from_quantiles(levels, values, nu=nu)
        assert len(roots) == 2
        assert other != base

    def test_rejected_input_raises_every_time(self, roots):
        for _ in range(2):
            with pytest.raises(OrderingError):
                fit_from_quantiles(LEVELS, (1.0, 0.5, 2.0))
