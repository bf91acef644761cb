import numpy as np
import pytest
import scipy.optimize

from co2nowcast import panel_qr
from co2nowcast.errors import (
    DomainError,
    LengthError,
    SingularDesignError,
    UnknownEntityError,
)
from co2nowcast.evaluation import pinball
from co2nowcast.panel_ls import design
from co2nowcast.panel_qr import (
    QuantileSpec,
    fit_quantile,
    objective_value,
    predict_quantile,
    rearrange,
)


def lp_oracle(rows, tau, lam):
    """Independent exact optimum via a free-variable LP formulation.

    Variables: [gamma0?, g_1..g_N (free), beta (free), u+ >= 0, u- >= 0,
    s_1..s_N >= 0 bounding |g_i|]; differs from the production solver's
    split-positive-part encoding.
    """
    y, X = rows.y, rows.x
    ents = sorted({r.entity for r in rows})
    pos = {e: j for j, e in enumerate(ents)}
    idx = np.array([pos[r.entity] for r in rows])
    n, k = X.shape
    m = len(ents)
    has_g0 = lam > 0.0
    n_free = (1 if has_g0 else 0) + m + k
    n_var = n_free + 2 * n + (m if has_g0 else 0)

    A_eq = np.zeros((n, n_var))
    col = 0
    if has_g0:
        A_eq[:, col] = 1.0
        col += 1
    A_eq[np.arange(n), col + idx] = 1.0
    A_eq[:, col + m : col + m + k] = X
    A_eq[:, n_free : n_free + n] = np.eye(n)
    A_eq[:, n_free + n : n_free + 2 * n] = -np.eye(n)

    c = np.zeros(n_var)
    c[n_free : n_free + n] = tau
    c[n_free + n : n_free + 2 * n] = 1.0 - tau
    bounds = [(None, None)] * n_free + [(0, None)] * (2 * n)
    A_ub = None
    b_ub = None
    if has_g0:
        c[n_free + 2 * n :] = lam
        bounds += [(0, None)] * m
        A_ub = np.zeros((2 * m, n_var))
        for j in range(m):
            A_ub[2 * j, 1 + j] = 1.0
            A_ub[2 * j, n_free + 2 * n + j] = -1.0
            A_ub[2 * j + 1, 1 + j] = -1.0
            A_ub[2 * j + 1, n_free + 2 * n + j] = -1.0
        b_ub = np.zeros(2 * m)
    res = scipy.optimize.linprog(
        c, A_eq=A_eq, b_eq=y, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


class TestCheckLoss:
    """The objective charges each residual the pinball loss."""

    @staticmethod
    def loss(u, tau):
        # one entity, no regressors, zero coefficients: the residual is y
        y = np.array([u])
        return objective_value(y, np.zeros((1, 0)), np.zeros(1, dtype=np.intp),
                               0.0, np.zeros(1), np.zeros(0), tau, 1.0)

    def test_values(self):
        assert self.loss(1.0, 0.25) == pytest.approx(0.25)
        assert self.loss(-1.0, 0.25) == pytest.approx(0.75)
        assert self.loss(0.0, 0.7) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=100)
        for tau in (0.1, 0.5, 0.9):
            assert all(self.loss(ui, tau) >= 0.0 for ui in u)


class TestSingleEntityQuantiles:
    def test_median_tie_breaks_low(self):
        rows = design(["A"] * 4, range(4), [1.0, 2.0, 3.0, 9.0], [[]] * 4)
        model = fit_quantile(rows, QuantileSpec(tau=0.5, lam=0.0))
        assert model.gamma["A"] == pytest.approx(2.0, abs=1e-8)

    def test_quarter_tie_breaks_low(self):
        rows = design(["A"] * 4, range(4), [0.0, 1.0, 2.0, 3.0], [[]] * 4)
        model = fit_quantile(rows, QuantileSpec(tau=0.25, lam=0.0))
        assert model.gamma["A"] == pytest.approx(0.0, abs=1e-8)

    def test_zero_residual_prediction(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(9, 2))
        beta = np.array([1.5, -0.5])
        y = 0.3 + X @ beta
        rows = design(["A"] * 9, range(9), y, X)
        model = fit_quantile(rows, QuantileSpec(tau=0.5, lam=0.0))
        for r in rows:
            assert predict_quantile(model, "A", r.x) == pytest.approx(r.y, abs=1e-6)


class TestLPOracle:
    def test_random_instances_match_lp_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(25):
            n_ent = int(rng.integers(2, 4))
            t_len = int(rng.integers(4, 9))
            k = int(rng.integers(1, 3))
            rows = []
            for i in range(n_ent):
                shift = rng.normal(0, 1)
                for t in range(t_len):
                    x = rng.normal(size=k)
                    rows.append((f"E{i}", t, float(shift + x.sum() + rng.normal()), x))
            rows = design(*zip(*rows))
            tau = (0.25, 0.5, 0.75)[trial % 3]
            lam = (0.0, 1.0, 10.0)[trial % 3 if trial < 12 else (trial + 1) % 3]
            opt = lp_oracle(rows, tau, lam)
            model = fit_quantile(rows, QuantileSpec(tau=tau, lam=lam))
            assert model.objective <= opt * (1 + 1e-6) + 1e-9, (
                f"trial {trial}: {model.objective} vs oracle {opt}"
            )

    def test_perturbation_optimality(self):
        rng = np.random.default_rng(2)
        rows = []
        for i in range(3):
            for t in range(8):
                x = rng.normal(size=2)
                rows.append((f"E{i}", t, float(0.5 * i + x[0] - x[1] + rng.normal()), x))
        rows = design(*zip(*rows))
        spec = QuantileSpec(tau=0.5, lam=1.0)
        model = fit_quantile(rows, spec)
        y, X = rows.y, rows.x
        ents = sorted(model.gamma)

        def objective(beta, gamma):
            total = model.lam * sum(
                abs(gamma[e] - model.common) for e in ents
            )
            for r, yi, xi in zip(rows, y, X):
                total += float(pinball(yi - gamma[r.entity] - xi @ beta, 0.5))
            return total

        base = objective(model.beta, dict(model.gamma))
        for j in range(len(model.beta)):
            for d in (1e-4, -1e-4):
                b = model.beta.copy()
                b[j] += d
                assert objective(b, dict(model.gamma)) >= base - 1e-8


class TestExactOptimum:
    def test_random_panels_reach_the_lp_optimum(self):
        """Criterion-4-style panels over the whole tau x lambda grid: the fit
        is an exact optimum, not one within a relaxed cap above it."""
        rng = np.random.default_rng(17)
        for tau in (0.25, 0.5, 0.75):
            for lam in (0.0, 1.0, 10.0):
                for _ in range(3):
                    k = int(rng.integers(1, 4))
                    rows = []
                    for i in range(int(rng.integers(2, 5))):
                        for s in range(int(rng.integers(4, 12))):
                            x = rng.normal(size=k)
                            y = float(0.5 * i + x @ rng.normal(size=k) + rng.normal())
                            rows.append((f"E{i}", s, y, x))
                    rows = design(*zip(*rows))
                    opt = lp_oracle(rows, tau, lam)
                    model = fit_quantile(rows, QuantileSpec(tau=tau, lam=lam))
                    assert model.objective <= opt * (1 + 1e-12) + 1e-12, (
                        f"tau={tau} lam={lam}: {model.objective} vs oracle {opt}"
                    )


@pytest.fixture
def solves(monkeypatch):
    """(args, kwargs) of every HiGHS solve through `panel_qr._highs`."""
    calls = []
    highs = panel_qr._highs

    def counting_highs(*args, **kwargs):
        calls.append((args, kwargs))
        return highs(*args, **kwargs)

    monkeypatch.setattr(panel_qr, "_highs", counting_highs)
    return calls


class TestTieRule:
    def test_unique_predictions_take_one_solve(self, solves):
        # seven rows per entity keep tau * 7 off the integers, so no entity's
        # quantile is an interval; these fits are unique
        rng = np.random.default_rng(3)
        X = rng.normal(size=(21, 2))
        ents = ["A"] * 7 + ["B"] * 7 + ["C"] * 7
        y = np.repeat([0.0, 1.0, 2.0], 7) + X @ [1.0, -0.5] + rng.normal(size=21)
        for tau in (0.25, 0.5):
            for lam in (0.0, 0.3, 10.0):
                fit_quantile(design(ents, range(21), y, X), QuantileSpec(tau=tau, lam=lam))
        assert len(solves) == 6

    def test_straddling_deviations_take_the_top_of_the_segment(self, solves):
        # gamma_A = -5 and gamma_B = 5 are unique, and every common intercept
        # in [-5, 5] gives the same objective; the tie rule takes the largest
        rows = design(["A"] * 3 + ["B"] * 3, range(6),
                      [-6.0, -5.0, -4.0, 4.0, 5.0, 6.0], [[]] * 6)
        model = fit_quantile(rows, QuantileSpec(tau=0.5, lam=0.4))
        assert model.gamma["A"] == pytest.approx(-5.0, abs=1e-12)
        assert model.gamma["B"] == pytest.approx(5.0, abs=1e-12)
        assert model.common == model.gamma["B"]
        assert model.deviations["B"] == 0.0
        assert len(solves) == 1
        assert model.objective <= lp_oracle(rows, 0.5, 0.4) * (1 + 1e-12)

    def test_flat_face_takes_the_smallest_signed_sum(self, solves):
        # each entity's medians form a segment and a common intercept in
        # [1.5, 2] fits both with a = 0: a flat face, resolved by one face LP
        rows = design(["A"] * 4 + ["B"] * 4, range(8),
                      [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 3.5], [[]] * 8)
        model = fit_quantile(rows, QuantileSpec(tau=0.5, lam=1.0))
        assert model.common == pytest.approx(1.5, abs=1e-9)
        assert model.deviations == {"A": 0.0, "B": 0.0}
        assert len(solves) == 2
        assert model.objective <= lp_oracle(rows, 0.5, 1.0) * (1 + 1e-12)


class TestShrinkage:
    @staticmethod
    def _rows():
        rng = np.random.default_rng(9)
        rows = []
        for i, shift in enumerate((-2.0, 0.0, 2.0)):
            for t in range(10):
                x = rng.normal(size=1)
                rows.append((f"E{i}", t, float(shift + 0.5 * x[0] + rng.normal(0, 0.3)), x))
        return design(*zip(*rows))

    def test_large_lambda_collapses_deviations(self):
        rows = self._rows()
        free = fit_quantile(rows, QuantileSpec(tau=0.5, lam=0.0))
        tight = fit_quantile(rows, QuantileSpec(tau=0.5, lam=1000.0))
        spread_free = sum(abs(v) for v in free.gamma.values())
        spread_tight = sum(abs(v) for v in tight.deviations.values())
        assert spread_tight <= 0.01 * spread_free

    def test_location_invariance_of_shrinkage(self):
        # penalizing deviations from a common level: adding a constant to y
        # shifts the common intercept, not the fit quality
        rows = self._rows()
        shifted = design(rows.entity, rows.year, rows.y + 100.0, rows.x)
        m0 = fit_quantile(rows, QuantileSpec(tau=0.5, lam=1.0))
        m1 = fit_quantile(shifted, QuantileSpec(tau=0.5, lam=1.0))
        assert m1.common == pytest.approx(m0.common + 100.0, abs=1e-5)
        assert np.allclose(m1.beta, m0.beta, atol=1e-5)
        assert m1.objective == pytest.approx(m0.objective, abs=1e-6)

    def test_scale_equivariance(self):
        rows = self._rows()
        scaled = design(rows.entity, rows.year, 3.0 * rows.y, 3.0 * rows.x)
        m0 = fit_quantile(rows, QuantileSpec(tau=0.25, lam=0.0))
        m1 = fit_quantile(scaled, QuantileSpec(tau=0.25, lam=0.0))
        assert m1.objective == pytest.approx(3.0 * m0.objective, rel=1e-8)


@pytest.fixture
def lp_calls(monkeypatch):
    """Arguments of every `_fit_lp` call."""
    calls = []
    fit_lp = panel_qr._fit_lp

    def counting_fit_lp(*args):
        calls.append(args)
        return fit_lp(*args)

    monkeypatch.setattr(panel_qr, "_fit_lp", counting_fit_lp)
    return calls


class TestValidationAndPlumbing:
    def test_bad_tau(self):
        with pytest.raises(DomainError):
            QuantileSpec(tau=1.5)
        with pytest.raises(DomainError):
            QuantileSpec(tau=0.5, lam=-1.0)
        with pytest.raises(DomainError, match="lambda=nan"):
            QuantileSpec(tau=0.5, lam=float("nan"))

    def test_unknown_entity(self):
        rows = design(["A"] * 3, range(3), [1.0, 2.0, 3.0], [[1.0]] * 3)
        model = fit_quantile(rows, QuantileSpec(tau=0.5, lam=0.0))
        with pytest.raises(UnknownEntityError):
            predict_quantile(model, "B", [1.0])

    def test_regressor_length_checked(self):
        rows = design(["A"] * 3, range(3), [1.0, 2.0, 3.0], [[1.0]] * 3)
        model = fit_quantile(rows, QuantileSpec(tau=0.5, lam=0.0))
        with pytest.raises(DomainError, match="regressor length"):
            predict_quantile(model, "A", [1.0, 2.0])

    def test_label_length_checked(self, lp_calls):
        rows = design(["A", "A"], range(2), [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(LengthError):
            fit_quantile(rows, QuantileSpec(tau=0.5), labels=("only_one",))
        assert lp_calls == []

    def test_collinear_design_raises(self):
        # beta = (b1 + 2t, b2 - t) fits alike, and its signed sum falls
        # without bound, so no fit satisfies the tie rule
        rng = np.random.default_rng(0)
        x = rng.normal(size=9)
        rows = design(["A"] * 4 + ["B"] * 5, range(9), x + rng.normal(size=9),
                      np.c_[x, 2.0 * x])
        with pytest.raises(SingularDesignError, match="tie-break"):
            fit_quantile(rows, QuantileSpec(tau=0.5, lam=0.0))


@pytest.fixture
def lp():
    """One target year's final LP bases, per chain."""
    return {}


class TestSolveMemo:
    """What a fit that the pipeline keeps and shares relies on: a rejected
    design raises on every call, a failed solve leaves no basis behind, and
    beta is read-only."""

    ENTS = ["A", "A", "A", "B", "B", "B"]
    Y = [1.0, 2.5, 2.0, 4.0, 3.0, 6.5]
    X = [[0.5], [1.0], [2.0], [0.0], [1.5], [3.0]]
    SPEC = QuantileSpec(tau=0.5, lam=1.0)

    def test_failed_lp_raises_every_time(self, lp_calls, lp, monkeypatch):
        def failing(*args, **kwargs):
            raise SingularDesignError("quantile LP failed: forced")

        monkeypatch.setattr(panel_qr, "_highs", failing)
        rows = design(self.ENTS, range(6), self.Y, self.X)
        for _ in range(2):
            with pytest.raises(SingularDesignError, match="forced"):
                fit_quantile(rows, self.SPEC, lp=lp)
        assert len(lp_calls) == 2

    def test_failed_solve_is_never_reused(self, lp_calls, lp, monkeypatch):
        # every failure is a solve of its own and leaves its chain the basis
        # of the last good solve; the failed design is solved afresh, from
        # that basis, once HiGHS works
        good = design(self.ENTS, range(6), self.Y, self.X)
        bad = design(self.ENTS, range(6), np.add(self.Y, 1.0), self.X)
        fit_quantile(good, self.SPEC, lp=lp)
        (chain, basis), = lp.items()
        highs = panel_qr._highs

        def failing(*args, **kwargs):
            raise SingularDesignError("quantile LP failed: forced")

        monkeypatch.setattr(panel_qr, "_highs", failing)
        for _ in range(3):
            with pytest.raises(SingularDesignError, match="forced"):
                fit_quantile(bad, self.SPEC, lp=lp)
            assert list(lp) == [chain] and lp[chain] is basis
        monkeypatch.setattr(panel_qr, "_highs", highs)
        model = fit_quantile(bad, self.SPEC, lp=lp)
        assert len(lp_calls) == 1 + 3 + 1
        assert [args[6] for args in lp_calls] == [None] + [basis] * 4
        assert lp[chain] is not basis
        assert model.common == pytest.approx(
            fit_quantile(good, self.SPEC).common + 1.0, abs=1e-9)

    def test_beta_is_read_only(self, lp_calls, lp):
        for state in (lp, None):
            model = fit_quantile(design(self.ENTS, range(6), self.Y, self.X), self.SPEC,
                                 lp=state)
            with pytest.raises(ValueError):
                model.beta[0] = 0.0


class TestWarmChain:
    @pytest.mark.parametrize("tau", [0.25, 0.5])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_warm_chain_equals_cold_solves(self, solves, lam, tau):
        # ten same-shaped panels, as the weeks of one year: each solved from
        # its predecessor's basis equals the same panel solved cold
        rng = np.random.default_rng(23)
        ents = np.repeat(["A", "B", "C", "D"], 12)
        X = rng.normal(size=(48, 3))
        y = np.repeat([-1.0, 0.0, 0.5, 2.0], 12) + X @ [1.0, -0.5, 0.2]
        lp, spec = {}, QuantileSpec(tau=tau, lam=lam)
        for week in range(10):
            X[:, -1] += rng.normal(scale=0.05, size=48)
            y = y + rng.normal(scale=0.3, size=48)
            rows = design(ents, range(48), y, X)
            warm, cold = fit_quantile(rows, spec, lp=lp), fit_quantile(rows, spec)
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=0.0)
            assert np.allclose(warm.beta, cold.beta, rtol=0.0, atol=1e-9)
            assert warm.common == pytest.approx(cold.common, abs=1e-9)
            for e in warm.gamma:
                assert warm.gamma[e] == pytest.approx(cold.gamma[e], abs=1e-9)
        # 10 warm and 10 cold duals, 9 of the warm ones from a basis
        duals = [args for args, kwargs in solves if "what" not in kwargs]
        assert len(duals) == 20
        assert sum(len(args) > 6 and args[6] is not None for args in duals) == 9


class TestRearrange:
    def test_sorted_stays(self):
        assert rearrange((1.0, 2.0, 3.0)) == (1.0, 2.0, 3.0)
        assert rearrange((4.0,)) == (4.0,)
        assert rearrange((1.0, 2.0, 3.0, 4.0, 5.0)) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_crossing_fixed(self):
        assert rearrange((3.0, 1.0, 2.0)) == (1.0, 2.0, 3.0)
        assert rearrange((5.0, 1.0, 4.0, 2.0, 3.0)) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_ties_kept(self):
        assert rearrange((2.0, 2.0, 2.0)) == (2.0, 2.0, 2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            rearrange((1.0, float("nan"), 2.0))
        with pytest.raises(DomainError):
            rearrange((float("nan"),))
        with pytest.raises(DomainError):
            rearrange((1.0, 2.0, float("inf"), 3.0, 4.0))
