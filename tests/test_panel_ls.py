import numpy as np
import pytest

from co2nowcast import panel_ls
from co2nowcast.errors import (
    DegenerateEntityError,
    LengthError,
    SingularDesignError,
    UnknownEntityError,
)
from co2nowcast.panel_ls import (
    DesignRow,
    fit_within,
    predict,
)


def rows_from_arrays(entities, years, y, X):
    return [
        DesignRow(entity=e, year=t, y=float(yi), x=np.asarray(xi, dtype=float))
        for e, t, yi, xi in zip(entities, years, y, X)
    ]


def exact_linear_model():
    # y = 2 + 3x with entity shifts {A: +1, B: -1}, no noise
    xs = [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]
    ents = ["A"] * 3 + ["B"] * 3
    y = [3 + 3 * x if e == "A" else 1 + 3 * x for e, x in zip(ents, xs)]
    return fit_within(rows_from_arrays(ents, range(6), y, [[x] for x in xs]))


class TestFitWithin:
    def test_exact_linear_data(self):
        model = exact_linear_model()
        assert model.beta[0] == pytest.approx(3.0, abs=1e-12)
        assert model.alpha["A"] == pytest.approx(3.0, abs=1e-12)
        assert model.alpha["B"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_column_raises(self):
        rows = rows_from_arrays(
            ["A", "A", "B", "B"], range(4), [1.0, 2.0, 3.0, 4.0],
            [[0.0], [0.0], [0.0], [0.0]],
        )
        with pytest.raises(SingularDesignError):
            fit_within(rows)

    def test_collinear_columns_named(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8)
        X = np.c_[x, 2.0 * x]
        rows = rows_from_arrays(["A"] * 4 + ["B"] * 4, range(8),
                                rng.normal(size=8), X)
        with pytest.raises(SingularDesignError, match="collinear"):
            fit_within(rows, labels=("u", "v"))

    def test_single_row_entity_rejected(self):
        rows = rows_from_arrays(["A", "A", "B"], range(3),
                                [1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]])
        with pytest.raises(DegenerateEntityError, match="'B'"):
            fit_within(rows)

    def test_label_length_checked(self):
        rows = rows_from_arrays(["A", "A"], range(2), [1.0, 2.0],
                                [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(LengthError):
            fit_within(rows, labels=("only_one",))


class TestFitMemo:
    ENTS = ["A", "A", "A", "B", "B", "B"]
    Y = [1.0, 2.5, 2.0, 4.0, 3.0, 6.5]
    X = [[0.5, 1.0], [1.0, -1.0], [2.0, 0.5], [0.0, 2.0], [1.5, 0.0], [3.0, 1.0]]

    @pytest.fixture
    def solves(self, monkeypatch):
        panel_ls._fit.cache_clear()
        calls = []
        solve = panel_ls._solve_pivoted

        def counting_solve(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(panel_ls, "_solve_pivoted", counting_solve)
        return calls

    def test_same_design_fits_once(self, solves):
        first = fit_within(rows_from_arrays(self.ENTS, range(6), self.Y, self.X))
        second = fit_within(rows_from_arrays(self.ENTS, range(10, 16),
                                             np.array(self.Y), self.X))
        assert len(solves) == 1
        assert np.array_equal(first.beta, second.beta)
        assert first.alpha == second.alpha
        assert first.alpha is not second.alpha

    @pytest.mark.parametrize("change", ["y", "x", "entity", "labels"])
    def test_any_change_is_a_new_fit(self, solves, change):
        ents, y, X, labels = list(self.ENTS), list(self.Y), list(self.X), None
        if change == "y":
            y[2] += 1e-12
        elif change == "x":
            X[4] = [1.5, 1e-12]
        elif change == "entity":
            ents[2] = "B"
            ents[3] = "A"
        else:
            labels = ("u", "v")
        fit_within(rows_from_arrays(self.ENTS, range(6), self.Y, self.X))
        fit_within(rows_from_arrays(ents, range(6), y, X), labels=labels)
        assert len(solves) == 2

    def test_rank_deficient_design_raises_every_time(self, solves):
        X = [[x[0], 2.0 * x[0]] for x in self.X]
        rows = rows_from_arrays(self.ENTS, range(6), self.Y, X)
        for _ in range(2):
            with pytest.raises(SingularDesignError, match="collinear"):
                fit_within(rows, labels=("u", "v"))
        assert len(solves) == 2

    def test_beta_is_read_only(self, solves):
        model = fit_within(rows_from_arrays(self.ENTS, range(6), self.Y, self.X))
        with pytest.raises(ValueError):
            model.beta[0] = 0.0


class TestDummyVariableOracle:
    """fit_within must agree with dummy-variable OLS (normal equations with
    one intercept dummy per entity) on random unbalanced panels."""

    @staticmethod
    def _dummy_ols(rows):
        ents = sorted({r.entity for r in rows})
        pos = {e: j for j, e in enumerate(ents)}
        n, k = len(rows), len(rows[0].x)
        Z = np.zeros((n, len(ents) + k))
        y = np.zeros(n)
        for i, r in enumerate(rows):
            Z[i, pos[r.entity]] = 1.0
            Z[i, len(ents):] = r.x
            y[i] = r.y
        coef = np.linalg.solve(Z.T @ Z, Z.T @ y)
        return {e: coef[pos[e]] for e in ents}, coef[len(ents):]

    def test_fifty_random_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n_ent = int(rng.integers(2, 6))
            t_len = int(rng.integers(3, 11))
            k = int(rng.integers(1, 5))
            rows = []
            for i in range(n_ent):
                keep = max(2, int(rng.integers(2, t_len + 1)))
                for t in range(keep):
                    rows.append(DesignRow(
                        entity=f"E{i}", year=t,
                        y=float(rng.normal()), x=rng.normal(size=k),
                    ))
            model = fit_within(rows)
            alpha_o, beta_o = self._dummy_ols(rows)
            assert np.allclose(model.beta, beta_o, atol=1e-8), f"trial {trial}"
            for e, a in alpha_o.items():
                assert model.alpha[e] == pytest.approx(a, abs=1e-8)

    def test_residual_identities(self):
        rng = np.random.default_rng(29)
        rows = [
            DesignRow(entity=f"E{i}", year=t, y=float(rng.normal()),
                      x=rng.normal(size=3))
            for i in range(4) for t in range(9)
        ]
        model = fit_within(rows)
        by_ent: dict = {}
        for r in rows:
            resid = r.y - predict(model, r.entity, r.x)
            by_ent.setdefault(r.entity, []).append(resid)
        scale = max(abs(r.y) for r in rows)
        # within-entity residuals sum to zero
        for e, res in by_ent.items():
            assert abs(sum(res)) < 1e-10 * scale
        # demeaned-regressor orthogonality
        X = np.array([r.x for r in rows])
        resid_all = np.array([r.y - predict(model, r.entity, r.x) for r in rows])
        for e in by_ent:
            idx = [i for i, r in enumerate(rows) if r.entity == e]
            X[idx] -= X[idx].mean(axis=0)
        assert np.max(np.abs(X.T @ resid_all)) < 1e-8 * scale


class TestPredict:
    def test_zero_x_returns_intercept(self):
        model = exact_linear_model()
        assert predict(model, "A", [0.0]) == pytest.approx(model.alpha["A"])

    def test_exact_linear_prediction(self):
        assert predict(exact_linear_model(), "A", [2.0]) == pytest.approx(9.0)

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntityError):
            predict(exact_linear_model(), "Z", [1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthError):
            predict(exact_linear_model(), "A", [1.0, 2.0])
