"""Tests for Gaussian-process regression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gp import RBF, GaussianProcessRegressor, Matern52


@pytest.fixture
def data(rng):
    X = rng.uniform(0, 1, (30, 2))
    y = np.sin(5 * X[:, 0]) + 0.3 * X[:, 1] + 0.01 * rng.standard_normal(30)
    return X, y


class TestFitPredict:
    def test_interpolates_training_points(self, data):
        X, y = data
        # A short lengthscale keeps the Gram matrix well-conditioned so
        # near-noiseless GP regression should interpolate.
        gp = GaussianProcessRegressor(
            kernel=RBF(lengthscale=0.2), noise=1e-8, optimize=False
        ).fit(X, y)
        np.testing.assert_allclose(gp.predict(X), y, atol=1e-3)

    def test_uncertainty_grows_away_from_data(self, data):
        X, y = data
        gp = GaussianProcessRegressor(optimize=False).fit(X, y)
        _, sd_near = gp.predict(X[:1], return_std=True)
        _, sd_far = gp.predict(np.array([[10.0, 10.0]]), return_std=True)
        assert sd_far[0] > sd_near[0]

    def test_optimized_beats_default_on_lml(self, data):
        X, y = data
        gp0 = GaussianProcessRegressor(kernel=RBF(), optimize=False).fit(X, y)
        lml0 = gp0.log_marginal_likelihood()
        gp1 = GaussianProcessRegressor(kernel=RBF(), optimize=True, seed=0).fit(X, y)
        lml1 = gp1.log_marginal_likelihood()
        assert lml1 >= lml0 - 1e-6

    def test_generalizes(self, data, rng):
        X, y = data
        gp = GaussianProcessRegressor(kernel=Matern52(), seed=0).fit(X, y)
        Xs = rng.uniform(0, 1, (100, 2))
        ys = np.sin(5 * Xs[:, 0]) + 0.3 * Xs[:, 1]
        rmse = float(np.sqrt(np.mean((gp.predict(Xs) - ys) ** 2)))
        assert rmse < 0.1

    def test_predict_1d_query(self, data):
        X, y = data
        gp = GaussianProcessRegressor(optimize=False).fit(X, y)
        assert gp.predict(X[0]).shape == (1,)

    def test_constant_targets_handled(self, rng):
        X = rng.uniform(0, 1, (10, 2))
        y = np.full(10, 3.0)
        gp = GaussianProcessRegressor(optimize=False).fit(X, y)
        np.testing.assert_allclose(gp.predict(X), 3.0, atol=1e-6)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_input_validation(self, rng):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            gp.fit(np.zeros(3), np.zeros(3))  # 1-D X

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(noise=0.0)


class TestUpdate:
    def test_update_is_a_refit_with_the_same_hyperparameters(self, data):
        """``update`` grows the data by one row and refactors exactly:
        the same bytes as ``fit(optimize=False)`` on the grown set, with
        the hyperparameters the first fit optimized."""
        X, y = data
        gp = GaussianProcessRegressor(
            kernel=Matern52(ard=True, n_dims=2), n_restarts=1
        ).fit(X[:-1], y[:-1])
        ref = GaussianProcessRegressor(
            kernel=Matern52(ard=True, n_dims=2), noise=gp.noise, optimize=False
        )
        ref.kernel.theta = gp.kernel.theta
        ref.fit(X, y)
        gp.update(X[-1], y[-1])
        assert gp.optimize
        assert gp.n_observations == len(y)
        for got, want in ((gp._L, ref._L), (gp._alpha, ref._alpha)):
            assert got.tobytes() == want.tobytes()

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor(optimize=False).update(np.zeros(2), 0.0)

    def test_update_wrong_dims_raises(self, rng):
        gp = GaussianProcessRegressor(optimize=False)
        gp.fit(rng.uniform(size=(4, 3)), rng.normal(size=4))
        with pytest.raises(ValueError, match="3 features"):
            gp.update(np.zeros(2), 0.0)


class TestLML:
    def test_gradient_matches_numeric(self, rng):
        X = rng.uniform(0, 1, (10, 2))
        y = np.sin(4 * X[:, 0]) + 0.05 * rng.standard_normal(10)
        gp = GaussianProcessRegressor(
            kernel=RBF(ard=True, n_dims=2), optimize=False, noise=1e-2
        ).fit(X, y)
        t0 = gp._pack_theta()
        _, g = gp.log_marginal_likelihood(t0, eval_gradient=True)
        eps = 1e-6
        for j in range(t0.size):
            tp, tm = t0.copy(), t0.copy()
            tp[j] += eps
            tm[j] -= eps
            num = (
                gp.log_marginal_likelihood(tp) - gp.log_marginal_likelihood(tm)
            ) / (2 * eps)
            gp._unpack_theta(t0)
            assert num == pytest.approx(g[j], rel=1e-4, abs=1e-6)

    def test_lml_higher_for_true_structure(self, rng):
        """A GP with a sane lengthscale explains smooth data better than a
        wildly mis-scaled one."""
        X = np.linspace(0, 1, 25)[:, None]
        y = np.sin(4 * X[:, 0])
        good = GaussianProcessRegressor(
            kernel=RBF(lengthscale=0.3), optimize=False, noise=1e-4
        ).fit(X, y)
        bad = GaussianProcessRegressor(
            kernel=RBF(lengthscale=1e-3), optimize=False, noise=1e-4
        ).fit(X, y)
        assert good.log_marginal_likelihood() > bad.log_marginal_likelihood()


class TestPosteriorSampling:
    def test_sample_shapes_and_spread(self, data):
        X, y = data
        gp = GaussianProcessRegressor(optimize=False, seed=4).fit(X, y)
        Xs = np.array([[0.5, 0.5], [5.0, 5.0]])
        draws = gp.sample_posterior(Xs, n_samples=64, seed=1)
        assert draws.shape == (64, 2)
        # Far point has much higher posterior variance than near point.
        assert draws[:, 1].std() > draws[:, 0].std()


class TestNonFiniteInput:
    """Non-finite input is rejected at the API boundary with a
    ``ValueError`` that names the argument, on every path: not left to a
    LAPACK wrapper's generic check on some paths and passed through as
    NaN on others."""

    @pytest.fixture
    def gp(self, rng):
        X = rng.uniform(0, 1, (5, 2))
        y = rng.standard_normal(5)
        return GaussianProcessRegressor(
            kernel=Matern52(ard=True, n_dims=2), optimize=False
        ).fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("return_std", [False, True])
    def test_predict(self, gp, bad, return_std):
        with pytest.raises(ValueError, match="Xs"):
            gp.predict([[bad, 0.5]], return_std=return_std)

    def test_sample_posterior(self, gp):
        with pytest.raises(ValueError, match="Xs"):
            gp.sample_posterior(np.array([[0.5, np.nan]]), seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit(self, rng, bad):
        X = rng.uniform(0, 1, (5, 2))
        y = rng.standard_normal(5)
        y_bad, X_bad = y.copy(), X.copy()
        y_bad[2], X_bad[3, 1] = bad, bad
        for optimize in (False, True):
            gp = GaussianProcessRegressor(optimize=optimize)
            with pytest.raises(ValueError, match="y must"):
                gp.fit(X, y_bad)
            with pytest.raises(ValueError, match="X must"):
                gp.fit(X_bad, y)
            assert not gp.is_fitted

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_update_rejects_before_changing_state(self, gp, bad):
        X, L = gp._X.copy(), gp._L.copy()
        with pytest.raises(ValueError, match="x must"):
            gp.update(np.array([0.2, bad]), 1.0)
        with pytest.raises(ValueError, match="y must"):
            gp.update(np.array([0.2, 0.3]), bad)
        assert gp.n_observations == 5
        assert np.array_equal(gp._X, X) and np.array_equal(gp._L, L)

    def test_overflowing_kernel_still_rejected_on_std_path(self, gp):
        """A finite query far enough out overflows the Matern kernel to
        NaN; the std path rejects the cross-covariance as the
        ``solve_triangular`` wrapper's finiteness check did."""
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="k\\(X, Xs\\)"):
            gp.predict([[1e200, 0.5]], return_std=True)

    def test_non_finite_matrix_is_a_value_error(self):
        from repro.gp.gp import _chol_with_jitter

        K = np.eye(3)
        K[1, 0] = np.nan
        with pytest.raises(ValueError, match="kernel matrix"):
            _chol_with_jitter(K)
