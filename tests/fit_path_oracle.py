"""The fit path as it was before it called LAPACK and ``ndtr`` directly.

An oracle for bit-exact pins.  It keeps, verbatim, the GP surrogate's
``_chol_with_jitter``, ``log_marginal_likelihood``, ``_refactor`` and
``predict`` through scipy's ``cholesky``/``cho_solve``/
``solve_triangular`` wrappers, and expected/probability of improvement
through ``scipy.stats.norm``.  :func:`installed` swaps these into the
shipped modules, together with ``np.clip`` for the bound clip ufunc
and a trial evaluator that predicts the validation windows again
instead of reusing the forecast the fit kept.

Both sides run on the same LAPACK in the same process, so comparing a
shipped run with an oracle run holds on any host.  Used by
``tests/test_fit_path_oracle.py`` and by the fit-path parity stage of
``scripts/perf_smoke.py``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.linalg import cho_solve, cholesky, get_lapack_funcs, solve_triangular
from scipy.stats import norm

from repro.obs import metrics as _metrics

_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky of K, escalating diagonal jitter until it succeeds."""
    scale = float(np.mean(np.diag(K))) or 1.0
    for jitter in _JITTERS:
        try:
            L = cholesky(K + jitter * scale * np.eye(K.shape[0]), lower=True)
            return L, jitter * scale
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("kernel matrix not positive definite even with jitter")


def log_marginal_likelihood(self, theta=None, eval_gradient=False):
    """``GaussianProcessRegressor.log_marginal_likelihood`` through the wrappers."""
    if self._X is None:
        raise RuntimeError("call fit() first")
    if theta is not None:
        self._unpack_theta(np.asarray(theta, dtype=np.float64))
    X, y = self._X, self._y_standardized
    n = X.shape[0]
    K = self.kernel(X) + self.noise * np.eye(n)
    L, _ = _chol_with_jitter(K)
    alpha = cho_solve((L, True), y)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    if not eval_gradient:
        return lml
    potri, = get_lapack_funcs(("potri",), (L,))
    Kinv, info = potri(L, lower=1)
    if info == 0:
        Kinv = np.tril(Kinv) + np.tril(Kinv, -1).T
    else:  # pragma: no cover - potri failure is a broken factor
        Kinv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    grads_K = self.kernel.gradients(X)
    g = 0.5 * np.einsum("ij,tij->t", W, grads_K)
    if self.optimize_noise:
        g_noise = 0.5 * np.trace(W) * self.noise  # chain rule through log
        g = np.concatenate([g, [g_noise]])
    return lml, g


def _refactor(self) -> None:
    """``GaussianProcessRegressor._refactor`` through the wrappers."""
    K = self.kernel(self._X) + self.noise * np.eye(self._X.shape[0])
    self._L, self._jitter = _chol_with_jitter(K)
    self._alpha = cho_solve((self._L, True), self._y_standardized)
    self._updates_since_refactor = 0
    _metrics.counter("gp.refit.full").inc()


def predict(self, Xs, return_std=False):
    """``GaussianProcessRegressor.predict`` through the wrappers."""
    if not self.is_fitted:
        raise RuntimeError("call fit() first")
    Xs = np.asarray(Xs, dtype=np.float64)
    if Xs.ndim == 1:
        Xs = Xs[None, :]
    Ks = self.kernel(self._X, Xs)  # (n, m)
    mean = Ks.T @ self._alpha * self._y_std + self._y_mean
    if not return_std:
        return mean
    v = solve_triangular(self._L, Ks, lower=True)
    var = self.kernel.diag(Xs) - np.sum(v * v, axis=0)
    np.maximum(var, 1e-15, out=var)
    return mean, np.sqrt(var) * self._y_std


def _prep(mu, sigma) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise ValueError("mu and sigma must have the same shape")
    return mu, np.maximum(sigma, 1e-12)


def expected_improvement(mu, sigma, best, xi=0.01):
    """EI for minimization through ``scipy.stats.norm``."""
    mu, sigma = _prep(mu, sigma)
    imp = best - mu - xi
    z = imp / sigma
    ei = imp * norm.cdf(z) + sigma * norm.pdf(z)
    return np.maximum(ei, 0.0)


def probability_of_improvement(mu, sigma, best, xi=0.01):
    """PI for minimization through ``scipy.stats.norm``."""
    mu, sigma = _prep(mu, sigma)
    return norm.cdf((best - mu - xi) / sigma)


def validation_forecast(model, history, X_val):
    """The trial evaluator's validation forecast: always predict again."""
    return model.predict(X_val)


@contextmanager
def installed():
    """Run the shipped fit path with every oracle piece swapped in."""
    import repro.bayesopt.acquisition as acquisition
    import repro.core.evaluation as evaluation
    import repro.gp.gp as gp
    import repro.nn.activations as activations
    import repro.nn.lstm as lstm

    GPR = gp.GaussianProcessRegressor
    swaps = [
        (gp, "_chol_with_jitter", _chol_with_jitter),
        (GPR, "log_marginal_likelihood", log_marginal_likelihood),
        (GPR, "_refactor", _refactor),
        (GPR, "predict", predict),
        (acquisition, "expected_improvement", expected_improvement),
        (acquisition, "probability_of_improvement", probability_of_improvement),
        (activations, "clip_ufunc", np.clip),
        (lstm, "clip_ufunc", np.clip),
        (evaluation, "_validation_forecast", validation_forecast),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in swaps]
    table = dict(acquisition.ACQUISITIONS)
    try:
        for owner, name, value in swaps:
            setattr(owner, name, value)
        acquisition.ACQUISITIONS.update(
            ei=expected_improvement, pi=probability_of_improvement
        )
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
        acquisition.ACQUISITIONS.update(table)
