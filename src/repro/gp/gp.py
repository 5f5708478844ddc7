"""Exact Gaussian-process regression via Cholesky factorization.

This is the non-linear regression engine LoadDynamics' BO loop uses to
model (hyperparameters → cross-validation MAPE) (paper Section III-A).

Implementation follows Rasmussen & Williams Algorithm 2.1:

    L   = chol(K + sigma_n^2 I)
    a   = L^-T (L^-1 y)
    mu* = k*^T a
    v   = L^-1 k*
    s*  = k(x*,x*) - v^T v

with the log marginal likelihood and its analytic gradient used to fit
kernel hyperparameters by multi-restart L-BFGS-B.  Targets are
standardized internally so kernel-variance priors stay workload-agnostic
(JAR MAPEs span 1%–400% across the paper's 14 configurations).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import minimize

from repro.gp.kernels import RBF, Kernel
from repro.obs import metrics as _metrics

__all__ = ["GaussianProcessRegressor"]

_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

# The float64 LAPACK routines scipy's ``cholesky``/``cho_solve``/
# ``solve_triangular`` dispatch to, resolved once.  Called directly on
# the same operands they compute the same bits as through the wrappers,
# whose Python layers cost more than the factorizations themselves at
# BO-history sizes (DESIGN.md §13, "LAPACK directly").  The wrappers'
# finiteness checks stay, as explicit checks at the call sites and at
# the API boundary (:func:`_require_finite`).
_potrf, _potrs, _potri, _trtrs = get_lapack_funcs(
    ("potrf", "potrs", "potri", "trtrs"), (np.empty((1, 1)),)
)


def _require_finite(name: str, a: np.ndarray) -> None:
    """Reject NaN/inf in ``a`` with a ``ValueError`` naming it."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must not contain NaN or inf")


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky of K, escalating diagonal jitter until it succeeds.

    A non-finite jittered matrix raises ``ValueError`` (as
    ``scipy.linalg.cholesky`` with ``check_finite`` does); a matrix that
    stays indefinite at the largest jitter raises ``LinAlgError``.  The
    factor is Fortran-ordered with a zeroed upper triangle.
    """
    scale = float(np.mean(np.diag(K))) or 1.0
    n = K.shape[0]
    for jitter in _JITTERS:
        A = K + jitter * scale * np.eye(n)
        _require_finite("kernel matrix", A)
        L, info = _potrf(A, lower=1, clean=1)
        if info == 0:
            return L, jitter * scale
        if info < 0:  # pragma: no cover - an illegal argument is a bug here
            raise ValueError(f"illegal value in argument {-info} of potrf")
    raise np.linalg.LinAlgError("kernel matrix not positive definite even with jitter")


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b for a lower factor ``L`` from :func:`_chol_with_jitter`.

    ``L`` is finite by construction (the factor of a checked finite
    matrix); ``b`` is checked here
    as ``cho_solve(check_finite=True)`` checked it.
    """
    _require_finite("right-hand side", b)
    x, info = _potrs(L, b, lower=1)
    if info != 0:  # pragma: no cover - an illegal argument is a bug here
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


class GaussianProcessRegressor:
    """GP regression with optional marginal-likelihood kernel fitting.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to an isotropic RBF.  The observation
        noise is a separate explicit ``noise`` term rather than a WhiteNoise
        kernel summand so the predictive variance reported is that of the
        *latent* function (what EI wants).
    noise:
        Observation noise variance sigma_n^2 (in standardized-target units).
    optimize:
        If true, :meth:`fit` tunes kernel hyperparameters (and the noise if
        ``optimize_noise``) by maximizing the log marginal likelihood.
    n_restarts:
        Extra random restarts for the optimizer (first start is the
        current kernel configuration).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise: float = 1e-6,
        optimize: bool = True,
        optimize_noise: bool = True,
        n_restarts: int = 2,
        seed: int = 0,
    ):
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.kernel = kernel if kernel is not None else RBF()
        self.noise = float(noise)
        self.optimize = bool(optimize)
        self.optimize_noise = bool(optimize_noise)
        self.n_restarts = int(n_restarts)
        self._rng = np.random.default_rng(seed)
        self._X: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        #: Absolute diagonal jitter the current factor was taken with
        #: (0 unless the kernel matrix needed regularizing).
        self._jitter = 0.0

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._L is not None

    @property
    def n_observations(self) -> int:
        return 0 if self._X is None else int(self._X.shape[0])

    def _pack_theta(self) -> np.ndarray:
        t = self.kernel.theta
        if self.optimize_noise:
            t = np.concatenate([t, [np.log(self.noise)]])
        return t

    def _unpack_theta(self, theta: np.ndarray) -> None:
        nk = self.kernel.n_theta
        self.kernel.theta = theta[:nk]
        if self.optimize_noise:
            self.noise = float(np.exp(theta[nk]))

    def _theta_bounds(self) -> np.ndarray:
        b = self.kernel.bounds
        if self.optimize_noise:
            b = np.vstack([b, [[np.log(1e-8), np.log(1e1)]]])
        return b

    # ------------------------------------------------------------------
    def log_marginal_likelihood(
        self, theta: np.ndarray | None = None, eval_gradient: bool = False
    ):
        """LML of the standardized training targets under the kernel.

        With ``eval_gradient`` also returns d(LML)/d(theta) using the
        trace identity  dLML/dθ = 0.5 tr((αα^T − K^-1) dK/dθ).
        """
        if self._X is None:
            raise RuntimeError("call fit() first")
        if theta is not None:
            self._unpack_theta(np.asarray(theta, dtype=np.float64))
        X, y = self._X, self._y_standardized
        n = X.shape[0]
        K = self.kernel(X) + self.noise * np.eye(n)
        L, _ = _chol_with_jitter(K)
        alpha = _cho_solve(L, y)
        lml = (
            -0.5 * float(y @ alpha)
            - float(np.sum(np.log(np.diag(L))))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        if not eval_gradient:
            return lml
        # K^-1 from the existing triangular factor via LAPACK ?potri
        # (~n^3/3) instead of cho_solve against a dense identity (two
        # full triangular solves, ~n^3).  The full inverse is genuinely
        # consumed here — every dK/dtheta_j is dense — while the noise
        # gradient below reads only its trace (the W diagonal).
        Kinv, info = _potri(L, lower=1)
        if info == 0:
            Kinv = np.tril(Kinv) + np.tril(Kinv, -1).T
        else:  # pragma: no cover - potri failure is a broken factor
            Kinv = _cho_solve(L, np.eye(n))
        W = np.outer(alpha, alpha) - Kinv
        grads_K = self.kernel.gradients(X)
        g = 0.5 * np.einsum("ij,tij->t", W, grads_K)
        if self.optimize_noise:
            g_noise = 0.5 * np.trace(W) * self.noise  # chain rule through log
            g = np.concatenate([g, [g_noise]])
        return lml, g

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit on rows ``X`` with scalar targets ``y`` (finite, or ``ValueError``)."""
        from repro.resilience import faults as _faults

        injector = _faults.active()
        if injector is not None:
            injector.maybe_fire("gp.fit")
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D (n_samples, n_features)")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y length mismatch")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP on zero observations")
        _require_finite("X", X)
        _require_finite("y", y)
        self._X = X
        self._y_raw = y.copy()
        self._y_mean = float(np.mean(y))
        std = float(np.std(y))
        self._y_std = std if std > 1e-12 else 1.0
        self._y_standardized = (y - self._y_mean) / self._y_std

        if self.optimize and X.shape[0] >= 2:
            self._optimize_hyperparameters()

        self._refactor()
        return self

    def _refactor(self) -> None:
        """Exact O(n^3) factorization of the current training set."""
        K = self.kernel(self._X) + self.noise * np.eye(self._X.shape[0])
        self._L, self._jitter = _chol_with_jitter(K)
        self._alpha = _cho_solve(self._L, self._y_standardized)
        _metrics.counter("gp.refit.full").inc()

    def update(self, x: np.ndarray, y: float) -> "GaussianProcessRegressor":
        """Add one observation and refactor with the current kernel
        hyperparameters, which are not re-optimized: the posterior is
        exactly :meth:`fit` with ``optimize=False`` on the grown data.
        A non-finite ``x`` or ``y`` is rejected before any state changes."""
        if not self.is_fitted:
            raise RuntimeError("call fit() before update()")
        x = np.asarray(x, dtype=np.float64)
        x2d = x[None, :] if x.ndim == 1 else x
        if x2d.shape != (1, self._X.shape[1]):
            raise ValueError(
                f"update() takes one row of {self._X.shape[1]} features, "
                f"got shape {x.shape}"
            )
        _require_finite("x", x2d)
        if not np.isfinite(y):
            raise ValueError("y must not be NaN or inf")
        optimize, self.optimize = self.optimize, False
        try:
            return self.fit(
                np.vstack([self._X, x2d]), np.append(self._y_raw, float(y))
            )
        finally:
            self.optimize = optimize

    def _optimize_hyperparameters(self) -> None:
        bounds = self._theta_bounds()

        def negative_lml(theta):
            try:
                lml, g = self.log_marginal_likelihood(theta, eval_gradient=True)
            except np.linalg.LinAlgError:
                return 1e25, np.zeros(theta.shape)
            return -lml, -g

        starts = [self._pack_theta()]
        for _ in range(max(0, self.n_restarts)):
            starts.append(
                self._rng.uniform(bounds[:, 0], bounds[:, 1])
            )
        best_val = np.inf
        best_theta = starts[0]
        for s in starts:
            res = minimize(
                negative_lml,
                s,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 200},
            )
            if np.isfinite(res.fun) and res.fun < best_val:
                best_val = res.fun
                best_theta = res.x
        self._unpack_theta(best_theta)

    # ------------------------------------------------------------------
    def predict(
        self, Xs: np.ndarray, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and latent std) at finite query rows ``Xs``."""
        if not self.is_fitted:
            raise RuntimeError("call fit() first")
        Xs = np.asarray(Xs, dtype=np.float64)
        if Xs.ndim == 1:
            Xs = Xs[None, :]
        _require_finite("Xs", Xs)
        Ks = self.kernel(self._X, Xs)  # (n, m)
        mean = Ks.T @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = self._solve_lower(Ks)
        var = self.kernel.diag(Xs) - np.sum(v * v, axis=0)
        np.maximum(var, 1e-15, out=var)
        return mean, np.sqrt(var) * self._y_std

    def _solve_lower(self, Ks: np.ndarray) -> np.ndarray:
        """``L^-1 Ks`` for the current factor (always Fortran-ordered, so
        this is the ``trtrs`` call ``solve_triangular`` makes).  Finite
        query rows can still give a non-finite cross-covariance when a
        kernel overflows; that is rejected as the wrapper rejected it."""
        _require_finite("cross-covariance k(X, Xs)", Ks)
        v, info = _trtrs(self._L, Ks, lower=1)
        if info > 0:  # pragma: no cover - a Cholesky factor has no zero pivot
            raise np.linalg.LinAlgError(f"singular factor at diagonal {info - 1}")
        return v

    def sample_posterior(
        self, Xs: np.ndarray, n_samples: int = 1, seed: int | None = None
    ) -> np.ndarray:
        """Draw joint posterior function samples at ``Xs`` (for Thompson-style use)."""
        if not self.is_fitted:
            raise RuntimeError("call fit() first")
        Xs = np.asarray(Xs, dtype=np.float64)
        _require_finite("Xs", Xs)
        Ks = self.kernel(self._X, Xs)
        mean = Ks.T @ self._alpha
        v = self._solve_lower(Ks)
        cov = self.kernel(Xs) - v.T @ v
        Lc, _ = _chol_with_jitter(cov + 1e-12 * np.eye(Xs.shape[0]))
        rng = self._rng if seed is None else np.random.default_rng(seed)
        z = rng.standard_normal((Xs.shape[0], n_samples))
        draws = mean[:, None] + Lc @ z
        return (draws * self._y_std + self._y_mean).T
