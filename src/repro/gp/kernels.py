"""Covariance kernels for GP regression.

All kernels expose hyperparameters through a flat log-space vector
``theta`` (positivity for free, and L-BFGS behaves far better in log
space).  ``gradients(X)`` returns the stack of ``dK/dtheta_j`` matrices
needed for analytic marginal-likelihood gradients, so fitting the GP
surrogate never falls back to finite differences.

Distance computations use the ``(a-b)^2 = a^2 + b^2 - 2ab`` expansion —
one GEMM instead of an O(n^2 d) broadcast — per the HPC guide's
"vectorize the bottleneck" rule.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Kernel",
    "RBF",
    "Matern32",
    "Matern52",
    "WhiteNoise",
    "ConstantKernel",
    "Sum",
    "Product",
]


def _sq_dists(X1: np.ndarray, X2: np.ndarray, inv_ls: np.ndarray) -> np.ndarray:
    """Pairwise squared distances after per-dimension scaling by 1/lengthscale."""
    A = X1 * inv_ls
    B = X2 * inv_ls
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)  # clamp tiny negative round-off
    return d2


class Kernel:
    """Base kernel. Subclasses implement ``__call__`` and ``gradients``."""

    @property
    def theta(self) -> np.ndarray:
        """Flat log-space hyperparameter vector."""
        raise NotImplementedError

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def bounds(self) -> np.ndarray:
        """(n_theta, 2) log-space box constraints for the optimizer."""
        raise NotImplementedError

    @property
    def n_theta(self) -> int:
        return self.theta.size

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def diag(self, X: np.ndarray) -> np.ndarray:
        """k(x, x) for each row — cheaper than the full Gram diagonal."""
        return np.diag(self(X))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Stack (n_theta, n, n) of dK(X,X)/dtheta_j."""
        raise NotImplementedError

    # composition sugar ------------------------------------------------
    def __add__(self, other: "Kernel") -> "Sum":
        return Sum(self, other)

    def __mul__(self, other: "Kernel") -> "Product":
        return Product(self, other)


class _Stationary(Kernel):
    """Shared machinery for variance + (possibly ARD) lengthscale kernels."""

    def __init__(
        self,
        variance: float = 1.0,
        lengthscale: float | np.ndarray = 1.0,
        n_dims: int | None = None,
        ard: bool = False,
    ):
        if variance <= 0:
            raise ValueError("variance must be positive")
        ls = np.atleast_1d(np.asarray(lengthscale, dtype=np.float64))
        if np.any(ls <= 0):
            raise ValueError("lengthscales must be positive")
        if ard:
            if n_dims is None and ls.size == 1:
                raise ValueError("ARD kernels need n_dims or a lengthscale vector")
            n_dims = n_dims or ls.size
            if ls.size == 1:
                ls = np.full(n_dims, ls[0])
            elif ls.size != n_dims:
                raise ValueError("lengthscale vector length != n_dims")
        else:
            if ls.size != 1:
                raise ValueError("non-ARD kernel takes a scalar lengthscale")
        self.ard = ard
        self._log_var = float(np.log(variance))
        self._log_ls = np.log(ls)

    # --- hyperparameters ---------------------------------------------
    @property
    def variance(self) -> float:
        return float(np.exp(self._log_var))

    @property
    def lengthscale(self) -> np.ndarray:
        return np.exp(self._log_ls)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([[self._log_var], self._log_ls])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.size != 1 + self._log_ls.size:
            raise ValueError("theta size mismatch")
        self._log_var = float(value[0])
        self._log_ls = value[1:].copy()

    @property
    def bounds(self) -> np.ndarray:
        b = np.empty((self.n_theta, 2))
        b[0] = (np.log(1e-6), np.log(1e6))   # variance
        b[1:] = (np.log(1e-3), np.log(1e3))  # lengthscales
        return b

    def _inv_ls(self, d: int) -> np.ndarray:
        ls = self.lengthscale
        if not self.ard and d > 1:
            ls = np.full(d, ls[0])
        return 1.0 / ls


class RBF(_Stationary):
    """Squared-exponential kernel: v * exp(-0.5 * r^2)."""

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        X2 = X1 if X2 is None else X2
        d2 = _sq_dists(X1, X2, self._inv_ls(X1.shape[1]))
        return self.variance * np.exp(-0.5 * d2)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.variance)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        n, d = X.shape
        inv_ls = self._inv_ls(d)
        K = self(X)
        grads = np.empty((self.n_theta, n, n))
        grads[0] = K  # d/d log(v): K itself
        if self.ard:
            for j in range(d):
                diff = (X[:, j, None] - X[None, :, j]) * inv_ls[j]
                grads[1 + j] = K * diff * diff  # d/d log(ls_j)
        else:
            d2 = _sq_dists(X, X, inv_ls)
            grads[1] = K * d2
        return grads


class _Matern(_Stationary):
    """Shared Matérn machinery; subclasses set nu-specific forms."""

    def _r(self, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
        return np.sqrt(_sq_dists(X1, X2, self._inv_ls(X1.shape[1])))

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.variance)


class Matern32(_Matern):
    """Matérn nu=3/2: v * (1 + a r) exp(-a r), a = sqrt(3)."""

    _A = np.sqrt(3.0)

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        X2 = X1 if X2 is None else X2
        ar = self._A * self._r(X1, X2)
        return self.variance * (1.0 + ar) * np.exp(-ar)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        n, d = X.shape
        r = self._r(X, X)
        ar = self._A * r
        e = np.exp(-ar)
        K = self.variance * (1.0 + ar) * e
        grads = np.empty((self.n_theta, n, n))
        grads[0] = K
        # dK/dr = -v a^2 r e^{-ar}; dr/dlog(ls_j) = -(diff_j/ls_j)^2 / r
        base = self.variance * (self._A**2) * e  # shared factor (dK/dr)/(-r)... see below
        if self.ard:
            inv_ls = self._inv_ls(d)
            for j in range(d):
                diff2 = ((X[:, j, None] - X[None, :, j]) * inv_ls[j]) ** 2
                grads[1 + j] = base * diff2
        else:
            grads[1] = base * r * r
        return grads


class Matern52(_Matern):
    """Matérn nu=5/2: v * (1 + a r + a^2 r^2/3) exp(-a r), a = sqrt(5)."""

    _A = np.sqrt(5.0)

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        X2 = X1 if X2 is None else X2
        ar = self._A * self._r(X1, X2)
        return self.variance * (1.0 + ar + ar * ar / 3.0) * np.exp(-ar)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        n, d = X.shape
        r = self._r(X, X)
        ar = self._A * r
        e = np.exp(-ar)
        K = self.variance * (1.0 + ar + ar * ar / 3.0) * e
        grads = np.empty((self.n_theta, n, n))
        grads[0] = K
        # dK/d(r^2) * d(r^2)/dlog(ls_j);  dK/dr = -v a^2 r (1+ar)/3 e^{-ar}
        base = self.variance * (self._A**2) * (1.0 + ar) * e / 3.0
        if self.ard:
            inv_ls = self._inv_ls(d)
            for j in range(d):
                diff2 = ((X[:, j, None] - X[None, :, j]) * inv_ls[j]) ** 2
                grads[1 + j] = base * diff2
        else:
            grads[1] = base * r * r
        return grads


class WhiteNoise(Kernel):
    """Diagonal noise kernel: sigma^2 * I (only on identical index pairs)."""

    def __init__(self, noise: float = 1e-4):
        if noise <= 0:
            raise ValueError("noise must be positive")
        self._log_noise = float(np.log(noise))

    @property
    def noise(self) -> float:
        return float(np.exp(self._log_noise))

    @property
    def theta(self) -> np.ndarray:
        return np.array([self._log_noise])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self._log_noise = float(np.asarray(value).ravel()[0])

    @property
    def bounds(self) -> np.ndarray:
        return np.array([[np.log(1e-10), np.log(1e2)]])

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        if X2 is None or X2 is X1:
            return self.noise * np.eye(X1.shape[0])
        return np.zeros((X1.shape[0], X2.shape[0]))

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.noise)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        return (self.noise * np.eye(X.shape[0]))[None, :, :]


class ConstantKernel(Kernel):
    """Constant covariance c (models a global offset/bias)."""

    def __init__(self, constant: float = 1.0):
        if constant <= 0:
            raise ValueError("constant must be positive")
        self._log_c = float(np.log(constant))

    @property
    def constant(self) -> float:
        return float(np.exp(self._log_c))

    @property
    def theta(self) -> np.ndarray:
        return np.array([self._log_c])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self._log_c = float(np.asarray(value).ravel()[0])

    @property
    def bounds(self) -> np.ndarray:
        return np.array([[np.log(1e-6), np.log(1e6)]])

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        X2 = X1 if X2 is None else X2
        return np.full((X1.shape[0], X2.shape[0]), self.constant)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.constant)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        return np.full((1, n, n), self.constant)


class _Binary(Kernel):
    """Shared theta plumbing for two-child composite kernels."""

    def __init__(self, left: Kernel, right: Kernel):
        self.left = left
        self.right = right

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.left.theta, self.right.theta])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        nl = self.left.n_theta
        self.left.theta = value[:nl]
        self.right.theta = value[nl:]

    @property
    def bounds(self) -> np.ndarray:
        return np.vstack([self.left.bounds, self.right.bounds])


class Sum(_Binary):
    """k = k_left + k_right (e.g. signal + white noise)."""

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        return self.left(X1, X2) + self.right(X1, X2)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.left.diag(X) + self.right.diag(X)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        return np.concatenate([self.left.gradients(X), self.right.gradients(X)])


class Product(_Binary):
    """k = k_left * k_right (element-wise)."""

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None) -> np.ndarray:
        return self.left(X1, X2) * self.right(X1, X2)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.left.diag(X) * self.right.diag(X)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        Kl = self.left(X)
        Kr = self.right(X)
        gl = self.left.gradients(X) * Kr[None]
        gr = self.right.gradients(X) * Kl[None]
        return np.concatenate([gl, gr])
