"""Acquisition functions for minimization-mode Bayesian Optimization.

The paper uses *expected improvement* (Mockus 1977) — cited explicitly in
Section IV-A.  PI and LCB are included for the acquisition ablation
bench.  All functions take the GP posterior mean/std at candidate points
and return a score where **larger is better** (the BO loop maximizes the
acquisition even though the objective — validation MAPE — is minimized).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "expected_improvement",
    "probability_of_improvement",
    "lower_confidence_bound",
    "ACQUISITIONS",
]


# EI and PI evaluate the expressions ``scipy.stats.norm`` evaluates,
# without ``rv_continuous``'s argument machinery: ``norm.cdf(z)``
# standardizes ``(z - 0) / 1`` (exact), writes its own ``np.nan`` for NaN,
# 1 for ``+inf`` and 0 for ``-inf``, and calls ``norm._cdf = ndtr`` on
# the rest; ``ndtr`` returns those same bits at NaN and the infinities.

#: sqrt(2 pi), the standard normal pdf's normalizer, as scipy spells it.
_NORM_PDF_C = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal pdf: the bits ``norm.pdf`` returns.

    ``norm._pdf`` is ``np.exp(-x**2/2.0) / sqrt(2 pi)`` on the
    standardized *array* ``x``, where ``x**2`` is ``np.square``; a numpy
    scalar ``**2`` would call libm ``pow``, which rounds differently on
    about 0.1% of inputs.  NaN gets ``rv_continuous``'s own ``np.nan``
    (``-z**2`` flips a NaN's sign bit), and a 0-d result is a numpy
    scalar, as from ``norm.pdf``, so the arithmetic after it runs the
    same scalar or array loops.
    """
    p = np.exp(-np.square(z) / 2.0) / _NORM_PDF_C
    return np.where(np.isnan(z), np.nan, p)[()]


def _prep(mu, sigma) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise ValueError("mu and sigma must have the same shape")
    return mu, np.maximum(sigma, 1e-12)


def expected_improvement(
    mu: np.ndarray, sigma: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI for minimization: E[max(best - f(x) - xi, 0)].

    ``xi`` trades exploration for exploitation; the GPyOpt default of 0.01
    is kept.
    """
    mu, sigma = _prep(mu, sigma)
    imp = best - mu - xi
    z = imp / sigma
    ei = imp * ndtr(z) + sigma * _norm_pdf(z)
    return np.maximum(ei, 0.0)


def probability_of_improvement(
    mu: np.ndarray, sigma: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """PI for minimization: P[f(x) < best - xi]."""
    mu, sigma = _prep(mu, sigma)
    return ndtr((best - mu - xi) / sigma)


def lower_confidence_bound(
    mu: np.ndarray, sigma: np.ndarray, best: float = 0.0, kappa: float = 2.0
) -> np.ndarray:
    """Negated LCB: maximize -(mu - kappa*sigma).  ``best`` unused (API parity)."""
    mu, sigma = _prep(mu, sigma)
    return -(mu - kappa * sigma)


#: Registry keyed by the names accepted by BayesianOptimizer.
ACQUISITIONS = {
    "ei": expected_improvement,
    "pi": probability_of_improvement,
    "lcb": lower_confidence_bound,
}


def score_candidates(
    gp,
    U: np.ndarray,
    acquisition: str,
    best: float,
    *,
    xi: float = 0.01,
    kappa: float = 2.0,
) -> np.ndarray:
    """Acquisition scores for an ``(N, D)`` candidate matrix in one shot.

    One batched GP posterior evaluation covers the whole sweep — the
    per-candidate cost is a dot product against the shared triangular
    solve, so scoring 1k candidates costs barely more than scoring one.
    This is the single entry point the BO loop (and the candidate-sweep
    acquisition optimizer) uses; per-point scoring is just ``N == 1``.
    """
    fn = ACQUISITIONS[acquisition]
    mu, sd = gp.predict(np.atleast_2d(U), return_std=True)
    if acquisition == "lcb":
        return fn(mu, sd, best, kappa=kappa)
    return fn(mu, sd, best, xi=xi)
