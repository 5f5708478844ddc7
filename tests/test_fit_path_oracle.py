"""The GP surrogate and the acquisition functions against their wrapper
versions, kept verbatim in ``tests/fit_path_oracle.py``, on raw bytes.

The closed-loop bytes of ``tests/data/bo_default_path.json`` hold only
with the L-BFGS-B and LAPACK rounding of the host that recorded them
(``tests/test_bayesopt_fixture.py`` replays the recorded runs step by
step on other hosts).  These pins compare the shipped code with the
oracle on the same LAPACK in the same process, so they hold on any
host: per call on drawn inputs, and over the whole seeded runs
``scripts/make_bo_fixture.py`` records.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesopt.acquisition import (
    expected_improvement,
    probability_of_improvement,
)
from repro.gp import RBF, GaussianProcessRegressor, Matern52
from repro.gp.gp import _chol_with_jitter

from tests import fit_path_oracle as oracle

ROOT = Path(__file__).resolve().parent.parent


def _outcome(fn, *args, **kwargs):
    """``fn``'s result as comparable bytes, or the exception type it raised."""
    try:
        out = fn(*args, **kwargs)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return _as_bytes(out)


def _as_bytes(out):
    if isinstance(out, tuple):
        return tuple(_as_bytes(o) for o in out)
    if isinstance(out, np.ndarray):
        return (out.shape, out.flags.f_contiguous, out.tobytes())
    if isinstance(out, float):
        return (type(out), np.float64(out).tobytes())
    return (type(out), np.asarray(out).tobytes())


def _kernel(kind: str, d: int):
    if kind == "matern52":
        return Matern52(ard=True, n_dims=d, lengthscale=0.3)
    return RBF(ard=True, n_dims=d, lengthscale=0.3)


class TestGaussianProcessPerCall:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 8), d=st.integers(1, 3),
        kind=st.sampled_from(["matern52", "rbf"]),
        duplicate=st.booleans(), y_scale=st.sampled_from([1e-3, 1.0, 1e3]),
        m=st.integers(1, 5), seed=st.integers(0, 2**16),
    )
    def test_factor_lml_refactor_predict_bytes(
        self, n, d, kind, duplicate, y_scale, m, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, d))
        if duplicate and n > 1:
            X[-1] = X[0]  # a singular Gram matrix without noise
        y = y_scale * rng.standard_normal(n)
        gp = GaussianProcessRegressor(
            _kernel(kind, d), noise=1e-4, optimize=False
        ).fit(X, y)
        bounds = gp._theta_bounds()
        theta = rng.uniform(bounds[:, 0], bounds[:, 1])
        gp._unpack_theta(theta)

        K = gp.kernel(X)
        for A in (K, K + gp.noise * np.eye(n)):
            assert _outcome(_chol_with_jitter, A) == _outcome(
                oracle._chol_with_jitter, A
            )
        for grad in (False, True):
            assert _outcome(gp.log_marginal_likelihood, theta, grad) == _outcome(
                oracle.log_marginal_likelihood, gp, theta, grad
            )

        shipped = _outcome(gp._refactor)
        state = _as_bytes((gp._L, gp._alpha, gp._jitter))
        assert _outcome(oracle._refactor, gp) == shipped
        assert _as_bytes((gp._L, gp._alpha, gp._jitter)) == state
        if shipped is np.linalg.LinAlgError:
            return

        Xs = rng.uniform(-0.5, 1.5, size=(m, d))
        for query in (Xs, Xs[0]):
            for return_std in (False, True):
                assert _outcome(gp.predict, query, return_std) == _outcome(
                    oracle.predict, gp, query, return_std
                )


#: Values that make ``z`` infinite or NaN, and every sign of zero.
_SPECIAL = st.sampled_from(
    [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1e-300, 1e300]
)
_VALUE = _SPECIAL | st.floats(-50.0, 50.0) | st.floats(
    allow_nan=True, allow_infinity=True
)


class TestAcquisitionPerCall:
    @settings(max_examples=300, deadline=None)
    @given(
        mu_sigma=st.integers(0, 6).flatmap(
            lambda k: st.tuples(
                st.lists(_VALUE, min_size=k, max_size=k),
                st.lists(_VALUE, min_size=k, max_size=k),
            )
        ),
        best=_VALUE, xi=st.sampled_from([0.01, 0.0, np.nan, np.inf]),
        scalar=st.booleans(),
    )
    def test_ei_and_pi_bytes(self, mu_sigma, best, xi, scalar):
        mu, sigma = (np.array(v, dtype=np.float64) for v in mu_sigma)
        if scalar:
            if mu.size == 0:
                return
            mu, sigma = mu[0], sigma[0]  # numpy scalars
        with np.errstate(all="ignore"):
            for shipped, old in (
                (expected_improvement, oracle.expected_improvement),
                (probability_of_improvement, oracle.probability_of_improvement),
            ):
                got, want = shipped(mu, sigma, best, xi), old(mu, sigma, best, xi)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_many_scalar_inputs_bytes(self):
        """Scalar inputs over a wide spread of z: a numpy scalar ``z**2``
        calls libm ``pow``, which rounds differently from the array
        square on about 0.1% of inputs, too rarely for the draws above."""
        rng = np.random.default_rng(2024)
        mus = rng.standard_normal(4000) * rng.choice([0.1, 1.0, 5.0], 4000)
        sigmas = rng.uniform(0.05, 2.0, 4000)
        for mu, sigma in zip(mus, sigmas):
            for shipped, old in (
                (expected_improvement, oracle.expected_improvement),
                (probability_of_improvement, oracle.probability_of_improvement),
            ):
                got, want = shipped(mu, sigma, 0.3), old(mu, sigma, 0.3)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_infinite_and_nan_z_are_drawn(self):
        """The draws above reach z = +inf, -inf and NaN (a guard against
        a strategy edit that silently drops them)."""
        mu = np.array([-np.inf, np.inf, np.nan, 0.5])
        sigma = np.ones(4)
        with np.errstate(all="ignore"):
            got = expected_improvement(mu, sigma, 0.2)
            want = oracle.expected_improvement(mu, sigma, 0.2)
        assert got.tobytes() == want.tobytes()
        assert got[0] == np.inf and np.isnan(got[1]) and np.isnan(got[2])


def _load_bo_fixture_script():
    path = ROOT / "scripts" / "make_bo_fixture.py"
    spec = importlib.util.spec_from_file_location("make_bo_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hexed(obj):
    """Floats as hex so that equality is bit equality."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_hexed(v) for v in obj]
    return obj


@pytest.mark.parametrize("seed", _load_bo_fixture_script().SEEDS)
def test_recorded_bo_runs_match_the_oracle(seed):
    """``make_bo_fixture.py``'s runs (its seeds, ``N_ITERS`` and
    objective) give the same history, configs and value bits with the
    shipped code and with the oracle swapped in."""
    script = _load_bo_fixture_script()
    shipped = script.record(seed)
    with oracle.installed():
        old = script.record(seed)
    assert _hexed(shipped) == _hexed(old)
    assert len(shipped["trials"]) == script.N_ITERS


def test_installed_restores_the_shipped_code():
    import repro.bayesopt.acquisition as acquisition
    import repro.nn.lstm as lstm

    before = (GaussianProcessRegressor.predict, lstm.clip_ufunc,
              dict(acquisition.ACQUISITIONS))
    with oracle.installed():
        assert GaussianProcessRegressor.predict is oracle.predict
        assert acquisition.ACQUISITIONS["ei"] is oracle.expected_improvement
    after = (GaussianProcessRegressor.predict, lstm.clip_ufunc,
             dict(acquisition.ACQUISITIONS))
    assert after == before
