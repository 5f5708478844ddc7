#!/usr/bin/env python
"""Record the seeded default BO path for acquisition-rewrite regression.

Runs :class:`repro.bayesopt.BayesianOptimizer` with its default
construction (full-refit surrogate, L-BFGS-B acquisition polish) on a
deterministic analytic objective over the paper's Table III space, and
records every suggested config and objective value to
``tests/data/bo_default_path.json``, under a ``provenance`` block that
names the numpy, scipy, bit generator and BLAS/LAPACK builds used.

``tests/test_bayesopt_fixture.py`` replays each recorded run step by
step (``suggest()``, then ``tell()`` of the recorded config and value)
and asserts that every suggestion equals the recorded config bit for
bit.  The one declared tolerance class is a near-tie: under the
surrogate ``suggest()`` fitted at that step, the acquisition of the
recorded config and of the host's pick agree within rtol 1e-4.  The
full closed-loop trajectory is compared byte for byte only on a host
whose environment equals the recorded provenance: L-BFGS-B and LAPACK
round differently across builds, and a closed loop amplifies one
flipped near-tie into every later trial.

Regenerate only when the default proposal math is changed *on
purpose*, never to turn a host green:

    PYTHONPATH=src python scripts/make_bo_fixture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

from repro.bayesopt import BayesianOptimizer
from repro.core.config import search_space_for

OUT = ROOT / "tests" / "data" / "bo_default_path.json"

#: Seeds and trial budget of the recorded runs.  18 trials past the
#: 5 random initials leaves 13 GP-driven suggestions per run — enough to
#: exercise the surrogate fit, the candidate pool and the polish.  No
#: suggestion of these runs decodes onto an explored config, so the
#: duplicate-config fallback is pinned by the small-space tests in
#: ``tests/test_bayesopt_optimizers.py`` instead.
SEEDS = (0, 7)
N_ITERS = 18


def analytic_objective(space, config: dict) -> float:
    """Deterministic multimodal test function on the unit cube."""
    u = space.to_unit(config)
    return float(np.sum((u - 0.37) ** 2) + 0.05 * np.sum(np.sin(10.0 * u)))


def _build(config_module, dep: str) -> str | None:
    """``"name version"`` of a library's BLAS or LAPACK, None if unknown."""
    try:
        info = config_module.show_config(mode="dicts")["Build Dependencies"][dep]
    except (TypeError, KeyError):  # releases without ``mode="dicts"``
        return None
    return f"{info['name']} {info['version']}"


def environment() -> dict:
    """The builds whose rounding the recorded runs depend on.

    PCG64 draws and elementwise numpy fix the random initial design and
    the objective values; the surrogate fit and the acquisition polish
    also pass through scipy's L-BFGS-B and LAPACK and numpy's BLAS.
    """
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "numpy_blas": _build(np, "blas"),
        "numpy_lapack": _build(np, "lapack"),
        "scipy_blas": _build(scipy, "blas"),
        "scipy_lapack": _build(scipy, "lapack"),
    }


def record(seed: int) -> dict:
    space = search_space_for("default", "paper")
    opt = BayesianOptimizer(space, seed=seed)
    best = opt.run(lambda c: analytic_objective(space, c), N_ITERS)
    return {
        "seed": seed,
        "n_iters": N_ITERS,
        "trials": [
            {"iteration": r.iteration, "config": r.config, "value": r.value}
            for r in opt.history
        ],
        "best_config": best.config,
        "best_value": best.value,
    }


def main() -> None:
    fixture = {
        "provenance": {"recorded_by": "scripts/make_bo_fixture.py", **environment()},
        "space": "search_space_for('default', 'paper')",
        "runs": [record(seed) for seed in SEEDS],
    }
    OUT.write_text(json.dumps(fixture, indent=2) + "\n", encoding="utf-8")
    for run in fixture["runs"]:
        print(
            f"seed={run['seed']}: {len(run['trials'])} trials, "
            f"best={run['best_value']:.6f} @ {run['best_config']}"
        )
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
