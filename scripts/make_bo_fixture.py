#!/usr/bin/env python
"""Record the seeded default BO path for acquisition-rewrite regression.

Runs :class:`repro.bayesopt.BayesianOptimizer` with its default
construction (full-refit surrogate, L-BFGS-B acquisition polish) on a
deterministic analytic objective over the paper's Table III space, and
records every suggested config and objective value to
``tests/data/bo_default_path.json``.

``tests/test_bayesopt_fixture.py`` replays the same seeds and asserts
the suggested configs are **bit-identical** — the guarantee that work
on the search loop never moved the proposal path.  Regenerate only when the
default proposal math is changed *on purpose*:

    PYTHONPATH=src python scripts/make_bo_fixture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.bayesopt import BayesianOptimizer
from repro.core.config import search_space_for

OUT = ROOT / "tests" / "data" / "bo_default_path.json"

#: Seeds and trial budget of the recorded runs.  18 trials past the
#: 5 random initials leaves 13 GP-driven suggestions per run — enough to
#: exercise the surrogate fit, the candidate sweep, the polish, and the
#: duplicate-config fallback.
SEEDS = (0, 7)
N_ITERS = 18


def analytic_objective(space, config: dict) -> float:
    """Deterministic multimodal test function on the unit cube.

    Must match ``tests/test_bayesopt_fixture.py`` exactly.
    """
    u = space.to_unit(config)
    return float(np.sum((u - 0.37) ** 2) + 0.05 * np.sum(np.sin(10.0 * u)))


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
