"""Seeded default BO path vs recorded fixture (bit-identical configs).

Work on the search loop must leave the :class:`BayesianOptimizer`
proposal math untouched: same RNG stream, same candidate pool, same
L-BFGS-B polish, therefore the same suggested configs bit for bit.
The fixture was recorded by ``scripts/make_bo_fixture.py`` running the
pre-rewrite code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bayesopt import BayesianOptimizer
from repro.core.config import search_space_for

DATA = Path(__file__).parent / "data"


def analytic_objective(space, config: dict) -> float:
    """Must match ``scripts/make_bo_fixture.py`` exactly."""
    u = space.to_unit(config)
    return float(np.sum((u - 0.37) ** 2) + 0.05 * np.sum(np.sin(10.0 * u)))


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads((DATA / "bo_default_path.json").read_text())


def test_default_path_configs_bit_identical(fixture):
    for run in fixture["runs"]:
        space = search_space_for("default", "paper")
        opt = BayesianOptimizer(space, seed=run["seed"])
        best = opt.run(
            lambda c: analytic_objective(space, c), run["n_iters"]
        )
        assert len(opt.history) == len(run["trials"])
        for record, want in zip(opt.history, run["trials"], strict=True):
            assert record.iteration == want["iteration"]
            assert record.config == want["config"], (
                f"seed={run['seed']} trial {record.iteration}: the default "
                "BO path proposed a different config than the recorded one"
            )
            assert record.value == want["value"]
        assert best.config == run["best_config"]
        assert best.value == run["best_value"]
