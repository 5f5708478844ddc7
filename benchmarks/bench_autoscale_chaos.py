"""Adversarial autoscaling benchmark: the scenario x policy matrix.

Runs :func:`repro.autoscale.scenarios.run_matrix` — predictive-only vs
reactive-only vs hybrid across steady state, flash crowds, a regime
shift, mid-run trace corruption, and injected ``nan@serve.predict`` /
``drift@serve.predict`` faults — and pins the PR's acceptance criteria:

1. **Robustness** (``test_matrix``): the hybrid controller beats
   predictive-only on under-provision rate in the flash-crowd and
   corruption scenarios (the disturbances a forecast cannot see), and
   every hybrid run completes with finite decisions — no scenario or
   fault combination may take the controller down.
2. **Robustness is near-free** (same test): in the steady-state
   scenario the hybrid's total cost stays within **15%** of
   predictive-only's — the rails/corrector must not buy safety with
   blanket over-provisioning.
3. **Zero overhead** (``test_zero_gain_passthrough``): a passthrough
   controller (gains 0, rails off, burst off) reproduces
   ``PredictivePolicy``'s schedule bit-for-bit on every scenario's
   observable stream.

The full matrix is written to ``BENCH_autoscale.json`` — the committed
artifact future autoscaling PRs diff against.  ``REPRO_BENCH_QUICK=1``
shrinks the traces for the CI ``autoscale-chaos`` stage.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from repro.autoscale import ControllerConfig, HybridController, PredictivePolicy
from repro.autoscale.scenarios import default_scenarios, run_matrix
from repro.baselines.naive import SeasonalNaivePredictor

# Redirectable so smoke runs don't clobber the committed artifact.
ARTIFACT = Path(
    os.environ.get(
        "REPRO_BENCH_ARTIFACT_DIR", Path(__file__).resolve().parent.parent
    )
) / "BENCH_autoscale.json"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
DAYS, SERVE_DAYS = (6, 3) if QUICK else (14, 7)
PERIOD = 48


@pytest.fixture(scope="module")
def matrix() -> dict:
    return run_matrix(
        default_scenarios(days=DAYS, serve_days=SERVE_DAYS, period=PERIOD),
        period=PERIOD,
    )


@pytest.fixture(scope="module", autouse=True)
def bench_artifact(matrix):
    """Write the scenario x policy matrix to BENCH_autoscale.json."""
    yield
    ARTIFACT.write_text(
        json.dumps(
            {
                "schema": 1,
                "quick": QUICK,
                "days": DAYS,
                "serve_days": SERVE_DAYS,
                "period": PERIOD,
                **matrix,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


def test_matrix(matrix):
    """Hybrid robustness wins where it must, near-free where it must not."""
    cells = matrix["scenarios"]
    for scenario, cell in cells.items():
        for policy, row in cell["policies"].items():
            for key in ("mean_turnaround_seconds", "underprovision_rate_pct",
                        "overprovision_rate_pct", "total_cost"):
                assert math.isfinite(row[key]), f"{scenario}/{policy}: bad {key}"

    for scenario in ("flash_crowd", "corruption"):
        hybrid = cells[scenario]["policies"]["hybrid"]
        predictive = cells[scenario]["policies"]["predictive"]
        assert (
            hybrid["underprovision_rate_pct"]
            < predictive["underprovision_rate_pct"]
        ), (
            f"{scenario}: hybrid under-provision "
            f"{hybrid['underprovision_rate_pct']:.2f}% must beat predictive "
            f"{predictive['underprovision_rate_pct']:.2f}%"
        )

    steady = cells["steady"]["policies"]
    cost_ratio = steady["hybrid"]["total_cost"] / steady["predictive"]["total_cost"]
    assert cost_ratio <= 1.15, (
        f"steady-state hybrid cost is {100 * (cost_ratio - 1):+.1f}% of "
        "predictive (budget: +15%)"
    )

    # Tiered degradation is visible in provenance: the open breaker under
    # nan@serve.predict shifts hybrid decisions to the reactive tier, and
    # the silent forecast degradation latches burst mode.
    nan_ctl = cells["nan_flash"]["policies"]["hybrid"]["controller"]
    assert nan_ctl["decided_by"].get("reactive", 0) > 0
    drift_ctl = cells["drift_fault"]["policies"]["hybrid"]["controller"]
    assert drift_ctl["burst_episodes"] >= 1


def test_zero_gain_passthrough():
    """Passthrough hybrid == PredictivePolicy, bit-for-bit, everywhere."""
    for scenario in default_scenarios(days=6, serve_days=3, period=PERIOD):
        if not np.all(np.isfinite(scenario.observed)):
            continue  # PredictivePolicy has no NaN-stream contract
        predictive = PredictivePolicy(SeasonalNaivePredictor(PERIOD)).schedule(
            scenario.observed, scenario.start
        )
        hybrid = PredictivePolicy(
            SeasonalNaivePredictor(PERIOD),
            controller=HybridController(ControllerConfig.passthrough()),
        ).schedule(scenario.observed, scenario.start)
        assert np.array_equal(predictive, hybrid), scenario.name
