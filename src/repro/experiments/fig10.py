"""Fig. 10 — auto-scaling case study (Azure 60-minute, JARs ÷ 100).

Reproduces Section IV-C on the simulator substrate: the Azure 60-minute
configuration, scaled down 100x (the paper's quota-driven scale-down,
keeping every interval under ~50 VMs), drives a predictive auto-scaling
policy under each predictor.  Three panels per policy: average job
turnaround, VM under-provisioning rate, VM over-provisioning rate.

Expected shape: LoadDynamics < CloudInsight < Wood on turnaround and on
both provisioning rates; the oracle bounds everything from below.
"""

from __future__ import annotations

import numpy as np

from repro.autoscale import (
    CloudSimulator,
    OraclePolicy,
    PredictivePolicy,
    ReactivePolicy,
    VMSpec,
    summarize,
)
from repro.baselines import make_baseline
from repro.core import FrameworkSettings
from repro.experiments.common import fit_loaddynamics, test_start_index
from repro.traces import get_configuration

__all__ = ["run_fig10"]


def run_fig10(
    budget: str = "reduced",
    settings: FrameworkSettings | None = None,
    scale_down: float = 5.0,
    max_eval: int | None = 150,
    vm_spec: VMSpec | None = None,
    baselines: tuple[str, ...] = ("cloudinsight", "wood"),
    include_reference_policies: bool = True,
    seed: int = 0,
) -> list[dict]:
    """Simulate the Fig. 10 policies; one summary row per policy."""
    if settings is None:
        # Fig. 10 is a single workload, so afford LoadDynamics a larger
        # slice of the paper's maxIters=100 budget than the 14-config sweep.
        settings = FrameworkSettings.reduced(max_iters=24, epochs=60)
    series = get_configuration("az-60m").load()
    # Paper: the Azure JARs were "scaled down by 100 times so that at
    # each interval there were less than 50 jobs".  Our synthetic Azure
    # trace is smaller in absolute terms than the real one, so the
    # default divisor of 5 lands in the same <50-VMs-per-interval regime
    # the paper targeted.
    arrivals = np.round(series / scale_down)
    start = test_start_index(len(arrivals), max_eval)
    sim = CloudSimulator(spec=vm_spec, seed=seed)
    actual = arrivals[start:]
    rows: list[dict] = []

    # LoadDynamics: fit on the scaled series, then schedule ahead.
    predictor, _, _ = fit_loaddynamics(
        arrivals, "az", budget=budget, settings=settings, max_eval=max_eval
    )
    schedule = np.ceil(np.maximum(predictor.predict_series(arrivals, start), 0.0))
    rows.append(summarize("loaddynamics", sim.run(actual, schedule)).as_dict())

    for name in baselines:
        pred = make_baseline(name)
        refit = 1 if name == "cloudinsight" else 5
        schedule = PredictivePolicy(pred, refit_every=refit).schedule(arrivals, start)
        rows.append(summarize(name, sim.run(actual, schedule)).as_dict())

    if include_reference_policies:
        for policy in (ReactivePolicy(), OraclePolicy()):
            schedule = policy.schedule(arrivals, start)
            rows.append(summarize(policy.name, sim.run(actual, schedule)).as_dict())
    return rows
