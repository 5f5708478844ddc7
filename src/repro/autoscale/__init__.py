"""Cloud auto-scaling substrate (replaces the paper's Google Cloud testbed).

Section IV-C of the paper runs a predictive auto-scaling policy on real
n1-standard-1 VMs executing CloudSuite's In-Memory Analytics benchmark.
Offline, we reproduce the *mechanics the measurement depends on*:

* jobs arrive at the start of each interval (the paper's simplifying
  assumption), one VM per job;
* VMs provisioned ahead of the interval are warm; under-provisioned jobs
  wait out a VM startup delay (the cause of turnaround inflation);
* over-provisioned VMs idle for the interval (the cause of wasted cost).

Components:

* :mod:`repro.autoscale.cloudsim` — the interval-driven simulator;
* :mod:`repro.autoscale.policy` — predictive (optionally closed-loop) +
  reactive + oracle policies;
* :mod:`repro.autoscale.controller` — the collaborative proactive +
  reactive :class:`HybridController` with safety rails and burst mode;
* :mod:`repro.autoscale.scenarios` — the adversarial scenario harness;
* :mod:`repro.autoscale.metrics` — turnaround / provisioning summaries.
"""

from repro.autoscale.cloudsim import CloudSimulator, SimulationResult, VMSpec
from repro.autoscale.controller import ControllerConfig, Decision, HybridController
from repro.autoscale.cost import CostReport, PricingModel, price_run
from repro.autoscale.metrics import AutoscaleSummary, summarize
from repro.autoscale.policy import OraclePolicy, PredictivePolicy, ReactivePolicy

# Scenarios import last: the harness builds on every sibling above (and
# lazily reaches into repro.serving, which itself imports this package).
from repro.autoscale.scenarios import (  # noqa: E402
    Scenario,
    default_scenarios,
    run_matrix,
)

__all__ = [
    "VMSpec",
    "CloudSimulator",
    "SimulationResult",
    "PredictivePolicy",
    "ReactivePolicy",
    "OraclePolicy",
    "ControllerConfig",
    "Decision",
    "HybridController",
    "Scenario",
    "default_scenarios",
    "run_matrix",
    "AutoscaleSummary",
    "summarize",
    "PricingModel",
    "CostReport",
    "price_run",
]
