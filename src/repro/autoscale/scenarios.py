"""Adversarial autoscaling scenarios: predictive vs reactive vs hybrid.

The paper's Section IV-C case study replays a well-behaved trace, which
is exactly when a pure forecaster looks best.  Gontarska et al.
(PAPERS.md) argue autoscaling evaluation must include the disturbances
production traffic actually throws — demand the history never saw,
observations that go missing, models that silently degrade.  This
module packages those as deterministic :class:`Scenario` fixtures and a
:func:`run_matrix` harness comparing the three policy families on each:

* ``steady`` — the clean diurnal baseline (the paper's setting); the
  hybrid controller must stay near the predictive policy's cost here,
  or its robustness is just bought with over-provisioning;
* ``flash_crowd`` — three seeded demand spikes
  (:func:`repro.traces.inject_flash_crowd`) no forecast anticipates;
* ``regime_shift`` — a permanent level shift
  (:func:`repro.traces.inject_regime_shift`) mid-serve;
* ``corruption`` — a real demand surge whose *observations* black out
  to NaN shortly after onset: policies act on the corrupted stream but
  are judged against the true arrivals;
* ``nan_flash`` — a flash crowd while ``nan@serve.predict`` faults kill
  every primary forecast (the circuit breaker opens and the hybrid
  controller's provenance visibly shifts to the reactive tier);
* ``drift_fault`` — ``drift@serve.predict`` scales every forecast to
  40% of its value mid-run: a silent model degradation only the error
  feedback (PID correction, drift-latched burst) can catch;
* ``seasonality_break`` — the diurnal period halves mid-serve (a
  deploy changes the batch cadence): every period-48 seasonal forecast
  is suddenly half a cycle out of phase, the worst case for a
  forecaster whose seasonality assumption was *correct* until now.

Every scenario is deterministic in its seed; fault runs install a fresh
:class:`~repro.resilience.faults.FaultInjector` per policy so invocation
counts never leak between runs.  ``benchmarks/bench_autoscale_chaos.py``
turns the matrix into the committed ``BENCH_autoscale.json`` artifact,
and ``repro autoscale`` prints it from the CLI.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.autoscale.cloudsim import CloudSimulator, VMSpec
from repro.autoscale.controller import ControllerConfig, HybridController
from repro.autoscale.cost import PricingModel, price_run
from repro.autoscale.metrics import summarize
from repro.autoscale.policy import PredictivePolicy, ReactivePolicy
from repro.resilience import faults as _faults
from repro.traces.synthetic import inject_flash_crowd, inject_regime_shift

__all__ = [
    "Scenario",
    "SCENARIO_NAMES",
    "POLICY_NAMES",
    "default_controller_config",
    "default_scenarios",
    "make_policy",
    "run_matrix",
]

#: Scenario names in canonical order (matches :func:`default_scenarios`).
SCENARIO_NAMES = (
    "steady",
    "flash_crowd",
    "regime_shift",
    "corruption",
    "nan_flash",
    "drift_fault",
    "seasonality_break",
)

#: Policy families the harness compares.
POLICY_NAMES = ("predictive", "reactive", "hybrid")


@dataclass(frozen=True)
class Scenario:
    """One adversarial fixture: what happened vs what the policies saw.

    ``observed`` is the stream policies act on (may contain NaN
    blackouts); ``actual`` is the finite ground truth the simulator
    replays their schedules against.  ``faults`` is a
    :class:`~repro.resilience.faults.FaultInjector` spec installed for
    the duration of each policy's scheduling pass ("" = none).
    """

    name: str
    description: str
    actual: np.ndarray
    observed: np.ndarray
    start: int
    faults: str = ""


def _base_trace(days: int, period: int, level: float, seed: int) -> np.ndarray:
    """Clean diurnal Poisson arrivals: ``days`` x ``period`` intervals."""
    rng = np.random.default_rng(seed)
    n = days * period
    t = np.arange(n, dtype=np.float64)
    phase = (t % period) / period
    lam = level * (0.7 + 0.6 * 0.5 * (1.0 + np.cos(2.0 * np.pi * (phase - 0.6))))
    return rng.poisson(lam).astype(np.float64)


def default_scenarios(
    *,
    days: int = 14,
    serve_days: int = 7,
    period: int = 48,
    level: float = 120.0,
    seed: int = 7,
) -> list[Scenario]:
    """Build the canonical scenario suite, deterministic in ``seed``.

    ``period`` intervals per day (48 = 30-minute intervals); the last
    ``serve_days`` days are served, the rest is warm-up history.
    """
    if days < 3 or not 0 < serve_days < days:
        raise ValueError("need days >= 3 and 0 < serve_days < days")
    base = _base_trace(days, period, level, seed)
    n = base.size
    start = (days - serve_days) * period
    serve_len = n - start

    flash = base
    for k, frac in enumerate((0.25, 0.55, 0.8)):
        flash = inject_flash_crowd(
            flash, start + int(frac * serve_len),
            magnitude=3.5, width=10, ramp=2, jitter=0.05, seed=seed + k,
        )

    shift = inject_regime_shift(
        base, start + serve_len // 2, factor=2.0, ramp=period // 4,
    )

    surge_at = start + serve_len // 2
    corrupt_actual = inject_flash_crowd(
        base, surge_at, magnitude=3.0, width=40, ramp=3,
    )
    corrupt_observed = corrupt_actual.copy()
    corrupt_observed[surge_at + 5 : surge_at + 35] = np.nan

    # Fire the forecast degradation after the drift detector's warmup
    # window so the run exercises detection, not calibration.
    drift_at = 60

    # Seasonality break: from mid-serve onward the diurnal cycle runs at
    # half the period (same mean level), so a period-length seasonal
    # forecast is alternately half a cycle out of phase.
    break_at = start + serve_len // 2
    half = max(2, period // 2)
    t = np.arange(n, dtype=np.float64)
    phase = (t % half) / half
    lam = level * (0.7 + 0.6 * 0.5 * (1.0 + np.cos(2.0 * np.pi * (phase - 0.6))))
    broken = base.copy()
    broken[break_at:] = (
        np.random.default_rng(seed + 101).poisson(lam[break_at:]).astype(np.float64)
    )

    return [
        Scenario(
            "steady",
            "clean diurnal baseline — robustness must be near-free here",
            base, base, start,
        ),
        Scenario(
            "flash_crowd",
            "three unforecastable demand spikes (x3.5) during serving",
            flash, flash, start,
        ),
        Scenario(
            "regime_shift",
            "permanent x2 demand level shift mid-serve",
            shift, shift, start,
        ),
        Scenario(
            "corruption",
            "real x3 surge whose observations black out to NaN after onset",
            corrupt_actual, corrupt_observed, start,
        ),
        Scenario(
            "nan_flash",
            "flash crowd while nan@serve.predict kills every primary forecast",
            flash, flash, start,
            faults="nan@serve.predict:*",
        ),
        Scenario(
            "drift_fault",
            "drift@serve.predict silently scales forecasts to 40% mid-run",
            base, base, start,
            faults=f"drift@serve.predict:{drift_at}=0.4",
        ),
        Scenario(
            "seasonality_break",
            "diurnal period halves mid-serve — seasonal forecasts go "
            "half a cycle out of phase",
            broken, broken, start,
        ),
    ]


def default_controller_config() -> ControllerConfig:
    """The harness's hybrid tuning: modest correction, rails on, burst on."""
    return ControllerConfig(
        kp=0.5,
        ki=0.05,
        kd=0.0,
        integral_limit=200.0,
        headroom_quantile=0.7,
        error_window=64,
        reactive_window=3,
        reactive_headroom=1.15,
        min_vms=0,
        max_vms=None,
        max_step_up=None,
        max_step_down=None,
        scale_down_cooldown=2,
        burst_streak=3,
        burst_clear=6,
        burst_quantile=0.95,
    )


def _guarded_seasonal(period: int):
    """The harness's proactive forecaster: guarded seasonal-naive.

    The seasonal model is the *primary* (not also a fallback) so that
    ``nan@serve.predict`` faults meaningfully degrade the forecast to
    last-value persistence instead of re-serving the same model.
    """
    # Lazy import: repro.serving imports repro.autoscale at module
    # level, so the reverse edge must resolve at call time.
    from repro.baselines.naive import LastValuePredictor, SeasonalNaivePredictor
    from repro.serving.guard import GuardedPredictor

    return GuardedPredictor(
        SeasonalNaivePredictor(period), fallbacks=[LastValuePredictor()]
    )


def make_policy(
    name: str,
    *,
    period: int = 48,
    config: ControllerConfig | None = None,
):
    """Fresh policy instance for one scenario run.

    Policies are stateful (guarded predictors count serves, controllers
    integrate errors), so the matrix builds a new one per cell.
    """
    if name == "predictive":
        return PredictivePolicy(_guarded_seasonal(period))
    if name == "reactive":
        return ReactivePolicy()
    if name == "hybrid":
        from repro.obs.monitor.drift import PageHinkleyDetector

        cfg = config if config is not None else default_controller_config()
        # Page-Hinkley on the controller's error stream: fires on a
        # sustained error *increase* (a silently degraded forecaster),
        # stays quiet on stationary noise — the burst trigger for
        # degradations too well-corrected to build an underprovision
        # streak.
        controller = HybridController(cfg, drift_detector=PageHinkleyDetector())
        return PredictivePolicy(_guarded_seasonal(period), controller=controller)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


def default_pricing() -> PricingModel:
    """SLA-aware pricing: one cold-start *wave* fits the deadline, two don't."""
    return PricingModel(sla_deadline_seconds=400.0, sla_penalty_per_violation=0.05)


def run_scenario(
    scenario: Scenario,
    policy_name: str,
    *,
    period: int = 48,
    config: ControllerConfig | None = None,
    spec: VMSpec | None = None,
    pricing: PricingModel | None = None,
    seed: int = 0,
) -> dict:
    """One matrix cell: schedule on ``observed``, judge against ``actual``.

    The scenario's fault spec is installed (with fresh invocation
    counts) only around the scheduling pass — simulation and pricing run
    fault-free.  Returns the Fig. 10 summary + cost report + the SLA
    violation rate, plus the controller snapshot for hybrid runs.
    """
    policy = make_policy(policy_name, period=period, config=config)
    ctx = _faults.injected(scenario.faults) if scenario.faults else nullcontext()
    with ctx:
        schedule = policy.schedule(scenario.observed, scenario.start)
    result = CloudSimulator(spec=spec, seed=seed).run(
        scenario.actual[scenario.start :], schedule
    )
    pricing = pricing if pricing is not None else default_pricing()
    cost = price_run(policy.name, result, pricing)
    busy = int(np.sum(result.arrivals > 0))
    row = summarize(policy.name, result).as_dict()
    row.update(cost.as_dict())
    row["sla_violation_rate_pct"] = (
        100.0 * cost.sla_violations / busy if busy else 0.0
    )
    controller = getattr(policy, "controller", None)
    if controller is not None:
        row["controller"] = controller.snapshot()
        breaker = controller.breaker
        if breaker is not None:
            row["breaker_state"] = breaker.state
    return row


def run_matrix(
    scenarios: list[Scenario] | None = None,
    policies: tuple[str, ...] = POLICY_NAMES,
    *,
    period: int = 48,
    config: ControllerConfig | None = None,
    spec: VMSpec | None = None,
    pricing: PricingModel | None = None,
    seed: int = 0,
) -> dict:
    """The full scenario x policy comparison as a JSON-ready dict.

    Layout: ``{"scenarios": {scenario: {"description": ..., "policies":
    {policy: row}}}}`` — the shape ``BENCH_autoscale.json`` commits and
    the CLI renders.
    """
    if scenarios is None:
        scenarios = default_scenarios(period=period)
    out: dict = {"scenarios": {}}
    for scenario in scenarios:
        cell = {}
        for policy_name in policies:
            cell[policy_name] = run_scenario(
                scenario, policy_name,
                period=period, config=config, spec=spec,
                pricing=pricing, seed=seed,
            )
        out["scenarios"][scenario.name] = {
            "description": scenario.description,
            "faults": scenario.faults,
            "n_serve_intervals": int(scenario.actual.size - scenario.start),
            "policies": cell,
        }
    return out
