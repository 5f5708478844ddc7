"""The hardened online loop: guarded serving driven through the autoscaler.

Glues the serving-robustness layer to the Section IV-C case study.
:func:`serve_and_simulate` walks a (guarded) predictor forward over a
trace with :func:`~repro.autoscale.controller.serve_walk`, the batch
driver of the one per-interval serve step
(:func:`~repro.autoscale.controller.serve_step`: forecast, rescue or
guard, score, decide).  The :class:`~repro.autoscale.cloudsim.CloudSimulator`
replays the schedule against the actual arrivals, and the serving
telemetry (fallback counters, breaker transitions, served-by counts) is
collected into a :class:`ServingReport`.  This is the path
``repro simulate --guarded`` and the CI serving-chaos stage exercise end
to end: with faults planted at every serving site the loop must
complete the full trace and the autoscaler must never receive a
non-finite or negative forecast.

Optional parts ride along in the same walk.  A
:class:`~repro.obs.monitor.monitor.ForecastMonitor` (``monitor=``)
scores every forecast, with its timed latency, when its actual is
revealed, and the report gains quality/drift/SLO/health sections; the
monitor only observes, so the schedule is the same with or without it.
A :class:`~repro.autoscale.controller.HybridController`
(``controller=``) turns forecasts into closed-loop decisions.  A
:class:`~repro.serving.stream.StreamConfig` (``stream=``) hands the
trace to the chunked :class:`~repro.serving.stream.StreamingServer`
instead, which drives the same serve step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.autoscale import CloudSimulator, SimulationResult, VMSpec
from repro.autoscale.controller import serve_walk
from repro.baselines.base import Predictor, split_target
from repro.obs import metrics as _metrics
from repro.serving.guard import GuardedPredictor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autoscale.controller import HybridController
    from repro.obs.monitor.monitor import ForecastMonitor
    from repro.serving.sanitize import TraceSanitizer
    from repro.serving.stream import StreamConfig

__all__ = ["ServingReport", "daily_period", "serve_and_simulate"]


def daily_period(interval_minutes: int) -> int | None:
    """Intervals per day, the natural seasonal-naive period for a trace.

    Returns ``None`` when the interval does not divide a day into at
    least two buckets (no usable daily seasonality).
    """
    if interval_minutes < 1 or interval_minutes > 720:
        return None
    return 1440 // interval_minutes


@dataclass
class ServingReport:
    """One guarded serving run: schedule, simulation, and degradations."""

    result: SimulationResult
    schedule: np.ndarray
    #: ``serving.*`` counter values observed after the run.
    serving_counters: dict[str, float] = field(default_factory=dict)
    #: Breaker (from, to, reason) transitions, when the predictor had one.
    breaker_transitions: list[tuple[str, str, str]] = field(default_factory=list)
    #: Breaker state after the run (``closed``/``open``/``half_open``),
    #: ``None`` when the predictor carried no breaker.
    breaker_state: str | None = None
    #: Per-stage serve counts, when the predictor was guarded.
    served_by: dict[str, int] = field(default_factory=dict)
    #: Rolling/cumulative accuracy section, when a monitor was attached.
    quality: dict | None = None
    #: Per-detector drift state, when a monitor was attached.
    drift: list[dict] | None = None
    #: SLO/error-budget section, when the monitor carried an SLOTracker.
    slo: dict | None = None
    #: Folded health verdict (status + reasons), when monitored.
    health: dict | None = None
    #: :meth:`HybridController.snapshot` (decided_by counts, rail hits,
    #: burst state), when the run was closed-loop.
    controller: dict | None = None
    #: :meth:`~repro.serving.stream.StreamingServer.summary` — chunk,
    #: quarantine, stall, shed, and checkpoint accounting — when the run
    #: was streamed.
    stream: dict | None = None

    @property
    def n_fallback_serves(self) -> int:
        """Predictions served by any stage other than the primary model."""
        return sum(n for stage, n in self.served_by.items() if stage != "primary")

    @property
    def drifted(self) -> bool:
        """True when any attached drift detector latched during the run."""
        return bool(self.drift) and any(d.get("drifted") for d in self.drift)

    @classmethod
    def collect(
        cls,
        result: SimulationResult,
        schedule: np.ndarray,
        predictor: Predictor,
        controller: "HybridController | None" = None,
        monitor: "ForecastMonitor | None" = None,
        stream: dict | None = None,
    ) -> "ServingReport":
        """Assemble the report of a finished run from its components."""
        report = cls(
            result=result,
            schedule=schedule,
            serving_counters=serving_counters(),
            controller=controller.snapshot() if controller is not None else None,
            stream=stream,
        )
        if isinstance(predictor, GuardedPredictor):
            report.breaker_transitions = list(predictor.breaker.transitions)
            report.breaker_state = predictor.breaker.state
            report.served_by = dict(predictor.served_by)
        if monitor is not None:
            sections = monitor.report()
            report.quality = sections["quality"]
            report.drift = sections["drift"]
            report.slo = sections["slo"]
            report.health = sections["health"]
        return report


def serving_counters() -> dict[str, float]:
    """Current values of the ``serving.*`` counters."""
    return {
        name: snap["value"]
        for name, snap in _metrics.get_registry().snapshot(prefix="serving.").items()
        if snap.get("kind") == "counter"
    }


def serve_and_simulate(
    predictor: Predictor,
    arrivals: np.ndarray,
    start: int,
    *,
    spec: VMSpec | None = None,
    refit_every: int = 1,
    seed: int = 0,
    monitor: "ForecastMonitor | None" = None,
    controller: "HybridController | None" = None,
    stream: "StreamConfig | None" = None,
    sanitizer: "TraceSanitizer | None" = None,
) -> ServingReport:
    """Walk ``predictor`` over ``arrivals[start:]`` and simulate the result.

    The predictor sees only the history prefix at each interval (no
    lookahead).  Every forecast passes the persistence rescue (or, under
    a controller, the reactive tier), so the simulator never replays a
    non-finite or negative provisioning decision — with a
    :class:`GuardedPredictor` in front this holds even under injected
    serving faults.

    ``monitor`` attaches online forecast-quality monitoring: each
    interval is scored as it is revealed and the report gains
    quality/drift/SLO/health sections.  The schedule is the same with
    and without it.

    ``controller`` closes the loop: instead of provisioning the raw
    forecasts, each revealed arrival feeds the
    :class:`~repro.autoscale.controller.HybridController` corrector and
    the *controller's decisions* (correction, rails, burst, tiered
    degradation) become the schedule; the report gains the controller
    snapshot and the breaker state.

    ``stream`` replaces the batch walk with the chunked
    :class:`~repro.serving.stream.StreamingServer`: ``arrivals[start:]``
    arrives as a deterministic chunk sequence with per-chunk
    re-sanitation (``sanitizer``, default interpolate-policy), stall
    watchdog, backpressure, and — with a ``checkpoint_dir`` configured —
    crash-safe checkpoints the ``resume`` flag restores from.  The
    streaming path is univariate (the feed is one metric).

    2-D ``(steps, D)`` arrivals drive a multivariate predictor: the
    full history walks into the predictor while the target channel
    (``predictor.target_channel``, default 0) feeds the rescue, the
    monitor, the controller, and the simulator's actual-arrival replay.
    """
    a, target = split_target(predictor, arrivals)
    if stream is not None:
        if a.ndim != 1:
            raise ValueError(
                "streaming serving is univariate; pass a 1-D trace"
            )
        if not 0 < start <= a.size:
            raise ValueError(
                f"invalid start {start} for series of length {a.size}"
            )
        from repro.serving.stream import StreamingServer, chunk_stream

        server = StreamingServer(
            predictor,
            a[:start],
            config=stream,
            sanitizer=sanitizer,
            monitor=monitor,
            controller=controller,
            spec=spec,
            seed=seed,
            refit_every=refit_every,
        )
        return server.run(chunk_stream(a[start:], config=stream))
    schedule = serve_walk(
        predictor, a, start,
        refit_every=refit_every, controller=controller, monitor=monitor,
    )
    result = CloudSimulator(spec=spec, seed=seed).run(target[start:], schedule)
    return ServingReport.collect(result, schedule, predictor, controller, monitor)
