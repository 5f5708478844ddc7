"""The hardened online loop: guarded serving driven through the autoscaler.

Glues the serving-robustness layer to the Section IV-C case study.
:func:`serve_and_simulate` serves a (guarded) predictor over a trace
through the one serve loop,
:class:`~repro.serving.stream.StreamingServer`, replays the schedule in
the :class:`~repro.autoscale.cloudsim.CloudSimulator`, and collects the
serving telemetry (fallback counters, breaker transitions, served-by
counts) into a :class:`ServingReport`.  ``repro simulate --guarded`` and
the CI serving-chaos stage run it end to end: with faults planted at
every serving site the loop must complete the trace and the autoscaler
must never receive a non-finite or negative forecast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.autoscale import SimulationResult, VMSpec
from repro.baselines.base import Predictor
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

    def to_dict(self) -> dict:
        """The canonical JSON document of the run (``schema`` 1): the
        schedule's float64 bytes as hex, the simulation result, and every
        telemetry section.  ``repro stream --report-out`` writes it, and
        a resumed run's document equals the uninterrupted one's."""
        res = self.result
        return {
            "schema": 1,
            "schedule_hex": self.schedule.tobytes().hex(),
            "result": {
                "n_intervals": res.n_intervals,
                "mean_turnaround": res.mean_turnaround,
                "underprovision_rate": res.underprovision_rate,
                "overprovision_rate": res.overprovision_rate,
                "vm_seconds": res.vm_seconds,
            },
            "serving_counters": self.serving_counters,
            "served_by": self.served_by,
            "breaker_state": self.breaker_state,
            "breaker_transitions": self.breaker_transitions,
            "quality": self.quality,
            "drift": self.drift,
            "slo": self.slo,
            "health": self.health,
            "controller": self.controller,
            "stream": self.stream,
        }


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
    refit_every: int | None = None,
    seed: int = 0,
    monitor: "ForecastMonitor | None" = None,
    controller: "HybridController | None" = None,
    stream: "StreamConfig | None" = None,
    sanitizer: "TraceSanitizer | None" = None,
) -> ServingReport:
    """Serve ``predictor`` over ``arrivals[start:]`` and simulate the result.

    The predictor sees only the history prefix at each interval (no
    lookahead) and refits every ``refit_every`` served intervals
    (``None``: never).  Every forecast passes the persistence rescue
    (or, under a controller, the reactive tier), so the simulator never
    replays a non-finite or negative provisioning decision — with a
    :class:`GuardedPredictor` in front this holds even under injected
    serving faults.

    ``monitor`` scores each interval as it is revealed and adds the
    quality/drift/SLO/health sections; the schedule is the same with and
    without it.  ``controller`` closes the loop: the
    :class:`~repro.autoscale.controller.HybridController`'s decisions
    (correction, rails, burst, tiered degradation) become the schedule
    and the report gains its snapshot.

    ``stream`` feeds ``arrivals[start:]`` as a deterministic chunk
    sequence with per-chunk re-sanitation (``sanitizer``, default
    interpolate-policy), stall watchdog, backpressure, batched
    forecasts, and — with a ``checkpoint_dir`` — crash-safe checkpoints
    the ``resume`` flag restores from; the report gains its ``stream``
    section.

    2-D ``(steps, D)`` arrivals drive a multivariate predictor: the
    full history reaches the predictor while the target channel
    (``predictor.target_channel``, default 0) feeds the rescue, the
    monitor, the controller, and the simulator's actual-arrival replay.
    """
    from repro.serving.stream import StreamingServer, chunk_stream

    server, rest = StreamingServer.for_trace(
        predictor, arrivals, start,
        config=stream,
        sanitizer=sanitizer,
        monitor=monitor,
        controller=controller,
        spec=spec,
        seed=seed,
        refit_every=refit_every,
    )
    if stream is None:
        server.serve(rest)
        return server.finish()
    return server.run(chunk_stream(rest, config=stream))
