"""The one serve loop: chunked ingestion, direct serving, checkpoints.

:class:`StreamingServer` runs the Section IV-C loop — each interval one
serve step: forecast, rescue or guard, score, and decide, by ``ceil``
or a :class:`~repro.autoscale.controller.HybridController` — over a
1-D feed or the rows of a 2-D ``(steps, D)`` one, and owns the
history, the refit cadence and the target channel.  It has two entries.

:meth:`~StreamingServer.serve` is the direct entry the batch callers
(:func:`~repro.serving.online.serve_and_simulate` and
:class:`~repro.autoscale.policy.PredictivePolicy`, with or without a
controller) use: every interval as given (no sanitizing, so NaN outage
windows stay), the whole prefix as history, and one ``predict_next``
per interval, timed in wall-clock when a monitor is attached.

Both entries share one walk: the incoming rows go into the bounded
history first, each interval is then served from the view of the
``history_window`` rows that end just before it, and the schedule takes
the walk's decisions in one push.

:meth:`~StreamingServer.run` ingests a real metrics feed, which arrives
as *chunks* — late when the collector stalls, missing when a scraper
restarts, and the process can be killed between any two of them:

* **chunked ingestion** — :func:`chunk_stream` turns a trace into a
  deterministic chunk sequence, instrumented at the ``stream.chunk``
  fault site (``stall``/``drop``/``kill@stream.chunk:at``);
* **per-chunk sanitation** — a chunk the
  :class:`~repro.serving.sanitize.TraceSanitizer` rejects is
  *quarantined* and served from the fallback chain;
* **stall watchdog** — an arrival gap beyond ``deadline_s`` holds the
  last decision for that chunk (a :class:`StreamStalled` record);
* **backpressure** — a deterministic queue model
  (``service_time_per_interval`` x backlog vs ``queue_capacity``) sheds
  whole chunks when the server falls behind;
* **chunk-batched forecasting** — between refit boundaries a guarded
  primary with ``predict_series`` forecasts a chunk in one pass over a
  history view; the forecasts match per-interval ``predict_next`` to
  rtol 1e-12 (GEMM vs GEMV rounding), not bit for bit;
* **block serving** — the guard then checks such a segment's forecasts
  in one array pass and books it at once
  (:meth:`~repro.serving.guard.GuardedPredictor.serve_block`); a segment
  the guard declines (faults, breaker, drift, an out-of-range forecast)
  goes through ``predict_next`` per interval instead, to the same bytes;
* **crash-safe resume** — every ``checkpoint_every`` chunks the server
  appends the new intervals to fsynced ``.f64`` sidecars and atomically
  replaces ``checkpoint.json`` (:func:`repro.state.write_atomic`) holding
  the bounded history and every stateful component's ``state_dict()``.
  After a kill, :meth:`StreamingServer.restore` + a replay of the same
  chunk source serve a **bit-for-bit identical** schedule and
  :class:`~repro.serving.online.ServingReport`.

Ingestion runs on *logical* time (chunk arrival clocks derived from
``interval_s``), monitors are scored with ``latency_s=None``, and every
degradation is a pure function of the chunk sequence, which is what
makes the resume guarantee testable.  Resume replays the chunk source
and skips the chunks the checkpoint covers; faults planted at sites
other than ``stream.chunk`` re-count their invocations in the resumed
process.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro import state as _state
from repro.autoscale import CloudSimulator, VMSpec
from repro.autoscale.controller import HybridController
from repro.baselines.base import Predictor, persistence_rescue, split_target
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.logging import get_logger
from repro.obs.monitor.monitor import ForecastMonitor
from repro.resilience import faults as _faults
from repro.serving.guard import GuardedPredictor
from repro.serving.online import ServingReport, serving_counters
from repro.serving.sanitize import TraceSanitizer
from repro.traces.loader import TraceValidationError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "StreamChunk",
    "StreamConfig",
    "StreamStalled",
    "StreamingServer",
    "chunk_stream",
]

logger = get_logger("serving.stream")

#: Version stamp written into every ``checkpoint.json``; a mismatch on
#: restore is a typed :class:`CheckpointError`, never a silent
#: misinterpretation of old state.
CHECKPOINT_SCHEMA = 1

_CHECKPOINT_FILE = "checkpoint.json"
#: Append-only raw-float64 sidecars holding the served intervals; they
#: are fsynced *before* the checkpoint replace, and the checkpoint
#: records how many entries are valid, so a torn tail from a crash
#: mid-append is simply ignored on restore.
_SCHEDULE_FILE = "schedule.f64"
_ACTUALS_FILE = "actuals.f64"


class CheckpointError(Exception):
    """A serving checkpoint cannot be used.

    Raised for unreadable/corrupt ``checkpoint.json``, a schema-version
    mismatch, an identity mismatch (the resuming server is configured
    differently from the one that wrote the checkpoint), or a replayed
    chunk source whose chunk boundaries straddle the resume cursor.
    """


@dataclass(frozen=True)
class StreamChunk:
    """One feed arrival: ``values`` covering ``[offset, offset+len)``.

    ``values`` holds one entry (a scalar, or a row of a 2-D feed) per
    interval.  ``arrival_s`` is the *logical* arrival clock (seconds since stream
    start) the stall watchdog and backpressure model read — derived from
    the chunk boundary and injected stalls, never from wall-clock.
    """

    index: int
    offset: int
    values: np.ndarray
    arrival_s: float


@dataclass(frozen=True)
class StreamStalled:
    """Typed telemetry record: the feed went quiet past the deadline."""

    chunk_index: int
    offset: int
    gap_s: float
    deadline_s: float
    intervals_held: int

    def as_dict(self) -> dict:
        return {
            "chunk_index": self.chunk_index,
            "offset": self.offset,
            "gap_s": self.gap_s,
            "deadline_s": self.deadline_s,
            "intervals_held": self.intervals_held,
        }


@dataclass(frozen=True)
class StreamConfig:
    """How a trace is chunked, watched, checkpointed, and resumed.

    Parameters
    ----------
    chunk_size:
        Nominal intervals per feed chunk.
    size_jitter:
        Uniform +/- jitter on each chunk's size (seeded, deterministic).
    interval_s:
        Logical seconds per trace interval; chunk ``i`` nominally
        arrives when its last interval completes.
    arrival_jitter_s:
        Uniform extra arrival delay per chunk (seeded, deterministic).
    seed:
        Seed for the chunking/arrival jitter stream.
    deadline_s:
        Stall watchdog: an inter-chunk arrival gap beyond this degrades
        the late chunk to hold-last provisioning.  ``None`` disables.
    queue_capacity:
        Backpressure bound, in backlog *intervals*; a chunk arriving
        with more backlog than this is load-shed.  ``None`` disables.
    service_time_per_interval:
        Logical seconds the server needs per ingested interval; ``0``
        disables the backpressure model entirely.
    checkpoint_every:
        Write a checkpoint every this many processed chunks (``0``
        disables periodic checkpoints; a final one is still written
        when a ``checkpoint_dir`` is configured).
    checkpoint_dir:
        Where ``checkpoint.json`` and the ``.f64`` sidecars live;
        ``None`` disables checkpointing.
    resume:
        Restore from ``checkpoint_dir`` before serving (missing
        checkpoint = fresh start, so a crash before the first
        checkpoint resumes trivially).
    history_window:
        Bounded model-visible history (intervals).  Both a fresh run
        and a resumed run predict from the same bounded tail, which is
        part of the bit-for-bit guarantee.
    """

    chunk_size: int = 64
    size_jitter: int = 0
    interval_s: float = 1.0
    arrival_jitter_s: float = 0.0
    seed: int = 0
    deadline_s: float | None = None
    queue_capacity: int | None = None
    service_time_per_interval: float = 0.0
    checkpoint_every: int = 100
    checkpoint_dir: str | None = None
    resume: bool = False
    history_window: int = 4096

    def __post_init__(self):
        for name in ("interval_s", "arrival_jitter_s", "deadline_s",
                     "service_time_per_interval"):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ValueError(f"{name} must be finite")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.size_jitter < 0 or self.size_jitter >= self.chunk_size:
            raise ValueError("size_jitter must be in [0, chunk_size)")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.arrival_jitter_s < 0:
            raise ValueError("arrival_jitter_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None)")
        if self.service_time_per_interval < 0:
            raise ValueError("service_time_per_interval must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")


#: :class:`StreamConfig` fields a resuming server may change: they say
#: where and how often to checkpoint, not what is served.
_NOT_IDENTITY = ("checkpoint_every", "checkpoint_dir", "resume")

#: The ``cursor`` checkpoint section (:mod:`repro.state`): ingest
#: position, backpressure clock and checkpoint count.
_CURSOR = (
    ("next_offset", "_next_offset", _state.INT, 0),
    ("chunks_processed", "_chunks_processed", _state.INT, 0),
    ("served_intervals", "_served_intervals", _state.INT, 0),
    ("last_arrival_s", "_last_arrival_s", _state.FLOAT, 0.0),
    ("busy_until_s", "_busy_until_s", _state.FLOAT, 0.0),
    ("queue_peak", "_queue_peak", _state.FLOAT, 0.0),
    ("checkpoints_written", "_checkpoints_written", _state.INT, 0),
)
#: The ``degrade`` checkpoint section: the last served decision and
#: clean value, and the degradation ledgers.
_DEGRADE = (
    ("last_decision", "_last_decision", _state.FLOAT),
    ("last_clean", "_last_clean", _state.FLOAT),
    ("held_intervals", "_held_intervals", _state.INT, 0),
    ("gap_intervals", "_gap_intervals", _state.INT, 0),
    ("shed_chunks", "_shed_chunks", _state.INT, 0),
    ("shed_intervals", "_shed_intervals", _state.INT, 0),
    ("quarantined_intervals", "_quarantined_intervals", _state.INT, 0),
    ("repaired_values", "_repaired_values", _state.INT, 0),
    ("quarantine", "quarantine", _state.listed(), []),
    ("stalls", "stalls", _state.listed(_state.Codec(
        StreamStalled.as_dict, lambda raw, owner: StreamStalled(**raw),
    )), []),
)
#: The ``components`` checkpoint section: each stateful component's
#: ``state_dict()``, ``null`` for an absent or stateless one.
_COMPONENTS = (
    ("predictor", "predictor", _state.CHILD),
    ("monitor", "monitor", _state.CHILD),
    ("controller", "controller", _state.CHILD),
)


def chunk_stream(
    trace: np.ndarray,
    *,
    config: StreamConfig | None = None,
) -> Iterator[StreamChunk]:
    """Yield ``trace`` as a deterministic sequence of feed chunks.

    Chunk sizes and arrival times are drawn from a generator seeded by
    ``config.seed``, so the same config replays the same sequence —
    which is what lets a resumed run regenerate the exact chunks a
    crashed run saw.  Each chunk boundary fires the ``stream.chunk``
    fault site once: ``stall`` delays that chunk's arrival (arg
    seconds, default 30.0), ``drop`` silently loses it (the offset
    still advances, leaving the gap the server must detect), ``kill``
    raises :class:`~repro.resilience.faults.SimulatedCrash` mid-stream.
    The arrival clock is monotonic, so a stalled chunk makes its
    successors arrive back-to-back — exactly the burst that exercises
    the backpressure model.  A 2-D ``(steps, D)`` trace is chunked by
    rows: sizes, offsets and arrivals count intervals, not values.
    """
    cfg = config if config is not None else StreamConfig()
    t = np.asarray(trace, dtype=np.float64)
    if t.ndim != 2:
        t = t.ravel()
    n = t.shape[0]
    rng = np.random.default_rng(cfg.seed)
    offset = 0
    index = 0
    last_arrival = 0.0
    while offset < n:
        size = cfg.chunk_size
        if cfg.size_jitter:
            size += int(rng.integers(-cfg.size_jitter, cfg.size_jitter + 1))
        size = max(1, min(size, n - offset))
        end = offset + size
        arrival = end * cfg.interval_s
        if cfg.arrival_jitter_s:
            arrival += float(rng.uniform(0.0, cfg.arrival_jitter_s))
        inj = _faults.active()
        fired = inj.maybe_fire("stream.chunk") if inj is not None else {}
        if "stall" in fired:
            spec = fired["stall"]
            arrival += spec.arg if spec.arg is not None else 30.0
        arrival = max(arrival, last_arrival)
        last_arrival = arrival
        if "drop" not in fired:
            yield StreamChunk(
                index=index,
                offset=offset,
                values=t[offset:end].copy(),
                arrival_s=arrival,
            )
        index += 1
        offset = end


def _forecast(
    predictor: Predictor,
    history: np.ndarray,
    raw: float | None,
    controlled: bool,
) -> float:
    """One ``predict_next`` from ``history``.

    ``raw`` hands a :class:`~repro.serving.guard.GuardedPredictor` its
    primary's precomputed forecast (see its ``predict_next``).  Under a
    controller (``controlled``) a failing predict returns NaN, which the
    controller treats as "forecast unavailable" and routes to the
    reactive tier; without one the error is raised.  Simulated process
    crashes (:class:`~repro.resilience.faults.SimulatedCrash`) always
    propagate.
    """
    try:
        if raw is None:
            return float(predictor.predict_next(history))
        return float(predictor.predict_next(history, raw=raw))
    except _faults.SimulatedCrash:
        raise
    except Exception as exc:
        if not controlled:
            raise
        _metrics.counter("autoscale.controller.forecast_error").inc()
        logger.warning("proactive forecast failed (reactive tier serves): %s", exc)
        return math.nan


class StreamingServer:
    """Serve a chunked feed with quarantine, degradation, and checkpoints.

    Parameters
    ----------
    predictor:
        The serving predictor — typically a
        :class:`~repro.serving.guard.GuardedPredictor`; its fallback
        chain also serves quarantined chunks.
    initial_history:
        Clean warmup history the first predictions draw on (the trace
        prefix before the served region).  Must be non-empty.  A 2-D
        ``(steps, D)`` one makes a multivariate feed: its rows fill the
        history and the chunks, while the target channel
        (``predictor.target_channel``, default 0) feeds the rescue,
        fallbacks, monitor, controller and simulator.
    config:
        A :class:`StreamConfig`; ``None`` takes the defaults.
    sanitizer:
        Per-chunk :class:`~repro.serving.sanitize.TraceSanitizer`;
        ``None`` installs ``TraceSanitizer(policy="interpolate")`` —
        chunks it cannot repair are quarantined.
    monitor / controller / spec / seed / refit_every:
        As in :func:`repro.serving.online.serve_and_simulate`;
        ``refit_every=None`` disables refits.

    :meth:`run` ingests chunks (logical time; the monitor is scored
    with ``latency_s=None``); :meth:`serve` is the direct entry.
    """

    def __init__(
        self,
        predictor: Predictor,
        initial_history: np.ndarray,
        *,
        config: StreamConfig | None = None,
        sanitizer: TraceSanitizer | None = None,
        monitor: ForecastMonitor | None = None,
        controller: HybridController | None = None,
        spec: VMSpec | None = None,
        seed: int = 0,
        refit_every: int | None = None,
    ):
        init, target = split_target(predictor, initial_history)
        if init.shape[0] == 0:
            raise ValueError("initial_history must be non-empty")
        #: Target column of a 2-D feed's rows; ``None`` on a 1-D feed.
        self._target = (
            int(getattr(predictor, "target_channel", 0) or 0)
            if init.ndim == 2 else None
        )
        if refit_every is not None and refit_every < 1:
            raise ValueError("refit_every must be >= 1 (or None)")
        self.config = config if config is not None else StreamConfig()
        self.predictor = predictor
        self.sanitizer = (
            sanitizer if sanitizer is not None
            else TraceSanitizer(policy="interpolate")
        )
        self.monitor = monitor
        self.controller = controller
        self.spec = spec
        self.seed = int(seed)
        self.refit_every = refit_every
        if controller is not None:
            if controller.breaker is None:
                controller.breaker = getattr(predictor, "breaker", None)
            controller.reset()

        window = self.config.history_window
        tail = init[-window:]
        self._hbuf = np.empty((2 * window,) + init.shape[1:], dtype=np.float64)
        self._hbuf[: tail.shape[0]] = tail
        self._hlen = int(tail.shape[0])
        self._initial_len = int(init.shape[0])

        # Served intervals (the schedule the simulator will replay).
        self._cap = 1024
        self._sched_buf = np.empty(self._cap, dtype=np.float64)
        self._act_buf = np.empty(self._cap, dtype=np.float64)
        self._n = 0
        #: Sidecar entries durably on disk (== entries the checkpoint covers).
        self._sidecar_n = 0

        last = float(target[-1])
        self._last_clean = last if math.isfinite(last) else 0.0
        self._last_decision = float(np.ceil(max(self._last_clean, 0.0)))

        # Stream cursor + degradation ledgers.
        _state.reset(self, _CURSOR)
        _state.reset(self, _DEGRADE)
        self._restored = False
        #: ``serving.stream.*`` counter handles (:meth:`_counters`).
        self._c: dict | None = None

    def _counters(self) -> dict:
        """The ``serving.stream.*`` counter handles, resolved once, on
        the first ingested chunk or restore, so a direct serve reports
        none of them."""
        if self._c is None:
            self._c = {
                name: _metrics.counter(f"serving.stream.{name}")
                for name in (
                    "chunks", "held_intervals", "gap_intervals",
                    "quarantined_chunks", "quarantined_intervals", "stalls",
                    "shed_chunks", "shed_intervals", "checkpoints",
                    "repaired_values",
                )
            }
        return self._c

    # ------------------------------------------------------------------
    # bounded history + interval buffers
    # ------------------------------------------------------------------
    def _view(self, end: int) -> np.ndarray:
        """The ``history_window`` buffer rows that end just before ``end``."""
        lo = end - self.config.history_window
        return self._hbuf[lo if lo > 0 else 0 : end]

    def _history_view(self) -> np.ndarray:
        return self._view(self._hlen)

    def _target_of(self, rows: np.ndarray) -> np.ndarray:
        """The target channel of ``rows`` (the rows themselves on a 1-D feed)."""
        return rows if self._target is None else rows[:, self._target]

    def _held_rows(self, n: int) -> np.ndarray:
        """``n`` history rows for intervals whose actuals are unknown: the
        last clean target value, with the other channels of a 2-D feed
        held at the newest history row."""
        if self._target is None:
            return np.full(n, self._last_clean)
        row = self._hbuf[self._hlen - 1].copy()
        row[self._target] = self._last_clean
        return np.tile(row, (n, 1))

    def _extend_history(self, rows: np.ndarray) -> int:
        """Append ``rows`` to the history; returns the buffer index of the
        first of them.

        Up to ``history_window`` rows before them stay in the buffer, so
        each new row's interval can be served from :meth:`_view`.  The
        buffer grows when ``rows`` are longer than it leaves room for.
        """
        m = int(rows.shape[0])
        hlen = self._hlen
        if hlen + m > self._hbuf.shape[0]:
            keep = min(hlen, self.config.history_window)
            tail = self._hbuf[hlen - keep : hlen]
            if keep + m > self._hbuf.shape[0]:
                self._hbuf = np.empty(
                    (keep + m,) + self._hbuf.shape[1:], dtype=np.float64
                )
            self._hbuf[:keep] = tail
            hlen = keep
        self._hbuf[hlen : hlen + m] = rows
        self._hlen = hlen + m
        return hlen

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._cap:
            return
        while self._cap < need:
            self._cap *= 2
        for name in ("_sched_buf", "_act_buf"):
            grown = np.empty(self._cap, dtype=np.float64)
            old = getattr(self, name)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _push_block(self, decisions, actuals) -> None:
        """Append ``decisions`` to the schedule, with their ``actuals``
        (one per decision, or one for all of them)."""
        m = len(decisions)
        self._reserve(m)
        self._sched_buf[self._n : self._n + m] = decisions
        self._act_buf[self._n : self._n + m] = actuals
        self._n += m

    # ------------------------------------------------------------------
    # serving modes
    # ------------------------------------------------------------------
    def _segment_forecasts(self, begin: int, end: int) -> np.ndarray | None:
        """The guarded primary's raw forecasts for the intervals of the
        history rows ``[begin, end)``, from one batched ``predict_series``
        pass over the view from ``history_window`` rows before ``begin``.

        Forecasts do not depend on decisions, so the whole segment can be
        forecast before the first of its intervals is served.  ``None``
        serves the segment per interval: the predictor is not a guard
        over a primary with ``predict_series`` (baselines, the adaptive
        variant), the bounded history is shorter than the model's
        window, or the batched call failed — ``predict_next`` then
        raises per interval, with the guard's usual accounting.
        """
        predictor = self.predictor
        if not isinstance(predictor, GuardedPredictor):
            return None
        primary = predictor.primary
        w = self.config.history_window
        if not hasattr(primary, "predict_series") or primary.min_history > w:
            return None
        lo = max(begin - w, 0)
        try:
            raws = primary.predict_series(self._hbuf[lo:end], begin - lo, end - lo)
        except _faults.SimulatedCrash:
            raise
        except Exception as exc:
            logger.debug(
                "batched forecast failed, serving per interval: %s", exc,
                exc_info=True,
            )
            return None
        return np.asarray(raws, dtype=np.float64)

    def _book_segment(self, raws: np.ndarray, begin: int, end: int) -> bool:
        """Whether the guard serves the history rows ``[begin, end)`` from
        their ``raws`` in one pass
        (:meth:`~repro.serving.guard.GuardedPredictor.serve_block`, which
        books them); a declined segment is counted per reason in
        ``stream.block_declined.*``.  A 2-D feed's target column is
        copied to contiguous memory for that pass."""
        w = self.config.history_window
        lo = max(begin - w, 0)
        target = self._target_of(self._hbuf[lo:end])
        if self._target is not None:
            target = np.ascontiguousarray(target)
        reason = self.predictor.serve_block(raws, target, begin - lo, w)
        if reason is not None:
            _metrics.counter(f"stream.block_declined.{reason}").inc()
            return False
        _metrics.counter("stream.block_intervals").inc(end - begin)
        return True

    def _refit(self, history: np.ndarray) -> None:
        """Refit on ``history``.  A failing fit raises without a
        controller; with one the stale model keeps serving.  Simulated
        process crashes always propagate."""
        try:
            self.predictor.fit(history)
        except _faults.SimulatedCrash:
            raise
        except Exception as exc:
            if self.controller is None:
                raise
            _metrics.counter("autoscale.controller.fit_error").inc()
            logger.warning("proactive fit failed (stale model serves): %s", exc)

    def _serve_values(self, values: np.ndarray, direct: bool = False) -> None:
        """The serve walk.  ``values`` go into the history first
        (:meth:`_extend_history`); the interval of buffer row ``i`` is then
        served from the view of the ``history_window`` rows that end just
        before it, and the decisions are pushed once.

        A refit due at a ``refit_every`` boundary fits on that
        boundary's view.  Between refits an ingested segment the guarded
        primary forecasts in one pass (:meth:`_segment_forecasts`) and
        the guard accepts (:meth:`_book_segment`) is served from its
        raws.  Every other interval — the direct entry (timed under a
        monitor), a segment the guard declines, a predictor that is not
        guarded — is forecast by ``predict_next`` on its own view.
        """
        m = values.shape[0]
        if not m:
            return
        first = self._extend_history(values)
        hbuf = self._hbuf
        target = self._target_of(hbuf)
        served = target[first : first + m]
        actuals = served.tolist()
        w = self.config.history_window
        predictor = self.predictor
        controller = self.controller
        controlled = controller is not None
        # The two public per-interval entries, bound once per block.
        step = controller.step if controlled else None
        observe = self.monitor.observe if self.monitor is not None else None
        timed = direct and observe is not None
        refit_every = self.refit_every
        decisions = []
        latency = None
        begin, last = first, first + m
        while begin < last:
            end = last
            if refit_every is not None:
                due = self._served_intervals % refit_every
                end = min(end, begin + refit_every - due)
                if due == 0:
                    self._refit(self._view(begin))
            raws = None if direct else self._segment_forecasts(begin, end)
            booked = raws is not None and self._book_segment(raws, begin, end)
            raws = [None] * (end - begin) if raws is None else raws.tolist()
            for i, p in enumerate(raws, begin):
                lo = i - w if i > w else 0
                if not booked:
                    t0 = time.perf_counter() if timed else 0.0
                    p = _forecast(predictor, hbuf[lo:i], p, controlled)
                    if timed:
                        latency = time.perf_counter() - t0
                actual = actuals[i - first]
                if controlled:
                    # The monitor scores only finite forecasts: decisions
                    # are not forecasts.
                    if observe is not None and math.isfinite(p):
                        observe(max(p, 0.0), actual, latency)
                    decisions.append(float(step(p, target[lo:i]).vms))
                else:
                    # Uncontrolled: a non-finite forecast is rescued,
                    # clipped at 0 and rounded up.
                    p = max(0.0, persistence_rescue(p, target[lo:i]))
                    if observe is not None:
                        observe(p, actual, latency)
                    decisions.append(float(np.ceil(p)))
            self._served_intervals += end - begin
            begin = end
        self._push_block(decisions, served)
        self._last_decision = decisions[-1]
        self._last_clean = actuals[-1]

    def serve(self, values: np.ndarray) -> np.ndarray:
        """Direct entry: serve ``values`` (rows of the feed's shape) as
        given and return their decisions.  No ingest (sanitizing, stall,
        shed or quarantine), so NaN outage windows stay; each interval is
        forecast with ``predict_next``, timed when a monitor is attached.
        """
        n0 = self._n
        self._serve_values(np.asarray(values, dtype=np.float64), direct=True)
        return self._sched_buf[n0 : self._n].copy()

    @classmethod
    def for_trace(
        cls, predictor: Predictor, trace: np.ndarray, start: int, **kwargs
    ) -> tuple["StreamingServer", np.ndarray]:
        """A server warmed on ``trace[:start]``, and the rows left to serve.

        Without a ``config`` the history window spans the whole trace, so
        a direct serve shows interval ``i`` all of ``trace[:i]``.
        """
        a, _ = split_target(predictor, trace)
        n = int(a.shape[0])
        if not 0 < start <= n:
            raise ValueError(f"invalid start {start} for series of length {n}")
        if kwargs.get("config") is None:
            kwargs["config"] = StreamConfig(history_window=n)
        return cls(predictor, a[:start], **kwargs), a[start:]

    def _fallback_forecast(self, history: np.ndarray) -> float:
        """First finite answer from the predictor's fallback chain."""
        fallbacks = getattr(self.predictor, "fallbacks", None) or ()
        for fb in fallbacks:
            try:
                raw = float(fb.predict_next(history))
            except _faults.SimulatedCrash:
                raise
            except Exception:
                continue
            if math.isfinite(raw):
                return max(raw, 0.0)
        last = float(history[-1]) if history.size else 0.0
        return last if math.isfinite(last) else 0.0

    def _quarantine_block(self, n: int) -> None:
        """Serve ``n`` quarantined intervals from the fallback chain.

        Actuals are unknown (the chunk was rejected), so the last clean
        value is held in the history and the simulator replay; the
        monitor is not scored — unobserved actuals are not evidence.
        """
        held = self._last_clean
        first = self._extend_history(self._held_rows(n))
        decisions = [
            float(np.ceil(self._fallback_forecast(
                self._target_of(self._view(end))
            )))
            for end in range(first, first + n)
        ]
        self._push_block(decisions, held)
        self._last_decision = decisions[-1]
        self._quarantined_intervals += n
        self._counters()["quarantined_intervals"].inc(n)

    def _degrade_block(self, n: int) -> None:
        """Hold-last provisioning for ``n`` intervals with no data at all.

        No interval here reads a history view, and the held rows are all
        alike, so a window of them stands for a gap of any length."""
        self._extend_history(self._held_rows(min(n, self.config.history_window)))
        self._push_block(np.full(n, self._last_decision), self._last_clean)
        self._held_intervals += n
        self._counters()["held_intervals"].inc(n)

    def _hold_block(self, values: np.ndarray) -> None:
        """Stalled chunk: hold-last decisions, but the (late) actuals are
        real — they enter the history so the model recovers immediately."""
        m = int(values.shape[0])
        actuals = self._target_of(values)
        self._extend_history(values)
        self._push_block(np.full(m, self._last_decision), actuals)
        self._last_clean = float(actuals[-1])
        self._held_intervals += m
        self._counters()["held_intervals"].inc(m)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _ingest(self, chunk: StreamChunk) -> None:
        cfg = self.config
        n = int(chunk.values.shape[0])
        end = chunk.offset + n
        if end <= self._next_offset:
            # Replay of an interval range the restored checkpoint already
            # covers — the resume fast-path.
            return
        if chunk.offset < self._next_offset:
            raise CheckpointError(
                f"chunk [{chunk.offset}, {end}) straddles the resume cursor "
                f"{self._next_offset}; checkpoints align to chunk "
                "boundaries, so the replayed source must use the original "
                "chunking config"
            )

        counters = self._counters()
        counters["chunks"].inc()
        self._chunks_processed += 1

        if chunk.offset > self._next_offset:
            # Dropped chunk(s) ahead of this one: the feed lost those
            # intervals for good — serve them blind.
            gap = chunk.offset - self._next_offset
            logger.warning(
                "stream gap: %d intervals missing before chunk %d",
                gap, chunk.index,
            )
            if _events.enabled():
                _events.emit("stream.gap", chunk=chunk.index, intervals=gap)
            self._degrade_block(gap)
            self._gap_intervals += gap
            counters["gap_intervals"].inc(gap)
            self._next_offset = chunk.offset

        gap_s = chunk.arrival_s - self._last_arrival_s
        stalled = cfg.deadline_s is not None and gap_s > cfg.deadline_s
        self._last_arrival_s = chunk.arrival_s

        shed = False
        if cfg.service_time_per_interval > 0.0:
            backlog_s = self._busy_until_s - chunk.arrival_s
            backlog = (
                backlog_s / cfg.service_time_per_interval
                if backlog_s > 0.0 else 0.0
            )
            if backlog > self._queue_peak:
                self._queue_peak = backlog
            if cfg.queue_capacity is not None and backlog > cfg.queue_capacity:
                shed = True
            else:
                start_s = (
                    self._busy_until_s if backlog_s > 0.0 else chunk.arrival_s
                )
                self._busy_until_s = (
                    start_s + cfg.service_time_per_interval * n
                )

        if shed:
            self._shed_chunks += 1
            self._shed_intervals += n
            counters["shed_chunks"].inc()
            counters["shed_intervals"].inc(n)
            logger.warning(
                "load shed: chunk %d (%d intervals) dropped at backlog "
                "%.1f intervals", chunk.index, n, self._queue_peak,
            )
            if _events.enabled():
                _events.emit("stream.shed", chunk=chunk.index, intervals=n)
            self._degrade_block(n)
            self._next_offset = end
        else:
            try:
                clean, report = self.sanitizer.sanitize(chunk.values)
            except TraceValidationError as exc:
                self.quarantine.append({
                    "chunk": chunk.index,
                    "offset": chunk.offset,
                    "intervals": n,
                    "reason": str(exc),
                })
                counters["quarantined_chunks"].inc()
                logger.warning(
                    "chunk %d quarantined (%d intervals): %s",
                    chunk.index, n, exc,
                )
                if _events.enabled():
                    _events.emit(
                        "stream.quarantined", chunk=chunk.index, intervals=n,
                    )
                self._quarantine_block(n)
                self._next_offset = end
            else:
                clean = np.asarray(clean, dtype=np.float64)
                repaired = int(report.n_repaired)
                if repaired:
                    self._repaired_values += repaired
                    counters["repaired_values"].inc(repaired)
                if stalled:
                    rec = StreamStalled(
                        chunk_index=chunk.index,
                        offset=chunk.offset,
                        gap_s=float(gap_s),
                        deadline_s=float(cfg.deadline_s),
                        intervals_held=n,
                    )
                    self.stalls.append(rec)
                    counters["stalls"].inc()
                    logger.warning(
                        "stream stalled: chunk %d arrived %.1fs late "
                        "(deadline %.1fs) — holding last decision",
                        chunk.index, gap_s, cfg.deadline_s,
                    )
                    if _events.enabled():
                        _events.emit("stream.stalled", **rec.as_dict())
                    self._hold_block(clean)
                else:
                    self._serve_values(clean)
                self._next_offset = end

        if (
            self.config.checkpoint_dir is not None
            and cfg.checkpoint_every
            and self._chunks_processed % cfg.checkpoint_every == 0
        ):
            self._checkpoint()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _identity(self) -> dict:
        """Config echo a checkpoint must match before it may restore:
        every :class:`StreamConfig` field but where and how often to
        checkpoint (:data:`_NOT_IDENTITY`), and the server's wiring."""
        ident = {
            "predictor": getattr(
                self.predictor, "name", type(self.predictor).__name__
            ),
            **{
                f.name: getattr(self.config, f.name)
                for f in dataclasses.fields(self.config)
                if f.name not in _NOT_IDENTITY
            },
            "sanitizer_policy": self.sanitizer.policy,
            "refit_every": self.refit_every,
            "initial_len": self._initial_len,
            "monitored": self.monitor is not None,
            "controlled": self.controller is not None,
        }
        if self._target is not None:
            # Only a 2-D feed names its shape, so a 1-D checkpoint keeps
            # its bytes.
            ident["channels"] = int(self._hbuf.shape[1])
            ident["target_channel"] = self._target
        return ident

    def _append_sidecar(self, path: Path, buf: np.ndarray) -> None:
        new = buf[self._sidecar_n : self._n]
        base = self._sidecar_n * 8
        mode = "r+b" if path.exists() else "w+b"
        with open(path, mode) as fh:
            # Drop any torn/stale tail beyond the durable prefix before
            # appending, so file contents always equal the buffer prefix.
            fh.truncate(base)
            fh.seek(base)
            fh.write(new.tobytes())
            fh.flush()
            os.fsync(fh.fileno())

    def _checkpoint(self) -> None:
        d = Path(self.config.checkpoint_dir)
        d.mkdir(parents=True, exist_ok=True)
        self._append_sidecar(d / _SCHEDULE_FILE, self._sched_buf)
        self._append_sidecar(d / _ACTUALS_FILE, self._act_buf)
        self._sidecar_n = self._n

        self._checkpoints_written += 1
        self._counters()["checkpoints"].inc()
        state = {
            "schema": CHECKPOINT_SCHEMA,
            "identity": self._identity(),
            "cursor": _state.encode(self, _CURSOR),
            "degrade": _state.encode(self, _DEGRADE),
            "history": {"hex": self._history_view().tobytes().hex()},
            "components": _state.encode(self, _COMPONENTS),
            "counters": serving_counters(),
            "sidecar": {"n": self._n},
        }
        # One ``dumps`` call takes the C encoder; ``dump`` would stream
        # through the pure-Python one (same bytes, ~3x slower on a 150 KB
        # checkpoint).
        _state.write_atomic(d / _CHECKPOINT_FILE, json.dumps(state))
        if _events.enabled():
            _events.emit(
                "stream.checkpoint",
                chunks=self._chunks_processed, intervals=self._n,
            )

    def _read_sidecars(
        self, d: Path, n: int
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """The first ``n`` intervals of the schedule and actuals sidecars."""
        out = []
        for fname in (_SCHEDULE_FILE, _ACTUALS_FILE):
            sidecar = d / fname
            try:
                blob = sidecar.read_bytes()
            except OSError as exc:
                raise CheckpointError(
                    f"unreadable sidecar {sidecar}: {exc}"
                ) from exc
            if len(blob) < n * 8:
                raise CheckpointError(
                    f"sidecar {sidecar} holds {len(blob) // 8} intervals, "
                    f"checkpoint claims {n}"
                )
            out.append(np.frombuffer(blob[: n * 8], dtype=np.float64))
        return (n, *out)

    def _decode_history(self, saved: dict) -> np.ndarray:
        hist = np.frombuffer(bytes.fromhex(saved["hex"]), dtype=np.float64)
        if self._target is not None:
            hist = hist.reshape(-1, self._hbuf.shape[1])
        if hist.shape[0] > self.config.history_window:
            raise ValueError(
                f"{hist.shape[0]} history intervals exceed history_window "
                f"{self.config.history_window}"
            )
        return hist

    def restore(self, directory: str | Path | None = None) -> bool:
        """Restore from a checkpoint directory; ``False`` = no checkpoint.

        A missing ``checkpoint.json`` is a fresh start (a crash before
        the first checkpoint resumes trivially); anything unusable —
        corrupt JSON, schema mismatch, identity mismatch, sidecars
        shorter than the checkpoint claims, a missing or malformed field
        in any section — raises :class:`CheckpointError` naming the
        section rather than serving from wrong state.  Restore is all or
        nothing: every section is decoded and checked before any is
        committed, so a failed restore leaves the server and its
        components exactly as they were.
        """
        target = directory if directory is not None else self.config.checkpoint_dir
        if target is None:
            raise CheckpointError("no checkpoint directory configured")
        d = Path(target)
        path = d / _CHECKPOINT_FILE
        if not path.exists():
            logger.warning("no checkpoint at %s — starting fresh", path)
            return False
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if not isinstance(state, dict):
            raise CheckpointError(f"unreadable checkpoint {path}: not an object")

        schema = state.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema {schema!r} at {path} does not match "
                f"supported version {CHECKPOINT_SCHEMA}"
            )
        ident = self._identity()
        saved_ident = state.get("identity") or {}
        if saved_ident != ident:
            diff = sorted(
                k for k in set(ident) | set(saved_ident)
                if saved_ident.get(k) != ident.get(k)
            )
            raise CheckpointError(
                f"checkpoint identity mismatch on {diff}: the resuming "
                "server is configured differently from the one that wrote "
                f"{path}"
            )

        # Decode every section before committing any, so an unusable
        # one leaves the server and its components exactly as they were.
        decoded = {}
        for section, decode in (
            ("sidecar", lambda saved: self._read_sidecars(d, int(saved["n"]))),
            ("history", self._decode_history),
            ("cursor", lambda saved: _state.prepare(
                self, saved, _CURSOR, "cursor.")),
            ("degrade", lambda saved: _state.prepare(
                self, saved, _DEGRADE, "degrade.")),
            ("components", lambda saved: _state.prepare(
                self, saved, _COMPONENTS, "components.")),
            ("counters", lambda saved: {
                str(name): float(value) for name, value in saved.items()
            }),
        ):
            try:
                decoded[section] = decode(state[section])
            except CheckpointError:
                raise
            except Exception as exc:
                raise CheckpointError(
                    f"unusable checkpoint {path}, section {section!r}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

        n, schedule, actuals = decoded["sidecar"]
        self._reserve(max(0, n - self._n))
        self._sched_buf[:n] = schedule
        self._act_buf[:n] = actuals
        self._n = self._sidecar_n = n
        hist = decoded["history"]
        self._hbuf[: hist.shape[0]] = hist
        self._hlen = int(hist.shape[0])
        for section in ("cursor", "degrade", "components"):
            decoded[section]()
        # A restored server continues a stream and its counters.
        self._counters()
        # Counters are monotonic, so restoration is by delta: in a fresh
        # process every counter starts at 0 and lands exactly on the
        # checkpointed value, keeping ServingReport.serving_counters
        # bit-for-bit with an uninterrupted run.
        for name, value in decoded["counters"].items():
            c = _metrics.counter(name)
            delta = value - c.value
            if delta > 0:
                c.inc(delta)

        self._restored = True
        logger.info(
            "resumed from %s: %d chunks, %d intervals, cursor at offset %d",
            path, self._chunks_processed, self._n, self._next_offset,
        )
        return True

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """The ``stream`` section of the final :class:`ServingReport`."""
        return {
            "chunks": self._chunks_processed,
            "intervals": self._n,
            "served_intervals": self._served_intervals,
            "held_intervals": self._held_intervals,
            "gap_intervals": self._gap_intervals,
            "shed_chunks": self._shed_chunks,
            "shed_intervals": self._shed_intervals,
            "quarantined_chunks": len(self.quarantine),
            "quarantined_intervals": self._quarantined_intervals,
            "repaired_values": self._repaired_values,
            "stalls": [s.as_dict() for s in self.stalls],
            "queue_peak_intervals": self._queue_peak,
            "checkpoints_written": self._checkpoints_written,
            "quarantine": list(self.quarantine),
        }

    def finish(self) -> ServingReport:
        """Final checkpoint, simulator replay, and report assembly."""
        if self._n == 0:
            raise ValueError("no intervals were served (empty stream?)")
        if self.config.checkpoint_dir is not None and self._n > self._sidecar_n:
            # Final checkpoint — skipped when the last periodic one already
            # covers everything (also makes resuming a *finished* run a
            # clean no-op with an identical report).
            self._checkpoint()
        schedule = self._sched_buf[: self._n].copy()
        actuals = self._act_buf[: self._n].copy()
        result = CloudSimulator(spec=self.spec, seed=self.seed).run(
            actuals, schedule
        )
        # Only ingested chunks have stream accounting; a direct serve
        # reports none.
        return ServingReport.collect(
            result, schedule, self.predictor, self.controller, self.monitor,
            self.summary() if self._chunks_processed else None,
        )

    def run(self, chunks: Iterable[StreamChunk]) -> ServingReport:
        """Ingest every chunk, then :meth:`finish`.

        With ``config.resume`` set, :meth:`restore` runs first and the
        replayed chunks the checkpoint already covers are skipped.
        """
        if self.config.resume and not self._restored:
            self.restore()
        for chunk in chunks:
            self._ingest(chunk)
        return self.finish()
