"""``repro.serving`` — the serving-robustness layer.

Training became crash-safe in the resilience PR; this package hardens
the *serving* path the autoscaler depends on, so that bad data or a
misbehaving model degrades service instead of corrupting provisioning:

=========================  ===========================================
``repro.serving.sanitize``  ingestion quality reports + repair policies
``repro.serving.guard``     guarded predictions + fallback chain
``repro.serving.breaker``   circuit breaker shedding a sick model
``repro.serving.online``    guarded walk-forward → autoscaler loop
``repro.serving.stream``    chunked feed + checkpoints + crash resume
=========================  ===========================================

Quick use::

    from repro.serving import GuardedPredictor, TraceSanitizer

    clean, report = TraceSanitizer(policy="interpolate").sanitize(raw)
    guarded = GuardedPredictor(predictor)      # validation + fallbacks
    p = guarded.predict_next(clean)            # always finite, >= 0

The chaos path is ``repro simulate --guarded`` under ``REPRO_FAULTS``
(sites ``serve.predict``, ``adaptive.refit``, ``model.load``); see
DESIGN.md §10.
"""

from repro.nn.serialization import CorruptModelError
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serving.guard import GuardedPredictor, default_fallbacks
from repro.serving.online import ServingReport, daily_period, serve_and_simulate
from repro.serving.sanitize import REPAIR_POLICIES, DataQualityReport, TraceSanitizer
from repro.serving.stream import (
    CheckpointError,
    StreamChunk,
    StreamConfig,
    StreamingServer,
    StreamStalled,
    chunk_stream,
)

__all__ = [
    "REPAIR_POLICIES",
    "DataQualityReport",
    "TraceSanitizer",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "CorruptModelError",
    "GuardedPredictor",
    "default_fallbacks",
    "ServingReport",
    "daily_period",
    "serve_and_simulate",
    "CheckpointError",
    "StreamChunk",
    "StreamConfig",
    "StreamStalled",
    "StreamingServer",
    "chunk_stream",
]
