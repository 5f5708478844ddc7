"""``repro.obs`` — observability: events, metrics, tracing, logging.

The telemetry substrate every subsystem reports through:

=====================  ================================================
``repro.obs.events``   structured event records + JSONL/memory sinks
``repro.obs.metrics``  counters, gauges, timers, histograms (registry)
``repro.obs.tracing``  nested span context manager
``repro.obs.callbacks``per-epoch training callback protocol
``repro.obs.logging``  namespaced ``repro.*`` loggers
=====================  ================================================

Quick use::

    from repro import obs

    obs.configure_logging("DEBUG")            # diagnostics on stderr
    sink = obs.add_sink(obs.JsonlSink("trace.jsonl"))
    with obs.span("my.block"):
        ...                                   # spans/events land in the file
    print(obs.summary())                      # machine-readable metrics

Everything is off by default: with no sinks registered and logging
unconfigured, the instrumented hot paths pay a single branch.
"""

from repro.obs.callbacks import (
    CallbackList,
    TelemetryCallback,
    TrainingCallback,
)
from repro.obs.events import (
    Event,
    JsonlSink,
    MemorySink,
    add_sink,
    clear_sinks,
    emit,
    enabled,
    read_jsonl,
    remove_sink,
)
from repro.obs.logging import JsonFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    counter,
    gauge,
    get_registry,
    histogram,
    reset_metrics,
    summary,
    timer,
)
from repro.obs.tracing import Span, current_span, span

__all__ = [
    # events
    "Event",
    "JsonlSink",
    "MemorySink",
    "add_sink",
    "remove_sink",
    "clear_sinks",
    "enabled",
    "emit",
    "read_jsonl",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "reset_metrics",
    "summary",
    # tracing
    "Span",
    "span",
    "current_span",
    # callbacks
    "TrainingCallback",
    "TelemetryCallback",
    "CallbackList",
    # logging
    "get_logger",
    "configure_logging",
    "JsonFormatter",
]
