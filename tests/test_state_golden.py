"""Persistent serving state: byte-for-byte encodings and complete restores.

``tests/data/state_golden.json`` (written by
``scripts/make_pipeline_fixtures.py state``) holds the exact
``json.dumps(obj.state_dict())`` string of every stateful serving
component after a seeded walk from that script's ``STATE_CASES``.  The
string pins values, key order, and ``null`` versus omitted keys, so two
checks guard the checkpoint format:

* the same walk reproduces each string byte for byte;
* loading a string into a fresh instance and dumping it again gives the
  same string.

The completeness check guards the other direction — a field a class
forgets to persist.  After each walk the state goes through JSON into a
fresh instance with the same configuration, and every attribute of the
two instances must match: deques with their ``maxlen``, floats bit for
bit, child components recursively.  Only the attributes listed in
:data:`NOT_STATE` (configuration bindings fixed at construction) are
skipped.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.autoscale.controller import HybridController
from repro.baselines.naive import LastValuePredictor
from repro.obs.metrics import reset_metrics
from repro.obs.monitor import ForecastMonitor, SLOTracker
from repro.resilience import faults
from repro.serving import (
    GuardedPredictor,
    StreamConfig,
    StreamingServer,
    TraceSanitizer,
    chunk_stream,
    default_fallbacks,
)

_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((_ROOT / "tests" / "data" / "state_golden.json").read_text())
_spec = importlib.util.spec_from_file_location(
    "make_pipeline_fixtures", _ROOT / "scripts" / "make_pipeline_fixtures.py"
)
fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fixtures)

CASES = {case["name"]: case["state"] for case in GOLDEN["cases"]}


def test_recorded_with_this_bit_generator():
    assert GOLDEN["bit_generator"] == type(
        np.random.default_rng().bit_generator
    ).__name__


def test_every_case_is_recorded():
    assert list(CASES) == list(fixtures.STATE_CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_walk_reproduces_recorded_bytes(name):
    assert json.dumps(fixtures.walked(name).state_dict()) == CASES[name]


@pytest.mark.parametrize("name", list(CASES))
def test_load_then_dump_reproduces_recorded_bytes(name):
    make, _ = fixtures.STATE_CASES[name]
    fresh = make()
    fresh.load_state_dict(json.loads(CASES[name]))
    assert json.dumps(fresh.state_dict()) == CASES[name]


# ----------------------------------------------------------------------
# completeness: a field left out of a declared list fails loudly
# ----------------------------------------------------------------------
#: Per class, the attributes that are not state: hot-path bindings to
#: the instance's own children, and buffers compared by their valid
#: prefix instead.
NOT_STATE = {
    ForecastMonitor: {
        "_q_update", "_detector_updates", "_slo_update", "_h_latency_observe",
    },
    StreamingServer: {"_hbuf", "_sched_buf", "_act_buf", "_cap", "_restored"},
}


def _attrs(obj) -> dict:
    if hasattr(obj, "__dict__"):
        return vars(obj)
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def assert_same(a, b, path: str = "") -> None:
    """``a`` and ``b`` hold the same state, attribute by attribute."""
    if a is b:
        return
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, float):
        assert a.hex() == b.hex() or (math.isnan(a) and math.isnan(b)), (
            f"{path}: {a!r} != {b!r}"
        )
    elif isinstance(a, (str, int, bool, type(None))):
        assert a == b, f"{path}: {a!r} != {b!r}"
    elif isinstance(a, np.ndarray):
        assert a.tobytes() == b.tobytes(), path
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: keys {list(a)} != {list(b)}"
        for key in a:
            assert_same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple, deque)):
        if isinstance(a, deque):
            assert a.maxlen == b.maxlen, f"{path}: maxlen {a.maxlen} != {b.maxlen}"
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_same(
                getattr(a, field.name), getattr(b, field.name),
                f"{path}.{field.name}",
            )
    else:
        skip = NOT_STATE.get(type(a), set())
        va, vb = _attrs(a), _attrs(b)
        assert va.keys() == vb.keys(), f"{path}: {sorted(va)} != {sorted(vb)}"
        for name in va:
            if name not in skip:
                assert_same(va[name], vb[name], f"{path}.{name}")


def _json_roundtrip(state: dict) -> dict:
    return json.loads(json.dumps(state))


@pytest.mark.parametrize("name", list(fixtures.STATE_CASES))
def test_restore_is_complete(name):
    make, _ = fixtures.STATE_CASES[name]
    walked = fixtures.walked(name)
    fresh = make()
    fresh.load_state_dict(_json_roundtrip(walked.state_dict()))
    assert_same(walked, fresh, name)
    # Entries that only check or point (a detector's name, a model
    # directory) leave no attribute behind; the recorded bytes pin them.
    assert json.dumps(fresh.state_dict()) == CASES[name]


def _degraded_server(ckpt: str) -> tuple[StreamingServer, list]:
    """A server, and the chunks of a feed that exercises every rung of
    the degradation ladder: a repaired gap, a quarantined chunk, a
    dropped chunk, a stall past the deadline and load shedding."""
    rng = np.random.default_rng(71)
    trace = rng.poisson(60, 400).astype(np.float64)
    trace[rng.integers(100, 250, 8)] = np.nan
    trace[260:320] = np.nan
    cfg = StreamConfig(
        chunk_size=16, size_jitter=4, seed=2, deadline_s=40.0,
        queue_capacity=20, service_time_per_interval=1.1,
        checkpoint_every=1, checkpoint_dir=ckpt,
    )
    server = StreamingServer(
        GuardedPredictor(LastValuePredictor(), fallbacks=default_fallbacks(24)),
        trace[:100], config=cfg,
        sanitizer=TraceSanitizer(policy="interpolate"),
        monitor=ForecastMonitor(slo=SLOTracker(accuracy_slo_mape=20.0)),
        controller=HybridController(),
    )
    with faults.injected("drop@stream.chunk:4,stall@stream.chunk:9=60"):
        chunks = list(chunk_stream(trace[100:], config=cfg))
    return server, chunks


def test_server_restore_is_complete(tmp_path):
    reset_metrics()
    served, chunks = _degraded_server(str(tmp_path))
    for chunk in chunks:
        served._ingest(chunk)
    summary = served.summary()
    for key in ("held_intervals", "gap_intervals", "shed_chunks",
                "quarantined_intervals", "repaired_values", "stalls",
                "queue_peak_intervals"):
        assert summary[key], f"the feed never exercised {key}"
    restored, _ = _degraded_server(str(tmp_path))
    restored.restore()
    assert_same(served, restored, "server")
    assert_same(served._history_view(), restored._history_view(), "history")
    n = served._n
    assert_same(served._sched_buf[:n], restored._sched_buf[:n], "schedule")
    assert_same(served._act_buf[:n], restored._act_buf[:n], "actuals")
