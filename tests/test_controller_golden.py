"""``HybridController`` reproduces recorded decision walks bit for bit.

``tests/data/controller_golden.json`` (written by
``scripts/make_pipeline_fixtures.py controller``) holds, for four
configurations (default, ``passthrough()``, rails with a cooldown, a
``PageHinkleyDetector``) over seeded traces with NaN outages, spikes,
burst episodes and signed zeros, every decision's ``vms``,
``decided_by``, ``rails`` and ``burst`` flag, its ``target``,
``forecast`` and ``correction`` as hex floats, and the final
``state_dict``.  It also holds the sha256 of ``checkpoint.json`` and
both ``.f64`` sidecars from a deterministic streamed run with NaN gaps.
The controller is scalar float arithmetic, so this is the bit-exact
fixture class: every comparison is on raw bits or bytes.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.autoscale.controller import ControllerConfig, HybridController
from repro.baselines.naive import LastValuePredictor
from repro.obs.metrics import reset_metrics
from repro.obs.monitor import ForecastMonitor, PageHinkleyDetector
from repro.serving import StreamConfig, StreamingServer, chunk_stream

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "controller_golden.json").read_text()
)


def unhex64(s: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(s), dtype="<f8").astype(np.float64)


def make_controller(case: dict) -> HybridController:
    """Must match ``make_controller`` in scripts/make_pipeline_fixtures.py."""
    detector = PageHinkleyDetector() if case["page_hinkley"] else None
    return HybridController(
        ControllerConfig(**case["config_kwargs"]), drift_detector=detector,
    )


def stream_run_digests(case: dict) -> dict:
    """Must match ``stream_run_digests`` in scripts/make_pipeline_fixtures.py."""
    trace = unhex64(case["trace"])
    start = case["start"]
    reset_metrics()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = StreamConfig(**case["stream_config"], checkpoint_dir=tmp)
        server = StreamingServer(
            LastValuePredictor(), trace[:start], config=cfg,
            monitor=ForecastMonitor(), controller=HybridController(),
        )
        server.run(chunk_stream(trace[start:], config=cfg))
        return {
            name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
            for name in ("checkpoint.json", "schedule.f64", "actuals.f64")
        }


def test_recorded_with_this_bit_generator():
    assert GOLDEN["bit_generator"] == type(
        np.random.default_rng().bit_generator
    ).__name__


def test_cases_cover_the_controller_paths():
    cases = GOLDEN["cases"]
    assert {c["config"] for c in cases} == {
        "default", "passthrough", "rails_cooldown", "page_hinkley",
    }
    tags = Counter(t for c in cases for t in c["decided_by"])
    assert set(tags) == {"proactive", "hybrid", "burst", "reactive", "hold"}
    rails = {r for c in cases for rs in c["rails"] for r in rs}
    assert rails == {"rate_up", "rate_down", "cooldown", "max_vms", "min_vms"}
    assert any(c["state_dict"]["burst_episodes"] > 1 for c in cases)
    # Long enough walks that the error window evicts.
    assert all(
        len(c["vms"]) > c["config_kwargs"].get("error_window", 64) + 10
        for c in cases
    )
    inputs = np.concatenate(
        [unhex64(c[k]) for c in cases for k in ("forecasts", "arrivals")]
    )
    assert np.isnan(inputs).any()
    assert (np.signbit(inputs) & (inputs == 0.0)).any()


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
def test_decision_walk_bits(case):
    forecasts, arrivals = unhex64(case["forecasts"]), unhex64(case["arrivals"])
    controller = make_controller(case)
    decisions = [
        controller.step(forecasts[i], arrivals[: i + 1])
        for i in range(forecasts.size)
    ]
    assert [d.vms for d in decisions] == case["vms"]
    assert [d.decided_by for d in decisions] == case["decided_by"]
    assert [list(d.rails) for d in decisions] == case["rails"]
    assert [d.burst for d in decisions] == case["burst"]
    for key in ("target", "forecast", "correction"):
        assert [getattr(d, key).hex() for d in decisions] == case[key], key

    state = controller.state_dict()
    del state["decisions"]  # compared column by column above
    assert json.dumps(state, sort_keys=True) == json.dumps(
        case["state_dict"], sort_keys=True
    )


def test_stream_checkpoint_bytes():
    case = GOLDEN["stream"]
    assert stream_run_digests(case) == case["sha256"]
