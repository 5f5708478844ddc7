"""Tests for the ``repro.obs`` observability subsystem."""

from __future__ import annotations

import io
import json
import logging as std_logging
import threading

import numpy as np
import pytest

from repro import obs
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.space import IntParam, SearchSpace


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Isolate every test: no leftover sinks or metrics."""
    obs.clear_sinks()
    obs.reset_metrics()
    yield
    obs.clear_sinks()
    obs.reset_metrics()


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
class TestEvents:
    def test_disabled_without_sinks(self):
        assert not obs.enabled()
        obs.emit("ignored", x=1)  # must be a silent no-op

    def test_emission_to_memory_sink(self):
        sink = obs.add_sink(obs.MemorySink())
        assert obs.enabled()
        obs.emit("unit.test", value=42, label="hello")
        assert len(sink.records) == 1
        rec = sink.records[0]
        assert rec["event"] == "unit.test"
        assert rec["value"] == 42 and rec["label"] == "hello"
        assert rec["time"] > 0 and rec["v"] >= 1

    def test_remove_sink_stops_delivery(self):
        sink = obs.add_sink(obs.MemorySink())
        obs.remove_sink(sink)
        assert not obs.enabled()
        obs.emit("late", x=1)
        assert len(sink.records) == 0

    def test_memory_sink_by_name_and_cap(self):
        sink = obs.MemorySink(max_events=3)
        for i in range(5):
            sink.handle({"event": "a" if i % 2 else "b", "i": i})
        assert len(sink.records) == 3
        assert all(r["i"] >= 2 for r in sink.records)
        assert {r["i"] for r in sink.by_name("a")} <= {3}

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = obs.add_sink(obs.JsonlSink(path))
        obs.emit("first", a=1, arr=np.array([1.0, 2.0]), scalar=np.float64(3.5))
        obs.emit("second", b="text")
        obs.remove_sink(sink, close=True)
        records = list(obs.read_jsonl(path))
        assert [r["event"] for r in records] == ["first", "second"]
        assert records[0]["arr"] == [1.0, 2.0]       # numpy serialized
        assert records[0]["scalar"] == 3.5
        assert records[1]["b"] == "text"


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        c = obs.counter("t.count")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = obs.gauge("t.gauge")
        g.set(7.0)
        g.add(-2.0)
        assert g.value == 5.0

    def test_histogram_percentiles(self):
        h = obs.histogram("t.hist")
        h.observe_many(float(v) for v in range(1, 101))
        assert h.count == 100 and h.min == 1.0 and h.max == 100.0
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_reservoir_bounded(self):
        h = obs.Histogram(max_samples=8)
        h.observe_many(float(v) for v in range(1000))
        assert h.count == 1000            # exact stream stats survive
        assert h.max == 999.0
        assert len(h._samples) == 8       # reservoir stays bounded

    @pytest.mark.parametrize("case", ["generator", "empty", "wraps"])
    def test_observe_many_equals_observe_loop(self, case):
        """One locked pass ends exactly where a loop of ``observe`` does:
        the same count, total bits, bounds and reservoir, in order."""
        values = [0.1, 3.0, -0.0, 0.0, 1e-300, 2.5, 0.7, 1e16, 1.0, -4.25,
                  0.1, 0.30000000000000004]
        batches = {
            "generator": [values],
            "empty": [[], values[:3], []],
            # 7 slots: the second batch fills the last 3, then overwrites
            # every slot three times over.
            "wraps": [values[:4], values + values[::-1], values[5:]],
        }[case]

        def state(h):
            return (h.count, h.total.hex(), repr(h.min), repr(h.max),
                    [x.hex() for x in h._samples])

        looped, batched = obs.Histogram(max_samples=7), obs.Histogram(max_samples=7)
        for batch in batches:
            for v in batch:
                looped.observe(v)
            batched.observe_many(v for v in batch)
            assert state(batched) == state(looped)

    def test_timer_context_manager(self):
        t = obs.timer("t.timer")
        with t.time() as timing:
            pass
        assert t.count == 1
        assert timing.seconds >= 0.0
        snap = t.snapshot()
        assert snap["kind"] == "timer" and snap["count"] == 1

    def test_registry_snapshot_and_conflict(self):
        obs.counter("t.c").inc()
        obs.histogram("t.h").observe(1.0)
        snap = obs.get_registry().snapshot()
        assert snap["t.c"] == {"kind": "counter", "value": 1.0}
        assert snap["t.h"]["count"] == 1
        with pytest.raises(TypeError):
            obs.gauge("t.c")              # name already taken by a counter
        report = obs.summary()
        assert report["metrics"]["t.c"]["value"] == 1.0

    def test_thread_safety_of_counter(self):
        c = obs.counter("t.mt")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000

    def test_registry_concurrency_storm(self):
        """Mixed inc/observe/registration from many threads: exact totals.

        Every thread hammers a shared counter, a shared histogram, and a
        per-thread counter it registers itself — exercising the registry
        lock (get-or-create) and each metric's own lock together.
        """
        n_threads, n_ops = 8, 500
        shared_c = obs.counter("storm.shared")
        shared_h = obs.histogram("storm.lat")
        barrier = threading.Barrier(n_threads)

        def work(tid: int):
            barrier.wait()  # maximize interleaving
            mine = obs.counter(f"storm.thread.{tid}")
            for i in range(n_ops):
                shared_c.inc()
                shared_h.observe(float(i))
                mine.inc(2.0)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert shared_c.value == n_threads * n_ops
        assert shared_h.count == n_threads * n_ops
        assert shared_h.total == n_threads * sum(range(n_ops))
        assert shared_h.min == 0.0 and shared_h.max == float(n_ops - 1)
        snap = obs.get_registry().snapshot("storm.thread.")
        assert len(snap) == n_threads
        assert all(s["value"] == 2.0 * n_ops for s in snap.values())

    def test_prefix_filtered_snapshot_and_summary(self):
        obs.counter("serving.hits").inc()
        obs.counter("serving_hits_lookalike").inc()   # no dot: prefix excludes
        obs.gauge("serve.level").set(1.0)             # sibling namespace
        obs.histogram("serving.lat").observe(2.0)

        snap = obs.get_registry().snapshot("serving.")
        assert set(snap) == {"serving.hits", "serving.lat"}

        report = obs.summary("serving.")
        assert report["schema"] == 1
        assert set(report["metrics"]) == {"serving.hits", "serving.lat"}
        # Unmatched prefix yields an empty mapping, not an error.
        assert obs.get_registry().snapshot("nothing.") == {}
        assert obs.summary("nothing.")["metrics"] == {}
        # No prefix means everything.
        assert len(obs.get_registry().snapshot()) == 4

    def test_histogram_snapshot_reservoir_provenance(self):
        h = obs.Histogram(max_samples=8)
        h.observe_many(float(v) for v in range(5))
        snap = h.snapshot()
        assert snap["reservoir_size"] == 5
        assert snap["reservoir_wrapped"] is False

        h.observe_many(float(v) for v in range(5, 100))
        snap = h.snapshot()
        assert snap["count"] == 100        # exact stream stats survive
        assert snap["reservoir_size"] == 8  # reservoir stays bounded
        assert snap["reservoir_wrapped"] is True

        empty = obs.Histogram().snapshot()
        assert empty["count"] == 0 and empty["reservoir_size"] == 0
        assert empty["reservoir_wrapped"] is False
        assert empty["min"] is None and "p50" not in empty


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_span_nesting_and_records(self):
        sink = obs.add_sink(obs.MemorySink())
        assert obs.current_span() is None
        with obs.span("outer", task="test") as outer:
            assert obs.current_span() is outer
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == outer.depth + 1
            outer.set("extra", 5)
        assert obs.current_span() is None
        spans = sink.by_name("span")
        assert [r["span"] for r in spans] == ["inner", "outer"]  # exit order
        outer_rec = spans[1]
        assert outer_rec["extra"] == 5 and outer_rec["task"] == "test"
        assert outer_rec["duration_s"] >= spans[0]["duration_s"]

    def test_span_metrics_recorded_without_sinks(self):
        with obs.span("quiet.block"):
            pass
        snap = obs.get_registry().snapshot()
        assert snap["span.quiet.block.seconds"]["count"] == 1

    def test_span_closes_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert obs.current_span() is None


# ----------------------------------------------------------------------
# logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_namespacing(self):
        assert obs.get_logger("bayesopt").name == "repro.bayesopt"
        assert obs.get_logger("repro.core").name == "repro.core"
        assert obs.get_logger().name == "repro"

    def test_configure_json_mode(self):
        stream = io.StringIO()
        obs.configure_logging("DEBUG", json_mode=True, stream=stream)
        obs.get_logger("unit").info("hello %s", "world")
        payload = json.loads(stream.getvalue().strip())
        assert payload["logger"] == "repro.unit"
        assert payload["level"] == "INFO"
        assert payload["message"] == "hello world"

    def test_reconfigure_replaces_handler(self):
        s1, s2 = io.StringIO(), io.StringIO()
        obs.configure_logging("INFO", stream=s1)
        obs.configure_logging("INFO", stream=s2)
        obs.get_logger("unit").warning("once")
        assert "once" not in s1.getvalue()
        assert "once" in s2.getvalue()
        root = std_logging.getLogger("repro")
        stream_handlers = [
            h for h in root.handlers if isinstance(h, std_logging.StreamHandler)
            and not isinstance(h, std_logging.NullHandler)
        ]
        assert len(stream_handlers) == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs.configure_logging("NOPE")


# ----------------------------------------------------------------------
# training callbacks
# ----------------------------------------------------------------------
class TestTrainingCallbacks:
    def _data(self, n=48, t=6):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, t, 1))
        y = rng.standard_normal(n)
        return x, y

    def test_one_callback_per_epoch_monotonic(self):
        from repro.nn import LSTMRegressor

        x, y = self._data()
        epochs_seen: list[int] = []

        class Recorder(obs.TrainingCallback):
            def __init__(self):
                self.began = self.ended = 0

            def on_train_begin(self, model, n_epochs):
                self.began += 1

            def on_epoch_end(self, epoch, logs):
                epochs_seen.append(epoch)
                assert logs["train_loss"] >= 0.0
                assert logs["duration_s"] >= 0.0
                assert logs["n_batches"] >= 1

            def on_train_end(self, history):
                self.ended += 1

        rec = Recorder()
        model = LSTMRegressor(hidden_size=4, seed=0)
        history = model.fit(x, y, epochs=5, batch_size=16, callbacks=[rec])
        assert epochs_seen == [0, 1, 2, 3, 4]
        assert len(epochs_seen) == history.epochs_run
        assert rec.began == 1 and rec.ended == 1

    def test_plain_callable_and_early_stop(self):
        from repro.nn import LSTMRegressor

        x, y = self._data(64, 5)
        seen: list[int] = []
        model = LSTMRegressor(hidden_size=4, seed=0)
        history = model.fit(
            x, y, epochs=40, batch_size=32,
            validation=(x[:8], y[:8]), patience=2,
            callbacks=[lambda epoch, logs: seen.append(epoch)],
        )
        assert seen == list(range(history.epochs_run))
        if history.stopped_early:
            assert history.epochs_run < 40

    def test_epoch_events_emitted(self):
        from repro.nn import LSTMRegressor

        sink = obs.add_sink(obs.MemorySink())
        x, y = self._data()
        LSTMRegressor(hidden_size=4, seed=0).fit(x, y, epochs=3, batch_size=16)
        records = sink.by_name("train.epoch")
        assert [r["epoch"] for r in records] == [0, 1, 2]

    def test_telemetry_callback(self):
        from repro.nn import LSTMRegressor

        x, y = self._data()
        cb = obs.TelemetryCallback(prefix="unit.train")
        LSTMRegressor(hidden_size=4, seed=0).fit(
            x, y, epochs=4, batch_size=16, callbacks=[cb]
        )
        snap = obs.get_registry().snapshot()
        assert snap["unit.train.epochs"]["value"] == 4
        assert snap["unit.train.epoch_loss"]["count"] == 4

    def test_bad_callback_rejected(self):
        with pytest.raises(TypeError):
            obs.CallbackList([42])


# ----------------------------------------------------------------------
# BO instrumentation
# ----------------------------------------------------------------------
class TestSearchTelemetry:
    def test_trial_events_and_surrogate_timings(self):
        sink = obs.add_sink(obs.MemorySink())
        space = SearchSpace([IntParam("x", 1, 32)])
        opt = BayesianOptimizer(space, n_initial=2, seed=3)

        opt.run(lambda cfg: float((cfg["x"] - 7) ** 2), n_iters=5)

        trials = sink.by_name("bo.trial")
        assert len(trials) == 5
        assert [t["iteration"] for t in trials] == list(range(5))
        assert all(t["optimizer"] == "bayesian" for t in trials)
        # GP-phase trials carry surrogate + acquisition timings.
        gp_trials = [t for t in trials if "surrogate_fit_s" in t]
        assert gp_trials, "expected at least one GP-suggested trial"
        assert all(t["acq_opt_s"] >= 0.0 for t in gp_trials)
        assert obs.get_registry().snapshot()["bo.trials"]["value"] == 5

    def test_objective_metadata_lands_on_record(self):
        space = SearchSpace([IntParam("x", 1, 32)])
        opt = BayesianOptimizer(space, n_initial=2, seed=3)
        best = opt.run(
            lambda cfg: (float(cfg["x"]), {"note": f"x={cfg['x']}"}), n_iters=3
        )
        assert all("note" in r.metadata for r in opt.history)
        assert best.metadata["note"] == f"x={best.config['x']}"


# ----------------------------------------------------------------------
# end-to-end: LoadDynamics + autoscale trace
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_fit_trace_and_telemetry(self, sine_series, tiny_settings, tmp_path):
        from repro.core import LoadDynamics, search_space_for

        path = str(tmp_path / "fit.jsonl")
        sink = obs.add_sink(obs.JsonlSink(path))
        ld = LoadDynamics(
            space=search_space_for("default", "tiny"), settings=tiny_settings
        )
        predictor, report = ld.fit(sine_series)
        obs.remove_sink(sink, close=True)

        records = list(obs.read_jsonl(path))
        roots = [
            r for r in records
            if r.get("event") == "span" and r.get("span") == "loaddynamics.fit"
        ]
        assert len(roots) == 1
        root = roots[0]
        assert root["parent_id"] is None and root["n_trials"] == report.n_trials
        trials = [r for r in records if r.get("event") == "bo.trial"]
        assert len(trials) == tiny_settings.max_iters
        epochs = [r for r in records if r.get("event") == "train.epoch"]
        assert epochs, "expected per-epoch training events in the trace"

        # Trial metadata explains each outlier: feasible trials carry the
        # training cost, infeasible ones the reason.
        for t in report.trials:
            if t.metadata.get("infeasible"):
                assert "reason" in t.metadata
            else:
                assert t.metadata["train_seconds"] >= 0.0
                assert t.metadata["epochs_run"] >= 1
                assert isinstance(t.metadata["stopped_early"], bool)
        tel = report.telemetry
        assert tel["n_trials"] == report.n_trials
        assert tel["epochs_total"] >= 1
        assert tel["fit_span_seconds"] > 0.0
        assert tel["train_seconds_total"] <= tel["total_seconds"]

    def test_autoscale_step_events(self):
        from repro.autoscale import CloudSimulator

        sink = obs.add_sink(obs.MemorySink())
        arrivals = np.array([3, 0, 5, 2])
        provisioned = np.array([2, 1, 5, 4])
        sim = CloudSimulator(seed=0)
        sim.run(arrivals, provisioned)
        steps = sink.by_name("autoscale.step")
        assert [s["interval"] for s in steps] == [0, 1, 2, 3]
        assert steps[0]["cold_starts"] == 1
        assert steps[1]["arrivals"] == 0 and steps[1]["idle_vms"] == 1
        assert steps[3]["idle_vms"] == 2
        snap = obs.get_registry().snapshot()
        assert snap["autoscale.intervals"]["value"] == 4
