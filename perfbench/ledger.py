"""Per-layer time ledger recorded from outside the program.

The benchmark must not change the code it measures, so the ledger wraps
the layer entry points (class methods, one module function, and the
recurrent layers of the served model) for the duration of a traced run
and restores them afterwards.  Every wrapped call is a span; spans nest
on a stack, so each layer's *self* time excludes the layers it calls and
the self times of one phase sum exactly to that phase's wall time.

Spans are aggregated in memory per ``<phase>.<layer>`` key (self
seconds and call count) rather than stored one by one: a run serves
tens of thousands of intervals and the per-span detail is not needed to
answer "where did the time go".
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Ledger:
    """Aggregated span ledger with phase tagging."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.phase: str | None = None
        # One child-time accumulator per open span.
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    def _timed(self, fn, labels: dict[str, str]):
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = labels.get(self.phase)
            if label is None:
                # Not measured in this phase: the time stays with the caller.
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                key = f"{self.phase}.{label}"
                self.self_s[key] += dt - frame[0]
                self.calls[key] += 1
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def patch(self, owner, name: str, labels: dict[str, str]) -> None:
        """Time ``owner.name`` (a class, module, or instance attribute).

        ``labels`` maps each phase the call is measured in to its layer
        label; in any other phase the call passes through untimed.
        """
        had_own = name in vars(owner)
        original = vars(owner)[name] if had_own else getattr(owner, name)
        self._restore.append((owner, name, original, had_own))
        setattr(owner, name, self._timed(getattr(owner, name), labels))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, name, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    @contextmanager
    def span(self, phase: str):
        """Root span of one phase; its self time is the phase's ``other``."""
        if self._stack:
            raise RuntimeError("phase spans must not nest")
        self.phase = phase
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[f"{phase}.other"] += dt - frame[0]
            self.calls[f"{phase}.other"] += 1
            self.phase = None

    @contextmanager
    def excluded(self):
        """Benchmark work inside a span: charged to no layer, and not to
        the enclosing span's self time either."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt

    def install(self) -> None:
        """Wrap the layer entry points the per-layer metrics are named after."""
        from repro.autoscale.cloudsim import CloudSimulator
        from repro.autoscale.controller import HybridController
        from repro.bayesopt.optimizer import BayesianOptimizer
        from repro.core import framework
        from repro.core.cache import WindowCache
        from repro.core.evaluation import TrialEvaluator
        from repro.core.predictor import LoadDynamicsPredictor
        from repro.core.scaling import MinMaxScaler
        from repro.gp.gp import GaussianProcessRegressor
        from repro.nn.network import LSTMRegressor
        from repro.obs.monitor.monitor import ForecastMonitor
        from repro.serving.guard import GuardedPredictor
        from repro.serving.sanitize import TraceSanitizer
        from repro.serving.stream import StreamingServer

        for owner, name, labels in (
            # trace -> selected model
            (framework, "prepare_data", {"fit": "prepare"}),
            (WindowCache, "get", {"fit": "window"}),
            (TrialEvaluator, "evaluate", {"fit": "trial"}),
            (LSTMRegressor, "fit", {"fit": "train"}),
            (LSTMRegressor, "predict", {"fit": "validate", "serve": "model"}),
            (BayesianOptimizer, "suggest", {"fit": "suggest"}),
            (BayesianOptimizer, "tell", {"fit": "tell"}),
            (GaussianProcessRegressor, "fit", {"fit": "gp"}),
            (GaussianProcessRegressor, "predict", {"fit": "gp"}),
            (GaussianProcessRegressor, "update", {"fit": "gp"}),
            # trace -> simulated schedule
            (TraceSanitizer, "sanitize", {"serve": "sanitize"}),
            (GuardedPredictor, "predict_next", {"serve": "guard"}),
            (LoadDynamicsPredictor, "predict_next", {"serve": "predictor"}),
            (MinMaxScaler, "transform", {"serve": "scale"}),
            (MinMaxScaler, "inverse_transform", {"serve": "scale"}),
            (ForecastMonitor, "observe", {"serve": "monitor"}),
            (HybridController, "step", {"serve": "controller"}),
            (StreamingServer, "_checkpoint", {"serve": "checkpoint"}),
            (CloudSimulator, "run", {"serve": "simulate"}),
        ):
            self.patch(owner, name, labels)

    def watch_model(self, model) -> None:
        """Time each recurrent layer and the dense head of the served model."""
        for i, layer in enumerate(model.lstm_layers):
            self.patch(layer, "forward_inference", {"serve": f"lstm_l{i}"})
        self.patch(model.head, "forward", {"serve": "head"})
