"""Deterministic fault injection for exercising recovery paths.

On real clusters BO trials die in predictable ways — a diverging LSTM
training, a singular GP kernel matrix, a trial that blows its time
budget, the whole process SIGKILLed between trials.  None of those can
be provoked reliably by feeding adversarial data, so the recovery code
in :mod:`repro.core.framework` and :mod:`repro.bayesopt` would otherwise
ship untested.  The :class:`FaultInjector` plants each failure class at
a deterministic *site invocation count*, which makes the CI smoke stage
(``scripts/fault_smoke.py``) and ``tests/test_resilience.py`` exactly
reproducible.

Fault kinds
-----------

``nan_loss``
    Corrupt the training loss of one epoch to NaN inside
    :meth:`repro.nn.network.LSTMRegressor.fit` (spec arg = epoch index,
    default 0) — exercises the non-finite-loss divergence guard.
``linalg``
    Raise :class:`numpy.linalg.LinAlgError` at the site — exercises the
    surrogate-failure fallback when planted at ``gp.fit``.
``slow``
    Sleep ``arg`` seconds (default 0.05) at the site — exercises the
    per-trial wall-clock deadline.
``kill``
    Raise :class:`SimulatedCrash`, a ``BaseException`` that no recovery
    path is allowed to swallow — emulates a SIGKILL for
    checkpoint/resume tests.
``nan``
    Non-raising, returned to the caller, which corrupts the value it
    owns to NaN — planted at ``serve.predict`` it turns a model's
    forecast non-finite, exercising the
    :class:`~repro.serving.guard.GuardedPredictor` fallback chain.
``boom``
    Raise ``RuntimeError`` at the site — a generic serving-time crash
    (a predict blowing up at ``serve.predict``, a drift refit dying at
    ``adaptive.refit``).
``corrupt``
    Raise ``OSError`` at the site — emulates unreadable/corrupted model
    files when planted at ``model.load``.
``drift``
    Non-raising, returned to the caller, which applies a deterministic
    level shift to the value it owns — planted at ``serve.predict`` the
    :class:`~repro.serving.guard.GuardedPredictor` scales every primary
    forecast by ``arg`` (default 2.0) from the firing invocation
    *onward* (a drift, once it happens, persists), emulating the served
    trace jumping to a regime the model has not learned.  This is how
    the drift detectors in :mod:`repro.obs.monitor` are exercised under
    ``REPRO_FAULTS``.
``spike``
    Non-raising, returned to the caller, which owns the loaded trace —
    planted at ``trace.load`` the loader injects a deterministic flash
    crowd (:func:`repro.traces.inject_flash_crowd`) scaled by ``arg``
    (default 3.0) into the loaded counts, emulating a demand surge the
    recorded trace never saw.
``stall``
    Non-raising, returned to the caller, which owns the arrival clock —
    planted at ``stream.chunk`` the chunk source delays that chunk's
    arrival by ``arg`` seconds (default 30.0), emulating a stalled
    metrics feed; the :class:`~repro.serving.stream.StreamingServer`
    stall watchdog must degrade to hold-last provisioning and recover
    when the feed resumes.
``drop``
    Non-raising, returned to the caller, which owns the chunk stream —
    planted at ``stream.chunk`` the source silently loses that chunk (a
    scraper restart eating a scrape window); the server detects the
    offset gap and serves the missing intervals in degraded mode.

Spec grammar (``REPRO_FAULTS`` env var or :meth:`FaultInjector.parse`)::

    kind@site:at[=arg][,kind@site:at[=arg]...]

where ``site`` is one of ``nn.fit``, ``gp.fit``, ``objective``,
``serve.predict``, ``adaptive.refit``, ``model.load``, ``trace.load``,
``stream.chunk`` and ``at`` is the 1-based invocation index at that
site (``*`` = every invocation).
Example: ``kill@objective:4,linalg@gp.fit:*``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.obs.logging import get_logger

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultSpec",
    "FaultInjector",
    "SimulatedCrash",
    "active",
    "set_injector",
    "clear_injector",
    "injected",
]

logger = get_logger("resilience.faults")

#: Environment variable holding a fault spec list (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

FAULT_KINDS = (
    "nan_loss", "linalg", "slow", "kill", "nan", "boom", "corrupt", "drift",
    "spike", "stall", "drop",
)

#: Known injection sites (informational; unknown sites simply never fire).
#: The serving-time sites arrived with repro.serving; ``trace.load``
#: with the autoscale scenario harness; ``stream.chunk`` with the
#: streaming serving runtime.
FAULT_SITES = (
    "nn.fit",
    "gp.fit",
    "objective",
    "serve.predict",
    "adaptive.refit",
    "model.load",
    "trace.load",
    "stream.chunk",
)


class SimulatedCrash(BaseException):
    """Stand-in for a process kill (SIGKILL) between or inside trials.

    Derives from ``BaseException`` so that no ``except Exception``
    recovery path can accidentally absorb it — exactly like the real
    thing, the only defense is the on-disk trial journal.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planted fault: ``kind`` fires at invocation ``at`` of ``site``."""

    kind: str
    site: str
    at: int | None  # 1-based invocation index; None = every invocation
    arg: float | None = None

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        spec = text.strip()
        arg: float | None = None
        if "=" in spec:
            spec, arg_text = spec.rsplit("=", 1)
            try:
                arg = float(arg_text)
            except ValueError as exc:
                raise ValueError(f"bad fault arg in {text!r}") from exc
        if "@" not in spec or ":" not in spec:
            raise ValueError(
                f"bad fault spec {text!r}; expected kind@site:at[=arg]"
            )
        kind, rest = spec.split("@", 1)
        site, at_text = rest.rsplit(":", 1)
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        if at_text == "*":
            at: int | None = None
        else:
            try:
                at = int(at_text)
            except ValueError as exc:
                raise ValueError(f"bad invocation index in {text!r}") from exc
            if at < 1:
                raise ValueError(f"invocation index must be >= 1 in {text!r}")
        return cls(kind=kind, site=site, at=at, arg=arg)

    def fires_at(self, count: int) -> bool:
        return self.at is None or self.at == count


class FaultInjector:
    """Fires planted :class:`FaultSpec` faults at instrumented call sites.

    Each instrumented function calls :meth:`maybe_fire` once per
    invocation; the injector counts invocations per site and applies the
    matching specs.  ``slow`` sleeps, ``linalg``/``kill`` raise;
    ``nan_loss`` is returned to the caller, which owns the loss value to
    corrupt.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = ()):
        self.specs = tuple(specs)
        self._counts: dict[str, int] = {}
        self.fired_log: list[tuple[str, int, str]] = []

    @classmethod
    def parse(cls, text: str) -> "FaultInjector":
        specs = [FaultSpec.parse(part) for part in text.split(",") if part.strip()]
        return cls(specs)

    def reset(self) -> None:
        """Zero the per-site invocation counters (not the fired log)."""
        self._counts.clear()

    def count(self, site: str) -> int:
        return self._counts.get(site, 0)

    def maybe_fire(self, site: str) -> dict[str, FaultSpec]:
        """Record one invocation of ``site`` and apply any due faults.

        Returns the fired specs keyed by kind so callers can implement
        non-raising kinds (``nan_loss``); raising kinds never return.
        """
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        fired = {s.kind: s for s in self.specs if s.site == site and s.fires_at(count)}
        if not fired:
            return fired
        for kind in fired:
            self.fired_log.append((site, count, kind))
            logger.warning("injecting fault %s at %s invocation %d", kind, site, count)
        if "slow" in fired:
            time.sleep(fired["slow"].arg if fired["slow"].arg is not None else 0.05)
        if "linalg" in fired:
            raise np.linalg.LinAlgError(
                f"injected LinAlgError at {site} invocation {count}"
            )
        if "boom" in fired:
            raise RuntimeError(
                f"injected serving crash at {site} invocation {count}"
            )
        if "corrupt" in fired:
            raise OSError(
                f"injected model-file corruption at {site} invocation {count}"
            )
        if "kill" in fired:
            raise SimulatedCrash(f"injected crash at {site} invocation {count}")
        return fired


# ----------------------------------------------------------------------
# the process-wide active injector
# ----------------------------------------------------------------------
_active: FaultInjector | None = None
#: Caches the injector built from the env var, keyed by the spec string,
#: so invocation counters persist across call sites within one process.
_env_cache: tuple[str, FaultInjector] | None = None


def set_injector(injector: FaultInjector | None) -> None:
    """Install ``injector`` as the process-wide active injector."""
    global _active
    _active = injector


def clear_injector() -> None:
    global _active, _env_cache
    _active = None
    _env_cache = None


def active() -> FaultInjector | None:
    """The active injector: explicitly installed, else built from the env.

    Returns ``None`` (the common case) when no faults are planted;
    instrumented sites must guard with ``if inj is not None``.
    """
    global _env_cache
    if _active is not None:
        return _active
    text = os.environ.get(FAULTS_ENV, "").strip()
    if not text:
        _env_cache = None
        return None
    if _env_cache is None or _env_cache[0] != text:
        _env_cache = (text, FaultInjector.parse(text))
    return _env_cache[1]


@contextmanager
def injected(spec_text: str):
    """Context manager installing a parsed injector for the block."""
    injector = FaultInjector.parse(spec_text)
    prev = _active
    set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(prev)
