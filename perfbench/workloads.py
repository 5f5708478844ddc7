"""Workloads: seeded input traces and the trace -> model -> schedule cycle.

One *cycle* is the shipped self-optimizing loop end to end, as
``repro simulate``/``repro stream`` run it: fit the LoadDynamics workflow
(windowing, LSTM training, Bayesian optimization) on a trace prefix,
then stream the rest of the trace through the serving stack
(per-chunk sanitizing, guarded LSTM forecast, forecast monitor,
closed-loop controller, checkpoints) and replay the schedule in the
cloud simulator.  The feed is chunked and checkpointed with the
``StreamConfig`` defaults that ``repro stream`` ships.  Workloads differ
in the input properties that decide which layer dominates: job counts
per interval (simulator work), how long the served feed is (forecast
work), and how wide the search is (training and BO work).
"""

from __future__ import annotations

import itertools
import json
import shutil
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# First: it pins numpy to one BLAS thread before numpy loads.
from calibrate import PartClock

import numpy as np

from repro.autoscale.cloudsim import CloudSimulator
from repro.autoscale.controller import HybridController
from repro.bayesopt.space import CategoricalParam, IntParam, SearchSpace
from repro.core import FrameworkSettings, LoadDynamics
from repro.obs import events as _events
from repro.obs.monitor import ForecastMonitor
from repro.serving import (
    GuardedPredictor,
    StreamConfig,
    StreamingServer,
    chunk_stream,
    daily_period,
    default_fallbacks,
)
from repro.traces import get_configuration
from repro.traces.synthetic import lcg_trace, wikipedia_trace

#: Traces per run: cycle ``i`` fits and serves ``pool[i % POOL]``.  Every
#: cycle uses seed 0 for the search, chunking and simulator, so cycles on
#: different traces run the same initial design and the same trials.
POOL = 12

#: Figures of one fixed input per workload, written by
#: ``record_reference.py``; see :func:`reference_problems`.
REFERENCE = Path(__file__).resolve().with_name("reference.json")
#: Seed of that input: ``make_pool(w, REFERENCE_SEED)[0]``.
REFERENCE_SEED = 0
#: Relative tolerance of the reference comparison.
REFERENCE_RTOL = 1e-6
#: Share of reference schedule intervals allowed to differ by one VM.
SCHEDULE_FLIPS = 0.01

#: The deployed model shape: two LSTM layers of 8 cells over 24 steps,
#: trained in batches of 32.  Pinned so that a cycle's cost does not
#: depend on which model the search selects for a given trace.
_SHAPE = [
    IntParam("history_len", 24, 24),
    IntParam("cell_size", 8, 8),
    IntParam("num_layers", 2, 2),
    IntParam("batch_size", 32, 32),
]
#: Refit of the deployed shape: one trained trial plus the BO bookkeeping.
REFIT_SPACE = SearchSpace(_SHAPE)
#: The Section V training choices (loss and optimizer) on the deployed
#: shape: a real GP-guided search whose trials all cost about the same.
SEARCH_SPACE = SearchSpace(_SHAPE + [
    CategoricalParam("loss", ("mse", "mae", "huber")),
    CategoricalParam("optimizer", ("adam", "rmsprop", "sgd")),
])

_GENERATORS = {"lcg": lcg_trace, "wiki": wikipedia_trace}


@dataclass(frozen=True)
class Workload:
    name: str
    #: The Table I configuration served, ``<trace>-<interval>m``.
    config: str
    #: Days of trace generated per input.
    days: int
    fit_len: int
    serve_len: int
    space: SearchSpace
    max_iters: int
    n_initial: int
    epochs: int

    @property
    def interval_minutes(self) -> int:
        return get_configuration(self.config).interval_minutes

    def trace(self, seed: int) -> np.ndarray:
        """The configuration's series, as ``WorkloadConfig.load`` builds it,
        from a fresh draw of its generator with ``seed``."""
        name = get_configuration(self.config).trace_name
        counts = _GENERATORS[name](days=self.days, seed=seed)
        return counts.at_interval(self.interval_minutes)


WORKLOADS: dict[str, Workload] = {
    # LCG at 5 minutes, ~230 jobs per interval: simulating is cheap and
    # the per-interval LSTM forecast dominates a 4-day feed of 18 chunks.
    "stream": Workload(
        name="stream", config="lcg-5m", days=6, fit_len=576, serve_len=1152,
        space=REFIT_SPACE, max_iters=3, n_initial=2, epochs=4,
    ),
    # Wikipedia at 5 minutes, ~860k requests per interval: a GP-guided
    # search, then a 2-chunk feed whose replay is ~3700x the simulator
    # work per interval of "stream".  Its smooth seasonality keeps the
    # job count nearly the same for every input, so a cycle's cost does
    # not depend on the seed; the Google trace's would vary by ~40%.
    "search": Workload(
        name="search", config="wiki-5m", days=3, fit_len=576, serve_len=128,
        space=SEARCH_SPACE, max_iters=6, n_initial=3, epochs=3,
    ),
}


def make_pool(w: Workload, seed: int) -> list[np.ndarray]:
    """The run's input traces, all derived from ``seed``.

    Each trace gets single-interval NaN gaps in its served part (one per
    100 intervals) so the per-chunk sanitizer has repairs to make; the
    fit prefix stays clean.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for trace_seed in rng.integers(0, 2**31 - 1, size=POOL):
        series = np.asarray(w.trace(int(trace_seed)), dtype=np.float64)
        series = series[: w.fit_len + w.serve_len].copy()
        if series.size != w.fit_len + w.serve_len:
            raise ValueError(f"{w.name}: trace too short ({series.size})")
        gaps = rng.choice(
            np.arange(w.fit_len + 1, series.size - 1),
            size=w.serve_len // 100, replace=False,
        )
        series[gaps] = np.nan
        pool.append(series)
    return pool


@dataclass
class Cycle:
    #: Index of the input trace in the run's pool.
    index: int
    #: The fit phase split at each telemetry event the program emits
    #: (``train.epoch`` after every epoch, ``bo.trial`` after every
    #: trial, ``span`` at the end).
    fit: PartClock
    #: Names of those events, in order: which part is an epoch, which a trial.
    fit_events: tuple[str, ...]
    #: The serve phase split at each chunk hand-over: set-up until the
    #: first chunk, the server's time on each chunk, then the final
    #: checkpoint, simulator replay and report.
    serve: PartClock
    fit_report: object
    report: object
    predictor: object
    problems: list[str]


def _marked(chunks, clock: PartClock):
    """Yield ``chunks``, ending a part at each request for the next."""
    for chunk in chunks:
        clock.lap()
        yield chunk
    clock.lap()


def _phase(ledger, name: str):
    return ledger.span(name) if ledger is not None else nullcontext()


def serve(w: Workload, predictor, series: np.ndarray, ckpt_dir: Path,
          clock: PartClock | None = None, *, resume: bool = False,
          n_chunks: int | None = None):
    """Stream ``series[fit_len:]``, or its first ``n_chunks`` chunks,
    through the serving stack."""
    cfg = StreamConfig(checkpoint_dir=str(ckpt_dir), resume=resume)
    server = StreamingServer(
        GuardedPredictor(
            predictor,
            fallbacks=default_fallbacks(daily_period(w.interval_minutes)),
        ),
        series[: w.fit_len],
        config=cfg,
        monitor=ForecastMonitor(),
        controller=HybridController(),
    )
    chunks = itertools.islice(
        chunk_stream(series[w.fit_len:], config=cfg), n_chunks
    )
    return server.run(_marked(chunks, clock) if clock else chunks)


def cycle(w: Workload, pool: list[np.ndarray], index: int, workdir: Path,
          ledger=None) -> Cycle:
    """Fit on the prefix of ``pool[index]``, then serve and simulate the rest."""
    series = pool[index]
    settings = FrameworkSettings(
        max_iters=w.max_iters, n_initial=w.n_initial, epochs=w.epochs,
        patience=w.epochs, min_train_windows=4,
    )
    fit_clock = PartClock("fit", ledger)
    fit_events: list[str] = []

    def mark(record: dict) -> None:
        fit_clock.lap()
        fit_events.append(record["event"])

    sink = _events.add_sink(_events.CallbackSink(mark))
    try:
        fit_clock.start()
        with _phase(ledger, "fit"):
            predictor, fit_report = LoadDynamics(
                space=w.space, settings=settings
            ).fit(series[: w.fit_len])
    finally:
        _events.remove_sink(sink)
    fit_clock.lap()

    if ledger is not None:
        ledger.watch_model(predictor.model)
    ckpt_dir = workdir / "ckpt"
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    serve_clock = PartClock("serve", ledger)
    serve_clock.start()
    with _phase(ledger, "serve"):
        report = serve(w, predictor, series, ckpt_dir, serve_clock)
    serve_clock.lap()
    return Cycle(
        index, fit_clock, tuple(fit_events), serve_clock, fit_report,
        report, predictor, check(w, fit_report, report),
    )


def check(w: Workload, fit_report, report) -> list[str]:
    """Output invariants of one cycle; an empty list means correct."""
    problems = []
    if fit_report.degraded:
        problems.append(f"fit degraded: {fit_report.degraded_reason}")
    if fit_report.n_trials != w.max_iters:
        problems.append(f"{fit_report.n_trials} trials, expected {w.max_iters}")
    if not np.isfinite(fit_report.best_validation_mape):
        problems.append("non-finite validation MAPE")
    sched = report.schedule
    if sched.shape != (w.serve_len,):
        problems.append(f"schedule shape {sched.shape}")
    elif not (np.all(np.isfinite(sched)) and np.all(sched >= 0)):
        problems.append("schedule not finite and non-negative")
    if report.result.n_intervals != w.serve_len:
        problems.append(f"simulated {report.result.n_intervals} intervals")
    s = report.stream
    accounted = s["served_intervals"] + s["held_intervals"] + s["quarantined_intervals"]
    if s["intervals"] != w.serve_len or accounted != w.serve_len:
        problems.append(f"stream accounting {s['intervals']}/{accounted}")
    # The guard answers a failing or non-finite model from its fallbacks
    # and still yields a valid schedule, so every served interval must be
    # the model's (a clamped forecast still counts as the model's).
    if (report.served_by.get("primary", 0) != s["served_intervals"]
            or report.breaker_transitions):
        problems.append(
            f"model served {report.served_by} of {s['served_intervals']} "
            f"intervals, {len(report.breaker_transitions)} breaker transitions"
        )
    if s["repaired_values"] < w.serve_len // 100:
        problems.append(f"only {s['repaired_values']} NaN gaps repaired")
    if s["checkpoints_written"] < 1:
        problems.append("no checkpoint written")
    return problems


def replay_matches(w: Workload, first: Cycle, pool: list[np.ndarray],
                   workdir: Path) -> list[str]:
    """Determinism and resume: repeat cycle 0 and compare bit for bit.

    A second fit on the same trace must select the same model and a
    second serve must emit the same schedule.  A serve stopped after
    half its chunks and resumed from its checkpoint over the whole feed
    must reproduce that schedule and the same per-stage serve counts.
    """
    again = cycle(w, pool, first.index, workdir)
    problems = list(again.problems)
    if again.fit_report.best_hyperparameters != first.fit_report.best_hyperparameters:
        problems.append("refit selected a different model")
    if again.report.schedule.tobytes() != first.report.schedule.tobytes():
        problems.append("re-served schedule differs")
    ckpt = workdir / "resume"
    shutil.rmtree(ckpt, ignore_errors=True)
    half = again.report.stream["chunks"] // 2
    serve(w, again.predictor, pool[first.index], ckpt, n_chunks=half)
    resumed = serve(w, again.predictor, pool[first.index], ckpt, resume=True)
    if resumed.schedule.tobytes() != again.report.schedule.tobytes():
        problems.append(f"schedule resumed after {half} chunks differs")
    if resumed.served_by != again.report.served_by:
        problems.append(f"resumed serve counts {resumed.served_by} differ")
    return problems


def _outcome(result) -> list[float]:
    """Simulated totals: paid VM seconds, summed mean turnaround, cold
    starts and idle VMs."""
    return [
        float(result.vm_seconds),
        float(result.turnaround_seconds.sum()),
        float(result.under_provisioned.sum()),
        float(result.over_provisioned.sum()),
    ]


def figures(cy: Cycle) -> dict:
    """What the reference pins down: the selected model and the
    validation error of every trial, the served actuals and schedule,
    and the simulated outcome of that schedule."""
    return {
        "hyperparameters": cy.fit_report.best_hyperparameters.as_dict(),
        "trial_mapes": cy.fit_report.trial_values().tolist(),
        "arrivals": cy.report.result.arrivals.tolist(),
        "schedule": cy.report.schedule.tolist(),
        "outcome": _outcome(cy.report.result),
    }


def reference_cycle(w: Workload, workdir: Path) -> Cycle:
    return cycle(w, make_pool(w, REFERENCE_SEED), 0, workdir)


def reference_problems(w: Workload, workdir: Path) -> list[str]:
    """Compare the fixed input's figures with the committed reference.

    Every other check compares the program with itself; this one catches
    a change that is deterministic but wrong.  Trial errors and actuals
    are compared within ``REFERENCE_RTOL``, so a change that reorders
    floating-point sums passes.  The schedule is whole VMs, and such a
    change can move a forecast across a rounding boundary, so it may
    differ by one VM in at most ``SCHEDULE_FLIPS`` of its intervals.
    The simulator is therefore checked on its own: replaying the
    reference schedule must give the reference outcome.
    """
    want = json.loads(REFERENCE.read_text())[w.name]
    cy = reference_cycle(w, workdir)
    got = figures(cy)
    got["outcome"] = _outcome(
        CloudSimulator().run(np.array(want["arrivals"]),
                             np.array(want["schedule"]))
    )
    problems = list(cy.problems)
    for key, expected in want.items():
        value = got[key]
        if isinstance(expected, dict):
            same = value == expected
        elif key == "schedule":
            off = np.abs(np.subtract(value, expected)) if (
                len(value) == len(expected)) else np.array([np.inf])
            same = off.max() <= 1 and (
                np.count_nonzero(off) <= SCHEDULE_FLIPS * len(expected))
        else:
            same = len(value) == len(expected) and np.allclose(
                value, expected, rtol=REFERENCE_RTOL, atol=0.0
            )
        if not same:
            problems.append(f"reference {key} differs")
    return problems
