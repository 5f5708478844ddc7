"""End-to-end and per-layer benchmark of the LoadDynamics pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Each run sets up its workload several times (inputs from ``--seed`` plus
one untimed warm-up cycle) and reports the median set-up time, then
repeats the trace -> model -> schedule cycle (see ``workloads.py``) for
``--seconds``.  ``--trace 0`` reports the end-to-end metrics with no
instrumentation; ``--trace 1`` wraps every layer entry point and
reports each layer's self time per cycle instead.  Every time is scaled
to a reference host speed measured beside it (see ``calibrate.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted`` (cycles run), ``failed`` (cycles whose outputs broke an
invariant) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_MS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Per-layer self time per cycle, in ms: ``<phase>.<layer>``.
LAYERS = (
    "fit.prepare", "fit.window", "fit.trial", "fit.train", "fit.validate",
    "fit.suggest", "fit.tell", "fit.gp", "fit.other",
    "serve.sanitize", "serve.guard", "serve.predictor", "serve.scale",
    "serve.model", "serve.lstm_l0", "serve.lstm_l1", "serve.head",
    "serve.monitor", "serve.controller", "serve.checkpoint",
    "serve.simulate", "serve.other",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def assembled(runs: list[list[float]]) -> float:
    """Duration of one phase in kernel units, estimated part by part.

    ``runs`` holds each part's ratio to its kernel samples (see
    ``calibrate.PartClock``) in repeated runs of one phase that did the
    same steps in the same order.  A ratio does not depend on the host's
    speed, so each part is the median of its ratios; a ratio is off only
    when the host changed speed between a part and its kernel samples.
    """
    n_parts = {len(r) for r in runs}
    if len(n_parts) != 1:
        raise RuntimeError(f"repeats split into {sorted(n_parts)} parts")
    return sum(
        statistics.median(r[j] for r in runs) for j in range(len(runs[0]))
    )


def end_to_end(cycles, setup_s: list[float]) -> dict:
    fit_ms, serve_ms = REFERENCE_MS["fit"], REFERENCE_MS["serve"]
    # Fits that emitted the same event sequence ran the same epochs and
    # trials, so their parts are pooled; each input's fit is estimated
    # from its pool and the figure is the mean over inputs.  The served
    # feed is chunked identically for every input.
    pooled = {
        key: assembled([c.fit.ratios() for c in cycles if c.fit_events == key])
        for key in {c.fit_events for c in cycles}
    }
    fit = fit_ms * statistics.fmean(
        pooled[next(c.fit_events for c in cycles if c.index == k)]
        for k in sorted({c.index for c in cycles})
    )
    serve = serve_ms * assembled([c.serve.ratios() for c in cycles])
    # Each chunk position is estimated across cycles, so a chunk that
    # does more work than the others keeps its weight in the mean.
    n_chunks = len(cycles[0].serve.parts) - 2
    chunk = serve_ms * assembled(
        [c.serve.ratios()[1:-1] for c in cycles]
    ) / n_chunks
    return {
        "fit_ms": (fit, "ms"),
        "serve_intervals_per_s": (
            1e3 * cycles[0].report.result.n_intervals / serve, "1/s"
        ),
        "chunk_ms": (chunk, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def speed(cycles, kind: str) -> float:
    """Factor that scales a time of ``kind`` measured in this run to the
    reference host: reference over median kernel time."""
    samples = [k for c in cycles for k in getattr(c, kind).kernels]
    return REFERENCE_MS[kind] / (1e3 * statistics.median(samples))


def per_layer(cycles, led) -> dict:
    n = len(cycles)
    scale = {kind: 1e3 * speed(cycles, kind) / n for kind in REFERENCE_MS}
    out = {
        f"{key}_ms": (
            scale[key.split(".")[0]] * led.self_s.get(key, 0.0), "ms"
        )
        for key in LAYERS
    }
    out["traced_cycle_ms"] = (
        sum(
            scale["fit"] * sum(c.fit.parts) + scale["serve"] * sum(c.serve.parts)
            for c in cycles
        ),
        "ms",
    )
    streams = [c.report.stream for c in cycles]
    out.update({
        "fit.trials": (sum(c.fit_report.n_trials for c in cycles) / n, "count"),
        "fit.trained": (led.calls.get("fit.train", 0) / n, "count"),
        "fit.gp_calls": (led.calls.get("fit.gp", 0) / n, "count"),
        "serve.intervals": (sum(s["intervals"] for s in streams) / n, "count"),
        "serve.chunks": (sum(s["chunks"] for s in streams) / n, "count"),
        "serve.forecasts": (led.calls.get("serve.predictor", 0) / n, "count"),
        "serve.repaired": (sum(s["repaired_values"] for s in streams) / n, "count"),
        "serve.checkpoints": (
            sum(s["checkpoints_written"] for s in streams) / n, "count"
        ),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from ledger import Ledger

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    perf = time.perf_counter
    WORKDIR.mkdir(exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            # A set-up is one stretch of a few seconds, scaled by the
            # mean host speed its warm-up cycle's kernels measured.
            t0 = perf()
            pool = workloads.make_pool(w, args.seed)
            cy = workloads.cycle(w, pool, 0, WORKDIR)
            took = perf() - t0 - cy.fit.kernel_s() - cy.serve.kernel_s()
            setup_s.append(took * statistics.fmean(
                speed([cy], kind) for kind in REFERENCE_MS
            ))

        led = None
        if args.trace:
            led = Ledger()
            led.install()
        cycles = []
        failed = 0
        deadline = perf() + args.seconds
        try:
            # Every input of the pool is served at least once.
            while len(cycles) < workloads.POOL or perf() < deadline:
                i = len(cycles)
                cy = workloads.cycle(
                    w, pool, i % workloads.POOL, WORKDIR, ledger=led
                )
                for problem in cy.problems:
                    print(f"cycle {i}: {problem}", file=sys.stderr)
                failed += bool(cy.problems)
                cycles.append(cy)
        finally:
            if led is not None:
                led.unpatch()
        replay = workloads.replay_matches(w, cycles[0], pool, WORKDIR)
        replay += workloads.reference_problems(w, WORKDIR)
        for problem in replay:
            print(f"replay: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    metrics = per_layer(cycles, led) if args.trace else end_to_end(cycles, setup_s)
    print(f"workload {w.name}: {len(cycles)} cycles, seed {args.seed}, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not replay,
        "attempted": len(cycles),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
