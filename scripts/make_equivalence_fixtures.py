#!/usr/bin/env python
"""Record the default-path (LSTM) behaviour of a seeded LoadDynamics fit.

The model-family refactor must keep ``family="lstm"`` — the default —
bit-for-bit identical to the monolithic pre-refactor framework: same
suggested configs, same objective values, same journal records.  This
script runs one seeded tiny fit through the *public* API and freezes:

* ``tests/data/equivalence_lstm.json`` — per-trial configs/values plus
  the selected hyperparameters (deterministic metadata only; wall-clock
  keys are excluded), under a ``provenance`` block naming the numpy,
  scipy, bit generator and BLAS/LAPACK builds used;
* ``tests/data/prerefactor_journal_full.jsonl`` — the trial journal the
  run wrote;
* ``tests/data/prerefactor_journal_partial.jsonl`` — the same journal
  truncated after 3 trials, simulating a crash mid-run (the resume
  regression test continues it and must reproduce the full run).

It only uses the stable public surface, so re-running it under any
refactor that claims default-path equivalence must reproduce the
committed fixtures byte-for-byte (modulo the header timestamp,
wall-clock metadata and the provenance block).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import FrameworkSettings, LoadDynamics, search_space_for  # noqa: E402
from repro.obs.logging import get_logger  # noqa: E402

logger = get_logger("scripts.fixtures")

#: Trial-metadata keys that are deterministic for a fixed seed (wall
#: clock timings and GP diagnostics are not).
DETERMINISTIC_META = (
    "epochs_run",
    "stopped_early",
    "best_epoch",
    "n_train_windows",
    "attempts",
    "infeasible",
    "reason",
)

MAX_ITERS = 6
PARTIAL_TRIALS = 3


def fixture_series() -> np.ndarray:
    """The conftest ``sine_series``: seeded sinusoid + noise, length 240."""
    t = np.arange(240)
    rng = np.random.default_rng(7)
    return 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0, 2.0, 240)


def trial_snapshot(trial) -> dict:
    meta = {k: trial.metadata[k] for k in DETERMINISTIC_META if k in trial.metadata}
    return {
        "iteration": trial.iteration,
        "config": dict(trial.config),
        "value": trial.value,
        "metadata": meta,
    }


def main() -> int:
    # scripts/ is sys.path[0] when this file runs as a script.
    from make_bo_fixture import environment

    data_dir = Path(__file__).resolve().parent.parent / "tests" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    journal_path = data_dir / "prerefactor_journal_full.jsonl"

    ld = LoadDynamics(
        space=search_space_for("default", "tiny"),
        settings=FrameworkSettings.tiny(max_iters=MAX_ITERS),
    )
    predictor, report = ld.fit(fixture_series(), journal=journal_path)

    fixture = {
        "provenance": {
            "recorded_by": "scripts/make_equivalence_fixtures.py",
            **environment(),
        },
        "max_iters": MAX_ITERS,
        "partial_trials": PARTIAL_TRIALS,
        "best_hyperparameters": report.best_hyperparameters.as_dict(),
        "best_validation_mape": report.best_validation_mape,
        "trials": [trial_snapshot(t) for t in report.trials],
    }
    (data_dir / "equivalence_lstm.json").write_text(
        json.dumps(fixture, indent=2) + "\n"
    )

    # Truncate the journal after PARTIAL_TRIALS completed trials — the
    # shape a SIGKILL at trial 4 leaves behind.
    lines = journal_path.read_text().splitlines(keepends=True)
    (data_dir / "prerefactor_journal_partial.jsonl").write_text(
        "".join(lines[: 1 + PARTIAL_TRIALS])
    )

    logger.info(
        "fixtures written to %s (%d trials, best MAPE %.4f%%)",
        data_dir, report.n_trials, report.best_validation_mape,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
