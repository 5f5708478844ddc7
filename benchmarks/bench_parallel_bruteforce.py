"""Extension bench — parallel brute-force search scaling.

The paper's brute-force baseline ran for up to six weeks on a 16-core
Xeon; the work is embarrassingly parallel over hyperparameter
combinations.  This bench verifies the parallel sweep (a) selects the
same winner as the serial sweep on every run (determinism across worker
counts) and (b) reports the wall-clock of both over alternating runs, as
medians and quartiles, so a scaling regression shows above the noise.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import FrameworkSettings, search_space_for
from repro.core.bruteforce import brute_force_search
from repro.traces import get_configuration

#: Timed sweeps per worker count; serial and parallel alternate which
#: runs first, so drift in the host's speed falls on both.
ROUNDS = 5


def test_parallel_bruteforce_consistency(benchmark):
    series = get_configuration("fb-10m").load()
    space = search_space_for("fb", "tiny")
    settings = FrameworkSettings.tiny(epochs=10)
    workers = min(os.cpu_count() or 1, 4)

    def sweep(n_workers):
        t0 = time.perf_counter()
        result = brute_force_search(series, space, settings, n_workers=n_workers,
                                    points_per_dim=2, max_trials=12)
        return result, (time.perf_counter() - t0) * 1e3

    times = {1: [], workers: []}
    winners = []

    def alternating():
        for k in range(ROUNDS):
            for n_workers in ((1, workers) if k % 2 == 0 else (workers, 1)):
                result, ms = sweep(n_workers)
                times[n_workers].append(ms)
                assert np.isfinite(result.best_validation_mape)
                winners.append((n_workers, result.best_hyperparameters,
                                result.best_validation_mape))
        return result

    result = benchmark.pedantic(alternating, rounds=1, iterations=1)
    for winner in winners:
        assert winner[1:] == winners[0][1:], winners

    def summary(ms):
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        return f"{med:.0f} ms [{q1:.0f}, {q3:.0f}]"

    print(
        f"\n[brute force] {result.n_evaluated} trials, median [quartiles] of "
        f"{ROUNDS} alternating runs: serial {summary(times[1])}, "
        f"{workers}-worker {summary(times[workers])}"
    )
