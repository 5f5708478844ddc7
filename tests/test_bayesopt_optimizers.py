"""Tests for BayesianOptimizer, RandomSearch and GridSearch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesopt import (
    BayesianOptimizer,
    FloatParam,
    GridSearch,
    IntParam,
    RandomSearch,
    SearchSpace,
)
from repro.core.config import search_space_for
from repro.obs import metrics as _metrics


@pytest.fixture
def space():
    return SearchSpace(
        [FloatParam("x", -3.0, 3.0), FloatParam("y", -3.0, 3.0), IntParam("k", 1, 6)]
    )


def bowl(cfg):
    """Minimum 0 at (1, -1, k=2)."""
    return (cfg["x"] - 1.0) ** 2 + (cfg["y"] + 1.0) ** 2 + 0.25 * (cfg["k"] - 2) ** 2


class TestBayesianOptimizer:
    def test_finds_good_minimum(self, space):
        bo = BayesianOptimizer(space, n_initial=5, seed=0)
        rec = bo.run(bowl, 30)
        assert rec.value < 0.5

    def test_beats_random_on_average_budget(self, space):
        bo = BayesianOptimizer(space, n_initial=5, seed=2).run(bowl, 25)
        rs = RandomSearch(space, seed=2).run(bowl, 25)
        # BO should be at least competitive; allow slack for stochasticity.
        assert bo.value <= rs.value * 1.5 + 0.2

    def test_ask_tell_interface(self, space):
        bo = BayesianOptimizer(space, n_initial=2, seed=1)
        for _ in range(6):
            cfg = bo.suggest()
            space.validate(cfg)
            bo.tell(cfg, bowl(cfg))
        assert bo.n_trials == 6
        assert bo.best_value == min(t.value for t in bo.history)

    def test_infinite_objective_penalized(self, space):
        bo = BayesianOptimizer(space, n_initial=2, seed=1)
        cfg = bo.suggest()
        rec = bo.tell(cfg, float("nan"))
        assert rec.value == pytest.approx(1e6)
        # Must keep working after poisoned trials.
        bo.run(bowl, 5)

    def test_history_records_iterations(self, space):
        bo = BayesianOptimizer(space, n_initial=2, seed=0)
        bo.run(bowl, 5)
        assert [t.iteration for t in bo.history] == list(range(5))

    def test_no_duplicate_configs_with_gp(self, space):
        bo = BayesianOptimizer(space, n_initial=3, seed=0)
        bo.run(bowl, 15)
        seen = [tuple(sorted(t.config.items())) for t in bo.history]
        assert len(set(seen)) == len(seen)

    def test_best_before_any_trial_raises(self, space):
        with pytest.raises(RuntimeError):
            BayesianOptimizer(space).best_config

    def test_invalid_acquisition(self, space):
        with pytest.raises(ValueError):
            BayesianOptimizer(space, acquisition="thompson")

    def test_all_acquisitions_run(self, space):
        for acq in ("ei", "pi", "lcb"):
            bo = BayesianOptimizer(space, n_initial=2, acquisition=acq, seed=0)
            bo.run(bowl, 6)
            assert bo.n_trials == 6

    def test_deterministic_given_seed(self, space):
        def run():
            return BayesianOptimizer(space, n_initial=3, seed=9).run(bowl, 10).value

        assert run() == run()


def _paper_objective(space):
    def fn(config: dict) -> float:
        u = space.to_unit(config)
        return float(np.sum((u - 0.42) ** 2) + 0.03 * np.sum(np.cos(7.0 * u)))

    return fn


class TestPaperSpaceSearch:
    """The GP-backed suggestion path on the paper's Table III space."""

    @pytest.fixture
    def paper_space(self):
        return search_space_for("default", "paper")

    def test_polish_emits_candidate_gauge(self, paper_space):
        gauge = _metrics.gauge("bo.acquisition.candidates")
        gauge.set(0.0)
        BayesianOptimizer(paper_space, seed=3).run(_paper_objective(paper_space), 8)
        # Global pool (1024) + incumbent-local pool (256) + the L-BFGS-B
        # polish evaluations: the gauge records every scored candidate.
        assert gauge.value > 1024 + 256

    def test_gp_suggestions_honor_exclusions(self, paper_space):
        opt = BayesianOptimizer(paper_space, seed=11, n_initial=2)
        opt.set_excluded(lambda c: c["history_len"] > 40)
        fn = _paper_objective(paper_space)
        for _ in range(8):
            c = opt.suggest()
            assert c["history_len"] <= 40
            opt.tell(c, fn(c))

    def test_restored_state_resumes_the_same_suggestions(self, paper_space):
        fn = _paper_objective(paper_space)
        uninterrupted = BayesianOptimizer(paper_space, seed=5, n_initial=3)
        uninterrupted.run(fn, 7)
        state = uninterrupted.search_state()
        # A resumed optimizer sees the same history (replayed tells) and
        # the saved RNG state; its seed is overwritten by the restore.
        resumed = BayesianOptimizer(paper_space, seed=99, n_initial=3)
        for record in uninterrupted.history:
            resumed.tell(record.config, record.value)
        resumed.restore_search_state(state)
        uninterrupted.restore_search_state(uninterrupted.search_state())
        for _ in range(2):
            expected = uninterrupted.suggest()
            assert resumed.suggest() == expected
            uninterrupted.tell(expected, fn(expected))
            resumed.tell(expected, fn(expected))


class TestRandomSearch:
    def test_runs_and_tracks_best(self, space):
        rs = RandomSearch(space, seed=0)
        rec = rs.run(bowl, 20)
        assert rec.value == min(t.value for t in rs.history)

    def test_avoids_duplicates(self, space):
        rs = RandomSearch(space, seed=0)
        rs.run(bowl, 20)
        seen = [tuple(sorted(t.config.items())) for t in rs.history]
        assert len(set(seen)) == len(seen)

    def test_invalid_budget(self, space):
        with pytest.raises(ValueError):
            RandomSearch(space).run(bowl, 0)


class TestGridSearch:
    def test_exhausts_grid(self, space):
        gs = GridSearch(space, points_per_dim=2)
        gs.run(bowl)
        assert gs.exhausted
        assert gs.n_trials == gs.grid_size

    def test_suggest_after_exhaustion_raises(self, space):
        gs = GridSearch(space, points_per_dim=2)
        gs.run(bowl)
        with pytest.raises(StopIteration):
            gs.suggest()

    def test_budget_truncates(self, space):
        gs = GridSearch(space, points_per_dim=3)
        gs.run(bowl, n_iters=5)
        assert gs.n_trials == 5
        assert not gs.exhausted

    def test_shuffle_changes_order_not_set(self, space):
        a = GridSearch(space, points_per_dim=2, shuffle=False)._grid
        b = GridSearch(space, points_per_dim=2, shuffle=True, seed=5)._grid
        key = lambda g: tuple(sorted((k, round(float(v), 9)) for k, v in g.items()))
        assert sorted(map(key, a)) == sorted(map(key, b))
        assert list(map(key, a)) != list(map(key, b))

    def test_grid_optimum_close_to_true(self, space):
        gs = GridSearch(space, points_per_dim=5)
        rec = gs.run(bowl)
        assert rec.value < 1.0
