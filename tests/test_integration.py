"""End-to-end integration tests: trace → framework → predictor → simulator.

These exercise the same seams the experiment runners use, at unit-test
budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoscale import CloudSimulator, PredictivePolicy, VMSpec
from repro.baselines import CloudInsight, make_baseline, walk_forward
from repro.core import FrameworkSettings, LoadDynamics, LoadDynamicsPredictor, search_space_for
from repro.metrics import mape
from repro.traces import get_configuration, train_val_test_split


@pytest.fixture(scope="module")
def fb_series():
    return get_configuration("fb-10m").load()


@pytest.fixture(scope="module")
def fb_predictor(fb_series):
    ld = LoadDynamics(
        space=search_space_for("fb", "tiny"),
        settings=FrameworkSettings.tiny(max_iters=4, epochs=10),
    )
    predictor, report = ld.fit(fb_series)
    return predictor, report


class TestFullPipeline:
    def test_trace_to_predictor(self, fb_series, fb_predictor):
        predictor, report = fb_predictor
        assert report.n_trials == 4
        start = int(0.8 * len(fb_series))
        preds = predictor.predict_series(fb_series, start)
        assert preds.shape == (len(fb_series) - start,)
        assert np.all(preds >= 0)
        assert np.isfinite(mape(preds, fb_series[start:]))

    def test_predictor_through_walk_forward(self, fb_series, fb_predictor):
        """A LoadDynamics predictor is a Predictor: the generic
        walk-forward path must agree with the batched path."""
        predictor, _ = fb_predictor
        start = len(fb_series) - 12
        wf = walk_forward(predictor, fb_series, start, refit_every=10**9)
        batched = predictor.predict_series(fb_series, start)
        np.testing.assert_allclose(wf, batched, atol=1e-9)

    def test_predictor_to_autoscaler(self, fb_series, fb_predictor):
        predictor, _ = fb_predictor
        start = len(fb_series) - 20
        schedule = np.ceil(np.maximum(predictor.predict_series(fb_series, start), 0))
        sim = CloudSimulator(spec=VMSpec(job_jitter_frac=0.0), seed=0)
        res = sim.run(fb_series[start:], schedule)
        assert res.n_intervals == 20
        # Accounting identity: shortfall + surplus == |P - J| per interval.
        np.testing.assert_allclose(
            res.under_provisioned + res.over_provisioned,
            np.abs(res.provisioned - res.arrivals),
        )

    def test_save_load_deploy_cycle(self, fb_series, fb_predictor, tmp_path):
        predictor, _ = fb_predictor
        predictor.save(tmp_path / "deploy")
        loaded = LoadDynamicsPredictor.load(tmp_path / "deploy")
        start = len(fb_series) - 10
        np.testing.assert_allclose(
            loaded.predict_series(fb_series, start),
            predictor.predict_series(fb_series, start),
            atol=1e-12,
        )

    def test_split_and_framework_agree(self, fb_series):
        """The framework's internal split matches train_val_test_split."""
        tr, va, te = train_val_test_split(fb_series)
        assert len(tr) + len(va) + len(te) == len(fb_series)
        i_test = int(round(0.8 * len(fb_series)))
        np.testing.assert_array_equal(te, fb_series[i_test:])


class TestCouncilIntegration:
    def test_council_close_to_best_member_on_seasonal(self, sine_series):
        """On a clean seasonal series the council must track within 2x of
        its best member (it can only pick from the pool)."""
        members = [make_baseline(n) for n in ("ema", "holt-des", "ar", "knn")]
        start = 210
        member_mapes = {}
        for m in members:
            preds = walk_forward(m, sine_series, start, refit_every=5)
            member_mapes[m.name] = mape(preds, sine_series[start:])
        council = CloudInsight(
            pool=[make_baseline(n) for n in ("ema", "holt-des", "ar", "knn")],
            rebuild_every=1,
        )
        preds = walk_forward(council, sine_series, start, refit_every=1)
        council_mape = mape(preds, sine_series[start:])
        assert council_mape <= 2.0 * min(member_mapes.values()) + 1.0

    def test_schedule_from_named_baselines(self, sine_series):
        for name in ("wood", "cloudscale"):
            sched = PredictivePolicy(make_baseline(name), refit_every=5).schedule(
                sine_series, len(sine_series) - 10
            )
            assert sched.shape == (10,)
            assert np.all(sched >= 0)


class TestCrossBudgetConsistency:
    def test_paper_and_reduced_spaces_share_structure(self):
        for trace in ("gl", "fb", "wiki"):
            paper = search_space_for(trace, "paper")
            reduced = search_space_for(trace, "reduced")
            assert paper.names == reduced.names == [
                "history_len", "cell_size", "num_layers", "batch_size",
            ]

    def test_reduced_configs_valid_in_paper_space(self, rng):
        """Any reduced-budget config is inside the paper's Table III box."""
        paper = search_space_for("gl", "paper")
        reduced = search_space_for("gl", "reduced")
        for cfg in reduced.sample(rng, 25):
            paper.validate(cfg)
