"""The model-family layer: registry, per-family end-to-end fits, naive
fallback model behaviour, and family-tagged persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FrameworkSettings,
    GenericHyperparameters,
    LoadDynamics,
    LoadDynamicsPredictor,
)
from repro.core.predictor import NaiveLastValueModel
from repro.models import (
    ModelFamily,
    get_family,
    list_families,
    register_family,
)


class TestRegistry:
    def test_at_least_four_families_registered(self):
        names = list_families()
        assert len(names) >= 4
        for required in ("lstm", "gru", "gbr", "svr"):
            assert required in names

    def test_get_family_by_name_and_instance(self):
        lstm = get_family("lstm")
        assert lstm.name == "lstm"
        assert get_family(lstm) is lstm  # instances pass through

    def test_unknown_family_lists_known_names(self):
        with pytest.raises(ValueError, match="lstm"):
            get_family("transformer")

    def test_register_rejects_non_family(self):
        with pytest.raises(TypeError):
            register_family(object())

    def test_every_family_space_includes_history_len(self):
        for name in list_families():
            space = get_family(name).search_space(budget="tiny")
            assert "history_len" in [p.name for p in space.params]


class TestFamiliesEndToEnd:
    @pytest.mark.parametrize("family", ["lstm", "gru", "gbr", "svr"])
    def test_fit_save_load_predict(self, family, sine_series, tmp_path):
        ld = LoadDynamics(
            settings=FrameworkSettings.tiny(),
            budget="tiny",
            family=family,
        )
        predictor, report = ld.fit(sine_series)
        assert not report.degraded
        assert predictor.family == family
        assert np.isfinite(report.best_validation_mape)
        assert report.best_hyperparameters.as_dict()["history_len"] >= 1

        directory = predictor.save(tmp_path / family)
        loaded = LoadDynamicsPredictor.load(directory)
        assert loaded.family == family
        assert loaded.hyperparameters == predictor.hyperparameters
        assert loaded.predict_next(sine_series) == pytest.approx(
            predictor.predict_next(sine_series)
        )
        got = loaded.predict_series(sine_series, 200)
        want = predictor.predict_series(sine_series, 200)
        np.testing.assert_allclose(got, want)

    def test_classical_families_report_generic_hyperparameters(self, sine_series):
        _, report = LoadDynamics(
            settings=FrameworkSettings.tiny(), budget="tiny", family="gbr"
        ).fit(sine_series)
        hp = report.best_hyperparameters
        assert isinstance(hp, GenericHyperparameters)
        assert {"history_len", "n_estimators", "max_depth", "learning_rate"} <= set(
            hp.as_dict()
        )

    def test_family_is_a_journal_identity_key(self, sine_series, tmp_path):
        """A journal written by one family must refuse to resume under
        another — the recorded trials would mean nothing there."""
        from repro.resilience.journal import JournalError

        journal = tmp_path / "journal.jsonl"
        settings = FrameworkSettings.tiny()
        LoadDynamics(settings=settings, budget="tiny", family="gbr").fit(
            sine_series, journal=journal
        )
        with pytest.raises(JournalError, match="family"):
            LoadDynamics(settings=settings, budget="tiny", family="svr").fit(
                sine_series, journal=journal, resume=True
            )


class TestNaiveLastValueModel:
    def test_predicts_last_window_value_2d(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_allclose(
            NaiveLastValueModel().predict(x), np.array([3.0, 6.0])
        )

    def test_accepts_3d_windows(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])[:, :, None]
        np.testing.assert_allclose(
            NaiveLastValueModel().predict(x), np.array([3.0, 6.0])
        )

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="windows"):
            NaiveLastValueModel().predict(np.arange(4.0))

    def test_empty_history_falls_back_to_zero(self):
        from repro.core.scaling import MinMaxScaler

        scaler = MinMaxScaler().fit(np.array([1.0, 2.0, 3.0]))
        predictor = LoadDynamicsPredictor(
            model=NaiveLastValueModel(),
            scaler=scaler,
            hyperparameters=get_family("naive").hyperparameters({}),
            family="naive",
        )
        assert predictor.predict_next(np.array([])) == 0.0
        # A one-value history is enough for history_len=1: persistence.
        assert predictor.predict_next(np.array([42.0])) == pytest.approx(42.0)


class TestAtomicSave:
    def test_failed_save_keeps_previous_manifest(self, monkeypatch, tmp_path):
        """A save that dies after staging ``predictor.json`` leaves the
        previous manifest in place, loadable, and no stage file behind."""
        import os

        from repro.core.scaling import MinMaxScaler

        predictor = LoadDynamicsPredictor(
            model=NaiveLastValueModel(),
            scaler=MinMaxScaler().fit(np.array([1.0, 2.0, 3.0])),
            hyperparameters=get_family("naive").hyperparameters({}),
            validation_mape=12.5,
            family="naive",
        )
        directory = predictor.save(tmp_path / "model")
        predictor.validation_mape = 99.0

        replace = os.replace

        def fail_on_manifest(src, dst):
            if os.path.basename(dst) == "predictor.json":
                raise OSError("disk gone")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_manifest)
        with pytest.raises(OSError, match="disk gone"):
            predictor.save(directory)
        monkeypatch.undo()

        assert LoadDynamicsPredictor.load(directory).validation_mape == 12.5
        assert list(directory.glob("*.tmp")) == []

    def test_weights_without_their_manifest_are_refused(self, monkeypatch, tmp_path):
        """Predictor A is saved; B's save over it replaces the weights,
        then dies at the manifest.  The directory now pairs B's weights
        with A's scaler and hyperparameters, and must not load."""
        import os

        from repro.core import LSTMHyperparameters
        from repro.core.scaling import MinMaxScaler
        from repro.nn.network import LSTMRegressor
        from repro.serving import CorruptModelError, GuardedPredictor

        def predictor(seed, trace):
            return LoadDynamicsPredictor(
                model=LSTMRegressor(hidden_size=4, seed=seed),
                scaler=MinMaxScaler().fit(trace),
                hyperparameters=LSTMHyperparameters(
                    history_len=6, cell_size=4, num_layers=1, batch_size=8,
                ),
            )

        trace = np.linspace(10.0, 50.0, 40)
        directory = predictor(0, trace).save(tmp_path / "model")
        assert LoadDynamicsPredictor.load(directory).predict_next(trace) >= 0.0

        replace = os.replace

        def fail_on_manifest(src, dst):
            if os.path.basename(dst) == "predictor.json":
                raise OSError("disk gone")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_manifest)
        with pytest.raises(OSError, match="disk gone"):
            predictor(1, 100.0 * trace).save(directory)
        monkeypatch.undo()

        with pytest.raises(ValueError, match="model.npz .* sha256"):
            LoadDynamicsPredictor.load(directory)
        with pytest.raises(CorruptModelError, match="sha256"):
            GuardedPredictor.load(directory)

    def test_manifest_without_digests_loads(self, tmp_path):
        """Directories saved before the manifest recorded digests load."""
        import json

        from repro.core.scaling import MinMaxScaler

        directory = LoadDynamicsPredictor(
            model=NaiveLastValueModel(),
            scaler=MinMaxScaler().fit(np.array([1.0, 2.0, 3.0])),
            hyperparameters=get_family("naive").hyperparameters({}),
            family="naive",
        ).save(tmp_path / "model")
        manifest = directory / "predictor.json"
        meta = json.loads(manifest.read_text())
        assert set(meta.pop("sha256")) == {"model.json"}
        manifest.write_text(json.dumps(meta))
        assert LoadDynamicsPredictor.load(directory).family == "naive"


class TestCustomFamilyRegistration:
    def test_third_party_family_plugs_into_fit(self, sine_series):
        """The extension point works end to end: a family defined outside
        the package drives the same workflow."""
        from pathlib import Path

        from repro.bayesopt.space import IntParam, SearchSpace

        class MeanModel:
            def fit(self, X, y):
                self._mean = float(np.mean(y))

            def predict(self, X, batch_size=4096):
                return np.full(np.asarray(X).shape[0], self._mean)

        class MeanFamily(ModelFamily):
            name = "test-mean"
            kind = "classical"

            def search_space(self, trace_name="default", budget="paper",
                             extended=False):
                return SearchSpace([IntParam("history_len", 1, 4)])

            def build(self, config, settings, seed):
                return MeanModel()

            def train(self, model, X_train, y_train, X_val, y_val, config,
                      settings, epochs, patience, callbacks):
                model.fit(X_train, y_train)
                return None

            def hyperparameters(self, config):
                return GenericHyperparameters.from_dict(config)

            def save_model(self, model, directory: Path):
                raise NotImplementedError

            def load_model(self, directory: Path):
                raise NotImplementedError

        predictor, report = LoadDynamics(
            settings=FrameworkSettings.tiny(), family=MeanFamily()
        ).fit(sine_series)
        assert not report.degraded
        assert predictor.family == "test-mean"
        assert np.isfinite(predictor.predict_next(sine_series))
