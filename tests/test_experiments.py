"""Smoke tests for the experiment runners (tiny budgets).

These verify that every table/figure runner produces well-formed rows
with the expected columns and sane values; the full-scale shapes are
checked by the benchmark harnesses.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import FrameworkSettings
from repro.experiments import (
    baseline_test_mape,
    fit_loaddynamics,
    format_table,
    run_fig2,
    run_fig5,
    run_fig9,
    run_fig10,
    run_acquisition_ablation,
    run_family_ablation,
    run_search_ablation,
    run_table4,
)
from repro.experiments import test_start_index as _test_start_index
from repro.traces import get_configuration

TINY = dict(settings=None)


@pytest.fixture(scope="module")
def tiny_fig9():
    """One shared tiny fig9 run (fb-10m is the shortest config)."""
    return run_fig9(
        configurations=["fb-10m", "fb-5m"],
        budget="tiny",
        settings=FrameworkSettings.tiny(),
        brute_force_trials=2,
        max_eval=20,
    )


class TestCommon:
    def test_test_start_index_80pct(self):
        assert _test_start_index(100) == 80

    def test_test_start_index_capped(self):
        assert _test_start_index(1000, max_eval=50) == 950

    def test_baseline_test_mape_runs(self):
        series = get_configuration("fb-10m").load()
        v = baseline_test_mape("ema", series, max_eval=15)
        assert np.isfinite(v) and v >= 0

    def test_fit_loaddynamics_returns_triple(self):
        series = get_configuration("fb-10m").load()
        predictor, report, m = fit_loaddynamics(
            series, "fb", budget="tiny",
            settings=FrameworkSettings.tiny(), max_eval=15,
        )
        assert np.isfinite(m)
        assert report.n_trials == FrameworkSettings.tiny().max_iters

    def test_format_table_alignment(self):
        rows = [{"a": 1.2345, "b": "x"}, {"a": 22.0, "b": "yyyy"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "1.23" in text
        assert format_table([]) == "(no rows)"


class TestFig2:
    def test_rows_shape(self):
        rows = run_fig2(max_eval=15)
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"workload", "cloudinsight", "cloudscale", "wood"}
            for k in ("cloudinsight", "cloudscale", "wood"):
                assert np.isfinite(row[k]) and row[k] >= 0


class TestFig5:
    def test_spread_statistics(self):
        out = run_fig5(
            n_models=4,
            workload="fb-10m",
            budget="tiny",
            settings=FrameworkSettings.tiny(max_iters=1),
            seed=3,
        )
        assert out["n_feasible"] >= 2
        assert out["min"] <= out["median"] <= out["max"]
        assert out["spread_ratio"] >= 1.0
        assert np.all(np.diff(out["mapes_sorted"]) >= 0)

    def test_n_models_validation(self):
        with pytest.raises(ValueError):
            run_fig5(n_models=1)


class TestFig9:
    def test_rows_and_reports(self, tiny_fig9):
        assert len(tiny_fig9.rows) == 2
        assert set(tiny_fig9.reports) == {"fb-10m", "fb-5m"}
        for row in tiny_fig9.rows:
            for col in ("loaddynamics", "cloudinsight", "cloudscale", "wood",
                        "lstm_bruteforce"):
                assert col in row
                assert np.isfinite(row[col])

    def test_average_row(self, tiny_fig9):
        avg = tiny_fig9.average_row()
        assert avg["workload"] == "AVG"
        lds = [r["loaddynamics"] for r in tiny_fig9.rows]
        assert avg["loaddynamics"] == pytest.approx(np.mean(lds))


class TestTable4:
    def test_min_max_format(self, tiny_fig9):
        rows = run_table4(tiny_fig9)
        assert len(rows) == 1  # both configs are fb
        row = rows[0]
        assert row["workload"] == "fb"
        assert row["n_configs"] == 2
        lo, hi = row["history_len"].split("-")
        assert int(lo) <= int(hi)

    def test_empty_result_rejected(self):
        from repro.experiments.fig9 import Fig9Result

        with pytest.raises(ValueError):
            run_table4(Fig9Result())


class TestFig10:
    def test_policies_present_and_oracle_dominates(self):
        rows = run_fig10(
            budget="tiny",
            settings=FrameworkSettings.tiny(),
            max_eval=30,
            baselines=("wood",),
        )
        policies = {r["policy"] for r in rows}
        assert {"loaddynamics", "wood", "reactive", "oracle"} <= policies
        oracle = next(r for r in rows if r["policy"] == "oracle")
        assert oracle["underprovision_rate_pct"] == 0.0
        assert oracle["overprovision_rate_pct"] == 0.0
        for r in rows:
            assert r["mean_turnaround_seconds"] >= oracle["mean_turnaround_seconds"] - 1e-9


class TestAblation:
    def test_search_ablation_rows(self):
        rows = run_search_ablation(
            workload="fb-10m",
            budget="tiny",
            n_iters=3,
            settings=FrameworkSettings.tiny(),
            max_eval=15,
        )
        assert [r["optimizer"] for r in rows] == ["bayesian", "random", "grid"]
        for r in rows:
            assert np.isfinite(r["val_mape"]) and r["seconds"] > 0


def _brute_force_on_fb(settings):
    from repro.experiments.fig9 import _brute_force_mape

    series = get_configuration("fb-10m").load()
    return _brute_force_mape(series, "fb", "tiny", settings, 2, 15)


@pytest.mark.parametrize(
    "run",
    [
        lambda s: run_search_ablation(
            workload="fb-10m", budget="tiny", n_iters=2, settings=s, max_eval=15
        ),
        lambda s: run_family_ablation(
            workload="fb-10m", budget="tiny", n_iters=2, families=("lstm",),
            settings=s, max_eval=15,
        ),
        lambda s: run_acquisition_ablation(
            workload="fb-10m", budget="tiny", n_iters=2, settings=s, max_eval=15
        ),
        _brute_force_on_fb,
    ],
    ids=["search_ablation", "family_ablation", "acquisition_ablation",
         "fig9_brute_force"],
)
def test_runner_leaves_caller_settings_unchanged(run):
    settings = FrameworkSettings.tiny()
    before = dataclasses.replace(settings)
    run(settings)
    assert settings == before
