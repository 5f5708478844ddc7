"""scripts/check_bench.py: the benchmark regression gate.

Exercised as a subprocess, the way CI runs it — exit codes are the
contract.  The artifacts are tiny hand-built BENCH_serving.json files
so every direction heuristic and the quick-mode schema-only path are
covered without running any real bench.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"


def _write(dirpath: Path, fname: str, metrics: dict) -> None:
    doc = {
        "schema": 1,
        "metrics": {
            name: {"kind": "gauge", "value": value}
            for name, value in metrics.items()
        },
    }
    (dirpath / fname).write_text(json.dumps(doc))


def _run(candidate: Path, baseline: Path, *, quick: bool = False, extra=()):
    env = {"PATH": "/usr/bin:/bin", "REPRO_BENCH_QUICK": "1" if quick else ""}
    return subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--candidate-dir",
            str(candidate),
            "--baseline-dir",
            str(baseline),
            *extra,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.fixture()
def dirs(tmp_path: Path) -> tuple[Path, Path]:
    base = tmp_path / "base"
    cand = tmp_path / "cand"
    base.mkdir()
    cand.mkdir()
    return base, cand


def test_no_regression_passes(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 1000.0})
    _write(cand, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 990.0})
    proc = _run(cand, base)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_throughput_drop_fails(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 1000.0})
    _write(cand, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 700.0})
    proc = _run(cand, base)
    assert proc.returncode == 1
    assert "REGRESSED" in proc.stdout


def test_latency_rise_fails(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.predict_p50_ms": 1.0})
    _write(cand, "BENCH_serving.json", {"bench.serving.predict_p50_ms": 1.4})
    proc = _run(cand, base)
    assert proc.returncode == 1


def test_large_improvement_passes(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.chunked_speedup": 3.0,
                                        "bench.serving.predict_p50_ms": 2.0})
    _write(cand, "BENCH_serving.json", {"bench.serving.chunked_speedup": 9.0,
                                        "bench.serving.predict_p50_ms": 0.5})
    proc = _run(cand, base)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_informational_metrics_never_fail(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.pipeline_intervals": 1_000_000.0})
    _write(cand, "BENCH_serving.json", {"bench.serving.pipeline_intervals": 10.0})
    proc = _run(cand, base)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_quick_mode_skips_ratios_but_checks_schema(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 1000.0})
    _write(cand, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 1.0})
    proc = _run(cand, base, quick=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # ... but a malformed candidate still fails in quick mode.
    (cand / "BENCH_serving.json").write_text(json.dumps({"metrics": {"x": {}}}))
    proc = _run(cand, base, quick=True)
    assert proc.returncode == 1


def test_missing_candidate_is_skipped(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 1000.0})
    proc = _run(cand, base)
    assert proc.returncode == 0
    assert "skipping" in proc.stdout


def test_threshold_is_configurable(dirs):
    base, cand = dirs
    _write(base, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 1000.0})
    _write(cand, "BENCH_serving.json", {"bench.serving.pipeline_intervals_per_s": 900.0})
    proc = _run(cand, base, extra=("--max-regression", "5"))
    assert proc.returncode == 1
