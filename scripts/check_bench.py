#!/usr/bin/env python
"""Fail CI when a fresh benchmark run regresses the committed artifacts.

Compares candidate ``BENCH_*.json`` files (a directory of artifacts just
produced by the bench suites) against the committed baselines at the
repo root and exits non-zero when any shared metric moved in the *bad*
direction by more than ``--max-regression`` percent (default 25).

Direction is inferred from the metric name:

* higher is better: ``*_per_s``, ``*speedup*``, ``*hit_rate``
* lower is better:  ``*_ms``, ``*_s``, ``*_ms_*`` percentiles,
  ``*overhead_pct``
* anything else (interval counts, iteration counts) is informational —
  reported, never failed.

Under ``REPRO_BENCH_QUICK`` the ratio checks are skipped — quick-mode
numbers are harness validation, not signal — but the artifact schema is
still enforced, so a bench that stops emitting its gauges fails fast.

    python scripts/check_bench.py --candidate-dir "$BENCH_DIR"
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Artifacts using the flat ``{"schema": ..., "metrics": {...}}`` layout.
#: (BENCH_autoscale.json has its own scenario-grid schema and checker.)
COMPARABLE = ("BENCH_serving.json",)

HIGHER_BETTER = ("_per_s", "speedup", "hit_rate")
LOWER_BETTER = ("_ms", "_s", "overhead_pct")


def direction(name: str) -> int:
    """+1 higher-better, -1 lower-better, 0 informational."""
    if any(name.endswith(sfx) or f"{sfx}_" in name for sfx in HIGHER_BETTER):
        return 1
    if any(name.endswith(sfx) or f"{sfx}_" in name for sfx in LOWER_BETTER):
        return -1
    return 0


def load_metrics(path: Path) -> dict[str, float]:
    """Validate the artifact schema and return ``{name: value}``."""
    doc = json.loads(path.read_text())
    if "metrics" not in doc or not isinstance(doc["metrics"], dict):
        raise ValueError(f"{path.name}: missing 'metrics' mapping")
    out: dict[str, float] = {}
    for name, snap in doc["metrics"].items():
        if not isinstance(snap, dict) or "value" not in snap:
            raise ValueError(f"{path.name}: metric {name} has no 'value'")
        value = snap["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{path.name}: metric {name} is not finite: {value!r}")
        out[name] = float(value)
    if not out:
        raise ValueError(f"{path.name}: empty metrics mapping")
    return out


def compare(
    name: str, base: float, cand: float, max_regression_pct: float
) -> tuple[bool, str]:
    """``(regressed, human line)`` for one shared metric."""
    sign = direction(name)
    if sign == 0 or base == 0.0:
        return False, f"  ~ {name}: {base:g} -> {cand:g} (informational)"
    change_pct = 100.0 * (cand - base) / abs(base)
    bad = -sign * change_pct > max_regression_pct
    arrow = "REGRESSED" if bad else "ok"
    better = "higher" if sign > 0 else "lower"
    return bad, (
        f"  {'!' if bad else ' '} {name}: {base:g} -> {cand:g} "
        f"({change_pct:+.1f}%, {better} is better) [{arrow}]"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--candidate-dir",
        required=True,
        type=Path,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    ap.add_argument(
        "--baseline-dir",
        type=Path,
        default=ROOT,
        help="directory holding the committed baselines (default: repo root)",
    )
    ap.add_argument(
        "--max-regression",
        type=float,
        default=25.0,
        help="allowed percent move in the bad direction (default: 25)",
    )
    args = ap.parse_args()

    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    failures: list[str] = []
    checked = 0
    for fname in COMPARABLE:
        cand_path = args.candidate_dir / fname
        base_path = args.baseline_dir / fname
        if not cand_path.exists():
            print(f"[check-bench] {fname}: no candidate artifact, skipping")
            continue
        try:
            cand = load_metrics(cand_path)
        except ValueError as exc:
            failures.append(str(exc))
            continue
        print(f"[check-bench] {fname}: schema OK ({len(cand)} metrics)")
        if not base_path.exists():
            print(f"[check-bench] {fname}: no committed baseline, nothing to diff")
            continue
        try:
            base = load_metrics(base_path)
        except ValueError as exc:
            failures.append(f"baseline {exc}")
            continue
        if quick:
            print(f"[check-bench] {fname}: REPRO_BENCH_QUICK set, ratio checks skipped")
            continue
        for name in sorted(set(base) & set(cand)):
            bad, line = compare(name, base[name], cand[name], args.max_regression)
            print(line)
            checked += 1
            if bad:
                failures.append(f"{fname}: {line.strip()}")

    if failures:
        print(f"\n[check-bench] FAILED ({len(failures)} problem(s)):")
        for f in failures:
            print(f"  - {f}")
        return 1
    mode = "schema-only (quick)" if quick else f"{checked} metric(s) diffed"
    print(f"[check-bench] OK: {mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
