#!/usr/bin/env bash
# Single CI entrypoint: lint + tier-1 test suite.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --lint     # lint only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: no bare print() in src/repro =="
python scripts/check_no_bare_print.py

echo "== lint: import layering (substrate/models/core/apps DAG) =="
python scripts/check_layering.py

if [[ "${1:-}" == "--lint" ]]; then
    exit 0
fi

# Stream a workload three times: uninterrupted, killed at chunk 3, and
# resumed from the killed run's checkpoints.  The killed run must crash
# without a report, and the resumed --report-out JSON must equal the
# uninterrupted one bit for bit.  Usage: stream_kill_resume DIR LABEL ARGS...
stream_kill_resume() {
    local dir=$1 label=$2
    shift 2
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
        "$@" --checkpoint-dir "$dir/ck-ref" --report-out "$dir/ref.json"
    if REPRO_FAULTS="kill@stream.chunk:3" \
        PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
        "$@" --checkpoint-dir "$dir/ck" \
        --report-out "$dir/crashed.json" 2>/dev/null; then
        echo "$label FAILED: injected kill did not crash the stream"
        exit 1
    fi
    [[ ! -e "$dir/crashed.json" ]] \
        || { echo "$label FAILED: crashed run wrote a report"; exit 1; }
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
        "$@" --checkpoint-dir "$dir/ck" --resume \
        --report-out "$dir/resumed.json"
    python - "$dir/ref.json" "$dir/resumed.json" "$label" <<'PYEOF'
import json, sys
ref, res = (json.load(open(p)) for p in sys.argv[1:3])
assert ref["schedule_hex"] == res["schedule_hex"], \
    "provisioning schedule diverged after resume"
assert ref == res, "resumed ServingReport is not bit-for-bit identical"
print(f"{sys.argv[3]} OK: resume bit-for-bit identical "
      f"({len(ref['schedule_hex']) // 16} intervals)")
PYEOF
}

echo "== tier-1 tests =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

echo "== fault-injection smoke =="
python scripts/fault_smoke.py

echo "== perf smoke (fast-path parity + quick benchmarks) =="
python scripts/perf_smoke.py

echo "== perfbench traced smoke (every entry point the ledger wraps must exist) =="
# --trace 1 wraps named product methods (perfbench/ledger.py); a
# refactor that drops one crashes the run or breaks its invariants.  The
# fit and serve paths must also still call the wrapped entries, so each
# of their layers must read above 0: training, validation, the model
# with each recurrent layer's forward_inference and the head on both
# workloads, and the serve walk's stages on `stream`.  serve.guard and
# serve.predictor are not asserted: the batched forecast path bypasses
# the methods they wrap (ROADMAP item 1).
for workload in stream search; do
    PB_OUT="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 1)"
    python - "$workload" "$(tail -n 1 <<<"$PB_OUT")" <<'PYEOF'
import json, sys
workload, last = sys.argv[1], json.loads(sys.argv[2])
assert last["correct"] is True and last["failed"] == 0, \
    f"perfbench {workload} --trace 1 FAILED: {last}"
layers = ["fit.train_ms", "fit.validate_ms", "serve.model_ms",
          "serve.lstm_l0_ms", "serve.lstm_l1_ms", "serve.head_ms"]
if workload == "stream":
    layers += ["serve.controller_ms", "serve.monitor_ms",
               "serve.sanitize_ms", "serve.checkpoint_ms",
               "serve.simulate_ms"]
for layer in layers:
    value = last["metrics"][layer]["value"]
    assert value > 0, \
        f"perfbench {workload} --trace 1 FAILED: {layer} reads {value}"
print(f"perfbench {workload} --trace 1 OK: "
      f"{last['attempted']} cycles, correct, 0 failed")
PYEOF
done

echo "== model-family smoke (non-default family end to end) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli fit gl-30m \
    --budget tiny --family gru --max-iters 2 --epochs 3

echo "== multivariate smoke (D=3 correlated trace end to end) =="
MV_DIR="$(mktemp -d)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli fit mv-30m \
    --budget tiny --family lstm --max-iters 2 --epochs 2 \
    --channels requests,cpu,memory --target-channel 1 \
    --save "$MV_DIR/model"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate mv-30m \
    --guarded --monitor --repair interpolate --target-channel 1 \
    --model-dir "$MV_DIR/model" --start-frac 0.9
stream_kill_resume "$MV_DIR" "multivariate streaming" stream mv-30m \
    --model-dir "$MV_DIR/model" --chunk-size 8 --checkpoint-every 1 --monitor
rm -rf "$MV_DIR"

echo "== serving chaos (guarded simulate must survive injected faults) =="
SERVE_DIR="$(mktemp -d)"
BENCH_DIR="$(mktemp -d)"
trap 'rm -rf "$SERVE_DIR" "$BENCH_DIR"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli fit fb-10m \
    --budget tiny --max-iters 2 --epochs 3 --save "$SERVE_DIR/model"
REPRO_FAULTS="nan@serve.predict:*" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate \
    fb-10m --guarded --model-dir "$SERVE_DIR/model"
REPRO_FAULTS="corrupt@model.load:1" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate \
    fb-10m --guarded --model-dir "$SERVE_DIR/model"

echo "== streaming chaos (kill mid-stream; resume must be bit-for-bit) =="
STREAM_ARGS=(stream fb-10m --model-dir "$SERVE_DIR/model" --chunk-size 8
    --checkpoint-every 1 --deadline-s 7200 --monitor)
stream_kill_resume "$SERVE_DIR" "streaming chaos" "${STREAM_ARGS[@]}"
# A checkpoint missing a cursor field must be refused with a typed error
# (exit 2, one `error:` line), never a traceback.
cp -r "$SERVE_DIR/ck" "$SERVE_DIR/ck-bad"
sed -i 's/"queue_peak"/"queue_peak_lost"/' "$SERVE_DIR/ck-bad/checkpoint.json"
BAD_RC=0
BAD_OUT="$(PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli \
    "${STREAM_ARGS[@]}" --checkpoint-dir "$SERVE_DIR/ck-bad" --resume 2>&1)" \
    || BAD_RC=$?
[[ "$BAD_RC" == 2 ]] \
    || { echo "streaming chaos FAILED: corrupt checkpoint exited $BAD_RC, not 2"; exit 1; }
grep -q "^error: .*queue_peak" <<<"$BAD_OUT" \
    || { echo "streaming chaos FAILED: no error line for the corrupt checkpoint"; exit 1; }
if grep -q "Traceback" <<<"$BAD_OUT"; then
    echo "streaming chaos FAILED: corrupt checkpoint printed a traceback"
    exit 1
fi
echo "streaming chaos OK: corrupt checkpoint refused with exit 2"

echo "== monitoring smoke (injected serving drift must fire detectors + refit) =="
MON_OUT="$(REPRO_FAULTS='drift@serve.predict:60=4' \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli simulate \
    gl-30m --adaptive --monitor --slo-mape 60 \
    --budget tiny --max-iters 2 --epochs 3)"
printf '%s\n' "$MON_OUT"
grep -q "FIRED" <<<"$MON_OUT" \
    || { echo "monitoring smoke FAILED: no drift detector fired"; exit 1; }
grep -qE "drift-triggered refits: [1-9]" <<<"$MON_OUT" \
    || { echo "monitoring smoke FAILED: no drift-triggered refit"; exit 1; }

echo "== autoscale-chaos (hybrid must survive faults + flash crowds) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.cli autoscale --quick
REPRO_BENCH_QUICK=1 REPRO_BENCH_ARTIFACT_DIR="$BENCH_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    benchmarks/bench_autoscale_chaos.py
python - "$BENCH_DIR/BENCH_autoscale.json" <<'PYEOF'
import json, math, sys
cells = json.load(open(sys.argv[1]))["scenarios"]
for scenario in ("steady", "flash_crowd", "regime_shift", "corruption",
                 "nan_flash", "drift_fault"):
    for policy in ("predictive", "reactive", "hybrid"):
        row = cells[scenario]["policies"][policy]
        assert math.isfinite(row["underprovision_rate_pct"]), (scenario, policy)
row = cells["nan_flash"]["policies"]["hybrid"]
assert row["underprovision_rate_pct"] <= 15.0, \
    f"hybrid under injected nan + flash crowd: {row['underprovision_rate_pct']:.2f}% underprovision"
assert row["controller"]["decided_by"].get("reactive", 0) > 0, \
    "open breaker must shift hybrid provenance to the reactive tier"
print("BENCH_autoscale.json schema OK")
PYEOF

echo "== serving-stream bench (quick) =="
REPRO_BENCH_QUICK=1 REPRO_BENCH_ARTIFACT_DIR="$BENCH_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    benchmarks/bench_serving_stream.py
python - "$BENCH_DIR/BENCH_serving.json" <<'PYEOF'
import json, math, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
for gauge in ("bench.serving.stream_intervals_per_s",
              "bench.serving.chunked_intervals_per_s",
              "bench.serving.checkpoint_overhead_pct",
              "bench.serving.monitor_overhead_pct",
              "bench.serving.predict_p50_ms",
              "bench.serving.predict_p99_ms"):
    snap = metrics.get(gauge)
    assert snap and snap["kind"] == "gauge" and math.isfinite(snap["value"]), \
        f"BENCH_serving.json: bad gauge {gauge}: {snap}"
print("BENCH_serving.json schema OK")
PYEOF

echo "== bench regression check (schema-only under REPRO_BENCH_QUICK) =="
REPRO_BENCH_QUICK=1 python scripts/check_bench.py --candidate-dir "$BENCH_DIR"
