#!/usr/bin/env bash
# CI gate: formatting, lints, the tier-1 test suite, and a smoke run of
# the engine performance baseline. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> cargo test --workspace -q (every crate's unit tests)"
# Tier-1 runs only the root package; the crate-level unit tests (rescue
# geometry, crash-plane reconciliation, scrub/parity repair, ...) are
# gated here.
cargo test --workspace -q

echo "==> benchmark --quick (public-API build + pinned digests of all four workloads)"
# The repository benchmark is a package of its own, built only against
# the crates' public APIs, so this step also catches an API break the
# workspace build cannot see. Its quick pass checks every workload's
# reports against the digests pinned at seed 1994 and the end-of-run
# invariants (storage reconciliation, lost reads, remote bookings). A
# hard gate: no CI_PERF_STRICT escape.
cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --quick

echo "==> fault suites (per-suite test counts)"
# The degraded-mode harness: property sweep + goldens (now spanning the
# parity/rebuild axes), coalescing proptest, backoff retry-queue
# properties, seed-stability digests, dense-vs-sparse under fault plans,
# delivery-machine properties (incl.
# the recorded proptest regression, re-run both via its sidecar and as a
# directed case), the distributed-tier equivalence sweep, and the
# crash-consistent storage plane (recovery reconciliation + scrub
# completeness properties), and the SLO/QoS plane (ledger
# reconciliation, alert determinism, root-cause attribution).
for suite in fault_properties coalesce_properties backoff_properties seed_stability tick_equivalence obs_properties sharing_equivalence delivery_properties distributed_equivalence crash_properties slo_properties; do
  count=$(cargo test -q --test "$suite" 2>&1 | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p')
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "ci.sh: suite $suite reported no passing tests" >&2
    exit 1
  fi
  echo "    $suite: $count tests"
done

echo "==> fault_grid --quick (degraded-mode smoke grid)"
cargo run --release -p ss-bench --bin fault_grid -- --quick --out target/ci-fault-grid

echo "==> fault_grid --quick --parity --rebuild (self-healing smoke)"
# Parity reconstruction + hot-spare rebuild must hold every striping
# 1-failure cell at >=80% of its own zero-failure throughput with no
# dropped streams. CI_PERF_STRICT=0 downgrades a miss to a warning for
# noisy shared runners (same escape hatch as the perf gate below).
cargo run --release -p ss-bench --bin fault_grid -- --quick --parity --rebuild --out target/ci-heal-grid
heal_check=$(awk -F, 'NR > 1 && $1 == "striping" && $4 == 1 {
    if ($8 + 0 < 80 || $10 + 0 != 0) {
      print "FAIL stations=" $2 " retention=" $8 "% dropped=" $10; bad = 1
    }
    cells += 1
  }
  END {
    if (cells == 0) { print "FAIL no striping 1-failure cells in the CSV"; bad = 1 }
    if (!bad) print "ok (" cells " cells held the 80% retention floor)"
  }' target/ci-heal-grid/fault_grid.csv)
echo "    $heal_check"
case "$heal_check" in
  FAIL*)
    if [ "${CI_PERF_STRICT:-1}" = "0" ]; then
      echo "ci.sh: WARNING self-healing retention floor missed (CI_PERF_STRICT=0)" >&2
    else
      echo "ci.sh: self-healing retention floor missed" >&2
      exit 1
    fi
    ;;
esac

echo "==> trace_dump --quick (observability export + reconciliation gate)"
# trace_dump self-checks before writing: the expanded read timeline must
# match the booked admissions, journal counts must reconcile with the run
# report, the heatmap must hold one row per interval boundary, and the
# Perfetto JSON must parse. Any mismatch exits non-zero.
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace --format perfetto
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace --format jsonl
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace --format csv
# The registry's two interval-indexed artifacts must agree row for row.
heat_rows=$(wc -l < target/ci-trace/heatmap.csv)
series_rows=$(wc -l < target/ci-trace/series.csv)
if [ "$heat_rows" -ne "$series_rows" ] || [ "$heat_rows" -le 1 ]; then
  echo "ci.sh: heatmap.csv ($heat_rows rows) and series.csv ($series_rows rows) disagree" >&2
  exit 1
fi
echo "    heatmap/series: $((heat_rows - 1)) interval rows each"
# Same seed, same journal bytes: rerun and compare.
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace-rerun --format jsonl
if ! cmp -s target/ci-trace/trace.jsonl target/ci-trace-rerun/trace.jsonl; then
  echo "ci.sh: same-seed journals differ between reruns" >&2
  exit 1
fi
echo "    journal: $(wc -l < target/ci-trace/trace.jsonl) events, byte-identical across reruns"

echo "==> ops_report --quick (SLO/QoS reconciliation + alert-determinism gates)"
# ops_report replays a faulted multi-node crash+scrub demo config on
# each scheme, folds the journal into the per-display QoS ledger, and
# self-checks before writing: ledger totals must equal the run report's
# aggregates and every alert must describe a valid journal window. Any
# mismatch exits non-zero (a hard gate — no CI_PERF_STRICT escape).
cargo run --release -p ss-bench --bin ops_report -- --quick --out target/ci-ops
cargo run --release -p ss-bench --bin ops_report -- --quick --vdr --out target/ci-ops-vdr
# Alert determinism: the same seed must render byte-identical dashboard
# artifacts, alerts and incident attribution included.
cargo run --release -p ss-bench --bin ops_report -- --quick --out target/ci-ops-rerun
for f in ops_report.txt ops_slo.csv ops_health.csv ops_incidents.csv ops_report.json ops_trace.jsonl; do
  if ! cmp -s "target/ci-ops/$f" "target/ci-ops-rerun/$f"; then
    echo "ci.sh: same-seed ops_report artifacts differ ($f)" >&2
    exit 1
  fi
done
echo "    $(wc -l < target/ci-ops/ops_trace.jsonl) journal events; 6 artifacts byte-identical across reruns"

echo "==> sharing_capacity --quick (stream-sharing capacity floor)"
# At high popularity skew, multicast batching + the prefix cache must
# sustain at least 2x the baseline's concurrent hiccup-free displays
# (the quick cell typically lands around 7x). CI_PERF_STRICT=0
# downgrades a miss to a warning, as for the other perf gates.
cargo run --release -p ss-bench --bin sharing_capacity -- --quick --out target/ci-sharing
share_check=$(python3 - <<'EOF'
import json
r = json.load(open("target/ci-sharing/sharing_capacity.json"))
ratio = r["high_skew_ratio"]
print(f"FAIL high-skew capacity ratio {ratio:.2f}x (floor 2x)" if ratio < 2.0
      else f"ok (high-skew capacity ratio {ratio:.2f}x >= 2x floor)")
EOF
)
echo "    $share_check"
case "$share_check" in
  FAIL*)
    if [ "${CI_PERF_STRICT:-1}" = "0" ]; then
      echo "ci.sh: WARNING sharing capacity floor missed (CI_PERF_STRICT=0)" >&2
    else
      echo "ci.sh: sharing capacity floor missed" >&2
      exit 1
    fi
    ;;
esac

echo "==> node_grid --quick (distributed node-scaling smoke)"
# The same 24-disk farm split 1/2/4/8 ways, each cell run healthy and
# with one node dark for half the window. The widest split must retain
# at least 70% of its own healthy throughput through a single-node
# outage (the quick cell typically lands above 95%). CI_PERF_STRICT=0
# downgrades a miss to a warning, as for the other perf gates.
cargo run --release -p ss-bench --bin node_grid -- --quick --out target/ci-node-grid
node_check=$(python3 - <<'EOF'
import json
r = json.load(open("target/ci-node-grid/node_grid.json"))
cell = max(r["cells"], key=lambda c: c["nodes"])
n, ret = cell["nodes"], cell["retention_pct"]
print(f"FAIL N={n} single-node-outage retention {ret:.1f}% (floor 70%)" if ret < 70.0
      else f"ok (N={n} retains {ret:.1f}% through a single-node outage, floor 70%)")
EOF
)
echo "    $node_check"
case "$node_check" in
  FAIL*)
    if [ "${CI_PERF_STRICT:-1}" = "0" ]; then
      echo "ci.sh: WARNING node-outage retention floor missed (CI_PERF_STRICT=0)" >&2
    else
      echo "ci.sh: node-outage retention floor missed" >&2
      exit 1
    fi
    ;;
esac

echo "==> crash_grid --quick (journal-recovery + scrub-interference gates)"
# Power-loss/torn-write injection × scrub arming on both schemes. Two
# headline gates: pooled journal recoveries must verify clean at >=99%,
# and arming the scrub daemon on a crash-free run must cost at most 10%
# of the unarmed cell's throughput (the quick grid typically lands at
# 100% recovery and under 3% interference). CI_PERF_STRICT=0 downgrades
# the interference miss to a warning; the recovery floor is a
# correctness gate and always fails hard.
cargo run --release -p ss-bench --bin crash_grid -- --quick --out target/ci-crash-grid
crash_check=$(python3 - <<'EOF'
import json
r = json.load(open("target/ci-crash-grid/crash_grid.json"))
rec, interf = r["recovery_success_pct"], r["scrub_interference_pct"]
if rec < 99.0:
    print(f"HARDFAIL recovery success {rec:.2f}% (floor 99%)")
elif interf > 10.0:
    print(f"FAIL scrub interference {interf:.2f}% (ceiling 10%)")
else:
    print(f"ok (recovery {rec:.2f}% >= 99%, scrub interference {interf:.2f}% <= 10%)")
EOF
)
echo "    $crash_check"
case "$crash_check" in
  HARDFAIL*)
    echo "ci.sh: journal recovery success floor missed" >&2
    exit 1
    ;;
  FAIL*)
    if [ "${CI_PERF_STRICT:-1}" = "0" ]; then
      echo "ci.sh: WARNING scrub interference ceiling missed (CI_PERF_STRICT=0)" >&2
    else
      echo "ci.sh: scrub interference ceiling missed" >&2
      exit 1
    fi
    ;;
esac

echo "==> perf_baseline --quick (regression + parallel-speedup gates)"
# Writes BENCH_engine.quick.json (never the committed full baseline) and
# fails if the quick grid regressed more than 2x against the committed
# artifact's grid_quick section. --gate-parallel additionally requires
# grid_parallel to beat grid by 1.5x when the runner has >= 4 cores
# (skipped below that — a 1-core container cannot scale). In both gates
# CI_PERF_STRICT=0 downgrades the failure to a warning for noisy shared
# runners.
cargo run --release -p ss-bench --bin perf_baseline -- --quick \
  --check-against BENCH_engine.json --gate-parallel

# CI_FULL=1 additionally refreshes the committed full baseline and
# appends a dated row to the BENCH_history.jsonl trajectory (grid and
# quick-grid wall-clocks plus each merged section's headline). Quick
# runs never append — the trajectory tracks full baselines only.
if [ "${CI_FULL:-0}" = "1" ]; then
  echo "==> perf_baseline (full: refresh baseline + append BENCH_history.jsonl row)"
  cargo run --release -p ss-bench --bin perf_baseline -- \
    --check-against BENCH_engine.json --gate-parallel --append-history
fi

echo "==> farm_scale --quick (100k-disk smoke)"
# Runs the 100,000-disk scenario once; exits non-zero if it cannot build
# or complete the farm.
cargo run --release -p ss-bench --bin farm_scale -- --quick --out target/ci-farm-scale

echo "ci.sh: all checks passed"
