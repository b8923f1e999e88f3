#!/usr/bin/env bash
# CI gate: formatting, lints, rustdoc, tier-1 and every crate's tests, the
# examples, the benchmark's pinned and seed-7 digests, the property suites,
# the grid bins' floors, the trace_dump and ops_report self-checks and
# same-seed reruns on both schemes, and perf_baseline's regression gates.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
# rustdoc only warns about a doc link to a deleted or ambiguous item;
# denying warnings keeps the API docs pointing at items that exist.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> cargo test --workspace -q (every crate's unit tests)"
# Tier-1 runs only the root package; the crate-level unit tests (rescue
# geometry, crash-plane reconciliation, scrub/parity repair, ...) are
# gated here.
cargo test --workspace -q

echo "==> examples (each runs to exit 0)"
# Clippy only compiles the examples; running them catches a panic or an
# error return on the public-API paths they walk (quickstart places
# through PlacementMap). Each takes well under a second in release.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run --release -q --example "$name" > /dev/null
  echo "    $name: ok"
done

echo "==> benchmark --quick (public-API build + pinned digests of all four workloads)"
# The repository benchmark is a package of its own, built only against
# the crates' public APIs, so this step also catches an API break the
# workspace build cannot see. Its quick pass checks every workload's
# reports against the digests pinned at seed 1994 and the end-of-run
# invariants (storage reconciliation, lost reads, remote bookings). A
# hard gate: no CI_PERF_STRICT escape.
cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --quick

echo "==> benchmark --workload fig8 (pinned full-size digest)"
# The full-size Figure 8 grid (162 cells: three seeds of 1-256 stations
# under three means, both schemes, 4 h warm-up and 12 h measured) at the
# pinned seed, checked against its pinned digest and end-of-run
# invariants (a few seconds). The quick pass runs one seed over a 1.5 h
# window, so only this run reaches the 256-station VDR cells whose
# refused tertiary fetches sleep between wakeups. A hard gate, like the
# quick pass.
cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
  --workload fig8 --seed 1994 --seconds 1 --trace 0

echo "==> benchmark --workload degraded (pinned full-size digest)"
# The full-size degraded cell pair at the pinned seed, checked against
# its pinned digest and end-of-run invariants (about 2 s, most of it the
# one-second repetition budget: a rep takes about 0.12 s since VDR's
# scrub walk stopped waking the clock at each chunk end). Its VDR cell
# is the only benchmark cell whose farm evicts replicas while the
# storage plane is armed, which the quick pass does not reach. A hard
# gate, like the quick pass.
cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
  --workload degraded --seed 1994 --seconds 1 --trace 0

echo "==> benchmark --seed 7 (unpinned-seed digests of all four workloads)"
# Every workload at seed 7, which no pinned file covers: the wake bounds
# that let striping waiters sleep, VDR's sleeping fetches, parity
# reconstruction planned under a node outage, the rescue passes and the
# scrub must reproduce these digests byte for byte. The benchmark prints
# each digest on stderr. A hard gate, like the pinned runs.
for pair in fig8:9f1304d588920c09 degraded:1797f1d58f74fa69 farm_100k:5d4f09201479413c obs:57f94ad927da9035; do
  workload=${pair%%:*}
  digest=${pair#*:}
  if ! seed7=$(cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
    --workload "$workload" --seed 7 --seconds 1 --trace 0 2>&1 >/dev/null) \
    || ! grep -q "seed 7, digest $digest" <<<"$seed7"; then
    echo "$seed7" >&2
    echo "ci.sh: $workload at seed 7 failed or no longer reads digest $digest" >&2
    exit 1
  fi
  echo "    $workload seed 7: digest $digest"
done

echo "==> benchmark --workload farm_100k (pinned full-size digest)"
# The full-size 100,000-disk striping cell at the pinned seed, checked
# against its pinned digest and end-of-run invariants (a few seconds).
# The quick pass shrinks its station count, so only this run admits
# displays across the whole farm and its free-horizon index. A hard
# gate, like the quick pass.
cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
  --workload farm_100k --seed 1994 --seconds 1 --trace 0

echo "==> benchmark --workload obs (pinned full-size digest)"
# The full-size journaled cells (nine per scheme) at the pinned seed,
# checked against their pinned digest and end-of-run invariants (about
# 2 s). Disk 3 fails with no parity, so no striping display can start
# until the repair and every rejected waiter sleeps through the outage;
# the quick pass runs only two of these cells. A hard gate, like the
# quick pass.
cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
  --workload obs --seed 1994 --seconds 1 --trace 0

echo "==> property suites (per-suite test counts)"
# Placement (the map's counters against a per-fragment reference model,
# parity-free and parity-inflated, and the fragment profile against
# brute force), admission (sound grants, the outage walker against a
# per-interval scan, and the wake bound against planning every interval
# up to it), then the degraded-mode harness: property sweep +
# goldens (now spanning the parity/rebuild axes), coalescing proptest,
# backoff retry-queue properties, seed-stability digests, dense-vs-sparse
# under fault plans, delivery-machine properties (incl. the recorded
# proptest regression, re-run both via its sidecar and as a directed
# case), the distributed-tier equivalence sweep, and the crash-consistent
# storage plane (recovery reconciliation + scrub completeness
# properties), and the SLO/QoS plane (ledger reconciliation, alert
# determinism, root-cause attribution), and the config fuzz property
# (every deserialized config validates and runs or is refused with a
# typed error).
for suite in placement_properties admission_properties fault_properties coalesce_properties backoff_properties seed_stability tick_equivalence obs_properties sharing_equivalence delivery_properties distributed_equivalence crash_properties slo_properties config_validation; do
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
# The bin gates parity + rebuild: every striping 1-failure cell must keep
# >=80% of its zero-failure throughput with no dropped streams.
# CI_PERF_STRICT=0 downgrades a miss to a warning (as for every perf gate).
cargo run --release -p ss-bench --bin fault_grid -- --quick --parity --rebuild --out target/ci-heal-grid

echo "==> trace_dump --quick (observability export + reconciliation gate)"
# trace_dump self-checks before writing: the expanded read timeline must
# match the booked admissions, journal counts must reconcile with the run
# report, the heatmap must hold one row per interval boundary, and the
# Perfetto JSON must parse. Any mismatch exits non-zero.
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace --format perfetto
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace --format jsonl
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace --format csv
cargo run --release -p ss-bench --bin trace_dump -- --quick --vdr --out target/ci-trace-vdr --format jsonl
cargo run --release -p ss-bench --bin trace_dump -- --quick --vdr --out target/ci-trace-vdr --format csv
# On both schemes the registry's two interval-indexed artifacts must
# agree row for row, and every heatmap line must hold as many fields as
# its header: the interval and one cell per disk.
for dir in target/ci-trace target/ci-trace-vdr; do
  heat_rows=$(wc -l < "$dir/heatmap.csv")
  series_rows=$(wc -l < "$dir/series.csv")
  if [ "$heat_rows" -ne "$series_rows" ] || [ "$heat_rows" -le 1 ]; then
    echo "ci.sh: $dir: heatmap.csv ($heat_rows rows) and series.csv ($series_rows rows) disagree" >&2
    exit 1
  fi
  if ! awk -F, 'NR==1{n=NF} NF!=n{exit 1}' "$dir/heatmap.csv"; then
    echo "ci.sh: $dir/heatmap.csv has a line whose field count differs from its header's" >&2
    exit 1
  fi
  echo "    $dir heatmap/series: $((heat_rows - 1)) interval rows each, every line as wide as the header"
done
# Same seed, same bytes: rerun both schemes and compare each journal and
# both CSVs. The VDR trace is the only run here whose series rows come
# from the frozen replay branch (one sample per skipped range).
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace-rerun --format jsonl
cargo run --release -p ss-bench --bin trace_dump -- --quick --out target/ci-trace-rerun --format csv
cargo run --release -p ss-bench --bin trace_dump -- --quick --vdr --out target/ci-trace-vdr-rerun --format jsonl
cargo run --release -p ss-bench --bin trace_dump -- --quick --vdr --out target/ci-trace-vdr-rerun --format csv
for dir in target/ci-trace target/ci-trace-vdr; do
  for f in trace.jsonl heatmap.csv series.csv; do
    if ! cmp -s "$dir/$f" "$dir-rerun/$f"; then
      echo "ci.sh: same-seed trace_dump artifacts differ between reruns ($dir/$f)" >&2
      exit 1
    fi
  done
  echo "    $dir: $(wc -l < "$dir/trace.jsonl") events; journal and both CSVs byte-identical across reruns"
done

echo "==> ops_report --quick (SLO/QoS reconciliation + alert-determinism gates)"
# ops_report replays a faulted multi-node crash+scrub demo config on
# each scheme, folds the journal into the per-display QoS ledger, and
# self-checks before writing: ledger totals must equal the run report's
# aggregates and every alert must describe a valid journal window. Any
# mismatch exits non-zero (a hard gate — no CI_PERF_STRICT escape).
cargo run --release -p ss-bench --bin ops_report -- --quick --out target/ci-ops
cargo run --release -p ss-bench --bin ops_report -- --quick --vdr --out target/ci-ops-vdr
# Alert determinism: the same seed must render byte-identical dashboard
# artifacts, alerts and incident attribution included, on both schemes.
# The VDR demo is the only run here whose storage plane compiles crash
# events, whose farm loses a cluster and whose router sees a dark node.
cargo run --release -p ss-bench --bin ops_report -- --quick --out target/ci-ops-rerun
cargo run --release -p ss-bench --bin ops_report -- --quick --vdr --out target/ci-ops-vdr-rerun
for dir in target/ci-ops target/ci-ops-vdr; do
  for f in ops_report.txt ops_slo.csv ops_health.csv ops_incidents.csv ops_report.json ops_trace.jsonl; do
    if ! cmp -s "$dir/$f" "$dir-rerun/$f"; then
      echo "ci.sh: same-seed ops_report artifacts differ ($dir/$f)" >&2
      exit 1
    fi
  done
  echo "    $dir: $(wc -l < "$dir/ops_trace.jsonl") journal events; 6 artifacts byte-identical across reruns"
done

echo "==> sharing_capacity --quick (stream-sharing capacity floor)"
# The bin gates capacity: at high skew, batching + the prefix cache must
# sustain >=2x the baseline's concurrent displays (quick cell: ~7x).
cargo run --release -p ss-bench --bin sharing_capacity -- --quick --out target/ci-sharing

echo "==> node_grid --quick (distributed node-scaling smoke)"
# The 24-disk farm split 1/2/4/8 ways, healthy and with one node dark.
# The bin gates the widest split at >=70% retention (quick cell: >95%).
cargo run --release -p ss-bench --bin node_grid -- --quick --out target/ci-node-grid

echo "==> crash_grid --quick (journal-recovery + scrub-interference gates)"
# Power-loss/torn-write injection × scrub arming on both schemes. The bin
# gates pooled journal recovery at >=99% (hard: no CI_PERF_STRICT escape)
# and scrub interference at <=10% (quick grid: 100% and under 3%).
cargo run --release -p ss-bench --bin crash_grid -- --quick --out target/ci-crash-grid

echo "==> perf_baseline --quick (regression + parallel-speedup gates)"
# perf_baseline times only the Fig-8 grid these gates read; the per-layer
# and 100,000-disk numbers are the benchmark's, whose digests are gated
# above.
# Writes BENCH_engine.quick.json (never the committed full baseline) and
# gates against the committed BENCH_engine.json: the quick grid may be at
# most 2x slower than its grid_quick section, and grid_parallel must beat
# grid by 1.5x when the runner has >= 4 cores. (The quick grid's six
# cells show no parallelism on two threads, so no gate compares its
# speedup with the 54-cell baseline's.)
# CI_PERF_STRICT=0 downgrades a miss to a warning for noisy shared
# runners; a baseline the gates cannot read fails regardless. Re-taking
# the baseline is a deliberate full run of perf_baseline, which rewrites
# BENCH_engine.json.
cargo run --release -p ss-bench --bin perf_baseline -- --quick

echo "ci.sh: all checks passed"
