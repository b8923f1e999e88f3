//! Stream-sharing capacity sweep: how many concurrent hiccup-free
//! displays the small farm sustains with multicast batching + prefix
//! caching armed, versus the one-stream-per-viewer baseline.
//!
//! The grid sweeps popularity skew × batch window × prefix-cache budget.
//! Every cell runs the same closed-loop striping workload twice — sharing
//! off (the baseline, capped by the farm's disk bandwidth at
//! `D / M` concurrent streams) and sharing on — and reports the
//! time-weighted mean of concurrent displays, throughput, join mix, and
//! cache behavior. The headline number is `capacity_ratio`:
//! `shared.mean_active_displays / baseline.mean_active_displays`. On a
//! highly skewed workload one disk stream carries many viewers, so the
//! ratio is the multiplicative capacity win sharing buys (the
//! prefix/multicast VoD design batched onto staggered striping).
//!
//! After writing its artifacts the bin gates the high-skew ratio at
//! ≥ 2×, exiting non-zero on a miss (`CI_PERF_STRICT=0` downgrades it to
//! a warning). `--quick` runs the high-skew column only, with a
//! shortened window — the CI smoke mode `scripts/ci.sh` runs.
//!
//! Run from the repo root:
//! `cargo run --release -p ss-bench --bin sharing_capacity [-- --quick]`.

use serde::Serialize;
use ss_bench::grid::{perf_strict, ratio_of, run_cells, write_json, Bound};
use ss_bench::HarnessOpts;
use ss_server::config::SharingConfig;
use ss_server::{RunReport, ServerConfig};
use ss_types::SimDuration;
use ss_workload::Popularity;

/// One (skew, window, budget) cell: baseline vs shared.
#[derive(Debug, Serialize)]
struct CapacityCell {
    skew: String,
    batch_window: u64,
    cache_fragments: u64,
    /// Time-weighted mean concurrent displays, one stream per viewer.
    baseline_mean_active: f64,
    /// Time-weighted mean concurrent displays with sharing armed.
    shared_mean_active: f64,
    /// `shared_mean_active / baseline_mean_active` — the capacity win.
    capacity_ratio: f64,
    baseline_displays_per_hour: f64,
    shared_displays_per_hour: f64,
    streams_opened: u64,
    viewers_joined: u64,
    batched_joins: u64,
    patched_joins: u64,
    /// `cache_hits / (cache_hits + cache_misses)`; 0 when no lookup ran.
    cache_hit_rate: f64,
    peak_catchup_fragments: u64,
}

/// The `sharing_capacity.json` artifact.
#[derive(Debug, Serialize)]
struct SharingCapacityReport {
    mode: String,
    seed: u64,
    stations: u32,
    disks: u32,
    /// Disk-bandwidth ceiling on concurrent *streams* (`D / M`): the
    /// baseline can never exceed it, shared runs can.
    stream_ceiling: u32,
    cells: Vec<CapacityCell>,
    /// Largest `capacity_ratio` over the grid.
    max_capacity_ratio: f64,
    /// `capacity_ratio` of the high-skew / widest-window / largest-budget
    /// cell — the number the CI capacity-floor gate reads.
    high_skew_ratio: f64,
}

/// The workload every cell shares: a closed loop far oversubscribing the
/// 4-stream small farm, so capacity (not arrivals) is the binding
/// constraint.
fn cell_config(opts: &HarnessOpts, skew: &Popularity) -> ServerConfig {
    let mut c = ServerConfig::small_test(32, opts.seed);
    c.popularity = *skew;
    c.verify_delivery = false;
    if opts.quick {
        c.warmup = SimDuration::from_secs(120);
        c.measure = SimDuration::from_secs(900);
    }
    c
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn cell(
    skew_name: &str,
    window: u64,
    cache_fragments: u64,
    baseline: &RunReport,
    shared: &RunReport,
) -> CapacityCell {
    let s = shared.sharing.expect("shared run reports its section");
    CapacityCell {
        skew: skew_name.to_string(),
        batch_window: window,
        cache_fragments,
        baseline_mean_active: baseline.mean_active_displays,
        shared_mean_active: shared.mean_active_displays,
        capacity_ratio: ratio_of(shared.mean_active_displays, baseline.mean_active_displays),
        baseline_displays_per_hour: baseline.displays_per_hour,
        shared_displays_per_hour: shared.displays_per_hour,
        streams_opened: s.streams_opened,
        viewers_joined: s.viewers_joined,
        batched_joins: s.batched_joins,
        patched_joins: s.patched_joins,
        cache_hit_rate: hit_rate(s.cache_hits, s.cache_misses),
        peak_catchup_fragments: s.peak_catchup_fragments,
    }
}

/// The CI floor: at high skew, sharing must sustain at least twice the
/// baseline's concurrent displays.
fn capacity_gate(high_skew_ratio: f64, strict: bool) -> bool {
    Bound::Floor(2.0).gate("high-skew capacity_ratio", high_skew_ratio, strict)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mode = if opts.quick { "quick" } else { "full" };
    eprintln!("sharing_capacity ({mode} mode, seed {})", opts.seed);

    // High skew: the single-object hotspot regime (mean 0.3 puts ~96% of
    // requests on the hottest object); low skew spreads interest across
    // the whole 10-object catalog.
    let high = (
        "geometric-0.3",
        Popularity::TruncatedGeometric { mean: 0.3 },
    );
    let low = ("zipf-0.2", Popularity::Zipf { alpha: 0.2 });
    let skews: Vec<&(&str, Popularity)> = if opts.quick {
        vec![&high]
    } else {
        vec![&high, &low]
    };
    let windows: &[u64] = if opts.quick { &[8] } else { &[2, 8] };
    let budgets: &[u64] = if opts.quick { &[512] } else { &[128, 512] };
    let points: Vec<(u64, u64)> = windows
        .iter()
        .flat_map(|&w| budgets.iter().map(move |&b| (w, b)))
        .collect();

    let probe = cell_config(&opts, &high.1);
    let stream_ceiling = probe.disks / probe.degree();
    let (stations, disks) = (probe.stations, probe.disks);

    // One cell per skew: the unshared baseline, then one shared arm per
    // (window, budget) point, all read against that one baseline.
    let grid = run_cells(
        skews
            .iter()
            .map(|(_, skew)| {
                let baseline = cell_config(&opts, skew);
                let shared = points.iter().map(|&(batch_window, cache_fragments)| {
                    let mut c = baseline.clone();
                    c.sharing = Some(SharingConfig {
                        batch_window,
                        prefix_intervals: 16,
                        cache_fragments,
                    });
                    c
                });
                std::iter::once(baseline.clone()).chain(shared).collect()
            })
            .collect(),
        opts.threads,
    );
    let cells: Vec<CapacityCell> = skews
        .iter()
        .zip(&grid)
        .flat_map(|((name, _), runs)| {
            points
                .iter()
                .zip(&runs[1..])
                .map(|(&(w, b), shared)| cell(name, w, b, &runs[0], shared))
        })
        .collect();
    for c in &cells {
        eprintln!(
            "{} window={} cache={}: {:.2} -> {:.2} concurrent \
             ({:.2}x), {} joins ({} batched / {} patched), hit rate {:.2}",
            c.skew,
            c.batch_window,
            c.cache_fragments,
            c.baseline_mean_active,
            c.shared_mean_active,
            c.capacity_ratio,
            c.viewers_joined,
            c.batched_joins,
            c.patched_joins,
            c.cache_hit_rate,
        );
    }

    let max_capacity_ratio = cells.iter().map(|c| c.capacity_ratio).fold(0.0, f64::max);
    // The gate cell: high skew (the first), widest window and largest
    // budget (the last point).
    let high_skew_ratio = cells[points.len() - 1].capacity_ratio;

    let report = SharingCapacityReport {
        mode: mode.to_string(),
        seed: opts.seed,
        stations,
        disks,
        stream_ceiling,
        cells,
        max_capacity_ratio,
        high_skew_ratio,
    };
    write_json(&opts, "sharing_capacity.json", &report);
    if !capacity_gate(high_skew_ratio, perf_strict()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_floor_is_twice_the_baseline() {
        assert!(capacity_gate(7.1, true));
        assert!(capacity_gate(2.0, true));
        assert!(!capacity_gate(1.99, true));
        assert!(
            !capacity_gate(f64::NAN, true),
            "a zero baseline never passes"
        );
        assert!(capacity_gate(1.5, false), "CI_PERF_STRICT=0 warns");
    }
}
