//! Degraded-mode companion to **Figure 8**: reruns the Figure-8
//! throughput grid with 0, 1 and 2 *concurrent* disk failures injected
//! over the middle half of the measurement window, and reports each
//! cell's throughput next to its degraded-mode statistics (rescues,
//! hiccups, dropped streams, downtime).
//!
//! The failed disks are spread half a farm apart, so under VDR the two
//! failures always land in distinct clusters — the grid measures two
//! independent outages, not a double-failure of one group.
//!
//! Flags beyond the common harness options:
//!
//! * `--parity[=G]` — arm parity groups of `G` data fragments (default 5)
//!   on the striping cells: degraded admission reconstructs lost reads
//!   from the rotated parity fragment instead of stalling.
//! * `--rebuild[=R]` — arm the hot-spare rebuild at `R` fragments per
//!   interval (default 8) on every cell: failed disks re-enter service as
//!   soon as the spare is drained, ahead of the scheduled repair.
//! * `--rebuild-sweep` — additionally sweep the rebuild rate over the
//!   1-failure striping cells and emit `rebuild_sweep.csv`. Given without
//!   `--rebuild` this warns: the main grid then runs with the hot-spare
//!   rebuild disarmed, and only the sweep's own cells rebuild.
//! * `--sharing[=W]` — arm stream sharing (batch window `W` intervals,
//!   default 4) on every cell. A shared stream is one rescue plan with N
//!   dependents — one rescue (or one drop) covers the whole crowd — so
//!   the failure rows measure shared-stream retention against the
//!   unshared grid's N-independent-rescues regime.
//! * `--nodes=N` — split every cell's farm across `N` storage nodes
//!   (`N` must divide the farm width). With `N > 1` the failure axis
//!   injects whole-node outages — the correlated failure of every disk
//!   the node owns, spread half the node ring apart — instead of
//!   single-disk failures, and the CSV's trailing columns carry the
//!   node count, compiled outages, and interconnect counters (they read
//!   `1,0,0,0` on a single-box grid, so existing column positions are
//!   unchanged).
//! * `--crash` — arm the crash plane on every cell: stochastic power
//!   losses and torn writes over the measurement window, recovered by
//!   journaled metadata replay. The CSV's crash columns carry the
//!   recovery counters (all-zero, with 100% recovery success, when the
//!   plane is disarmed — column positions of existing grids unchanged).
//! * `--scrub[=RATE]` — arm the background scrub daemon at `RATE`
//!   verified fragments per interval (default 2 — a 10% bandwidth tithe
//!   on the 20-disk quick farm) on every cell, so torn-write latents
//!   are found and repaired before a display trips over them.
//!
//! Emits `fault_grid.csv` — one row per run with the failure count, the
//! parity/rebuild/sharing knobs, an explicit per-cell throughput-retention
//! column (the 0-fail baseline rows included, at 100%), the self-healing
//! counters, and the stream-sharing counters (zero when sharing is
//! disarmed) — and prints one table block per failure count plus a
//! retention summary. `--quick` swaps in the 20-disk test farm on a
//! reduced station set (the CI smoke configuration).
//!
//! With `--parity` and `--rebuild` both armed the bin gates self-healing
//! after writing its artifacts: every striping 1-failure cell must keep
//! at least 80% of its own zero-failure throughput with no dropped
//! stream, or it exits non-zero (`CI_PERF_STRICT=0` downgrades a miss to
//! a warning).

use serde::Serialize;
use ss_bench::grid::{pct_of, perf_strict, run_cells, success_pct, write_csv, Bound};
use ss_bench::FaultGridOpts;
use ss_server::config::{
    NodeOutage, ParityConfig, RebuildConfig, Scheme, ScrubConfig, SharingConfig,
};
use ss_server::experiment::fig8_configs;
use ss_server::metrics::{format_degraded, format_table};
use ss_server::DistributedConfig;
use ss_server::{RunReport, ServerConfig};
use ss_sim::{CrashFaults, FaultPlan};
use ss_types::{SimDuration, SimTime};

/// The grid's outer axis: how many disks fail concurrently.
const FAILURES: [u32; 3] = [0, 1, 2];

/// Rebuild rates swept by `--rebuild-sweep` (fragments per interval).
const SWEEP_RATES: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// One arm of a grid cell: `cfg` with `failures` concurrent fail/repair
/// windows spanning the middle half of the measurement window, the
/// hot-spare rebuild at `rebuild`, and every other knob `o` arms —
/// parity on striping cells only (VDR's redundancy is replication);
/// stream sharing, the crash plane (stochastic power losses and torn
/// writes) and the scrub daemon everywhere. On a single-box grid the
/// failures are single disks half a farm apart (distinct VDR clusters);
/// with `--nodes=N > 1` each failure is a whole-node outage instead, the
/// nodes spread half the node ring apart.
fn arm(cfg: &ServerConfig, failures: u32, rebuild: Option<u64>, o: &FaultGridOpts) -> ServerConfig {
    let mut cfg = cfg.clone();
    let warmup = cfg.warmup.as_micros();
    let measure = cfg.measure.as_micros();
    let fail_at = SimTime::from_micros(warmup + measure / 4);
    let repair_at = SimTime::from_micros(warmup + 3 * measure / 4);
    match o.nodes {
        Some(n) if n > 1 => {
            let mut d = DistributedConfig::even(n, cfg.disks);
            d.node_outages = (0..failures)
                .map(|f| NodeOutage {
                    node: f * (n / 2) % n,
                    fail_at,
                    repair_at,
                })
                .collect();
            cfg.distributed = Some(d);
        }
        nodes => {
            cfg.distributed = nodes.map(|n| DistributedConfig::even(n, cfg.disks));
            let mut plan = FaultPlan::none();
            for f in 0..failures {
                let disk = f * (cfg.disks / 2);
                plan.events
                    .extend(FaultPlan::fail_window(disk, fail_at, repair_at).events);
            }
            cfg.faults = plan;
        }
    }
    if let (Some(g), Scheme::Striping { .. }) = (o.parity, &cfg.scheme) {
        cfg.parity = Some(ParityConfig::group(g));
    }
    cfg.rebuild = rebuild.map(RebuildConfig::rate);
    cfg.sharing = o.sharing.map(SharingConfig::window);
    if o.crash {
        cfg.faults.crash = Some(CrashFaults {
            power_loss_mtbf: Some(SimDuration::from_secs(900)),
            torn_write_mtbf: Some(SimDuration::from_secs(600)),
            ..Default::default()
        });
    }
    cfg.scrub = o.scrub.map(ScrubConfig::rate);
    cfg
}

/// One `fault_grid.csv` / `rebuild_sweep.csv` row: the run's grid
/// coordinates, its retention against its own 0-fail baseline, and the
/// degraded, self-heal, sharing, distributed and crash counters.
#[derive(Debug, Default, Serialize)]
struct FaultRow {
    scheme: String,
    stations: u32,
    popularity: String,
    failures: u32,
    parity_group: Option<u32>,
    rebuild_rate: Option<u64>,
    batch_window: Option<u64>,
    displays_per_hour: f64,
    retention_pct: f64,
    rescues: u64,
    streams_dropped: u64,
    hiccup_seconds: f64,
    disk_downtime_s: f64,
    degraded_admissions: u64,
    reconstructed_reads: u64,
    backoff_retries: u64,
    backoff_exhausted: u64,
    rebuilds_completed: u64,
    rebuild_seconds: f64,
    rebuild_interference_intervals: u64,
    streams_opened: u64,
    viewers_joined: u64,
    nodes: u32,
    node_outages: u32,
    remote_fragment_intervals: u64,
    interconnect_rejections: u64,
    power_loss_events: u64,
    torn_writes: u64,
    txns_replayed: u64,
    txns_discarded: u64,
    /// 100% when no recovery ran, so the recovery floor reads uniformly
    /// over the grid.
    recovery_success_pct: f64,
    latent_found: u64,
    latent_repaired: u64,
    scrub_interference_intervals: u64,
}

impl FaultRow {
    fn new(r: &RunReport, baseline: &RunReport, failures: u32) -> Self {
        let g = r.degraded.clone().unwrap_or_default();
        let h = g.self_heal.unwrap_or_default();
        let s = r.sharing.unwrap_or_default();
        let d = r.distributed.clone().unwrap_or_default();
        let c = r.crash.clone().unwrap_or_default();
        FaultRow {
            scheme: r.scheme.clone(),
            stations: r.stations,
            popularity: r.popularity.clone(),
            failures,
            parity_group: r.parity_group,
            rebuild_rate: r.rebuild_rate,
            batch_window: r.sharing.map(|s| s.batch_window),
            displays_per_hour: r.displays_per_hour,
            retention_pct: pct_of(r.displays_per_hour, baseline.displays_per_hour),
            rescues: g.rescues,
            streams_dropped: g.streams_dropped,
            hiccup_seconds: g.hiccup_seconds,
            disk_downtime_s: g.disk_downtime_s,
            degraded_admissions: h.degraded_admissions,
            reconstructed_reads: h.reconstructed_reads,
            backoff_retries: h.backoff_retries,
            backoff_exhausted: h.backoff_exhausted,
            rebuilds_completed: h.rebuilds_completed,
            rebuild_seconds: h.rebuild_seconds,
            rebuild_interference_intervals: h.rebuild_interference_intervals,
            streams_opened: s.streams_opened,
            viewers_joined: s.viewers_joined,
            nodes: d.nodes.max(1),
            node_outages: d.node_outages,
            remote_fragment_intervals: d.remote_fragment_intervals,
            interconnect_rejections: d.interconnect_rejections,
            power_loss_events: c.power_loss_events,
            torn_writes: c.torn_write_events,
            txns_replayed: c.txns_replayed,
            txns_discarded: c.txns_discarded,
            recovery_success_pct: success_pct(c.recoveries_clean, c.recoveries),
            latent_found: c.latent_found,
            latent_repaired: c.latent_repaired,
            scrub_interference_intervals: c.scrub_interference_intervals,
        }
    }
}

/// The self-healing CI floor, checked whenever parity and rebuild are
/// both armed: every striping 1-failure cell must hold at least 80% of
/// its own zero-failure throughput with no dropped stream. Rescues are
/// the healing working, not a miss. A grid with no such cell misses too,
/// so the gate never passes having checked nothing.
fn heal_gate(rows: &[FaultRow], strict: bool) -> bool {
    let mut ok = true;
    let mut gated = 0;
    for r in rows
        .iter()
        .filter(|r| r.scheme == "striping" && r.failures == 1)
    {
        let c = format!("striping {}-station 1-failure", r.stations);
        ok &= Bound::Floor(80.0).gate(&format!("{c} retention_pct"), r.retention_pct, strict);
        let dropped = r.streams_dropped as f64;
        ok &= Bound::Ceiling(0.0).gate(&format!("{c} streams_dropped"), dropped, strict);
        gated += 1;
    }
    ok & Bound::Floor(1.0).gate("striping 1-failure cells gated", f64::from(gated), strict)
}

fn main() {
    // Flag parsing lives in `FaultGridOpts` (testable, and the place the
    // sweep-without-rebuild warning is raised).
    let o = FaultGridOpts::from_args();
    let opts = &o.harness;
    let base: Vec<ServerConfig> = if opts.quick {
        let mut v = Vec::new();
        for &stations in &[4u32, 8] {
            v.push(ServerConfig::small_test(stations, opts.seed));
            v.push(ServerConfig::small_vdr_test(stations, opts.seed));
        }
        v
    } else {
        fig8_configs(opts.seed)
    };
    if let Some(n) = o.nodes {
        if let Some(c) = base.iter().find(|c| n == 0 || c.disks % n != 0) {
            eprintln!(
                "fault_grid: --nodes={n} must evenly divide the {}-disk farm",
                c.disks
            );
            std::process::exit(2);
        }
    }
    let striping = |c: &ServerConfig| matches!(c.scheme, Scheme::Striping { .. });
    // Each cell's arms: one per failure count, the zero-failure baseline
    // first, then (striping cells under --rebuild-sweep) one 1-failure
    // arm per swept rebuild rate.
    let cells: Vec<Vec<ServerConfig>> = base
        .iter()
        .map(|c| {
            let mut arms: Vec<ServerConfig> =
                FAILURES.iter().map(|&f| arm(c, f, o.rebuild, &o)).collect();
            if o.sweep && striping(c) {
                arms.extend(SWEEP_RATES.iter().map(|&r| arm(c, 1, Some(r), &o)));
            }
            arms
        })
        .collect();

    eprintln!(
        "running {} simulations ({} cells) on {} threads ...",
        cells.iter().map(Vec::len).sum::<usize>(),
        cells.len(),
        opts.threads
    );
    let t0 = std::time::Instant::now();
    let grid = run_cells(cells, opts.threads);
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());

    // Regroup the reports by failure count, cells in grid order; each
    // cell's swept arms (none on VDR cells) stay apart in `swept`.
    let mut by_failures: Vec<Vec<RunReport>> = FAILURES.iter().map(|_| Vec::new()).collect();
    let mut swept: Vec<Vec<RunReport>> = Vec::new();
    for mut runs in grid {
        swept.push(runs.split_off(FAILURES.len()));
        for (chunk, r) in by_failures.iter_mut().zip(runs) {
            chunk.push(r);
        }
    }
    let baselines = &by_failures[0];
    let rows: Vec<FaultRow> = by_failures
        .iter()
        .zip(&FAILURES)
        .flat_map(|(chunk, &f)| {
            chunk
                .iter()
                .zip(baselines)
                .map(move |(r, r0)| FaultRow::new(r, r0, f))
        })
        .collect();
    write_csv(opts, "fault_grid.csv", &rows);

    for (chunk, &f) in by_failures.iter().zip(&FAILURES) {
        println!("=== {f} concurrent failure(s) ===");
        println!("{}", format_table(chunk));
        if f > 0 {
            println!("{}", format_degraded(chunk));
        }
    }

    // Throughput retention: each cell's displays/hour under 1 and 2
    // failures as a fraction of its own zero-failure run.
    println!("throughput retention vs zero-failure baseline");
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>8} {:>8}",
        "scheme", "stations", "popularity", "disp/hour", "1-fail", "2-fail"
    );
    for ((r0, r1), r2) in baselines.iter().zip(&by_failures[1]).zip(&by_failures[2]) {
        let pct = |r: &RunReport| pct_of(r.displays_per_hour, r0.displays_per_hour);
        println!(
            "{:<10} {:>8} {:>12} {:>10.1} {:>7.1}% {:>7.1}%",
            r0.scheme,
            r0.stations,
            r0.popularity,
            r0.displays_per_hour,
            pct(r1),
            pct(r2),
        );
    }

    if o.crash || o.scrub.is_some() {
        // Crash-plane totals over the whole grid: did recovery hold the
        // line, and did the scrub find what the torn writes planted?
        let sum = |get: &dyn Fn(&ss_server::metrics::CrashStats) -> u64| {
            by_failures
                .iter()
                .flatten()
                .filter_map(|r| r.crash.as_ref())
                .map(get)
                .sum::<u64>()
        };
        let recoveries = sum(&|c| c.recoveries);
        let pct = success_pct(sum(&|c| c.recoveries_clean), recoveries);
        println!(
            "crash plane: {} power losses / {} torn writes; {recoveries} recoveries \
             ({pct:.1}% clean), {} txns replayed, {} discarded; scrub found {} of {} \
             latents, repaired {}",
            sum(&|c| c.power_loss_events),
            sum(&|c| c.torn_write_events),
            sum(&|c| c.txns_replayed),
            sum(&|c| c.txns_discarded),
            sum(&|c| c.latent_found),
            sum(&|c| c.latent_injected),
            sum(&|c| c.latent_repaired),
        );
    }

    if o.sharing.is_some() {
        // The sharing dividend under failures: a shared stream is one
        // rescue plan, so compare rescues issued to the viewers they
        // actually kept on air.
        println!("shared-stream failure retention (one rescue covers a stream's whole crowd)");
        for (chunk, &f) in by_failures.iter().zip(&FAILURES).skip(1) {
            let sum = |get: &dyn Fn(&RunReport) -> u64| chunk.iter().map(get).sum::<u64>();
            let rescues = sum(&|r| r.degraded.clone().unwrap_or_default().rescues);
            let hiccuped = sum(&|r| r.degraded.clone().unwrap_or_default().hiccup_streams);
            let dropped = sum(&|r| r.degraded.clone().unwrap_or_default().streams_dropped);
            let streams = sum(&|r| r.sharing.unwrap_or_default().streams_opened);
            let viewers = sum(&|r| r.sharing.unwrap_or_default().viewers_joined);
            println!(
                "  {f} failure(s): {rescues} rescues over {streams} streams carrying \
                 {viewers} joined viewers; {hiccuped} displays hiccuped, {dropped} dropped"
            );
        }
    }

    if o.sweep {
        // Rebuild-rate sweep over the 1-failure striping cells: how fast
        // must the spare drain before retention saturates? Each swept
        // arm reads against its cell's zero-failure baseline; rows go
        // rate by rate, cells in grid order.
        let rate = |k: usize| {
            swept
                .iter()
                .zip(baselines)
                .filter_map(move |(runs, r0)| runs.get(k).map(|r| FaultRow::new(r, r0, 1)))
        };
        let sweep_rows: Vec<FaultRow> = (0..SWEEP_RATES.len()).flat_map(rate).collect();
        write_csv(opts, "rebuild_sweep.csv", &sweep_rows);
        println!("rebuild-rate sweep (1 failure, striping cells)");
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>12}",
            "rate", "stations", "disp/hour", "rebuild_s", "interference"
        );
        for r in &sweep_rows {
            println!(
                "{:<8} {:>8} {:>10.1} {:>10.1} {:>12}",
                r.rebuild_rate.unwrap_or(0),
                r.stations,
                r.displays_per_hour,
                r.rebuild_seconds,
                r.rebuild_interference_intervals
            );
        }
    }

    if o.parity.is_some() && o.rebuild.is_some() && !heal_gate(&rows, perf_strict()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heal_gate_reads_retention_and_drops() {
        let cell = |scheme: &str, failures, retention_pct, rescues, streams_dropped| FaultRow {
            scheme: scheme.into(),
            failures,
            retention_pct,
            rescues,
            streams_dropped,
            ..FaultRow::default()
        };
        let healed = |retention, rescues, dropped| cell("striping", 1, retention, rescues, dropped);
        assert!(
            !heal_gate(&[healed(79.0, 0, 0)], true),
            "79% misses the floor"
        );
        assert!(
            !heal_gate(&[healed(98.0, 0, 1)], true),
            "one dropped stream"
        );
        assert!(
            heal_gate(&[healed(98.4, 12, 0)], true),
            "rescues are not drops"
        );
        assert!(
            !heal_gate(&[healed(f64::NAN, 0, 0)], true),
            "NaN never passes"
        );
        assert!(
            heal_gate(&[healed(79.0, 0, 1)], false),
            "CI_PERF_STRICT=0 warns"
        );
        // Only the striping 1-failure cells are gated, and a grid with
        // none of them fails rather than passing vacuously.
        let vdr = || cell("vdr", 1, 50.0, 0, 3);
        let double = || cell("striping", 2, 50.0, 0, 3);
        assert!(!heal_gate(&[vdr(), double()], true), "nothing gated");
        assert!(!heal_gate(&[], true), "empty grid");
        assert!(heal_gate(&[], false), "CI_PERF_STRICT=0 warns");
        assert!(
            heal_gate(&[vdr(), double(), healed(98.4, 0, 0)], true),
            "the ungated cells' misses do not count"
        );
    }
}
