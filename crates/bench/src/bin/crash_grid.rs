//! Crash-consistency grid: power-loss/torn-write fault injection ×
//! scrub-daemon verification rate, on both schemes.
//!
//! Every cell runs the small closed-loop farm with one of four arming
//! states — neither, crash plane only, scrub daemon only, both — and
//! reports throughput retention against the cell's own unarmed baseline
//! next to the crash counters: recoveries (and how many verified
//! clean), journal transactions replayed/discarded, forced refetches,
//! and the latent-error injection/detection/repair ledger with its
//! dwell time. After writing its artifacts the bin gates two headline
//! numbers, exiting non-zero on a miss:
//!
//! * `recovery_success_pct` — clean recoveries as a share of all
//!   journal recoveries across every crash-armed cell (floor 99%; a
//!   correctness gate, so `CI_PERF_STRICT=0` never relaxes it).
//! * `scrub_interference_pct` — throughput given up by arming the scrub
//!   daemon on a crash-free run, worst case over the grid (ceiling
//!   10%; `CI_PERF_STRICT=0` downgrades a miss to a warning). VDR's
//!   scrub is a metadata-only walk, so its interference is
//!   structurally zero; the striping scheme books real verification
//!   bandwidth and pays for it here.
//!
//! Emits `crash_grid.csv` and `crash_grid.json`. `--quick` runs one
//! scrub rate on a shortened window — the CI smoke mode `scripts/ci.sh`
//! runs.
//!
//! Run from the repo root:
//! `cargo run --release -p ss-bench --bin crash_grid [-- --quick]`.

use serde::Serialize;
use ss_bench::grid::{pct_of, perf_strict, run_cells, success_pct, write_csv, write_json, Bound};
use ss_bench::HarnessOpts;
use ss_server::config::ScrubConfig;
use ss_server::{RunReport, ServerConfig};
use ss_sim::CrashFaults;
use ss_types::SimDuration;

/// One (scheme, crash, scrub) cell — a `crash_grid.csv` row.
#[derive(Debug, Serialize)]
struct CrashCell {
    scheme: String,
    crash: bool,
    /// Scrub verification rate (fragments per interval; 0 = daemon off).
    scrub_rate: u64,
    displays_per_hour: f64,
    /// Throughput as a percentage of the same scheme's unarmed baseline.
    retention_pct: f64,
    power_loss_events: u64,
    torn_writes: u64,
    recoveries: u64,
    recoveries_clean: u64,
    txns_journaled: u64,
    txns_replayed: u64,
    txns_discarded: u64,
    objects_refetched: u64,
    latent_injected: u64,
    latent_found: u64,
    latent_repaired: u64,
    latent_dwell_s: f64,
    scrub_passes: u64,
    scrub_interference_intervals: u64,
}

/// The `crash_grid.json` artifact.
#[derive(Debug, Serialize)]
struct CrashGridReport {
    mode: String,
    seed: u64,
    stations: u32,
    disks: u32,
    /// Mean time between stochastic power losses (seconds).
    power_loss_mtbf_s: u64,
    /// Mean time between stochastic torn writes (seconds).
    torn_write_mtbf_s: u64,
    cells: Vec<CrashCell>,
    /// Clean recoveries over all recoveries, crash-armed cells pooled
    /// (100 when no recovery ran) — the CI recovery-success gate.
    recovery_success_pct: f64,
    /// Worst-case throughput cost of arming the scrub daemon on a
    /// crash-free run — the CI interference gate.
    scrub_interference_pct: f64,
    /// Latents found over latents injected, scrub-armed cells pooled
    /// (100 when nothing was injected).
    latent_find_pct: f64,
}

const POWER_LOSS_MTBF_S: u64 = 600;
const TORN_WRITE_MTBF_S: u64 = 400;

/// The workload every cell shares: the 20-disk small farm under a
/// moderate closed loop, cold-started so journal transactions flow.
fn cell_config(opts: &HarnessOpts, scheme: &str) -> ServerConfig {
    let mut c = match scheme {
        "striping" => ServerConfig::small_test(4, opts.seed),
        _ => ServerConfig::small_vdr_test(4, opts.seed),
    };
    c.verify_delivery = false;
    if opts.quick {
        c.warmup = SimDuration::from_secs(120);
        c.measure = SimDuration::from_secs(900);
    }
    c
}

/// `cfg` with the crash plane and the scrub daemon armed as asked.
fn armed(mut cfg: ServerConfig, crash: bool, scrub_rate: u64) -> ServerConfig {
    if crash {
        cfg.faults.crash = Some(CrashFaults {
            power_loss_mtbf: Some(SimDuration::from_secs(POWER_LOSS_MTBF_S)),
            torn_write_mtbf: Some(SimDuration::from_secs(TORN_WRITE_MTBF_S)),
            ..Default::default()
        });
    }
    if scrub_rate > 0 {
        cfg.scrub = Some(ScrubConfig::rate(scrub_rate));
    }
    cfg
}

fn cell(
    scheme: &str,
    crash: bool,
    scrub_rate: u64,
    r: &RunReport,
    baseline: &RunReport,
) -> CrashCell {
    let c = r.crash.clone().unwrap_or_default();
    CrashCell {
        scheme: scheme.to_string(),
        crash,
        scrub_rate,
        displays_per_hour: r.displays_per_hour,
        retention_pct: pct_of(r.displays_per_hour, baseline.displays_per_hour),
        power_loss_events: c.power_loss_events,
        torn_writes: c.torn_write_events,
        recoveries: c.recoveries,
        recoveries_clean: c.recoveries_clean,
        txns_journaled: c.txns_journaled,
        txns_replayed: c.txns_replayed,
        txns_discarded: c.txns_discarded,
        objects_refetched: c.objects_refetched,
        latent_injected: c.latent_injected,
        latent_found: c.latent_found,
        latent_repaired: c.latent_repaired,
        latent_dwell_s: c.latent_dwell_s,
        scrub_passes: c.scrub_passes,
        scrub_interference_intervals: c.scrub_interference_intervals,
    }
}

/// The two CI headlines: pooled recovery success, a correctness floor
/// nothing downgrades, and scrub interference, a perf ceiling `strict`
/// governs.
fn crash_gates(recovery_success_pct: f64, scrub_interference_pct: f64, strict: bool) -> bool {
    let recovered = Bound::Floor(99.0).gate("recovery_success_pct", recovery_success_pct, true);
    let tithe = Bound::Ceiling(10.0).gate("scrub_interference_pct", scrub_interference_pct, strict);
    recovered && tithe
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mode = if opts.quick { "quick" } else { "full" };
    eprintln!("crash_grid ({mode} mode, seed {})", opts.seed);

    // The rate is fragments per interval out of the farm's D per
    // interval, so on the 20-disk farm rate 2 is a 10% bandwidth tithe —
    // the interference ceiling CI holds the worst cell to.
    let scrub_rates: &[u64] = if opts.quick { &[2] } else { &[1, 2] };
    let schemes = ["striping", "vdr"];
    // Every scheme's arming states, the unarmed baseline first: crash
    // only, then scrub only and both at each rate.
    let arms: Vec<(bool, u64)> = [(false, 0), (true, 0)]
        .into_iter()
        .chain(scrub_rates.iter().flat_map(|&r| [(false, r), (true, r)]))
        .collect();
    let grid = run_cells(
        schemes
            .iter()
            .map(|s| {
                arms.iter()
                    .map(|&(crash, rate)| armed(cell_config(&opts, s), crash, rate))
                    .collect()
            })
            .collect(),
        opts.threads,
    );
    let cells: Vec<CrashCell> = schemes
        .iter()
        .zip(&grid)
        .flat_map(|(s, runs)| {
            arms.iter()
                .zip(runs)
                .map(|(&(crash, rate), r)| cell(s, crash, rate, r, &runs[0]))
        })
        .collect();
    for c in &cells {
        eprintln!(
            "{} crash={} scrub={}: {:.1} disp/h ({:.1}%), {} recoveries ({} clean), \
             latents {}/{} found, {} repaired",
            c.scheme,
            c.crash,
            c.scrub_rate,
            c.displays_per_hour,
            c.retention_pct,
            c.recoveries,
            c.recoveries_clean,
            c.latent_found,
            c.latent_injected,
            c.latent_repaired,
        );
    }

    let sum = |get: &dyn Fn(&CrashCell) -> u64| cells.iter().map(get).sum::<u64>();
    let recovery_success_pct = success_pct(sum(&|c| c.recoveries_clean), sum(&|c| c.recoveries));
    let scrubbed = |c: &CrashCell, n: u64| if c.scrub_rate > 0 { n } else { 0 };
    let latent_find_pct = success_pct(
        sum(&|c| scrubbed(c, c.latent_found)),
        sum(&|c| scrubbed(c, c.latent_injected)),
    );
    // The worst throughput a crash-free scrub cost; an undefined
    // retention (zero baseline) makes the headline undefined too.
    let interference: Vec<f64> = cells
        .iter()
        .filter(|c| !c.crash && c.scrub_rate > 0)
        .map(|c| 100.0 - c.retention_pct)
        .collect();
    let scrub_interference_pct = if interference.iter().any(|x| x.is_nan()) {
        f64::NAN
    } else {
        interference.into_iter().fold(0.0, f64::max)
    };

    let probe = cell_config(&opts, "striping");
    let report = CrashGridReport {
        mode: mode.to_string(),
        seed: opts.seed,
        stations: probe.stations,
        disks: probe.disks,
        power_loss_mtbf_s: POWER_LOSS_MTBF_S,
        torn_write_mtbf_s: TORN_WRITE_MTBF_S,
        cells,
        recovery_success_pct,
        scrub_interference_pct,
        latent_find_pct,
    };

    write_csv(&opts, "crash_grid.csv", &report.cells);
    write_json(&opts, "crash_grid.json", &report);
    if !crash_gates(recovery_success_pct, scrub_interference_pct, perf_strict()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_floor_is_hard_and_interference_ceiling_escapable() {
        assert!(crash_gates(100.0, 2.8, true));
        assert!(!crash_gates(98.9, 0.0, true), "recovery below 99%");
        assert!(
            !crash_gates(98.9, 0.0, false),
            "CI_PERF_STRICT=0 never relaxes the recovery floor"
        );
        assert!(
            !crash_gates(f64::NAN, 0.0, false),
            "NaN recovery fails hard"
        );
        assert!(!crash_gates(100.0, 10.5, true), "interference above 10%");
        assert!(crash_gates(100.0, 10.5, false), "CI_PERF_STRICT=0 warns");
        assert!(!crash_gates(100.0, f64::NAN, true), "NaN interference");
    }
}
