//! Engine performance baseline: times the simulator's hot paths and
//! writes a machine-readable `BENCH_engine.json` for before/after
//! comparisons of engine optimizations.
//!
//! Four kernels, covering the layers the perf-sensitive sweeps exercise:
//!
//! 1. **setup** — construct the Table-3 farm (D = 1000) and place
//!    most-popular-first until the farm is full (the preload path every
//!    paper-scale run pays before its first tick).
//! 2. **admission** — the no-free-slot fragmented-admission path on a
//!    saturated 1000-disk farm: 256 waiters retried per interval is the
//!    Figure-8 steady state at 256 stations.
//! 3. **tick** — end-to-end interval ticks of the small-farm striping
//!    server (completion scan + admissions + issue + coalesce + fetch
//!    pump).
//! 4. **grid** — wall-clock of the small-scale Figure-8 analogue grid
//!    through the multi-threaded batch runner.
//!
//! The grid kernel runs twice: single-threaded (`grid`, the canonical
//! before/after number) and at `--threads` parallelism
//! (`grid_parallel`), so the artifact records both raw engine speed and
//! batch-runner scaling. A third section, `grid_quick`, always holds
//! the 6-cell quick grid at one thread so CI smoke runs have a
//! like-for-like number to compare against the committed full baseline.
//!
//! Run from the repo root (`cargo run --release -p ss-bench --bin
//! perf_baseline [-- --quick]`); the JSON artifact is written to
//! `BENCH_engine.json` in the current directory (`BENCH_engine.quick.json`
//! in quick mode, so smoke runs never clobber the committed baseline).
//! `--quick` shrinks the admission/grid workloads for CI smoke runs;
//! the metric names and schema are identical in both modes.
//!
//! `--check-against PATH` compares this run's `grid_quick` wall-clock
//! to the one recorded in the baseline artifact at PATH and exits
//! non-zero if it regressed more than 2×; set `CI_PERF_STRICT=0` to
//! downgrade the failure to a warning (shared CI runners are noisy).
//! It also compares the parallel-grid `speedup_vs_serial` against the
//! baseline's, but — since the artifact records `cores_available` — the
//! comparison is skipped with a notice when either box had fewer than 2
//! cores: on one core the 0.92× "speedup" is batch-runner overhead,
//! not an engine regression.
//!
//! `--gate-parallel` enforces the batch-runner scaling contract: on a
//! machine with at least 4 cores, `grid_parallel` must beat `grid` by
//! 1.5× or the run exits non-zero (same `CI_PERF_STRICT=0` escape). On
//! smaller machines the speedup is recorded but the gate passes, since
//! a 1-core container cannot demonstrate parallel scaling.
//!
//! `--append-history` appends one dated JSONL row to
//! `BENCH_history.jsonl` — the bench trajectory: grid and quick-grid
//! wall-clocks plus the headline number of each merged section
//! (`farm_scale` serial throughput, `sharing` high-skew capacity
//! ratio, `distributed` widest-split outage retention, `crash` recovery
//! and scrub-interference percentages). Sections another bin has not
//! merged yet are skipped with a notice. Quick runs never append (the
//! trajectory tracks full baselines only); to make that composition
//! work, a full run now *merges* its report into an existing
//! `BENCH_engine.json` instead of clobbering it, preserving the
//! sections the grid bins own.

use serde::{Deserialize, Serialize};
use ss_bench::HarnessOpts;
use ss_core::admission::{AdmissionPolicy, IntervalScheduler};
use ss_core::frame::VirtualFrame;
use ss_core::placement::{PlacementMap, StripingConfig};
use ss_server::experiment::{fig8_configs, run_batch_stats};
use ss_server::{ServerConfig, StripingServer};
use ss_types::ObjectId;
use std::time::Instant;

/// Farm-construction kernel result.
#[derive(Debug, Serialize)]
struct SetupMetrics {
    disks: u32,
    objects_placed: u64,
    /// Best-of-reps seconds for one full-farm construction.
    seconds: f64,
    objects_per_sec: f64,
}

/// Saturated fragmented-admission kernel result.
#[derive(Debug, Serialize)]
struct AdmissionMetrics {
    disks: u32,
    waiters: u32,
    rounds: u32,
    attempts: u64,
    seconds: f64,
    attempts_per_sec: f64,
}

/// End-to-end tick kernel result.
#[derive(Debug, Serialize)]
struct TickMetrics {
    stations: u32,
    /// Ticks actually executed by the model.
    ticks: u64,
    /// Interval boundaries skipped by event-driven quiescence.
    ticks_skipped: u64,
    /// Total interval boundaries covered (`ticks + ticks_skipped`).
    intervals: u64,
    seconds: f64,
    ticks_per_sec: f64,
}

/// Small Figure-8 grid wall-clock result.
#[derive(Debug, Clone, Serialize)]
struct GridMetrics {
    configs: u64,
    /// Strands the batch runner actually used (`BatchStats::threads_used`),
    /// not the requested count — a 6-cell grid asked for 8 threads
    /// records 6 here.
    threads: u64,
    seconds: f64,
    /// `grid.seconds / grid_parallel.seconds`; present only on the
    /// parallel section.
    #[serde(skip_serializing_if = "Option::is_none")]
    speedup_vs_serial: Option<f64>,
}

/// The full artifact (`BENCH_engine.json`).
#[derive(Debug, Serialize)]
struct BenchReport {
    mode: String,
    seed: u64,
    setup: SetupMetrics,
    admission: AdmissionMetrics,
    tick: TickMetrics,
    /// Canonical single-threaded grid wall-clock.
    grid: GridMetrics,
    /// The same grid at `--threads` parallelism.
    grid_parallel: GridMetrics,
    /// The 6-cell quick grid at one thread, in every mode, so CI smoke
    /// runs can compare like-for-like against the committed baseline.
    grid_quick: GridMetrics,
    /// Cores the box running the bench exposed
    /// (`std::thread::available_parallelism`). On a single-core box the
    /// parallel grid cannot beat serial — `speedup_vs_serial` below 1.0
    /// is scheduling overhead, not a regression — so comparisons read
    /// this before judging the parallel section.
    cores_available: u64,
    /// Peak resident set (VmHWM) of this process, in kilobytes.
    peak_rss_kb: u64,
}

/// The subset of a baseline artifact `--check-against` needs. Extra
/// fields in the JSON are ignored; `grid_quick` is optional so the
/// check degrades gracefully against pre-schema baselines.
#[derive(Debug, Deserialize)]
struct BaselineProbe {
    grid_quick: Option<BaselineGrid>,
    grid_parallel: Option<BaselineParallel>,
    cores_available: Option<u64>,
}

/// Seconds field of a baseline grid section.
#[derive(Debug, Deserialize)]
struct BaselineGrid {
    seconds: f64,
}

/// Speedup field of a baseline parallel-grid section.
#[derive(Debug, Deserialize)]
struct BaselineParallel {
    speedup_vs_serial: Option<f64>,
}

/// Kernel 1: build the paper farm and preload until full.
fn bench_setup(reps: u32) -> SetupMetrics {
    let config = ServerConfig::paper_striping(1, 20.0, 1994);
    let catalog = config.catalog();
    let striping = StripingConfig {
        disks: config.disks,
        stride: 5,
        fragment: config.fragment_size(),
        b_disk: config.b_disk(),
        parity_group: None,
    };
    let mut best = f64::INFINITY;
    let mut placed = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut map = PlacementMap::new(
            striping.clone(),
            config.disk.cylinders,
            config.cylinders_per_fragment,
        )
        .expect("table-3 placement map");
        placed = 0;
        for spec in catalog.iter() {
            if map.place(spec).is_err() {
                break; // farm full
            }
            placed += 1;
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(map.resident_count());
        best = best.min(dt);
    }
    SetupMetrics {
        disks: config.disks,
        objects_placed: placed,
        seconds: best,
        objects_per_sec: placed as f64 / best,
    }
}

/// Kernel 2: fragmented admission attempts against a farm with no free
/// slot anywhere in the delay window (every attempt must be rejected).
fn bench_admission(waiters: u32, rounds: u32) -> AdmissionMetrics {
    let disks = 1000u32;
    let mut s = IntervalScheduler::new(VirtualFrame::new(disks, 5));
    // Saturate: 200 contiguous degree-5 displays cover all 1000 disks.
    for i in 0..disks / 5 {
        s.try_admit(0, ObjectId(i), i * 5, 5, 3000, AdmissionPolicy::Contiguous)
            .expect("saturating admission");
    }
    let policy = AdmissionPolicy::Fragmented {
        max_buffer_fragments: 64,
        max_delay_intervals: 16,
    };
    let attempts = u64::from(waiters) * u64::from(rounds);
    let t0 = Instant::now();
    let mut rejects = 0u64;
    for round in 0..rounds {
        for w in 0..waiters {
            let start = (w * 7 + round) % disks;
            if s.try_admit(1, ObjectId(disks / 5 + w), start, 5, 3000, policy)
                .is_err()
            {
                rejects += 1;
            }
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(rejects, attempts, "farm must stay saturated");
    AdmissionMetrics {
        disks,
        waiters,
        rounds,
        attempts,
        seconds: dt,
        attempts_per_sec: attempts as f64 / dt,
    }
}

/// Kernel 3: end-to-end interval ticks of the small striping server.
fn bench_tick(stations: u32, seed: u64) -> TickMetrics {
    let mut cfg = ServerConfig::small_test(stations, seed);
    cfg.verify_delivery = false; // time the engine, not the checker
    let mut server = StripingServer::new(cfg).expect("small config");
    let mut ticks = 0u64;
    let t0 = Instant::now();
    while server.step() {
        ticks += 1;
    }
    let dt = t0.elapsed().as_secs_f64();
    let ticks_skipped = server.model().ticks_skipped();
    TickMetrics {
        stations,
        ticks,
        ticks_skipped,
        intervals: ticks + ticks_skipped,
        seconds: dt,
        ticks_per_sec: ticks as f64 / dt,
    }
}

/// Kernel 4: the quick Figure-8 grid (paper-scale D = 1000 cells with
/// shortened measurement windows), wall-clock through the batch runner.
fn bench_grid(quick: bool, seed: u64, threads: usize) -> GridMetrics {
    let mut configs = if quick {
        // One distribution, three loads spanning idle → saturated.
        [16u32, 64, 256]
            .into_iter()
            .flat_map(|n| {
                [
                    ServerConfig::paper_striping(n, 20.0, seed),
                    ServerConfig::paper_vdr(n, 20.0, seed),
                ]
            })
            .collect::<Vec<_>>()
    } else {
        fig8_configs(seed)
    };
    for c in &mut configs {
        c.warmup = ss_types::SimDuration::from_secs(1800);
        c.measure = ss_types::SimDuration::from_secs(3600);
    }
    let n = configs.len() as u64;
    let t0 = Instant::now();
    let (reports, stats) = run_batch_stats(configs, threads);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(reports.len() as u64, n);
    std::hint::black_box(&reports);
    GridMetrics {
        configs: n,
        threads: stats.threads_used as u64,
        seconds: dt,
        speedup_vs_serial: None,
    }
}

/// Peak resident set size of this process (VmHWM), in kB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peels `--check-against PATH`, `--gate-parallel` and
/// `--append-history` off the raw argument list (perf_baseline-specific
/// flags `HarnessOpts` does not know about).
fn split_local_flags(mut raw: Vec<String>) -> (Vec<String>, Option<String>, bool, bool) {
    let mut peel = |flag: &str| match raw.iter().position(|a| a == flag) {
        Some(i) => {
            raw.remove(i);
            true
        }
        None => false,
    };
    let gate_parallel = peel("--gate-parallel");
    let append_history = peel("--append-history");
    match raw.iter().position(|a| a == "--check-against") {
        Some(i) => {
            raw.remove(i);
            if i < raw.len() {
                let path = raw.remove(i);
                (raw, Some(path), gate_parallel, append_history)
            } else {
                eprintln!("--check-against takes a path");
                std::process::exit(2);
            }
        }
        None => (raw, None, gate_parallel, append_history),
    }
}

/// The `--gate-parallel` CI gate: with 4 or more cores available, the
/// parallel grid must beat the serial grid by at least 1.5x. On smaller
/// machines (this includes 1-core CI containers, where the batch runner
/// cannot win) the gate reports and passes. `CI_PERF_STRICT=0`
/// downgrades a failure to a warning.
fn gate_parallel_speedup(grid: &GridMetrics, grid_parallel: &GridMetrics) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup = grid.seconds / grid_parallel.seconds;
    if cores < 4 {
        eprintln!(
            "gate-parallel: only {cores} core(s) available; speedup {speedup:.2}x recorded, gate skipped (needs >= 4)"
        );
        return true;
    }
    eprintln!(
        "gate-parallel: {speedup:.2}x on {} threads ({cores} cores); need >= 1.5x",
        grid_parallel.threads
    );
    if speedup >= 1.5 {
        return true;
    }
    let strict = std::env::var("CI_PERF_STRICT").map_or(true, |v| v != "0");
    if strict {
        eprintln!(
            "gate-parallel: FAIL — parallel grid only {speedup:.2}x vs serial (limit 1.5x); set CI_PERF_STRICT=0 to downgrade"
        );
        false
    } else {
        eprintln!("gate-parallel: WARN — parallel grid only {speedup:.2}x but CI_PERF_STRICT=0");
        true
    }
}

/// Compares this run's quick-grid wall-clock to the baseline artifact
/// at `path`; returns false on a >2x regression (unless
/// `CI_PERF_STRICT=0` downgrades it to a warning). Also compares the
/// parallel-grid speedup, but only when both this box and the baseline's
/// had 2 or more cores — on a single core `speedup_vs_serial` measures
/// scheduling overhead (0.92x is normal), not engine speed, and judging
/// it would flag every 1-core CI box as a regression.
fn check_against(path: &str, report: &BenchReport) -> bool {
    let current = &report.grid_quick;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-against: cannot read {path}: {e}");
            return false;
        }
    };
    let probe: BaselineProbe = match serde_json::from_str(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("check-against: cannot parse {path}: {e:?}");
            return false;
        }
    };
    let quick_ok = match &probe.grid_quick {
        None => {
            eprintln!(
                "check-against: {path} has no grid_quick section (pre-schema baseline); skipping"
            );
            true
        }
        Some(baseline) => {
            let ratio = current.seconds / baseline.seconds;
            eprintln!(
                "check-against: quick grid {:.3} s vs baseline {:.3} s ({ratio:.2}x)",
                current.seconds, baseline.seconds
            );
            if ratio <= 2.0 {
                true
            } else {
                let strict = std::env::var("CI_PERF_STRICT").map_or(true, |v| v != "0");
                if strict {
                    eprintln!("check-against: FAIL — quick grid regressed {ratio:.2}x (limit 2x); set CI_PERF_STRICT=0 to downgrade");
                    false
                } else {
                    eprintln!(
                        "check-against: WARN — quick grid regressed {ratio:.2}x but CI_PERF_STRICT=0"
                    );
                    true
                }
            }
        }
    };
    quick_ok && check_parallel_against(path, &probe, report)
}

/// The parallel leg of `--check-against`: this run's `speedup_vs_serial`
/// must hold at least half the baseline's. Skipped — with a notice — when
/// either box exposes fewer than 2 cores, or when the baseline predates
/// the speedup field.
fn check_parallel_against(path: &str, probe: &BaselineProbe, report: &BenchReport) -> bool {
    let speedup = report.grid_parallel.speedup_vs_serial.unwrap_or(1.0);
    if report.cores_available < 2 {
        eprintln!(
            "check-against: {} core(s) available; parallel comparison skipped (speedup {speedup:.2}x on one core measures batch-runner overhead, not engine speed)",
            report.cores_available
        );
        return true;
    }
    if probe.cores_available.is_some_and(|c| c < 2) {
        eprintln!(
            "check-against: baseline {path} was taken on a single core; parallel comparison skipped"
        );
        return true;
    }
    let Some(base) = probe
        .grid_parallel
        .as_ref()
        .and_then(|p| p.speedup_vs_serial)
    else {
        eprintln!("check-against: {path} records no parallel speedup; skipping that comparison");
        return true;
    };
    let ratio = speedup / base;
    eprintln!("check-against: parallel speedup {speedup:.2}x vs baseline {base:.2}x ({ratio:.2}x)");
    if ratio >= 0.5 {
        return true;
    }
    let strict = std::env::var("CI_PERF_STRICT").map_or(true, |v| v != "0");
    if strict {
        eprintln!("check-against: FAIL — parallel speedup fell to {ratio:.2}x of baseline (limit 0.5x); set CI_PERF_STRICT=0 to downgrade");
        false
    } else {
        eprintln!(
            "check-against: WARN — parallel speedup fell to {ratio:.2}x of baseline but CI_PERF_STRICT=0"
        );
        true
    }
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock alone
/// (days-since-epoch to civil-date arithmetic; no calendar crate).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Carries over any top-level sections of the existing artifact that
/// this run's report does not itself produce (`farm_scale`, `sharing`,
/// `distributed`, `crash` — owned by the grid bins), so a full
/// perf_baseline rerun refreshes the engine kernels without discarding
/// the merged grid results.
fn preserve_foreign_sections(report: &mut serde_json::Value, path: &str) {
    let serde_json::Value::Map(new) = report else {
        return;
    };
    let Some(old) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<serde_json::Value>(&t).ok())
    else {
        return;
    };
    let serde_json::Value::Map(old) = old else {
        return;
    };
    for (k, v) in old {
        if !new.iter().any(|(nk, _)| *nk == k) {
            eprintln!("preserving merged `{k}` section from the previous {path}");
            new.push((k, v));
        }
    }
}

/// Reads `name.field` out of the merged artifact tree, if the grid bin
/// owning that section has merged it.
fn section_field(merged: &serde_json::Value, name: &str, field: &str) -> Option<serde_json::Value> {
    let serde_json::Value::Map(top) = merged else {
        return None;
    };
    let serde_json::Value::Map(section) = serde::field(top, name)? else {
        return None;
    };
    serde::field(section, field).cloned()
}

/// Appends one dated row to `BENCH_history.jsonl`: the canonical grid
/// wall-clocks plus each merged section's headline number. Sections a
/// grid bin has not merged into the artifact yet are skipped with a
/// notice, so the trajectory row is exactly as wide as the baseline it
/// describes.
fn append_history(report: &BenchReport, merged: &serde_json::Value) {
    const PATH: &str = "BENCH_history.jsonl";
    let mut row: Vec<(String, serde_json::Value)> = vec![
        ("date".into(), serde_json::Value::Str(utc_date())),
        ("seed".into(), serde_json::Value::U64(report.seed)),
        (
            "grid_seconds".into(),
            serde_json::Value::F64(report.grid.seconds),
        ),
        (
            "grid_quick_seconds".into(),
            serde_json::Value::F64(report.grid_quick.seconds),
        ),
        (
            "grid_parallel_speedup".into(),
            serde_json::Value::F64(report.grid_parallel.speedup_vs_serial.unwrap_or(1.0)),
        ),
    ];
    fn take(
        row: &mut Vec<(String, serde_json::Value)>,
        merged: &serde_json::Value,
        key: &str,
        section: &str,
        field: &str,
    ) {
        match section_field(merged, section, field) {
            Some(v) => row.push((key.to_string(), v)),
            None => eprintln!(
                "append-history: no `{section}` section in the baseline; run its grid bin to record `{key}`"
            ),
        }
    }
    // farm_scale headline: at-scale throughput (100k-disk cell).
    match section_field(merged, "farm_scale", "serial") {
        Some(serde_json::Value::Map(fs)) => match serde::field(&fs, "ticks_per_sec") {
            Some(v) => row.push(("farm_scale_ticks_per_sec".into(), v.clone())),
            None => eprintln!("append-history: `farm_scale.serial` has no ticks_per_sec"),
        },
        _ => eprintln!(
            "append-history: no `farm_scale` section in the baseline; run farm_scale to record `farm_scale_ticks_per_sec`"
        ),
    }
    take(
        &mut row,
        merged,
        "sharing_high_skew_ratio",
        "sharing",
        "high_skew_ratio",
    );
    // distributed headline: the widest split's single-node-outage
    // retention (the number node_grid's CI gate holds a floor under).
    match section_field(merged, "distributed", "cells") {
        Some(serde_json::Value::Seq(cells)) => {
            let widest = cells
                .iter()
                .filter_map(|c| match c {
                    serde_json::Value::Map(m) => Some(m),
                    _ => None,
                })
                .max_by_key(|m| match serde::field(m, "nodes") {
                    Some(serde_json::Value::U64(n)) => *n,
                    _ => 0,
                });
            match widest.and_then(|m| serde::field(m, "retention_pct")) {
                Some(v) => row.push(("distributed_outage_retention_pct".into(), v.clone())),
                None => eprintln!("append-history: `distributed.cells` has no retention headline"),
            }
        }
        _ => eprintln!(
            "append-history: no `distributed` section in the baseline; run node_grid to record `distributed_outage_retention_pct`"
        ),
    }
    take(
        &mut row,
        merged,
        "crash_recovery_success_pct",
        "crash",
        "recovery_success_pct",
    );
    take(
        &mut row,
        merged,
        "crash_scrub_interference_pct",
        "crash",
        "scrub_interference_pct",
    );
    let line = serde_json::to_string(&serde_json::Value::Map(row)).expect("serialize history row");
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(PATH)
        .expect("open history trajectory");
    writeln!(f, "{line}").expect("append history row");
    eprintln!("appended trajectory row to {PATH}");
}

fn main() {
    let (raw, check_path, gate_parallel, append) =
        split_local_flags(std::env::args().skip(1).collect());
    let opts = match HarnessOpts::parse_from(raw) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mode = if opts.quick { "quick" } else { "full" };
    eprintln!("perf_baseline ({mode} mode, seed {})", opts.seed);

    let setup = bench_setup(if opts.quick { 1 } else { 3 });
    eprintln!(
        "setup:     {} objects on {} disks in {:.3} s ({:.0} obj/s)",
        setup.objects_placed, setup.disks, setup.seconds, setup.objects_per_sec
    );

    let (waiters, rounds) = if opts.quick { (256, 20) } else { (256, 200) };
    let admission = bench_admission(waiters, rounds);
    eprintln!(
        "admission: {} saturated attempts in {:.3} s ({:.0} attempts/s)",
        admission.attempts, admission.seconds, admission.attempts_per_sec
    );

    let tick = bench_tick(16, opts.seed);
    eprintln!(
        "tick:      {} ticks (+{} skipped, {} intervals) at 16 stations in {:.3} s ({:.0} ticks/s)",
        tick.ticks, tick.ticks_skipped, tick.intervals, tick.seconds, tick.ticks_per_sec
    );

    // In full mode, measure the quick grid BEFORE the 54-cell grids:
    // CI's quick runs measure it as the process's first grid (cold
    // allocator and page cache), and the committed baseline must be
    // taken at the same point in the lifecycle or the >2x regression
    // gate compares a cold run against a systematically warm one.
    let grid_quick_full = if opts.quick {
        None
    } else {
        let g = bench_grid(true, opts.seed, 1);
        eprintln!(
            "grid_quick: {} configs on 1 thread in {:.3} s",
            g.configs, g.seconds
        );
        Some(g)
    };

    let grid = bench_grid(opts.quick, opts.seed, 1);
    eprintln!(
        "grid:      {} configs on 1 thread in {:.3} s",
        grid.configs, grid.seconds
    );
    let mut grid_parallel = bench_grid(opts.quick, opts.seed, opts.threads);
    grid_parallel.speedup_vs_serial = Some(grid.seconds / grid_parallel.seconds);
    eprintln!(
        "grid_par:  {} configs on {} threads in {:.3} s ({:.2}x speedup)",
        grid_parallel.configs,
        grid_parallel.threads,
        grid_parallel.seconds,
        grid.seconds / grid_parallel.seconds
    );
    let grid_quick = grid_quick_full.unwrap_or_else(|| grid.clone());

    let report = BenchReport {
        mode: mode.to_string(),
        seed: opts.seed,
        setup,
        admission,
        tick,
        grid,
        grid_parallel,
        grid_quick,
        cores_available: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            as u64,
        peak_rss_kb: peak_rss_kb(),
    };
    // Quick (smoke) runs get their own artifact so they never clobber
    // the committed full baseline; full runs refresh the kernel
    // sections in place, keeping whatever the grid bins merged.
    let out = if opts.quick {
        "BENCH_engine.quick.json"
    } else {
        "BENCH_engine.json"
    };
    use serde::Serialize as _;
    let mut merged = report.to_value();
    if !opts.quick {
        preserve_foreign_sections(&mut merged, out);
    }
    let json = serde_json::to_string_pretty(&merged).expect("serialize report");
    std::fs::write(out, format!("{json}\n")).expect("write baseline artifact");
    println!("{json}");
    eprintln!("wrote {out}");

    if append {
        if opts.quick {
            eprintln!(
                "append-history: quick mode; BENCH_history.jsonl records full baselines only"
            );
        } else {
            append_history(&report, &merged);
        }
    }

    let mut ok = true;
    if let Some(path) = check_path {
        ok &= check_against(&path, &report);
    }
    if gate_parallel {
        ok &= gate_parallel_speedup(&report.grid, &report.grid_parallel);
    }
    if !ok {
        std::process::exit(1);
    }
}
