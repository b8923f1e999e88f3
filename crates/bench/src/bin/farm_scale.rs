//! Farm-scale stress bench: one hundred thousand disks under a large
//! closed-loop station population, the regime §5 projects staggered
//! striping into ("systems with thousands of disk drives").
//!
//! The scenario runs once, serially, and reports wall-clock, interval
//! throughput, and the process's peak resident set.
//!
//! `--quick` shrinks the station population and measurement window for
//! CI smoke runs (same farm width). In full mode the result is also
//! merged into `BENCH_engine.json` under a `farm_scale` key so the
//! committed engine baseline carries the at-scale numbers next to the
//! kernel timings.
//!
//! Run from the repo root:
//! `cargo run --release -p ss-bench --bin farm_scale [-- --quick]`.

use serde::Serialize;
use ss_bench::HarnessOpts;
use ss_server::{ServerConfig, StripingServer};
use ss_types::SimDuration;
use std::time::Instant;

/// One timed run of the 100k-disk scenario.
#[derive(Debug, Serialize)]
struct CellMetrics {
    /// Interval boundaries actually simulated.
    ticks: u64,
    /// Boundaries skipped by event-driven quiescence.
    ticks_skipped: u64,
    displays_completed: u64,
    seconds: f64,
    ticks_per_sec: f64,
}

/// The `farm_scale.json` artifact (and the `farm_scale` section of
/// `BENCH_engine.json` in full mode).
#[derive(Debug, Serialize)]
struct FarmScaleReport {
    mode: String,
    seed: u64,
    disks: u32,
    stations: u32,
    objects: u32,
    /// Simulated seconds covered (warmup + measurement).
    simulated_seconds: u64,
    serial: CellMetrics,
    /// Peak resident set (VmHWM) of this process, in kilobytes — the
    /// at-scale memory footprint.
    peak_rss_kb: u64,
}

/// The 100,000-disk scenario. The catalog keeps the Table-3 object
/// shape (M = 5, 3000 subobjects) so per-display work matches the
/// paper; only the farm width and station population scale up.
fn scale_config(opts: &HarnessOpts) -> ServerConfig {
    let stations = if opts.quick { 256 } else { 2048 };
    let mut c = ServerConfig::paper_striping(stations, 20.0, opts.seed);
    c.disks = 100_000;
    c.objects = 2000;
    // One Table-3 display runs 1814 s; the window must cover several
    // full display cycles or the run measures only startup.
    c.warmup = SimDuration::from_secs(if opts.quick { 300 } else { 1800 });
    c.measure = SimDuration::from_secs(if opts.quick { 3600 } else { 7200 });
    c
}

/// Runs one cell to completion, timing the whole lifecycle (construction
/// + preload + every tick).
fn run_cell(config: ServerConfig) -> CellMetrics {
    let t0 = Instant::now();
    let mut server = StripingServer::new(config).expect("farm-scale config");
    let mut ticks = 0u64;
    while server.step() {
        ticks += 1;
    }
    let dt = t0.elapsed().as_secs_f64();
    let ticks_skipped = server.model().ticks_skipped();
    // The event queue is drained, so `run` just assembles the report.
    let report = server.run();
    CellMetrics {
        ticks,
        ticks_skipped,
        displays_completed: report.displays_completed,
        seconds: dt,
        ticks_per_sec: ticks as f64 / dt,
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

/// Merges `report` into `BENCH_engine.json` under the `farm_scale` key,
/// replacing any previous section and leaving every other key intact.
/// Missing or unparsable baselines are left alone (the full
/// `perf_baseline` run owns creating the file).
fn merge_into_baseline(report: &FarmScaleReport) {
    const PATH: &str = "BENCH_engine.json";
    let Ok(text) = std::fs::read_to_string(PATH) else {
        eprintln!("{PATH} not found; run perf_baseline first to merge the farm_scale section");
        return;
    };
    let mut value: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse {PATH} ({e:?}); leaving it untouched");
            return;
        }
    };
    let serde_json::Value::Map(entries) = &mut value else {
        eprintln!("{PATH} is not a JSON object; leaving it untouched");
        return;
    };
    use serde::Serialize as _;
    let section = report.to_value();
    match entries.iter_mut().find(|(k, _)| k == "farm_scale") {
        Some((_, v)) => *v = section,
        None => entries.push(("farm_scale".to_string(), section)),
    }
    let json = serde_json::to_string_pretty(&value).expect("serialize merged baseline");
    std::fs::write(PATH, format!("{json}\n")).expect("write merged baseline");
    eprintln!("merged farm_scale section into {PATH}");
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mode = if opts.quick { "quick" } else { "full" };
    eprintln!("farm_scale ({mode} mode, seed {})", opts.seed);

    let config = scale_config(&opts);
    let (disks, stations, objects) = (config.disks, config.stations, config.objects);
    let simulated_seconds =
        config.warmup.as_secs_f64() as u64 + config.measure.as_secs_f64() as u64;
    let serial = run_cell(config);
    eprintln!(
        "serial: {} ticks (+{} skipped) in {:.3} s ({:.0} ticks/s), {} displays",
        serial.ticks,
        serial.ticks_skipped,
        serial.seconds,
        serial.ticks_per_sec,
        serial.displays_completed
    );

    let report = FarmScaleReport {
        mode: mode.to_string(),
        seed: opts.seed,
        disks,
        stations,
        objects,
        simulated_seconds,
        serial,
        peak_rss_kb: peak_rss_kb(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    opts.write_artifact("farm_scale.json", &format!("{json}\n"));
    println!("{json}");

    if !opts.quick {
        merge_into_baseline(&report);
    }
}
