//! Engine performance baseline: times the Figure-8 grid through the
//! batch runner, checks the CI perf gates against the committed
//! `BENCH_engine.json`, and writes its own artifact. Per-layer engine
//! costs (catalog placement, admission, tick percentiles), the
//! 100,000-disk cell and the recorder's cost are the repository
//! benchmark's (`crates/bench/src/bin/benchmark/`); this binary keeps
//! only the sections its gates read.
//!
//! The grid runs twice: single-threaded (`grid`, the canonical
//! before/after number) and at `--threads` parallelism
//! (`grid_parallel`), so the artifact records both raw engine speed and
//! batch-runner scaling. A third section, `grid_quick`, always holds
//! the 6-cell quick grid at one thread so CI smoke runs have a
//! like-for-like number to compare against the committed full baseline.
//!
//! Run from the repo root (`cargo run --release -p ss-bench --bin
//! perf_baseline [-- --quick]`). `--quick` runs the quick grid in place
//! of the 54-cell one and writes `BENCH_engine.quick.json`, so smoke
//! runs never touch the committed baseline; a full run rewrites
//! `BENCH_engine.json` whole, which is how the baseline is re-taken.
//! The metric names and schema are identical in both modes.
//!
//! Every run, before it times anything, reads the committed
//! `BENCH_engine.json` in the current directory, then gates:
//!
//! * this run's `grid_quick` wall-clock may be at most 2× the
//!   baseline's;
//! * on a box with at least 4 cores, `grid_parallel` must beat `grid`
//!   by 1.5× (a 1-core container cannot demonstrate parallel scaling).
//!
//! There is no gate on the quick grid's parallel speedup: six cells on
//! two threads show no parallelism to compare with the 54-cell
//! baseline's.
//!
//! A miss exits non-zero; `CI_PERF_STRICT=0` downgrades it to a warning
//! (shared CI runners are noisy). A baseline that is missing, does not
//! parse, or lacks `grid_quick` fails the run whatever
//! `CI_PERF_STRICT` says, so no gate passes vacuously.

use serde::{Deserialize, Serialize};
use ss_bench::grid::{perf_strict, Bound};
use ss_bench::HarnessOpts;
use ss_server::experiment::{fig8_configs, run_batch_stats};
use ss_server::ServerConfig;
use std::time::Instant;

/// The committed engine baseline, read by every run's gates and
/// rewritten by a full run.
const BASELINE: &str = "BENCH_engine.json";

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
}

/// The field of the baseline artifact the gates read. It is required:
/// a baseline missing it fails to parse, like a garbled file. Extra
/// fields in the JSON are ignored.
#[derive(Debug, Deserialize)]
struct Baseline {
    grid_quick: BaselineGrid,
}

/// Seconds field of a baseline grid section.
#[derive(Debug, Deserialize)]
struct BaselineGrid {
    seconds: f64,
}

/// Parses baseline artifact text, naming [`BASELINE`] in the error.
fn parse_baseline(text: &str) -> Result<Baseline, String> {
    serde_json::from_str(text).map_err(|e| format!("cannot parse {BASELINE}: {e}"))
}

/// The Figure-8 grid (paper-scale D = 1000 cells with shortened
/// measurement windows; the 6-cell quick grid when `quick`), wall-clock
/// through the batch runner.
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

/// The scaling gate: with 4 or more cores available, the parallel grid
/// must beat the serial grid by at least 1.5x. On smaller machines
/// (this includes 1-core CI containers, where the batch runner cannot
/// win) the gate reports and passes. Without `strict`
/// (`CI_PERF_STRICT=0`) a miss is only a warning.
fn gate_parallel_speedup(grid: &GridMetrics, grid_parallel: &GridMetrics, strict: bool) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup = grid.seconds / grid_parallel.seconds;
    if cores < 4 {
        eprintln!(
            "parallel: only {cores} core(s) available; speedup {speedup:.2}x recorded, gate skipped (needs >= 4)"
        );
        return true;
    }
    Bound::Floor(1.5).gate(
        &format!(
            "parallel: grid_parallel speedup on {} threads ({cores} cores)",
            grid_parallel.threads
        ),
        speedup,
        strict,
    )
}

/// Compares this run against the baseline: false on a >2x quick-grid
/// regression (unless `strict` is off, which downgrades it to a
/// warning), and false whatever `strict` says when the baseline could
/// not be read.
fn check_against(baseline: &Result<Baseline, String>, report: &BenchReport, strict: bool) -> bool {
    let baseline = match baseline {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("baseline: {msg}");
            return false;
        }
    };
    eprintln!(
        "baseline: quick grid {:.3} s vs baseline {:.3} s",
        report.grid_quick.seconds, baseline.grid_quick.seconds
    );
    Bound::Ceiling(2.0).gate(
        "baseline: quick-grid slowdown vs baseline (x)",
        report.grid_quick.seconds / baseline.grid_quick.seconds,
        strict,
    )
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mode = if opts.quick { "quick" } else { "full" };
    eprintln!("perf_baseline ({mode} mode, seed {})", opts.seed);
    // Read the committed baseline first: a full run rewrites it below.
    let baseline = std::fs::read_to_string(BASELINE)
        .map_err(|e| format!("cannot read {BASELINE}: {e}"))
        .and_then(|text| parse_baseline(&text));

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
        grid,
        grid_parallel,
        grid_quick,
        cores_available: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            as u64,
    };
    let out = if opts.quick {
        "BENCH_engine.quick.json"
    } else {
        BASELINE
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(out, format!("{json}\n")).expect("write artifact");
    eprintln!("wrote {out}");
    println!("{json}");

    let strict = perf_strict();
    let checked = check_against(&baseline, &report, strict);
    let scaled = gate_parallel_speedup(&report.grid, &report.grid_parallel, strict);
    if !(checked && scaled) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_engine.json");

    fn grid(seconds: f64, speedup_vs_serial: Option<f64>) -> GridMetrics {
        GridMetrics {
            configs: 6,
            threads: 1,
            seconds,
            speedup_vs_serial,
        }
    }

    /// A quick run that matches `baseline` exactly, so every gate holds.
    fn matching_run(baseline: &Baseline) -> BenchReport {
        BenchReport {
            mode: "quick".into(),
            seed: 1994,
            grid: grid(baseline.grid_quick.seconds, None),
            grid_parallel: grid(1.0, Some(1.0)),
            grid_quick: grid(baseline.grid_quick.seconds, None),
            cores_available: 1,
        }
    }

    #[test]
    fn the_committed_baseline_parses_and_one_without_grid_quick_fails() {
        let baseline = parse_baseline(COMMITTED).expect("the committed baseline parses");
        let run = matching_run(&baseline);
        assert!(check_against(&Ok(baseline), &run, true));

        let serde_json::Value::Map(mut sections) =
            serde_json::from_str(COMMITTED).expect("the committed baseline is JSON")
        else {
            panic!("the committed baseline is a JSON object");
        };
        sections.retain(|(key, _)| key != "grid_quick");
        let stripped = serde_json::to_string(&serde_json::Value::Map(sections)).unwrap();
        let missing = parse_baseline(&stripped);
        assert!(
            missing.as_ref().is_err_and(|e| e.contains("grid_quick")),
            "{missing:?}"
        );
        // A baseline the gates cannot read fails even with CI_PERF_STRICT=0.
        assert!(!check_against(&missing, &run, false));
    }
}
