//! Node-scaling grid: the same striped farm split across N ∈ {1, 2, 4, 8}
//! storage nodes, each cell run twice — healthy, and with one node fully
//! down for a mid-run window — to measure how distribution bounds the
//! blast radius of a node loss.
//!
//! The farm is 24 disks (divisible by every N in the grid) with parity
//! and the hot-spare rebuild armed in every run, so the outage column
//! measures degraded-mode *retention*: the outage run's throughput as a
//! percentage of its own healthy twin. At N = 1 the "node" is the whole
//! farm — every display is exposed and only the rebuild's early
//! re-entry limits the damage; that row anchors the table. As N grows
//! the outage takes out 1/N of the spindles and the front-end router
//! steers admissions around the dark node, so the residual gap closes
//! monotonically toward the interconnect-limited ceiling.
//!
//! After writing its artifacts the bin gates the widest split's
//! retention at ≥ 70%, exiting non-zero on a miss (`CI_PERF_STRICT=0`
//! downgrades it to a warning).
//!
//! `--quick` shrinks the window for CI smoke runs.
//!
//! Run from the repo root:
//! `cargo run --release -p ss-bench --bin node_grid [-- --quick]`.

use serde::Serialize;
use ss_bench::grid::{pct_of, perf_strict, run_cells, write_json, Bound};
use ss_bench::HarnessOpts;
use ss_server::config::NodeOutage;
use ss_server::{DistributedConfig, ParityConfig, RebuildConfig, RunReport, ServerConfig};
use ss_types::{SimDuration, SimTime};

/// Disks in every cell's farm — divisible by each node count in the grid.
const DISKS: u32 = 24;
/// The node-count axis.
const NODES: [u32; 4] = [1, 2, 4, 8];

/// One (node count) cell: a healthy run and its single-node-outage twin.
#[derive(Debug, Default, Serialize)]
struct Cell {
    nodes: u32,
    disks_per_node: u32,
    /// Healthy throughput (displays per hour).
    baseline_per_hour: f64,
    /// Throughput with one node dark for the outage window.
    outage_per_hour: f64,
    /// `outage / baseline`, as a percentage — the retention column.
    retention_pct: f64,
    /// Interconnect traffic of the healthy run (fragment·intervals
    /// crossing nodes; 0 at N = 1).
    remote_fragment_intervals: u64,
    /// Admissions the healthy run's interconnect refused.
    interconnect_rejections: u64,
    /// Streams that hiccuped / were dropped in the outage run.
    outage_hiccup_streams: u64,
    outage_streams_dropped: u64,
}

/// The `node_grid.json` artifact.
#[derive(Debug, Serialize)]
struct NodeGridReport {
    mode: String,
    seed: u64,
    disks: u32,
    stations: u32,
    /// Simulated seconds per run (warmup + measurement).
    simulated_seconds: u64,
    /// Seconds the outage keeps one node fully dark.
    outage_seconds: u64,
    cells: Vec<Cell>,
}

/// The cell config: `small_test`'s database on a 24-disk farm with
/// parity + hot-spare rebuild armed, split `nodes` ways. `outage` darks
/// node 1 (node 0 at N = 1) for the middle half of the measure window.
fn cell_config(opts: &HarnessOpts, nodes: u32, outage: bool) -> ServerConfig {
    let stations = if opts.quick { 6 } else { 12 };
    let mut c = ServerConfig::small_test(stations, opts.seed);
    c.disks = DISKS;
    c.verify_delivery = false;
    c.warmup = SimDuration::from_secs(300);
    c.measure = SimDuration::from_secs(if opts.quick { 1200 } else { 3600 });
    c.parity = Some(ParityConfig::group(6));
    c.rebuild = Some(RebuildConfig::rate(8));
    let mut d = DistributedConfig::even(nodes, DISKS);
    if outage {
        let (fail, repair) = outage_window(&c);
        d.node_outages = vec![NodeOutage {
            node: 1 % nodes,
            fail_at: fail,
            repair_at: repair,
        }];
    }
    c.distributed = Some(d);
    c
}

/// The outage window: the middle half of the measure window.
fn outage_window(c: &ServerConfig) -> (SimTime, SimTime) {
    let warmup = c.warmup.as_secs_f64() as u64;
    let measure = c.measure.as_secs_f64() as u64;
    (
        SimTime::from_secs(warmup + measure / 4),
        SimTime::from_secs(warmup + 3 * measure / 4),
    )
}

fn cell(nodes: u32, baseline: &RunReport, outage: &RunReport) -> Cell {
    let ds = baseline.distributed.as_ref();
    let dg = outage.degraded.as_ref();
    Cell {
        nodes,
        disks_per_node: DISKS / nodes,
        baseline_per_hour: baseline.displays_per_hour,
        outage_per_hour: outage.displays_per_hour,
        retention_pct: pct_of(outage.displays_per_hour, baseline.displays_per_hour),
        remote_fragment_intervals: ds.map_or(0, |d| d.remote_fragment_intervals),
        interconnect_rejections: ds.map_or(0, |d| d.interconnect_rejections),
        outage_hiccup_streams: dg.map_or(0, |g| g.hiccup_streams),
        outage_streams_dropped: dg.map_or(0, |g| g.streams_dropped),
    }
}

/// The CI floor: the widest split must retain at least 70% of its own
/// healthy throughput through a single-node outage.
fn node_gate(cells: &[Cell], strict: bool) -> bool {
    let w = cells.iter().max_by_key(|c| c.nodes).expect("a grid cell");
    Bound::Floor(70.0).gate(
        &format!("N={} retention_pct", w.nodes),
        w.retention_pct,
        strict,
    )
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mode = if opts.quick { "quick" } else { "full" };
    eprintln!("node_grid ({mode} mode, seed {})", opts.seed);

    // One cell per N, its healthy run the baseline of its outage twin.
    let configs: Vec<Vec<ServerConfig>> = NODES
        .iter()
        .map(|&n| vec![cell_config(&opts, n, false), cell_config(&opts, n, true)])
        .collect();
    let probe = &configs[0][0];
    let stations = probe.stations;
    let simulated_seconds = probe.warmup.as_secs_f64() as u64 + probe.measure.as_secs_f64() as u64;
    let (fail, repair) = outage_window(probe);
    let outage_seconds = (repair.as_micros() - fail.as_micros()) / 1_000_000;
    let grid = run_cells(configs, opts.threads);

    let cells: Vec<Cell> = NODES
        .iter()
        .zip(&grid)
        .map(|(&n, runs)| cell(n, &runs[0], &runs[1]))
        .collect();
    for c in &cells {
        eprintln!(
            "N={}: baseline {:.1}/h, one-node-out {:.1}/h ({:.1}% retained), \
             {} remote frag·intervals, {} hiccup streams, {} dropped",
            c.nodes,
            c.baseline_per_hour,
            c.outage_per_hour,
            c.retention_pct,
            c.remote_fragment_intervals,
            c.outage_hiccup_streams,
            c.outage_streams_dropped
        );
    }

    let report = NodeGridReport {
        mode: mode.to_string(),
        seed: opts.seed,
        disks: DISKS,
        stations,
        simulated_seconds,
        outage_seconds,
        cells,
    };
    write_json(&opts, "node_grid.json", &report);
    if !node_gate(&report.cells, perf_strict()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widest_split_holds_the_retention_floor() {
        let cells = |retention_pct: [f64; 2]| {
            let cell = |nodes, retention_pct| Cell {
                nodes,
                retention_pct,
                ..Cell::default()
            };
            [cell(1, retention_pct[0]), cell(8, retention_pct[1])]
        };
        // N = 1 exposes every display; only the widest split is gated.
        assert!(node_gate(&cells([40.0, 99.6]), true));
        assert!(!node_gate(&cells([99.0, 69.9]), true));
        assert!(
            !node_gate(&cells([99.0, f64::NAN]), true),
            "NaN never passes"
        );
        assert!(
            node_gate(&cells([99.0, 69.9]), false),
            "CI_PERF_STRICT=0 warns"
        );
    }
}
