//! Observability replay harness: runs one experiment configuration with
//! the structured event journal and metrics registry installed, then
//! exports the run in the requested format:
//!
//! * `--format jsonl` — the raw journal, one JSON event per line
//!   (`trace.jsonl`). Byte-deterministic: the same seed produces the
//!   same file.
//! * `--format perfetto` — Chrome/Perfetto trace-event JSON
//!   (`trace.json`): one track per physical disk carrying its merged
//!   read spans and fault windows, one track per display, one per VDR
//!   cluster. Load it at `ui.perfetto.dev` or `chrome://tracing`.
//! * `--format csv` — the metrics registry's time series
//!   (`series.csv`), the per-disk utilization heatmap (`heatmap.csv`)
//!   and the scalar counters (`counters.csv`).
//!
//! By default it replays a small striping farm with a disk failure over
//! the middle of the measurement window; `--vdr` swaps in the replicated
//! baseline, and `--config PATH` replays any serialized
//! [`ServerConfig`] (the JSON shape the test goldens use).
//!
//! Whatever the format, the harness self-checks the journal before
//! writing anything: the expanded per-(disk, interval) read timeline
//! must carry exactly the `degree × subobjects` reads booked by every
//! accepted admission, every coalescing handover must match an open
//! span, journal completion/fault counts must reconcile with the run
//! report, and the heatmap must hold one row per boundary of the run.
//! Any mismatch exits nonzero — CI runs `--quick` in both trace formats
//! as a regression gate.

use ss_bench::{flag_value, load_config, HarnessOpts};
use ss_obs::{Event, Registry, RegistrySpec, TraceMeta, VecRecorder};
use ss_server::config::Scheme;
use ss_server::{run, DistributedConfig, RunReport, ServerConfig};
use ss_sim::FaultPlan;
use ss_types::SimTime;

const USAGE: &str = "usage: trace_dump [--format jsonl|perfetto|csv] [--config PATH] [--vdr] \
                     [--seed N] [--out DIR] [--quick] [--threads N]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Jsonl,
    Perfetto,
    Csv,
}

fn parse_format(v: &str) -> Result<Format, String> {
    match v {
        "jsonl" => Ok(Format::Jsonl),
        "perfetto" => Ok(Format::Perfetto),
        "csv" => Ok(Format::Csv),
        other => Err(format!(
            "--format takes jsonl|perfetto|csv, got {other:?}; {USAGE}"
        )),
    }
}

/// The default demo scenario: a small farm with one disk failing over
/// the middle half of the measurement window, so every journal plane
/// (admission, reads, faults, rescues) has something to show. The farm
/// is split into two nodes (infinite interconnect — scheduling is
/// unchanged) so the Perfetto export renders its per-node outage and
/// link-utilization tracks.
fn demo_config(quick: bool, vdr: bool, seed: u64) -> ServerConfig {
    let stations = if quick { 8 } else { 16 };
    let mut cfg = if vdr {
        ServerConfig::small_vdr_test(stations, seed)
    } else {
        ServerConfig::small_test(stations, seed)
    };
    let warmup = cfg.warmup.as_micros();
    let measure = cfg.measure.as_micros();
    cfg.faults = FaultPlan::fail_window(
        0,
        SimTime::from_micros(warmup + measure / 4),
        SimTime::from_micros(warmup + 3 * measure / 4),
    );
    cfg.distributed = Some(DistributedConfig::even(2, cfg.disks));
    cfg
}

/// Trace geometry for `cfg`: the stride drives the virtual→physical
/// frame walk for striping reads; the cluster size marks a VDR run;
/// the node split turns on the per-node outage/link tracks.
fn trace_meta(cfg: &ServerConfig) -> TraceMeta {
    let (stride, cluster_size) = match &cfg.scheme {
        Scheme::Striping { stride, .. } => (*stride, 0),
        Scheme::Vdr { .. } => (0, cfg.degree()),
    };
    let (nodes, disks_per_node) = match &cfg.distributed {
        Some(d) => (d.topology.nodes, d.topology.disks_per_node),
        None => (1, cfg.disks),
    };
    TraceMeta {
        disks: cfg.disks,
        stride,
        interval_us: cfg.interval().as_micros(),
        cluster_size,
        nodes,
        disks_per_node,
    }
}

/// Journal-vs-report reconciliation: every aggregate the report carries
/// must be recoverable by counting journal events.
fn reconcile(events: &[(u64, Event)], report: &RunReport, meta: &TraceMeta) -> Result<(), String> {
    let booked = ss_obs::booked_reads(events);
    let expansion = ss_obs::expand_reads(events, meta);
    if expansion.unmatched_moves != 0 {
        return Err(format!(
            "{} coalescing handovers matched no open read span",
            expansion.unmatched_moves
        ));
    }
    if expansion.reads.len() as u64 != booked {
        return Err(format!(
            "expanded read timeline carries {} reads but admissions booked {booked}",
            expansion.reads.len()
        ));
    }
    let count =
        |pred: &dyn Fn(&Event) -> bool| events.iter().filter(|(_, e)| pred(e)).count() as u64;
    let measured_ends = count(&|e| matches!(e, Event::DisplayEnd { measured: true, .. }));
    if measured_ends != report.displays_completed {
        return Err(format!(
            "journal holds {measured_ends} measured display ends, report completed {}",
            report.displays_completed
        ));
    }
    let fails = count(&|e| matches!(e, Event::DiskFail { .. }));
    let repairs = count(&|e| matches!(e, Event::DiskRepair { .. }));
    if let Some(g) = &report.degraded {
        if fails != g.faults_injected || repairs != g.repairs {
            return Err(format!(
                "journal fail/repair counts {fails}/{repairs} disagree with report {}/{}",
                g.faults_injected, g.repairs
            ));
        }
        let drops = count(&|e| matches!(e, Event::DisplayDrop { .. }));
        if drops != g.streams_dropped {
            return Err(format!(
                "journal holds {drops} display drops, report {}",
                g.streams_dropped
            ));
        }
    } else if fails + repairs != 0 {
        return Err("journal carries fault events but the report has no degraded block".into());
    }
    Ok(())
}

fn main() {
    let mut format = Format::Jsonl;
    let mut config_path: Option<String> = None;
    let mut vdr = false;
    let opts = HarnessOpts::from_args_with(USAGE, |a, rest| {
        if let Some(v) = flag_value(a, "--format", "a value", USAGE, rest)? {
            format = parse_format(&v)?;
        } else if let Some(v) = flag_value(a, "--config", "a path", USAGE, rest)? {
            config_path = Some(v);
        } else if a == "--vdr" {
            vdr = true;
        } else {
            return Ok(false);
        }
        Ok(true)
    });

    let cfg = match &config_path {
        Some(path) => load_config(path),
        None => demo_config(opts.quick, vdr, opts.seed),
    };
    let meta = trace_meta(&cfg);

    // Install the journal and registry, run inline (the recorder is
    // thread-local), and take both back.
    let recorder = VecRecorder::new();
    let handle = recorder.handle();
    ss_obs::install(
        Box::new(recorder),
        Registry::new(RegistrySpec {
            disks: cfg.disks,
            interval_us: meta.interval_us,
            ..RegistrySpec::default()
        }),
    );
    let t0 = std::time::Instant::now();
    let report = run(&cfg).unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let (_, registry) = ss_obs::uninstall().expect("recorder installed above");
    let events = handle.lock().expect("run finished").clone();

    if let Err(msg) = reconcile(&events, &report, &meta) {
        eprintln!("journal reconciliation failed: {msg}");
        std::process::exit(1);
    }
    // One heatmap row per interval boundary of the run, warmup included:
    // boundary 0 through the first boundary at or after the deadline
    // (the stopping tick).
    let expected_rows = ((cfg.warmup + cfg.measure)
        .as_micros()
        .div_ceil(meta.interval_us)
        + 1) as usize;
    if registry.heatmap_len() != expected_rows {
        eprintln!(
            "heatmap holds {} rows, expected {expected_rows} (one per interval boundary)",
            registry.heatmap_len()
        );
        std::process::exit(1);
    }

    match format {
        Format::Jsonl => {
            let mut out = String::new();
            for (at, ev) in &events {
                ev.write_jsonl(*at, &mut out);
                out.push('\n');
            }
            opts.write_artifact("trace.jsonl", &out);
        }
        Format::Perfetto => {
            let trace = ss_obs::perfetto_trace(&events, &meta);
            // The artifact must be loadable: parse it back before writing.
            if let Err(e) = serde_json::from_str::<serde_json::Value>(&trace) {
                eprintln!("perfetto trace is not valid JSON: {e}");
                std::process::exit(1);
            }
            opts.write_artifact("trace.json", &trace);
        }
        Format::Csv => {
            opts.write_artifact("series.csv", &registry.series_csv());
            opts.write_artifact("heatmap.csv", &registry.heatmap_csv());
            opts.write_artifact("counters.csv", &registry.counters_csv());
        }
    }
    eprintln!(
        "{}: {} journal events, {} disk reads, {} heatmap rows, {} displays in {elapsed:.1}s",
        report.scheme,
        events.len(),
        ss_obs::booked_reads(&events),
        registry.heatmap_len(),
        report.displays_completed,
    );
}
