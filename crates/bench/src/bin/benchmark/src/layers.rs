//! The traced pass: each workload once more with spans around every call
//! into a layer, per-tick durations in a histogram, event counts from an
//! armed pass, and two kernels (placement and saturated admission) run at
//! the workload's farm size.

use crate::spans::{Span, Tracer};
use crate::stats::{reportable_percentile, total, TickHistogram};
use crate::workload::{
    batch_threads, digest, run_cell, startup_wait_s, Arm, CellRun, Probe, Workload,
};
use serde_json::Value;
use ss_core::admission::{AdmissionPolicy, IntervalScheduler};
use ss_core::frame::VirtualFrame;
use ss_core::placement::{PlacementMap, StripingConfig};
use ss_server::config::Scheme;
use ss_server::experiment::run_batch_stats;
use ss_server::{RunReport, ServerConfig};
use ss_types::ObjectId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, with the end-to-end metric and the workloads
/// it should move. `trace_overhead_pct` is computed by the parent (it
/// needs the untraced median); the child computes the rest.
pub const LAYER_MAP: [(&str, &str, &str); 36] = [
    ("server.setup_s", "setup_s", "farm_100k"),
    ("core.placement.place_s", "setup_s", "farm_100k"),
    ("server.ticks_s", "wall_s", "all"),
    ("server.tick_p50_us", "wall_s", "farm_100k, fig8"),
    ("server.tick_p99_us", "wall_s", "farm_100k, fig8"),
    ("server.tick_max_us", "wall_s", "degraded"),
    ("server.ticks_executed", "wall_s", "fig8, degraded"),
    ("server.ticks_skipped", "wall_s", "fig8, degraded"),
    ("server.report_us", "none (kept so the spans add up)", "all"),
    ("experiment.batch_speedup", "wall_s", "fig8"),
    ("experiment.critical_cell_s", "wall_s", "fig8"),
    ("experiment.threads_used", "wall_s", "fig8"),
    ("core.admission.accepts", "wall_s", "fig8, farm_100k"),
    ("core.admission.rejects", "wall_s", "fig8, farm_100k"),
    ("core.admission.retries", "wall_s", "fig8, farm_100k"),
    ("core.admission.parks", "wall_s", "fig8, farm_100k"),
    ("core.admission.yield", "wall_s", "fig8, farm_100k"),
    ("core.admission.try_admit_ns", "wall_s", "farm_100k"),
    (
        "core.admission.startup_wait_s",
        "displays_per_hour",
        "fig8, degraded",
    ),
    ("core.interconnect.link_books", "wall_s", "degraded"),
    (
        "core.interconnect.remote_fragment_intervals",
        "wall_s",
        "degraded",
    ),
    ("core.cache.hit_rate", "displays_per_hour", "degraded"),
    ("server.faults.hiccups", "wall_s", "degraded"),
    (
        "server.faults.hiccup_s",
        "displays_per_hour",
        "degraded, obs",
    ),
    ("server.faults.rescues", "wall_s", "degraded"),
    ("server.faults.drops", "displays_per_hour", "degraded"),
    ("disk.rebuild.done", "wall_s", "degraded"),
    ("server.storage.txns_journaled", "wall_s", "degraded"),
    ("server.storage.scrub_chunks", "wall_s", "degraded"),
    ("server.storage.recoveries", "wall_s", "degraded"),
    ("obs.events", "wall_s, peak_rss_mb", "obs"),
    ("obs.capture_overhead_pct", "wall_s", "obs"),
    ("obs.qos_fold_s", "wall_s", "obs"),
    ("obs.slo_eval_s", "wall_s", "obs"),
    ("obs.health_fold_s", "wall_s", "obs"),
    (
        "trace_overhead_pct",
        "none (measures the trace itself)",
        "all",
    ),
];

/// What the traced pass hands back to the parent.
pub struct LayerPass {
    pub metrics: Vec<(&'static str, f64)>,
    /// `wall_s` of the traced pass, by the same definition as the
    /// untraced reps use.
    pub traced_wall_s: f64,
    /// Report digests of every pass in this process, which must all equal
    /// the untraced reps' digest.
    pub digests: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
    pub ticks: TickHistogram,
    pub events: BTreeMap<&'static str, u64>,
    pub violations: Vec<String>,
}

fn run_all(
    cells: &[ServerConfig],
    arm: Arm,
    mut probe: Option<Probe<'_>>,
) -> Result<Vec<CellRun>, String> {
    cells
        .iter()
        .map(|c| run_cell(c, arm, probe.as_mut()))
        .collect()
}

fn reports(runs: &[CellRun]) -> Vec<RunReport> {
    runs.iter().map(|r| r.report.clone()).collect()
}

/// Runs the traced pass of `w`.
pub fn run_layers(w: Workload, seed: u64, quick: bool) -> Result<LayerPass, String> {
    let cells = w.cells(seed, quick);
    let mut tracer = Tracer::default();
    let mut ticks = TickHistogram::default();
    let mut digests = Vec::new();
    let root = tracer.begin("workload", w.name().to_string(), None);

    let mut batch = None;
    if w == Workload::Fig8 {
        let span = tracer.begin("batch", String::new(), Some(root));
        let t0 = Instant::now();
        let (batch_reports, stats) = run_batch_stats(cells.clone(), batch_threads());
        let wall = t0.elapsed().as_secs_f64();
        tracer.end(span);
        digests.push(("batch", digest(&batch_reports)));
        batch = Some((wall, stats.threads_used));
    }

    let arm = if w.journaled() {
        Arm::Journal
    } else {
        Arm::Off
    };
    let probe = Probe {
        tracer: &mut tracer,
        parent: root,
        ticks: &mut ticks,
    };
    let traced = run_all(&cells, arm, Some(probe))?;
    tracer.end(root);
    digests.push(("traced", digest(&reports(&traced))));

    // The same cells with the journal toggled: unarmed for `obs`, armed
    // with a counting recorder everywhere else (which is where the event
    // counts come from).
    let (other_arm, other_name) = if w.journaled() {
        (Arm::Off, "unarmed")
    } else {
        (Arm::Count, "counted")
    };
    let span = tracer.begin(other_name, String::new(), None);
    let other = run_all(&cells, other_arm, None)?;
    tracer.end(span);
    digests.push((other_name, digest(&reports(&other))));

    let kernel_cfg = cells
        .iter()
        .find(|c| matches!(c.scheme, Scheme::Striping { .. }))
        .expect("every workload has a striping cell");
    let span = tracer.begin("kernel.placement", String::new(), None);
    let place_s = placement_kernel(kernel_cfg);
    tracer.end(span);
    let span = tracer.begin("kernel.try_admit", String::new(), None);
    let try_admit_ns = try_admit_kernel(kernel_cfg);
    tracer.end(span);

    let (armed, unarmed) = if w.journaled() {
        (&traced, &other)
    } else {
        (&other, &traced)
    };
    let wall = |runs: &[CellRun]| total(runs.iter().map(CellRun::wall_s));
    let mut events: BTreeMap<&'static str, u64> = BTreeMap::new();
    for run in armed {
        for (k, n) in &run.events {
            *events.entry(k).or_default() += n;
        }
    }
    let count = |k: &str| events.get(k).copied().unwrap_or(0) as f64;
    let all_reports = reports(&traced);
    let sum = |f: &dyn Fn(&RunReport) -> Option<f64>| total(all_reports.iter().filter_map(f));
    let cell_s: Vec<f64> = traced
        .iter()
        .map(|r| r.setup_s + r.ticks_s + r.report_s)
        .collect();
    let serial_s = total(cell_s.iter().copied());
    let (batch_speedup, threads_used, traced_wall_s) = match batch {
        Some((wall, threads)) => (serial_s / wall, threads as f64, wall),
        None => (1.0, 1.0, wall(&traced)),
    };
    let (accepts, rejects) = (count("admit_accept"), count("admit_reject"));
    let cache = |f: fn(&ss_server::metrics::SharingStats) -> u64| {
        sum(&|r| r.sharing.as_ref().map(|s| f(s) as f64))
    };
    let (hits, misses) = (cache(|s| s.cache_hits), cache(|s| s.cache_misses));
    let degraded =
        |f: fn(&ss_server::metrics::DegradedStats) -> f64| sum(&|r| r.degraded.as_ref().map(f));
    let crash = |f: fn(&ss_server::metrics::CrashStats) -> u64| {
        sum(&|r| r.crash.as_ref().map(|c| f(c) as f64))
    };
    let fold = |f: fn(&CellRun) -> f64| total(traced.iter().map(f));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us = |ns: f64| ns / 1000.0;
    let tick_p99 = reportable_percentile(ticks.count())
        .unwrap_or(50.0)
        .min(99.0);

    let metrics = vec![
        ("server.setup_s", fold(|r| r.setup_s)),
        ("core.placement.place_s", place_s),
        ("server.ticks_s", fold(|r| r.ticks_s)),
        ("server.tick_p50_us", us(ticks.percentile_ns(50.0))),
        ("server.tick_p99_us", us(ticks.percentile_ns(tick_p99))),
        ("server.tick_max_us", us(ticks.max_ns() as f64)),
        ("server.ticks_executed", fold(|r| r.ticks as f64)),
        ("server.ticks_skipped", fold(|r| r.ticks_skipped as f64)),
        ("server.report_us", fold(|r| r.report_s) * 1e6),
        ("experiment.batch_speedup", batch_speedup),
        (
            "experiment.critical_cell_s",
            cell_s.iter().copied().fold(0.0, f64::max),
        ),
        ("experiment.threads_used", threads_used),
        ("core.admission.accepts", accepts),
        ("core.admission.rejects", rejects),
        ("core.admission.retries", count("admit_retry")),
        ("core.admission.parks", count("admit_park")),
        ("core.admission.yield", ratio(accepts, accepts + rejects)),
        ("core.admission.try_admit_ns", try_admit_ns),
        (
            "core.admission.startup_wait_s",
            startup_wait_s(&all_reports),
        ),
        ("core.interconnect.link_books", count("link_book")),
        (
            "core.interconnect.remote_fragment_intervals",
            sum(&|r| {
                r.distributed
                    .as_ref()
                    .map(|d| d.remote_fragment_intervals as f64)
            }),
        ),
        ("core.cache.hit_rate", ratio(hits, hits + misses)),
        (
            "server.faults.hiccups",
            degraded(|d| d.hiccup_intervals as f64),
        ),
        ("server.faults.hiccup_s", degraded(|d| d.hiccup_seconds)),
        ("server.faults.rescues", degraded(|d| d.rescues as f64)),
        (
            "server.faults.drops",
            degraded(|d| d.streams_dropped as f64),
        ),
        ("disk.rebuild.done", count("rebuild_done")),
        ("server.storage.txns_journaled", crash(|c| c.txns_journaled)),
        ("server.storage.scrub_chunks", crash(|c| c.scrub_chunks)),
        ("server.storage.recoveries", crash(|c| c.recoveries)),
        ("obs.events", events.values().sum::<u64>() as f64),
        (
            "obs.capture_overhead_pct",
            100.0 * (wall(armed) - wall(unarmed)) / wall(unarmed),
        ),
        ("obs.qos_fold_s", fold(|r| r.folds.qos_s)),
        ("obs.slo_eval_s", fold(|r| r.folds.slo_s)),
        ("obs.health_fold_s", fold(|r| r.folds.health_s)),
    ];
    let violations = traced
        .iter()
        .chain(&other)
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    Ok(LayerPass {
        metrics,
        traced_wall_s,
        digests,
        spans: tracer.into_spans(),
        ticks,
        events,
        violations,
    })
}

/// Host seconds to build the placement map and place the whole catalog
/// (until the farm is full) at the cell's farm size; median of three.
fn placement_kernel(cfg: &ServerConfig) -> f64 {
    let stride = match cfg.scheme {
        Scheme::Striping { stride, .. } => stride,
        Scheme::Vdr { .. } => cfg.degree(),
    };
    let striping = StripingConfig {
        disks: cfg.disks,
        stride,
        fragment: cfg.fragment_size(),
        b_disk: cfg.b_disk(),
        parity_group: cfg.parity.map(|p| p.group),
    };
    let catalog = cfg.catalog();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut map = PlacementMap::new(
                striping.clone(),
                cfg.disk.cylinders,
                cfg.cylinders_per_fragment,
            )
            .expect("the cell's placement map");
            for spec in catalog.iter() {
                if map.place(spec).is_err() {
                    break;
                }
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(map.resident_count());
            dt
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Nanoseconds per `IntervalScheduler::try_admit` on a farm of the
/// cell's width whose every disk is booked (each attempt must be
/// rejected), under the cell's admission policy. Runs for about 50 ms.
fn try_admit_kernel(cfg: &ServerConfig) -> f64 {
    let (stride, policy) = match cfg.scheme {
        Scheme::Striping { stride, policy, .. } => (stride, policy),
        Scheme::Vdr { .. } => (cfg.degree(), AdmissionPolicy::Contiguous),
    };
    let (d, m, n) = (cfg.disks, cfg.degree(), cfg.subobjects);
    let mut s = IntervalScheduler::new(VirtualFrame::new(d, stride));
    for i in 0..d / m {
        s.try_admit(0, ObjectId(i), i * m, m, n, AdmissionPolicy::Contiguous)
            .expect("saturating admission");
    }
    let mut attempts = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.05 {
        for w in 0..256u32 {
            let start = (w * 7 + attempts as u32) % d;
            let refused = s
                .try_admit(1, ObjectId(d / m + w), start, m, n, policy)
                .is_err();
            assert!(refused, "the farm must stay saturated");
        }
        attempts += 256;
    }
    t0.elapsed().as_nanos() as f64 / attempts as f64
}

impl LayerPass {
    /// The pass as the one JSON line a child prints.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.to_string(), Value::F64(*v)))
            .collect();
        let digests = self
            .digests
            .iter()
            .map(|(k, d)| (k.to_string(), Value::Str(d.clone())))
            .collect();
        let events = self
            .events
            .iter()
            .map(|(k, n)| (k.to_string(), Value::U64(*n)))
            .collect();
        let top = reportable_percentile(self.ticks.count());
        Value::Map(vec![
            ("metrics".into(), Value::Map(metrics)),
            ("traced_wall_s".into(), Value::F64(self.traced_wall_s)),
            ("digests".into(), Value::Map(digests)),
            ("spans".into(), crate::spans::to_json(&self.spans)),
            (
                "ticks".into(),
                Value::Map(vec![
                    ("count".into(), Value::U64(self.ticks.count())),
                    ("sum_s".into(), Value::F64(self.ticks.sum_ns() as f64 / 1e9)),
                    ("top_percentile".into(), top.map_or(Value::Null, Value::F64)),
                    (
                        "top_percentile_us".into(),
                        top.map_or(Value::Null, |p| {
                            Value::F64(self.ticks.percentile_ns(p) / 1000.0)
                        }),
                    ),
                ]),
            ),
            ("events".into(), Value::Map(events)),
            (
                "violations".into(),
                Value::Seq(self.violations.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }
}
