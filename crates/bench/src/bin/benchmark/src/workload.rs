//! The four workloads, the cell runner every pass shares, and the checks
//! that make a run count as correct.
//!
//! Every workload is closed-loop: the paper's display stations with zero
//! think time, so a slower server receives less load rather than a
//! growing queue. The seed passed on the command line is the only input
//! that varies between runs.

use crate::spans::Tracer;
use crate::stats::{median, total, TickHistogram};
use serde::Serialize as _;
use ss_obs::{
    evaluate, Event, HealthBoard, QosLedger, Recorder, Registry, RegistrySpec, SloSpec, VecRecorder,
};
use ss_server::config::{NodeOutage, Scheme, SharingConfig};
use ss_server::experiment::{fig8_configs, run_batch_stats};
use ss_server::{
    DistributedConfig, ParityConfig, RebuildConfig, RunReport, ScrubConfig, ServerConfig,
    StripingServer, VdrServer,
};
use ss_sim::{CrashFaults, FaultPlan};
use ss_types::{SimDuration, SimTime};
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

/// One benchmark workload. See `README.md` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 54-cell Figure-8 grid for three seeds, through the batch runner.
    Fig8,
    /// One 100,000-disk cell with 2048 stations.
    Farm100k,
    /// Two paper-scale cells with every fault and scale-out plane armed.
    Degraded,
    /// 18 cells run with the journal armed and folded into QoS/SLO/health.
    Obs,
}

impl Workload {
    /// Every workload, in the order runs interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig8,
        Workload::Farm100k,
        Workload::Degraded,
        Workload::Obs,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8 => "fig8",
            Workload::Farm100k => "farm_100k",
            Workload::Degraded => "degraded",
            Workload::Obs => "obs",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workload whose cells run with the journal armed.
    pub fn journaled(self) -> bool {
        self == Workload::Obs
    }

    /// The cell configurations, in the order their reports are digested.
    /// `quick` shrinks every workload for smoke runs; the metrics keep
    /// their names.
    pub fn cells(self, seed: u64, quick: bool) -> Vec<ServerConfig> {
        match self {
            Workload::Fig8 => fig8_cells(seed, quick),
            Workload::Farm100k => vec![farm_cell(seed, quick)],
            Workload::Degraded => degraded_cells(seed, quick),
            Workload::Obs => obs_cells(seed, quick),
        }
    }
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// `at` of the measurement window, as an absolute time.
fn window_point(cfg: &ServerConfig, num: u64, den: u64) -> SimTime {
    SimTime::from_micros(cfg.warmup.as_micros() + num * cfg.measure.as_micros() / den)
}

/// Fails disk 3 over the middle half of the measurement window.
fn fail_disk_3(cfg: &mut ServerConfig) {
    cfg.faults = FaultPlan::fail_window(3, window_point(cfg, 1, 4), window_point(cfg, 3, 4));
}

fn fig8_cells(seed: u64, quick: bool) -> Vec<ServerConfig> {
    if quick {
        let mut cells = fig8_configs(seed);
        for c in &mut cells {
            c.warmup = secs(1800);
            c.measure = secs(3600);
        }
        return cells;
    }
    (seed..seed + 3).flat_map(fig8_configs).collect()
}

fn farm_cell(seed: u64, quick: bool) -> ServerConfig {
    let mut c = ServerConfig::paper_striping(if quick { 256 } else { 2048 }, 20.0, seed);
    c.disks = 100_000;
    c.objects = 2000;
    c.warmup = secs(if quick { 300 } else { 1800 });
    c.measure = secs(if quick { 3600 } else { 7200 });
    c
}

/// Every plane armed at once: parity and rebuild (striping only), a disk
/// failure, stochastic power losses and torn writes, the scrub daemon,
/// stream sharing, and a 4-node split with one node dark for a sixth of
/// the window. The quick variant is the same stack on the 20-disk test
/// farm.
fn degraded_cells(seed: u64, quick: bool) -> Vec<ServerConfig> {
    let base = |vdr: bool| {
        let mut c = match (quick, vdr) {
            (false, false) => ServerConfig::paper_striping(64, 20.0, seed),
            (false, true) => ServerConfig::paper_vdr(64, 20.0, seed),
            (true, false) => ServerConfig::small_test(16, seed),
            (true, true) => ServerConfig::small_vdr_test(16, seed),
        };
        c.verify_delivery = false;
        if !quick {
            c.warmup = secs(3600);
            c.measure = secs(5 * 3600);
        }
        if !vdr {
            c.parity = Some(ParityConfig::group(4));
            c.rebuild = Some(RebuildConfig::rate(8));
        }
        fail_disk_3(&mut c);
        c.faults.crash = Some(CrashFaults {
            power_loss_mtbf: Some(secs(1800)),
            torn_write_mtbf: Some(secs(1200)),
            ..Default::default()
        });
        c.scrub = Some(ScrubConfig::rate(4));
        c.sharing = Some(SharingConfig::window(4));
        let mut dist = DistributedConfig::even(4, c.disks);
        dist.node_outages = vec![NodeOutage {
            node: 1,
            fail_at: window_point(&c, 1, 3),
            repair_at: window_point(&c, 1, 2),
        }];
        c.distributed = Some(dist);
        c
    };
    vec![base(false), base(true)]
}

fn obs_cells(seed: u64, quick: bool) -> Vec<ServerConfig> {
    let (means, stations): (&[f64], &[u32]) = if quick {
        (&[20.0], &[64])
    } else {
        (&[10.0, 20.0, 43.5], &[64, 128, 256])
    };
    let mut out = Vec::new();
    for vdr in [false, true] {
        for &mean in means {
            for &n in stations {
                let mut c = if vdr {
                    ServerConfig::paper_vdr(n, mean, seed)
                } else {
                    ServerConfig::paper_striping(n, mean, seed)
                };
                c.warmup = secs(if quick { 900 } else { 1800 });
                c.measure = secs(if quick { 1800 } else { 5400 });
                fail_disk_3(&mut c);
                out.push(c);
            }
        }
    }
    out
}

/// A short, unique name for a cell (span labels and failure messages).
fn cell_label(cfg: &ServerConfig) -> String {
    let scheme = match cfg.scheme {
        Scheme::Striping { .. } => "striping",
        Scheme::Vdr { .. } => "vdr",
    };
    format!(
        "{scheme}/{}/{}st/seed{}",
        cfg.popularity.tag(),
        cfg.stations,
        cfg.seed
    )
}

/// Either server model behind one interface. Only one lives at a time,
/// so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Server {
    Striping(StripingServer),
    Vdr(VdrServer),
}

impl Server {
    fn new(cfg: ServerConfig) -> ss_types::Result<Server> {
        match cfg.scheme {
            Scheme::Striping { .. } => StripingServer::new(cfg).map(Server::Striping),
            Scheme::Vdr { .. } => VdrServer::new(cfg).map(Server::Vdr),
        }
    }

    fn step(&mut self) -> bool {
        match self {
            Server::Striping(s) => s.step(),
            Server::Vdr(s) => s.step(),
        }
    }

    fn ticks_skipped(&self) -> u64 {
        match self {
            Server::Striping(s) => s.model().ticks_skipped(),
            Server::Vdr(s) => s.model().ticks_skipped(),
        }
    }

    /// The cross-plane invariants the models expose, checked once the
    /// run has reached its deadline.
    fn check_invariants(&self) -> Result<(), String> {
        let (reconciles, lost, deficit) = match self {
            Server::Striping(s) => {
                let (m, now) = (s.model(), s.now());
                (
                    m.storage_reconciles(),
                    m.unaccounted_lost_reads(now),
                    m.remote_booking_deficit(now),
                )
            }
            Server::Vdr(s) => (s.model().storage_reconciles(), 0, 0),
        };
        if !reconciles {
            return Err("storage plane does not reconcile with placement".into());
        }
        if lost != 0 {
            return Err(format!(
                "{lost} reads from a down disk neither rescued nor billed"
            ));
        }
        if deficit != 0 {
            return Err(format!("{deficit} remote fragments crossed nodes unbooked"));
        }
        Ok(())
    }

    fn run(self) -> RunReport {
        match self {
            Server::Striping(s) => s.run(),
            Server::Vdr(s) => s.run(),
        }
    }
}

/// A recorder that only counts events by [`Event::kind`].
#[derive(Default)]
struct KindCounter(BTreeMap<&'static str, u64>);

impl Recorder for KindCounter {
    fn record(&mut self, _at: u64, ev: &Event) {
        *self.0.entry(ev.kind()).or_default() += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// What a cell runs with installed on its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Nothing: every instrumentation site is a single flag check.
    Off,
    /// A `VecRecorder` journal and a full-width registry; the journal is
    /// folded into the QoS ledger, the SLO report and the health board.
    Journal,
    /// A recorder that only counts events by kind, with a registry that
    /// keeps no heatmap rows.
    Count,
}

/// Host seconds spent in each fold of a journaled cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct FoldTimes {
    pub qos_s: f64,
    pub slo_s: f64,
    pub health_s: f64,
}

/// What one cell produced.
pub struct CellRun {
    pub report: RunReport,
    /// Host seconds in `StripingServer::new` / `VdrServer::new`.
    pub setup_s: f64,
    /// Host seconds stepping the simulation to its deadline.
    pub ticks_s: f64,
    /// Host seconds assembling the report (and dropping the server).
    pub report_s: f64,
    pub folds: FoldTimes,
    pub ticks: u64,
    pub ticks_skipped: u64,
    /// Events by kind (empty when the cell ran unarmed).
    pub events: BTreeMap<&'static str, u64>,
    /// Broken invariants and failed reconciliations.
    pub violations: Vec<String>,
}

impl CellRun {
    /// The cell's share of `wall_s`: stepping, the report and the folds.
    pub fn wall_s(&self) -> f64 {
        self.ticks_s + self.report_s + self.folds.qos_s + self.folds.slo_s + self.folds.health_s
    }
}

/// Span recording for a traced pass: the tracer, the parent span of the
/// cells, and the histogram that takes every tick's duration.
pub struct Probe<'a> {
    pub tracer: &'a mut Tracer,
    pub parent: usize,
    pub ticks: &'a mut TickHistogram,
}

fn install(arm: Arm, cfg: &ServerConfig) -> Option<ss_obs::Shared<Vec<(u64, Event)>>> {
    match arm {
        Arm::Off => None,
        Arm::Journal => {
            let rec = VecRecorder::new();
            let journal = rec.handle();
            let spec = RegistrySpec {
                disks: cfg.disks,
                interval_us: cfg.interval().as_micros(),
                ..RegistrySpec::default()
            };
            ss_obs::install(Box::new(rec), Registry::new(spec));
            Some(journal)
        }
        Arm::Count => {
            let spec = RegistrySpec {
                max_heatmap_rows: 0,
                ..RegistrySpec::default()
            };
            ss_obs::install(Box::<KindCounter>::default(), Registry::new(spec));
            None
        }
    }
}

fn span_begin(
    probe: &mut Option<&mut Probe<'_>>,
    parent: Option<usize>,
    name: &str,
    label: String,
) -> Option<usize> {
    match (probe.as_deref_mut(), parent) {
        (Some(p), Some(parent)) => Some(p.tracer.begin(name, label, Some(parent))),
        _ => None,
    }
}

fn span_end(probe: &mut Option<&mut Probe<'_>>, id: Option<usize>) {
    if let (Some(p), Some(id)) = (probe.as_deref_mut(), id) {
        p.tracer.end(id);
    }
}

/// Times `f`, inside a span named `name` when a probe is attached.
fn timed<T>(
    probe: &mut Option<&mut Probe<'_>>,
    parent: Option<usize>,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = span_begin(probe, parent, name, String::new());
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    span_end(probe, span);
    (out, dt)
}

/// Runs one cell to its deadline. With a probe, each phase is a span
/// under a `cell` span and every tick's duration goes to the histogram.
pub fn run_cell(
    cfg: &ServerConfig,
    arm: Arm,
    mut probe: Option<&mut Probe<'_>>,
) -> Result<CellRun, String> {
    let label = cell_label(cfg);
    let journal = install(arm, cfg);
    let cell_parent = probe.as_deref().map(|p| p.parent);
    let cell_span = span_begin(&mut probe, cell_parent, "cell", label.clone());
    let owned = cfg.clone();
    let (server, setup_s) = timed(&mut probe, cell_span, "setup", || Server::new(owned));
    let mut server = server.map_err(|e| format!("{label}: invalid config: {e}"))?;

    let mut ticks = 0u64;
    let ticks_span = span_begin(&mut probe, cell_span, "ticks", String::new());
    let t0 = Instant::now();
    match probe.as_deref_mut() {
        None => {
            while server.step() {
                ticks += 1;
            }
        }
        Some(p) => loop {
            let t = Instant::now();
            if !server.step() {
                break;
            }
            p.ticks.record(t.elapsed().as_nanos() as u64);
            ticks += 1;
        },
    }
    let ticks_s = t0.elapsed().as_secs_f64();
    span_end(&mut probe, ticks_span);

    let mut violations = Vec::new();
    let (checked, _) = timed(&mut probe, cell_span, "check", || server.check_invariants());
    if let Err(e) = checked {
        violations.push(format!("{label}: {e}"));
    }
    let ticks_skipped = server.ticks_skipped();
    let (report, report_s) = timed(&mut probe, cell_span, "report", || server.run());
    if let Err(e) = check_report(cfg, &report) {
        violations.push(format!("{label}: {e}"));
    }

    let mut events = BTreeMap::new();
    let mut folds = FoldTimes::default();
    if arm != Arm::Off {
        let (recorder, registry) = ss_obs::uninstall().expect("installed for this cell");
        if let Some(counter) = recorder.as_any().downcast_ref::<KindCounter>() {
            events = counter.0.clone();
        }
        if let Some(journal) = journal {
            let captured = std::mem::take(&mut *journal.lock().expect("run finished"));
            folds = fold(
                cfg,
                &report,
                &captured,
                &mut probe,
                cell_span,
                &mut violations,
            );
            // Only the traced pass reports event counts.
            if probe.is_some() {
                events = timed(&mut probe, cell_span, "count", || {
                    let mut counts = BTreeMap::new();
                    for (_, ev) in &captured {
                        *counts.entry(ev.kind()).or_default() += 1;
                    }
                    counts
                })
                .0;
            }
            timed(&mut probe, cell_span, "teardown", || {
                drop((captured, recorder, registry));
            });
        }
    }
    span_end(&mut probe, cell_span);
    Ok(CellRun {
        report,
        setup_s,
        ticks_s,
        report_s,
        folds,
        ticks,
        ticks_skipped,
        events,
        violations,
    })
}

/// Folds a captured journal the way `ops_report` does, timing each
/// stage, and reconciles the QoS ledger against the report.
fn fold(
    cfg: &ServerConfig,
    report: &RunReport,
    events: &[(u64, Event)],
    probe: &mut Option<&mut Probe<'_>>,
    cell: Option<usize>,
    violations: &mut Vec<String>,
) -> FoldTimes {
    let interval_us = cfg.interval().as_micros();
    let (ledger, qos_s) = timed(probe, cell, "fold.qos", || QosLedger::from_events(events));
    let (slo, slo_s) = timed(probe, cell, "fold.slo", || {
        evaluate(
            &SloSpec::default_set(interval_us),
            &ledger,
            events,
            interval_us,
        )
    });
    let (board, health_s) = timed(probe, cell, "fold.health", || {
        HealthBoard::from_events(events, cfg.disks, 1, cfg.disks, interval_us, slo.horizon)
    });
    std::hint::black_box((&slo, &board));
    let (t, _) = timed(probe, cell, "reconcile", || ledger.totals(events));
    let g = report.degraded.clone().unwrap_or_default();
    for (what, ledger_n, report_n) in [
        (
            "measured display ends",
            t.ends_measured,
            report.displays_completed,
        ),
        ("drops", t.drops, g.streams_dropped),
        ("rescues", t.rescues, g.rescues),
    ] {
        if ledger_n != report_n {
            violations.push(format!(
                "{}: QoS ledger counts {ledger_n} {what}, report {report_n}",
                cell_label(cfg)
            ));
        }
    }
    FoldTimes {
        qos_s,
        slo_s,
        health_s,
    }
}

/// Consistency of a report with the config that produced it.
fn check_report(cfg: &ServerConfig, r: &RunReport) -> Result<(), String> {
    let scheme = match cfg.scheme {
        Scheme::Striping { .. } => "striping",
        Scheme::Vdr { .. } => "vdr",
    };
    if r.scheme != scheme || r.stations != cfg.stations || r.seed != cfg.seed {
        return Err(format!(
            "report describes {}/{}st/seed{}, not the cell run",
            r.scheme, r.stations, r.seed
        ));
    }
    let slack = 2.0 * cfg.interval().as_secs_f64();
    if (r.measured_seconds - cfg.measure.as_secs_f64()).abs() > slack {
        return Err(format!(
            "measured {} s of a {} s window",
            r.measured_seconds,
            cfg.measure.as_secs_f64()
        ));
    }
    let rate = r.displays_completed as f64 * 3600.0 / r.measured_seconds;
    if (rate - r.displays_per_hour).abs() > 1e-6 * rate.max(1.0) {
        return Err(format!(
            "{} displays in {} s is not {} per hour",
            r.displays_completed, r.measured_seconds, r.displays_per_hour
        ));
    }
    if !(r.p95_latency_s >= 0.0 && r.p95_latency_s.is_finite()) {
        return Err(format!("p95 latency {}", r.p95_latency_s));
    }
    Ok(())
}

/// FNV-1a (64-bit) of the serialized reports, in cell order.
pub fn digest(reports: &[RunReport]) -> String {
    let json = serde_json::to_string(reports).expect("reports serialize");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Completed displays per measured simulated hour, over every cell.
fn displays_per_hour(reports: &[RunReport]) -> f64 {
    let displays: u64 = reports.iter().map(|r| r.displays_completed).sum();
    let hours = total(reports.iter().map(|r| r.measured_seconds / 3600.0));
    displays as f64 / hours
}

/// Mean startup wait in simulated seconds, weighting each cell's mean by
/// its completed displays.
pub fn startup_wait_s(reports: &[RunReport]) -> f64 {
    let displays: u64 = reports.iter().map(|r| r.displays_completed).sum();
    let weighted = total(
        reports
            .iter()
            .map(|r| r.mean_latency_s * r.displays_completed as f64),
    );
    weighted / displays.max(1) as f64
}

/// Strands the `fig8` batch runs on: two, or fewer on a smaller box.
pub fn batch_threads() -> usize {
    cores_available().min(2)
}

/// Cores this process may run on.
pub fn cores_available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let kb: u64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0);
    kb as f64 / 1024.0
}

/// One repetition of a workload, as a child process measures it.
pub struct Rep {
    pub cells: usize,
    pub digest: String,
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub displays_per_hour: f64,
    pub violations: Vec<String>,
}

impl Rep {
    /// The rep as the one JSON line a child prints.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Map(vec![
            ("cells".into(), self.cells.to_value()),
            ("digest".into(), Value::Str(self.digest.clone())),
            ("setup_s".into(), Value::F64(self.setup_s)),
            ("wall_s".into(), Value::F64(self.wall_s)),
            ("peak_rss_mb".into(), Value::F64(self.peak_rss_mb)),
            (
                "displays_per_hour".into(),
                Value::F64(self.displays_per_hour),
            ),
            ("violations".into(), self.violations.to_value()),
        ])
    }
}

/// Host seconds to construct every cell's server: the median over
/// `passes` (the cells' own constructions, when they were timed) plus
/// construct-and-drop passes, up to 25 passes or until 0.75 s has been
/// spent, so a workload whose set-up takes milliseconds still reports a
/// steady number.
fn setup_s(cells: &[ServerConfig], mut passes: Vec<f64>) -> Result<f64, String> {
    while passes.len() < 25 && (passes.is_empty() || total(passes.iter().copied()) < 0.75) {
        let mut pass = 0.0;
        for cfg in cells {
            let owned = cfg.clone();
            let t = Instant::now();
            let server = Server::new(owned).map_err(|e| format!("{}: {e}", cell_label(cfg)))?;
            pass += t.elapsed().as_secs_f64();
            drop(server);
        }
        passes.push(pass);
    }
    Ok(median(&passes).expect("at least one pass"))
}

/// Runs one untraced repetition of `w`: the cells, through the batch
/// runner for `fig8` and one after another otherwise, then the set-up
/// passes.
pub fn run_rep(w: Workload, seed: u64, quick: bool) -> Result<Rep, String> {
    let cells = w.cells(seed, quick);
    let mut setup_passes = Vec::new();
    let (reports, wall_s, violations) = if w == Workload::Fig8 {
        let t0 = Instant::now();
        let (reports, _) = run_batch_stats(cells.clone(), batch_threads());
        let wall_s = t0.elapsed().as_secs_f64();
        let violations = cells
            .iter()
            .zip(&reports)
            .filter_map(|(c, r)| {
                check_report(c, r)
                    .err()
                    .map(|e| format!("{}: {e}", cell_label(c)))
            })
            .collect();
        (reports, wall_s, violations)
    } else {
        let arm = if w.journaled() {
            Arm::Journal
        } else {
            Arm::Off
        };
        let mut reports = Vec::with_capacity(cells.len());
        let (mut setup, mut wall_s, mut violations) = (0.0, 0.0, Vec::new());
        for cfg in &cells {
            let run = run_cell(cfg, arm, None)?;
            setup += run.setup_s;
            wall_s += run.wall_s();
            violations.extend(run.violations);
            reports.push(run.report);
        }
        setup_passes.push(setup);
        (reports, wall_s, violations)
    };
    Ok(Rep {
        cells: cells.len(),
        digest: digest(&reports),
        setup_s: setup_s(&cells, setup_passes)?,
        wall_s,
        peak_rss_mb: peak_rss_mb(),
        displays_per_hour: displays_per_hour(&reports),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig9"), None);
    }

    #[test]
    fn every_cell_validates_and_has_the_documented_shape() {
        let count = |w: Workload, quick| w.cells(7, quick).len();
        assert_eq!(count(Workload::Fig8, false), 162);
        assert_eq!(count(Workload::Farm100k, false), 1);
        assert_eq!(count(Workload::Degraded, false), 2);
        assert_eq!(count(Workload::Obs, false), 18);
        for w in Workload::ALL {
            for quick in [false, true] {
                for c in w.cells(7, quick) {
                    c.validate()
                        .unwrap_or_else(|e| panic!("{}: {e}", cell_label(&c)));
                }
            }
        }
    }

    #[test]
    fn quick_degraded_rep_is_correct_and_deterministic() {
        let a = run_rep(Workload::Degraded, 3, true).unwrap();
        let b = run_rep(Workload::Degraded, 3, true).unwrap();
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.digest, b.digest);
        assert!(a.displays_per_hour > 0.0 && a.setup_s > 0.0);
    }

    #[test]
    fn check_report_rejects_a_report_from_another_cell() {
        let cfg = ServerConfig::small_test(2, 5);
        let mut r = ss_server::run(&cfg).unwrap();
        check_report(&cfg, &r).unwrap();
        r.stations = 3;
        assert!(check_report(&cfg, &r).is_err());
    }
}
