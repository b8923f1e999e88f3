//! Operations report: replay one experiment configuration with the
//! journal armed, then fold the capture into the SLO/QoS plane and
//! render an operator-facing dashboard.
//!
//! The replay runs the same config the experiment harnesses use (the
//! default is a two-node farm with a disk failure, a node outage,
//! stochastic power losses / torn writes and the scrub daemon — every
//! fault plane lit at once), then:
//!
//! * folds the journal into a per-display QoS ledger
//!   ([`ss_obs::QosLedger`]): startup waits, hiccups, rescues, drops;
//! * evaluates the default SLO set ([`ss_obs::SloSpec::default_set`])
//!   over deterministic sliding windows, with two-window fast/slow
//!   burn-rate alerting;
//! * rolls per-disk fault/rebuild/scrub/crash events up into a health
//!   board ([`ss_obs::HealthBoard`]) and correlates every SLO breach
//!   with the fault spans that overlap it (root-cause attribution).
//!
//! Like `trace_dump`, nothing is written until the capture self-checks:
//! the QoS ledger's totals must reconcile exactly with the run report's
//! aggregates, and every alert must map back to a valid journal window.
//! Any mismatch exits nonzero — CI replays the demo on both schemes and
//! byte-compares same-seed reruns of every artifact.
//!
//! Artifacts (under `--out`, default `bench-out/`):
//!
//! * `ops_report.txt` — the dashboard: SLO table, per-node health
//!   matrix, incident timeline;
//! * `ops_slo.csv`, `ops_health.csv`, `ops_incidents.csv` — the same,
//!   machine-readable;
//! * `ops_report.json` — everything, structured;
//! * `ops_trace.jsonl` — the journal with one typed `slo_breach` event
//!   appended per alert (the breaches are evaluated offline, so they
//!   land as an appendix after the live events).

use ss_bench::{flag_value, load_config, HarnessOpts};
use ss_obs::{
    evaluate, Event, HealthBoard, HealthState, QosLedger, Registry, RegistrySpec, SloReport,
    SloSpec, VecRecorder,
};
use ss_server::config::{NodeOutage, Scheme};
use ss_server::{run, DistributedConfig, RunReport, ScrubConfig, ServerConfig};
use ss_server::{ParityConfig, RebuildConfig};
use ss_sim::{CrashFaults, FaultPlan};
use ss_types::{SimDuration, SimTime};

const USAGE: &str =
    "usage: ops_report [--config PATH] [--vdr] [--seed N] [--out DIR] [--quick] [--threads N]";

/// The demo scenario: a two-node farm with every fault plane armed at
/// once — a disk failure over the middle half of the measurement
/// window, a node outage inside it, stochastic power losses and torn
/// writes, and the scrub daemon — so the dashboard has SLO pressure,
/// health spans and incidents to show.
fn demo_config(quick: bool, vdr: bool, seed: u64) -> ServerConfig {
    let stations = if quick { 12 } else { 20 };
    let mut cfg = if vdr {
        ServerConfig::small_vdr_test(stations, seed)
    } else {
        ServerConfig::small_test(stations, seed)
    };
    // Crash recovery may refetch objects mid-run; delivery verification
    // is a per-interval invariant check, not a reported number.
    cfg.verify_delivery = false;
    if !vdr {
        cfg.parity = Some(ParityConfig::group(4));
        cfg.rebuild = Some(RebuildConfig::rate(4));
    }
    let warmup = cfg.warmup.as_micros();
    let measure = cfg.measure.as_micros();
    cfg.faults = FaultPlan::fail_window(
        0,
        SimTime::from_micros(warmup + measure / 4),
        SimTime::from_micros(warmup + 3 * measure / 4),
    );
    cfg.faults.crash = Some(CrashFaults {
        power_loss_mtbf: Some(SimDuration::from_secs(300)),
        torn_write_mtbf: Some(SimDuration::from_secs(240)),
        ..Default::default()
    });
    cfg.scrub = Some(ScrubConfig::rate(4));
    let mut dist = DistributedConfig::even(2, cfg.disks);
    dist.node_outages = vec![NodeOutage {
        node: 1,
        fail_at: SimTime::from_micros(warmup + measure / 3),
        repair_at: SimTime::from_micros(warmup + measure / 2),
    }];
    cfg.distributed = Some(dist);
    cfg
}

/// QoS-ledger ⇄ run-report reconciliation: the ledger's totals must
/// recover the report's aggregates exactly, or the dashboard would
/// summarize a run that never happened.
fn reconcile(
    cfg: &ServerConfig,
    events: &[(u64, Event)],
    report: &RunReport,
    ledger: &QosLedger,
) -> Result<(), String> {
    let t = ledger.totals(events);
    if t.ends_measured != report.displays_completed {
        return Err(format!(
            "ledger counts {} measured display ends, report completed {}",
            t.ends_measured, report.displays_completed
        ));
    }
    let g = report.degraded.clone().unwrap_or_default();
    if t.drops != g.streams_dropped {
        return Err(format!(
            "ledger counts {} drops, report {}",
            t.drops, g.streams_dropped
        ));
    }
    if t.rescues != g.rescues {
        return Err(format!(
            "ledger counts {} rescues, report {}",
            t.rescues, g.rescues
        ));
    }
    // The hiccup bill: striping journals one event per lost read
    // charging `1 + viewers` intervals; VDR bills lost intervals at
    // drop time.
    let hiccup_intervals: u64 = events
        .iter()
        .map(|(_, e)| match e {
            Event::Hiccup { viewers, .. } => 1 + viewers,
            _ => 0,
        })
        .sum();
    let billed = if matches!(cfg.scheme, Scheme::Striping { .. }) {
        hiccup_intervals
    } else {
        t.drop_hiccup_intervals
    };
    if billed != g.hiccup_intervals {
        return Err(format!(
            "ledger bills {billed} hiccup intervals, report {}",
            g.hiccup_intervals
        ));
    }
    if let Some(s) = &report.sharing {
        if t.shared_joins != s.viewers_joined {
            return Err(format!(
                "ledger counts {} shared joins, report {}",
                t.shared_joins, s.viewers_joined
            ));
        }
    }
    // Every open the ledger folded maps to a journal open event.
    let opens = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                Event::AdmitAccept { .. }
                    | Event::SharedJoin { .. }
                    | Event::ClusterDisplayStart { .. }
            )
        })
        .count() as u64;
    if t.opened != opens {
        return Err(format!(
            "ledger folded {} display opens, journal holds {opens}",
            t.opened
        ));
    }
    if t.startup_samples > t.opened {
        return Err(format!(
            "{} startup samples for {} opens",
            t.startup_samples, t.opened
        ));
    }
    Ok(())
}

/// Every alert must describe a valid window of the journal: non-empty,
/// inside the horizon, owned by a real SLO, and hot on both burn
/// windows (the two-window page rule).
fn check_alerts(slo: &SloReport, specs: &[SloSpec]) -> Result<(), String> {
    for a in &slo.alerts {
        if a.from >= a.until || a.until > slo.horizon {
            return Err(format!(
                "alert window [{}, {}) escapes the journal horizon {}",
                a.from, a.until, slo.horizon
            ));
        }
        let Some(spec) = specs.get(a.slo as usize) else {
            return Err(format!("alert names unknown SLO index {}", a.slo));
        };
        if a.fast_burn < spec.alert_burn || a.slow_burn < spec.alert_burn {
            return Err(format!(
                "alert on {} paged below its burn threshold ({} / {} < {})",
                spec.name, a.fast_burn, a.slow_burn, spec.alert_burn
            ));
        }
    }
    Ok(())
}

/// The text dashboard.
fn render_dashboard(
    cfg: &ServerConfig,
    report: &RunReport,
    slo: &SloReport,
    board: &HealthBoard,
    incidents: &[ss_obs::Incident],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let nodes = board.nodes.len();
    let _ = writeln!(
        out,
        "ops report: {} | {} disks x {} nodes | seed {} | horizon {} intervals",
        report.scheme, cfg.disks, nodes, cfg.seed, slo.horizon
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "== SLO table ==");
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>8} {:>10} {:>7} {:>7}",
        "slo", "good", "bad", "burn_c", "alerts", "verdict"
    );
    for o in &slo.outcomes {
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>8} {:>10} {:>7} {:>7}",
            o.spec.name,
            o.good,
            o.bad,
            o.overall_burn,
            o.alerts,
            if o.pass { "PASS" } else { "FAIL" }
        );
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "== node health matrix ==");
    let _ = writeln!(
        out,
        "{:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "node", "dark", "degraded", "rebuild", "scrub", "crashes"
    );
    for (n, rollup) in board.nodes.iter().enumerate() {
        let rolled = |state: HealthState| -> u64 {
            rollup
                .iter()
                .filter(|s| s.state == state)
                .map(|s| s.until - s.from)
                .sum()
        };
        let lo = n * board.disks_per_node as usize;
        let hi = (lo + board.disks_per_node as usize).min(board.disks.len());
        let member = |state: HealthState| -> u64 {
            board.disks[lo..hi]
                .iter()
                .map(|d| d.intervals_in(state))
                .sum()
        };
        let crashes: u64 = board.disks[lo..hi].iter().map(|d| d.power_losses).sum();
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            n,
            rolled(HealthState::Dark),
            rolled(HealthState::Degraded),
            member(HealthState::Rebuilding),
            member(HealthState::Scrubbing),
            crashes
        );
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "== incident timeline ==");
    if incidents.is_empty() {
        let _ = writeln!(out, "(no SLO breaches)");
    }
    for inc in incidents {
        let name = slo
            .outcomes
            .get(inc.alert.slo as usize)
            .map_or("?", |o| o.spec.name);
        let _ = writeln!(
            out,
            "[{:>6}, {:>6}) {} burn fast={} slow={}",
            inc.alert.from, inc.alert.until, name, inc.alert.fast_burn, inc.alert.slow_burn
        );
        if inc.causes.is_empty() {
            let _ = writeln!(out, "    (no overlapping fault span)");
        }
        for c in &inc.causes {
            let _ = writeln!(
                out,
                "    <- {} {} {} [{}, {})",
                if c.node { "node" } else { "disk" },
                c.id,
                c.span.state.label(),
                c.span.from,
                c.span.until
            );
        }
    }
    out
}

fn render_slo_csv(slo: &SloReport) -> String {
    let mut out = String::from("slo,good,bad,burn_hundredths,alerts,pass\n");
    for o in &slo.outcomes {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            o.spec.name, o.good, o.bad, o.overall_burn, o.alerts, o.pass
        ));
    }
    out
}

fn render_health_csv(board: &HealthBoard) -> String {
    let mut out = String::from("kind,id,state,from,until\n");
    for (n, rollup) in board.nodes.iter().enumerate() {
        for s in rollup {
            out.push_str(&format!(
                "node,{n},{},{},{}\n",
                s.state.label(),
                s.from,
                s.until
            ));
        }
    }
    for (d, disk) in board.disks.iter().enumerate() {
        for s in &disk.spans {
            out.push_str(&format!(
                "disk,{d},{},{},{}\n",
                s.state.label(),
                s.from,
                s.until
            ));
        }
    }
    out
}

fn render_incidents_csv(slo: &SloReport, incidents: &[ss_obs::Incident]) -> String {
    let mut out = String::from("slo,from,until,fast_burn,slow_burn,cause_kind,cause_id,cause_state,cause_from,cause_until\n");
    for inc in incidents {
        let name = slo
            .outcomes
            .get(inc.alert.slo as usize)
            .map_or("?", |o| o.spec.name);
        if inc.causes.is_empty() {
            out.push_str(&format!(
                "{name},{},{},{},{},,,,,\n",
                inc.alert.from, inc.alert.until, inc.alert.fast_burn, inc.alert.slow_burn
            ));
        }
        for c in &inc.causes {
            out.push_str(&format!(
                "{name},{},{},{},{},{},{},{},{},{}\n",
                inc.alert.from,
                inc.alert.until,
                inc.alert.fast_burn,
                inc.alert.slow_burn,
                if c.node { "node" } else { "disk" },
                c.id,
                c.span.state.label(),
                c.span.from,
                c.span.until
            ));
        }
    }
    out
}

/// Builds a JSON object node (the vendored serde has no `json!` macro,
/// so the tree is assembled by hand; `Value::Map` keeps insertion
/// order, so the artifact is byte-deterministic).
fn obj(fields: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn render_json(
    cfg: &ServerConfig,
    report: &RunReport,
    slo: &SloReport,
    board: &HealthBoard,
    incidents: &[ss_obs::Incident],
    ledger: &QosLedger,
    events: &[(u64, Event)],
) -> String {
    use serde_json::Value;
    let t = ledger.totals(events);
    let u = Value::U64;
    let outcomes: Vec<Value> = slo
        .outcomes
        .iter()
        .map(|o| {
            obj(vec![
                ("slo", Value::Str(o.spec.name.to_string())),
                ("good", u(o.good)),
                ("bad", u(o.bad)),
                ("burn_hundredths", u(o.overall_burn)),
                ("alerts", u(o.alerts)),
                ("pass", Value::Bool(o.pass)),
            ])
        })
        .collect();
    let incident_rows: Vec<Value> = incidents
        .iter()
        .map(|inc| {
            let name = slo
                .outcomes
                .get(inc.alert.slo as usize)
                .map_or("?", |o| o.spec.name);
            let causes: Vec<Value> = inc
                .causes
                .iter()
                .map(|c| {
                    obj(vec![
                        (
                            "kind",
                            Value::Str(if c.node { "node" } else { "disk" }.to_string()),
                        ),
                        ("id", u(u64::from(c.id))),
                        ("state", Value::Str(c.span.state.label().to_string())),
                        ("from", u(c.span.from)),
                        ("until", u(c.span.until)),
                    ])
                })
                .collect();
            obj(vec![
                ("slo", Value::Str(name.to_string())),
                ("from", u(inc.alert.from)),
                ("until", u(inc.alert.until)),
                ("fast_burn", u(inc.alert.fast_burn)),
                ("slow_burn", u(inc.alert.slow_burn)),
                ("causes", Value::Seq(causes)),
            ])
        })
        .collect();
    let nodes: Vec<Value> = board
        .nodes
        .iter()
        .enumerate()
        .map(|(n, rollup)| {
            let in_state = |state: HealthState| -> u64 {
                rollup
                    .iter()
                    .filter(|s| s.state == state)
                    .map(|s| s.until - s.from)
                    .sum()
            };
            obj(vec![
                ("node", u(n as u64)),
                ("dark_intervals", u(in_state(HealthState::Dark))),
                ("degraded_intervals", u(in_state(HealthState::Degraded))),
            ])
        })
        .collect();
    let v = obj(vec![
        ("scheme", Value::Str(report.scheme.clone())),
        ("seed", u(cfg.seed)),
        ("horizon", u(slo.horizon)),
        (
            "qos",
            obj(vec![
                ("opened", u(t.opened)),
                ("private_opens", u(t.private_opens)),
                ("shared_joins", u(t.shared_joins)),
                ("cluster_opens", u(t.cluster_opens)),
                ("ends_measured", u(t.ends_measured)),
                ("drops", u(t.drops)),
                ("hiccup_events", u(t.hiccup_events)),
                ("rescues", u(t.rescues)),
                ("startup_samples", u(t.startup_samples)),
                ("startup_wait_us_sum", u(t.startup_wait_us_sum)),
                ("startup_wait_us_max", u(t.startup_wait_us_max)),
            ]),
        ),
        ("slo", Value::Seq(outcomes)),
        ("nodes", Value::Seq(nodes)),
        ("incidents", Value::Seq(incident_rows)),
    ]);
    serde_json::to_string_pretty(&v).expect("serialize ops report")
}

fn main() {
    let mut config_path: Option<String> = None;
    let mut vdr = false;
    let opts = HarnessOpts::from_args_with(USAGE, |a, rest| {
        if let Some(v) = flag_value(a, "--config", "a path", USAGE, rest)? {
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
    let interval_us = cfg.interval().as_micros();

    // Armed replay: journal + registry installed, then taken back.
    let recorder = VecRecorder::new();
    let handle = recorder.handle();
    ss_obs::install(
        Box::new(recorder),
        Registry::new(RegistrySpec {
            disks: cfg.disks,
            interval_us,
            ..RegistrySpec::default()
        }),
    );
    let t0 = std::time::Instant::now();
    let report = run(&cfg).unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let _ = ss_obs::uninstall().expect("recorder installed above");
    let events = handle.lock().expect("run finished").clone();

    // Fold, evaluate, roll up.
    let ledger = QosLedger::from_events(&events);
    let specs = SloSpec::default_set(interval_us);
    let slo = evaluate(&specs, &ledger, &events, interval_us);
    let (nodes, disks_per_node) = match &cfg.distributed {
        Some(d) => (d.topology.nodes, d.topology.disks_per_node),
        None => (1, cfg.disks),
    };
    let board = HealthBoard::from_events(
        &events,
        cfg.disks,
        nodes,
        disks_per_node,
        interval_us,
        slo.horizon,
    );
    let incidents = board.incidents(&slo.alerts);

    // Self-check before writing anything.
    if let Err(msg) = reconcile(&cfg, &events, &report, &ledger) {
        eprintln!("qos reconciliation failed: {msg}");
        std::process::exit(1);
    }
    if let Err(msg) = check_alerts(&slo, &specs) {
        eprintln!("alert self-check failed: {msg}");
        std::process::exit(1);
    }

    // The journal with the evaluated breaches appended as typed events
    // (stamped at the end of their window); each appended line must
    // parse back as JSON before the artifact is written.
    let mut jsonl = String::new();
    for (at, ev) in &events {
        ev.write_jsonl(*at, &mut jsonl);
        jsonl.push('\n');
    }
    for a in &slo.alerts {
        let mut line = String::new();
        a.to_event().write_jsonl(a.until * interval_us, &mut line);
        if let Err(e) = serde_json::from_str::<serde_json::Value>(&line) {
            eprintln!("slo_breach event is not valid JSON: {e}");
            std::process::exit(1);
        }
        jsonl.push_str(&line);
        jsonl.push('\n');
    }

    opts.write_artifact(
        "ops_report.txt",
        &render_dashboard(&cfg, &report, &slo, &board, &incidents),
    );
    opts.write_artifact("ops_slo.csv", &render_slo_csv(&slo));
    opts.write_artifact("ops_health.csv", &render_health_csv(&board));
    opts.write_artifact("ops_incidents.csv", &render_incidents_csv(&slo, &incidents));
    opts.write_artifact(
        "ops_report.json",
        &render_json(&cfg, &report, &slo, &board, &incidents, &ledger, &events),
    );
    opts.write_artifact("ops_trace.jsonl", &jsonl);

    eprintln!(
        "{}: {} journal events, {} displays opened, {} alerts, {} incidents in {elapsed:.1}s",
        report.scheme,
        events.len(),
        ledger.displays.len(),
        slo.alerts.len(),
        incidents.len(),
    );
}
