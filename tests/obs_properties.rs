//! Property tests for the observability layer (`ss-obs`):
//!
//! * **Zero-cost toggle** — installing a recorder and registry must not
//!   change a single reported number: the run report with observability
//!   on serializes byte-identically to the recorder-off run (which is
//!   itself what the golden tests pin).
//! * **Journal determinism** — the same seed produces the same journal,
//!   byte for byte, across reruns.
//! * **Reconciliation** — the journal is a faithful decomposition of the
//!   report: counting events recovers every aggregate the report
//!   carries, and replaying the read spans through the rotating frame
//!   yields exactly the reads the admissions booked.

use proptest::prelude::*;
use staggered_striping::prelude::*;

/// A small config of either scheme with `failures` outage windows over
/// the middle half of the measurement window; striping cells optionally
/// arm parity + rebuild so the degraded planes have events to emit.
fn obs_config(striping: bool, stations: u32, seed: u64, failures: u32, heal: bool) -> ServerConfig {
    let mut cfg = if striping {
        ServerConfig::small_test(stations, seed)
    } else {
        ServerConfig::small_vdr_test(stations, seed)
    };
    if striping && heal {
        cfg.parity = Some(ParityConfig::group(4));
        cfg.rebuild = Some(RebuildConfig::rate(4));
    }
    let warmup = cfg.warmup.as_micros();
    let measure = cfg.measure.as_micros();
    let fail_at = SimTime::from_micros(warmup + measure / 4);
    let repair_at = SimTime::from_micros(warmup + 3 * measure / 4);
    let mut plan = FaultPlan::none();
    for f in 0..failures {
        let disk = f * (cfg.disks / 2);
        plan.events
            .extend(FaultPlan::fail_window(disk, fail_at, repair_at).events);
    }
    cfg.faults = plan;
    cfg
}

/// Runs `cfg` with a journal recorder and metrics registry installed,
/// returning the report, the captured journal and the registry.
fn run_with_journal(
    cfg: &ServerConfig,
) -> (RunReport, Vec<(u64, ss_obs::Event)>, ss_obs::Registry) {
    let recorder = ss_obs::VecRecorder::new();
    let handle = recorder.handle();
    ss_obs::install(
        Box::new(recorder),
        ss_obs::Registry::new(ss_obs::RegistrySpec {
            disks: cfg.disks,
            interval_us: cfg.interval().as_micros(),
            ..Default::default()
        }),
    );
    let report = staggered_striping::server::run(cfg).expect("valid config");
    let (_, registry) = ss_obs::uninstall().expect("installed above");
    let events = handle.lock().expect("run finished").clone();
    (report, events, registry)
}

/// Renders the journal exactly as the JSONL sink would.
fn journal_bytes(events: &[(u64, ss_obs::Event)]) -> String {
    let mut out = String::new();
    for (at, ev) in events {
        ev.write_jsonl(*at, &mut out);
        out.push('\n');
    }
    out
}

fn count(events: &[(u64, ss_obs::Event)], pred: impl Fn(&ss_obs::Event) -> bool) -> u64 {
    events.iter().filter(|(_, e)| pred(e)).count() as u64
}

/// Sums a projected field over the journal (events where `f` returns
/// `None` contribute nothing).
fn sum(events: &[(u64, ss_obs::Event)], f: impl Fn(&ss_obs::Event) -> Option<u64>) -> u64 {
    events.iter().filter_map(|(_, e)| f(e)).sum()
}

/// Asserts that counting journal events recovers the report aggregates.
fn reconcile(cfg: &ServerConfig, events: &[(u64, ss_obs::Event)], report: &RunReport) {
    use ss_obs::Event;
    let striping = matches!(cfg.scheme, Scheme::Striping { .. });

    let measured_ends = count(events, |e| {
        matches!(e, Event::DisplayEnd { measured: true, .. })
    });
    assert_eq!(measured_ends, report.displays_completed, "display ends");
    assert_eq!(
        count(events, |e| matches!(e, Event::Coalesce { .. })),
        report.coalesces,
        "coalesces"
    );

    let g = report.degraded.clone().unwrap_or_default();
    assert_eq!(
        count(events, |e| matches!(e, Event::DiskFail { .. })),
        g.faults_injected,
        "disk failures"
    );
    assert_eq!(
        count(events, |e| matches!(e, Event::DiskRepair { .. })),
        g.repairs,
        "repairs (scheduled and early-rebuild alike go through the mask)"
    );
    assert_eq!(
        count(events, |e| matches!(e, Event::DisplayDrop { .. })),
        g.streams_dropped,
        "dropped streams"
    );
    if striping {
        assert_eq!(
            count(events, |e| matches!(e, Event::Rescue { .. })),
            g.rescues,
            "fragment rescues"
        );
        assert_eq!(
            sum(events, |e| match e {
                Event::Hiccup { viewers, .. } => Some(1 + viewers),
                _ => None,
            }),
            g.hiccup_intervals,
            "hiccup intervals (each loss charges the primary plus its shared viewers)"
        );
        let h = g.self_heal.unwrap_or_default();
        assert_eq!(
            count(events, |e| matches!(e, Event::ParityPlan { .. })),
            h.degraded_admissions,
            "parity reconstruction plans"
        );
    } else {
        assert_eq!(
            count(events, |e| matches!(e, Event::ClusterRescue { .. })),
            g.rescues,
            "cluster rescues"
        );
        let dropped_hiccups: u64 = events
            .iter()
            .map(|(_, e)| match e {
                Event::DisplayDrop { hiccups, .. } => *hiccups,
                _ => 0,
            })
            .sum();
        assert_eq!(dropped_hiccups, g.hiccup_intervals, "lost intervals");
    }

    // Startup plane: every display open — private admission, shared
    // join or cluster start — records exactly one startup-wait sample.
    let opens = count(events, |e| {
        matches!(
            e,
            Event::AdmitAccept { .. }
                | Event::SharedJoin { .. }
                | Event::ClusterDisplayStart { .. }
        )
    });
    assert_eq!(
        count(events, |e| matches!(e, Event::Startup { .. })),
        opens,
        "one startup sample per display open"
    );

    // Sharing plane (section present exactly when sharing was armed).
    if let Some(s) = &report.sharing {
        assert_eq!(
            count(events, |e| matches!(e, Event::SharedJoin { .. })),
            s.viewers_joined,
            "shared joins"
        );
        assert_eq!(
            count(events, |e| matches!(e, Event::CacheAdmit { .. })),
            s.cache_insertions,
            "prefix-cache insertions"
        );
        assert_eq!(
            count(events, |e| matches!(e, Event::CacheEvict { .. })),
            s.cache_evictions,
            "prefix-cache evictions"
        );
    } else {
        assert_eq!(
            count(events, |e| matches!(
                e,
                Event::SharedJoin { .. } | Event::CacheAdmit { .. } | Event::CacheEvict { .. }
            )),
            0,
            "sharing events without a sharing section"
        );
    }

    // Distributed plane: routing decisions, compiled node outages and
    // the interconnect ledger all decompose into journal events.
    if let Some(d) = &report.distributed {
        assert_eq!(
            count(events, |e| matches!(e, Event::RouteAssign { .. })),
            d.displays_routed.iter().sum::<u64>(),
            "routed displays"
        );
        assert_eq!(
            count(events, |e| matches!(e, Event::NodeOutageCompiled { .. })),
            u64::from(d.node_outages),
            "compiled node outages"
        );
        assert_eq!(
            sum(events, |e| match e {
                Event::LinkBook {
                    from,
                    until,
                    fragments,
                    ..
                } => Some(fragments * (until - from)),
                _ => None,
            }),
            d.remote_fragment_intervals,
            "link-booked fragment intervals"
        );
    } else {
        assert_eq!(
            count(events, |e| matches!(
                e,
                Event::RouteAssign { .. }
                    | Event::NodeOutageCompiled { .. }
                    | Event::LinkBook { .. }
            )),
            0,
            "distributed events without a distributed section"
        );
    }

    // Crash/scrub plane: injected events, recovery passes and the scrub
    // daemon's findings all count straight off the journal.
    if let Some(c) = &report.crash {
        assert_eq!(
            count(events, |e| matches!(e, Event::PowerLoss { .. })),
            c.power_loss_events,
            "power losses"
        );
        assert_eq!(
            count(events, |e| matches!(e, Event::TornWrite { .. })),
            c.torn_write_events,
            "torn writes"
        );
        assert_eq!(
            count(events, |e| matches!(e, Event::CrashRecovery { .. })),
            c.recoveries,
            "recovery passes"
        );
        assert_eq!(
            count(events, |e| matches!(
                e,
                Event::CrashRecovery { clean: true, .. }
            )),
            c.recoveries_clean,
            "clean recoveries"
        );
        // The stat counts chunks as *issued* while the event records a
        // chunk's completed scan, so the run's final in-flight chunk
        // (if any) is counted but never journaled.
        let chunks_scanned = count(events, |e| matches!(e, Event::ScrubChunk { .. }));
        assert!(
            c.scrub_chunks - chunks_scanned <= 1,
            "at most the in-flight scrub chunk goes unscanned \
             ({} issued, {} scanned)",
            c.scrub_chunks,
            chunks_scanned
        );
        let fragments_scanned = sum(events, |e| match e {
            Event::ScrubChunk { fragments, .. } => Some(*fragments),
            _ => None,
        });
        assert!(
            fragments_scanned <= c.scrub_fragment_intervals,
            "scanned fragments cannot exceed issued fragments"
        );
        if chunks_scanned == c.scrub_chunks {
            assert_eq!(
                fragments_scanned, c.scrub_fragment_intervals,
                "scrubbed fragment intervals"
            );
        }
        assert_eq!(
            sum(events, |e| match e {
                Event::ScrubChunk { found, .. } => Some(*found),
                _ => None,
            }),
            c.latent_found,
            "latent errors found by scrub chunks"
        );
        assert_eq!(
            count(events, |e| matches!(e, Event::ScrubRepair { .. })),
            c.latent_repaired,
            "latent repairs"
        );
    } else {
        assert_eq!(
            count(events, |e| matches!(
                e,
                Event::PowerLoss { .. }
                    | Event::TornWrite { .. }
                    | Event::CrashRecovery { .. }
                    | Event::ScrubChunk { .. }
                    | Event::ScrubRepair { .. }
            )),
            0,
            "crash events without a crash section"
        );
    }

    // The event-sourced read timeline: splitting handovers preserves
    // span length, so expansion must recover exactly the booked reads.
    let (stride, cluster_size) = match &cfg.scheme {
        Scheme::Striping { stride, .. } => (*stride, 0),
        Scheme::Vdr { .. } => (0, cfg.degree()),
    };
    let (nodes, disks_per_node) = match &cfg.distributed {
        Some(d) => (d.topology.nodes, d.topology.disks_per_node),
        None => (1, cfg.disks),
    };
    let meta = ss_obs::TraceMeta {
        disks: cfg.disks,
        stride,
        interval_us: cfg.interval().as_micros(),
        cluster_size,
        nodes,
        disks_per_node,
    };
    let expansion = ss_obs::expand_reads(events, &meta);
    assert_eq!(expansion.unmatched_moves, 0, "every handover splits a span");
    assert_eq!(
        expansion.reads.len() as u64,
        ss_obs::booked_reads(events),
        "expanded reads == sum of degree x subobjects over admissions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The three core guarantees, swept over both schemes, fault counts
    /// and the self-healing knobs.
    #[test]
    fn observability_is_invisible_deterministic_and_faithful(
        seed in 0u64..1_000_000,
        stations in 4u32..=8,
        striping in proptest::bool::ANY,
        failures in 0u32..=2,
        heal in proptest::bool::ANY,
    ) {
        let cfg = obs_config(striping, stations, seed, failures, heal);

        // Recorder off: the plain run the goldens pin.
        let off = staggered_striping::server::run(&cfg).expect("valid config");
        // Recorder on, twice.
        let (on, events_a, registry) = run_with_journal(&cfg);
        let (_, events_b, _) = run_with_journal(&cfg);

        // 1. The toggle is invisible in every reported number.
        prop_assert_eq!(
            serde_json::to_string_pretty(&off).expect("serialize"),
            serde_json::to_string_pretty(&on).expect("serialize"),
            "installing the recorder changed the report"
        );
        // 2. Same seed, same bytes.
        prop_assert_eq!(
            journal_bytes(&events_a),
            journal_bytes(&events_b),
            "journal must be byte-deterministic"
        );
        // 3. The journal decomposes the report.
        reconcile(&cfg, &events_a, &on);
        // The registry agrees with the journal on admission counts
        // (striping admits fragments; VDR admits whole clusters).
        let accepts = count(&events_a, |e| matches!(
            e,
            ss_obs::Event::AdmitAccept { .. } | ss_obs::Event::ClusterDisplayStart { .. }
        ));
        prop_assert_eq!(registry.counter("admissions"), accepts);
        let rejects = count(&events_a, |e| matches!(e, ss_obs::Event::AdmitReject { .. }));
        prop_assert_eq!(registry.counter("rejections"), rejects);
        // One heatmap row and one series row per boundary.
        prop_assert_eq!(registry.heatmap_len(), registry.series().len());
        prop_assert!(registry.heatmap_len() > 0);
    }
}

/// A pinned faulted striping cell with parity + rebuild: every journal
/// plane must actually carry events (the sweep above would pass
/// vacuously on an empty journal).
#[test]
fn journal_planes_are_populated_under_faults() {
    use ss_obs::Event;
    let cfg = obs_config(true, 8, 1994, 1, true);
    let (report, events, registry) = run_with_journal(&cfg);
    reconcile(&cfg, &events, &report);
    assert!(count(&events, |e| matches!(e, Event::AdmitAccept { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::ReadSpan { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::DiskFail { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::RebuildQueued { .. })) > 0);
    assert_eq!(
        count(&events, |e| matches!(e, Event::FaultTimeline { .. })),
        1
    );
    assert_eq!(count(&events, |e| matches!(e, Event::EngineStop { .. })), 1);
    assert!(registry.heatmap_len() > 0);
    // The wasted-fraction series exists and stays within [0, 1].
    let series = registry.series();
    assert!(!series.is_empty());
    assert!(series
        .iter()
        .all(|r| (0.0..=1.0).contains(&r.wasted_fraction)));
}

/// The VDR baseline populates its cluster plane.
#[test]
fn vdr_journal_planes_are_populated() {
    use ss_obs::Event;
    let cfg = obs_config(false, 8, 1994, 1, false);
    let (report, events, _) = run_with_journal(&cfg);
    reconcile(&cfg, &events, &report);
    assert!(count(&events, |e| matches!(e, Event::ClusterDisplayStart { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::DiskFail { .. })) > 0);
}

/// `obs_config` with every post-PR-5 plane armed on top: stream
/// sharing, a two-node distributed farm with one node outage, and the
/// crash/scrub plane (stochastic power losses + torn writes).
fn fully_armed_config(striping: bool) -> ServerConfig {
    let mut cfg = obs_config(striping, 12, 1994, 1, striping);
    cfg.verify_delivery = false;
    cfg.sharing = Some(SharingConfig::window(16));
    let mut dist = DistributedConfig::even(2, cfg.disks);
    let warmup = cfg.warmup.as_micros();
    let measure = cfg.measure.as_micros();
    dist.node_outages = vec![NodeOutage {
        node: 1,
        fail_at: SimTime::from_micros(warmup + measure / 3),
        repair_at: SimTime::from_micros(warmup + measure / 2),
    }];
    cfg.distributed = Some(dist);
    cfg.faults.crash = Some(CrashFaults {
        power_loss_mtbf: Some(SimDuration::from_secs(240)),
        torn_write_mtbf: Some(SimDuration::from_secs(180)),
        ..Default::default()
    });
    cfg.scrub = Some(ScrubConfig::rate(4));
    cfg
}

/// Pinned striping run with every plane armed at once: the sharing,
/// distributed and crash/scrub sections of `reconcile` must all fire
/// non-vacuously and still decompose the report exactly.
#[test]
fn all_planes_reconcile_on_striping() {
    use ss_obs::Event;
    let cfg = fully_armed_config(true);
    let (report, events, _) = run_with_journal(&cfg);
    reconcile(&cfg, &events, &report);
    assert!(report.sharing.is_some(), "sharing section present");
    assert!(report.distributed.is_some(), "distributed section present");
    assert!(report.crash.is_some(), "crash section present");
    assert!(count(&events, |e| matches!(e, Event::SharedJoin { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::CacheAdmit { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::RouteAssign { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::LinkBook { .. })) > 0);
    assert_eq!(
        count(&events, |e| matches!(e, Event::NodeOutageCompiled { .. })),
        1
    );
    assert!(count(&events, |e| matches!(e, Event::PowerLoss { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::CrashRecovery { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::ScrubChunk { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::Startup { .. })) > 0);
}

/// The same fully-armed pin on the VDR baseline.
#[test]
fn all_planes_reconcile_on_vdr() {
    use ss_obs::Event;
    let cfg = fully_armed_config(false);
    let (report, events, _) = run_with_journal(&cfg);
    reconcile(&cfg, &events, &report);
    assert!(report.sharing.is_some(), "sharing section present");
    assert!(report.distributed.is_some(), "distributed section present");
    assert!(report.crash.is_some(), "crash section present");
    assert!(count(&events, |e| matches!(e, Event::SharedJoin { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::RouteAssign { .. })) > 0);
    assert_eq!(
        count(&events, |e| matches!(e, Event::NodeOutageCompiled { .. })),
        1
    );
    assert!(count(&events, |e| matches!(e, Event::PowerLoss { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::CrashRecovery { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::ScrubChunk { .. })) > 0);
    assert!(count(&events, |e| matches!(e, Event::Startup { .. })) > 0);
}

/// FNV-1a, the digest the repository benchmark pins its reports with.
fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The registry's two interval-indexed artifacts of three faulted
/// cells, pinned by digest: striping with and without parity + rebuild,
/// and VDR. The digests come from a build that filled every physical
/// row disk by disk, so they check the rotated rendering against an
/// independent fill: a rotation in the wrong direction moves a digest.
#[test]
fn registry_csvs_match_their_pinned_digests() {
    for (striping, heal, heatmap, series) in [
        (true, true, "783d3268534fe233", "3eced68255844693"),
        (true, false, "aec54edde4f35b09", "482a512079411aee"),
        (false, false, "c6b250eaad07f860", "b4224c92a1e0d9ec"),
    ] {
        let cfg = obs_config(striping, 8, 1994, 1, heal);
        let (_, _, registry) = run_with_journal(&cfg);
        let cell = format!("striping {striping}, heal {heal}");
        assert_eq!(
            fnv1a(&registry.heatmap_csv()),
            heatmap,
            "heatmap.csv of {cell}"
        );
        assert_eq!(
            fnv1a(&registry.series_csv()),
            series,
            "series.csv of {cell}"
        );
    }
}

/// A VDR farm whose disk count is no multiple of the cluster size: the
/// disks past the last whole cluster serve no data and read idle, so
/// every heatmap line still holds the interval and one cell per disk.
#[test]
fn a_vdr_heatmap_covers_the_disks_past_the_last_cluster() {
    let mut cfg = ServerConfig::small_vdr_test(8, 3);
    cfg.disks = 22;
    let (_, _, registry) = run_with_journal(&cfg);
    let csv = registry.heatmap_csv();
    assert!(csv.lines().count() > 1, "the run recorded heat rows");
    for line in csv.lines() {
        assert_eq!(line.split(',').count(), 23, "{line}");
    }
    for line in csv.lines().skip(1) {
        assert!(line.ends_with(",0,0"), "disks 20 and 21 are idle: {line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Skipping quiescent boundaries leaves the registry's artifacts as
    /// they are: a sparse run's heatmap and series CSVs equal, byte for
    /// byte, those of the same config ticked at every boundary. The
    /// sparse run fills only the boundaries whose row can have changed
    /// and repeats the rest, so this checks the repeat decision.
    #[test]
    fn sparse_registry_equals_dense_registry(
        seed in 0u64..1_000_000,
        stations in 4u32..=8,
        striping in proptest::bool::ANY,
        failures in 0u32..=2,
        heal in proptest::bool::ANY,
        fragmented in proptest::bool::ANY,
        sharing in proptest::bool::ANY,
    ) {
        let mut sparse = obs_config(striping, stations, seed, failures, heal);
        if fragmented {
            if let Scheme::Striping { policy, .. } = &mut sparse.scheme {
                *policy = AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 16,
                    max_delay_intervals: 8,
                };
            }
        }
        if sharing {
            sparse.sharing = Some(SharingConfig::window(8));
        }
        let mut dense = sparse.clone();
        dense.dense_ticks = true;
        let (_, _, a) = run_with_journal(&sparse);
        let (_, _, b) = run_with_journal(&dense);
        prop_assert_eq!(a.heatmap_csv(), b.heatmap_csv(), "heatmap.csv");
        prop_assert_eq!(a.series_csv(), b.series_csv(), "series.csv");
    }
}
