//! Dense-vs-sparse tick equivalence: event-driven quiescence
//! (`dense_ticks: false`, the default) must produce reports
//! bit-identical to ticking every interval boundary unconditionally.
//!
//! The property sweeps both schemes and all three arrival models over
//! randomized small configurations, with and without the storage plane
//! (power losses, torn writes and the scrub) armed, and striping under
//! each admission policy: contiguous, fragmented, and §3.1's naive
//! clusters. A second property compares the dense and sparse journals
//! with the storage plane armed. The deterministic tests pin down
//! that the sparse scheduler actually skips work on paper-scale
//! Figure-8 cells (a vacuous equivalence would pass the property) and
//! through a VDR scrub walk's chunk ends, and that each refusal the
//! clock may or may not sleep through is handled as a dense run would.

use proptest::prelude::*;
use staggered_striping::prelude::*;
use staggered_striping::server::config::{
    ArrivalModel, MaterializeMode, MediaMix, MixEntry, QueuePolicy, Scheme,
};
use staggered_striping::server::kernel::{PlacementPolicy, Server};
use staggered_striping::server::vdr::vdr_config_for;
use staggered_striping::server::{StripingServer, VdrServer};

/// A randomized small configuration: both schemes, all arrival models,
/// every queue policy, warm and cold starts, short windows, zero and
/// nonzero station think times, every fault-plan shape (none, scheduled
/// windows, a stochastic storm), a farm too small for the catalog (where
/// fetches are refused), stream sharing, a 4-node split whose links
/// refuse displays, and the storage plane: stochastic power losses and
/// torn writes, a scrub at 1–4 fragments per interval, or both, over
/// striping farms with and without parity (where the scrub repairs in
/// place). Striping admits contiguously, fragmented at stride 1 (4–64
/// buffers, a 1–16-interval delay window), or in §3.1's naive 5-disk
/// clusters at stride 5.
fn config_strategy() -> impl Strategy<Value = ServerConfig> {
    (
        1u32..=12,       // stations
        0u64..1_000,     // seed
        0u8..3,          // arrival model selector (striping only)
        prop::bool::ANY, // VDR?
        prop::bool::ANY, // preload
        0u8..3,          // queue policy selector
        // warmup / measure seconds; zero think time, or 1–240 s
        (60u64..=240, 300u64..=900, prop::bool::ANY, 1u64..=240),
        // fault plan, farm capacity, sharing and interconnect selectors;
        // storage plane selector, scrub rate, parity and the admission
        // policy with its fragmented bounds (striping only)
        (
            0u8..4,
            0u8..4,
            0u8..3,
            0u64..=10,
            0u8..4,
            1u64..=4,
            prop::bool::ANY,
            (0u8..3, 4u64..=64, 1u64..=16),
        ),
    )
        .prop_map(
            |(stations, seed, arrival, vdr, preload, queue, timing, planes)| {
                let (warmup, measure, thinks, think) = timing;
                let (faults, capacity, sharing, link, storage, scrub, parity, admission) = planes;
                let mut c = ServerConfig::small_test(stations, seed);
                c.warmup = SimDuration::from_secs(warmup);
                c.measure = SimDuration::from_secs(measure);
                if thinks {
                    c.think_time = SimDuration::from_secs(think);
                }
                c.faults = fault_plan(faults, warmup, measure);
                // Storage selector bit 0 arms crashes, bit 1 the scrub.
                if storage & 1 != 0 {
                    c.faults.crash = Some(CrashFaults {
                        power_loss_mtbf: Some(SimDuration::from_secs(240)),
                        torn_write_mtbf: Some(SimDuration::from_secs(180)),
                        ..Default::default()
                    });
                }
                if storage & 2 != 0 {
                    c.scrub = Some(ScrubConfig::rate(scrub));
                }
                c.preload = preload;
                c.verify_delivery = false;
                c.queue = match queue {
                    0 => QueuePolicy::Fcfs,
                    1 => QueuePolicy::SmallestFirst,
                    _ => QueuePolicy::LargestFirst,
                };
                match capacity {
                    // One VDR replica per cluster; a striping farm that
                    // holds two of its ten objects.
                    1 if vdr => c.disk.cylinders = 40,
                    1 => c.disk.cylinders = 25,
                    // Objects of two degrees and uneven lengths (striping
                    // only): a victim's slot may not fit the fetch.
                    2 if !vdr => {
                        c.disk.cylinders = 20;
                        c.mix = Some(uneven_mix());
                    }
                    _ => {}
                }
                c.sharing = match sharing {
                    1 => Some(SharingConfig::window(2)),
                    2 => Some(SharingConfig::window(8)),
                    _ => None,
                };
                // A third of the cases split the farm over four nodes
                // whose links carry 1–3 fragments per interval.
                if link <= 3 {
                    c.distributed = Some(split(&c, link.max(1)));
                }
                if vdr {
                    // The VDR baseline runs the closed workload only.
                    c.scheme = Scheme::Vdr {
                        vdr: vdr_config_for(&c),
                    };
                    c.materialize = MaterializeMode::AfterFull;
                } else {
                    if parity {
                        c.parity = Some(ParityConfig::group(4));
                    }
                    let (policy, max_buffer_fragments, max_delay_intervals) = admission;
                    match policy {
                        1 => {
                            c.scheme = Scheme::Striping {
                                stride: 1,
                                policy: AdmissionPolicy::Fragmented {
                                    max_buffer_fragments,
                                    max_delay_intervals,
                                },
                                cluster_round: None,
                            };
                        }
                        // `validate` refuses clusters narrower than the
                        // uneven mix's 6-disk objects.
                        2 if c.mix.is_none() => {
                            c.scheme = Scheme::Striping {
                                stride: 5,
                                policy: AdmissionPolicy::Contiguous,
                                cluster_round: Some(5),
                            };
                        }
                        _ => {} // contiguous at stride 5
                    }
                    match arrival {
                        1 => {
                            c.arrivals = ArrivalModel::Open {
                                rate_per_hour: 60.0 + 45.0 * f64::from(stations),
                            };
                        }
                        2 => {
                            // A sparse trace: one request every two
                            // simulated minutes, cycling the catalog.
                            c.arrivals = ArrivalModel::Trace {
                                events: (0..12)
                                    .map(|i| (i * 120_000_000, (i % 10) as u32))
                                    .collect(),
                            };
                        }
                        _ => {} // closed (the paper's workload)
                    }
                }
                c
            },
        )
}

/// Ten objects in id order alternating a 6-disk and a 2-disk media type,
/// 10–30 and 40–28 subobjects long.
fn uneven_mix() -> MediaMix {
    let wide = MediaType::new("wide-120", Bandwidth::mbps(120));
    let narrow = MediaType::new("narrow-40", Bandwidth::mbps(40));
    MediaMix {
        entries: (0..5)
            .flat_map(|i| {
                [
                    MixEntry {
                        media: wide.clone(),
                        count: 1,
                        subobjects: 10 + 5 * i,
                    },
                    MixEntry {
                        media: narrow.clone(),
                        count: 1,
                        subobjects: 40 - 3 * i,
                    },
                ]
            })
            .collect(),
    }
}

/// `c`'s farm split evenly over four nodes whose links each carry
/// `link` fragments per interval.
fn split(c: &ServerConfig, link: u64) -> DistributedConfig {
    let mut d = DistributedConfig::even(4, c.disks);
    d.interconnect.link_fragments_per_interval = Some(link);
    d
}

/// The fault-plan axis of the sweep. Sparse ticking must stay
/// bit-identical with faults live: timeline events are wakeup sources,
/// and rescue/hiccup decisions depend only on tick-boundary state.
fn fault_plan(selector: u8, warmup: u64, measure: u64) -> FaultPlan {
    let at = |s: u64| SimTime::from_secs(s);
    match selector {
        // One hard failure window in the middle of the measurement.
        1 => FaultPlan::fail_window(3, at(warmup + measure / 4), at(warmup + 3 * measure / 4)),
        // Two concurrent windows half a farm apart, plus a drop policy.
        2 => {
            let mut plan =
                FaultPlan::fail_window(0, at(warmup + measure / 4), at(warmup + measure / 2));
            plan.events.extend(
                FaultPlan::fail_window(10, at(warmup), at(warmup + 3 * measure / 4)).events,
            );
            plan.drop_after_hiccup_intervals = Some(25);
            plan
        }
        // A seed-driven storm with slow episodes mixed in.
        3 => FaultPlan {
            stochastic: Some(StochasticFaults {
                mean_time_between_failures: SimDuration::from_secs(measure / 4),
                mean_time_to_repair: SimDuration::from_secs(measure / 10),
                slow_fraction: 0.3,
            }),
            ..FaultPlan::none()
        },
        _ => FaultPlan::none(),
    }
}

/// Steps `cfg` to its deadline and returns its report and executed
/// ticks, checking the clock's accounting on the way: every interval
/// boundary from zero to the first one at or after the deadline is
/// either executed or skipped, exactly once, and dense runs skip none.
fn stepped(cfg: &ServerConfig) -> std::result::Result<(RunReport, u64), TestCaseError> {
    fn drive<P: PlacementPolicy>(
        mut server: Server<P>,
        cfg: &ServerConfig,
    ) -> std::result::Result<(RunReport, u64), TestCaseError> {
        let mut ticks = 0u64;
        while server.step() {
            ticks += 1;
        }
        let interval = cfg.interval().as_micros();
        let boundaries = (cfg.warmup + cfg.measure).as_micros().div_ceil(interval);
        let skipped = server.model().ticks_skipped();
        prop_assert_eq!(ticks + skipped, boundaries + 1);
        prop_assert_eq!(server.now(), SimTime::from_micros(boundaries * interval));
        if cfg.dense_ticks {
            prop_assert_eq!(skipped, 0);
        }
        Ok((server.run(), ticks))
    }
    match cfg.scheme {
        Scheme::Vdr { .. } => drive(VdrServer::new(cfg.clone()).expect("valid config"), cfg),
        _ => drive(StripingServer::new(cfg.clone()).expect("valid config"), cfg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The full `RunReport` — every derived statistic included — is
    /// identical whether ticks run densely or quiescent intervals are
    /// skipped.
    #[test]
    fn dense_and_sparse_reports_are_identical(cfg in config_strategy()) {
        let mut dense = cfg.clone();
        dense.dense_ticks = true;
        let mut sparse = cfg;
        sparse.dense_ticks = false;
        let (a, _) = stepped(&dense)?;
        let (b, _) = stepped(&sparse)?;
        prop_assert_eq!(a, b);
    }
}

/// A small farm of either scheme with the whole storage plane armed:
/// power losses (MTBF 240 s), torn writes (MTBF 90 s) and a scrub at
/// `scrub` fragments per interval, striping with parity group 4 when
/// `parity`, over a 120 s warm-up and 900 s measured.
fn armed_plane(vdr: bool, stations: u32, seed: u64, scrub: u64, parity: bool) -> ServerConfig {
    let mut c = if vdr {
        ServerConfig::small_vdr_test(stations, seed)
    } else {
        ServerConfig::small_test(stations, seed)
    };
    c.warmup = SimDuration::from_secs(120);
    c.measure = SimDuration::from_secs(900);
    c.faults.crash = Some(CrashFaults {
        power_loss_mtbf: Some(SimDuration::from_secs(240)),
        torn_write_mtbf: Some(SimDuration::from_secs(90)),
        ..Default::default()
    });
    c.scrub = Some(ScrubConfig::rate(scrub));
    if parity && !vdr {
        c.parity = Some(ParityConfig::group(4));
    }
    c
}

/// `cfg`'s journal, without the two kinds a sparse run may record
/// differently: `engine_stop` carries the executed-tick count, and a
/// dense run plans (and rejects) sleeping waiters a sparse run skips.
fn journal(cfg: &ServerConfig) -> Vec<(u64, ss_obs::Event)> {
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
    staggered_striping::server::run(cfg).expect("valid config");
    ss_obs::uninstall().expect("installed above");
    let events = std::mem::take(&mut *handle.lock().expect("run finished"));
    events
        .into_iter()
        .filter(|(_, ev)| {
            !matches!(
                ev,
                ss_obs::Event::EngineStop { .. } | ss_obs::Event::AdmitReject { .. }
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// With power losses, torn writes and the scrub armed, the sparse
    /// run records the dense run's journal: every crash, recovery, scrub
    /// chunk and repair, in the same order and at the same instant. The
    /// VDR walk's chunk ends are not wakeups, so this pins the stamps
    /// and the order of the chunks it completes when it catches up.
    #[test]
    fn dense_and_sparse_journals_match_with_the_storage_plane_armed(
        vdr in prop::bool::ANY,
        stations in 0u32..3,
        seed in 0u64..1_000,
        scrub in 1u64..=4,
        parity in prop::bool::ANY,
    ) {
        let mut cfg = armed_plane(vdr, 4 << stations, seed, scrub, parity);
        let sparse = journal(&cfg);
        cfg.dense_ticks = true;
        let dense = journal(&cfg);
        prop_assert!(
            sparse.iter().any(|(_, ev)| matches!(ev, ss_obs::Event::ScrubChunk { .. })),
            "the scrub walked"
        );
        prop_assert_eq!(sparse, dense);
    }
}

/// Steps `server` to its deadline and returns its executed and skipped
/// ticks.
fn tick_counts<P: PlacementPolicy>(mut server: Server<P>) -> (u64, u64) {
    let mut executed = 0;
    while server.step() {
        executed += 1;
    }
    (executed, server.model().ticks_skipped())
}

/// The sparse scheduler must actually skip intervals on a lightly
/// loaded Figure-8 cell — otherwise the equivalence above is vacuous —
/// and execute exactly the ticks it did before the kernel kept its
/// viewer ends and station readiness in heaps: a stale heap top would
/// add ticks without moving any report.
#[test]
fn figure8_striping_cell_skips_ticks() {
    let mut cfg = ServerConfig::paper_striping(1, 10.0, 1994);
    cfg.warmup = SimDuration::from_secs(1800);
    cfg.measure = SimDuration::from_secs(3600);
    let (executed, skipped) = tick_counts(StripingServer::new(cfg).expect("paper cell"));
    assert!(skipped > 0, "expected skipped intervals, got {skipped}");
    assert_eq!(executed, 5, "executed ticks");
}

/// Same guarantees for the VDR baseline model.
#[test]
fn figure8_vdr_cell_skips_ticks() {
    let mut cfg = ServerConfig::paper_vdr(1, 10.0, 1994);
    cfg.warmup = SimDuration::from_secs(1800);
    cfg.measure = SimDuration::from_secs(3600);
    let (executed, skipped) = tick_counts(VdrServer::new(cfg).expect("paper cell"));
    assert!(skipped > 0, "expected skipped intervals, got {skipped}");
    assert_eq!(executed, 5, "executed ticks");
}

/// VDR's metadata-only scrub walk sleeps through its chunk ends and
/// completes them at the next tick, so a scrub-armed cell with torn
/// writes executes fewer ticks than its walk completes chunks: 137 of
/// 3,474 boundaries for 1,365 chunks (1,436 when every chunk end was a
/// wakeup), with the dense run's report.
#[test]
fn a_vdr_scrub_walk_sleeps_through_its_chunk_ends() {
    let mut cfg = ServerConfig::small_vdr_test(4, 1994);
    cfg.scrub = Some(ScrubConfig::rate(1));
    cfg.faults.crash = Some(CrashFaults {
        torn_write_mtbf: Some(SimDuration::from_secs(90)),
        ..Default::default()
    });
    let (report, _) = sparse_equals_dense(&cfg);
    let crash = report.crash.expect("scrub armed");
    let (executed, skipped) = tick_counts(VdrServer::new(cfg).expect("valid config"));
    assert!(crash.latent_found > 0, "the walk found torn writes");
    assert!(
        executed < crash.scrub_chunks,
        "{executed} ticks for {} chunks",
        crash.scrub_chunks
    );
    assert_eq!(
        (executed, skipped),
        (137, 3_337),
        "executed and skipped ticks"
    );
}

/// A station waits out its think time before its next request: on the
/// small farm the display count falls as the think time grows, on both
/// schemes, and dense and sparse ticking still agree.
#[test]
fn think_time_delays_the_next_request() {
    for (think_secs, striping, vdr) in [(0, 234, 227), (100, 56, 58), (600, 12, 12)] {
        for (mut cfg, displays) in [
            (ServerConfig::small_test(4, 42), striping),
            (ServerConfig::small_vdr_test(4, 42), vdr),
        ] {
            cfg.think_time = SimDuration::from_secs(think_secs);
            let (sparse, _) = sparse_equals_dense(&cfg);
            assert_eq!(
                sparse.displays_completed, displays,
                "{} with think {think_secs} s",
                sparse.scheme
            );
        }
    }
}

/// With disk 3 failed over the middle half of the window and no parity,
/// every display of the small farm visits the failed disk within one
/// rotation period, so no plan can pass until just before the repair:
/// each rejected waiter sleeps until then, and the outage's boundaries
/// are skipped instead of ticked. The report still equals the dense one.
#[test]
fn an_unavoidable_outage_is_skipped_not_ticked() {
    for stations in [4, 8, 16] {
        let mut cfg = ServerConfig::small_test(stations, 1994);
        let secs = |d: SimDuration| d.as_micros() / 1_000_000;
        let (warmup, measure) = (secs(cfg.warmup), secs(cfg.measure));
        cfg.faults = fault_plan(1, warmup, measure);
        let (fail, repair) = (
            SimTime::from_secs(warmup + measure / 4),
            SimTime::from_secs(warmup + 3 * measure / 4),
        );
        let mut server = StripingServer::new(cfg.clone()).expect("valid config");
        let mut inside = 0u64;
        while server.step() {
            inside += u64::from(fail < server.now() && server.now() < repair);
        }
        assert!(
            inside <= 50,
            "{stations} stations: {inside} ticks inside the outage"
        );
        let sparse = server.run();
        cfg.dense_ticks = true;
        let (dense, _) = stepped(&cfg).expect("clock accounting holds");
        assert_eq!(dense, sparse, "{stations} stations");
    }
}

/// Runs `cfg` sparse and dense, asserts that the reports are equal, and
/// returns the sparse report with the sparse run's executed ticks.
fn sparse_equals_dense(cfg: &ServerConfig) -> (RunReport, u64) {
    let (sparse, ticks) = stepped(cfg).expect("clock accounting holds");
    let mut dense = cfg.clone();
    dense.dense_ticks = true;
    let (dense, _) = stepped(&dense).expect("clock accounting holds");
    assert_eq!(dense, sparse);
    (sparse, ticks)
}

/// With eight stations on VDR's four clusters, the fetch queue's head
/// waits most of the run for an idle cluster it may evict. A refused
/// fetch can only pass once a display ends, a copy lands or a request
/// arrives, all of them wakeups, so the clock sleeps through the
/// boundaries in between: about 250 of the run's 3,474 are executed
/// (3,091 when each refusal forced the next boundary).
#[test]
fn a_refused_fetch_is_skipped_not_ticked() {
    let (_, ticks) = sparse_equals_dense(&ServerConfig::small_vdr_test(8, 1994));
    assert!(ticks <= 400, "{ticks} ticks executed");
}

/// A waiter queued while a stream of its object is inside the join
/// window, with the object's prefix not cached, tries the join at every
/// boundary and counts a prefix-cache miss each time. The clock ticks
/// those boundaries, so the sparse run counts the dense run's 11 misses
/// (it counted 1 when it skipped them).
#[test]
fn a_waiter_inside_a_join_window_is_ticked() {
    let mut cfg = ServerConfig::small_test(8, 13);
    cfg.sharing = Some(SharingConfig::window(8));
    let (report, _) = sparse_equals_dense(&cfg);
    assert_eq!(report.sharing.expect("sharing armed").cache_misses, 11);
}

/// A VDR display the interconnect refused stays queued and retries with
/// a fresh router draw at every boundary, so the clock ticks while one
/// waits. On a 4-node split with one fragment per link per interval the
/// sparse run completes the dense run's 228 displays (it completed 6
/// when it slept through the retries).
#[test]
fn a_vdr_display_the_link_refused_is_ticked() {
    let mut cfg = ServerConfig::small_vdr_test(4, 0);
    cfg.distributed = Some(split(&cfg, 1));
    let (report, _) = sparse_equals_dense(&cfg);
    assert_eq!(report.displays_completed, 228);
}

/// On a farm far too small for a catalog of uneven objects, a fetch can
/// be refused after evicting: no victim's slot fits it, but its retry
/// places at the round-robin start, which the evictions may have
/// cleared. A dense run retries at the next boundary; so does the sparse
/// run.
#[test]
fn a_fetch_refused_after_evicting_is_retried_next_interval() {
    let mut cfg = ServerConfig::small_test(4, 0);
    cfg.disk.cylinders = 20;
    cfg.mix = Some(uneven_mix());
    let (report, _) = sparse_equals_dense(&cfg);
    assert_eq!(report.displays_completed, 105);
}
