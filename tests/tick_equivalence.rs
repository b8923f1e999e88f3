//! Dense-vs-sparse tick equivalence: event-driven quiescence
//! (`dense_ticks: false`, the default) must produce reports
//! bit-identical to ticking every interval boundary unconditionally.
//!
//! The property sweeps both schemes and all three arrival models over
//! randomized small configurations; the deterministic tests pin down
//! that the sparse scheduler actually skips work on paper-scale
//! Figure-8 cells (a vacuous equivalence would pass the property).

use proptest::prelude::*;
use staggered_striping::prelude::*;
use staggered_striping::server::config::{ArrivalModel, MaterializeMode, QueuePolicy, Scheme};
use staggered_striping::server::kernel::{PlacementPolicy, Server};
use staggered_striping::server::vdr::vdr_config_for;
use staggered_striping::server::{StripingServer, VdrServer};

/// A randomized small configuration: both schemes, all arrival models,
/// every queue policy, warm and cold starts, short windows, zero and
/// nonzero station think times, and every fault-plan shape (none,
/// scheduled windows, a stochastic storm).
fn config_strategy() -> impl Strategy<Value = ServerConfig> {
    (
        1u32..=6,        // stations
        0u64..1_000,     // seed
        0u8..3,          // arrival model selector (striping only)
        prop::bool::ANY, // VDR?
        prop::bool::ANY, // preload
        0u8..3,          // queue policy selector
        // warmup / measure seconds; zero think time, or 1–240 s
        (60u64..=240, 300u64..=900, prop::bool::ANY, 1u64..=240),
        0u8..4, // fault plan selector
    )
        .prop_map(
            |(stations, seed, arrival, vdr, preload, queue, timing, faults)| {
                let (warmup, measure, thinks, think) = timing;
                let mut c = ServerConfig::small_test(stations, seed);
                c.warmup = SimDuration::from_secs(warmup);
                c.measure = SimDuration::from_secs(measure);
                if thinks {
                    c.think_time = SimDuration::from_secs(think);
                }
                c.faults = fault_plan(faults, warmup, measure);
                c.preload = preload;
                c.verify_delivery = false;
                c.queue = match queue {
                    0 => QueuePolicy::Fcfs,
                    1 => QueuePolicy::SmallestFirst,
                    _ => QueuePolicy::LargestFirst,
                };
                if vdr {
                    // The VDR baseline runs the closed workload only.
                    c.scheme = Scheme::Vdr {
                        vdr: vdr_config_for(&c),
                    };
                    c.materialize = MaterializeMode::AfterFull;
                } else {
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

/// Steps `cfg` to its deadline and returns its report, checking the
/// clock's accounting on the way: every interval boundary from zero to
/// the first one at or after the deadline is either executed or skipped,
/// exactly once, and dense runs skip none.
fn stepped(cfg: &ServerConfig) -> std::result::Result<RunReport, TestCaseError> {
    fn drive<P: PlacementPolicy>(
        mut server: Server<P>,
        cfg: &ServerConfig,
    ) -> std::result::Result<RunReport, TestCaseError> {
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
        Ok(server.run())
    }
    match cfg.scheme {
        Scheme::Vdr { .. } => drive(VdrServer::new(cfg.clone()).expect("valid config"), cfg),
        _ => drive(StripingServer::new(cfg.clone()).expect("valid config"), cfg),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full `RunReport` — every derived statistic included — is
    /// identical whether ticks run densely or quiescent intervals are
    /// skipped.
    #[test]
    fn dense_and_sparse_reports_are_identical(cfg in config_strategy()) {
        let mut dense = cfg.clone();
        dense.dense_ticks = true;
        let mut sparse = cfg;
        sparse.dense_ticks = false;
        let a = stepped(&dense)?;
        let b = stepped(&sparse)?;
        prop_assert_eq!(a, b);
    }
}

/// The sparse scheduler must actually skip intervals on a lightly
/// loaded Figure-8 cell — otherwise the equivalence above is vacuous.
#[test]
fn figure8_striping_cell_skips_ticks() {
    let mut cfg = ServerConfig::paper_striping(1, 10.0, 1994);
    cfg.warmup = SimDuration::from_secs(1800);
    cfg.measure = SimDuration::from_secs(3600);
    let mut server = StripingServer::new(cfg).expect("paper cell");
    while server.step() {}
    let skipped = server.model().ticks_skipped();
    assert!(skipped > 0, "expected skipped intervals, got {skipped}");
}

/// Same guarantee for the VDR baseline model.
#[test]
fn figure8_vdr_cell_skips_ticks() {
    let mut cfg = ServerConfig::paper_vdr(1, 10.0, 1994);
    cfg.warmup = SimDuration::from_secs(1800);
    cfg.measure = SimDuration::from_secs(3600);
    let mut server = VdrServer::new(cfg).expect("paper cell");
    while server.step() {}
    let skipped = server.model().ticks_skipped();
    assert!(skipped > 0, "expected skipped intervals, got {skipped}");
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
            let sparse = stepped(&cfg).expect("clock accounting holds");
            cfg.dense_ticks = true;
            let dense = stepped(&cfg).expect("clock accounting holds");
            assert_eq!(dense, sparse, "think {think_secs} s");
            assert_eq!(
                sparse.displays_completed, displays,
                "{} with think {think_secs} s",
                sparse.scheme
            );
        }
    }
}
