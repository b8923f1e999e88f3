//! Cross-node equivalence and invariants for the distributed tier.
//!
//! The correctness spine:
//!
//! 1. **1 node ≡ single box.** A `distributed` config with one node and
//!    an infinite interconnect produces a `RunReport` byte-identical to
//!    the same run with `distributed: None` — across schemes, arrival
//!    models, fault plans, and stream sharing. Every fragment is local,
//!    so the router and ledger are provably inert.
//! 2. **No unbooked crossing.** On a multi-node farm, every fragment a
//!    display reads from another node's disk has a booked interconnect
//!    interval behind it, at every processed tick (re-plans may overbook,
//!    never undercount).
//! 3. **Multi-node runs are seed-deterministic** on both server models,
//!    and the `distributed` report section appears exactly when it can
//!    say something a single box cannot.

use proptest::prelude::*;
use staggered_striping::prelude::*;
use staggered_striping::server::config::{
    ArrivalModel, MaterializeMode, QueuePolicy, RouterPolicy, Scheme,
};
use staggered_striping::server::vdr::vdr_config_for;

/// A randomized small configuration. The axes mirror
/// `sharing_equivalence`'s strategy with the sharing knob swept on/off —
/// the distributed tier must compose with all of it.
fn config_strategy() -> impl Strategy<Value = ServerConfig> {
    (
        1u32..=6,                    // stations
        0u64..1_000,                 // seed
        0u8..3,                      // arrival model selector (striping only)
        prop::bool::ANY,             // VDR?
        prop::bool::ANY,             // preload
        0u8..3,                      // queue policy selector
        (60u64..=240, 300u64..=900), // warmup / measure seconds
        // fault plan / self-healing (striping only) /
        // sharing on-off-tight / router policy
        (0u8..4, 0u8..3, 0u8..3, prop::bool::ANY),
    )
        .prop_map(
            |(
                stations,
                seed,
                arrival,
                vdr,
                preload,
                queue,
                (warmup, measure),
                (faults, healing, sharing_sel, affinity),
            )| {
                let mut c = ServerConfig::small_test(stations, seed);
                c.warmup = SimDuration::from_secs(warmup);
                c.measure = SimDuration::from_secs(measure);
                c.faults = fault_plan(faults, warmup, measure);
                c.preload = preload;
                c.verify_delivery = false;
                c.sharing = match sharing_sel {
                    0 => None,
                    1 => Some(SharingConfig::window(4)),
                    _ => Some(SharingConfig {
                        batch_window: 4,
                        prefix_intervals: 8,
                        cache_fragments: 64, // tight: forces evictions
                    }),
                };
                c.queue = match queue {
                    0 => QueuePolicy::Fcfs,
                    1 => QueuePolicy::SmallestFirst,
                    _ => QueuePolicy::LargestFirst,
                };
                if vdr {
                    // The VDR baseline runs the closed workload only and
                    // carries neither parity nor rebuild.
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
                            c.arrivals = ArrivalModel::Trace {
                                events: (0..12)
                                    .map(|i| (i * 120_000_000, (i % 10) as u32))
                                    .collect(),
                            };
                        }
                        _ => {} // closed (the paper's workload)
                    }
                    match healing {
                        1 => c.parity = Some(ParityConfig::group(5)),
                        2 => {
                            c.parity = Some(ParityConfig::group(5));
                            c.rebuild = Some(RebuildConfig::rate(4));
                        }
                        _ => {}
                    }
                }
                // The distributed config under test: one node, infinite
                // links, both router policies swept (they must all be
                // inert at N = 1).
                let mut d = DistributedConfig::even(1, c.disks);
                if affinity {
                    d.router = RouterPolicy::LocalityAffinity;
                }
                c.distributed = Some(d);
                c
            },
        )
}

/// The fault-plan axis, identical to `sharing_equivalence`'s.
fn fault_plan(selector: u8, warmup: u64, measure: u64) -> FaultPlan {
    let at = |s: u64| SimTime::from_secs(s);
    match selector {
        1 => FaultPlan::fail_window(3, at(warmup + measure / 4), at(warmup + 3 * measure / 4)),
        2 => {
            let mut plan =
                FaultPlan::fail_window(0, at(warmup + measure / 4), at(warmup + measure / 2));
            plan.events.extend(
                FaultPlan::fail_window(10, at(warmup), at(warmup + 3 * measure / 4)).events,
            );
            plan.drop_after_hiccup_intervals = Some(25);
            plan
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A 1-node infinite-interconnect distributed run reproduces the
    /// plain run's `RunReport` byte-for-byte.
    #[test]
    fn one_node_report_is_byte_identical_to_single_box(cfg in config_strategy()) {
        let mut plain = cfg.clone();
        plain.distributed = None;
        let a = staggered_striping::server::run(&plain).expect("plain run");
        let b = staggered_striping::server::run(&cfg).expect("distributed run");
        prop_assert!(b.distributed.is_none(), "N = 1 must not attach the section");
        prop_assert_eq!(a, b);
    }
}

/// A 4-node split of the 20-disk test farm with moderate closed load.
fn multi_node(nodes: u32, seed: u64, policy: RouterPolicy) -> ServerConfig {
    let mut c = ServerConfig::small_test(6, seed);
    c.verify_delivery = false;
    let mut d = DistributedConfig::even(nodes, c.disks);
    d.router = policy;
    c.distributed = Some(d);
    c
}

/// Invariant 2, tick by tick: stepping a 4-node striping run event by
/// event, no committed read ever crosses nodes without a booked
/// interconnect interval — and the run actually reads remotely, so the
/// check is not vacuous.
#[test]
fn no_fragment_crosses_nodes_without_a_booked_interval() {
    for policy in [RouterPolicy::LeastLoaded, RouterPolicy::LocalityAffinity] {
        let cfg = multi_node(4, 7, policy);
        let mut server = StripingServer::new(cfg).expect("valid config");
        while server.step() {
            let now = server.now();
            assert_eq!(
                server.model().remote_booking_deficit(now),
                0,
                "unbooked cross-node read at {now:?} under {policy:?}"
            );
        }
        assert!(
            server.model().remote_fragment_intervals() > 0,
            "a 4-node striped farm must read remotely under {policy:?}"
        );
    }
}

/// Multi-node runs are seed-deterministic on both server models, and the
/// report section carries the routing census.
#[test]
fn multi_node_runs_are_deterministic_and_report_routing() {
    for vdr in [false, true] {
        let mk = || {
            let mut c = multi_node(2, 99, RouterPolicy::LeastLoaded);
            if vdr {
                c.scheme = Scheme::Vdr {
                    vdr: vdr_config_for(&c),
                };
                c.materialize = MaterializeMode::AfterFull;
            }
            c
        };
        let a = staggered_striping::server::run(&mk()).expect("first run");
        let b = staggered_striping::server::run(&mk()).expect("second run");
        assert_eq!(a, b);
        let ds = a.distributed.expect("multi-node section present");
        assert_eq!(ds.nodes, 2);
        assert_eq!(ds.disks_per_node, 10);
        assert_eq!(ds.displays_routed.len(), 2);
        assert!(
            ds.displays_routed.iter().sum::<u64>() > 0,
            "displays must be routed: {ds:?}"
        );
    }
}

/// Locality affinity exists to cut interconnect traffic: on the striping
/// farm it must book no more remote fragment·intervals than least-loaded
/// routing of the same workload (and the VDR baseline, whose clusters
/// map cleanly onto nodes, books exactly zero under affinity).
#[test]
fn locality_affinity_books_no_more_remote_traffic_than_least_loaded() {
    let least = staggered_striping::server::run(&multi_node(4, 21, RouterPolicy::LeastLoaded))
        .expect("least-loaded run");
    let affine =
        staggered_striping::server::run(&multi_node(4, 21, RouterPolicy::LocalityAffinity))
            .expect("affinity run");
    let (l, a) = (
        least
            .distributed
            .expect("section")
            .remote_fragment_intervals,
        affine
            .distributed
            .expect("section")
            .remote_fragment_intervals,
    );
    assert!(a <= l, "affinity {a} must not exceed least-loaded {l}");

    let mut vdr_cfg = multi_node(4, 21, RouterPolicy::LocalityAffinity);
    vdr_cfg.scheme = Scheme::Vdr {
        vdr: vdr_config_for(&vdr_cfg),
    };
    vdr_cfg.materialize = MaterializeMode::AfterFull;
    let vdr_run = staggered_striping::server::run(&vdr_cfg).expect("vdr affinity run");
    let ds = vdr_run.distributed.expect("section");
    assert_eq!(
        ds.remote_fragment_intervals, 0,
        "VDR affinity homes every display on its cluster's node: {ds:?}"
    );
}

/// A node outage compiles into correlated disk failures: the section
/// reports it, degraded-mode accounting fires, and the run still
/// completes displays (the other nodes carry the farm).
#[test]
fn node_outage_compiles_into_correlated_disk_faults() {
    let mut cfg = multi_node(4, 5, RouterPolicy::LeastLoaded);
    cfg.parity = Some(ParityConfig::group(5));
    cfg.distributed.as_mut().expect("armed").node_outages = vec![NodeOutage {
        node: 1,
        fail_at: SimTime::from_secs(600),
        repair_at: SimTime::from_secs(1200),
    }];
    let report = staggered_striping::server::run(&cfg).expect("outage run");
    let ds = report.distributed.as_ref().expect("section present");
    assert_eq!(ds.node_outages, 1);
    let g = report.degraded.as_ref().expect("faults fired");
    assert_eq!(
        g.faults_injected, 5,
        "one node outage fails all 5 of its disks: {g:?}"
    );
    assert_eq!(g.repairs, 5, "every disk repairs at the window's end");
    assert!(
        report.displays_completed > 0,
        "the farm survives the outage"
    );
}
