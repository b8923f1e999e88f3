//! Directed cases for `ServerConfig::validate`: each configuration here
//! once passed validation and then panicked or overflowed mid-run. It must
//! now fail up front with a typed `InvalidConfig`, on every scheme it
//! reaches, and the server constructors must refuse it the same way.

use staggered_striping::prelude::*;
use staggered_striping::server::config::{ArrivalModel, MediaMix, MixEntry, QueuePolicy};
use staggered_striping::server::kernel::{PlacementPolicy, Server};
use staggered_striping::vdr::CopySource;

/// Asserts that `validate` and the scheme's constructor both refuse `cfg`.
fn refused(cfg: ServerConfig) {
    let verdict = cfg.validate();
    assert!(
        matches!(verdict, Err(Error::InvalidConfig { .. })),
        "validate returned {verdict:?}"
    );
    let built = match cfg.scheme {
        Scheme::Vdr { .. } => VdrServer::new(cfg).map(drop),
        _ => StripingServer::new(cfg).map(drop),
    };
    assert!(matches!(built, Err(Error::InvalidConfig { .. })));
}

/// The 20-disk test farm on each scheme: 10 objects, mean 2.
fn both_schemes() -> [ServerConfig; 2] {
    [
        ServerConfig::small_test(2, 42),
        ServerConfig::small_vdr_test(2, 42),
    ]
}

/// `cfg` split over two nodes with a one-way interconnect latency.
fn two_nodes(mut cfg: ServerConfig, latency_intervals: u64) -> ServerConfig {
    let mut d = DistributedConfig::even(2, cfg.disks);
    d.interconnect.latency_intervals = latency_intervals;
    cfg.distributed = Some(d);
    cfg
}

#[test]
fn a_one_object_database_is_refused_on_both_schemes() {
    for mut cfg in both_schemes() {
        cfg.objects = 1;
        refused(cfg);
    }
}

#[test]
fn a_geometric_mean_past_the_uniform_mean_is_refused() {
    // Over 10 objects the uniform mean is 4.5: no geometric reaches 20.
    let mut cfg = ServerConfig::small_test(2, 42);
    cfg.popularity = Popularity::TruncatedGeometric { mean: 20.0 };
    refused(cfg);
}

#[test]
fn a_nan_geometric_mean_is_refused() {
    let mut cfg = ServerConfig::small_test(2, 42);
    cfg.popularity = Popularity::TruncatedGeometric { mean: f64::NAN };
    refused(cfg);
}

#[test]
fn a_negative_zipf_alpha_is_refused() {
    let mut cfg = ServerConfig::small_test(2, 42);
    cfg.popularity = Popularity::Zipf { alpha: -1.0 };
    refused(cfg);
}

#[test]
fn an_interconnect_latency_longer_than_the_run_is_refused_on_striping() {
    refused(two_nodes(ServerConfig::small_test(2, 42), u64::MAX / 2));
}

#[test]
fn an_interconnect_latency_longer_than_the_run_is_refused_on_vdr() {
    refused(two_nodes(ServerConfig::small_vdr_test(2, 42), u64::MAX / 2));
}

#[test]
fn an_interconnect_latency_as_long_as_the_run_still_runs() {
    for cfg in both_schemes() {
        let run = cfg.run_intervals();
        refused(two_nodes(cfg.clone(), run + 1));
        let cfg = two_nodes(cfg, run);
        let report = match cfg.scheme {
            Scheme::Vdr { .. } => VdrServer::new(cfg).expect("valid config").run(),
            _ => StripingServer::new(cfg).expect("valid config").run(),
        };
        assert!(report.displays_completed > 0);
    }
}

/// The 20-disk striping test farm at stride 1 with fragmented admission
/// allowed to delay a display by up to `max_delay_intervals`.
fn fragmented(max_delay_intervals: u64) -> ServerConfig {
    let mut cfg = ServerConfig::small_test(4, 42);
    cfg.scheme = Scheme::Striping {
        stride: 1,
        policy: AdmissionPolicy::Fragmented {
            max_buffer_fragments: 8,
            max_delay_intervals,
        },
        cluster_round: None,
    };
    cfg
}

#[test]
fn an_unbounded_fragmented_delay_is_refused() {
    refused(fragmented(u64::MAX));
}

#[test]
fn a_fragmented_delay_as_long_as_the_run_still_runs() {
    let run = fragmented(0).run_intervals();
    refused(fragmented(run + 1));
    let report = StripingServer::new(fragmented(run))
        .expect("valid config")
        .run();
    assert!(report.displays_completed > 0);
}

/// `cfg` with its warmup at the limit of the simulation clock.
fn endless_warmup(mut cfg: ServerConfig) -> ServerConfig {
    cfg.warmup = SimDuration::from_micros(u64::MAX);
    cfg
}

/// `cfg` with a think time no clock can add to a display's end.
fn endless_think_time(mut cfg: ServerConfig) -> ServerConfig {
    cfg.think_time = SimDuration::from_micros(u64::MAX);
    cfg
}

#[test]
fn a_warmup_past_the_clock_is_refused_on_striping() {
    refused(endless_warmup(ServerConfig::small_test(4, 42)));
}

#[test]
fn a_warmup_past_the_clock_is_refused_on_vdr() {
    refused(endless_warmup(ServerConfig::small_vdr_test(4, 42)));
}

#[test]
fn a_think_time_past_the_clock_is_refused_on_striping() {
    refused(endless_think_time(ServerConfig::small_test(4, 42)));
}

#[test]
fn a_think_time_past_the_clock_is_refused_on_vdr() {
    refused(endless_think_time(ServerConfig::small_vdr_test(4, 42)));
}

/// Steps a server built from `cfg` through its deadline tick and returns
/// that tick's boundary and the run's report.
fn run_to_deadline(cfg: ServerConfig) -> (SimTime, RunReport) {
    fn drive<P: PlacementPolicy>(mut server: Server<P>) -> (SimTime, RunReport) {
        while server.step() {}
        (server.now(), server.run())
    }
    match cfg.scheme {
        Scheme::Vdr { .. } => drive(VdrServer::new(cfg).expect("valid config")),
        _ => drive(StripingServer::new(cfg).expect("valid config")),
    }
}

#[test]
fn the_longest_think_time_the_clock_holds_runs_to_its_deadline() {
    for mut cfg in both_schemes() {
        // Displays complete no later than the deadline tick, less than
        // one interval past the run's end, and think from there. With no
        // warmup every display is measured.
        cfg.warmup = SimDuration::ZERO;
        let interval = cfg.interval();
        let end = cfg.warmup + cfg.measure;
        let longest = u64::MAX - end.as_micros() - interval.as_micros();
        cfg.think_time = SimDuration::from_micros(longest + 1);
        refused(cfg.clone());
        cfg.think_time = SimDuration::from_micros(longest);
        let deadline = SimTime::ZERO + end;
        let (last, report) = run_to_deadline(cfg);
        assert!(
            last >= deadline && last < deadline + interval,
            "last tick at {last}, deadline {deadline}"
        );
        // Each station displays once, then thinks past the deadline.
        assert_eq!(report.displays_completed, u64::from(report.stations));
    }
}

#[test]
fn a_vdr_cluster_that_holds_no_object_is_refused() {
    let mut cfg = ServerConfig::small_vdr_test(2, 42);
    let Scheme::Vdr { vdr } = &mut cfg.scheme else {
        unreachable!("small_vdr_test runs VDR")
    };
    vdr.objects_per_cluster = 0;
    refused(cfg);
}

#[test]
fn a_zero_display_bandwidth_is_refused_on_both_schemes() {
    for mut cfg in both_schemes() {
        cfg.media.display_bandwidth = Bandwidth::ZERO;
        refused(cfg);
    }
}

#[test]
fn a_mix_entry_with_zero_bandwidth_or_subobjects_is_refused() {
    let entry = |display_bandwidth, subobjects| MixEntry {
        media: MediaType::new("probe", display_bandwidth),
        count: 2,
        subobjects,
    };
    for bad in [entry(Bandwidth::ZERO, 40), entry(Bandwidth::mbps(100), 0)] {
        let mut cfg = ServerConfig::small_test(2, 42);
        cfg.popularity = Popularity::Uniform;
        cfg.mix = Some(MediaMix {
            entries: vec![entry(Bandwidth::mbps(100), 40), bad],
        });
        refused(cfg);
    }
}

#[test]
fn a_degree_of_declustering_past_u32_is_refused_on_both_schemes() {
    for mut cfg in both_schemes() {
        // 10^13 mbps over a 20 mbps disk: a degree of 5 × 10^11.
        cfg.media.display_bandwidth = Bandwidth::mbps(10_000_000_000_000);
        refused(cfg);
    }
}

#[test]
fn a_cylinder_that_overflows_the_interval_is_refused_on_both_schemes() {
    for mut cfg in both_schemes() {
        cfg.disk.cylinder_capacity = Bytes::new(u64::MAX / 4);
        refused(cfg);
    }
}

/// One entry of the config-fuzz table: a field set to a boundary value.
type Mutation = (&'static str, fn(&mut ServerConfig));

/// Boundary values for the fields a stored config sets. Counts stay
/// bounded (objects, subobjects, stations, disks, cylinders, open
/// arrival rates), and so do run lengths, since stochastic fault and
/// crash timelines compile up front: the engine allocates in proportion
/// to each, so far enough past these they exhaust memory, a limit
/// rather than a panic.
const MUTATIONS: &[Mutation] = &[
    ("disks = 0", |c| c.disks = 0),
    ("disks = 1", |c| c.disks = 1),
    ("disks = 7", |c| c.disks = 7),
    ("disks = 40", |c| c.disks = 40),
    ("objects = 0", |c| c.objects = 0),
    ("objects = 1", |c| c.objects = 1),
    ("objects = 3", |c| c.objects = 3),
    ("objects = 20", |c| c.objects = 20),
    ("objects = 500", |c| c.objects = 500),
    ("subobjects = 0", |c| c.subobjects = 0),
    ("subobjects = 1", |c| c.subobjects = 1),
    ("subobjects = 20", |c| c.subobjects = 20),
    ("subobjects = 5000", |c| c.subobjects = 5000),
    ("stations = 0", |c| c.stations = 0),
    ("stations = 1", |c| c.stations = 1),
    ("stations = 2", |c| c.stations = 2),
    ("stations = 8", |c| c.stations = 8),
    ("stations = 64", |c| c.stations = 64),
    ("cylinders_per_fragment = 0", |c| {
        c.cylinders_per_fragment = 0
    }),
    ("cylinders_per_fragment = 2", |c| {
        c.cylinders_per_fragment = 2
    }),
    ("cylinders_per_fragment = MAX", |c| {
        c.cylinders_per_fragment = u32::MAX
    }),
    ("disk.cylinders = 0", |c| c.disk.cylinders = 0),
    ("disk.cylinders = 1", |c| c.disk.cylinders = 1),
    ("disk.cylinders = 10^6", |c| c.disk.cylinders = 1_000_000),
    ("disk.cylinder_capacity = 0", |c| {
        c.disk.cylinder_capacity = Bytes::ZERO
    }),
    ("disk.cylinder_capacity = 1 B", |c| {
        c.disk.cylinder_capacity = Bytes::new(1)
    }),
    ("disk.cylinder_capacity = 1 TB", |c| {
        c.disk.cylinder_capacity = Bytes::new(1_000_000_000_000)
    }),
    ("disk.cylinder_capacity = MAX / 4", |c| {
        c.disk.cylinder_capacity = Bytes::new(u64::MAX / 4)
    }),
    ("disk.cylinder_capacity = MAX", |c| {
        c.disk.cylinder_capacity = Bytes::new(u64::MAX)
    }),
    ("disk.transfer_rate = 0", |c| {
        c.disk.transfer_rate = Bandwidth::ZERO
    }),
    ("disk.transfer_rate = 1 bps", |c| {
        c.disk.transfer_rate = Bandwidth::from_bits_per_sec(1)
    }),
    ("disk.transfer_rate = MAX", |c| {
        c.disk.transfer_rate = Bandwidth::from_bits_per_sec(u64::MAX)
    }),
    ("disk timings = 0", |c| {
        let zero = SimDuration::ZERO;
        (c.disk.min_seek, c.disk.avg_seek, c.disk.max_seek) = (zero, zero, zero);
        (c.disk.avg_latency, c.disk.max_latency) = (zero, zero);
    }),
    ("disk.max_seek = 10^6 s", |c| {
        c.disk.max_seek = SimDuration::from_secs(1_000_000)
    }),
    ("disk.max_seek = MAX / 2", |c| {
        c.disk.max_seek = SimDuration::from_micros(u64::MAX / 2)
    }),
    ("disk.max_latency = MAX", |c| {
        c.disk.max_latency = SimDuration::from_micros(u64::MAX)
    }),
    ("media bandwidth = 0", |c| {
        c.media.display_bandwidth = Bandwidth::ZERO
    }),
    ("media bandwidth = 1 bps", |c| {
        c.media.display_bandwidth = Bandwidth::from_bits_per_sec(1)
    }),
    ("media bandwidth = 10^13 mbps", |c| {
        c.media.display_bandwidth = Bandwidth::mbps(10_000_000_000_000)
    }),
    ("media bandwidth = MAX", |c| {
        c.media.display_bandwidth = Bandwidth::from_bits_per_sec(u64::MAX)
    }),
    ("tertiary.bandwidth = 0", |c| {
        c.tertiary.bandwidth = Bandwidth::ZERO
    }),
    ("tertiary.bandwidth = 1 bps", |c| {
        c.tertiary.bandwidth = Bandwidth::from_bits_per_sec(1)
    }),
    ("tertiary.initial_access = MAX / 2", |c| {
        c.tertiary.initial_access = SimDuration::from_micros(u64::MAX / 2)
    }),
    ("tertiary.reposition = MAX / 2", |c| {
        c.tertiary.reposition = SimDuration::from_micros(u64::MAX / 2)
    }),
    ("tertiary sequential layout", |c| {
        c.tertiary.layout = TapeLayout::Sequential
    }),
    ("uniform popularity", |c| c.popularity = Popularity::Uniform),
    ("geometric mean = 0", |c| {
        c.popularity = Popularity::TruncatedGeometric { mean: 0.0 }
    }),
    ("geometric mean = NaN", |c| {
        c.popularity = Popularity::TruncatedGeometric { mean: f64::NAN }
    }),
    ("geometric mean = 10^9", |c| {
        c.popularity = Popularity::TruncatedGeometric { mean: 1e9 }
    }),
    ("geometric mean = 1", |c| {
        c.popularity = Popularity::TruncatedGeometric { mean: 1.0 }
    }),
    ("zipf alpha = 0", |c| {
        c.popularity = Popularity::Zipf { alpha: 0.0 }
    }),
    ("zipf alpha = 0.8", |c| {
        c.popularity = Popularity::Zipf { alpha: 0.8 }
    }),
    ("zipf alpha = 1.2", |c| {
        c.popularity = Popularity::Zipf { alpha: 1.2 }
    }),
    ("zipf alpha = inf", |c| {
        c.popularity = Popularity::Zipf {
            alpha: f64::INFINITY,
        }
    }),
    ("open arrivals 0/h", |c| {
        c.arrivals = ArrivalModel::Open { rate_per_hour: 0.0 }
    }),
    ("open arrivals NaN/h", |c| {
        c.arrivals = ArrivalModel::Open {
            rate_per_hour: f64::NAN,
        }
    }),
    ("open arrivals 360/h", |c| {
        c.arrivals = ArrivalModel::Open {
            rate_per_hour: 360.0,
        }
    }),
    ("open arrivals 3600/h", |c| {
        c.arrivals = ArrivalModel::Open {
            rate_per_hour: 3600.0,
        }
    }),
    ("trace arrivals", |c| {
        c.arrivals = ArrivalModel::Trace {
            events: vec![(0, 0), (5_000_000, 1), (5_000_000, 2)],
        }
    }),
    ("trace at the clock's end", |c| {
        c.arrivals = ArrivalModel::Trace {
            events: vec![(u64::MAX, 0)],
        }
    }),
    ("unsorted trace", |c| {
        c.arrivals = ArrivalModel::Trace {
            events: vec![(9, 0), (1, 0)],
        }
    }),
    ("trace of an unknown object", |c| {
        c.arrivals = ArrivalModel::Trace {
            events: vec![(0, u32::MAX)],
        }
    }),
    ("smallest-first queue", |c| {
        c.queue = QueuePolicy::SmallestFirst
    }),
    ("largest-first queue", |c| {
        c.queue = QueuePolicy::LargestFirst
    }),
    ("think_time = 1 s", |c| {
        c.think_time = SimDuration::from_secs(1)
    }),
    ("think_time = 100 s", |c| {
        c.think_time = SimDuration::from_secs(100)
    }),
    ("think_time = MAX / 2", |c| {
        c.think_time = SimDuration::from_micros(u64::MAX / 2)
    }),
    ("think_time = MAX", |c| {
        c.think_time = SimDuration::from_micros(u64::MAX)
    }),
    ("stride = 0", |c| {
        set_striping(c, 0, AdmissionPolicy::Contiguous, None)
    }),
    ("stride = 1", |c| {
        set_striping(c, 1, AdmissionPolicy::Contiguous, None)
    }),
    ("stride = disks + 3", |c| {
        set_striping(c, c.disks + 3, AdmissionPolicy::Contiguous, None)
    }),
    ("stride = MAX", |c| {
        set_striping(c, u32::MAX, AdmissionPolicy::Contiguous, None)
    }),
    ("cluster_round = 0", |c| {
        set_striping(c, 5, AdmissionPolicy::Contiguous, Some(0))
    }),
    ("cluster_round = 5", |c| {
        set_striping(c, 5, AdmissionPolicy::Contiguous, Some(5))
    }),
    ("cluster_round = 3", |c| {
        set_striping(c, 3, AdmissionPolicy::Contiguous, Some(3))
    }),
    ("fragmented, no buffer, no delay", |c| {
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: 0,
            max_delay_intervals: 0,
        };
        set_striping(c, 1, policy, None)
    }),
    ("fragmented, delay 16", |c| {
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: 64,
            max_delay_intervals: 16,
        };
        set_striping(c, 1, policy, None)
    }),
    ("fragmented, delay MAX", |c| {
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: u64::MAX,
            max_delay_intervals: u64::MAX,
        };
        set_striping(c, 1, policy, None)
    }),
    ("vdr.clusters = 0", |c| set_vdr(c, |v| v.clusters = 0)),
    ("vdr.clusters = 1", |c| set_vdr(c, |v| v.clusters = 1)),
    ("vdr.clusters = 100", |c| set_vdr(c, |v| v.clusters = 100)),
    ("vdr.objects_per_cluster = 0", |c| {
        set_vdr(c, |v| v.objects_per_cluster = 0)
    }),
    ("vdr.objects_per_cluster = MAX", |c| {
        set_vdr(c, |v| v.objects_per_cluster = u32::MAX)
    }),
    ("vdr.replication_threshold = 0", |c| {
        set_vdr(c, |v| v.replication_threshold = 0)
    }),
    ("vdr tertiary-only copies", |c| {
        set_vdr(c, |v| v.copy_source = CopySource::TertiaryOnly)
    }),
    ("pipelined materialization", |c| {
        c.materialize = MaterializeMode::Pipelined
    }),
    ("after-full materialization", |c| {
        c.materialize = MaterializeMode::AfterFull
    }),
    ("no preload", |c| c.preload = false),
    ("warmup = 0", |c| c.warmup = SimDuration::ZERO),
    ("warmup = 60 s", |c| c.warmup = SimDuration::from_secs(60)),
    ("warmup = 10^7 s", |c| {
        c.warmup = SimDuration::from_secs(10_000_000)
    }),
    ("warmup = MAX", |c| {
        c.warmup = SimDuration::from_micros(u64::MAX)
    }),
    ("measure = 0", |c| c.measure = SimDuration::ZERO),
    ("measure = 1 us", |c| {
        c.measure = SimDuration::from_micros(1)
    }),
    ("measure = 600 s", |c| {
        c.measure = SimDuration::from_secs(600)
    }),
    ("measure = MAX", |c| {
        c.measure = SimDuration::from_micros(u64::MAX)
    }),
    ("no delivery check", |c| c.verify_delivery = false),
    ("dense ticks", |c| c.dense_ticks = true),
    ("disk 0 fails 10-60 s", |c| {
        c.faults = FaultPlan::fail_window(0, SimTime::from_secs(10), SimTime::from_secs(60))
    }),
    ("disk 3 fails 100-400 s", |c| {
        c.faults = FaultPlan::fail_window(3, SimTime::from_secs(100), SimTime::from_secs(400))
    }),
    ("disk 1 slow 100-200 s", |c| {
        let at = SimTime::from_secs;
        c.faults.events = vec![
            FaultEvent {
                disk: 1,
                at: at(100),
                kind: FaultKind::SlowStart,
            },
            FaultEvent {
                disk: 1,
                at: at(200),
                kind: FaultKind::SlowEnd,
            },
        ];
    }),
    ("a fault on a disk past the farm", |c| {
        c.faults =
            FaultPlan::fail_window(u32::MAX, SimTime::from_secs(100), SimTime::from_secs(400))
    }),
    ("a fault at the clock's end", |c| {
        c.faults = FaultPlan::fail_window(
            0,
            SimTime::from_micros(u64::MAX - 1),
            SimTime::from_micros(u64::MAX),
        )
    }),
    ("a fault storm", |c| {
        c.faults.stochastic = Some(StochasticFaults {
            mean_time_between_failures: SimDuration::from_secs(60),
            mean_time_to_repair: SimDuration::from_secs(30),
            slow_fraction: 0.3,
        })
    }),
    ("a storm with MTBF 0", |c| {
        c.faults.stochastic = Some(StochasticFaults {
            mean_time_between_failures: SimDuration::ZERO,
            mean_time_to_repair: SimDuration::ZERO,
            slow_fraction: f64::NAN,
        })
    }),
    ("drop after 0 hiccups", |c| {
        c.faults.drop_after_hiccup_intervals = Some(0)
    }),
    ("crash storm", |c| {
        c.faults.crash = Some(CrashFaults {
            events: vec![CrashPlanEvent {
                disk: 2,
                at: SimTime::from_secs(200),
                kind: CrashKind::PowerLoss,
            }],
            power_loss_mtbf: Some(SimDuration::from_secs(120)),
            torn_write_mtbf: Some(SimDuration::from_secs(60)),
        })
    }),
    ("one power loss at 100 s", |c| {
        c.faults.crash = Some(CrashFaults {
            events: vec![CrashPlanEvent {
                disk: 1,
                at: SimTime::from_secs(100),
                kind: CrashKind::PowerLoss,
            }],
            power_loss_mtbf: None,
            torn_write_mtbf: None,
        })
    }),
    ("crash MTBF 0", |c| {
        c.faults.crash = Some(CrashFaults {
            events: Vec::new(),
            power_loss_mtbf: Some(SimDuration::ZERO),
            torn_write_mtbf: Some(SimDuration::ZERO),
        })
    }),
    ("crash on a disk past the farm", |c| {
        c.faults.crash = Some(CrashFaults {
            events: vec![CrashPlanEvent {
                disk: u32::MAX,
                at: SimTime::ZERO,
                kind: CrashKind::TornWrite,
            }],
            power_loss_mtbf: None,
            torn_write_mtbf: None,
        })
    }),
    ("parity group 0", |c| {
        c.parity = Some(ParityConfig::group(0))
    }),
    ("parity group 1", |c| {
        c.parity = Some(ParityConfig::group(1))
    }),
    ("parity group 2", |c| {
        c.parity = Some(ParityConfig::group(2))
    }),
    ("parity group 4", |c| {
        c.parity = Some(ParityConfig::group(4))
    }),
    ("parity group MAX, no retries", |c| {
        let mut p = ParityConfig::group(u32::MAX);
        p.max_retries = 0;
        p.max_backoff_intervals = u64::MAX;
        c.parity = Some(p)
    }),
    ("rebuild rate 0", |c| {
        c.rebuild = Some(RebuildConfig::rate(0))
    }),
    ("rebuild rate 4", |c| {
        c.rebuild = Some(RebuildConfig::rate(4))
    }),
    ("parity group 2, rebuild rate 2", |c| {
        c.parity = Some(ParityConfig::group(2));
        c.rebuild = Some(RebuildConfig::rate(2))
    }),
    ("rebuild rate MAX, no spares", |c| {
        let mut r = RebuildConfig::rate(u64::MAX);
        r.spares = 0;
        c.rebuild = Some(r)
    }),
    ("sharing window 0", |c| {
        c.sharing = Some(SharingConfig::window(0))
    }),
    ("sharing window 2", |c| {
        c.sharing = Some(SharingConfig::window(2))
    }),
    ("sharing window 1", |c| {
        c.sharing = Some(SharingConfig::window(1))
    }),
    ("sharing everything MAX", |c| {
        let mut s = SharingConfig::window(u64::MAX);
        s.prefix_intervals = u64::MAX;
        s.cache_fragments = u64::MAX;
        c.sharing = Some(s)
    }),
    ("sharing cache 0", |c| {
        let mut s = SharingConfig::window(2);
        s.cache_fragments = 0;
        c.sharing = Some(s)
    }),
    ("2 nodes", |c| {
        c.distributed = Some(DistributedConfig::even(2, c.disks))
    }),
    ("4 nodes", |c| {
        c.distributed = Some(DistributedConfig::even(4, c.disks))
    }),
    ("3 nodes of 20 disks", |c| {
        c.distributed = Some(DistributedConfig::even(3, 60))
    }),
    ("0 nodes", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.topology.nodes = 0;
        c.distributed = Some(d)
    }),
    ("2 nodes, 1-fragment links", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.interconnect.link_fragments_per_interval = Some(1);
        d.interconnect.switch_fragments_per_interval = Some(1);
        c.distributed = Some(d)
    }),
    ("2 nodes, 0-fragment links", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.interconnect.link_fragments_per_interval = Some(0);
        c.distributed = Some(d)
    }),
    ("2 nodes, latency 3", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.interconnect.latency_intervals = 3;
        c.distributed = Some(d)
    }),
    ("2 nodes, latency MAX", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.interconnect.latency_intervals = u64::MAX;
        c.distributed = Some(d)
    }),
    ("2 nodes, node 1 out 200-600 s", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.node_outages = vec![NodeOutage {
            node: 1,
            fail_at: SimTime::from_secs(200),
            repair_at: SimTime::from_secs(600),
        }];
        c.distributed = Some(d)
    }),
    ("2 nodes, inverted outage", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.node_outages = vec![NodeOutage {
            node: 0,
            fail_at: SimTime::from_secs(600),
            repair_at: SimTime::from_secs(200),
        }];
        c.distributed = Some(d)
    }),
    ("2 nodes, outage of node 9 to the clock's end", |c| {
        let mut d = DistributedConfig::even(2, c.disks);
        d.node_outages = vec![NodeOutage {
            node: 9,
            fail_at: SimTime::ZERO,
            repair_at: SimTime::from_micros(u64::MAX),
        }];
        c.distributed = Some(d)
    }),
    ("scrub rate 0", |c| c.scrub = Some(ScrubConfig::rate(0))),
    ("scrub rate 1", |c| c.scrub = Some(ScrubConfig::rate(1))),
    ("scrub rate 4", |c| c.scrub = Some(ScrubConfig::rate(4))),
    ("scrub rate MAX", |c| {
        c.scrub = Some(ScrubConfig::rate(u64::MAX))
    }),
    ("a mix of 100 and 60 mbps", |c| {
        c.mix = Some(MediaMix::section31_example(3, 40))
    }),
    ("a mix entry of 0 mbps", |c| {
        c.mix = Some(mix_with(MediaType::new("zero", Bandwidth::ZERO), 2, 40))
    }),
    ("a mix entry of 0 subobjects", |c| {
        c.mix = Some(mix_with(MediaType::table3(), 2, 0))
    }),
    ("a mix entry of 0 objects", |c| {
        c.mix = Some(mix_with(MediaType::table3(), 0, 40))
    }),
    ("a mix entry of 10^13 mbps", |c| {
        let media = MediaType::new("vast", Bandwidth::mbps(10_000_000_000_000));
        c.mix = Some(mix_with(media, 2, 40))
    }),
    ("an empty mix", |c| {
        c.mix = Some(MediaMix { entries: vec![] })
    }),
];

/// Switches `c` to striping with the given stride, policy and clusters.
fn set_striping(
    c: &mut ServerConfig,
    stride: u32,
    policy: AdmissionPolicy,
    cluster_round: Option<u32>,
) {
    c.scheme = Scheme::Striping {
        stride,
        policy,
        cluster_round,
    };
}

/// Switches `c` to VDR and edits the VDR knobs. A switch takes the
/// small farm's 4 clusters of 75 objects: `vdr_config_for` would derive
/// them from the mutated config, and panic on some.
fn set_vdr(c: &mut ServerConfig, edit: fn(&mut VdrConfig)) {
    if !matches!(c.scheme, Scheme::Vdr { .. }) {
        c.scheme = Scheme::Vdr {
            vdr: VdrConfig {
                clusters: 4,
                objects_per_cluster: 75,
                ..VdrConfig::table3()
            },
        };
        c.materialize = MaterializeMode::AfterFull;
    }
    if let Scheme::Vdr { vdr } = &mut c.scheme {
        edit(vdr);
    }
}

/// A two-entry mix: `count` objects of `media` after two Table 3 ones.
fn mix_with(media: MediaType, count: u32, subobjects: u32) -> MediaMix {
    MediaMix {
        entries: vec![
            MixEntry {
                media: MediaType::table3(),
                count: 2,
                subobjects: 40,
            },
            MixEntry {
                media,
                count,
                subobjects,
            },
        ],
    }
}

/// What one fuzz case did.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    /// `Server::new` returned a typed error.
    Refused,
    /// The server stepped to its deadline and reported.
    Ran,
    /// The next tick lay past the budget: neither a pass nor a failure.
    OutOfBudget,
}

/// The fuzz budget: a case whose next tick lies past either bound stops
/// there. Skipped boundaries count, since each one is replayed, and so
/// does simulated time, since open arrivals queue in proportion to it.
const BOUNDARY_BUDGET: u64 = 5_000;
const SIMULATED_BUDGET: SimTime = SimTime::from_secs(100_000);

/// Builds a server from `cfg` and steps it within the fuzz budget.
fn fuzz_case(cfg: ServerConfig) -> Outcome {
    fn drive<P: PlacementPolicy>(built: Result<Server<P>>, cfg: &ServerConfig) -> Outcome {
        let Ok(mut server) = built else {
            return Outcome::Refused;
        };
        // The server validated `cfg`, so its interval derives safely.
        let interval = cfg.interval().as_micros();
        while let Some(next) = server.next_tick() {
            if next.as_micros() / interval > BOUNDARY_BUDGET || next > SIMULATED_BUDGET {
                return Outcome::OutOfBudget;
            }
            server.step();
        }
        server.run();
        Outcome::Ran
    }
    match cfg.scheme {
        Scheme::Vdr { .. } => drive(VdrServer::new(cfg.clone()), &cfg),
        _ => drive(StripingServer::new(cfg.clone()), &cfg),
    }
}

/// Config fuzz: one to three table mutations of the small test farm, on
/// each scheme. `Server::new` must refuse the result with a typed error
/// or step it, within the budget, without panicking.
#[test]
fn a_mutated_config_is_refused_or_runs_without_panicking() {
    const CASES: u64 = 256;
    let mut rng = proptest::TestRng::new(0x5eed);
    let mut outcomes = std::collections::BTreeMap::new();
    let mut panics = Vec::new();
    for case in 0..CASES {
        let (mut cfg, base) = if rng.below(2) == 0 {
            (ServerConfig::small_test(4, case), "small_test")
        } else {
            (ServerConfig::small_vdr_test(4, case), "small_vdr_test")
        };
        let mut applied = vec![base];
        for _ in 0..=rng.below(3) {
            let (label, mutate) = MUTATIONS[rng.below(MUTATIONS.len() as u64) as usize];
            mutate(&mut cfg);
            applied.push(label);
        }
        let run = std::panic::AssertUnwindSafe(|| fuzz_case(cfg));
        match std::panic::catch_unwind(run) {
            Ok(outcome) => *outcomes.entry(outcome).or_insert(0u64) += 1,
            Err(_) => panics.push(applied),
        }
    }
    assert!(
        panics.is_empty(),
        "panicked on {} cases: {panics:?}",
        panics.len()
    );
    let built = CASES - outcomes.get(&Outcome::Refused).copied().unwrap_or(0);
    assert!(
        4 * built >= CASES,
        "only {built} of {CASES} cases built a server: {outcomes:?}"
    );
}
