//! Directed cases for `ServerConfig::validate`: each configuration here
//! once passed validation and then panicked or overflowed mid-run. It must
//! now fail up front with a typed `InvalidConfig`, on every scheme it
//! reaches, and the server constructors must refuse it the same way.

use staggered_striping::prelude::*;
use staggered_striping::server::kernel::{PlacementPolicy, Server};

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
        // one interval past the run's end, and think from there.
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
        assert!(report.displays_completed > 0);
    }
}
