//! Seed-stability pinning: a table of tiny cross-scheme runs whose full
//! `RunReport` JSON is pinned by digest, one row per (seed, scheme,
//! fault shape). Unlike the golden files (which pin two canonical
//! scenarios byte-for-byte), this table is a tripwire across the seed
//! axis: any change to RNG stream derivation, event ordering, fault
//! compilation, or report serialization moves at least one digest.
//!
//! On failure the assert prints a readable per-row diff — the digest
//! plus the report's headline numbers — and the actual table to paste
//! in if the drift is an intended behavior change.

use staggered_striping::prelude::*;
use staggered_striping::server::experiment::run_batch;

/// FNV-1a over the pretty-printed report JSON: stable, dependency-free,
/// and sensitive to every serialized byte.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One pinned row: seed, scheme tag, fault shape, stream sharing on/off,
/// expected digest.
struct Row {
    seed: u64,
    scheme: &'static str,
    faults: &'static str,
    sharing: bool,
    /// Node count (1 = `distributed: None`, the single-box server; > 1
    /// arms an even split with a mid-run whole-node outage on node 2).
    nodes: u32,
    /// Storage-plane arming: "none", "crash" (stochastic power losses +
    /// torn writes), "scrub" (daemon at rate 4), or "both".
    crash: &'static str,
    expect: u64,
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // Regenerate with SS_PRINT_DIGESTS=1 when a behavior change is intended.
    Row { seed: 1, scheme: "striping", faults: "none", sharing: false, nodes: 1, crash: "none", expect: 0xebdf08a488b2edf7 },
    Row { seed: 1, scheme: "striping", faults: "window", sharing: false, nodes: 1, crash: "none", expect: 0xc979ac1ff488f102 },
    Row { seed: 1, scheme: "vdr", faults: "window", sharing: false, nodes: 1, crash: "none", expect: 0x0ebc3a348b69f2dd },
    Row { seed: 7, scheme: "striping", faults: "none", sharing: false, nodes: 1, crash: "none", expect: 0x7dfb201d09be4520 },
    Row { seed: 7, scheme: "striping", faults: "window", sharing: false, nodes: 1, crash: "none", expect: 0x6fc4757c8a71af1c },
    Row { seed: 7, scheme: "vdr", faults: "window", sharing: false, nodes: 1, crash: "none", expect: 0xd7f6de6a3aed8908 },
    Row { seed: 1994, scheme: "striping", faults: "none", sharing: false, nodes: 1, crash: "none", expect: 0x343bb3bee60c64f7 },
    Row { seed: 1994, scheme: "striping", faults: "window", sharing: false, nodes: 1, crash: "none", expect: 0x6f017b9f96ce04f9 },
    Row { seed: 1994, scheme: "vdr", faults: "window", sharing: false, nodes: 1, crash: "none", expect: 0xc710bfb1bdbfa1e2 },
    // Stream sharing armed (window 4): the join/cache/catch-up machinery
    // joins the pinned surface — both models, two seeds, with the
    // canonical mid-run failure exercising shared-stream rescue.
    Row { seed: 1, scheme: "striping", faults: "window", sharing: true, nodes: 1, crash: "none", expect: 0x71b5db59810e9426 },
    Row { seed: 1, scheme: "vdr", faults: "window", sharing: true, nodes: 1, crash: "none", expect: 0x2d563d4ca48c0c03 },
    Row { seed: 1994, scheme: "striping", faults: "window", sharing: true, nodes: 1, crash: "none", expect: 0x1ad7221441bd4029 },
    Row { seed: 1994, scheme: "vdr", faults: "window", sharing: true, nodes: 1, crash: "none", expect: 0xbd69121dbcf7f8d6 },
    // Distributed tier: the 20-disk farm split 4 ways with node 2 fully
    // down for the canonical 240-420 s window — router, interconnect
    // ledger, and correlated-fault compilation all join the pinned
    // surface, on both server models and two seeds.
    Row { seed: 1, scheme: "striping", faults: "none", sharing: false, nodes: 4, crash: "none", expect: 0x283a8409aa9cf962 },
    Row { seed: 1, scheme: "vdr", faults: "none", sharing: false, nodes: 4, crash: "none", expect: 0xdcfd85a9548da30a },
    Row { seed: 1994, scheme: "striping", faults: "none", sharing: false, nodes: 4, crash: "none", expect: 0x0a1c86780b5cfe73 },
    Row { seed: 1994, scheme: "vdr", faults: "none", sharing: false, nodes: 4, crash: "none", expect: 0xe0145eb2d28848b2 },
    // Crash-consistent storage plane: stochastic power losses + torn
    // writes ("crash"), the scrub daemon at rate 4 ("scrub"), and the
    // full interplay ("both" — latents planted by crashes, found and
    // repaired by the walk) join the pinned surface on both models.
    Row { seed: 1, scheme: "striping", faults: "none", sharing: false, nodes: 1, crash: "crash", expect: 0xc6f733b457859ade },
    Row { seed: 1, scheme: "vdr", faults: "none", sharing: false, nodes: 1, crash: "crash", expect: 0x0260182b82cf9b3f },
    Row { seed: 1994, scheme: "striping", faults: "none", sharing: false, nodes: 1, crash: "scrub", expect: 0xf4e849b872326268 },
    Row { seed: 1994, scheme: "vdr", faults: "none", sharing: false, nodes: 1, crash: "scrub", expect: 0x2d7e7c7a262e02bc },
    Row { seed: 1994, scheme: "striping", faults: "none", sharing: false, nodes: 1, crash: "both", expect: 0xfa055a70e6ae7025 },
    Row { seed: 1994, scheme: "vdr", faults: "none", sharing: false, nodes: 1, crash: "both", expect: 0xb07bc220836dfeb3 },
];

/// The tiny run behind a row: 2 stations on the 20-disk test farm with a
/// shortened window, optionally with the canonical mid-run failure.
fn config(row: &Row) -> ServerConfig {
    let mut c = match row.scheme {
        "striping" => ServerConfig::small_test(2, row.seed),
        "vdr" => ServerConfig::small_vdr_test(2, row.seed),
        other => panic!("unknown scheme tag {other}"),
    };
    c.warmup = SimDuration::from_secs(120);
    c.measure = SimDuration::from_secs(600);
    if row.faults == "window" {
        c.faults = FaultPlan::fail_window(3, SimTime::from_secs(240), SimTime::from_secs(420));
    }
    if row.sharing {
        c.sharing = Some(SharingConfig::window(4));
    }
    if row.nodes > 1 {
        let mut d = DistributedConfig::even(row.nodes, c.disks);
        d.node_outages = vec![NodeOutage {
            node: 2,
            fail_at: SimTime::from_secs(240),
            repair_at: SimTime::from_secs(420),
        }];
        c.distributed = Some(d);
    }
    if row.crash == "crash" || row.crash == "both" {
        c.faults.crash = Some(CrashFaults {
            power_loss_mtbf: Some(SimDuration::from_secs(240)),
            torn_write_mtbf: Some(SimDuration::from_secs(180)),
            ..Default::default()
        });
    }
    if row.crash == "scrub" || row.crash == "both" {
        c.scrub = Some(ScrubConfig::rate(4));
    }
    c
}

#[test]
fn run_report_digests_are_pinned_per_seed() {
    let configs: Vec<ServerConfig> = ROWS.iter().map(config).collect();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let reports = run_batch(configs, threads);

    let mut table = String::new();
    let mut diffs = Vec::new();
    for (row, report) in ROWS.iter().zip(&reports) {
        let json = serde_json::to_string_pretty(report).expect("serialize report");
        let got = digest(json.as_bytes());
        table.push_str(&format!(
            "    Row {{ seed: {}, scheme: \"{}\", faults: \"{}\", sharing: {}, nodes: {}, crash: \"{}\", expect: {:#018x} }},\n",
            row.seed, row.scheme, row.faults, row.sharing, row.nodes, row.crash, got
        ));
        if got != row.expect {
            diffs.push(format!(
                "  seed {} / {} / faults={} / nodes={}: digest {:#018x} != pinned {:#018x} \
                 (completed {}, {:.1}/h, hiccup streams {})",
                row.seed,
                row.scheme,
                row.faults,
                row.nodes,
                got,
                row.expect,
                report.displays_completed,
                report.displays_per_hour,
                report.degraded.as_ref().map_or(0, |g| g.hiccup_streams),
            ));
        }
    }
    if std::env::var_os("SS_PRINT_DIGESTS").is_some() {
        println!("const ROWS: &[Row] = &[\n{table}];");
        return;
    }
    assert!(
        diffs.is_empty(),
        "{} of {} pinned digests drifted:\n{}\nif the behavior change is \
         intended, update the table to (run with SS_PRINT_DIGESTS=1):\n{}",
        diffs.len(),
        ROWS.len(),
        diffs.join("\n"),
        table
    );
}
