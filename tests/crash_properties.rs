//! Properties of the crash-consistent storage plane: power-loss /
//! torn-write injection, journaled metadata recovery, and the scrub
//! daemon, swept across both schemes.
//!
//! * **Determinism** — same seed, same crash plan and scrub rate ⇒
//!   byte-identical [`RunReport`]s, recoveries and all.
//! * **Zero-armed gate** — a crash plan that can never fire and no
//!   scrub config never constructs a plane: every byte of the report is
//!   identical to a run with no plan at all, and no `crash` section is
//!   serialized. Together with `golden_reports.rs` this proves the
//!   storage plane is byte-invisible until armed.
//! * **Reconciliation invariant** — stepping tick by tick through
//!   arbitrary power-loss/torn-write schedules, after every event the
//!   plane's ledgers verify internally (bitmap ≡ extents ≡ free index)
//!   and the plane's object set equals the model's resident set.
//!   Recovery is all-or-nothing: an interrupted transaction is either
//!   replayed whole or discarded whole, never half-applied.
//! * **Scrub completeness** — a scrub pass at a rate fast enough to
//!   finish within the window detects, counts, and repairs every latent
//!   error a torn-write schedule planted, on both the bandwidth-charged
//!   (striping) and metadata-only (VDR) walks.

use proptest::prelude::*;
use staggered_striping::prelude::*;
use staggered_striping::server::experiment::run_batch;

/// A shortened-window cell on the 20-disk test farm.
fn base(scheme: &str, stations: u32, seed: u64) -> ServerConfig {
    let mut c = match scheme {
        "striping" => ServerConfig::small_test(stations, seed),
        _ => ServerConfig::small_vdr_test(stations, seed),
    };
    c.warmup = SimDuration::from_secs(120);
    c.measure = SimDuration::from_secs(600);
    c
}

/// Arms stochastic power losses and torn writes aggressive enough to
/// fire several times inside the shortened window.
fn with_stochastic_crash(mut c: ServerConfig) -> ServerConfig {
    c.faults.crash = Some(CrashFaults {
        power_loss_mtbf: Some(SimDuration::from_secs(240)),
        torn_write_mtbf: Some(SimDuration::from_secs(180)),
        ..Default::default()
    });
    c
}

fn render(report: &RunReport) -> String {
    serde_json::to_string_pretty(report).expect("serialize report")
}

/// Every (scheme, arming, seed) cell runs twice under the same seed and
/// must serialize to the same bytes — crash compilation, cut-point
/// salts, recovery decisions, scrub chunking and repairs included.
#[test]
fn same_seed_crash_runs_are_byte_identical_across_sweep() {
    let mut configs = Vec::new();
    for seed in [1, 7, 1994] {
        for scheme in ["striping", "vdr"] {
            for arming in ["crash", "scrub", "both"] {
                let mut c = base(scheme, 2, seed);
                if arming != "scrub" {
                    c = with_stochastic_crash(c);
                }
                if arming != "crash" {
                    c.scrub = Some(ScrubConfig::rate(4));
                }
                configs.push(c);
            }
        }
    }
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let first = run_batch(configs.clone(), threads);
    let second = run_batch(configs.clone(), threads);
    let mut crash_sections = 0;
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(
            render(a),
            render(b),
            "case {i} ({}, seed {}) is not seed-deterministic",
            a.scheme,
            a.seed,
        );
        crash_sections += usize::from(a.crash.is_some());
    }
    assert_eq!(
        crash_sections,
        first.len(),
        "every armed cell reports a crash section"
    );
    assert!(
        first
            .iter()
            .any(|r| r.crash.as_ref().is_some_and(|c| c.recoveries > 0)),
        "the sweep exercised journal recovery"
    );
    assert!(
        first
            .iter()
            .any(|r| r.crash.as_ref().is_some_and(|c| c.latent_repaired > 0)),
        "the sweep repaired at least one latent error"
    );
}

/// A crash plan that can never fire, with no scrub config, must be
/// invisible: same bytes as no plan at all, and no `crash` section in
/// the JSON. (`golden_reports.rs` pins the no-plan bytes, so this
/// transitively proves zero-armed configs reproduce the committed
/// goldens.)
#[test]
fn zero_armed_storage_plane_is_byte_invisible() {
    for scheme in ["striping", "vdr"] {
        let plain = base(scheme, 2, 1994);
        let mut gated = plain.clone();
        gated.faults.crash = Some(CrashFaults::default());
        let a = staggered_striping::server::run(&plain).expect("valid config");
        let b = staggered_striping::server::run(&gated).expect("valid config");
        assert_eq!(
            render(&a),
            render(&b),
            "an empty crash plan changed the {scheme} report"
        );
        assert!(
            !render(&b).contains("\"crash\""),
            "zero-armed reports must not carry a crash section"
        );
    }
}

/// A deterministic crash schedule from proptest-chosen raw values:
/// three events at distinct times inside the window, alternating kinds,
/// on proptest-chosen disks.
fn planned_events(disks: u32, picks: &[(u32, u32)]) -> CrashFaults {
    CrashFaults {
        events: picks
            .iter()
            .enumerate()
            .map(|(i, &(disk, at_s))| CrashPlanEvent {
                disk: disk % disks,
                at: SimTime::from_secs(u64::from(150 + (at_s % 400)) + 5 * i as u64),
                kind: if i % 2 == 0 {
                    CrashKind::PowerLoss
                } else {
                    CrashKind::TornWrite
                },
            })
            .collect(),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stepping tick by tick through an arbitrary three-event
    /// power-loss/torn-write schedule: the reconciliation invariant
    /// holds at every instant on both schemes, every power loss that
    /// found an open transaction ran replay-or-discard recovery, and
    /// the journal never half-applies (replayed + discarded transactions
    /// both land in a ledger that still verifies).
    #[test]
    fn reconciliation_holds_at_every_crash_cut_point(
        seed in 1u64..500,
        picks in proptest::collection::vec((0u32..20, 0u32..400), 3),
    ) {
        for scheme in ["striping", "vdr"] {
            let mut cfg = base(scheme, 3, seed);
            cfg.verify_delivery = false;
            cfg.faults.crash = Some(planned_events(cfg.disks, &picks));
            let power_losses =
                picks.len().div_ceil(2) as u64;
            if scheme == "striping" {
                let mut server = StripingServer::new(cfg).expect("valid config");
                while server.step() {
                    prop_assert!(
                        server.model().storage_reconciles(),
                        "striping plane out of sync at {:?} (seed {seed})",
                        server.now(),
                    );
                }
                let stats = server.model().crash_stats().expect("plane armed");
                prop_assert_eq!(stats.power_loss_events, power_losses);
                prop_assert_eq!(stats.torn_write_events, picks.len() as u64 - power_losses);
                prop_assert!(stats.recoveries_clean <= stats.recoveries);
                // A cut at a quiescent point finds no open transaction:
                // recovery still runs (and verifies), replaying or
                // discarding at most one transaction per power loss.
                prop_assert!(stats.txns_replayed + stats.txns_discarded <= stats.recoveries);
            } else {
                let mut server = VdrServer::new(cfg).expect("valid config");
                while server.step() {
                    prop_assert!(
                        server.model().storage_reconciles(),
                        "VDR plane out of sync at {:?} (seed {seed})",
                        server.now(),
                    );
                }
                let stats = server.model().crash_stats().expect("plane armed");
                prop_assert_eq!(stats.power_loss_events, power_losses);
                prop_assert!(stats.recoveries_clean <= stats.recoveries);
            }
        }
    }

    /// Torn writes at arbitrary times and disks, scrubbed at a rate
    /// fast enough that a full pass fits the remaining window: every
    /// latent error the schedule planted is detected, dwell-timed, and
    /// repaired, and none is still planted at the end — on both the
    /// bandwidth-charged striping walk and VDR's metadata-only walk.
    #[test]
    fn scrub_pass_finds_and_repairs_every_planted_latent(
        seed in 1u64..500,
        picks in proptest::collection::vec((0u32..20, 0u32..350), 2..5),
    ) {
        scrub_finds_every_latent(seed, &picks)?;
    }
}

/// The body of `scrub_pass_finds_and_repairs_every_planted_latent` for
/// one input.
fn scrub_finds_every_latent(seed: u64, picks: &[(u32, u32)]) -> TestCaseResult {
    for scheme in ["striping", "vdr"] {
        let mut cfg = base(scheme, 2, seed);
        cfg.verify_delivery = false;
        let mut plan = planned_events(cfg.disks, picks);
        for ev in &mut plan.events {
            ev.kind = CrashKind::TornWrite;
        }
        cfg.faults.crash = Some(plan);
        cfg.scrub = Some(ScrubConfig::rate(50));
        let report = staggered_striping::server::run(&cfg).expect("valid config");
        let c = report.crash.expect("plane armed");
        prop_assert_eq!(c.torn_write_events, picks.len() as u64);
        prop_assert_eq!(
            c.latent_found,
            c.latent_injected,
            "scrub pass missed a latent ({scheme}, seed {seed})"
        );
        prop_assert_eq!(c.latent_repaired, c.latent_found);
        prop_assert!(c.latent_injected == 0 || c.latent_dwell_s > 0.0);
        prop_assert!(c.scrub_passes >= 1, "window fits at least one pass");
    }
    Ok(())
}

/// Two latents on one object, on disks 4 and 15 of the striping farm:
/// the scrub reaches disk 15 first, and its repair without parity
/// evicts the object from every drive and refetches it whole. The
/// refetch also repairs the latent on disk 4, which the walk had not
/// reached yet, so it counts as found and repaired rather than
/// vanishing with the freed slot (the plane reported 3 found of 4
/// planted before).
#[test]
fn a_refetch_repairs_its_objects_latents_on_every_drive() {
    scrub_finds_every_latent(156, &[(15, 285), (15, 221), (4, 215), (15, 231)])
        .expect("every planted latent is found and repaired");
}
