//! The crash-consistent storage plane shared by both server models.
//!
//! [`StoragePlane`] wraps one [`ss_disk::DiskMetadata`] ledger per
//! physical disk (striping) or per cluster (VDR) and mirrors every
//! placement-visible write into it as a journaled transaction: object
//! allocation on admission/materialisation, deallocation on eviction,
//! and the hot-spare rebuild's whole-disk rewrite. The plane is the
//! substrate the crash machinery acts on:
//!
//! * **Power loss** ([`StoragePlane::process_crashes`]) cuts the
//!   affected drive's newest journal transaction at a salt-chosen phase
//!   and runs replay-or-discard recovery. A discarded allocation is
//!   reported to the model through a callback so it can evict the
//!   object from its placement tables (the fragments are garbage) and
//!   refetch on next demand; the plane then completes the eviction by
//!   freeing the object's surviving extents on the other drives.
//! * **Torn writes** plant latent errors — slots whose damage is
//!   invisible until a scrub pass (or a later recovery) reads them.
//! * **The scrub daemon** ([`StoragePlane::process_scrub`]) walks the
//!   drives round-robin in sub-drive chunks, verifying
//!   `fragments_per_interval` allocated fragments per time interval.
//!   Chunks cap at a few intervals' worth of fragments
//!   (`SCRUB_CHUNK_INTERVALS`) so the bandwidth tithe arrives as
//!   short bounded bursts. The striping server books each chunk as real
//!   [`ss_core::IntervalScheduler`] bandwidth (like the rebuild drain),
//!   so scrubbing competes with display admissions; VDR's plane is
//!   metadata-only (its farm model has no interval scheduler to
//!   charge), mirroring the same asymmetry the rebuild path has. Each
//!   chunk completes at its own end interval, so a metadata-only walk
//!   can be caught up at a later tick: the kernel does not wake for its
//!   chunk ends.
//!
//! Everything here is deterministic: the plane is built with its crash
//! schedule, compiled with salts from the `rng.derive("crash")` stream,
//! and owns the cursor into it; the scrub walk advances purely on
//! interval arithmetic. A run with no crash events and no scrub config
//! never constructs a plane at all, keeping zero-armed runs
//! byte-identical to the pre-plane engine.

use crate::metrics::CrashStats;
use ss_disk::{DiskMetadata, LatentError};
use ss_sim::{CrashEvent, CrashKind};
use ss_types::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Longest a single scrub chunk may run, in time intervals. Chunks cap
/// at `rate × SCRUB_CHUNK_INTERVALS` allocated fragments so the
/// bandwidth the striping server books for them comes in short bounded
/// bursts — a sub-drive chunk blacks out a virtual disk for a few
/// seconds, not the minutes a whole-drive chunk would pin it for.
const SCRUB_CHUNK_INTERVALS: u64 = 4;

/// Round-robin scrub walk state.
#[derive(Debug, Clone)]
struct ScrubWalk {
    /// Allocated fragments verified per time interval.
    rate: u64,
    /// Drive currently being scanned.
    disk: usize,
    /// First slot of the current chunk within the drive.
    offset: u32,
    /// Exclusive end slot of the current chunk.
    hi: u32,
    /// Allocated fragments in the current chunk (for the journal event).
    chunk_fragments: u64,
    /// Interval index at which the current chunk completes.
    chunk_end: u64,
}

/// A newly started scrub chunk, returned so the striping server can book
/// its verification reads as interval-scheduler bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubChunk {
    /// Drive being scrubbed.
    pub disk: u32,
    /// First interval of the chunk.
    pub start: u64,
    /// Interval at which the chunk completes (exclusive).
    pub end: u64,
}

/// The per-drive metadata ledgers plus the crash schedule, its cursor and
/// the scrub walk.
#[derive(Debug, Clone)]
pub struct StoragePlane {
    disks: Vec<DiskMetadata>,
    /// The compiled crash events, in firing order, their disks already
    /// mapped to ledgers.
    crashes: Vec<CrashEvent>,
    /// Next un-fired crash event.
    cursor: usize,
    scrub: Option<ScrubWalk>,
    /// Crash/scrub accounting, attached to the run report at the end.
    pub stats: CrashStats,
    /// Per-ledger mode (VDR): each ledger is an independent replica
    /// store, so a discarded allocation is one replica rolling back and
    /// recovery must NOT free the object's extents on other ledgers.
    per_ledger: bool,
}

impl StoragePlane {
    /// A plane of `disks` ledgers with `slots` fragment slots each, with
    /// the scrub daemon armed at `scrub_rate` fragments per interval and
    /// `crashes` (sorted, each event's disk a ledger index) to fire.
    pub fn new(
        disks: usize,
        slots: u32,
        scrub_rate: Option<u64>,
        crashes: Vec<CrashEvent>,
    ) -> Self {
        let stats = CrashStats {
            scrub_rate: scrub_rate.unwrap_or(0),
            ..CrashStats::default()
        };
        StoragePlane {
            disks: (0..disks).map(|_| DiskMetadata::new(slots)).collect(),
            crashes,
            cursor: 0,
            scrub: scrub_rate.map(|rate| ScrubWalk {
                rate,
                disk: 0,
                offset: 0,
                hi: 0,
                chunk_fragments: 0,
                chunk_end: 0,
            }),
            stats,
            per_ledger: false,
        }
    }

    /// Switches the plane to per-ledger (VDR replica) semantics.
    pub fn per_ledger(mut self) -> Self {
        self.per_ledger = true;
        self
    }

    /// Ledgers in the plane (drives for striping, clusters for VDR).
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// True when the plane has no ledgers (never the case in a server).
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// True once any crash event has fired (gates report attachment).
    pub fn fired(&self) -> bool {
        self.stats.power_loss_events + self.stats.torn_write_events > 0
    }

    /// True when the scrub daemon is armed.
    pub fn scrub_armed(&self) -> bool {
        self.scrub.is_some()
    }

    /// Slots allocated on ledger `disk`.
    pub fn used_slots(&self, disk: usize) -> u32 {
        self.disks[disk].used_slots()
    }

    /// Latent errors currently planted and undetected, plane-wide.
    pub fn latent_len(&self) -> usize {
        self.disks.iter().map(|d| d.latent_len()).sum()
    }

    /// True iff `object` has at least one extent on ledger `disk`.
    pub fn holds(&self, disk: usize, object: u64) -> bool {
        self.disks[disk].holds(object)
    }

    // --- journal hooks --------------------------------------------------

    /// Seeds the initial placement without journalling: call per object
    /// with its `(disk, frags)` layout, then [`StoragePlane::checkpoint`]
    /// so the preload is base state, not replayable history.
    pub fn seed(&mut self, object: u64, layout: impl IntoIterator<Item = (u32, u32)>) {
        for (disk, frags) in layout {
            let ok = self.disks[disk as usize].commit_alloc(object, frags);
            debug_assert!(ok, "plane capacity mirrors placement");
        }
    }

    /// Declares all journalled transactions durable on every ledger.
    pub fn checkpoint(&mut self) {
        for d in &mut self.disks {
            d.checkpoint();
        }
    }

    /// Journals `object`'s allocation across its `(disk, frags)` layout.
    pub fn record_alloc(&mut self, object: u64, layout: impl IntoIterator<Item = (u32, u32)>) {
        for (disk, frags) in layout {
            if self.disks[disk as usize].commit_alloc(object, frags) {
                self.stats.txns_journaled += 1;
            } else {
                debug_assert!(false, "plane capacity mirrors placement");
            }
        }
    }

    /// Journals `object`'s deallocation on every ledger holding it.
    pub fn record_free(&mut self, object: u64) {
        for d in &mut self.disks {
            if d.commit_free(object) {
                self.stats.txns_journaled += 1;
            }
        }
    }

    /// Journals `object`'s allocation of `frags` slots on ledger `disk`
    /// alone (a VDR replica lives on exactly one cluster). Returns
    /// whether the ledger accepted it.
    pub fn record_alloc_on(&mut self, disk: usize, object: u64, frags: u32) -> bool {
        let ok = self.disks[disk].commit_alloc(object, frags);
        if ok {
            self.stats.txns_journaled += 1;
        }
        ok
    }

    /// Journals `object`'s deallocation on ledger `disk` alone. Returns
    /// whether the object held extents there.
    pub fn record_free_on(&mut self, disk: usize, object: u64) -> bool {
        let ok = self.disks[disk].commit_free(object);
        if ok {
            self.stats.txns_journaled += 1;
        }
        ok
    }

    /// Journals the rebuild drain's whole-drive rewrite of `disk`.
    pub fn record_rewrite(&mut self, disk: u32) {
        let d = &mut self.disks[disk as usize];
        if d.used_slots() > 0 {
            d.commit_rewrite_all();
            self.stats.txns_journaled += 1;
        }
    }

    // --- crash plane ----------------------------------------------------

    /// When the next crash event fires, if any remain (a wakeup source).
    pub fn next_crash_at(&self) -> Option<SimTime> {
        self.crashes.get(self.cursor).map(|ev| ev.at)
    }

    /// Fires every crash event due at or before `now`.
    ///
    /// Power loss runs journal recovery on the struck drive; each
    /// discarded allocation is handed to `on_discarded_alloc`, which
    /// evicts the object from the model's placement tables and returns
    /// `true` when the object was resident (counted as a forced
    /// refetch). In striped mode the plane then frees the object's
    /// surviving extents on the other drives, completing the eviction;
    /// in per-ledger (VDR) mode the discarded allocation was a single
    /// cluster's replica and the object's other replicas are left
    /// untouched. Torn writes plant a latent error for the scrub daemon
    /// to find.
    pub fn process_crashes(
        &mut self,
        now: SimTime,
        mut on_discarded_alloc: impl FnMut(u64) -> bool,
    ) {
        while let Some(&ev) = self.crashes.get(self.cursor) {
            if ev.at > now {
                break;
            }
            self.cursor += 1;
            let Some(ledger) = self.disks.get_mut(ev.disk as usize) else {
                // Only a VDR disk past the last whole cluster maps past the
                // last ledger (validation and the stochastic draw keep
                // every disk in the farm): it holds no replica, so the
                // event is spent.
                continue;
            };
            match ev.kind {
                CrashKind::PowerLoss => {
                    ss_obs::obs!(ss_obs::Event::PowerLoss { disk: ev.disk });
                    let rep = ledger.power_loss(ev.salt);
                    self.stats.power_loss_events += 1;
                    self.stats.recoveries += 1;
                    if rep.clean {
                        self.stats.recoveries_clean += 1;
                    }
                    self.stats.txns_replayed += rep.replayed;
                    self.stats.txns_discarded += rep.discarded;
                    self.stats.orphans_swept += rep.orphans;
                    self.stats.latent_injected += rep.latent_planted;
                    ss_obs::obs!(ss_obs::Event::CrashRecovery {
                        disk: ev.disk,
                        replayed: rep.replayed,
                        discarded: rep.discarded,
                        orphans: rep.orphans,
                        clean: rep.clean,
                    });
                    for object in rep.discarded_allocs {
                        if on_discarded_alloc(object) {
                            self.stats.objects_refetched += 1;
                        }
                        if !self.per_ledger {
                            // Complete the eviction: the object's extents
                            // on the *other* drives are now unreferenced.
                            self.record_free(object);
                        }
                    }
                }
                CrashKind::TornWrite => {
                    self.stats.torn_write_events += 1;
                    if ledger.torn_write(ev.salt, now).is_some() {
                        self.stats.latent_injected += 1;
                        ss_obs::obs!(ss_obs::Event::TornWrite { disk: ev.disk });
                    }
                }
            }
        }
    }

    // --- scrub daemon ---------------------------------------------------

    /// Interval at which the current scrub chunk completes, for the
    /// wakeup horizon. `None` when the scrub daemon is off.
    pub fn next_scrub_end(&self) -> Option<u64> {
        self.scrub.as_ref().map(|w| w.chunk_end)
    }

    /// Starts the first scrub chunk at interval `t` (call once after
    /// seeding). Returns the chunk for bandwidth booking.
    pub fn begin_scrub(&mut self, t: u64) -> Option<ScrubChunk> {
        self.scrub.is_some().then(|| self.start_chunk(t))
    }

    /// Advances the scrub walk through interval `t`: completes every
    /// chunk that ends at or before `t`, each at its own end interval
    /// `b` on a clock of `interval`-long intervals. A chunk scans its
    /// slot window — every latent error in the window is detected,
    /// handed to `repair` (returns `true` when parity reconstructed the
    /// slot in place, `false` for evict-and-refetch / replica resync),
    /// and counted with its dwell up to `b` — and the next chunk starts
    /// at `b`, further along the same drive or on the next one. The
    /// chunk's journal events are stamped at `b`, and the ambient clock
    /// is restored after them. Returns newly started chunks for
    /// bandwidth booking.
    pub fn process_scrub(
        &mut self,
        t: u64,
        interval: SimDuration,
        mut repair: impl FnMut(u32, u64) -> bool,
    ) -> Vec<ScrubChunk> {
        let mut started = Vec::new();
        while let Some(b) = self.next_scrub_end().filter(|&b| b <= t) {
            let walk = self.scrub.as_ref().expect("checked above");
            let (disk, lo, hi, fragments) = (walk.disk, walk.offset, walk.hi, walk.chunk_fragments);
            let at = SimTime::from_micros(b * interval.as_micros());
            let clock = ss_obs::now();
            ss_obs::set_clock(at.as_micros());
            let found = self.disks[disk].scrub_scan_range(lo, hi);
            self.stats.latent_found += found.len() as u64;
            ss_obs::obs!(ss_obs::Event::ScrubChunk {
                disk: disk as u32,
                fragments,
                found: found.len() as u64,
            });
            for latent in found {
                let parity = repair(disk as u32, latent.object);
                self.count_repair(disk, &latent, at, parity);
            }
            ss_obs::set_clock(clock);
            let drive_done = hi >= self.disks[disk].slots();
            let walk = self.scrub.as_mut().expect("checked above");
            if drive_done {
                walk.offset = 0;
                walk.disk = (disk + 1) % self.disks.len();
                if walk.disk == 0 {
                    self.stats.scrub_passes += 1;
                }
            } else {
                walk.offset = hi;
            }
            started.push(self.start_chunk(b));
        }
        started
    }

    /// Counts the repair of a found latent error on ledger `disk` at
    /// `now`: its dwell since injection, and one repair, in place by
    /// parity or not.
    fn count_repair(&mut self, disk: usize, latent: &LatentError, now: SimTime, parity: bool) {
        self.stats.latent_dwell_s += now.saturating_duration_since(latent.injected).as_secs_f64();
        self.stats.latent_repaired += 1;
        ss_obs::obs!(ss_obs::Event::ScrubRepair {
            disk: disk as u32,
            object: latent.object as u32,
            parity,
        });
    }

    /// Completes a scrub repair without parity: the damaged `object`
    /// leaves every drive and is refetched whole, which rewrites every
    /// slot it held. Its latent errors on drives the walk has not reached
    /// are repaired by that same refetch, so they count as found and
    /// repaired now instead of vanishing uncounted with the freed slots.
    pub fn free_refetched(&mut self, object: u64, now: SimTime) {
        for disk in 0..self.disks.len() {
            for latent in self.disks[disk].take_latent(object) {
                self.stats.latent_found += 1;
                self.count_repair(disk, &latent, now, false);
            }
        }
        self.record_free(object);
    }

    /// Opens a chunk at interval `t` on the walk's current drive from
    /// its current slot offset: up to `rate × SCRUB_CHUNK_INTERVALS`
    /// allocated fragments, so no chunk spans more than a few intervals.
    fn start_chunk(&mut self, t: u64) -> ScrubChunk {
        let walk = self.scrub.as_mut().expect("scrub armed");
        let cap = walk.rate.saturating_mul(SCRUB_CHUNK_INTERVALS);
        let (hi, fragments) = self.disks[walk.disk].scan_window(walk.offset, cap);
        // Windows with nothing allocated still cost one interval of walk
        // time, so a scrub pass over an idle farm terminates instead of
        // spinning.
        let span = fragments.div_ceil(walk.rate).max(1);
        walk.hi = hi;
        walk.chunk_fragments = fragments;
        walk.chunk_end = t + span;
        self.stats.scrub_chunks += 1;
        self.stats.scrub_fragment_intervals += fragments;
        ScrubChunk {
            disk: walk.disk as u32,
            start: t,
            end: t + span,
        }
    }

    // --- reconciliation -------------------------------------------------

    /// Every object with at least one extent anywhere in the plane.
    pub fn objects(&self) -> BTreeSet<u64> {
        self.disks.iter().flat_map(|d| d.objects()).collect()
    }

    /// Ledger `disk`'s object set, for per-cluster (VDR replica)
    /// reconciliation against the farm's cluster contents.
    pub fn ledger_objects(&self, disk: usize) -> BTreeSet<u64> {
        self.disks[disk].objects().collect()
    }

    /// Per-ledger reconciliation invariant across the whole plane.
    pub fn verify_all(&self) -> bool {
        self.disks.iter().all(|d| d.verify())
    }

    /// The cross-layer reconciliation invariant: every ledger internally
    /// consistent, and the plane's object set identical to the model's
    /// resident set.
    pub fn reconciles(&self, residents: impl IntoIterator<Item = u64>) -> bool {
        self.verify_all() && self.objects() == residents.into_iter().collect::<BTreeSet<u64>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-second interval clock: interval `t` begins at second `t`.
    const SECOND: SimDuration = SimDuration::from_secs(1);

    /// Compiles crash events of `(disk, kind)` at time zero on a farm of
    /// `disks` drives, salted from `seed`.
    fn compile(events: &[(u32, CrashKind)], disks: u32, seed: u64) -> Vec<CrashEvent> {
        let plan = ss_sim::FaultPlan {
            crash: Some(ss_sim::CrashFaults {
                events: events
                    .iter()
                    .map(|&(disk, kind)| ss_sim::CrashPlanEvent {
                        disk,
                        at: SimTime::ZERO,
                        kind,
                    })
                    .collect(),
                ..Default::default()
            }),
            ..Default::default()
        };
        let rng = ss_sim::DeterministicRng::seed_from_u64(seed);
        plan.compile_crash(disks, SimTime::from_secs(3600), &rng)
    }

    #[test]
    fn seed_checkpoint_and_reconcile() {
        let mut p = StoragePlane::new(4, 100, None, Vec::new());
        p.seed(1, [(0, 10), (1, 10)]);
        p.seed(2, [(2, 5)]);
        p.checkpoint();
        assert_eq!(p.stats.txns_journaled, 0, "seeding is not journalled");
        assert!(p.holds(0, 1) && p.holds(1, 1) && p.holds(2, 2));
        assert!(p.reconciles([1, 2]));
        assert!(!p.reconciles([1]), "extra plane object detected");
        p.record_alloc(3, [(3, 7)]);
        p.record_free(1);
        assert_eq!(p.stats.txns_journaled, 3, "one alloc + two per-drive frees");
        assert!(p.reconciles([2, 3]));
    }

    #[test]
    fn scrub_walk_books_chunks_and_wraps() {
        let mut p = StoragePlane::new(2, 100, Some(5), Vec::new());
        p.seed(1, [(0, 10)]);
        p.checkpoint();
        let first = p.begin_scrub(0).expect("scrub armed");
        // 10 fragments at 5/interval = 2 intervals on drive 0.
        assert_eq!(
            first,
            ScrubChunk {
                disk: 0,
                start: 0,
                end: 2
            }
        );
        assert_eq!(p.next_scrub_end(), Some(2));
        assert!(p.process_scrub(1, SECOND, |_, _| true).is_empty());
        let started = p.process_scrub(2, SECOND, |_, _| true);
        // Drive 1 is empty: a one-interval chunk.
        assert_eq!(
            started,
            vec![ScrubChunk {
                disk: 1,
                start: 2,
                end: 3
            }]
        );
        let started = p.process_scrub(3, SECOND, |_, _| true);
        assert_eq!(started[0].disk, 0, "walk wraps to drive 0");
        assert_eq!(p.stats.scrub_passes, 1);
        assert_eq!(p.stats.scrub_chunks, 3);
        assert_eq!(
            p.stats.scrub_fragment_intervals, 20,
            "drive 0 scanned twice"
        );
    }

    #[test]
    fn scrub_finds_and_repairs_latents_within_one_pass() {
        // Tear a slot on each drive by hand via the crash path.
        let crashes = compile(
            &[(0, CrashKind::TornWrite), (1, CrashKind::TornWrite)],
            2,
            7,
        );
        let mut p = StoragePlane::new(2, 100, Some(100), crashes);
        p.seed(1, [(0, 10), (1, 10)]);
        p.checkpoint();
        p.begin_scrub(0);
        p.process_crashes(SimTime::ZERO, |_| false);
        assert_eq!(p.stats.torn_write_events, 2);
        assert_eq!(p.latent_len(), 2);
        let mut repaired = Vec::new();
        for t in 1..=2 {
            p.process_scrub(t, SECOND, |disk, object| {
                repaired.push((disk, object));
                true
            });
        }
        assert_eq!(p.latent_len(), 0, "one full pass finds every latent");
        assert_eq!(p.stats.latent_found, 2);
        assert_eq!(p.stats.latent_repaired, 2);
        assert_eq!(repaired.len(), 2);
        assert!(p.stats.latent_dwell_s > 0.0);
    }

    /// One catch-up call over several chunk ends leaves the plane where
    /// completing each chunk at its own end does: the same counts, the
    /// same dwell sum bit for bit, the same next chunk end, and the same
    /// journal events, each stamped at its chunk's end.
    #[test]
    fn a_caught_up_walk_matches_one_completed_at_every_chunk_end() {
        let interval = SimDuration::from_micros(604_800);
        let caught_up_to = 40;
        // Four drives of 25–40 fragments, three torn writes each,
        // scrubbed 3 fragments per interval: chunks of 1–4 intervals.
        let plane = || {
            let torn: Vec<_> = (0..12).map(|i| (i % 4, CrashKind::TornWrite)).collect();
            let mut p = StoragePlane::new(4, 60, Some(3), compile(&torn, 4, 11)).per_ledger();
            for disk in 0..4 {
                p.seed(u64::from(disk), [(disk, 25 + 5 * disk)]);
            }
            p.checkpoint();
            p.begin_scrub(0);
            p.process_crashes(SimTime::ZERO, |_| false);
            p
        };
        let journal = |step: &mut dyn FnMut()| {
            let recorder = ss_obs::VecRecorder::new();
            let events = recorder.handle();
            ss_obs::install(Box::new(recorder), ss_obs::Registry::default());
            step();
            ss_obs::uninstall();
            let events = events.lock().expect("journal").clone();
            events
        };
        let mut caught_up = plane();
        let tick = SimTime::from_micros(caught_up_to * interval.as_micros());
        let caught_up_events = journal(&mut || {
            ss_obs::set_clock(tick.as_micros());
            caught_up.process_scrub(caught_up_to, interval, |_, _| false);
            assert_eq!(ss_obs::now(), tick.as_micros(), "the clock is restored");
        });
        let mut dense = plane();
        let dense_events = journal(&mut || {
            while let Some(b) = dense.next_scrub_end().filter(|&b| b <= caught_up_to) {
                ss_obs::set_clock(b * interval.as_micros());
                dense.process_scrub(b, interval, |_, _| false);
            }
        });
        assert!(caught_up.stats.latent_found > 0, "the walk found latents");
        assert!(caught_up.stats.scrub_chunks > 5, "several chunks caught up");
        assert_eq!(caught_up.stats, dense.stats);
        assert_eq!(
            caught_up.stats.latent_dwell_s.to_bits(),
            dense.stats.latent_dwell_s.to_bits()
        );
        assert_eq!(caught_up.next_scrub_end(), dense.next_scrub_end());
        assert!(caught_up.next_scrub_end() > Some(caught_up_to));
        assert!(caught_up_events
            .iter()
            .any(|(at, ev)| matches!(ev, ss_obs::Event::ScrubRepair { .. })
                && *at < tick.as_micros()));
        assert_eq!(caught_up_events, dense_events);
    }

    #[test]
    fn power_loss_rollback_completes_the_eviction() {
        let crashes = compile(&[(0, CrashKind::PowerLoss)], 3, 3);
        let mut p = StoragePlane::new(3, 100, None, crashes);
        p.seed(1, [(0, 10), (1, 10), (2, 10)]);
        p.checkpoint();
        p.record_alloc(2, [(0, 5), (1, 5)]);
        let mut evicted = Vec::new();
        p.process_crashes(SimTime::ZERO, |o| {
            evicted.push(o);
            true
        });
        assert!(p.fired());
        assert_eq!(p.stats.power_loss_events, 1);
        assert_eq!(p.stats.recoveries, 1);
        if p.stats.txns_discarded > 0 {
            // The salt chose a rollback: object 2's allocation on drive 0
            // was discarded and its drive-1 extent freed to match.
            assert_eq!(evicted, vec![2]);
            assert_eq!(p.stats.objects_refetched, 1);
            assert!(p.reconciles([1]));
        } else {
            // The salt chose a committed cut: everything survives.
            assert!(evicted.is_empty());
            assert!(p.reconciles([1, 2]));
        }
        assert_eq!(
            p.stats.recoveries_clean, 1,
            "recovery left the ledger clean"
        );
        assert!(p.verify_all());
    }

    #[test]
    fn per_ledger_rollback_spares_other_replicas() {
        let crashes = compile(&[(0, CrashKind::PowerLoss)], 2, 3);
        let mut p = StoragePlane::new(2, 50, None, crashes).per_ledger();
        p.seed(7, [(1, 1)]);
        p.checkpoint();
        assert!(p.record_alloc_on(0, 7, 1), "second replica on ledger 0");
        let mut resynced = Vec::new();
        p.process_crashes(SimTime::ZERO, |o| {
            resynced.push(o);
            true
        });
        // Whichever phase the salt cut at, ledger 1's replica survives:
        // per-ledger recovery never frees the object elsewhere.
        assert!(p.holds(1, 7), "other replica untouched by recovery");
        if p.stats.txns_discarded > 0 {
            assert!(!p.holds(0, 7));
            assert_eq!(resynced, vec![7]);
            // Replica resync: re-journal the discarded replica in place.
            assert!(p.record_alloc_on(0, 7, 1));
        }
        assert!(p.holds(0, 7));
        assert!(p.verify_all());
        assert_eq!(p.ledger_objects(0), p.ledger_objects(1));
    }
}
