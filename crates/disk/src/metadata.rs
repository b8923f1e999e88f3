//! Per-drive on-device metadata: a bitmap allocator with a free-extent
//! index and a journaled two-phase commit protocol, plus the crash
//! machinery that makes power loss and torn writes *simulable*.
//!
//! Every placement-visible write (object allocation, eviction, rebuild
//! rewrite) runs as a journal transaction: an intent record, the data
//! write, then a commit record. In normal operation all three phases
//! complete within one simulation instant, so the metadata is always
//! post-commit consistent. A [`DiskMetadata::power_loss`] cuts the most
//! recent transaction at a salt-chosen phase and runs recovery — the
//! standard crash-simulation device: the cut point stands in for "where
//! the power happened to die", and recovery is a real replay-or-discard
//! walk over the journal, not a reset.
//!
//! Recovery semantics per cut phase:
//!
//! * **committed** — the transaction survives; recovery re-applies it
//!   idempotently (counted as a replay).
//! * **intent only** — the data write never landed; recovery rolls the
//!   transaction back (counted as a discard). A discarded allocation
//!   means the object's fragments on this drive are garbage — the caller
//!   must evict and refetch.
//! * **data without commit** — as intent-only, plus the landed data is
//!   an orphan recovery must sweep.
//!
//! One deliberate exception: an uncommitted *free* rolls **forward**, not
//! back. The moment a deallocation's intent record lands, the slot
//! contents are unreliable (the eviction may have begun overwriting
//! them), so recovery completes the free rather than resurrecting
//! half-dead data. This also keeps the metadata plane reconciled with
//! the server's placement tables, which drop the victim at eviction
//! time and cannot take it back.
//!
//! A rolled-back *rewrite* (the hot-spare rebuild's whole-disk write)
//! additionally plants a latent error: the torn rewrite left a slot
//! unreadable, invisible until a scrub pass scans the drive.
//!
//! [`DiskMetadata::verify`] is the reconciliation invariant: bitmap
//! popcount ≡ Σ extent-table lengths ≡ slots minus the free-extent
//! index — checked after every recovery and exposed to the servers'
//! tick-by-tick invariant tests.

use ss_types::SimTime;
use std::collections::BTreeMap;

/// Journal records retained since the last checkpoint. Committed records
/// beyond this window have long hit the media; keeping a bounded tail
/// models a periodically checkpointed journal without unbounded state.
const MAX_JOURNAL: usize = 64;

/// One metadata operation inside a journal transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOp {
    /// Allocate `[start, start + len)` to `object`.
    Alloc {
        /// Owning object id.
        object: u64,
        /// First slot of the extent.
        start: u32,
        /// Slots in the extent.
        len: u32,
    },
    /// Return `object`'s extent `[start, start + len)` to the free pool.
    Free {
        /// Owning object id.
        object: u64,
        /// First slot of the extent.
        start: u32,
        /// Slots in the extent.
        len: u32,
    },
    /// Rewrite `object`'s extent in place (rebuild drain): no bitmap
    /// change, but a torn rewrite leaves the extent's data suspect.
    Rewrite {
        /// Owning object id.
        object: u64,
        /// First slot of the extent.
        start: u32,
        /// Slots in the extent.
        len: u32,
    },
}

/// How far a journal transaction got before a crash cut it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    /// Intent record written, data not yet durable: recovery discards.
    Intent,
    /// Data landed but the commit record did not: recovery discards and
    /// sweeps the orphaned data.
    DataWritten,
    /// Commit record durable: recovery replays idempotently.
    Committed,
}

/// One journal transaction.
#[derive(Debug, Clone)]
struct TxnRecord {
    ops: Vec<TxnOp>,
    phase: TxnPhase,
}

/// A latent media error: a torn slot whose damage is invisible until a
/// scrub pass reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatentError {
    /// The torn slot.
    pub slot: u32,
    /// The object whose data the slot holds.
    pub object: u64,
    /// When the tear happened (dwell time = detection − injection).
    pub injected: SimTime,
}

/// What a recovery pass did, returned to the caller so the server can
/// evict discarded allocations and account the crash statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Committed transactions re-applied idempotently.
    pub replayed: u64,
    /// Uncommitted transactions rolled back.
    pub discarded: u64,
    /// Data-without-commit orphans swept during rollback.
    pub orphans: u64,
    /// Objects whose *allocation* was rolled back: their fragments on
    /// this drive are garbage and the caller must evict + refetch.
    pub discarded_allocs: Vec<u64>,
    /// Latent errors planted by rolled-back rewrites (torn rebuild
    /// writes), for the caller's injection accounting.
    pub latent_planted: u64,
    /// The post-recovery reconciliation invariant held.
    pub clean: bool,
}

/// Per-drive on-device metadata: bitmap, free-extent index, per-object
/// extent table, and the bounded journal.
#[derive(Debug, Clone)]
pub struct DiskMetadata {
    slots: u32,
    /// One bit per slot, set = allocated.
    bitmap: Vec<u64>,
    /// Sorted, coalesced free runs `(start, len)` — the allocation index,
    /// rebuilt from the bitmap after every recovery.
    free_index: Vec<(u32, u32)>,
    /// Extents per object, deterministic iteration order.
    extents: BTreeMap<u64, Vec<(u32, u32)>>,
    /// Transactions since the last checkpoint, oldest first.
    journal: Vec<TxnRecord>,
    /// Torn slots awaiting a scrub pass, in injection order.
    latent: Vec<LatentError>,
}

impl DiskMetadata {
    /// A fully-free metadata plane for a drive with `slots` fragment
    /// slots.
    pub fn new(slots: u32) -> Self {
        DiskMetadata {
            slots,
            bitmap: vec![0; (slots as usize).div_ceil(64)],
            free_index: if slots > 0 { vec![(0, slots)] } else { vec![] },
            extents: BTreeMap::new(),
            journal: Vec::new(),
            latent: Vec::new(),
        }
    }

    /// Total slots on the drive.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Slots currently allocated (bitmap popcount).
    pub fn used_slots(&self) -> u32 {
        self.bitmap.iter().map(|w| w.count_ones()).sum()
    }

    /// Slots currently free.
    pub fn free_slots(&self) -> u32 {
        self.slots - self.used_slots()
    }

    /// True iff `object` has at least one extent on this drive.
    pub fn holds(&self, object: u64) -> bool {
        self.extents.contains_key(&object)
    }

    /// Objects with at least one extent here, ascending.
    pub fn objects(&self) -> impl Iterator<Item = u64> + '_ {
        self.extents.keys().copied()
    }

    /// Latent errors currently planted and undetected.
    pub fn latent_len(&self) -> usize {
        self.latent.len()
    }

    /// Allocates `frags` slots to `object` as a committed journal
    /// transaction (intent → data → commit, instantaneously). First-fit
    /// contiguous when a single free run suffices, spanning runs
    /// otherwise. Returns `false` (state unchanged) on insufficient
    /// space or if the object already holds extents here.
    pub fn commit_alloc(&mut self, object: u64, frags: u32) -> bool {
        if frags == 0 || self.extents.contains_key(&object) || self.free_slots() < frags {
            return false;
        }
        let runs = self.take_free(frags);
        let ops: Vec<TxnOp> = runs
            .iter()
            .map(|&(start, len)| TxnOp::Alloc { object, start, len })
            .collect();
        for &(start, len) in &runs {
            self.set_range(start, len, true);
        }
        self.extents.insert(object, runs);
        self.push_txn(ops);
        true
    }

    /// Frees every extent `object` holds, as a committed journal
    /// transaction. Returns `false` when the object holds nothing here.
    pub fn commit_free(&mut self, object: u64) -> bool {
        let Some(runs) = self.extents.remove(&object) else {
            return false;
        };
        let ops: Vec<TxnOp> = runs
            .iter()
            .map(|&(start, len)| TxnOp::Free { object, start, len })
            .collect();
        for &(start, len) in &runs {
            self.set_range(start, len, false);
            self.return_free(start, len);
        }
        // Freed slots can no longer tear: drop their latent entries.
        self.latent.retain(|l| l.object != object);
        self.push_txn(ops);
        true
    }

    /// Journals an in-place rewrite of every extent on the drive (the
    /// hot-spare rebuild's whole-disk drain). No bitmap change; a crash
    /// cutting this transaction plants latent errors instead.
    pub fn commit_rewrite_all(&mut self) {
        let ops: Vec<TxnOp> = self
            .extents
            .iter()
            .flat_map(|(&object, runs)| {
                runs.iter()
                    .map(move |&(start, len)| TxnOp::Rewrite { object, start, len })
            })
            .collect();
        if !ops.is_empty() {
            self.push_txn(ops);
        }
    }

    /// Checkpoints the journal: all retained transactions are declared
    /// durable and dropped. Called after initial placement so the preload
    /// is base state, not replayable history.
    pub fn checkpoint(&mut self) {
        self.journal.clear();
    }

    /// Power loss: cut the most recent transaction at a salt-chosen phase
    /// (`salt % 3` → intent / data-written / committed) and run recovery.
    pub fn power_loss(&mut self, salt: u64) -> RecoveryReport {
        if let Some(last) = self.journal.last_mut() {
            last.phase = match salt % 3 {
                0 => TxnPhase::Intent,
                1 => TxnPhase::DataWritten,
                _ => TxnPhase::Committed,
            };
        }
        self.recover()
    }

    /// Recovery: walk the journal oldest-first, re-applying committed
    /// transactions idempotently and rolling back uncommitted ones, then
    /// checkpoint, rebuild the free-extent index from the bitmap, and
    /// check the reconciliation invariant.
    fn recover(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let journal = std::mem::take(&mut self.journal);
        for record in &journal {
            match record.phase {
                TxnPhase::Committed => {
                    // Replay: the ops already hit the structures when the
                    // transaction committed; re-applying is a no-op by
                    // idempotence. Count the replay.
                    report.replayed += 1;
                }
                TxnPhase::Intent | TxnPhase::DataWritten => {
                    if record.ops.iter().all(|op| matches!(op, TxnOp::Free { .. })) {
                        // Frees roll forward: deallocation is durable at
                        // intent (see module docs). The ops already
                        // applied at commit time, so completing the free
                        // is a no-op counted as a replay.
                        report.replayed += 1;
                        continue;
                    }
                    report.discarded += 1;
                    if record.phase == TxnPhase::DataWritten {
                        report.orphans += 1;
                    }
                    for op in record.ops.iter().rev() {
                        match *op {
                            TxnOp::Alloc { object, start, len } => {
                                self.set_range(start, len, false);
                                self.extents.remove(&object);
                                self.latent.retain(|l| l.object != object);
                                if !report.discarded_allocs.contains(&object) {
                                    report.discarded_allocs.push(object);
                                }
                            }
                            TxnOp::Free { .. } => {
                                // Unreachable in practice (transactions are
                                // op-homogeneous); a mixed journal record
                                // still rolls its frees forward.
                            }
                            TxnOp::Rewrite { object, start, .. } => {
                                // The torn rewrite left the extent's first
                                // slot unreadable — latent until scrubbed.
                                if self.bit(start) && !self.latent.iter().any(|l| l.slot == start) {
                                    self.latent.push(LatentError {
                                        slot: start,
                                        object,
                                        injected: SimTime::ZERO,
                                    });
                                    report.latent_planted += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.rebuild_free_index();
        report.clean = self.verify();
        report
    }

    /// Plants a latent error on the salt-chosen allocated slot at `now`.
    /// Returns the torn slot and its owning object, or `None` when the
    /// drive is empty or the chosen slot is already torn.
    pub fn torn_write(&mut self, salt: u64, now: SimTime) -> Option<(u32, u64)> {
        let used = self.used_slots();
        if used == 0 {
            return None;
        }
        let nth = (salt % u64::from(used)) as u32;
        let slot = self.nth_set_bit(nth)?;
        if self.latent.iter().any(|l| l.slot == slot) {
            return None;
        }
        let object = self
            .extents
            .iter()
            .find(|(_, runs)| runs.iter().any(|&(s, l)| slot >= s && slot < s + l))
            .map(|(&o, _)| o)?;
        self.latent.push(LatentError {
            slot,
            object,
            injected: now,
        });
        Some((slot, object))
    }

    /// Removes and returns `object`'s latent errors on this drive, in
    /// injection order.
    pub fn take_latent(&mut self, object: u64) -> Vec<LatentError> {
        let mut taken = Vec::new();
        self.latent.retain(|l| {
            if l.object == object {
                taken.push(*l);
                false
            } else {
                true
            }
        });
        taken
    }

    /// A chunked scrub scan: detects and drains the latent errors whose
    /// slot falls in `[lo, hi)`, leaving the rest for later chunks of
    /// the walk.
    pub fn scrub_scan_range(&mut self, lo: u32, hi: u32) -> Vec<LatentError> {
        let mut found = Vec::new();
        self.latent.retain(|l| {
            if l.slot >= lo && l.slot < hi {
                found.push(*l);
                false
            } else {
                true
            }
        });
        found
    }

    /// Plans a scrub chunk: walking the bitmap from slot `lo`, the
    /// window covers up to `cap` allocated slots. Returns `(hi,
    /// covered)` — the exclusive end slot (the drive end, or just past
    /// the `cap`-th allocated slot) and how many allocated slots the
    /// window actually holds.
    pub fn scan_window(&self, lo: u32, cap: u64) -> (u32, u64) {
        let mut covered = 0u64;
        for slot in lo..self.slots {
            if covered == cap {
                return (slot, covered);
            }
            if self.bit(slot) {
                covered += 1;
            }
        }
        (self.slots, covered)
    }

    /// The reconciliation invariant: bitmap popcount ≡ Σ extent lengths
    /// ≡ slots − free-index total, the free index is sorted, coalesced
    /// and within bounds, and extents never overlap a free run.
    pub fn verify(&self) -> bool {
        let used = self.used_slots();
        let extent_total: u32 = self
            .extents
            .values()
            .flat_map(|runs| runs.iter().map(|&(_, len)| len))
            .sum();
        if extent_total != used {
            return false;
        }
        let free_total: u32 = self.free_index.iter().map(|&(_, len)| len).sum();
        if free_total != self.slots - used {
            return false;
        }
        let mut prev_end = 0u32;
        for (i, &(start, len)) in self.free_index.iter().enumerate() {
            if len == 0 || start + len > self.slots || (i > 0 && start <= prev_end) {
                return false;
            }
            // Free runs must cover exactly the clear bits.
            if (start..start + len).any(|s| self.bit(s)) {
                return false;
            }
            prev_end = start + len;
        }
        true
    }

    // --- internals -----------------------------------------------------

    fn push_txn(&mut self, ops: Vec<TxnOp>) {
        self.journal.push(TxnRecord {
            ops,
            phase: TxnPhase::Committed,
        });
        if self.journal.len() > MAX_JOURNAL {
            let excess = self.journal.len() - MAX_JOURNAL;
            self.journal.drain(..excess);
        }
    }

    fn bit(&self, slot: u32) -> bool {
        self.bitmap[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }

    fn set_range(&mut self, start: u32, len: u32, on: bool) {
        for slot in start..start + len {
            let (w, b) = ((slot / 64) as usize, slot % 64);
            if on {
                self.bitmap[w] |= 1 << b;
            } else {
                self.bitmap[w] &= !(1 << b);
            }
        }
    }

    /// Slot index of the `nth` set bit (0-based), if any.
    fn nth_set_bit(&self, nth: u32) -> Option<u32> {
        let mut remaining = nth;
        for (w, &word) in self.bitmap.iter().enumerate() {
            let ones = word.count_ones();
            if remaining < ones {
                let mut word = word;
                for _ in 0..remaining {
                    word &= word - 1; // clear lowest set bit
                }
                return Some(w as u32 * 64 + word.trailing_zeros());
            }
            remaining -= ones;
        }
        None
    }

    /// First-fit over the free index: one run when possible, front runs
    /// otherwise. Caller guarantees enough free slots.
    fn take_free(&mut self, n: u32) -> Vec<(u32, u32)> {
        if let Some(idx) = self.free_index.iter().position(|&(_, len)| len >= n) {
            let (start, len) = self.free_index[idx];
            if len == n {
                self.free_index.remove(idx);
            } else {
                self.free_index[idx] = (start + n, len - n);
            }
            return vec![(start, n)];
        }
        let mut out = Vec::new();
        let mut need = n;
        while need > 0 {
            let (start, len) = self.free_index.remove(0);
            if len > need {
                out.push((start, need));
                self.free_index.insert(0, (start + need, len - need));
                need = 0;
            } else {
                out.push((start, len));
                need -= len;
            }
        }
        out
    }

    /// Returns a run to the free index, coalescing with neighbours.
    fn return_free(&mut self, start: u32, len: u32) {
        let pos = self.free_index.partition_point(|&(s, _)| s < start);
        self.free_index.insert(pos, (start, len));
        if pos + 1 < self.free_index.len() {
            let (s, l) = self.free_index[pos];
            let (ns, nl) = self.free_index[pos + 1];
            if s + l == ns {
                self.free_index[pos] = (s, l + nl);
                self.free_index.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (ps, pl) = self.free_index[pos - 1];
            let (s, l) = self.free_index[pos];
            if ps + pl == s {
                self.free_index[pos - 1] = (ps, pl + l);
                self.free_index.remove(pos);
            }
        }
    }

    fn rebuild_free_index(&mut self) {
        self.free_index.clear();
        let mut run_start = None::<u32>;
        for slot in 0..self.slots {
            match (self.bit(slot), run_start) {
                (false, None) => run_start = Some(slot),
                (true, Some(s)) => {
                    self.free_index.push((s, slot - s));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            self.free_index.push((s, self.slots - s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip_holds_invariant() {
        let mut m = DiskMetadata::new(100);
        assert!(m.verify());
        assert!(m.commit_alloc(7, 10));
        assert!(m.commit_alloc(8, 5));
        assert!(!m.commit_alloc(7, 3), "double alloc rejected");
        assert_eq!(m.used_slots(), 15);
        assert_eq!(m.extents[&7].iter().map(|&(_, len)| len).sum::<u32>(), 10);
        assert!(m.holds(8));
        assert!(m.verify());
        assert!(m.commit_free(7));
        assert!(!m.commit_free(7), "double free rejected");
        assert_eq!(m.used_slots(), 5);
        assert!(m.verify());
        assert_eq!(m.journal.len(), 3, "two allocs + one free journaled");
    }

    #[test]
    fn alloc_spans_runs_when_fragmented() {
        let mut m = DiskMetadata::new(30);
        assert!(m.commit_alloc(1, 10)); // [0,10)
        assert!(m.commit_alloc(2, 10)); // [10,20)
        assert!(m.commit_alloc(3, 10)); // [20,30)
        assert!(m.commit_free(1));
        assert!(m.commit_free(3));
        // Free: [0,10) ∪ [20,30); 15 slots must span both runs.
        assert!(m.commit_alloc(4, 15));
        assert_eq!(m.extents[&4].iter().map(|&(_, len)| len).sum::<u32>(), 15);
        assert!(m.verify());
        assert!(!m.commit_alloc(5, 10), "only 5 slots left");
        assert!(m.commit_alloc(5, 5));
        assert_eq!(m.free_slots(), 0);
        assert!(m.verify());
    }

    #[test]
    fn committed_cut_replays_everything() {
        let mut m = DiskMetadata::new(50);
        assert!(m.commit_alloc(1, 10));
        assert!(m.commit_alloc(2, 10));
        let r = m.power_loss(2); // salt % 3 == 2 → committed
        assert_eq!(r.replayed, 2);
        assert_eq!(r.discarded, 0);
        assert!(r.discarded_allocs.is_empty());
        assert!(r.clean);
        assert_eq!(m.used_slots(), 20, "committed allocations survive");
        assert_eq!(m.journal.len(), 0, "recovery checkpoints the journal");
        assert!(m.verify());
    }

    #[test]
    fn intent_cut_discards_the_last_alloc() {
        let mut m = DiskMetadata::new(50);
        assert!(m.commit_alloc(1, 10));
        assert!(m.commit_alloc(2, 10));
        let r = m.power_loss(0); // salt % 3 == 0 → intent only
        assert_eq!(r.replayed, 1);
        assert_eq!(r.discarded, 1);
        assert_eq!(r.orphans, 0);
        assert_eq!(r.discarded_allocs, vec![2]);
        assert!(r.clean);
        assert_eq!(m.used_slots(), 10, "object 2's allocation rolled back");
        assert!(!m.holds(2));
        assert!(m.holds(1));
        assert!(m.verify());
        // The freed slots are allocatable again.
        assert!(m.commit_alloc(3, 40));
        assert!(m.verify());
    }

    #[test]
    fn data_without_commit_cut_sweeps_an_orphan() {
        let mut m = DiskMetadata::new(50);
        assert!(m.commit_alloc(1, 10));
        let r = m.power_loss(1); // salt % 3 == 1 → data landed, no commit
        assert_eq!(r.discarded, 1);
        assert_eq!(r.orphans, 1);
        assert_eq!(r.discarded_allocs, vec![1]);
        assert!(r.clean);
        assert_eq!(m.used_slots(), 0);
        assert!(m.verify());
    }

    #[test]
    fn uncommitted_free_rolls_forward() {
        let mut m = DiskMetadata::new(50);
        assert!(m.commit_alloc(1, 10));
        m.checkpoint();
        assert!(m.commit_free(1));
        let r = m.power_loss(0); // the free completes despite the cut
        assert_eq!(r.replayed, 1);
        assert_eq!(r.discarded, 0);
        assert!(r.discarded_allocs.is_empty());
        assert!(r.clean);
        assert!(!m.holds(1), "deallocation is durable at intent");
        assert_eq!(m.used_slots(), 0);
        assert!(m.verify());
    }

    #[test]
    fn torn_rewrite_plants_a_latent_error() {
        let mut m = DiskMetadata::new(50);
        assert!(m.commit_alloc(1, 10));
        m.checkpoint();
        m.commit_rewrite_all();
        let r = m.power_loss(0);
        assert_eq!(r.discarded, 1);
        assert_eq!(r.latent_planted, 1);
        assert!(r.clean);
        assert_eq!(m.latent_len(), 1);
        let found = m.scrub_scan_range(0, m.slots());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].object, 1);
        assert_eq!(m.latent_len(), 0);
    }

    #[test]
    fn power_loss_with_empty_journal_is_a_clean_noop() {
        let mut m = DiskMetadata::new(50);
        assert!(m.commit_alloc(1, 10));
        m.checkpoint();
        let r = m.power_loss(0);
        assert_eq!((r.replayed, r.discarded, r.orphans), (0, 0, 0));
        assert!(r.clean);
        assert!(m.holds(1));
    }

    #[test]
    fn torn_write_picks_deterministic_owner_and_scrub_drains() {
        let mut m = DiskMetadata::new(50);
        assert!(m.commit_alloc(1, 10)); // slots [0,10)
        assert!(m.commit_alloc(2, 10)); // slots [10,20)
        let t0 = SimTime::from_secs(5);
        let (slot, object) = m.torn_write(13, t0).expect("allocated slots exist");
        assert_eq!(slot, 13, "salt 13 mod 20 allocated slots");
        assert_eq!(object, if slot < 10 { 1 } else { 2 });
        // Same slot again: already torn, no duplicate.
        assert!(m.torn_write(13, t0).is_none());
        assert_eq!(m.latent_len(), 1);
        // Freeing the owner clears its latent errors.
        assert!(m.commit_free(object));
        assert_eq!(m.latent_len(), 0);
        // Empty drive: nothing to tear.
        assert!(m.commit_free(if object == 1 { 2 } else { 1 }));
        assert!(m.torn_write(7, t0).is_none());
        let found = m.scrub_scan_range(0, m.slots());
        assert!(found.is_empty());
    }

    #[test]
    fn journal_is_bounded() {
        let mut m = DiskMetadata::new(1000);
        for i in 0..100u64 {
            assert!(m.commit_alloc(i, 1));
        }
        assert_eq!(m.journal.len(), MAX_JOURNAL);
        let r = m.power_loss(2);
        assert_eq!(r.replayed, MAX_JOURNAL as u64);
        assert!(r.clean);
        assert_eq!(m.used_slots(), 100);
    }

    #[test]
    fn recovery_rebuilds_a_coalesced_free_index() {
        let mut m = DiskMetadata::new(40);
        assert!(m.commit_alloc(1, 10)); // [0,10)
        assert!(m.commit_alloc(2, 10)); // [10,20)
        assert!(m.commit_free(1));
        assert!(m.commit_alloc(3, 10)); // first fit reuses [0,10)
                                        // Roll back the last alloc (salt 0 → intent): the index must be
                                        // rebuilt from the bitmap — [0,10) and [20,40) as coalesced runs.
        let r = m.power_loss(0);
        assert!(r.clean);
        assert_eq!(r.discarded_allocs, vec![3]);
        assert!(!m.holds(1));
        assert!(m.holds(2));
        assert_eq!(m.free_slots(), 30);
        assert!(m.verify());
        assert!(m.commit_alloc(4, 30), "the rebuilt index spans both runs");
        assert_eq!(m.free_slots(), 0);
    }
}
