//! Prefix cache for stream sharing: the first intervals of hot objects
//! kept resident in buffer memory so a viewer joining an in-flight
//! shared stream starts instantly from cache while the disk stream runs
//! ahead (the prefix/multicast VoD design: batch arrivals onto one
//! stream, serve the missed prefix from memory).
//!
//! The cache is budgeted in buffer-pool fragments through the same
//! [`BufferTracker`] accounting the
//! display buffers use, and its admission/eviction policy is
//! **deterministic**: popularity-tagged LFU where the victim is the
//! resident object with the smallest `(frequency, salt, id)` key. The
//! salts come from a seeded SplitMix64 stream, so ties between
//! equally-popular objects break identically across runs.

use crate::buffers::BufferTracker;
use ss_types::Bytes;

/// Running counters of the cache's behavior, folded into the run report
/// by the server models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prefix lookups that found the object resident.
    pub hits: u64,
    /// Prefix lookups that missed.
    pub misses: u64,
    /// Objects admitted (first residency or re-admission after eviction).
    pub insertions: u64,
    /// Objects evicted to make room.
    pub evictions: u64,
}

/// A deterministic popularity-tagged LFU prefix cache over a dense
/// object-id space.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    buffers: BufferTracker,
    budget: u64,
    /// Per-object resident cost in fragments (`None` = not resident).
    resident: Vec<Option<u64>>,
    /// Seeded per-object tie-break salts: among equally-cold objects the
    /// smaller salt is evicted first.
    salt: Vec<u64>,
    stats: CacheStats,
}

/// SplitMix64: the standard 64-bit mixing constant sequence. Used only
/// to derive per-object tie-break salts from one seed word.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PrefixCache {
    /// A cache over `objects` dense ids with a budget of
    /// `budget_fragments` buffers of `fragment` bytes each; `seed` fixes
    /// the eviction tie-break salts.
    pub fn new(objects: u32, fragment: Bytes, budget_fragments: u64, seed: u64) -> Self {
        let mut state = seed;
        let salt = (0..objects).map(|_| splitmix64(&mut state)).collect();
        PrefixCache {
            buffers: BufferTracker::new(fragment, Some(budget_fragments)),
            budget: budget_fragments,
            resident: vec![None; objects as usize],
            salt,
            stats: CacheStats::default(),
        }
    }

    /// Is `object`'s prefix resident? Does not touch the hit/miss
    /// counters — use [`Self::lookup`] on the serving path.
    pub fn contains(&self, object: u32) -> bool {
        self.resident
            .get(object as usize)
            .is_some_and(Option::is_some)
    }

    /// Serving-path lookup: records a hit or miss and reports residency.
    pub fn lookup(&mut self, object: u32) -> bool {
        let hit = self.contains(object);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Offers `object`'s prefix (costing `cost` fragments) for
    /// residency, evicting strictly-colder victims by the
    /// `(freq, salt, id)` LFU key until it fits. `freq` is the caller's
    /// per-object access-frequency table (indexed by dense id). Returns
    /// whether the object is resident afterwards; a no-op `true` if it
    /// already is, `false` if the budget cannot be freed without
    /// evicting an object at least as hot as the candidate.
    pub fn offer(&mut self, object: u32, cost: u64, freq: &[u64]) -> bool {
        let idx = object as usize;
        if self.resident[idx].is_some() {
            return true;
        }
        if cost > self.budget {
            return false; // larger than the whole budget
        }
        let key = |o: usize| (freq.get(o).copied().unwrap_or(0), self.salt[o], o as u64);
        let candidate_key = key(idx);
        while self.buffers.acquire(cost).is_err() {
            // Coldest resident object by the LFU key; evict only if it is
            // strictly colder than the candidate, so a stream of cold
            // objects cannot churn a hot prefix out.
            let victim = self
                .resident
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_some())
                .map(|(o, _)| o)
                .min_by_key(|&o| key(o));
            let Some(v) = victim else { return false };
            if key(v) >= candidate_key {
                return false;
            }
            let freed = self.resident[v].take().expect("victim is resident");
            self.buffers.release(freed);
            self.stats.evictions += 1;
            ss_obs::obs!(ss_obs::Event::CacheEvict { object: v as u32 });
        }
        self.resident[idx] = Some(cost);
        self.stats.insertions += 1;
        ss_obs::obs!(ss_obs::Event::CacheAdmit { object, cost });
        true
    }

    /// The configured fragment budget.
    pub fn capacity(&self) -> u64 {
        self.budget
    }

    /// Fragments currently held by resident prefixes.
    pub fn in_use(&self) -> u64 {
        self.buffers.in_use()
    }

    /// The behavior counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(budget: u64) -> PrefixCache {
        PrefixCache::new(4, Bytes::megabytes(1), budget, 7)
    }

    #[test]
    fn admits_within_budget_and_counts_hits() {
        let freq = [5u64, 3, 1, 0];
        let mut c = cache(10);
        assert!(c.offer(0, 4, &freq));
        assert!(c.offer(1, 4, &freq));
        assert_eq!(c.in_use(), 8);
        assert!(c.lookup(0));
        assert!(!c.lookup(2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 2, 0));
    }

    #[test]
    fn evicts_strictly_colder_victims_only() {
        let freq = [5u64, 3, 8, 1];
        let mut c = cache(8);
        assert!(c.offer(0, 4, &freq)); // freq 5
        assert!(c.offer(1, 4, &freq)); // freq 3 (coldest resident)
                                       // A hotter object evicts the coldest resident…
        assert!(c.offer(2, 4, &freq)); // freq 8
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
        // …but a colder one cannot churn a hot prefix out.
        assert!(!c.offer(3, 4, &freq)); // freq 1 < both residents
        assert!(c.contains(0) && c.contains(2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_offers_and_reoffers_are_safe() {
        let freq = [1u64, 1, 1, 1];
        let mut c = cache(4);
        assert!(!c.offer(0, 5, &freq)); // larger than the whole budget
        assert!(c.offer(0, 4, &freq));
        assert!(c.offer(0, 4, &freq)); // already resident: no-op true
        assert_eq!(c.in_use(), 4);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn equal_frequency_ties_break_by_seeded_salt_deterministically() {
        let freq = [2u64, 2, 9, 0];
        // Same seed → same victim; the choice is a pure function of the
        // seed, not of HashMap iteration or allocation order.
        let pick_victim = || {
            let mut c = cache(8);
            assert!(c.offer(0, 4, &freq));
            assert!(c.offer(1, 4, &freq));
            assert!(c.offer(2, 4, &freq)); // evicts one of the freq-2 twins
            (c.contains(0), c.contains(1))
        };
        let first = pick_victim();
        assert_eq!(first, pick_victim());
        assert_ne!(first.0, first.1, "exactly one twin survives");
    }
}
