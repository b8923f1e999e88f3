//! Buffer-memory accounting for time-fragmented delivery (§3.2.1).
//!
//! Solving time fragmentation is not free: every fragment read before its
//! delivery interval occupies one fragment-sized buffer until it is
//! transmitted, and a display admitted with total offset `Σ wᵢ` holds that
//! many buffers for its entire lifetime. [`BufferTracker`] charges and
//! releases those buffers and reports the high-water mark — the number the
//! system architect must actually provision (on top of the per-disk
//! masking buffer of equation (1), which ss-disk's `min_buffer_memory`
//! computes).

use serde::{Deserialize, Serialize};
use ss_types::{Bytes, Error, Result};

/// Tracks fragment-sized delivery buffers across concurrent displays.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BufferTracker {
    fragment: Bytes,
    capacity: Option<u64>,
    in_use: u64,
    peak: u64,
    total_acquired: u64,
}

impl BufferTracker {
    /// A tracker for buffers of one fragment each; `capacity` bounds the
    /// total simultaneously-held buffers (`None` = unbounded accounting).
    pub fn new(fragment: Bytes, capacity: Option<u64>) -> Self {
        BufferTracker {
            fragment,
            capacity,
            in_use: 0,
            peak: 0,
            total_acquired: 0,
        }
    }

    /// Charges `fragments` buffers for an admitted display. Fails without
    /// side effects if the capacity would be exceeded.
    pub fn acquire(&mut self, fragments: u64) -> Result<()> {
        if let Some(cap) = self.capacity {
            if self.in_use + fragments > cap {
                return Err(Error::InvalidState {
                    reason: format!(
                        "buffer pool exhausted: {} in use + {fragments} requested > {cap}",
                        self.in_use
                    ),
                });
            }
        }
        self.in_use += fragments;
        self.total_acquired += fragments;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Releases a display's buffers. Panics on over-release (a logic bug).
    pub fn release(&mut self, fragments: u64) {
        assert!(
            fragments <= self.in_use,
            "over-release: {fragments} > {} in use",
            self.in_use
        );
        self.in_use -= fragments;
    }

    /// Buffers currently held.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark since construction.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// High-water mark in bytes.
    pub fn peak_bytes(&self) -> Bytes {
        self.fragment * self.peak
    }

    /// Buffers acquired over the tracker's lifetime (throughput of the
    /// buffering machinery, not an occupancy).
    pub fn total_acquired(&self) -> u64 {
        self.total_acquired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_and_peak() {
        let mut b = BufferTracker::new(Bytes::megabytes(1), None);
        b.acquire(3).unwrap();
        b.acquire(2).unwrap();
        assert_eq!(b.in_use(), 5);
        b.release(3);
        b.acquire(1).unwrap();
        assert_eq!(b.in_use(), 3);
        assert_eq!(b.peak(), 5);
        assert_eq!(b.peak_bytes(), Bytes::megabytes(5));
        assert_eq!(b.total_acquired(), 6);
    }

    #[test]
    fn capacity_is_enforced_atomically() {
        let mut b = BufferTracker::new(Bytes::megabytes(1), Some(4));
        b.acquire(3).unwrap();
        let err = b.acquire(2).unwrap_err();
        assert!(matches!(err, Error::InvalidState { .. }));
        assert_eq!(b.in_use(), 3); // unchanged by the failed acquire
        b.acquire(1).unwrap();
        assert_eq!(b.in_use(), 4);
    }

    #[test]
    fn zero_acquire_is_free() {
        let mut b = BufferTracker::new(Bytes::megabytes(1), Some(0));
        b.acquire(0).unwrap();
        assert_eq!(b.peak(), 0);
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn over_release_panics() {
        let mut b = BufferTracker::new(Bytes::megabytes(1), None);
        b.acquire(1).unwrap();
        b.release(2);
    }
}
