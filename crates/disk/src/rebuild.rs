//! Online hot-spare rebuild scheduling.
//!
//! When a disk fail-stops and the farm carries parity, its fragments can
//! be regenerated from the surviving members of each parity group and
//! drained onto a designated spare at a bounded rate. The
//! [`RebuildScheduler`] models that pipeline deterministically: spares
//! process failed disks strictly FIFO, each rebuild takes
//! `ceil(fragments / rate)` intervals of spare bandwidth, and the
//! completion interval of every job is fixed the moment the failure is
//! enqueued — so an event-driven server can register the rebuild horizon
//! as a planning bound and a wakeup source without re-simulating the
//! drain tick by tick.
//!
//! The scheduler is pure bookkeeping: it does not touch the availability
//! mask or the admission planner. The server flips the rebuilt disk back
//! into service (an early repair) when a job's `done` interval arrives,
//! and charges the drain's bandwidth interference itself.

/// One queued or in-flight rebuild of a failed disk onto a spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildJob {
    /// The failed disk whose contents are being regenerated.
    pub disk: u32,
    /// Interval at which a spare starts draining this disk's groups.
    pub start: u64,
    /// First interval at which the rebuilt disk can serve again
    /// (exclusive end of the drain).
    pub done: u64,
    /// Fragments regenerated (the failed disk's resident fragments).
    pub fragments: u64,
}

/// Deterministic FIFO rebuild pipeline over a fixed pool of spares.
///
/// ```
/// use ss_disk::RebuildScheduler;
///
/// let mut r = RebuildScheduler::new(4, 1);
/// // Disk 3 fails at interval 10 holding 12 fragments: one spare drains
/// // 4 fragments per interval, so the disk is whole again at interval 13.
/// let job = r.enqueue(3, 12, 10);
/// assert_eq!((job.start, job.done), (10, 13));
/// // A second failure queues behind the busy spare.
/// let job2 = r.enqueue(7, 4, 11);
/// assert_eq!((job2.start, job2.done), (13, 14));
/// ```
#[derive(Debug, Clone)]
pub struct RebuildScheduler {
    /// Fragments regenerated per interval per spare (the bandwidth cap).
    rate: u64,
    /// Per-spare busy horizon: the interval at which each spare frees.
    spare_free: Vec<u64>,
}

impl RebuildScheduler {
    /// A scheduler draining `rate` fragments per interval into each of
    /// `spares` spare drives. Both must be at least 1.
    pub fn new(rate: u64, spares: u32) -> Self {
        assert!(rate >= 1, "rebuild rate must be at least one fragment");
        assert!(spares >= 1, "need at least one spare");
        RebuildScheduler {
            rate,
            spare_free: vec![0; spares as usize],
        }
    }

    /// The configured drain rate (fragments per interval per spare).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Enqueues the rebuild of `disk` holding `fragments` fragments,
    /// failed at interval `now`, onto the earliest-free spare. Returns the
    /// scheduled job; its `done` interval is final. Ties between equally
    /// free spares resolve to the lowest-indexed one, so the schedule is a
    /// pure function of the enqueue sequence.
    pub fn enqueue(&mut self, disk: u32, fragments: u64, now: u64) -> RebuildJob {
        let (spare, free) = self
            .spare_free
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, f)| (f, i))
            .expect("at least one spare");
        let start = free.max(now);
        // A disk with nothing on it still costs one interval of
        // verification before it re-enters service.
        let drain = fragments.div_ceil(self.rate).max(1);
        let done = start + drain;
        self.spare_free[spare] = done;
        ss_obs::obs!(ss_obs::Event::RebuildQueued {
            disk,
            fragments,
            done,
        });
        RebuildJob {
            disk,
            start,
            done,
            fragments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_spare_serializes_rebuilds_fifo() {
        let mut r = RebuildScheduler::new(2, 1);
        let a = r.enqueue(0, 10, 5); // 5 intervals of drain
        let b = r.enqueue(1, 2, 6); // queues behind a
        let c = r.enqueue(2, 1, 100); // spare long free again
        assert_eq!((a.start, a.done), (5, 10));
        assert_eq!((b.start, b.done), (10, 11));
        assert_eq!((c.start, c.done), (100, 101));
    }

    #[test]
    fn multiple_spares_rebuild_concurrently() {
        let mut r = RebuildScheduler::new(1, 2);
        let a = r.enqueue(0, 8, 0);
        let b = r.enqueue(1, 8, 0);
        let c = r.enqueue(2, 8, 1);
        // Two spares take the two concurrent failures; the third queues
        // behind whichever frees first (both at 8 — lowest index wins).
        assert_eq!((a.start, a.done), (0, 8));
        assert_eq!((b.start, b.done), (0, 8));
        assert_eq!((c.start, c.done), (8, 16));
    }

    #[test]
    fn empty_disk_still_costs_one_interval() {
        let mut r = RebuildScheduler::new(4, 1);
        let j = r.enqueue(9, 0, 3);
        assert_eq!((j.start, j.done), (3, 4));
    }
}
