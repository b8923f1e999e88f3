//! Per-disk availability tracking for fault injection.
//!
//! [`AvailabilityMask`] is the runtime state machine behind a compiled
//! [`ss_sim::FaultTimeline`]: it applies fail/repair/slow transitions as
//! the server processes them, answers "is node *n* wholly down?" for the
//! distributed router, and keeps the downtime accounting the degraded-mode
//! report section is built from.
//!
//! Both server models own one mask; the striping scheduler additionally
//! mirrors hard outages as planning windows (see `ss-core`). The
//! transition counts live in the report's `DegradedStats`, which the
//! server's fault processing keeps.

use serde::{Deserialize, Serialize};
use ss_sim::{FaultEvent, FaultKind};
use ss_types::{SimDuration, SimTime};

/// Live up/slow state plus downtime accounting for a farm of `D` disks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AvailabilityMask {
    down: Vec<bool>,
    slow: Vec<bool>,
    /// When the current outage of each down disk began.
    down_since: Vec<SimTime>,
    /// When the current slow episode of each slow disk began.
    slow_since: Vec<SimTime>,
    downtime: Vec<SimDuration>,
    slow_time: Vec<SimDuration>,
    down_count: u32,
}

impl AvailabilityMask {
    /// A mask with every disk up and fast.
    pub fn new(disks: u32) -> Self {
        let n = disks as usize;
        AvailabilityMask {
            down: vec![false; n],
            slow: vec![false; n],
            down_since: vec![SimTime::ZERO; n],
            slow_since: vec![SimTime::ZERO; n],
            downtime: vec![SimDuration::ZERO; n],
            slow_time: vec![SimDuration::ZERO; n],
            down_count: 0,
        }
    }

    /// Number of disks tracked.
    pub fn disks(&self) -> u32 {
        self.down.len() as u32
    }

    /// Applies one fault transition at time `now` (the interval boundary
    /// at which the server processes it). Compiled timelines are
    /// normalized, so redundant transitions indicate a caller bug and
    /// panic via debug assertions.
    pub fn apply(&mut self, ev: &FaultEvent, now: SimTime) {
        let d = ev.disk as usize;
        ss_obs::obs!(match ev.kind {
            FaultKind::Fail => ss_obs::Event::DiskFail { disk: ev.disk },
            FaultKind::Repair => ss_obs::Event::DiskRepair { disk: ev.disk },
            FaultKind::SlowStart => ss_obs::Event::DiskSlowStart { disk: ev.disk },
            FaultKind::SlowEnd => ss_obs::Event::DiskSlowEnd { disk: ev.disk },
        });
        match ev.kind {
            FaultKind::Fail => {
                debug_assert!(!self.down[d], "double Fail on disk {}", ev.disk);
                self.down[d] = true;
                self.down_since[d] = now;
                self.down_count += 1;
            }
            FaultKind::Repair => {
                debug_assert!(self.down[d], "Repair of up disk {}", ev.disk);
                self.down[d] = false;
                self.downtime[d] += now.saturating_duration_since(self.down_since[d]);
                self.down_count -= 1;
            }
            FaultKind::SlowStart => {
                debug_assert!(!self.slow[d], "double SlowStart on disk {}", ev.disk);
                self.slow[d] = true;
                self.slow_since[d] = now;
            }
            FaultKind::SlowEnd => {
                debug_assert!(self.slow[d], "SlowEnd on fast disk {}", ev.disk);
                self.slow[d] = false;
                self.slow_time[d] += now.saturating_duration_since(self.slow_since[d]);
            }
        }
    }

    /// Number of disks currently down.
    pub fn down_count(&self) -> u32 {
        self.down_count
    }

    /// True when every disk of node `node` (owning `disks_per_node`
    /// contiguous disks) is down — the distributed router's liveness
    /// test: a node outage compiles into exactly this pattern.
    pub fn node_fully_down(&self, node: u32, disks_per_node: u32) -> bool {
        let first = (node * disks_per_node) as usize;
        let last = (first + disks_per_node as usize).min(self.down.len());
        first < last && self.down[first..last].iter().all(|&d| d)
    }

    /// Closes any still-open outage/slow windows for final accounting.
    pub fn finish(&mut self, now: SimTime) {
        for d in 0..self.down.len() {
            if self.down[d] {
                self.downtime[d] += now.saturating_duration_since(self.down_since[d]);
                self.down_since[d] = now;
            }
            if self.slow[d] {
                self.slow_time[d] += now.saturating_duration_since(self.slow_since[d]);
                self.slow_since[d] = now;
            }
        }
    }

    /// Total accumulated downtime across all disks (closed windows only;
    /// call [`AvailabilityMask::finish`] first for end-of-run totals).
    pub fn total_downtime(&self) -> SimDuration {
        self.downtime
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    /// The largest single-disk accumulated downtime.
    pub fn max_downtime(&self) -> SimDuration {
        self.downtime
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Total accumulated slow-episode time across all disks.
    pub fn total_slow_time(&self) -> SimDuration {
        self.slow_time
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(disk: u32, secs: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            disk,
            at: SimTime::from_secs(secs),
            kind,
        }
    }

    #[test]
    fn fail_repair_accounts_downtime() {
        let mut m = AvailabilityMask::new(4);
        assert_eq!(m.down_count(), 0);
        m.apply(&ev(2, 100, FaultKind::Fail), SimTime::from_secs(100));
        assert_eq!(m.down_count(), 1);
        m.apply(&ev(2, 400, FaultKind::Repair), SimTime::from_secs(400));
        assert_eq!(m.down_count(), 0);
        assert_eq!(m.total_downtime(), SimDuration::from_secs(300));
        assert_eq!(m.max_downtime(), SimDuration::from_secs(300));
    }

    #[test]
    fn node_fully_down_needs_every_owned_disk() {
        let mut m = AvailabilityMask::new(6);
        // Node 1 owns disks 3..6 under a 2-node × 3-disk topology.
        m.apply(&ev(3, 10, FaultKind::Fail), SimTime::from_secs(10));
        m.apply(&ev(4, 10, FaultKind::Fail), SimTime::from_secs(10));
        assert!(!m.node_fully_down(1, 3), "one owned disk still up");
        m.apply(&ev(5, 10, FaultKind::Fail), SimTime::from_secs(10));
        assert!(m.node_fully_down(1, 3));
        assert!(!m.node_fully_down(0, 3));
    }

    #[test]
    fn slow_accrues_slow_time_not_downtime() {
        let mut m = AvailabilityMask::new(2);
        m.apply(&ev(0, 10, FaultKind::SlowStart), SimTime::from_secs(10));
        assert_eq!(m.down_count(), 0);
        m.apply(&ev(0, 30, FaultKind::SlowEnd), SimTime::from_secs(30));
        assert_eq!(m.total_slow_time(), SimDuration::from_secs(20));
        assert_eq!(m.total_downtime(), SimDuration::ZERO);
    }

    #[test]
    fn finish_closes_open_windows() {
        let mut m = AvailabilityMask::new(2);
        m.apply(&ev(1, 50, FaultKind::Fail), SimTime::from_secs(50));
        m.finish(SimTime::from_secs(80));
        assert_eq!(m.total_downtime(), SimDuration::from_secs(30));
        // finish() resets the window start so a second call adds nothing.
        m.finish(SimTime::from_secs(80));
        assert_eq!(m.total_downtime(), SimDuration::from_secs(30));
    }
}
