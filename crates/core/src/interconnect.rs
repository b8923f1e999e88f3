//! Interconnect accounting for a distributed farm.
//!
//! When the farm is split across storage nodes, a display routed to home
//! node `h` may stripe over physical disks owned by *other* nodes. Each
//! such remote fragment must cross the interconnect during the interval
//! it is read — so remote reads charge per-interval link capacity the
//! same way reconstruction reads already charge disk intervals.
//!
//! The model is a star: every node hangs off one switch by a full-duplex
//! link. A remote fragment read in interval `t` consumes one fragment of
//! capacity on the *home* node's ingress link at `t` and one fragment of
//! the shared switch fabric at `t`. Capacities are in fragments per
//! interval; `None` means infinite (the N=1 equivalence configuration).
//!
//! [`InterconnectLedger`] is the bookkeeper. Admission uses the
//! two-phase [`InterconnectLedger::try_book`] — check every interval of
//! the proposed spans, then apply — so a display is either fully booked
//! or rejected before the disk scheduler commits. Rescue and coalesce
//! re-plans use [`InterconnectLedger::force_book`]: a mid-flight plan
//! change may not fail, so it books unconditionally (transient
//! over-subscription is accepted and visible in the stats, mirroring how
//! rescue already overbooks disk bandwidth rather than dropping).
//!
//! The ledger is a dense window per link and for the switch, starting at
//! the retire horizon: bookings land at or after the current interval
//! and the clock only moves forward, so a booking is an indexed add and
//! [`InterconnectLedger::retire`] pops just the intervals the clock has
//! passed.

use ss_types::NodeId;
use std::collections::VecDeque;

/// Per-interval bookings of interconnect capacity for an N-node farm.
#[derive(Debug, Clone)]
pub struct InterconnectLedger {
    /// The retire horizon: slot `k` of every window is interval
    /// `horizon + k`, and no booking lands before it.
    horizon: u64,
    /// Per-node ingress link load: fragments crossing into the node
    /// during each interval of the window.
    link: Vec<VecDeque<u64>>,
    /// Shared switch-fabric load: fragments switched during each
    /// interval of the window.
    switch: VecDeque<u64>,
    /// Per-link capacity in fragments per interval (`None` = infinite).
    link_capacity: Option<u64>,
    /// Switch-fabric capacity in fragments per interval (`None` = infinite).
    switch_capacity: Option<u64>,
    /// Σ fragments × intervals booked across all links, for the run report.
    remote_fragment_intervals: u64,
    /// Highest single-link single-interval load ever booked.
    peak_link_fragments: u64,
    /// Admissions refused because a link or the switch was full.
    rejections: u64,
}

/// The load `window` holds `k` intervals past the horizon.
fn load(window: &VecDeque<u64>, k: u64) -> u64 {
    window.get(k as usize).copied().unwrap_or(0)
}

/// Adds `frags` to `window`'s slot `k`, growing the window to reach it,
/// and returns the slot's new load.
fn add(window: &mut VecDeque<u64>, k: usize, frags: u64) -> u64 {
    if window.len() <= k {
        window.resize(k + 1, 0);
    }
    window[k] += frags;
    window[k]
}

impl InterconnectLedger {
    /// An empty ledger for `nodes` nodes with the given capacities.
    pub fn new(nodes: u32, link_capacity: Option<u64>, switch_capacity: Option<u64>) -> Self {
        InterconnectLedger {
            horizon: 0,
            link: vec![VecDeque::new(); nodes as usize],
            switch: VecDeque::new(),
            link_capacity,
            switch_capacity,
            remote_fragment_intervals: 0,
            peak_link_fragments: 0,
            rejections: 0,
        }
    }

    /// Whether booking `spans` — `(interval, fragments)` pairs, one entry
    /// per interval — onto `node`'s link would stay within both the link
    /// and switch capacities.
    fn fits(&self, node: NodeId, spans: &[(u64, u64)]) -> bool {
        for &(interval, frags) in spans {
            if frags == 0 {
                continue;
            }
            let k = interval.saturating_sub(self.horizon);
            if let Some(cap) = self.link_capacity {
                if load(&self.link[node.index()], k) + frags > cap {
                    return false;
                }
            }
            if let Some(cap) = self.switch_capacity {
                if load(&self.switch, k) + frags > cap {
                    return false;
                }
            }
        }
        true
    }

    /// Unconditionally applies `spans` to `node`'s link and the switch.
    /// Every span must lie at or after the retire horizon: admissions and
    /// re-plans book from the current interval on, and the kernel retires
    /// only the intervals before it (a release build would clamp a stray
    /// span onto the horizon, as [`InterconnectLedger::fits`] checks it).
    fn apply(&mut self, node: NodeId, spans: &[(u64, u64)]) {
        for &(interval, frags) in spans {
            if frags == 0 {
                continue;
            }
            debug_assert!(
                interval >= self.horizon,
                "booking at interval {interval} behind the retire horizon {}",
                self.horizon
            );
            let k = interval.saturating_sub(self.horizon) as usize;
            let used = add(&mut self.link[node.index()], k, frags);
            self.peak_link_fragments = self.peak_link_fragments.max(used);
            add(&mut self.switch, k, frags);
            self.remote_fragment_intervals += frags;
        }
    }

    /// Two-phase booking for admission: books `spans` onto `node`'s link
    /// iff every interval fits under both capacities. Returns whether the
    /// booking was applied; a refusal is counted in
    /// [`InterconnectLedger::rejections`].
    pub fn try_book(&mut self, node: NodeId, spans: &[(u64, u64)]) -> bool {
        if !self.fits(node, spans) {
            self.rejections += 1;
            return false;
        }
        self.apply(node, spans);
        true
    }

    /// Unconditional booking for rescue/coalesce re-plans: a mid-flight
    /// plan change books its new remote intervals even past capacity
    /// (transient over-subscription, never a deficit).
    pub fn force_book(&mut self, node: NodeId, spans: &[(u64, u64)]) {
        self.apply(node, spans);
    }

    /// Fragments booked onto `node`'s link during `interval` (zero once
    /// the interval is retired).
    pub fn booked(&self, node: NodeId, interval: u64) -> u64 {
        interval
            .checked_sub(self.horizon)
            .map_or(0, |k| load(&self.link[node.index()], k))
    }

    /// Drops bookings for intervals before `horizon` — they can never be
    /// consulted again, so long runs stay bounded. Pops only the
    /// intervals between the old horizon and the new one.
    pub fn retire(&mut self, horizon: u64) {
        if horizon <= self.horizon {
            return;
        }
        let passed = horizon - self.horizon;
        for window in self
            .link
            .iter_mut()
            .chain(std::iter::once(&mut self.switch))
        {
            let n = passed.min(window.len() as u64) as usize;
            window.drain(..n);
        }
        self.horizon = horizon;
    }

    /// Σ fragments × intervals booked across all links over the run.
    pub fn remote_fragment_intervals(&self) -> u64 {
        self.remote_fragment_intervals
    }

    /// Highest single-link single-interval load ever booked.
    pub fn peak_link_fragments(&self) -> u64 {
        self.peak_link_fragments
    }

    /// Admissions refused for lack of link or switch capacity.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn infinite_ledger_books_everything() {
        let mut l = InterconnectLedger::new(2, None, None);
        assert!(l.try_book(NodeId(0), &[(5, 100), (6, 100)]));
        assert_eq!(l.booked(NodeId(0), 5), 100);
        assert_eq!(l.booked(NodeId(1), 5), 0);
        assert_eq!(l.remote_fragment_intervals(), 200);
        assert_eq!(l.peak_link_fragments(), 100);
        assert_eq!(l.rejections(), 0);
    }

    #[test]
    fn link_capacity_rejects_atomically() {
        let mut l = InterconnectLedger::new(2, Some(3), None);
        assert!(l.try_book(NodeId(0), &[(5, 2)]));
        // Interval 6 alone would fit, but interval 5 would overflow: the
        // whole booking is refused and nothing is applied.
        assert!(!l.try_book(NodeId(0), &[(5, 2), (6, 1)]));
        assert_eq!(l.booked(NodeId(0), 5), 2);
        assert_eq!(l.booked(NodeId(0), 6), 0);
        assert_eq!(l.rejections(), 1);
        // The other node's link is independent.
        assert!(l.try_book(NodeId(1), &[(5, 3)]));
    }

    #[test]
    fn switch_capacity_is_shared_across_links() {
        let mut l = InterconnectLedger::new(3, None, Some(4));
        assert!(l.try_book(NodeId(0), &[(9, 3)]));
        assert!(!l.try_book(NodeId(1), &[(9, 2)]), "switch has 1 left");
        assert!(l.try_book(NodeId(2), &[(9, 1)]));
    }

    #[test]
    fn force_book_overrides_capacity() {
        let mut l = InterconnectLedger::new(1, Some(1), Some(1));
        l.force_book(NodeId(0), &[(3, 10)]);
        assert_eq!(l.booked(NodeId(0), 3), 10);
        assert_eq!(l.rejections(), 0);
        // Retirement drops old intervals.
        l.retire(4);
        assert_eq!(l.booked(NodeId(0), 3), 0);
    }

    /// One ledger operation, with intervals as offsets from the current
    /// horizon (offset 0 books at the horizon itself).
    #[derive(Debug, Clone)]
    enum Op {
        TryBook(u32, Vec<(u64, u64)>),
        ForceBook(u32, Vec<(u64, u64)>),
        Retire(u64),
    }

    /// Half the operations try to book, a quarter force-book and a
    /// quarter retire, up to well past the farthest booked interval.
    fn op() -> impl Strategy<Value = Op> {
        let spans = prop::collection::vec((0u64..12, 0u64..4), 0..6);
        (0u8..4, 0u32..3, spans, 0u64..20).prop_map(|(kind, n, spans, dt)| match kind {
            0 | 1 => Op::TryBook(n, spans),
            2 => Op::ForceBook(n, spans),
            _ => Op::Retire(dt),
        })
    }

    /// The reference: a map per link and for the switch, retired by
    /// filtering, with finite capacities.
    #[derive(Default)]
    struct Model {
        link_capacity: u64,
        switch_capacity: u64,
        horizon: u64,
        link: Vec<BTreeMap<u64, u64>>,
        switch: BTreeMap<u64, u64>,
        remote_fragment_intervals: u64,
        peak_link_fragments: u64,
        rejections: u64,
    }

    impl Model {
        fn fits(&self, node: usize, spans: &[(u64, u64)]) -> bool {
            spans.iter().filter(|&&(_, f)| f > 0).all(|&(t, f)| {
                self.link[node].get(&t).copied().unwrap_or(0) + f <= self.link_capacity
                    && self.switch.get(&t).copied().unwrap_or(0) + f <= self.switch_capacity
            })
        }

        fn apply(&mut self, node: usize, spans: &[(u64, u64)]) {
            for &(t, f) in spans.iter().filter(|&&(_, f)| f > 0) {
                let cell = self.link[node].entry(t).or_insert(0);
                *cell += f;
                self.peak_link_fragments = self.peak_link_fragments.max(*cell);
                *self.switch.entry(t).or_insert(0) += f;
                self.remote_fragment_intervals += f;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random booking/retire sequences against finite link and switch
        /// capacities: after every operation the windowed ledger answers
        /// `booked` (behind, at and past the horizon) and every run total
        /// exactly as the map model does.
        #[test]
        fn windowed_ledger_matches_the_map_model(
            nodes in 1u32..4,
            link_cap in 1u64..6,
            switch_cap in 1u64..8,
            ops in prop::collection::vec(op(), 1..60),
        ) {
            let mut ledger = InterconnectLedger::new(nodes, Some(link_cap), Some(switch_cap));
            let mut model = Model {
                link_capacity: link_cap,
                switch_capacity: switch_cap,
                link: vec![BTreeMap::new(); nodes as usize],
                ..Model::default()
            };
            for op in ops {
                let h = model.horizon;
                let at = |spans: &[(u64, u64)]| -> Vec<(u64, u64)> {
                    spans.iter().map(|&(dt, f)| (h + dt, f)).collect()
                };
                match op {
                    Op::TryBook(n, spans) => {
                        let (n, spans) = (n % nodes, at(&spans));
                        let fits = model.fits(n as usize, &spans);
                        if fits {
                            model.apply(n as usize, &spans);
                        } else {
                            model.rejections += 1;
                        }
                        prop_assert_eq!(ledger.try_book(NodeId(n), &spans), fits);
                    }
                    Op::ForceBook(n, spans) => {
                        let (n, spans) = (n % nodes, at(&spans));
                        model.apply(n as usize, &spans);
                        ledger.force_book(NodeId(n), &spans);
                    }
                    Op::Retire(dt) => {
                        model.horizon = h + dt;
                        for m in model.link.iter_mut().chain(std::iter::once(&mut model.switch)) {
                            m.retain(|&t, _| t >= h + dt);
                        }
                        ledger.retire(h + dt);
                    }
                }
                for n in 0..nodes {
                    for t in model.horizon.saturating_sub(3)..model.horizon + 14 {
                        let want = model.link[n as usize].get(&t).copied().unwrap_or(0);
                        prop_assert_eq!(ledger.booked(NodeId(n), t), want, "node {} interval {}", n, t);
                    }
                }
                prop_assert_eq!(ledger.remote_fragment_intervals(), model.remote_fragment_intervals);
                prop_assert_eq!(ledger.peak_link_fragments(), model.peak_link_fragments);
                prop_assert_eq!(ledger.rejections(), model.rejections);
            }
        }
    }
}
