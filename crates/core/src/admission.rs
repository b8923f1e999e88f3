//! Interval-granularity admission control over the virtual-disk frame.
//!
//! Because an admitted display occupies a fixed set of `M` virtual disks
//! (see [`crate::frame`]), the entire scheduling state is one number per
//! virtual disk: the first interval at which it is free again. Admission is
//! then:
//!
//! * **Contiguous** — the `M` virtual disks currently over the physical
//!   disks holding `X_0` must all be free *now*. This is the base scheme
//!   of §3.1/§3.2, and the only one the paper's §4 simulation uses.
//! * **Fragmented** — §3.2.1: any `M` free virtual disks will do, provided
//!   each can *reach* its fragment's physical start position no later than
//!   the virtual disk serving fragment 0 reaches `X_{0.0}` (fragments read
//!   early are buffered; fragment 0 is always pipelined directly, matching
//!   Algorithm 1's `w_offset = z_i − z_0 − i ≥ 0`). The grant reports the
//!   total buffer bill.
//!
//! After a rejection, [`IntervalScheduler::no_pass_before`] bounds the
//! first interval at which the same plan could pass, so a caller need not
//! retry before it.

use crate::frame::VirtualFrame;
use serde::{Deserialize, Serialize};
use ss_types::{Error, ObjectId, Result};
use std::ops::ControlFlow;

/// The most intervals [`IntervalScheduler::no_pass_before`] scans for a
/// start whose aligned virtual disks are all free. A rotation period
/// (`D / gcd(D, k)`) shorter than this is scanned whole.
pub const NO_PASS_SCAN_CAP: u64 = 1024;

/// How aggressively admission may assemble a display from free disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Only the `M` aligned virtual disks, all free at the current
    /// interval.
    Contiguous,
    /// Use any free virtual disks, buffering early-read fragments, as long
    /// as the *total* backlog stays within `max_buffer_fragments` fragments
    /// of memory (§3.2.1) and delivery can begin within
    /// `max_delay_intervals` of the request.
    Fragmented {
        /// Upper bound on Σ wᵢ, the total number of fragment-sized buffers
        /// the display may hold at once.
        max_buffer_fragments: u64,
        /// Upper bound on `delivery_start − now`; plans starting later are
        /// rejected so the caller can retry (or queue) instead of
        /// committing disks far into the future.
        max_delay_intervals: u64,
    },
}

/// A successful admission: which virtual disks serve the display and when.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionGrant {
    /// The admitted object.
    pub object: ObjectId,
    /// `z_i`: the virtual disk serving fragment `i`.
    pub virtual_disks: Vec<u32>,
    /// `T_i`: the interval at which `z_i` begins reading fragment `i` of
    /// subobject 0 (aligned with the data).
    pub read_start: Vec<u64>,
    /// The interval at which synchronized delivery of subobject 0 begins
    /// (`max T_i`; equals every `T_i` for a contiguous grant).
    pub delivery_start: u64,
    /// One past the last interval during which any granted disk reads.
    pub end_interval: u64,
    /// Total buffer bill: Σ (delivery_start − T_i) fragment-sized buffers.
    pub buffer_fragments: u64,
    /// Extra virtual disks booked to carry parity reads for degraded
    /// (failure-aware) admission: one per parity group whose data reads
    /// visit a failed disk, committed over the same reading window as the
    /// display. Empty for every clean grant.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub parity_companions: Vec<u32>,
    /// Number of (fragment, interval) reads in this grant that fall inside
    /// a hard outage window and are served by parity-group reconstruction
    /// instead of the failed disk. Zero for every clean grant.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub reconstructed_intervals: u64,
}

// Referenced only from the derived Serialize impl, which the dead-code
// pass does not count as a use.
#[allow(dead_code)]
fn is_zero(v: &u64) -> bool {
    *v == 0
}

impl AdmissionGrant {
    /// The startup latency in intervals relative to `now`.
    pub fn latency_intervals(&self, now: u64) -> u64 {
        self.delivery_start - now
    }
}

/// A known window of physical-disk unavailability, in interval units.
///
/// Hard outages (`hard == true`, a failed disk) lose any read scheduled
/// inside the window; soft outages (a transient slow episode) only steer
/// *new* plans away — reads already committed still complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// The physical disk that is unavailable.
    pub disk: u32,
    /// First affected interval.
    pub from: u64,
    /// First interval at which the disk serves again (exclusive end).
    pub until: u64,
    /// True for a failed disk, false for a slow episode.
    pub hard: bool,
}

impl Outage {
    /// True when interval `t` falls inside this window.
    pub fn covers(&self, t: u64) -> bool {
        self.from <= t && t < self.until
    }
}

/// Which outage windows a conflict query counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Every window: a new plan steers clear of failed and slow disks
    /// alike.
    Any,
    /// Failed disks only: a committed read survives a slow episode but not
    /// a failure.
    Hard,
    /// Slow episodes only.
    Soft,
}

impl WindowKind {
    /// True when this kind counts window `o`.
    fn admits(self, o: &Outage) -> bool {
        match self {
            WindowKind::Any => true,
            WindowKind::Hard => o.hard,
            WindowKind::Soft => !o.hard,
        }
    }
}

/// The per-virtual-disk schedule: one `free_from` interval per virtual
/// disk.
///
/// ```
/// use ss_core::admission::{AdmissionPolicy, IntervalScheduler};
/// use ss_core::frame::VirtualFrame;
/// use ss_types::ObjectId;
///
/// let mut s = IntervalScheduler::new(VirtualFrame::new(12, 1));
/// let grant = s
///     .try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
///     .unwrap();
/// assert_eq!(grant.virtual_disks, vec![4, 5, 6]);
/// assert_eq!(grant.buffer_fragments, 0);
/// // A conflicting display is rejected until those disks free.
/// assert!(s.try_admit(0, ObjectId(1), 5, 3, 13, AdmissionPolicy::Contiguous).is_err());
/// assert!(s.try_admit(13, ObjectId(1), 5, 3, 13, AdmissionPolicy::Contiguous).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct IntervalScheduler {
    frame: VirtualFrame,
    /// `free_from[v]`: the first interval at which virtual disk `v` has no
    /// remaining committed reads. This is the struct-of-arrays hot state:
    /// both planners and the saturated-reject scan sweep it as contiguous
    /// `u64` words, never through per-disk structs.
    free_from: Vec<u64>,
    /// Order-statistic counts over `free_from`, kept exact by every
    /// horizon change. `free_count` — called on every rejection and
    /// every utilization sample — and `earliest_free` read it in
    /// `O(log W)`, and a commit updates it in `O(M log W)`, so no
    /// admission pays per disk.
    index: HorizonIndex,
    /// Known unavailability windows (fault injection), ordered by disk
    /// (registration order within one disk). Empty in a fault-free run,
    /// in which case every outage-aware code path below reduces to the
    /// baseline behavior exactly.
    outages: Vec<Outage>,
    /// Parity-group size (data fragments per rotated parity fragment),
    /// when the placement carries parity. `None` — the default — keeps
    /// every planner bit-identical to the parity-free scheme; `Some(g)`
    /// arms the degraded (failure-aware) admission path, which is itself
    /// only reachable while outages are registered.
    parity_group: Option<u32>,
}

impl IntervalScheduler {
    /// An all-idle scheduler over `frame`.
    pub fn new(frame: VirtualFrame) -> Self {
        let free_from = vec![0; frame.disks() as usize];
        IntervalScheduler {
            index: HorizonIndex::new(&free_from),
            free_from,
            frame,
            outages: Vec::new(),
            parity_group: None,
        }
    }

    /// Arms (or disarms) failure-aware admission: `Some(g)` declares that
    /// the placement carries one rotated parity fragment per `g` data
    /// fragments, at rotational offsets `degree..degree + ceil(degree/g)`
    /// past each subobject's start disk. `None` (the default) keeps every
    /// planner bit-identical to the parity-free scheme.
    pub fn set_parity_group(&mut self, group: Option<u32>) {
        if let Some(g) = group {
            assert!(g >= 1, "parity group must cover at least one fragment");
        }
        self.parity_group = group;
    }

    /// The configured parity-group size, if any.
    pub fn parity_group(&self) -> Option<u32> {
        self.parity_group
    }

    /// Registers a known unavailability window. Both admission planners
    /// and the coalescing planner refuse to place reads inside it.
    pub fn add_outage(&mut self, outage: Outage) {
        ss_obs::obs!(ss_obs::Event::OutageAdded {
            disk: outage.disk,
            from: outage.from,
            until: outage.until,
        });
        let at = self.outages.partition_point(|o| o.disk <= outage.disk);
        self.outages.insert(at, outage);
    }

    /// Drops windows that have fully elapsed by interval `now`.
    pub fn prune_outages(&mut self, now: u64) {
        self.outages.retain(|o| o.until > now);
    }

    /// The currently registered unavailability windows, ordered by disk.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// True when any outage window is registered (the cheap fault gate).
    pub fn has_outages(&self) -> bool {
        !self.outages.is_empty()
    }

    /// True when virtual disk `v`, reading one fragment per interval over
    /// `[start_t, end_t)`, would visit the disk of an open `kind` window.
    /// The first visit decides, so this never steps.
    pub fn read_conflict(&self, kind: WindowKind, v: u32, start_t: u64, end_t: u64) -> bool {
        self.outages
            .iter()
            .any(|o| kind.admits(o) && self.first_visit(o, v, start_t, end_t).is_some())
    }

    /// True when physical disk `p` lies in an open `kind` window at
    /// interval `t`: a bisection to `p`'s windows, not a walk of every
    /// window.
    fn down_at(&self, kind: WindowKind, p: u32, t: u64) -> bool {
        let first = self.outages.partition_point(|o| o.disk < p);
        self.outages[first..]
            .iter()
            .take_while(|o| o.disk == p)
            .any(|o| kind.admits(o) && o.covers(t))
    }

    /// The outage walker: calls `visit(t, window)` for every interval `t`
    /// in `[start_t, end_t)` at which virtual disk `v` sits over the disk
    /// of an open `kind` window in `outages` — window by window in
    /// `outages` order, ascending within each — until `visit` breaks, and
    /// returns whether it did. Visits of one disk recur every
    /// [`VirtualFrame::period`] intervals, so each window contributes an
    /// arithmetic progression from its first visit.
    #[inline]
    pub(crate) fn for_each_conflict(
        &self,
        outages: &[Outage],
        kind: WindowKind,
        v: u32,
        start_t: u64,
        end_t: u64,
        mut visit: impl FnMut(u64, &Outage) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let period = self.frame.period();
        for o in outages.iter().filter(|o| kind.admits(o)) {
            if let Some((mut t, end)) = self.first_visit(o, v, start_t, end_t) {
                while t < end {
                    visit(t, o)?;
                    t += period;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The first interval at which virtual disk `v` sits over window
    /// `o`'s disk while the window is open, within `[start_t, end_t)`,
    /// and the end of that clipped span. Every outage-aware query starts
    /// here: virtual disk `v` sits over physical `(v + k·t) mod D` at
    /// interval `t`, so this is one modular alignment solve.
    #[inline]
    fn first_visit(&self, o: &Outage, v: u32, start_t: u64, end_t: u64) -> Option<(u64, u64)> {
        let (lo, hi) = (start_t.max(o.from), end_t.min(o.until));
        if lo >= hi {
            return None;
        }
        let t = self.frame.next_alignment(v, o.disk, lo)?;
        (t < hi).then_some((t, hi))
    }

    /// Failure-aware (degraded) aligned planning at interval `t0`: admit a
    /// display even though its aligned virtual disks visit failed disks,
    /// provided every lost read is reconstructable from its parity group.
    /// The surviving group members are already read concurrently (the plan
    /// is aligned, so all fragments of a subobject are fetched in the same
    /// interval); the only extra bandwidth is the group's rotated parity
    /// fragment, fetched by one *companion* virtual disk — the one sitting
    /// over the parity fragment's home at `t0`, which stays aligned with it
    /// for the whole window — booked alongside the display.
    ///
    /// Reconstruction fails (returns `None`, so callers fall through to
    /// their normal rejection) when two members of one group — parity
    /// included — are lost in the same interval, when a member would read
    /// through a slow episode, or when a needed companion is busy. Every
    /// refusal is the same `None`, so the plan stops at the first one it
    /// can prove: busy and slow members before any lost read is walked,
    /// and, group by group, the first lost read at which a later member of
    /// its group is lost too.
    fn plan_degraded_aligned(
        &self,
        t0: u64,
        object: ObjectId,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
    ) -> Option<AdmissionGrant> {
        let group = self.parity_group?;
        if !self.outages.iter().any(|o| o.hard) {
            return None;
        }
        let d = self.frame.disks();
        let groups = degree.div_ceil(group);
        // Parity fragments live at rotational offsets degree..degree+groups
        // past the start disk; the inflated layout must fit the farm for
        // the companions to be distinct disks.
        if degree + groups > d {
            return None;
        }
        let window = t0 + u64::from(subobjects);
        let v0 = self.frame.virtual_of(start_disk % d, t0);
        let member = |i: u32| (v0 + i) % d;
        // A slow disk still holds its data: refuse it, exactly like the
        // clean planners, instead of spending reconstruction on it.
        if (0..degree).any(|i| {
            !self.is_free(member(i), t0)
                || self.read_conflict(WindowKind::Soft, member(i), t0, window)
        }) {
            return None;
        }
        let mut companions = Vec::with_capacity(groups as usize);
        let mut reconstructed = 0u64;
        let mut lost = Vec::new();
        for q in 0..groups {
            let members = (q * group)..degree.min((q + 1) * group);
            // Every interval at which some member of this group is lost.
            lost.clear();
            for i in members.clone() {
                // Aligned members sit over consecutive disks, so member `j`
                // reads disk `p + j − i` when member `i` reads disk `p`. A
                // second loss in one interval leaves the group equation
                // with two unknowns: not reconstructable. An earlier
                // member already checked its losses against this one.
                let doomed = self.for_each_conflict(
                    &self.outages,
                    WindowKind::Hard,
                    member(i),
                    t0,
                    window,
                    |t, o| {
                        let also_lost = (i + 1..members.end)
                            .any(|j| self.down_at(WindowKind::Hard, (o.disk + j - i) % d, t));
                        if also_lost {
                            return ControlFlow::Break(());
                        }
                        lost.push(t);
                        ControlFlow::Continue(())
                    },
                );
                if doomed.is_break() {
                    return None;
                }
            }
            if lost.is_empty() {
                continue; // group untouched, no parity read needed
            }
            // Two windows on one disk may both cover an interval; members'
            // losses are disjoint, so the distinct intervals are the
            // group's reconstructed reads.
            lost.sort_unstable();
            lost.dedup();
            reconstructed += lost.len() as u64;
            let v_p = self.frame.virtual_of((start_disk + degree + q) % d, t0);
            if !self.is_free(v_p, t0) {
                return None;
            }
            // The parity fragment must itself be readable at every lost
            // interval — its companion disk must not sit over a failed or
            // slow disk exactly when the reconstruction needs it.
            if lost
                .iter()
                .any(|&t| self.down_at(WindowKind::Any, self.frame.physical(v_p, t), t))
            {
                return None;
            }
            companions.push(v_p);
        }
        if reconstructed == 0 {
            // Nothing lost at this alignment: the clean planner's verdict
            // stands.
            return None;
        }
        Some(AdmissionGrant {
            object,
            virtual_disks: (0..degree).map(member).collect(),
            read_start: vec![t0; degree as usize],
            delivery_start: t0,
            end_interval: window,
            buffer_fragments: 0,
            parity_companions: companions,
            reconstructed_intervals: reconstructed,
        })
    }

    /// The frame this scheduler operates in.
    pub fn frame(&self) -> &VirtualFrame {
        &self.frame
    }

    /// Declares that no count query will ask about an interval before
    /// `t` again: the clock has reached `t`. The index may then fold
    /// every earlier horizon into one bucket, so its window follows the
    /// live bookings instead of the run. A `t` behind the current floor
    /// is a no-op.
    pub fn retire(&mut self, t: u64) {
        self.index.floor = self.index.floor.max(t);
    }

    /// Number of virtual disks free at interval `t`, which must not be
    /// before the last [`Self::retire`].
    #[inline]
    pub fn free_count(&self, t: u64) -> u32 {
        self.index.count(t)
    }

    /// True iff virtual disk `v` is free at interval `t`.
    pub fn is_free(&self, v: u32, t: u64) -> bool {
        self.free_from[v as usize] <= t
    }

    /// The committed-busy horizon of virtual disk `v`.
    pub fn free_from(&self, v: u32) -> u64 {
        self.free_from[v as usize]
    }

    /// Overrides the committed-busy horizon of virtual disk `v`. Used by
    /// the dynamic-coalescing planner (shortening a handing-over disk,
    /// extending the taker) and by tests constructing occupancy patterns.
    pub fn set_free_from(&mut self, v: u32, free_from: u64) {
        let old = std::mem::replace(&mut self.free_from[v as usize], free_from);
        self.index.shift(old, free_from, &self.free_from);
    }

    /// Holds `count` virtual disks busy until interval `until`: the disks
    /// `first, first + 1, …` (mod `D`, at most all `D` of them), booked
    /// for background reads that run over `[from, until)` — a rebuild
    /// drain, a scrub chunk — so admissions compete with them for real
    /// bandwidth. Returns the interference added: the intervals of that
    /// run by which the busy horizons advanced.
    pub fn hold_busy(&mut self, first: u64, count: u64, from: u64, until: u64) -> u64 {
        let d = u64::from(self.frame.disks());
        let mut added = 0;
        for j in 0..count.min(d) {
            let v = ((first + j) % d) as u32;
            let old = self.free_from(v);
            if until > old {
                added += until - old.max(from);
                self.set_free_from(v, until);
            }
        }
        added
    }

    /// Attempts to admit a display of `object` at interval `now`: first
    /// subobject starting on physical disk `start_disk`, `degree` fragments
    /// per subobject, `subobjects` stripes. On success the granted virtual
    /// disks are committed through their reading windows.
    ///
    /// Equivalent to [`Self::plan`] + (on success) [`Self::commit`]; the
    /// striping server runs those steps itself so its interconnect gate
    /// can sit between them.
    pub fn try_admit(
        &mut self,
        now: u64,
        object: ObjectId,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
        policy: AdmissionPolicy,
    ) -> Result<AdmissionGrant> {
        let grant = self.plan(now, object, start_disk, degree, subobjects, policy)?;
        self.commit(now, &grant, subobjects);
        Ok(grant)
    }

    /// The read-only planning half of [`Self::try_admit`]: computes the
    /// verdict — grant or the exact rejection error — without touching
    /// any state. A grant is valid for [`Self::commit`] only while the
    /// scheduler has not mutated since the plan ran.
    pub fn plan(
        &self,
        now: u64,
        object: ObjectId,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
        policy: AdmissionPolicy,
    ) -> Result<AdmissionGrant> {
        assert!(degree >= 1 && degree <= self.frame.disks());
        assert!(subobjects >= 1);
        match policy {
            AdmissionPolicy::Contiguous => {
                self.plan_contiguous(now, object, start_disk, degree, subobjects)
            }
            AdmissionPolicy::Fragmented {
                max_buffer_fragments,
                max_delay_intervals,
            } => self.plan_fragmented(
                now,
                object,
                start_disk,
                degree,
                subobjects,
                max_buffer_fragments,
                max_delay_intervals,
            ),
        }
    }

    /// An interval before which [`Self::plan`] with these arguments
    /// cannot succeed at any interval from `now` on, for as long as no
    /// horizon is lowered and no outage window is removed or shortened
    /// (commits, background holds and new windows only make plans fail
    /// more). Read-only. The latest of three bounds:
    ///
    /// * the count test both planners open with: fewer than `degree`
    ///   virtual disks are free before [`Self::earliest_free`]`(degree)`,
    ///   and a fragmented plan counts `max_delay_intervals` ahead;
    /// * contiguous only, per outage window open at `now` that the
    ///   planner cannot read through (a slow episode always, a failure
    ///   unless a parity group is set): subobject `X_j` sits `j·k` disks
    ///   past `X_0`, so a display visits the window's disk at the same
    ///   offsets from its start whenever it starts. With `j` the first
    ///   such offset, every start before `until − j` reads the disk while
    ///   the window is open;
    /// * contiguous only, the first interval from `now` at which all
    ///   `degree` aligned virtual disks are free, scanned over at most one
    ///   rotation period and [`NO_PASS_SCAN_CAP`] intervals. A full period
    ///   with no free start bounds each start's later alignments by the
    ///   horizon that blocked it, since the same disks align again every
    ///   period.
    ///
    /// The result may be at or before `now`: it bounds the first success,
    /// it does not promise one.
    ///
    /// ```
    /// use ss_core::admission::{AdmissionPolicy, IntervalScheduler, Outage};
    /// use ss_core::frame::VirtualFrame;
    /// use ss_types::ObjectId;
    ///
    /// let mut s = IntervalScheduler::new(VirtualFrame::new(8, 1));
    /// s.add_outage(Outage { disk: 3, from: 0, until: 100, hard: true });
    /// // From disk 0 with stride 1, fragment 1 of a 2-wide display reads
    /// // disk 3 two intervals after the start, so every start before
    /// // 100 − 2 reads the failed disk.
    /// let c = AdmissionPolicy::Contiguous;
    /// assert_eq!(s.no_pass_before(0, 0, 2, 40, c), 98);
    /// assert!(s.plan(97, ObjectId(0), 0, 2, 40, c).is_err());
    /// assert!(s.plan(98, ObjectId(0), 0, 2, 40, c).is_ok());
    /// ```
    pub fn no_pass_before(
        &self,
        now: u64,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
        policy: AdmissionPolicy,
    ) -> u64 {
        let count = self
            .earliest_free(degree)
            .expect("the degree fits the farm");
        match policy {
            AdmissionPolicy::Fragmented {
                max_delay_intervals,
                ..
            } => count.saturating_sub(max_delay_intervals),
            AdmissionPolicy::Contiguous => {
                let v0 = self.frame.virtual_of(start_disk % self.frame.disks(), now);
                count
                    .max(self.outage_bound(now, v0, degree, subobjects))
                    .max(self.aligned_free_bound(now, v0, degree))
            }
        }
    }

    /// The outage term of [`Self::no_pass_before`] for the aligned virtual
    /// disks `v0, v0 + 1, …` of a display starting at `now`.
    fn outage_bound(&self, now: u64, v0: u32, degree: u32, subobjects: u32) -> u64 {
        let d = self.frame.disks();
        let end = now + u64::from(subobjects);
        let mut bound = 0;
        for o in &self.outages {
            if !o.covers(now) || (o.hard && self.parity_group.is_some()) {
                continue;
            }
            let first = (0..degree)
                .filter_map(|i| self.frame.next_alignment((v0 + i) % d, o.disk, now))
                .filter(|&t| t < end)
                .min();
            if let Some(t) = first {
                bound = bound.max(o.until.saturating_sub(t - now));
            }
        }
        bound
    }

    /// The scan term of [`Self::no_pass_before`]: the first start from
    /// `now` whose `degree` aligned virtual disks are all free, where the
    /// aligned run over `X_0` begins at `v0` at `now` and recedes by the
    /// stride each interval.
    fn aligned_free_bound(&self, now: u64, mut v0: u32, degree: u32) -> u64 {
        let (d, k) = (self.frame.disks(), self.frame.stride());
        let period = self.frame.period();
        let span = period.min(NO_PASS_SCAN_CAP);
        let mut later = u64::MAX;
        for s in now..now + span {
            let (head, tail) = self.aligned_horizons(v0, degree);
            match head.iter().chain(tail).find(|&&h| h > s) {
                None => return s,
                // This start's disks align again at `s + q·period`, and
                // that one stays busy until `h`.
                Some(&h) => {
                    let wait = (h - s).div_ceil(period).saturating_mul(period);
                    later = later.min(s.saturating_add(wait));
                }
            }
            v0 = if v0 >= k { v0 - k } else { v0 + d - k };
        }
        if span == period {
            later
        } else {
            now + span
        }
    }

    /// The horizons of the `degree` aligned virtual disks `v0, v0 + 1, …`
    /// (mod `D`): the run up to the frame's last disk, then the wrapped
    /// rest.
    fn aligned_horizons(&self, v0: u32, degree: u32) -> (&[u64], &[u64]) {
        let first = (self.frame.disks() - v0).min(degree) as usize;
        let lo = v0 as usize;
        (
            &self.free_from[lo..lo + first],
            &self.free_from[..degree as usize - first],
        )
    }

    /// The mutating half of [`Self::try_admit`]: books every granted
    /// virtual disk (and parity companion) through its reading window and
    /// emits the observability events. `grant` must have been produced by
    /// [`Self::plan`] against the current state — committing a stale
    /// grant would double-book disks, which debug builds catch.
    pub fn commit(&mut self, now: u64, grant: &AdmissionGrant, subobjects: u32) {
        for (idx, &v) in grant.virtual_disks.iter().enumerate() {
            debug_assert!(self.free_from[v as usize] <= grant.read_start[idx]);
            self.set_free_from(v, grant.read_start[idx] + u64::from(subobjects));
        }
        // Companions exist only on degraded (aligned) grants: book them
        // over the display's whole reading window, like any other read.
        for &v in &grant.parity_companions {
            debug_assert!(self.free_from[v as usize] <= grant.delivery_start);
            self.set_free_from(v, grant.end_interval);
        }
        if ss_obs::enabled() {
            for (idx, &v) in grant.virtual_disks.iter().enumerate() {
                ss_obs::record(ss_obs::Event::ReadSpan {
                    object: grant.object.0,
                    frag: idx as u32,
                    vdisk: v,
                    base: grant.read_start[idx],
                    subobjects: u64::from(subobjects),
                });
            }
            if grant.reconstructed_intervals > 0 {
                ss_obs::record(ss_obs::Event::ParityPlan {
                    object: grant.object.0,
                    interval: now,
                    reads: grant.reconstructed_intervals,
                    companions: grant.parity_companions.len() as u32,
                });
            }
        }
    }

    fn plan_contiguous(
        &self,
        now: u64,
        object: ObjectId,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
    ) -> Result<AdmissionGrant> {
        let d = self.frame.disks();
        let window = now + u64::from(subobjects);
        // Count first, allocate only on success: at saturation this path
        // runs once per queued waiter per interval.
        //
        // Aligned fragments occupy *contiguous* virtual indices: with
        // `v0 = virtual_of(start_disk, now)`, fragment `i` sits on
        // `(v0 + i) mod D` (adding one to the physical index adds one to
        // the virtual index, mod D). In the fault-free case the whole
        // feasibility check is therefore one or two contiguous sweeps of
        // the `free_from` array — pure struct-of-arrays word compares,
        // no modular solve and no outage scan per fragment.
        let v0 = self.frame.virtual_of(start_disk % d, now);
        let free = if self.outages.is_empty() {
            let (head, tail) = self.aligned_horizons(v0, degree);
            (head.iter().filter(|&&f| f <= now).count()
                + tail.iter().filter(|&&f| f <= now).count()) as u32
        } else {
            let mut free = 0u32;
            for i in 0..degree {
                let v = (v0 + i) % d;
                debug_assert_eq!(v, self.frame.virtual_of((start_disk + i) % d, now));
                if self.is_free(v, now) && !self.read_conflict(WindowKind::Any, v, now, window) {
                    free += 1;
                }
            }
            free
        };
        if free < degree {
            // Before giving up under fault injection, try reconstructing
            // the lost reads from parity — reachable only with a parity
            // group configured and a hard outage registered.
            if let Some(g) = self.plan_degraded_aligned(now, object, start_disk, degree, subobjects)
            {
                return Ok(g);
            }
            return Err(Error::AdmissionRejected {
                object,
                needed: degree,
                free,
            });
        }
        let vs = (0..degree).map(|i| (v0 + i) % d).collect();
        Ok(AdmissionGrant {
            object,
            read_start: vec![now; degree as usize],
            virtual_disks: vs,
            delivery_start: now,
            end_interval: now + u64::from(subobjects),
            buffer_fragments: 0,
            parity_companions: Vec::new(),
            reconstructed_intervals: 0,
        })
    }

    /// Fragmented planning: choose, among all candidate assignments, the
    /// one with the earliest delivery start (smallest `T_0`), breaking
    /// ties toward the smallest buffer bill.
    #[allow(clippy::too_many_arguments)]
    fn plan_fragmented(
        &self,
        now: u64,
        object: ObjectId,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
        max_buffer: u64,
        max_delay: u64,
    ) -> Result<AdmissionGrant> {
        let d = self.frame.disks();
        let k = self.frame.stride();
        // Every feasible read start satisfies T_i <= T_0 <= now + max_delay,
        // so all candidates live inside the delay window: enumerate it
        // directly — O(M x max_delay) instead of scanning all D disks with
        // a modular solve each (the hot path of mixed-media admission).
        let window_end = now + max_delay;
        // Cheap necessary condition first: every fragment needs its own
        // virtual disk that frees no later than its read start, so fewer
        // than `degree` disks free anywhere in the window means every
        // candidate assignment fails. All rejection paths below produce
        // this exact error value, so the shortcut is observably identical
        // — and it makes the saturated-farm retry storm O(log W) per
        // attempt instead of O(M × max_delay).
        let available = self.free_count(window_end);
        if available < degree {
            return Err(Error::AdmissionRejected {
                object,
                needed: degree,
                free: self.free_count(now),
            });
        }
        let mut arrivals: Vec<Vec<(u64, u32)>> = Vec::with_capacity(degree as usize);
        for i in 0..degree {
            let p = (start_disk + i) % d;
            let mut cands: Vec<(u64, u32)> = Vec::new();
            if k == 0 {
                // Stationary frame: only the disk itself, from the moment
                // it frees.
                let t = now.max(self.free_from[p as usize]);
                if t <= window_end
                    && !self.read_conflict(WindowKind::Any, p, t, t + u64::from(subobjects))
                {
                    cands.push((t, p));
                }
            } else {
                // The virtual disk over `p` recedes by the stride each
                // interval (`virtual_of(p, t+1) = virtual_of(p, t) - k`),
                // so step it incrementally instead of paying the modular
                // solve per interval.
                let mut v = self.frame.virtual_of(p, now);
                for t in now..=window_end {
                    // The disk must be done with prior commitments before
                    // it starts reading for us — and, under fault
                    // injection, its reading window must clear every
                    // known unavailability window.
                    if self.free_from[v as usize] <= t
                        && !self.read_conflict(WindowKind::Any, v, t, t + u64::from(subobjects))
                    {
                        cands.push((t, v));
                    }
                    v = if v >= k { v - k } else { v + d - k };
                }
            }
            if cands.is_empty() {
                // Under a long outage every slot in the window may be
                // conflicted for some fragment (the outage's disk realigns
                // with each virtual disk every D/gcd(D,k) intervals) — the
                // degraded fallback is the only way through.
                return self
                    .degraded_fragmented_fallback(
                        now, object, start_disk, degree, subobjects, max_delay,
                    )
                    .ok_or(Error::AdmissionRejected {
                        object,
                        needed: degree,
                        free: self.free_count(now),
                    });
            }
            arrivals.push(cands);
        }
        // Candidate delivery starts are the arrival times available for
        // fragment 0; try them in increasing order (they are generated
        // sorted by t). The partial assignment is reused across candidates
        // instead of reallocated per `t0`; it holds at most `degree`
        // disks, so it doubles as the used-disk set.
        let mut chosen: Vec<(u64, u32)> = Vec::with_capacity(degree as usize);
        'outer: for &(t0, z0) in &arrivals[0] {
            chosen.clear();
            chosen.push((t0, z0));
            let mut buffer = 0u64;
            for frag_arrivals in arrivals.iter().skip(1) {
                // Latest arrival ≤ t0 on an unused disk minimizes buffering.
                let best = frag_arrivals
                    .iter()
                    .rev()
                    .find(|&&(t, v)| t <= t0 && chosen.iter().all(|&(_, u)| u != v));
                match best {
                    Some(&(t, v)) => {
                        buffer += t0 - t;
                        chosen.push((t, v));
                    }
                    None => continue 'outer,
                }
            }
            if buffer > max_buffer {
                continue;
            }
            let (read_start, virtual_disks): (Vec<u64>, Vec<u32>) =
                std::mem::take(&mut chosen).into_iter().unzip();
            let end_interval = read_start
                .iter()
                .map(|&t| t + u64::from(subobjects))
                .max()
                .expect("degree >= 1");
            return Ok(AdmissionGrant {
                object,
                virtual_disks,
                read_start,
                delivery_start: t0,
                end_interval,
                buffer_fragments: buffer,
                parity_companions: Vec::new(),
                reconstructed_intervals: 0,
            });
        }
        self.degraded_fragmented_fallback(now, object, start_disk, degree, subobjects, max_delay)
            .ok_or(Error::AdmissionRejected {
                object,
                needed: degree,
                free: self.free_count(now),
            })
    }

    /// When the clean fragmented search fails under fault injection, scan
    /// the delay window for an *aligned* reconstruction plan instead: an
    /// aligned plan reads every surviving group member concurrently, which
    /// is exactly what makes parity reconstruction cost one companion read
    /// per damaged group rather than a re-fetch of the whole group.
    fn degraded_fragmented_fallback(
        &self,
        now: u64,
        object: ObjectId,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
        max_delay: u64,
    ) -> Option<AdmissionGrant> {
        self.parity_group?;
        if !self.outages.iter().any(|o| o.hard) {
            return None;
        }
        (now..=now + max_delay)
            .find_map(|t0| self.plan_degraded_aligned(t0, object, start_disk, degree, subobjects))
    }

    /// Fraction of virtual-disk capacity committed at interval `t`.
    pub fn utilization(&self, t: u64) -> f64 {
        1.0 - f64::from(self.free_count(t)) / f64::from(self.frame.disks())
    }

    /// The first interval, not before the last [`Self::retire`], at
    /// which at least `m` virtual disks are free: the later of the `m`-th
    /// smallest horizon and the retire floor (both planners reject
    /// outright with fewer than `degree` free disks, so before this no
    /// admission of degree `m` can succeed). `None` when `m` exceeds the
    /// farm.
    pub fn earliest_free(&self, m: u32) -> Option<u64> {
        (m <= self.frame.disks()).then(|| self.index.select(m).max(self.index.floor))
    }
}

/// The smallest window the free-horizon index allocates, in intervals.
const MIN_WINDOW: usize = 64;

/// Order-statistic counts over the free horizons: a Fenwick tree of
/// per-interval horizon counts over the window `[base, base + W)`, `W`
/// a power of two. A horizon before `base` counts in the first bucket,
/// so a count at any interval at or after `base` is exact, and every
/// horizon lies before `base + W`.
///
/// `base` trails the retire floor: [`IntervalScheduler::retire`] only
/// moves the floor. A horizon set past the window rebases it to the
/// floor, sized for the farthest horizon, before it grows — so `W`
/// follows the span of the live bookings, not the length of the run.
#[derive(Debug, Clone)]
struct HorizonIndex {
    /// No count query asks about an interval before this one.
    floor: u64,
    /// The interval of the first bucket; never after `floor`.
    base: u64,
    /// The 1-based Fenwick array over `W = tree.len() - 1` buckets;
    /// `tree[W]` holds the total, one per virtual disk.
    tree: Vec<u32>,
}

impl HorizonIndex {
    /// The index over `horizons`, with its floor at interval 0.
    fn new(horizons: &[u64]) -> Self {
        let mut index = HorizonIndex {
            floor: 0,
            base: 0,
            tree: Vec::new(),
        };
        index.rebase(horizons);
        index
    }

    /// `W`, the number of buckets.
    fn window(&self) -> usize {
        self.tree.len() - 1
    }

    /// The bucket counting horizon `h`.
    fn bucket(&self, h: u64) -> usize {
        h.saturating_sub(self.base) as usize
    }

    /// Moves one horizon from `old` to `new`; `horizons` already holds
    /// `new`. `O(log W)`, or a rebase when `new` lies past the window.
    fn shift(&mut self, old: u64, new: u64, horizons: &[u64]) {
        if self.bucket(new) >= self.window() {
            self.rebase(horizons);
            return;
        }
        let (from, to) = (self.bucket(old), self.bucket(new));
        if from != to {
            self.add(from, -1);
            self.add(to, 1);
        }
    }

    /// Adds `delta` to bucket `k`'s count.
    fn add(&mut self, k: usize, delta: i32) {
        let mut i = k + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The number of horizons at or before interval `t`.
    fn count(&self, t: u64) -> u32 {
        debug_assert!(
            t >= self.floor,
            "count at interval {t} before the retire floor {}",
            self.floor
        );
        let mut i = self.bucket(t).min(self.window() - 1) + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// The `m`-th smallest horizon (`1 <= m <=` the total), clamped up
    /// to `base`; `base` itself for `m == 0`. A Fenwick descent: the
    /// first bucket whose prefix count reaches `m`.
    fn select(&self, m: u32) -> u64 {
        let (mut pos, mut rest) = (0, m);
        let mut step = self.window();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] < rest {
                pos = next;
                rest -= self.tree[next];
            }
            step /= 2;
        }
        self.base + pos as u64
    }

    /// Re-anchors the window at the floor, twice as wide as the span to
    /// the farthest horizon, and recounts every horizon into it (the
    /// ones before the floor into its first bucket). `O(D + W)`.
    fn rebase(&mut self, horizons: &[u64]) {
        let far = horizons.iter().copied().max().unwrap_or(0);
        let window = far
            .saturating_sub(self.floor)
            .checked_add(1)
            .and_then(|span| usize::try_from(span).ok()?.checked_mul(2))
            .and_then(usize::checked_next_power_of_two)
            .expect("the horizon window fits in memory")
            .max(MIN_WINDOW);
        self.base = self.floor;
        self.tree.clear();
        self.tree.resize(window + 1, 0);
        for &h in horizons {
            let k = self.bucket(h);
            self.tree[k + 1] += 1;
        }
        // Linear-time build: each node passes its sum to its parent.
        for i in 1..=window {
            let parent = i + (i & i.wrapping_neg());
            if parent <= window {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sched(d: u32, k: u32) -> IntervalScheduler {
        IntervalScheduler::new(VirtualFrame::new(d, k))
    }

    #[test]
    fn contiguous_admission_on_idle_farm() {
        let mut s = sched(12, 1);
        let g = s
            .try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .unwrap();
        assert_eq!(g.virtual_disks, vec![4, 5, 6]);
        assert_eq!(g.delivery_start, 0);
        assert_eq!(g.end_interval, 13);
        assert_eq!(g.buffer_fragments, 0);
        assert_eq!(g.latency_intervals(0), 0);
        assert_eq!(s.free_count(0), 9);
        // The three virtual disks are busy through interval 12.
        assert!(!s.is_free(4, 12));
        assert!(s.is_free(4, 13));
    }

    #[test]
    fn contiguous_conflict_is_rejected() {
        let mut s = sched(12, 1);
        s.try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .unwrap();
        // Object starting at disk 5 overlaps virtual disks 5,6.
        let err = s
            .try_admit(0, ObjectId(1), 5, 3, 13, AdmissionPolicy::Contiguous)
            .unwrap_err();
        assert!(matches!(
            err,
            Error::AdmissionRejected {
                needed: 3,
                free: 1,
                ..
            }
        ));
    }

    #[test]
    fn contiguous_admission_respects_rotation() {
        // At t=3 with k=1, the virtual disks over physical 4..6 are 1..3.
        let mut s = sched(12, 1);
        let g = s
            .try_admit(3, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .unwrap();
        assert_eq!(g.virtual_disks, vec![1, 2, 3]);
    }

    #[test]
    fn figure6_fragmented_admission() {
        // Figure 6: D = 8, k = 1, X with M = 2 starting on disk 0.
        // Virtual disks 2..5 are busy; 1 and 6 are free. Disk 1 is in
        // position for X0.1 now; the free slot over disk 6 reaches disk 0
        // at interval 2 and reads X0.0 directly. Fragment 1 is buffered
        // two intervals; delivery starts at interval 2.
        let mut s = sched(8, 1);
        for v in 2..=5 {
            s.set_free_from(v, 1000); // long-running other displays
        }
        s.set_free_from(0, 1000);
        s.set_free_from(7, 1000);
        let g = s
            .try_admit(
                0,
                ObjectId(0),
                0,
                2,
                10,
                AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 16,
                    max_delay_intervals: 8,
                },
            )
            .unwrap();
        assert_eq!(g.virtual_disks, vec![6, 1]);
        assert_eq!(g.read_start, vec![2, 0]);
        assert_eq!(g.delivery_start, 2);
        assert_eq!(g.buffer_fragments, 2);
        assert_eq!(g.end_interval, 12);
        // Contiguous admission would have been rejected outright.
        let mut s2 = sched(8, 1);
        for v in [0, 2, 3, 4, 5, 7] {
            s2.set_free_from(v, 1000);
        }
        assert!(s2
            .try_admit(0, ObjectId(0), 0, 2, 10, AdmissionPolicy::Contiguous)
            .is_err());
    }

    #[test]
    fn fragmented_respects_buffer_cap() {
        let mut s = sched(8, 1);
        for v in [0, 2, 3, 4, 5, 7] {
            s.set_free_from(v, 1000);
        }
        // The Figure 6 grant needs 2 buffers; cap at 1 and it must fail.
        let err = s
            .try_admit(
                0,
                ObjectId(0),
                0,
                2,
                10,
                AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 1,
                    max_delay_intervals: 8,
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::AdmissionRejected { .. }));
    }

    #[test]
    fn fragmented_prefers_aligned_disks_when_free() {
        // On an idle farm the fragmented planner finds the zero-buffer,
        // zero-latency contiguous assignment.
        let mut s = sched(12, 1);
        let g = s
            .try_admit(
                5,
                ObjectId(0),
                4,
                3,
                13,
                AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 100,
                    max_delay_intervals: 100,
                },
            )
            .unwrap();
        assert_eq!(g.delivery_start, 5);
        assert_eq!(g.buffer_fragments, 0);
        assert_eq!(g.latency_intervals(5), 0);
    }

    #[test]
    fn fragmented_uses_busy_then_free_disks() {
        // A virtual disk busy until interval 3 can still take a fragment
        // whose alignment time is >= 3.
        let mut s = sched(8, 1);
        // All disks blocked for a long time except v=6 (free) and v=1
        // (free from interval 3).
        for v in 0..8 {
            s.set_free_from(v, 1000);
        }
        s.set_free_from(6, 0);
        s.set_free_from(1, 3);
        // Object M=2 at disk 0. Fragment 0 (disk 0): v=6 aligns at t=2
        // (free) or v=1 at t=7 (first alignment after it frees at 3).
        // Fragment 1 (disk 1): v=6 at t=3, v=1 at t=8. Taking t0=2 leaves
        // no partner ≤ 2, so the planner settles on t0=7 with v=1 reading
        // fragment 0 and v=6 reading fragment 1 at t=3 (4 buffers).
        let g = s
            .try_admit(
                0,
                ObjectId(0),
                0,
                2,
                10,
                AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 100,
                    max_delay_intervals: 100,
                },
            )
            .unwrap();
        assert_eq!(g.virtual_disks, vec![1, 6]);
        assert_eq!(g.read_start, vec![7, 3]);
        assert_eq!(g.delivery_start, 7);
        assert_eq!(g.buffer_fragments, 4);
    }

    #[test]
    fn fragmented_waits_for_busy_disk_to_free() {
        // Same farm, object starting at disk 3: v=6 reaches disk 3 at t=5
        // (fragment 0) and v=1 reaches disk 4 at t=3, right when it frees
        // — a 2-buffer plan delivering at interval 5.
        let mut s = sched(8, 1);
        for v in 0..8 {
            s.set_free_from(v, 1000);
        }
        s.set_free_from(6, 0);
        s.set_free_from(1, 3);
        let g = s
            .try_admit(
                0,
                ObjectId(1),
                3,
                2,
                10,
                AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 100,
                    max_delay_intervals: 100,
                },
            )
            .unwrap();
        assert_eq!(g.virtual_disks, vec![6, 1]);
        assert_eq!(g.read_start, vec![5, 3]);
        assert_eq!(g.buffer_fragments, 2);
    }

    #[test]
    fn grants_never_double_book() {
        // Stress: admit many displays and verify no virtual disk is ever
        // committed to two overlapping reading windows.
        let mut s = sched(20, 1);
        let mut windows: Vec<(u32, u64, u64)> = Vec::new(); // (v, start, end)
        let mut id = 0u32;
        for t in 0..40u64 {
            for start in [0u32, 5, 10, 15] {
                if let Ok(g) = s.try_admit(
                    t,
                    ObjectId(id),
                    start,
                    3,
                    7,
                    AdmissionPolicy::Fragmented {
                        max_buffer_fragments: 8,
                        max_delay_intervals: 4,
                    },
                ) {
                    for (i, &v) in g.virtual_disks.iter().enumerate() {
                        windows.push((v, g.read_start[i], g.read_start[i] + 7));
                    }
                    id += 1;
                }
            }
        }
        assert!(id > 4, "expected several admissions, got {id}");
        for a in 0..windows.len() {
            for b in (a + 1)..windows.len() {
                let (va, sa, ea) = windows[a];
                let (vb, sb, eb) = windows[b];
                if va == vb {
                    assert!(ea <= sb || eb <= sa, "overlap on v{va}: {windows:?}");
                }
            }
        }
    }

    #[test]
    fn earliest_free_tracks_sorted_horizons() {
        let mut s = sched(4, 1);
        s.set_free_from(0, 7);
        s.set_free_from(1, 3);
        s.set_free_from(2, 3);
        // free_from = [7, 3, 3, 0] → sorted [0, 3, 3, 7].
        assert_eq!(s.earliest_free(0), Some(0));
        assert_eq!(s.earliest_free(1), Some(0));
        assert_eq!(s.earliest_free(2), Some(3));
        assert_eq!(s.earliest_free(3), Some(3));
        assert_eq!(s.earliest_free(4), Some(7));
        assert_eq!(s.earliest_free(5), None);
        // Consistency with free_count at the reported interval.
        for m in 1..=4u32 {
            let t = s.earliest_free(m).unwrap();
            assert!(s.free_count(t) >= m);
            assert!(t == 0 || s.free_count(t - 1) < m);
        }
    }

    #[test]
    fn outage_blocks_contiguous_admission_until_repair() {
        let mut s = sched(12, 1);
        // Disk 5 is down for intervals [0, 20): any display whose reads
        // visit disk 5 in that window must be rejected.
        s.add_outage(Outage {
            disk: 5,
            from: 0,
            until: 20,
            hard: true,
        });
        // Object at disk 4, M = 3, 13 subobjects: fragment 1 starts on
        // disk 5 — read at interval 0, inside the window.
        assert!(s
            .try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .is_err());
        // After the window, the same admission goes through.
        let g = s
            .try_admit(20, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .unwrap();
        assert_eq!(g.virtual_disks.len(), 3);
        // And pruning removes the elapsed window entirely.
        s.prune_outages(20);
        assert!(!s.has_outages());
    }

    #[test]
    fn outage_steers_fragmented_plans_clear() {
        let mut s = sched(8, 1);
        s.add_outage(Outage {
            disk: 2,
            from: 0,
            until: 6,
            hard: true,
        });
        // Every granted fragment's reading window must avoid visiting
        // disk 2 before interval 6.
        let g = s
            .try_admit(
                0,
                ObjectId(0),
                0,
                2,
                4,
                AdmissionPolicy::Fragmented {
                    max_buffer_fragments: 16,
                    max_delay_intervals: 12,
                },
            )
            .unwrap();
        for (idx, &v) in g.virtual_disks.iter().enumerate() {
            let t = g.read_start[idx];
            assert!(
                !s.read_conflict(WindowKind::Any, v, t, t + 4),
                "fragment {idx} on v{v} reads into the outage"
            );
        }
    }

    #[test]
    fn soft_outage_blocks_planning_but_not_hard_conflicts() {
        let mut s = sched(8, 1);
        s.add_outage(Outage {
            disk: 3,
            from: 0,
            until: 10,
            hard: false,
        });
        let v = s.frame().virtual_of(3, 0);
        assert!(s.read_conflict(WindowKind::Any, v, 0, 4));
        assert!(s.read_conflict(WindowKind::Soft, v, 0, 4));
        assert!(!s.read_conflict(WindowKind::Hard, v, 0, 4));
    }

    #[test]
    fn parity_reconstruction_admits_through_hard_outage() {
        let mut s = sched(12, 1);
        s.add_outage(Outage {
            disk: 5,
            from: 0,
            until: 20,
            hard: true,
        });
        // Without parity this exact admission is rejected (see
        // `outage_blocks_contiguous_admission_until_repair`). With one
        // parity fragment per 3 data fragments, the lost reads — v5 over
        // disk 5 at t=0 and t=12, v4 at t=1, v6 at t=11 — are each the
        // only loss in their interval, so the group reconstructs them with
        // one companion (the virtual disk over the parity home, disk 7).
        s.set_parity_group(Some(3));
        let g = s
            .try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .unwrap();
        assert_eq!(g.virtual_disks, vec![4, 5, 6]);
        assert_eq!(g.delivery_start, 0);
        assert_eq!(g.buffer_fragments, 0);
        assert_eq!(g.reconstructed_intervals, 4);
        assert_eq!(g.parity_companions, vec![7]);
        // The companion is committed through the reading window like any
        // granted disk.
        assert!(!s.is_free(7, 12));
        assert!(s.is_free(7, 13));
    }

    #[test]
    fn two_losses_in_one_group_interval_reject_reconstruction() {
        let mut s = sched(12, 1);
        for disk in [5, 6] {
            s.add_outage(Outage {
                disk,
                from: 0,
                until: 20,
                hard: true,
            });
        }
        s.set_parity_group(Some(3));
        // At t=0, fragments 1 and 2 (v5 over disk 5, v6 over disk 6) are
        // both lost: one parity fragment cannot cover two unknowns.
        assert!(s
            .try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .is_err());
    }

    #[test]
    fn busy_companion_rejects_reconstruction() {
        let mut s = sched(12, 1);
        s.add_outage(Outage {
            disk: 5,
            from: 0,
            until: 20,
            hard: true,
        });
        s.set_parity_group(Some(3));
        s.set_free_from(7, 50); // the group's parity companion
        assert!(s
            .try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .is_err());
    }

    #[test]
    fn soft_episode_still_rejects_degraded_plans() {
        let mut s = sched(12, 1);
        s.add_outage(Outage {
            disk: 5,
            from: 0,
            until: 20,
            hard: true,
        });
        // Fragment 0's virtual disk reads through a slow episode on disk
        // 4 — a slow disk still has the data, so no reconstruction.
        s.add_outage(Outage {
            disk: 4,
            from: 0,
            until: 20,
            hard: false,
        });
        s.set_parity_group(Some(3));
        assert!(s
            .try_admit(0, ObjectId(0), 4, 3, 13, AdmissionPolicy::Contiguous)
            .is_err());
    }

    #[test]
    fn fragmented_planner_falls_back_to_aligned_reconstruction() {
        // 13 subobjects >= the rotation period 12, so while disk 5 is down
        // EVERY virtual disk's reading window visits it — the clean
        // fragmented search has no candidate slot at all.
        let mut s = sched(12, 1);
        s.add_outage(Outage {
            disk: 5,
            from: 0,
            until: 100,
            hard: true,
        });
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: 16,
            max_delay_intervals: 8,
        };
        assert!(s.try_admit(0, ObjectId(0), 4, 3, 13, policy).is_err());
        s.set_parity_group(Some(3));
        let g = s.try_admit(0, ObjectId(0), 4, 3, 13, policy).unwrap();
        assert_eq!(g.buffer_fragments, 0, "degraded plans are aligned");
        assert_eq!(g.read_start, vec![g.delivery_start; 3]);
        assert!(g.reconstructed_intervals > 0);
        assert_eq!(g.parity_companions.len(), 1);
    }

    #[test]
    fn parity_never_changes_clean_admissions() {
        // With no outages, a parity-armed scheduler grants exactly what
        // the parity-free one does.
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: 8,
            max_delay_intervals: 4,
        };
        let mut base = sched(20, 1);
        let mut armed = sched(20, 1);
        armed.set_parity_group(Some(4));
        for t in 0..30u64 {
            for start in [0u32, 5, 10, 15] {
                let a = base.try_admit(t, ObjectId(start), start, 3, 7, policy);
                let b = armed.try_admit(t, ObjectId(start), start, 3, 7, policy);
                assert_eq!(a.is_ok(), b.is_ok());
                if let (Ok(ga), Ok(gb)) = (a, b) {
                    assert_eq!(ga, gb);
                    assert!(gb.parity_companions.is_empty());
                }
            }
        }
    }

    #[test]
    fn plan_then_commit_equals_try_admit() {
        // The split halves must compose to exactly the monolithic call:
        // same grants, same errors, same post-state.
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: 8,
            max_delay_intervals: 4,
        };
        let mut mono = sched(20, 1);
        let mut split = sched(20, 1);
        for t in 0..30u64 {
            for start in [0u32, 5, 10, 15] {
                let a = mono.try_admit(t, ObjectId(start), start, 3, 7, policy);
                let b = split.plan(t, ObjectId(start), start, 3, 7, policy);
                if let Ok(g) = &b {
                    split.commit(t, g, 7);
                }
                assert_eq!(a, b);
            }
        }
        for v in 0..20 {
            assert_eq!(mono.free_from(v), split.free_from(v));
        }
    }

    /// One operation of the index proptest. Intervals are offsets from
    /// the retire floor at the time the operation runs.
    #[derive(Debug, Clone)]
    enum IndexOp {
        /// `try_admit(floor + dt, …)` under either policy.
        Admit {
            dt: u64,
            start: u32,
            degree: u32,
            subobjects: u32,
            fragmented: bool,
        },
        /// `set_free_from(v, floor + offset)`, clamped at interval 0:
        /// behind the floor, inside the window and far past it.
        Set { v: u32, offset: i64 },
        /// `hold_busy(first, count, floor + from, floor + from + len)`.
        Hold {
            first: u64,
            count: u64,
            from: u64,
            len: u64,
        },
        /// `retire(floor + dt)`, short steps and jumps longer than the
        /// window alike.
        Retire(u64),
    }

    /// Four in twelve operations admit, three override a horizon (one of
    /// them far past the window), one holds disks busy, and four retire
    /// (one of them by a jump longer than the window).
    fn index_op() -> impl Strategy<Value = IndexOp> {
        let admit = (0u64..8, 0u32..64, 1u32..6, 1u32..40, prop::bool::ANY);
        let set = (0u32..64, -60i64..60, 60i64..400);
        let hold = (0u64..8, 0u64..10, 1u64..120);
        let retire = (0u64..12, 100u64..600);
        (0u8..12, admit, set, hold, retire).prop_map(|(kind, admit, set, hold, retire)| {
            let (dt, start, degree, subobjects, fragmented) = admit;
            match kind {
                0..=3 => IndexOp::Admit {
                    dt,
                    start,
                    degree,
                    subobjects,
                    fragmented,
                },
                4 | 5 => IndexOp::Set {
                    v: set.0,
                    offset: set.1,
                },
                6 => IndexOp::Set {
                    v: set.0,
                    offset: set.2,
                },
                7 => IndexOp::Hold {
                    first: u64::from(set.0),
                    count: hold.0,
                    from: hold.1,
                    len: hold.2,
                },
                8..=10 => IndexOp::Retire(retire.0),
                _ => IndexOp::Retire(retire.1),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random admissions under both policies, horizon overrides,
        /// background holds and retires: after every operation the
        /// incremental index answers `free_count` at every interval from
        /// the floor to past the farthest horizon, and `earliest_free`
        /// for every `m` in `0..=D+1`, exactly as a sort of `free_from`
        /// does (the index this one replaced, kept here as the reference
        /// model). Its window never outgrows twice the widest span from
        /// the floor to the farthest horizon ever live, rounded up to a
        /// power of two, however far the clock has run.
        #[test]
        fn horizon_index_matches_the_sorted_model(
            d in 1u32..24,
            k in 0u32..24,
            ops in prop::collection::vec(index_op(), 1..50),
        ) {
            let mut s = sched(d, k);
            let mut floor = 0u64;
            let mut widest = 1u64;
            for op in ops {
                match op {
                    IndexOp::Admit { dt, start, degree, subobjects, fragmented } => {
                        let policy = if fragmented {
                            AdmissionPolicy::Fragmented {
                                max_buffer_fragments: 8,
                                max_delay_intervals: 6,
                            }
                        } else {
                            AdmissionPolicy::Contiguous
                        };
                        let degree = degree.min(d);
                        let _ = s.try_admit(floor + dt, ObjectId(0), start % d, degree, subobjects, policy);
                    }
                    IndexOp::Set { v, offset } => {
                        let at = floor.saturating_add_signed(offset);
                        s.set_free_from(v % d, at);
                    }
                    IndexOp::Hold { first, count, from, len } => {
                        let from = floor + from;
                        s.hold_busy(first, count, from, from + len);
                    }
                    IndexOp::Retire(dt) => {
                        floor += dt;
                        s.retire(floor);
                    }
                }
                let mut sorted = s.free_from.clone();
                sorted.sort_unstable();
                let far = *sorted.last().expect("d >= 1");
                for t in floor..=far.max(floor) + 2 {
                    let want = sorted.partition_point(|&f| f <= t) as u32;
                    prop_assert_eq!(s.free_count(t), want, "free_count({})", t);
                }
                for m in 0..=d + 1 {
                    let want = match m {
                        0 => Some(floor),
                        m if m > d => None,
                        m => Some(sorted[m as usize - 1].max(floor)),
                    };
                    prop_assert_eq!(s.earliest_free(m), want, "earliest_free({})", m);
                }
                widest = widest.max(far.saturating_sub(floor) + 1);
                let bound = (2 * widest as usize).next_power_of_two().max(MIN_WINDOW);
                prop_assert!(
                    s.index.window() <= bound,
                    "window {} past {} for a widest live span of {}",
                    s.index.window(),
                    bound,
                    widest
                );
            }
        }
    }

    #[test]
    fn stationary_frame_contiguous_only_same_disks() {
        // k = D (virtual replication): virtual == physical forever.
        let mut s = sched(10, 10);
        let g = s
            .try_admit(0, ObjectId(0), 2, 4, 50, AdmissionPolicy::Contiguous)
            .unwrap();
        assert_eq!(g.virtual_disks, vec![2, 3, 4, 5]);
        // The same disks stay busy for the whole 50 intervals; a second
        // request for the same object start must wait.
        assert!(s
            .try_admit(10, ObjectId(1), 2, 4, 50, AdmissionPolicy::Contiguous)
            .is_err());
        assert!(s
            .try_admit(50, ObjectId(1), 2, 4, 50, AdmissionPolicy::Contiguous)
            .is_ok());
    }
}
