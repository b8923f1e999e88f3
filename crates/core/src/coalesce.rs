//! System-side **dynamic coalescing** (§3.2.1, Figure 6's second act).
//!
//! A time-fragmented display reads fragment `i` with a virtual disk that
//! runs `wᵢ = T₀ − Tᵢ` intervals ahead of delivery, buffering `wᵢ`
//! fragments forever. When intervening disks free up, the system can hand
//! fragment `i` over to a *closer* virtual disk: the old disk finishes the
//! subobjects it already owes, the new disk picks up from the handover
//! point with a smaller (ideally zero) offset, and the buffer bill drops.
//! The per-disk protocol of the handover is the paper's Algorithm 2
//! ([`crate::algorithms::WriteThread`]); this module plans and commits the
//! handovers against the [`IntervalScheduler`]'s occupancy.

use crate::admission::{AdmissionGrant, IntervalScheduler, Outage, WindowKind};
use serde::{Deserialize, Serialize};
use ss_types::ObjectId;
use std::ops::ControlFlow;

/// The live scheduling state of one (possibly fragmented) display.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveFragmentedDisplay {
    /// The displayed object.
    pub object: ObjectId,
    /// Physical disk of `X_{0.0}`.
    pub start_disk: u32,
    /// Degree of declustering.
    pub degree: u32,
    /// Number of subobjects.
    pub subobjects: u32,
    /// Current virtual disk per fragment (mutated by coalescing).
    pub virtual_disks: Vec<u32>,
    /// Current read-start base per fragment: fragment `i` of subobject
    /// `s` is read at interval `read_start[i] + s` (mutated by
    /// coalescing — a handover *raises* the lagging fragment's base).
    pub read_start: Vec<u64>,
    /// Delivery base: subobject `s` is output at `delivery_start + s`
    /// (never changes; the viewer must not notice the coalesce).
    pub delivery_start: u64,
}

impl ActiveFragmentedDisplay {
    /// Builds the live state from a fresh grant.
    pub fn from_grant(grant: &AdmissionGrant, start_disk: u32, subobjects: u32) -> Self {
        ActiveFragmentedDisplay {
            object: grant.object,
            start_disk,
            degree: grant.virtual_disks.len() as u32,
            subobjects,
            virtual_disks: grant.virtual_disks.clone(),
            read_start: grant.read_start.clone(),
            delivery_start: grant.delivery_start,
        }
    }

    /// Per-fragment buffering offsets `wᵢ = T₀ − Tᵢ`.
    pub fn offsets(&self) -> Vec<u64> {
        self.read_start
            .iter()
            .map(|&t| self.delivery_start - t)
            .collect()
    }

    /// The display's current total buffer bill (fragments): the sum of
    /// [`Self::offsets`], without building them.
    pub fn buffer_total(&self) -> u64 {
        self.read_start
            .iter()
            .map(|&t| self.delivery_start - t)
            .sum()
    }

    /// One past the last delivery interval.
    pub fn delivery_end(&self) -> u64 {
        self.delivery_start + u64::from(self.subobjects)
    }
}

/// A committed fragment read that falls inside a hard outage window: the
/// data under the head at that interval is on a failed disk, so the read
/// is lost and the display hiccups unless the fragment is rescued first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LostRead {
    /// The fragment whose read is lost.
    pub frag: u32,
    /// The subobject that would have been read.
    pub subobject: u32,
    /// The interval of the lost read.
    pub at: u64,
    /// The failed physical disk under the head at that interval.
    pub disk: u32,
}

/// A planned handover of one fragment to a closer virtual disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoalescePlan {
    /// The fragment index being handed over.
    pub frag: u32,
    /// The virtual disk currently serving it.
    pub old_disk: u32,
    /// The virtual disk taking over.
    pub new_disk: u32,
    /// First subobject the new disk reads.
    pub handover_sub: u32,
    /// The new read base `T'ᵢ` (new disk reads subobject `s` at
    /// `T'ᵢ + s`).
    pub new_read_start: u64,
    /// Buffer fragments saved once the old disk's backlog drains:
    /// `old offset − new offset`.
    pub buffer_saving: u64,
}

impl IntervalScheduler {
    /// Looks for the best handover of one fragment of `display` at
    /// interval `now`: the [`Self::plan_rescue`] with the largest buffer
    /// saving (ties: lowest fragment index). Returns `None` when the
    /// display is already fully coalesced or no suitable free disk exists.
    pub fn plan_coalesce(
        &self,
        display: &ActiveFragmentedDisplay,
        now: u64,
    ) -> Option<CoalescePlan> {
        // Fragments are distinct, so the key has no ties and `max_by_key`
        // (which keeps the last of equal keys) picks the lowest fragment
        // among the largest savings.
        (0..display.virtual_disks.len() as u32)
            .filter_map(|frag| self.plan_rescue(display, frag, now))
            .max_by_key(|p| (p.buffer_saving, std::cmp::Reverse(p.frag)))
    }

    /// Commits `plan`: shortens the old disk's occupancy to the handover
    /// point and books the new disk through the remaining reads, updating
    /// `display`'s live state. Panics if the plan no longer matches the
    /// occupancy (plans must be applied at the interval they were made).
    pub fn apply_coalesce(&mut self, display: &mut ActiveFragmentedDisplay, plan: &CoalescePlan) {
        let i = plan.frag as usize;
        let n = u64::from(display.subobjects);
        assert_eq!(display.virtual_disks[i], plan.old_disk, "stale plan");
        let t_old = display.read_start[i];
        assert_eq!(
            self.free_from(plan.old_disk),
            t_old + n,
            "old disk gained a later commitment"
        );
        assert!(
            self.free_from(plan.new_disk) <= plan.new_read_start + u64::from(plan.handover_sub),
            "new disk is no longer free"
        );
        // Old disk reads subobjects [.., handover_sub) and then frees.
        self.set_free_from(plan.old_disk, t_old + u64::from(plan.handover_sub));
        // New disk reads [handover_sub, n).
        self.set_free_from(plan.new_disk, plan.new_read_start + n);
        display.virtual_disks[i] = plan.new_disk;
        display.read_start[i] = plan.new_read_start;
        ss_obs::obs!(ss_obs::Event::ReadMove {
            object: display.object.0,
            frag: plan.frag,
            old_vdisk: plan.old_disk,
            new_vdisk: plan.new_disk,
            old_base: t_old,
            new_base: plan.new_read_start,
            handover: u64::from(plan.handover_sub),
        });
    }

    /// Enumerates `display`'s committed reads from interval `now` onward
    /// that land inside a **hard** outage window — these reads cannot
    /// complete as planned. A read is one (fragment, subobject) pair:
    /// fragment `i`'s disk visits physical disk `homeᵢ(s)` at interval
    /// `read_start[i] + s`, and alignments with a given physical disk
    /// recur every `D / gcd(D, k)` intervals.
    pub fn lost_reads(&self, display: &ActiveFragmentedDisplay, now: u64) -> Vec<LostRead> {
        self.lost_reads_in(display, now, self.outages())
    }

    /// [`IntervalScheduler::lost_reads`] restricted to the reads lost to
    /// `outage` alone (none when it is soft). A fresh failure's rescue
    /// pass needs only these: every read lost to an earlier outage was
    /// re-planned or charged when that outage registered.
    pub fn lost_reads_to(
        &self,
        display: &ActiveFragmentedDisplay,
        now: u64,
        outage: &Outage,
    ) -> Vec<LostRead> {
        self.lost_reads_in(display, now, std::slice::from_ref(outage))
    }

    /// The reads of `display` from `now` on that fall inside one of the
    /// hard windows in `outages`, ordered by interval, then fragment.
    fn lost_reads_in(
        &self,
        display: &ActiveFragmentedDisplay,
        now: u64,
        outages: &[Outage],
    ) -> Vec<LostRead> {
        let n = u64::from(display.subobjects);
        let mut out = Vec::new();
        for (i, (&v, &base)) in display
            .virtual_disks
            .iter()
            .zip(&display.read_start)
            .enumerate()
        {
            let (frag, from) = (i as u32, base.max(now));
            // The visitor never breaks: every lost read is collected.
            let _ =
                self.for_each_conflict(outages, WindowKind::Hard, v, from, base + n, |at, o| {
                    let subobject = u32::try_from(at - base).expect("subobject fits u32");
                    out.push(LostRead {
                        frag,
                        subobject,
                        at,
                        disk: o.disk,
                    });
                    ControlFlow::Continue(())
                });
        }
        out.sort_by_key(|r| (r.at, r.frag));
        out
    }

    /// Plans the handover of fragment `frag` of `display` at interval
    /// `now`: a coalesce-direction move (the base moves *later*, toward
    /// `delivery_start`, so buffers are released, never added) to the
    /// latest base whose taker is free in time and at which **no**
    /// remaining read of the fragment — on either the taker or the old
    /// disk's pre-handover tail — falls inside a known outage window. A
    /// rescue is this plan for a fragment that lost a read, and it is
    /// all-or-nothing: a candidate that still loses a read is rejected, so
    /// a rescued fragment never misses a delivery deadline.
    ///
    /// A fragment is only eligible if its old disk carries no *later*
    /// commitment (the scalar occupancy can then be shortened safely).
    /// Contiguous fragments (`read_start == delivery_start`) have no later
    /// base to move to and are never rescuable — the paper's direct
    /// pipelining has zero slack, which is exactly why the degraded-mode
    /// report distinguishes rescued from hiccuping streams.
    pub fn plan_rescue(
        &self,
        display: &ActiveFragmentedDisplay,
        frag: u32,
        now: u64,
    ) -> Option<CoalescePlan> {
        let disks = self.frame().disks();
        let k = self.frame().stride();
        if k == 0 {
            return None; // stationary frame: a fragment is bound to its disk
        }
        let i = frag as usize;
        let z_old = display.virtual_disks[i];
        let t_old = display.read_start[i];
        let n = u64::from(display.subobjects);
        // The old disk must carry exactly this display's tail, or its
        // occupancy cannot be shortened at the handover point.
        if self.free_from(z_old) != t_old + n {
            return None;
        }
        let p = (display.start_disk + frag) % disks;
        // Try new bases from tightest (delivery_start ⇒ zero offset)
        // downwards; the first feasible one saves the most.
        for t_new in (t_old + 1..=display.delivery_start).rev() {
            // The disk reading fragment `frag` of subobject s at interval
            // t_new + s sits over physical disk p + s·k there, so its
            // virtual index is fixed: virtual_of(p, t_new).
            let z_new = self.frame().virtual_of(p, t_new);
            if display.virtual_disks.contains(&z_new) {
                continue; // already working for this display
            }
            // Handover point: the handover takes effect this interval —
            // the old disk's read for `now` is cancelled and the new disk
            // reads that subobject when it aligns (paper timing: the
            // Figure 6 handover at interval 5 has the new disk read X5.1
            // directly at interval 7). The new disk must also have freed
            // by its first read.
            let s_min = now
                .saturating_sub(t_old)
                .max(self.free_from(z_new).saturating_sub(t_new));
            if s_min >= n {
                continue; // nothing left for the new disk to read
            }
            // The taker's remaining reads must clear every outage window
            // (hard and slow — new placement avoids slow disks too).
            if self.read_conflict(WindowKind::Any, z_new, t_new + s_min, t_new + n) {
                continue;
            }
            // If the taker frees late, the old disk keeps reading up to
            // the handover subobject; those residual reads must clear
            // every *hard* window or the rescue is not a rescue.
            if t_old + s_min > now
                && self.read_conflict(WindowKind::Hard, z_old, now, t_old + s_min)
            {
                continue;
            }
            return Some(CoalescePlan {
                frag,
                old_disk: z_old,
                new_disk: z_new,
                handover_sub: u32::try_from(s_min).expect("subobject fits u32"),
                new_read_start: t_new,
                buffer_saving: t_new - t_old,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::frame::VirtualFrame;

    /// The Figure 6 farm: D = 8, k = 1, background displays on all but
    /// the slots over disks 1 and 6; X (M = 2) admitted fragmented.
    fn figure6() -> (IntervalScheduler, ActiveFragmentedDisplay) {
        let mut sched = IntervalScheduler::new(VirtualFrame::new(8, 1));
        for v in [0u32, 2, 3, 4, 5, 7] {
            // The two slots *between* X's disks (virtual 7 and 0, walking
            // 6 → 7 → 0 → 1) are the paper's "intervening busy disks";
            // they complete at interval 5. The rest run long.
            let len = if v == 7 || v == 0 { 5 } else { 1000 };
            sched
                .try_admit(0, ObjectId(100 + v), v, 1, len, AdmissionPolicy::Contiguous)
                .unwrap();
        }
        let grant = sched
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
        let display = ActiveFragmentedDisplay::from_grant(&grant, 0, 10);
        (sched, display)
    }

    #[test]
    fn figure6_state_before_coalescing() {
        let (_, d) = figure6();
        assert_eq!(d.virtual_disks, vec![6, 1]);
        assert_eq!(d.read_start, vec![2, 0]);
        assert_eq!(d.offsets(), vec![0, 2]);
        assert_eq!(d.buffer_total(), 2);
        assert_eq!(d.delivery_end(), 12);
    }

    #[test]
    fn coalesce_after_neighbours_free() {
        let (mut sched, mut d) = figure6();
        // Before interval 5 the intervening disks (2, 3) are busy: no
        // beneficial plan may use them...
        let early = sched.plan_coalesce(&d, 1);
        if let Some(p) = &early {
            assert!(p.new_disk != 2 && p.new_disk != 3, "{early:?}");
        }
        // At interval 5 the two intervening virtual disks free. Fragment
        // 1 (offset 2, served by v1) hands over to v7 — making X's disks
        // the adjacent pair (6, 7), exactly the paper's outcome.
        let plan = sched.plan_coalesce(&d, 5).expect("a handover exists");
        assert_eq!(plan.frag, 1);
        assert_eq!(plan.old_disk, 1);
        assert_eq!(plan.new_disk, 7);
        assert_eq!(plan.buffer_saving, 2); // down to direct pipelining
        assert_eq!(plan.new_read_start, d.delivery_start);
        // The paper's timeline: the new disk's first direct read is
        // X5.1 at interval 7 (= 2 + 5).
        assert_eq!(plan.handover_sub, 5);
        sched.apply_coalesce(&mut d, &plan);
        assert_eq!(d.offsets(), vec![0, 0]);
        assert_eq!(d.buffer_total(), 0);
        // Old disk freed early: it read subobjects 0..5 and lets go.
        assert_eq!(sched.free_from(plan.old_disk), 5);
        // New disk committed through the display's end.
        assert_eq!(sched.free_from(plan.new_disk), 12);
        // Nothing further to coalesce.
        assert!(sched.plan_coalesce(&d, 6).is_none());
    }

    #[test]
    fn coalesce_respects_later_commitments_on_old_disk() {
        let (mut sched, d) = figure6();
        // Give the old disk (v1) a later commitment right after X ends.
        sched.set_free_from(1, 20);
        assert!(sched.plan_coalesce(&d, 5).is_none());
    }

    #[test]
    fn contiguous_displays_have_nothing_to_coalesce() {
        let mut sched = IntervalScheduler::new(VirtualFrame::new(8, 1));
        let grant = sched
            .try_admit(0, ObjectId(0), 0, 3, 10, AdmissionPolicy::Contiguous)
            .unwrap();
        let d = ActiveFragmentedDisplay::from_grant(&grant, 0, 10);
        assert_eq!(d.buffer_total(), 0);
        assert!(sched.plan_coalesce(&d, 3).is_none());
    }

    #[test]
    fn lost_reads_and_rescue_on_figure6() {
        let (mut sched, mut d) = figure6();
        // X's fragment 1 is read by v1 at intervals 0..10, visiting
        // physical disk 1 + t each interval (k = 1). Fail disk 5 for
        // intervals [3, 9): v1 is over disk 5 at t = 4 — one lost read.
        sched.add_outage(Outage {
            disk: 5,
            from: 3,
            until: 9,
            hard: true,
        });
        // Both fragments visit disk 5 inside [3, 9): fragment 1 (v1 over
        // disk 1+t) at t = 4, fragment 0 (v6 over disk 6+t) at t = 7.
        let lost = sched.lost_reads(&d, 3);
        assert_eq!(
            lost,
            vec![
                LostRead {
                    frag: 1,
                    subobject: 4,
                    at: 4,
                    disk: 5,
                },
                LostRead {
                    frag: 0,
                    subobject: 5,
                    at: 7,
                    disk: 5,
                },
            ]
        );
        // Fragment 1 has offset 2: moving its base to delivery_start (2)
        // pushes the disk-5 visit to t = 2 + 4 = 6... still inside the
        // window, but the *taker* v7 visits disk 5 at interval... v7 over
        // p=1 at t=2, walking 1,2,3,... per interval: over disk 5 at
        // t = 6, inside [3, 9) — so the zero-offset rescue is rejected
        // and no feasible base exists (offset 1 puts the visit at t = 5).
        assert!(sched.plan_rescue(&d, 1, 3).is_none());
        // Shrink the window so the post-rescue visit clears it: with the
        // outage ending at interval 6, base 2 (taker v7 reads subobject s
        // at 2 + s, visiting disk 5 at t = 6 >= until) is clean.
        let (mut sched2, d2) = figure6();
        sched2.add_outage(Outage {
            disk: 5,
            from: 3,
            until: 6,
            hard: true,
        });
        assert_eq!(sched2.lost_reads(&d2, 3).len(), 1);
        let plan = sched2.plan_rescue(&d2, 1, 3).expect("rescue is feasible");
        assert_eq!(plan.frag, 1);
        assert_eq!(plan.new_read_start, 2);
        assert_eq!(plan.buffer_saving, 2);
        let mut d2 = d2;
        sched2.apply_coalesce(&mut d2, &plan);
        // The rescued display has no remaining conflicted reads.
        assert!(sched2.lost_reads(&d2, 3).is_empty());
        // Silence the unused-mut pair from the first scenario.
        let _ = (&mut sched, &mut d);
    }

    #[test]
    fn per_outage_lost_reads_partition_the_all_outage_form() {
        let (mut sched, d) = figure6();
        // Disk 5 as above; disk 2 under fragment 0 (v6 over disk 6 + t,
        // base 2) at t = 4; a soft window loses nothing.
        let a = Outage {
            disk: 5,
            from: 3,
            until: 9,
            hard: true,
        };
        let b = Outage {
            disk: 2,
            from: 0,
            until: 6,
            hard: true,
        };
        let soft = Outage {
            disk: 7,
            from: 0,
            until: 10,
            hard: false,
        };
        for o in [a, b, soft] {
            sched.add_outage(o);
        }
        let lost_b = sched.lost_reads_to(&d, 3, &b);
        assert_eq!(
            lost_b,
            vec![LostRead {
                frag: 0,
                subobject: 2,
                at: 4,
                disk: 2,
            }]
        );
        assert!(sched.lost_reads_to(&d, 3, &soft).is_empty());
        let mut union = sched.lost_reads_to(&d, 3, &a);
        union.extend(lost_b);
        union.sort_by_key(|r| (r.at, r.frag));
        assert_eq!(union, sched.lost_reads(&d, 3));
    }

    #[test]
    fn contiguous_fragments_are_never_rescuable() {
        let mut sched = IntervalScheduler::new(VirtualFrame::new(8, 1));
        let grant = sched
            .try_admit(0, ObjectId(0), 0, 2, 10, AdmissionPolicy::Contiguous)
            .unwrap();
        let d = ActiveFragmentedDisplay::from_grant(&grant, 0, 10);
        sched.add_outage(Outage {
            disk: 4,
            from: 2,
            until: 8,
            hard: true,
        });
        let lost = sched.lost_reads(&d, 2);
        assert!(!lost.is_empty());
        for r in &lost {
            assert!(sched.plan_rescue(&d, r.frag, 2).is_none());
        }
    }

    #[test]
    fn equal_savings_pick_the_lowest_fragment() {
        // D = 8, k = 1: fragments 1 and 2 both lag delivery by 2 and can
        // both hand over to a free disk with zero offset.
        let mut sched = IntervalScheduler::new(VirtualFrame::new(8, 1));
        for (v, free_from) in [(4, 14), (7, 12), (0, 12)] {
            sched.set_free_from(v, free_from);
        }
        let d = ActiveFragmentedDisplay {
            object: ObjectId(0),
            start_disk: 0,
            degree: 3,
            subobjects: 10,
            virtual_disks: vec![4, 7, 0],
            read_start: vec![4, 2, 2],
            delivery_start: 4,
        };
        for frag in [1, 2] {
            let plan = sched.plan_rescue(&d, frag, 4).expect("a handover exists");
            assert_eq!(plan.buffer_saving, 2, "fragment {frag}");
        }
        let plan = sched.plan_coalesce(&d, 4).expect("a handover exists");
        assert_eq!((plan.frag, plan.buffer_saving), (1, 2));
    }

    #[test]
    fn stationary_frame_never_coalesces() {
        let mut sched = IntervalScheduler::new(VirtualFrame::new(8, 8));
        let grant = sched
            .try_admit(0, ObjectId(0), 0, 2, 10, AdmissionPolicy::Contiguous)
            .unwrap();
        let d = ActiveFragmentedDisplay::from_grant(&grant, 0, 10);
        assert!(sched.plan_coalesce(&d, 1).is_none());
    }
}
