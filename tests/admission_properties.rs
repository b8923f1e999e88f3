//! Property tests for the virtual-disk frame and admission control — the
//! correctness core of staggered striping.

use proptest::prelude::*;
use staggered_striping::core::admission::{
    AdmissionGrant, AdmissionPolicy, IntervalScheduler, Outage, WindowKind, NO_PASS_SCAN_CAP,
};
use staggered_striping::core::coalesce::{ActiveFragmentedDisplay, LostRead};
use staggered_striping::prelude::*;

/// A random farm plus a stream of admission attempts.
fn farm_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, u32)>)> {
    (4u32..40, 0u32..41).prop_flat_map(|(d, k)| {
        let attempts = prop::collection::vec((0u32..d, 1u32..=d.min(6), 1u32..30), 1..40);
        attempts.prop_map(move |a| (d, k, a))
    })
}

/// Replays a set of grants against an independent occupancy matrix and
/// asserts no (virtual disk, interval) cell is used twice and that every
/// read is aligned with its data.
fn check_grants(d: u32, k: u32, grants: &[(AdmissionGrant, u32, u32)]) {
    let frame = VirtualFrame::new(d, k);
    let horizon: u64 = grants
        .iter()
        .map(|(g, _, _)| g.end_interval)
        .max()
        .unwrap_or(0);
    let mut used = vec![vec![false; (horizon + 1) as usize]; d as usize];
    for (g, start_disk, subobjects) in grants {
        assert_eq!(g.virtual_disks.len(), g.read_start.len());
        for (i, (&v, &t0)) in g.virtual_disks.iter().zip(&g.read_start).enumerate() {
            // Alignment (hiccup-freedom): when this virtual disk reads
            // subobject j of fragment i, it must sit over the physical
            // disk that stores that fragment.
            for j in 0..*subobjects {
                let t = t0 + u64::from(j);
                let expect = (u64::from(*start_disk) + u64::from(j) * u64::from(k % d) + i as u64)
                    % u64::from(d);
                assert_eq!(
                    u64::from(frame.physical(v, t)),
                    expect,
                    "misaligned read: D={d} k={k} v={v} j={j}"
                );
                // Exclusivity: no double-booked (disk, interval).
                let cell = &mut used[v as usize][t as usize];
                assert!(!*cell, "double booking: D={d} k={k} v={v} t={t}");
                *cell = true;
            }
            // Buffering sanity: reads never start after delivery.
            assert!(t0 <= g.delivery_start);
        }
        // Buffer bill matches the definition.
        let bill: u64 = g.read_start.iter().map(|&t| g.delivery_start - t).sum();
        assert_eq!(bill, g.buffer_fragments);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contiguous admission: granted reads are aligned and exclusive.
    #[test]
    fn contiguous_grants_are_sound((d, k, attempts) in farm_strategy()) {
        let mut sched = IntervalScheduler::new(VirtualFrame::new(d, k));
        let mut grants = Vec::new();
        for (idx, (start, m, n)) in attempts.iter().enumerate() {
            let t = idx as u64; // one attempt per interval
            if let Ok(g) = sched.try_admit(
                t,
                ObjectId(idx as u32),
                *start,
                *m,
                *n,
                AdmissionPolicy::Contiguous,
            ) {
                prop_assert_eq!(g.delivery_start, t);
                prop_assert_eq!(g.buffer_fragments, 0);
                grants.push((g, *start, *n));
            }
        }
        check_grants(d, k, &grants);
    }

    /// Fragmented admission: ditto, plus the policy's caps are honoured.
    #[test]
    fn fragmented_grants_are_sound((d, k, attempts) in farm_strategy()) {
        let policy = AdmissionPolicy::Fragmented {
            max_buffer_fragments: 24,
            max_delay_intervals: 10,
        };
        let mut sched = IntervalScheduler::new(VirtualFrame::new(d, k));
        let mut grants = Vec::new();
        for (idx, (start, m, n)) in attempts.iter().enumerate() {
            let t = (idx as u64) * 2;
            if let Ok(g) = sched.try_admit(t, ObjectId(idx as u32), *start, *m, *n, policy) {
                prop_assert!(g.buffer_fragments <= 24);
                prop_assert!(g.delivery_start <= t + 10);
                prop_assert!(g.read_start.iter().all(|&r| r >= t));
                grants.push((g, *start, *n));
            }
        }
        check_grants(d, k, &grants);
    }

    /// The frame maps are mutually inverse for every (D, k, t).
    #[test]
    fn frame_inverse(d in 1u32..200, k in 0u32..400, t in 0u64..10_000) {
        let f = VirtualFrame::new(d, k);
        for v in 0..d {
            prop_assert_eq!(f.virtual_of(f.physical(v, t), t), v);
        }
    }

    /// `next_alignment` returns the earliest alignment and never lies.
    #[test]
    fn next_alignment_sound(d in 2u32..30, k in 0u32..30, v in 0u32..30, p in 0u32..30, t0 in 0u64..50) {
        let v = v % d;
        let p = p % d;
        let f = VirtualFrame::new(d, k);
        match f.next_alignment(v, p, t0) {
            Some(t) => {
                prop_assert!(t >= t0);
                prop_assert_eq!(f.physical(v, t), p);
                for earlier in t0..t {
                    prop_assert_ne!(f.physical(v, earlier), p);
                }
            }
            None => {
                // Never aligned within two full rotations => truly unreachable.
                for t in t0..t0 + 2 * u64::from(d) + 2 {
                    prop_assert_ne!(f.physical(v, t), p);
                }
            }
        }
    }
}

/// Admission saturates exactly at the farm's capacity: on an idle farm,
/// D/M simultaneous displays fit and one more is rejected.
#[test]
fn admission_saturates_at_capacity() {
    let mut sched = IntervalScheduler::new(VirtualFrame::new(20, 5));
    for i in 0..4 {
        sched
            .try_admit(0, ObjectId(i), i * 5, 5, 100, AdmissionPolicy::Contiguous)
            .expect("fits");
    }
    assert!(sched
        .try_admit(0, ObjectId(99), 0, 5, 100, AdmissionPolicy::Contiguous)
        .is_err());
    assert_eq!(sched.free_count(0), 0);
    assert!((sched.utilization(0) - 1.0).abs() < 1e-12);
    // After the displays end, everything frees.
    assert_eq!(sched.free_count(100), 20);
}

/// A frame, its outage windows, a display's `(virtual disk, base)` per
/// fragment, its subobject count, a query instant, and `(v, start, len)`
/// conflict queries.
type OutageWalkCase = (
    VirtualFrame,
    Vec<Outage>,
    Vec<(u32, u64)>,
    u32,
    u64,
    Vec<(u32, u64, u64)>,
);

/// A random [`OutageWalkCase`]: stationary (`k ≡ 0 mod D`) and
/// non-coprime strides included, with hard and soft windows that overlap
/// and repeat disks, and node-like runs: one hard window over a
/// contiguous range of disks, the way a node outage compiles.
fn outage_walk_strategy() -> impl Strategy<Value = OutageWalkCase> {
    (1u32..13, proptest::bool::ANY, 0u32..40).prop_flat_map(|(d, stationary, r)| {
        let k = if stationary { d * (r % 3) } else { r };
        let windows = prop::collection::vec(
            (0..d, 0u64..40, 0u64..30, proptest::bool::ANY).prop_map(|(disk, from, len, hard)| {
                Outage {
                    disk,
                    from,
                    until: from + len,
                    hard,
                }
            }),
            0..8,
        );
        let runs = prop::collection::vec((0..d, 1..=d, 0u64..40, 0u64..30), 0..3);
        let frags = prop::collection::vec((0..d, 0u64..40), 1..5);
        let queries = prop::collection::vec((0..d, 0u64..60, 0u64..40), 1..12);
        (windows, runs, frags, 1u32..30, 0u64..50, queries).prop_map(
            move |(mut windows, runs, frags, subobjects, now, queries)| {
                for (first, count, from, len) in runs {
                    windows.extend(node_run(first..d.min(first + count), from, from + len));
                }
                (
                    VirtualFrame::new(d, k),
                    windows,
                    frags,
                    subobjects,
                    now,
                    queries,
                )
            },
        )
    })
}

/// One hard window `[from, until)` on each disk of `disks`: a node
/// outage.
fn node_run(disks: std::ops::Range<u32>, from: u64, until: u64) -> impl Iterator<Item = Outage> {
    disks.map(move |disk| Outage {
        disk,
        from,
        until,
        hard: true,
    })
}

/// True when a conflict query of `kind` counts window `o`.
fn counts(kind: WindowKind, o: &Outage) -> bool {
    match kind {
        WindowKind::Any => true,
        WindowKind::Hard => o.hard,
        WindowKind::Soft => !o.hard,
    }
}

/// The lost reads of `frags` (virtual disk, base) over `subobjects`
/// subobjects from `now` on, by a per-interval scan: interval, then
/// fragment, then window order.
fn scan_lost_reads(
    frame: &VirtualFrame,
    outages: &[Outage],
    frags: &[(u32, u64)],
    subobjects: u32,
    now: u64,
) -> Vec<LostRead> {
    let n = u64::from(subobjects);
    let end = frags.iter().map(|&(_, base)| base + n).max().unwrap_or(0);
    let mut out = Vec::new();
    for t in now..end {
        for (i, &(v, base)) in frags.iter().enumerate() {
            if t < base || t >= base + n {
                continue;
            }
            for o in outages.iter().filter(|o| o.hard) {
                if frame.physical(v, t) == o.disk && o.covers(t) {
                    out.push(LostRead {
                        frag: i as u32,
                        subobject: (t - base) as u32,
                        at: t,
                        disk: o.disk,
                    });
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The one outage walker agrees with a brute-force scan of
    /// `physical(v, t) == o.disk && o.covers(t)`: the yes/no conflict
    /// query under each window kind, and the lost-read enumeration over
    /// all windows and over each window alone, in the same order.
    #[test]
    fn outage_walker_matches_a_per_interval_scan(
        (frame, outages, frags, subobjects, now, queries) in outage_walk_strategy()
    ) {
        let mut sched = IntervalScheduler::new(frame);
        for &o in &outages {
            sched.add_outage(o);
        }
        for &(v, start, len) in &queries {
            for kind in [WindowKind::Any, WindowKind::Hard, WindowKind::Soft] {
                let scan = (start..start + len).any(|t| {
                    outages.iter().any(|o| {
                        counts(kind, o) && frame.physical(v, t) == o.disk && o.covers(t)
                    })
                });
                prop_assert_eq!(
                    sched.read_conflict(kind, v, start, start + len),
                    scan,
                    "{:?} v={} [{}, {})", kind, v, start, start + len
                );
            }
        }
        let display = ActiveFragmentedDisplay {
            object: ObjectId(0),
            start_disk: 0,
            degree: frags.len() as u32,
            subobjects,
            virtual_disks: frags.iter().map(|&(v, _)| v).collect(),
            read_start: frags.iter().map(|&(_, base)| base).collect(),
            delivery_start: frags.iter().map(|&(_, base)| base).max().unwrap_or(0),
        };
        prop_assert_eq!(
            sched.lost_reads(&display, now),
            scan_lost_reads(&frame, &outages, &frags, subobjects, now)
        );
        for o in &outages {
            prop_assert_eq!(
                sched.lost_reads_to(&display, now, o),
                scan_lost_reads(&frame, std::slice::from_ref(o), &frags, subobjects, now)
            );
        }
    }
}

/// `no_pass_before` bounds the first interval at which `plan` can pass:
/// over random horizons, hard and soft windows (open at the query or
/// later), parity on and off, and stationary, even-sharing and arbitrary
/// strides, `plan` fails under both policies at every interval from the
/// query up to the bound (the query interval itself included). With no
/// window, a contiguous bound inside the scan's reach is exact: `plan`
/// passes there. Some cases must sleep past `now + 1`, or the check would
/// be vacuous.
#[test]
fn no_pass_before_bounds_the_first_passing_plan() {
    const CASES: u64 = 2_000;
    let mut rng = proptest::TestRng::new(0x51ee9);
    let (mut slept, mut exact) = (0u64, 0u64);
    for case in 0..CASES {
        let class = rng.below(3);
        let d = match class {
            1 => 2 * (1 + rng.below(12)),
            _ => 1 + rng.below(24),
        } as u32;
        let k = match class {
            0 => d * rng.below(3) as u32,        // stationary, 0 included
            1 => 2 * (1 + rng.below(20)) as u32, // shares a factor with D
            _ => rng.below(40) as u32,
        };
        let frame = VirtualFrame::new(d, k);
        let now = 30 + rng.below(30);
        let mut sched = IntervalScheduler::new(frame);
        for v in 0..d {
            sched.set_free_from(v, rng.below(now + 80));
        }
        sched.retire(now);
        let windows = rng.below(4);
        for _ in 0..windows {
            let from = rng.below(now + 40);
            sched.add_outage(Outage {
                disk: rng.below(u64::from(d)) as u32,
                from,
                until: from + rng.below(80),
                hard: rng.below(2) == 0,
            });
        }
        if rng.below(2) == 0 {
            sched.set_parity_group(Some(1 + rng.below(4) as u32));
        }
        let start = rng.below(u64::from(d)) as u32;
        let degree = 1 + rng.below(u64::from(d.min(6))) as u32;
        let subobjects = 1 + rng.below(40) as u32;
        let fragmented = AdmissionPolicy::Fragmented {
            max_buffer_fragments: rng.below(30),
            max_delay_intervals: rng.below(10),
        };
        for policy in [AdmissionPolicy::Contiguous, fragmented] {
            let bound = sched.no_pass_before(now, start, degree, subobjects, policy);
            let plan = |t| sched.plan(t, ObjectId(0), start, degree, subobjects, policy);
            for t in now..bound.min(now + 1_000) {
                assert!(
                    plan(t).is_err(),
                    "case {case}: D={d} k={k} start={start} M={degree} n={subobjects} \
                     {policy:?} {:?} parity {:?}: bound {bound} from {now}, \
                     but plan passes at {t}",
                    sched.outages(),
                    sched.parity_group(),
                );
            }
            slept += u64::from(bound > now + 1);
            if policy == AdmissionPolicy::Contiguous
                && windows == 0
                && bound < now + frame.period().min(NO_PASS_SCAN_CAP)
            {
                assert!(
                    plan(bound).is_ok(),
                    "case {case}: D={d} k={k} start={start} M={degree}: \
                     the scan found {bound}, where plan fails"
                );
                exact += 1;
            }
        }
    }
    assert!(slept > CASES / 4, "only {slept} bounds lie past now + 1");
    assert!(exact > CASES / 20, "only {exact} scans found a free start");
}

/// Why the reference model refuses a contiguous plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// Degraded planning is off, or the inflated layout does not fit.
    Unarmed,
    /// A member is busy.
    Busy,
    /// A member reads through a slow episode.
    Slow,
    /// Two members of one group are lost in the same interval.
    DoubleLoss,
    /// A needed companion is busy, or sits over an open window at one of
    /// its group's lost intervals.
    Companion,
}

/// A farm for the degraded-planning model: its frame, the busy horizon of
/// every virtual disk, its windows and its parity group.
struct ModelFarm {
    frame: VirtualFrame,
    free_from: Vec<u64>,
    outages: Vec<Outage>,
    parity: Option<u32>,
}

impl ModelFarm {
    /// True when physical disk `p` lies in an open window that `kind`
    /// counts at interval `t`.
    fn down(&self, kind: WindowKind, p: u32, t: u64) -> bool {
        self.outages
            .iter()
            .any(|o| counts(kind, o) && o.disk == p && o.covers(t))
    }

    /// The intervals of `span` at which virtual disk `v` sits over a disk
    /// in an open window that `kind` counts.
    fn visits(&self, kind: WindowKind, v: u32, span: std::ops::Range<u64>) -> Vec<u64> {
        span.filter(|&t| self.down(kind, self.frame.physical(v, t), t))
            .collect()
    }

    /// `plan(now, …, Contiguous)` by brute force: the clean count first,
    /// then degraded planning, interval by interval. A refusal carries
    /// the clean count and its cause.
    fn plan(
        &self,
        now: u64,
        start: u32,
        degree: u32,
        subobjects: u32,
    ) -> std::result::Result<AdmissionGrant, (u32, Refusal)> {
        let d = self.frame.disks();
        let span = now..now + u64::from(subobjects);
        let members: Vec<u32> = (0..degree)
            .map(|i| self.frame.virtual_of((start + i) % d, now))
            .collect();
        let busy = |v: u32| self.free_from[v as usize] > now;
        let free = members
            .iter()
            .filter(|&&v| !busy(v) && self.visits(WindowKind::Any, v, span.clone()).is_empty())
            .count() as u32;
        let grant = |companions, reconstructed| AdmissionGrant {
            object: ObjectId(0),
            virtual_disks: members.clone(),
            read_start: vec![now; degree as usize],
            delivery_start: now,
            end_interval: span.end,
            buffer_fragments: 0,
            parity_companions: companions,
            reconstructed_intervals: reconstructed,
        };
        if free == degree {
            return Ok(grant(Vec::new(), 0));
        }
        let refuse = |why| Err((free, why));
        let Some(group) = self.parity else {
            return refuse(Refusal::Unarmed);
        };
        let groups = degree.div_ceil(group);
        if !self.outages.iter().any(|o| o.hard) || degree + groups > d {
            return refuse(Refusal::Unarmed);
        }
        if members.iter().any(|&v| busy(v)) {
            return refuse(Refusal::Busy);
        }
        if members
            .iter()
            .any(|&v| !self.visits(WindowKind::Soft, v, span.clone()).is_empty())
        {
            return refuse(Refusal::Slow);
        }
        let lost: Vec<Vec<u64>> = members
            .iter()
            .map(|&v| self.visits(WindowKind::Hard, v, span.clone()))
            .collect();
        let mut companions = Vec::new();
        for q in 0..groups {
            let group_lost = &lost[(q * group) as usize..degree.min((q + 1) * group) as usize];
            let lost_at = |t: u64| group_lost.iter().filter(|l| l.contains(&t)).count();
            if span.clone().any(|t| lost_at(t) >= 2) {
                return refuse(Refusal::DoubleLoss);
            }
            if group_lost.iter().all(|l| l.is_empty()) {
                continue;
            }
            let v_p = self.frame.virtual_of((start + degree + q) % d, now);
            let exposed = span.clone().any(|t| {
                lost_at(t) > 0 && self.down(WindowKind::Any, self.frame.physical(v_p, t), t)
            });
            if busy(v_p) || exposed {
                return refuse(Refusal::Companion);
            }
            companions.push(v_p);
        }
        // The clean count failed with every member free and clear of slow
        // disks, so some read is lost.
        let reconstructed = lost.iter().map(|l| l.len() as u64).sum();
        assert!(reconstructed > 0, "a clean refusal lost no read");
        Ok(grant(companions, reconstructed))
    }
}

/// Contiguous `plan` agrees with [`ModelFarm::plan`], a brute-force
/// per-interval model of degraded planning: the same grant field by
/// field, or a refusal with the same clean count. Frames share a factor
/// with their stride (`gcd(D, k) > 1`, stationary ones included), hard
/// windows come in node-like runs beside single hard and slow windows,
/// and the parity group is 1–4. Each refusal cause and degraded grants
/// must all occur, or the check would be vacuous.
#[test]
fn degraded_contiguous_plans_match_the_reference_model() {
    const CASES: u64 = 1_500;
    let mut rng = proptest::TestRng::new(0xdea7);
    let mut seen: std::collections::BTreeMap<String, u64> = Default::default();
    for case in 0..CASES {
        let g = 2 + rng.below(3) as u32;
        let d = g * (1 + rng.below(8) as u32);
        let k = g * rng.below(12) as u32;
        let frame = VirtualFrame::new(d, k);
        let mut farm = ModelFarm {
            frame,
            free_from: (0..d)
                .map(|_| if rng.below(8) == 0 { rng.below(60) } else { 0 })
                .collect(),
            outages: Vec::new(),
            parity: Some(1 + rng.below(4) as u32),
        };
        for _ in 0..rng.below(3) {
            let first = rng.below(u64::from(d)) as u32;
            let count = 1 + rng.below(u64::from(d) / 2) as u32;
            let from = rng.below(40);
            let until = from + 1 + rng.below(60);
            farm.outages
                .extend(node_run(first..d.min(first + count), from, until));
        }
        for _ in 0..rng.below(4) {
            let from = rng.below(40);
            farm.outages.push(Outage {
                disk: rng.below(u64::from(d)) as u32,
                from,
                until: from + 1 + rng.below(40),
                hard: rng.below(3) != 0,
            });
        }
        let mut sched = IntervalScheduler::new(frame);
        for (v, &h) in farm.free_from.iter().enumerate() {
            sched.set_free_from(v as u32, h);
        }
        for &o in &farm.outages {
            sched.add_outage(o);
        }
        sched.set_parity_group(farm.parity);
        for _ in 0..6 {
            let now = rng.below(50);
            let start = rng.below(u64::from(d)) as u32;
            let degree = 1 + rng.below(u64::from(d.min(8))) as u32;
            let subobjects = 1 + rng.below(2 * frame.period() + 6) as u32;
            let got = sched.plan(
                now,
                ObjectId(0),
                start,
                degree,
                subobjects,
                AdmissionPolicy::Contiguous,
            );
            let want = farm.plan(now, start, degree, subobjects);
            let label = match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g, w, "case {case}: D={d} k={k} {:?}", farm.outages);
                    if w.reconstructed_intervals > 0 {
                        "degraded grant".to_string()
                    } else {
                        "clean grant".to_string()
                    }
                }
                (Err(Error::AdmissionRejected { needed, free, .. }), Err((want_free, why))) => {
                    assert_eq!(
                        (*needed, *free),
                        (degree, *want_free),
                        "case {case}: D={d} k={k} refused for {why:?}"
                    );
                    format!("{why:?}")
                }
                _ => panic!(
                    "case {case}: D={d} k={k} parity {:?} start={start} M={degree} \
                     n={subobjects} at {now} over {:?}: plan {got:?}, model {want:?}",
                    farm.parity, farm.outages
                ),
            };
            *seen.entry(label).or_default() += 1;
        }
    }
    for label in [
        "degraded grant",
        "clean grant",
        "Busy",
        "Slow",
        "DoubleLoss",
        "Companion",
    ] {
        assert!(
            seen.get(label).copied().unwrap_or(0) >= 20,
            "too few {label} cases: {seen:?}"
        );
    }
}
