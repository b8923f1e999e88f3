//! Property tests for placement: address bijectivity, capacity accounting
//! checked against a per-fragment reference model, and the GCD skew law.

use proptest::prelude::*;
use staggered_striping::core::media::{MediaType, ObjectSpec};
use staggered_striping::core::stride;
use staggered_striping::prelude::*;
use std::collections::{BTreeMap, HashSet};

fn layout_strategy() -> impl Strategy<Value = StripingLayout> {
    (2u32..60, 0u32..61, 1u32..8, 1u32..200, 0u32..60)
        .prop_filter_map("degree <= disks, start < disks", |(d, k, m, n, s)| {
            (m <= d).then(|| StripingLayout::new(ObjectId(0), s % d, m, n, d, k))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Within one subobject, fragments always land on distinct disks.
    #[test]
    fn fragments_of_a_subobject_are_disjoint(l in layout_strategy()) {
        for i in 0..l.subobjects.min(50) {
            let disks: HashSet<DiskId> = (0..l.degree).map(|j| l.fragment_disk(i, j)).collect();
            prop_assert_eq!(disks.len(), l.degree as usize);
        }
    }

    /// The analytic per-disk fragment count matches brute force and sums
    /// to n × M.
    #[test]
    fn fragments_per_disk_exact(l in layout_strategy()) {
        let analytic = l.fragments_per_disk();
        let mut brute = vec![0u32; l.disks as usize];
        for i in 0..l.subobjects {
            for j in 0..l.degree {
                brute[l.fragment_disk(i, j).index()] += 1;
            }
        }
        prop_assert_eq!(&analytic, &brute);
        let total: u64 = analytic.iter().map(|&c| u64::from(c)).sum();
        prop_assert_eq!(total, l.total_fragments());
    }

    /// GCD law: with gcd(D, k) = 1 and enough subobjects, per-disk loads
    /// differ by at most the degree (perfect balance up to edge effects).
    #[test]
    fn coprime_stride_balances(
        d in 3u32..50,
        k in 1u32..50,
        m in 1u32..5,
        cycles in 1u32..5,
    ) {
        prop_assume!(m <= d);
        prop_assume!(staggered_striping::core::frame::gcd(u64::from(d), u64::from(k % d).max(1)) == 1);
        prop_assume!(k % d != 0);
        let n = d * cycles; // whole number of rotations
        let l = StripingLayout::new(ObjectId(0), 0, m, n, d, k);
        let counts = l.fragments_per_disk();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert_eq!(*min, *max, "whole rotations must balance exactly");
        prop_assert_eq!(*max, m * cycles);
    }

    /// The stride analyzer's footprint equals the brute-force footprint.
    #[test]
    fn disks_touched_matches_layout(l in layout_strategy()) {
        let touched: HashSet<DiskId> = (0..l.subobjects)
            .flat_map(|i| (0..l.degree).map(move |j| (i, j)))
            .map(|(i, j)| l.fragment_disk(i, j))
            .collect();
        prop_assert_eq!(
            stride::disks_touched(l.disks, l.stride, l.degree, l.subobjects),
            touched.len() as u32
        );
    }

    /// Place/remove is fully reversible and capacity accounting is exact.
    #[test]
    fn place_remove_roundtrip(
        d in 4u32..20,
        k in 0u32..21,
        cylinders in 20u32..100,
        mbps in 1u64..8,
        n in 1u32..40,
    ) {
        let config = StripingConfig {
            disks: d,
            stride: k,
            fragment: Bytes::megabytes(1),
            b_disk: Bandwidth::mbps(20),
            parity_group: None,
        };
        let spec = ObjectSpec::new(
            ObjectId(0),
            MediaType::new("t", Bandwidth::mbps(mbps * 20)),
            n,
        );
        prop_assume!(spec.degree(config.b_disk) <= d);
        let mut map = PlacementMap::new(config, cylinders, 1).unwrap();
        let before = map.used_cylinders();
        match map.place_at(&spec, 0) {
            Ok(layout) => {
                let per_disk = layout.fragments_per_disk();
                // Capacity accounting matches the layout arithmetic.
                let used = map.used_cylinders();
                for (disk, (&u, &f)) in used.iter().zip(&per_disk).enumerate() {
                    prop_assert_eq!(u, f, "disk {}", disk);
                }
                map.remove(ObjectId(0)).unwrap();
                prop_assert_eq!(map.used_cylinders(), before);
            }
            Err(Error::DiskFull { .. }) => {
                // Rejection must leave the map untouched.
                prop_assert_eq!(map.used_cylinders(), before);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}

/// The reference [`PlacementMap`] is checked against: one used-cylinder
/// counter per disk, charged fragment by fragment. It shares no
/// accounting with the map. It sends fragment `j` of subobject `i`, for
/// the data offsets `0..M` and the parity offsets `M..M + ⌈M/g⌉`, to disk
/// `(s + i·k + j) mod D` one at a time, and checks the disks in disk
/// order, so its `DiskFull` names the lowest over-full disk.
#[derive(Debug)]
struct Model {
    config: StripingConfig,
    cylinders: u32,
    cpf: u32,
    used: Vec<u32>,
    layouts: BTreeMap<ObjectId, StripingLayout>,
    next_start: u32,
    cycle_base: u32,
}

impl Model {
    fn new(config: StripingConfig, cylinders: u32, cpf: u32) -> Self {
        Model {
            used: vec![0; config.disks as usize],
            config,
            cylinders,
            cpf,
            layouts: BTreeMap::new(),
            next_start: 0,
            cycle_base: 0,
        }
    }

    /// Parity fragments per subobject of a degree-`m` object: `⌈m/g⌉`.
    fn parity(&self, m: u32) -> u32 {
        self.config.parity_group.map_or(0, |g| m.div_ceil(g))
    }

    /// The fragments, data and parity, that `layout`'s object stores on
    /// each disk.
    fn bill(&self, layout: &StripingLayout) -> Vec<u32> {
        let (d, k) = (u64::from(self.config.disks), u64::from(self.config.stride));
        let mut bill = vec![0; self.used.len()];
        for i in 0..u64::from(layout.subobjects) {
            for j in 0..u64::from(layout.degree + self.parity(layout.degree)) {
                bill[((u64::from(layout.start_disk) + i * k + j) % d) as usize] += 1;
            }
        }
        bill
    }

    /// The round-robin start: a stationary stride packs each object's
    /// data and parity disks directly after the previous object's; a
    /// rotating stride advances by `k`, and shifts the cycle origin by one
    /// each time it comes back to it. A refused placement moves neither.
    fn place(&mut self, spec: &ObjectSpec) -> Result<StripingLayout> {
        let (d, start) = (self.config.disks, self.next_start);
        let k = self.config.stride % d;
        let (next, base) = if k == 0 {
            let m = spec.degree(self.config.b_disk);
            ((start + m + self.parity(m)) % d, self.cycle_base)
        } else if (start + k) % d == self.cycle_base {
            let base = (self.cycle_base + 1) % d;
            (base, base)
        } else {
            ((start + k) % d, self.cycle_base)
        };
        let layout = self.place_at(spec, start)?;
        self.next_start = next;
        self.cycle_base = base;
        Ok(layout)
    }

    fn place_at(&mut self, spec: &ObjectSpec, start: u32) -> Result<StripingLayout> {
        if self.layouts.contains_key(&spec.id) {
            return Err(Error::InvalidState {
                reason: format!("object {} is already placed", spec.id),
            });
        }
        let c = &self.config;
        let m = spec.degree(c.b_disk);
        if m + self.parity(m) > c.disks {
            return Err(Error::BandwidthUnsatisfiable {
                object: spec.id,
                required: spec.media.display_bandwidth,
                available: c.b_disk * u64::from(c.disks),
            });
        }
        let layout = StripingLayout::new(
            spec.id,
            start % c.disks,
            m,
            spec.subobjects,
            c.disks,
            c.stride,
        );
        let bill = self.bill(&layout);
        for (disk, (&frags, &used)) in bill.iter().zip(&self.used).enumerate() {
            let need = u64::from(frags) * u64::from(self.cpf);
            if u64::from(used) + need > u64::from(self.cylinders) {
                return Err(Error::DiskFull {
                    disk: DiskId(disk as u32),
                    requested: self.config.fragment * u64::from(frags),
                    available: self.config.fragment / u64::from(self.cpf)
                        * u64::from(self.cylinders - used),
                });
            }
        }
        for (used, frags) in self.used.iter_mut().zip(bill) {
            *used += frags * self.cpf;
        }
        self.layouts.insert(spec.id, layout);
        Ok(layout)
    }

    fn remove(&mut self, id: ObjectId) -> Result<()> {
        let layout = self.layouts.remove(&id).ok_or(Error::NotResident(id))?;
        let bill = self.bill(&layout);
        for (used, frags) in self.used.iter_mut().zip(bill) {
            *used -= frags * self.cpf;
        }
        Ok(())
    }

    /// `max/mean` of the per-disk use, 1.0 on an empty farm.
    fn skew_ratio(&self) -> f64 {
        let max = self.used.iter().copied().max().unwrap_or(0);
        let total: u64 = self.used.iter().map(|&u| u64::from(u)).sum();
        match total {
            0 => 1.0,
            _ => f64::from(max) / (total as f64 / self.used.len() as f64),
        }
    }
}

/// Checks that `map` and `model` agree on every observable: the per-disk
/// use, read whole and one disk at a time, the skew ratio, and the
/// resident set with every layout.
fn agree(map: &PlacementMap, model: &Model) -> TestCaseResult {
    prop_assert_eq!(&map.used_cylinders(), &model.used);
    for (disk, &u) in model.used.iter().enumerate() {
        prop_assert_eq!(map.used_on(DiskId(disk as u32)), u, "disk {}", disk);
    }
    prop_assert_eq!(map.skew_ratio(), model.skew_ratio());
    let mut resident: Vec<ObjectId> = map.resident_ids().collect();
    resident.sort();
    prop_assert_eq!(resident.len(), map.resident_count());
    prop_assert!(resident.iter().eq(model.layouts.keys()));
    for (&id, &layout) in &model.layouts {
        prop_assert!(map.is_resident(id));
        prop_assert_eq!(map.layout(id), Some(layout));
    }
    Ok(())
}

/// One step of the model-check workload: place a fresh object with some
/// bandwidth/length, at the round-robin start or at an explicit one, or
/// remove an already-seen id.
#[derive(Debug, Clone)]
enum PlacementOp {
    Place {
        mbps: u64,
        subobjects: u32,
        start: Option<u32>,
    },
    Remove {
        victim: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = PlacementOp> {
    // 4:1 place:remove, the places split evenly between the round-robin
    // start and a start drawn up to twice the widest farm, so the
    // property itself drives footprints that wrap past disk D − 1.
    (0u32..10, 1u64..8, 1u32..60, 0usize..32, 0u32..48).prop_map(
        |(sel, mbps, subobjects, victim, start)| match sel {
            0..=3 => PlacementOp::Place {
                mbps,
                subobjects,
                start: None,
            },
            4..=7 => PlacementOp::Place {
                mbps,
                subobjects,
                start: Some(start),
            },
            _ => PlacementOp::Remove { victim },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The placement map is observably equal to the per-fragment model:
    /// the same operation sequence produces the same successes, the same
    /// *errors* (variant and every field), the same per-disk use, the
    /// same resident set and layouts, and the same skew ratio,
    /// parity-free or with a parity group of 1 to 4 inflating every
    /// profile.
    #[test]
    fn placement_matches_the_reference_model(
        d in 4u32..24,
        k in 0u32..25,
        cylinders in 10u32..80,
        cpf in 1u32..3,
        group in 0u32..5,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let config = StripingConfig {
            disks: d,
            stride: k,
            fragment: Bytes::megabytes(2),
            b_disk: Bandwidth::mbps(20),
            parity_group: (group > 0).then_some(group),
        };
        let mut map = PlacementMap::new(config.clone(), cylinders, cpf).unwrap();
        let mut model = Model::new(config, cylinders, cpf);
        let mut next_id = 0u32;
        let mut seen: Vec<ObjectId> = Vec::new();
        for op in ops {
            match op {
                PlacementOp::Place { mbps, subobjects, start } => {
                    let spec = ObjectSpec::new(
                        ObjectId(next_id),
                        MediaType::new("t", Bandwidth::mbps(mbps * 20)),
                        subobjects,
                    );
                    next_id += 1;
                    seen.push(spec.id);
                    let (a, b) = match start {
                        Some(s) => (map.place_at(&spec, s), model.place_at(&spec, s)),
                        None => (map.place(&spec), model.place(&spec)),
                    };
                    prop_assert_eq!(a, b);
                }
                PlacementOp::Remove { victim } => {
                    let id = seen.get(victim % seen.len().max(1)).copied()
                        .unwrap_or(ObjectId(9999));
                    prop_assert_eq!(map.remove(id), model.remove(id));
                }
            }
            agree(&map, &model)?;
        }
    }
}

/// Many objects share the farm: total used equals the sum of the objects'
/// footprints.
#[test]
fn many_objects_share_the_farm_without_collisions() {
    let config = StripingConfig {
        disks: 12,
        stride: 1,
        fragment: Bytes::megabytes(1),
        b_disk: Bandwidth::mbps(20),
        parity_group: None,
    };
    let mut map = PlacementMap::new(config, 500, 1).unwrap();
    let mut expected = 0u32;
    for i in 0..30u32 {
        let spec = ObjectSpec::new(
            ObjectId(i),
            MediaType::new("m", Bandwidth::mbps(20 * (1 + u64::from(i % 3)))),
            10 + i,
        );
        let layout = map.place(&spec).unwrap();
        expected += layout.degree * layout.subobjects;
    }
    let used: u32 = map.used_cylinders().iter().sum();
    assert_eq!(used, expected);
    assert_eq!(map.resident_count(), 30);
    // Remove every other object; accounting stays exact.
    for i in (0..30u32).step_by(2) {
        map.remove(ObjectId(i)).unwrap();
    }
    let used_after: u32 = map.used_cylinders().iter().sum();
    assert!(used_after < used);
    assert_eq!(map.resident_count(), 15);
}

fn spec(id: u32, mbps: u64, subobjects: u32) -> ObjectSpec {
    ObjectSpec::new(
        ObjectId(id),
        MediaType::new(format!("m{mbps}"), Bandwidth::mbps(mbps)),
        subobjects,
    )
}

/// A map and the model over one configuration of 1.512 MB one-cylinder
/// fragments on 20 mbps disks.
fn pair(
    disks: u32,
    stride: u32,
    parity_group: Option<u32>,
    cylinders: u32,
) -> (PlacementMap, Model) {
    let config = StripingConfig {
        disks,
        stride,
        fragment: Bytes::new(1_512_000),
        b_disk: Bandwidth::mbps(20),
        parity_group,
    };
    (
        PlacementMap::new(config.clone(), cylinders, 1).unwrap(),
        Model::new(config, cylinders, 1),
    )
}

/// A run of the profile that crosses disk `D − 1 → 0` splits into two
/// slices, and the wrapped half is checked first: the error names the
/// lowest over-full disk, as the model's disk-order scan does, although
/// the unwrapped half (disk 11) is over-full too.
#[test]
fn wrapped_run_reports_the_lowest_over_full_disk() {
    // Stride 1: M = 3, n = 2 from disk 0 puts 1, 2, 2, 1 fragments on
    // disks 0..4, so from disk 10 the run of 2s covers disks 11 and 0.
    // The stationary stride 12 puts 2 on each of disks 10, 11 and 0.
    for stride in [1, 12] {
        let (mut map, mut model) = pair(12, stride, None, 10);
        let mut id = 0;
        for disk in [0, 10, 11] {
            for _ in 0..9 {
                // One subobject of degree 1: one fragment on `disk`.
                let s = spec(id, 20, 1);
                assert_eq!(map.place_at(&s, disk), model.place_at(&s, disk));
                id += 1;
            }
        }
        let before = map.used_cylinders();
        let big = spec(id, 60, 2);
        let a = map.place_at(&big, 10);
        assert_eq!(a, model.place_at(&big, 10), "stride {stride}");
        assert_eq!(
            a,
            Err(Error::DiskFull {
                disk: DiskId(0),
                requested: Bytes::new(2 * 1_512_000),
                available: Bytes::new(1_512_000),
            }),
            "stride {stride}"
        );
        assert_eq!(map.used_cylinders(), before);
        agree(&map, &model).unwrap();
    }
}

/// At `farm_100k`'s shape (D = 100,000, k = 5, M = 5, n = 3,000, 3,000
/// cylinders) the slices account exactly like the model over round-robin
/// placements, a few starts whose footprint wraps past disk 99,999, and
/// removes that keep at most 17 objects resident.
#[test]
fn farm_100k_shape_matches_the_model() {
    let (mut map, mut model) = pair(100_000, 5, None, 3000);
    let mut resident: Vec<ObjectId> = Vec::new();
    for i in 0..200u32 {
        let s = spec(i, 100, 3000);
        let (a, b) = if i % 20 == 19 {
            let start = 86_000 + 700 * (i / 20);
            (map.place_at(&s, start), model.place_at(&s, start))
        } else {
            (map.place(&s), model.place(&s))
        };
        assert_eq!(a, b, "object {i}");
        resident.push(s.id);
        if resident.len() > 16 {
            let victim = resident.swap_remove(i as usize * 7 % resident.len());
            assert_eq!(map.remove(victim), model.remove(victim));
        }
        if i % 25 == 24 {
            assert_eq!(map.used_cylinders(), model.used, "object {i}");
        }
    }
    agree(&map, &model).unwrap();
}

/// The map's DiskFull error carries the same disk, requested, and
/// available fields as the model's scan.
#[test]
fn disk_full_error_matches_the_model() {
    let (mut map, mut model) = pair(12, 1, None, 10);
    // Partially fill, then overflow with a big object.
    let small = spec(0, 60, 20); // 60 fragments
    assert_eq!(
        map.place_at(&small, 0).unwrap(),
        model.place_at(&small, 0).unwrap()
    );
    let big = spec(1, 60, 48); // 144 fragments > remaining 60
    let a = map.place_at(&big, 3);
    assert_eq!(a, model.place_at(&big, 3));
    assert!(matches!(a, Err(Error::DiskFull { .. })));
    agree(&map, &model).unwrap();
}

#[test]
fn parity_capacity_matches_the_model() {
    let (mut map, mut model) = pair(9, 3, Some(3), 50);
    for (i, start) in [(0u32, 0u32), (1, 3), (2, 7)] {
        let s = spec(i, 60, 9); // M = 3 + 1 parity
        assert_eq!(
            map.place_at(&s, start).unwrap(),
            model.place_at(&s, start).unwrap()
        );
    }
    agree(&map, &model).unwrap();
    map.remove(ObjectId(1)).unwrap();
    model.remove(ObjectId(1)).unwrap();
    agree(&map, &model).unwrap();
}

/// A stationary (non-uniform-profile) layout goes through the map's
/// skewed path and still accounts exactly.
#[test]
fn skewed_path_accounts_exactly() {
    let (mut map, mut model) = pair(10, 10, None, 1000); // k ≡ 0 mod D: stationary
    for (i, start) in [(0u32, 0u32), (1, 4), (2, 7)] {
        let s = spec(i, 40, 30); // M=2, stationary pair of disks
        assert_eq!(
            map.place_at(&s, start).unwrap(),
            model.place_at(&s, start).unwrap()
        );
    }
    agree(&map, &model).unwrap();
    map.remove(ObjectId(1)).unwrap();
    model.remove(ObjectId(1)).unwrap();
    agree(&map, &model).unwrap();
}

/// Under a stationary stride, round-robin starts pack each object's data
/// *and* parity disks side by side, so no object's data lands on the
/// previous object's parity disks.
#[test]
fn stationary_packing_skips_the_parity_disks() {
    let (mut map, mut model) = pair(12, 12, Some(3), 100);
    let mut starts = Vec::new();
    for i in 0..3 {
        let s = spec(i, 60, 10); // M = 3 data + 1 parity disk
        let layout = map.place(&s).unwrap();
        assert_eq!(model.place(&s), Ok(layout));
        starts.push(layout.start_disk);
    }
    assert_eq!(starts, [0, 4, 8]);
    assert_eq!(map.used_cylinders(), vec![10; 12]);
    agree(&map, &model).unwrap();
}

/// A refused round-robin placement leaves the map unchanged, the
/// round-robin position and cycle origin included: after a `DiskFull` at
/// the start where a non-coprime stride wraps, the starts continue the
/// sequence an unrefused run takes, through every residue class.
#[test]
fn refused_place_keeps_the_round_robin() {
    // D = 4, k = 2: one cycle visits starts 0 and 2, the next 1 and 3.
    // A degree-1 object of 2 subobjects from start s fills disks s and
    // s + 2.
    let (mut map, mut model) = pair(4, 2, None, 4);
    let mut starts = Vec::new();
    let first = spec(0, 20, 2);
    let layout = map.place(&first).unwrap();
    assert_eq!(model.place(&first), Ok(layout));
    starts.push(layout.start_disk);
    // Fill disks 0 and 2, so the next start (2, where the cycle wraps)
    // is refused.
    let filler = spec(1, 20, 6);
    assert_eq!(map.place_at(&filler, 0), model.place_at(&filler, 0));
    let refused = spec(2, 20, 2);
    let before = map.used_cylinders();
    let a = map.place(&refused);
    assert_eq!(a, model.place(&refused));
    assert!(matches!(a, Err(Error::DiskFull { .. })), "{a:?}");
    assert_eq!(map.used_cylinders(), before);
    assert_eq!(map.remove(filler.id), model.remove(filler.id));
    for id in 2..8 {
        let s = spec(id, 20, 2);
        let layout = map.place(&s).unwrap();
        assert_eq!(model.place(&s), Ok(layout), "object {id}");
        starts.push(layout.start_disk);
    }
    assert_eq!(starts, [0, 2, 1, 3, 2, 0, 3]);
    agree(&map, &model).unwrap();
}
