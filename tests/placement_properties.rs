//! Property tests for the placement engines: address bijectivity, exact
//! capacity accounting, and the GCD skew law.

use proptest::prelude::*;
use staggered_striping::core::media::{MediaType, ObjectSpec};
use staggered_striping::core::stride;
use staggered_striping::prelude::*;
use std::collections::HashSet;

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
        let before = map.free_cylinders();
        match map.place_at(&spec, 0) {
            Ok(layout) => {
                let per_disk = layout.fragments_per_disk();
                // Capacity accounting matches the layout arithmetic.
                let used = map.used_cylinders();
                for (disk, (&u, &f)) in used.iter().zip(&per_disk).enumerate() {
                    prop_assert_eq!(u, f, "disk {}", disk);
                }
                map.remove(ObjectId(0)).unwrap();
                prop_assert_eq!(map.free_cylinders(), before);
            }
            Err(Error::DiskFull { .. }) => {
                // Rejection must leave the map untouched.
                prop_assert_eq!(map.free_cylinders(), before);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}

/// One step of the equivalence workload: place a fresh object with some
/// bandwidth/length, or remove an already-seen id.
#[derive(Debug, Clone)]
enum PlacementOp {
    Place { mbps: u64, subobjects: u32 },
    Remove { victim: usize },
}

fn op_strategy() -> impl Strategy<Value = PlacementOp> {
    // 4:1 place:remove mix via a selector draw.
    (0u32..5, 1u64..8, 1u32..60, 0usize..32).prop_map(|(sel, mbps, subobjects, victim)| {
        if sel < 4 {
            PlacementOp::Place { mbps, subobjects }
        } else {
            PlacementOp::Remove { victim }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The lazy (counter-based) engine is observably equivalent to the
    /// materialized (cylinder-allocator) engine: the same operation
    /// sequence produces the same successes, the same *errors* (variant
    /// and every field), the same per-disk used/free cylinders (read whole
    /// and one disk at a time), the same layouts, and the same skew ratio,
    /// parity-free or with a parity group of 1 to 4 inflating every
    /// profile.
    #[test]
    fn lazy_engine_matches_materialized(
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
        let mut lazy = PlacementMap::new(config.clone(), cylinders, cpf).unwrap();
        let mut mat = PlacementMap::new_materialized(config, cylinders, cpf).unwrap();
        prop_assert_eq!(lazy.backend(), PlacementBackend::Lazy);
        prop_assert_eq!(mat.backend(), PlacementBackend::Materialized);
        let mut next_id = 0u32;
        let mut seen: Vec<ObjectId> = Vec::new();
        for op in ops {
            match op {
                PlacementOp::Place { mbps, subobjects } => {
                    let spec = ObjectSpec::new(
                        ObjectId(next_id),
                        MediaType::new("t", Bandwidth::mbps(mbps * 20)),
                        subobjects,
                    );
                    next_id += 1;
                    seen.push(spec.id);
                    let a = lazy.place(&spec);
                    let b = mat.place(&spec);
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
                PlacementOp::Remove { victim } => {
                    let id = seen.get(victim % seen.len().max(1)).copied()
                        .unwrap_or(ObjectId(9999));
                    let a = lazy.remove(id);
                    let b = mat.remove(id);
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
            }
            let used = mat.used_cylinders();
            prop_assert_eq!(&lazy.used_cylinders(), &used);
            for (disk, &u) in used.iter().enumerate() {
                prop_assert_eq!(lazy.used_on(DiskId(disk as u32)), u, "disk {}", disk);
                prop_assert_eq!(mat.used_on(DiskId(disk as u32)), u, "disk {}", disk);
            }
            prop_assert_eq!(lazy.free_cylinders(), mat.free_cylinders());
            prop_assert_eq!(lazy.resident_count(), mat.resident_count());
            prop_assert_eq!(lazy.skew_ratio(), mat.skew_ratio());
            for &id in &seen {
                prop_assert_eq!(lazy.is_resident(id), mat.is_resident(id));
                prop_assert_eq!(lazy.layout(id), mat.layout(id));
            }
        }
    }
}

/// Multiple objects never collide on a cylinder: total used equals the sum
/// of the objects' footprints.
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
