//! Placement: mapping every fragment of every object onto a disk, and
//! charging each disk's storage capacity.
//!
//! The staggered rule places fragment `j` of subobject `i` of an object
//! whose first subobject starts on disk `s` at physical disk
//! `(s + i·k + j) mod D`. Three classic layouts fall out of the stride:
//!
//! * `k = M` — **simple striping** (§3.1, Figure 1): consecutive
//!   subobjects occupy disjoint, physically adjacent clusters.
//! * `1 ≤ k < M` — **staggered striping** proper (§3.2, Figures 4 and 5):
//!   consecutive subobjects overlap, shifted by `k`.
//! * `k ≡ 0 (mod D)` — the stationary layout underlying **virtual data
//!   replication**: every subobject lands on the same `M` disks.
//!
//! [`StripingLayout`] is the pure address arithmetic; [`PlacementMap`]
//! additionally counts the cylinders in use on each disk so residency
//! decisions respect storage capacity.

use crate::media::ObjectSpec;
use serde::{Deserialize, Serialize};
use ss_types::{Bandwidth, Bytes, DiskId, Error, ObjectId, Result};
use std::collections::HashMap;
use std::ops::Range;

/// System-wide placement parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripingConfig {
    /// Number of disks `D`.
    pub disks: u32,
    /// The stride `k` (distance between first fragments of consecutive
    /// subobjects). `k % D == 0` gives the stationary layout.
    pub stride: u32,
    /// Global fragment size (the same for every media type; §3.2).
    pub fragment: Bytes,
    /// Effective per-disk bandwidth `B_disk` used to derive degrees of
    /// declustering.
    pub b_disk: Bandwidth,
    /// Optional parity-group size `g`: when set, every subobject carries
    /// one rotated (RAID-5 style) parity fragment per `g` data fragments,
    /// placed at rotational offsets `M..M + ceil(M/g)` past the
    /// subobject's first fragment — the same staggered arithmetic as the
    /// data, so the parity of group `q` keeps a constant virtual disk for
    /// the display's whole window. `None` (the default, and what every
    /// serialized seed config deserializes to) is the paper's parity-free
    /// layout, byte-identical to the baseline.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parity_group: Option<u32>,
}

impl StripingConfig {
    /// The §4 simulation configuration: `D = 1000`, `k = 5` (simple
    /// striping: the stride equals the degree of the single media type),
    /// one-cylinder fragments of 1.512 MB, `B_disk = 20 mbps`.
    pub fn table3() -> Self {
        StripingConfig {
            disks: 1000,
            stride: 5,
            fragment: Bytes::new(1_512_000),
            b_disk: Bandwidth::mbps(20),
            parity_group: None,
        }
    }

    /// Parity fragments per subobject for a degree-`degree` object:
    /// `ceil(degree / g)` when a parity group is configured, else 0.
    pub fn parity_fragments(&self, degree: u32) -> u32 {
        match self.parity_group {
            Some(g) => degree.div_ceil(g),
            None => 0,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.disks == 0 {
            return Err(Error::InvalidConfig {
                reason: "no disks".into(),
            });
        }
        if self.fragment.is_zero() {
            return Err(Error::InvalidConfig {
                reason: "zero fragment size".into(),
            });
        }
        if self.b_disk.is_zero() {
            return Err(Error::InvalidConfig {
                reason: "zero disk bandwidth".into(),
            });
        }
        if self.parity_group == Some(0) {
            return Err(Error::InvalidConfig {
                reason: "parity group must cover at least one fragment".into(),
            });
        }
        Ok(())
    }
}

/// Pure address arithmetic for one placed object.
///
/// ```
/// use ss_core::placement::StripingLayout;
/// use ss_types::{DiskId, ObjectId};
///
/// // Figure 4: 8 disks, stride 1, M = 3, starting on disk 0.
/// let x = StripingLayout::new(ObjectId(0), 0, 3, 8, 8, 1);
/// assert_eq!(x.fragment_disk(0, 0), DiskId(0));
/// assert_eq!(x.fragment_disk(1, 0), DiskId(1)); // shifted by the stride
/// assert_eq!(x.fragment_disk(7, 1), DiskId(0)); // wraps around the farm
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripingLayout {
    /// The object this layout describes.
    pub object: ObjectId,
    /// Disk of fragment `X_{0.0}`.
    pub start_disk: u32,
    /// Degree of declustering `M`.
    pub degree: u32,
    /// Number of subobjects `n`.
    pub subobjects: u32,
    /// Total disks `D`.
    pub disks: u32,
    /// Stride `k` (already reduced mod `D`).
    pub stride: u32,
}

impl StripingLayout {
    /// Builds the layout. Panics if the degree exceeds the farm size.
    pub fn new(
        object: ObjectId,
        start_disk: u32,
        degree: u32,
        subobjects: u32,
        disks: u32,
        stride: u32,
    ) -> Self {
        assert!(
            degree >= 1 && degree <= disks,
            "degree {degree} vs {disks} disks"
        );
        assert!(start_disk < disks);
        StripingLayout {
            object,
            start_disk,
            degree,
            subobjects,
            disks,
            stride: stride % disks,
        }
    }

    /// The physical disk holding fragment `X_{sub.frag}`:
    /// `(start + sub·k + frag) mod D`.
    pub fn fragment_disk(&self, sub: u32, frag: u32) -> DiskId {
        debug_assert!(sub < self.subobjects, "subobject {sub} out of range");
        debug_assert!(frag < self.degree, "fragment {frag} out of range");
        let d = u64::from(self.disks);
        let pos = (u64::from(self.start_disk)
            + u64::from(sub) * u64::from(self.stride)
            + u64::from(frag))
            % d;
        DiskId(pos as u32)
    }

    /// How many fragments of this object land on each disk (length-`D`
    /// vector).
    ///
    /// Subobject `i` covers the `M` disks from `(s + i·k) mod D`, and that
    /// first disk repeats with period `P = D / gcd(D, k)` (`P = 1` for the
    /// stationary `k ≡ 0`). So one walk over the first `min(n, P)`
    /// subobjects, in steps of `+k`, adds each footprint once, weighted by
    /// how many of the `n` subobjects share its residue mod `P`:
    /// O(min(n, P)·M + D). The `M ≤ D` fragments of a subobject land on
    /// distinct disks, so no count exceeds `n`.
    pub fn fragments_per_disk(&self) -> Vec<u32> {
        let d = self.disks;
        let k = self.stride % d;
        let period = d / crate::frame::gcd(u64::from(k), u64::from(d)) as u32;
        let (full_cycles, remainder) = (self.subobjects / period, self.subobjects % period);
        let mut counts = vec![0u32; d as usize];
        let mut first = self.start_disk % d;
        for i in 0..self.subobjects.min(period) {
            let weight = full_cycles + u32::from(i < remainder);
            let mut disk = first;
            for _ in 0..self.degree {
                counts[disk as usize] += weight;
                disk = if disk + 1 == d { 0 } else { disk + 1 };
            }
            first = if first >= d - k {
                first - (d - k)
            } else {
                first + k
            };
        }
        counts
    }

    /// Total fragments of the object.
    pub fn total_fragments(&self) -> u64 {
        u64::from(self.subobjects) * u64::from(self.degree)
    }

    /// The layout inflated by `extra` trailing rotational offsets per
    /// subobject — how parity fragments are addressed: parity fragment
    /// `q` of subobject `i` lives at `(start + i·k + M + q) mod D`,
    /// i.e. fragment `M + q` of the inflated layout. With `extra == 0`
    /// this is the identity.
    pub fn with_parity(&self, extra: u32) -> StripingLayout {
        StripingLayout::new(
            self.object,
            self.start_disk,
            self.degree + extra,
            self.subobjects,
            self.disks,
            self.stride,
        )
    }
}

/// One maximal run of a start-0 profile: disks `start..end` each receive
/// `count > 0` fragments.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    end: u32,
    count: u32,
}

/// The fragment-count profile a [`PlacementMap`] caches per
/// `(degree, subobjects)` class, for a start disk of 0. A start-`s`
/// layout's `fragments_per_disk` is this profile rotated by `s`, so one
/// O(min(n, P)·M + D) build (see [`StripingLayout::fragments_per_disk`])
/// serves every object of the class, and the profile keeps only its runs.
#[derive(Debug, Clone)]
struct Profile {
    /// `Some(c)` iff every disk receives exactly `c` fragments — then
    /// placement is rotation-invariant and commits in O(1).
    uniform: Option<u32>,
    /// The maximal runs of equal nonzero count, in disk order; disks
    /// outside every run receive nothing.
    runs: Vec<Run>,
}

/// A placement map over the whole farm: layouts plus per-disk
/// used-cylinder counters.
///
/// A fragment fits wherever its disk has `cylinders_per_fragment` free
/// cylinders, so the counters alone decide every placement and no
/// cylinder addresses are stored. Placements whose fragment-count profile
/// is rotation-uniform commit in O(1); the others check and commit a few
/// disk slices covering only the disks they occupy.
/// `tests/placement_properties.rs` checks every operation against a model
/// that charges each fragment at `(s + i·k + j) mod D` one by one.
#[derive(Debug, Clone)]
pub struct PlacementMap {
    config: StripingConfig,
    cylinders_per_fragment: u32,
    cylinders: u32,
    /// Used cylinders contributed equally to *every* disk by
    /// uniform-profile placements.
    uniform_used: u32,
    /// Per-disk used cylinders from non-uniform placements.
    skewed_used: Vec<u32>,
    /// An upper bound on `max(skewed_used)` for the O(1) uniform
    /// feasibility check. Commits keep it exact and removes leave it, so
    /// a remove stays a slice subtract; a uniform check that fails on the
    /// bound alone tightens it with one pass over `skewed_used`.
    max_skewed_used: u32,
    /// Start-0 profiles keyed by `(degree, subobjects)`.
    profiles: HashMap<(u32, u32), Profile>,
    layouts: HashMap<ObjectId, StripingLayout>,
    next_start: u32,
    /// First start of the current round-robin cycle; bumped by one when a
    /// non-coprime stride wraps, so successive cycles cover *all* residues
    /// instead of locking onto multiples of `gcd(D, k)`.
    cycle_base: u32,
}

impl PlacementMap {
    /// Creates an empty map over drives with `cylinders` cylinders each.
    /// `cylinders_per_fragment` is how many cylinders one fragment spans
    /// (1 in the Table 3 configuration, 2 for the §3.1 "two-cylinder
    /// fragments" variant).
    pub fn new(
        config: StripingConfig,
        cylinders: u32,
        cylinders_per_fragment: u32,
    ) -> Result<Self> {
        config.validate()?;
        if cylinders_per_fragment == 0 {
            return Err(Error::InvalidConfig {
                reason: "fragment must span at least one cylinder".into(),
            });
        }
        Ok(PlacementMap {
            skewed_used: vec![0; config.disks as usize],
            config,
            cylinders_per_fragment,
            cylinders,
            uniform_used: 0,
            max_skewed_used: 0,
            profiles: HashMap::new(),
            layouts: HashMap::new(),
            next_start: 0,
            cycle_base: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &StripingConfig {
        &self.config
    }

    /// Number of placed (resident) objects.
    pub fn resident_count(&self) -> usize {
        self.layouts.len()
    }

    /// True iff `id` is placed.
    pub fn is_resident(&self, id: ObjectId) -> bool {
        self.layouts.contains_key(&id)
    }

    /// The layout of `id`, if resident.
    pub fn layout(&self, id: ObjectId) -> Option<StripingLayout> {
        self.layouts.get(&id).copied()
    }

    /// Iterates over resident object ids (arbitrary order).
    pub fn resident_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.layouts.keys().copied()
    }

    /// Places `spec` starting at the next round-robin start disk.
    /// On capacity shortfall the map is left unchanged and an error
    /// identifying the first full disk is returned.
    ///
    /// Start selection balances storage for every stride: a stationary
    /// layout (`k ≡ 0 mod D`) packs objects side by side (VDR-style, each
    /// object's `M + ⌈M/g⌉` data and parity disks directly after the
    /// previous one's); a rotating layout advances by the stride, and
    /// when the start cycles back to its origin (non-coprime strides
    /// revisit only `D/gcd(D,k)` positions) the cycle origin shifts by one
    /// so the next round covers fresh residues.
    pub fn place(&mut self, spec: &ObjectSpec) -> Result<StripingLayout> {
        let d = self.config.disks;
        let k = self.config.stride % d;
        let start = self.next_start;
        // The next start and cycle origin, stored only once the placement
        // succeeds.
        let (next, base) = if k == 0 {
            let degree = spec.degree(self.config.b_disk);
            let next = (start + degree + self.config.parity_fragments(degree)) % d;
            (next, self.cycle_base)
        } else {
            let wrapped = (start + k) % d;
            if wrapped == self.cycle_base {
                let base = (self.cycle_base + 1) % d;
                (base, base)
            } else {
                (wrapped, self.cycle_base)
            }
        };
        let layout = self.place_at(spec, start)?;
        self.next_start = next;
        self.cycle_base = base;
        Ok(layout)
    }

    /// Places `spec` with `X_{0.0}` on `start_disk`.
    pub fn place_at(&mut self, spec: &ObjectSpec, start_disk: u32) -> Result<StripingLayout> {
        if self.is_resident(spec.id) {
            return Err(Error::InvalidState {
                reason: format!("object {} is already placed", spec.id),
            });
        }
        let degree = spec.degree(self.config.b_disk);
        // Parity inflates the per-subobject footprint; the whole inflated
        // stripe must fit the farm.
        let parity = self.config.parity_fragments(degree);
        if degree + parity > self.config.disks {
            return Err(Error::BandwidthUnsatisfiable {
                object: spec.id,
                required: spec.media.display_bandwidth,
                available: self.config.b_disk * u64::from(self.config.disks),
            });
        }
        let layout = StripingLayout::new(
            spec.id,
            start_disk % self.config.disks,
            degree,
            spec.subobjects,
            self.config.disks,
            self.config.stride,
        );
        // Capacity is charged for data *and* parity fragments; the parity
        // offsets follow the same staggered arithmetic, so the inflated
        // layout's fragment profile is exactly the storage bill.
        let cap_layout = layout.with_parity(parity);
        let cpf = self.cylinders_per_fragment;
        let cylinders = u64::from(self.cylinders);
        let cyl_capacity = self.config.fragment / u64::from(cpf);
        let fragment = self.config.fragment;
        // Sums in u64: an absurd fragment span must fail, not overflow.
        // Committed counts stay within `cylinders`.
        let uniform = u64::from(self.uniform_used);
        let used = |skew: u32| uniform + u64::from(skew);
        // The error at the lowest over-full disk `d`, which would take `c`
        // fragments.
        let disk_full = |d: usize, c: u32, skew: u32| Error::DiskFull {
            disk: DiskId(d as u32),
            requested: fragment * u64::from(c),
            available: cyl_capacity * (cylinders - used(skew)),
        };
        let profile = Profile::cached(&mut self.profiles, &cap_layout);
        match profile.uniform {
            Some(c) => {
                // Rotation-invariant: every disk takes the same hit, so one
                // comparison against the fullest disk decides feasibility,
                // and commitment is a single counter bump.
                let need = u64::from(c) * u64::from(cpf);
                if used(self.max_skewed_used) + need > cylinders {
                    // The bound may be stale after removes: either some
                    // disk really is over-full, or the exact maximum fits.
                    let skewed = &self.skewed_used;
                    match skewed.iter().position(|&s| used(s) + need > cylinders) {
                        Some(d) => return Err(disk_full(d, c, skewed[d])),
                        None => self.max_skewed_used = skewed.iter().copied().max().unwrap_or(0),
                    }
                }
                self.uniform_used += need as u32;
            }
            None => {
                // Slices come in disk order, so the first failing slice
                // holds the lowest over-full disk.
                let (start, disks) = (layout.start_disk, self.config.disks);
                let mut peak = 0u64; // max(skewed_used) over the slices once committed
                for (range, c) in profile.slices(start, disks) {
                    let need = u64::from(c) * u64::from(cpf);
                    let slice = &self.skewed_used[range.clone()];
                    let fullest = slice.iter().copied().max().unwrap_or(0);
                    if used(fullest) + need > cylinders {
                        let i = slice
                            .iter()
                            .position(|&s| used(s) + need > cylinders)
                            .expect("the slice's fullest disk is over");
                        return Err(disk_full(range.start + i, c, slice[i]));
                    }
                    peak = peak.max(u64::from(fullest) + need);
                }
                for (range, c) in profile.slices(start, disks) {
                    for skew in &mut self.skewed_used[range] {
                        *skew += c * cpf;
                    }
                }
                self.max_skewed_used = self.max_skewed_used.max(peak as u32);
            }
        }
        self.layouts.insert(spec.id, layout);
        Ok(layout)
    }

    /// Removes `id`, returning its cylinders to the free pools.
    pub fn remove(&mut self, id: ObjectId) -> Result<()> {
        let cpf = self.cylinders_per_fragment;
        let layout = self.layouts.remove(&id).ok_or(Error::NotResident(id))?;
        // Refund exactly what place_at charged: the parity-inflated
        // fragment profile.
        let cap_layout = layout.with_parity(self.config.parity_fragments(layout.degree));
        let profile = Profile::cached(&mut self.profiles, &cap_layout);
        match profile.uniform {
            Some(c) => self.uniform_used -= c * cpf,
            None => {
                // `max_skewed_used` stays an upper bound.
                for (range, c) in profile.slices(layout.start_disk, self.config.disks) {
                    for skew in &mut self.skewed_used[range] {
                        *skew -= c * cpf;
                    }
                }
            }
        }
        Ok(())
    }

    /// Used cylinders on `disk`: `used_cylinders()[disk]` without building
    /// the per-disk vector.
    pub fn used_on(&self, disk: DiskId) -> u32 {
        self.uniform_used + self.skewed_used[disk.index()]
    }

    /// Used cylinders per disk.
    pub fn used_cylinders(&self) -> Vec<u32> {
        (0..self.config.disks)
            .map(|d| self.used_on(DiskId(d)))
            .collect()
    }

    /// The storage-balance ratio `max/mean` of per-disk usage (1.0 is
    /// perfectly balanced; large values betray data skew).
    pub fn skew_ratio(&self) -> f64 {
        let used = self.used_cylinders();
        let max = used.iter().copied().max().unwrap_or(0) as f64;
        let mean = used.iter().map(|&u| u as f64).sum::<f64>() / used.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

impl Profile {
    /// The cached start-0 profile for `layout`'s `(degree, subobjects)`
    /// class, built on first use.
    fn cached<'a>(
        profiles: &'a mut HashMap<(u32, u32), Profile>,
        layout: &StripingLayout,
    ) -> &'a Profile {
        let key = (layout.degree, layout.subobjects);
        profiles.entry(key).or_insert_with(|| {
            let base = StripingLayout::new(
                layout.object,
                0,
                layout.degree,
                layout.subobjects,
                layout.disks,
                layout.stride,
            );
            let counts = base.fragments_per_disk();
            let mut runs: Vec<Run> = Vec::new();
            for (d, &count) in (0u32..).zip(&counts) {
                if count == 0 {
                    continue;
                }
                match runs.last_mut() {
                    Some(run) if run.end == d && run.count == count => run.end += 1,
                    _ => runs.push(Run {
                        start: d,
                        end: d + 1,
                        count,
                    }),
                }
            }
            let uniform = match runs.as_slice() {
                [] => Some(0),
                [run] if run.end - run.start == layout.disks => Some(run.count),
                _ => None,
            };
            Profile { uniform, runs }
        })
    }

    /// The disks a placement starting on disk `start` of a `disks`-disk
    /// farm occupies, as `(disks, count)` slices in disk order: each run
    /// rotated by `start`. A run that crosses disk `disks − 1` splits in
    /// two, and its wrapped half, which lands on the lowest disks, comes
    /// first. At most `runs + 1` slices.
    fn slices(&self, start: u32, disks: u32) -> impl Iterator<Item = (Range<usize>, u32)> + '_ {
        // Start-0 disks at or past `wrap` land on disk `d − wrap`.
        let wrap = disks - start;
        let wrapped = self
            .runs
            .iter()
            .filter(move |r| r.end > wrap)
            .map(move |r| {
                let lo = r.start.max(wrap) - wrap;
                (lo as usize..(r.end - wrap) as usize, r.count)
            });
        let unwrapped = self
            .runs
            .iter()
            .filter(move |r| r.start < wrap)
            .map(move |r| {
                let hi = r.end.min(wrap) + start;
                ((r.start + start) as usize..hi as usize, r.count)
            });
        wrapped.chain(unwrapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaType;

    fn spec(id: u32, mbps: u64, subobjects: u32) -> ObjectSpec {
        ObjectSpec::new(
            ObjectId(id),
            MediaType::new(format!("m{mbps}"), Bandwidth::mbps(mbps)),
            subobjects,
        )
    }

    /// Figure 1: 9 disks, M = 3, simple striping (k = 3).
    #[test]
    fn figure1_simple_striping_layout() {
        let l = StripingLayout::new(ObjectId(0), 0, 3, 6, 9, 3);
        // Subobject 0 on cluster 0 = disks 0,1,2; subobject 1 on 3,4,5; ...
        assert_eq!(l.fragment_disk(0, 0), DiskId(0));
        assert_eq!(l.fragment_disk(0, 2), DiskId(2));
        assert_eq!(l.fragment_disk(1, 0), DiskId(3));
        assert_eq!(l.fragment_disk(2, 1), DiskId(7));
        assert_eq!(l.fragment_disk(3, 0), DiskId(0)); // wraps to cluster 0
    }

    /// Figure 4: 8 disks, stride 1.
    #[test]
    fn figure4_staggered_layout() {
        let l = StripingLayout::new(ObjectId(0), 0, 3, 8, 8, 1);
        assert_eq!(l.fragment_disk(0, 0), DiskId(0));
        assert_eq!(l.fragment_disk(1, 0), DiskId(1));
        assert_eq!(l.fragment_disk(5, 2), DiskId(7));
        assert_eq!(l.fragment_disk(7, 0), DiskId(7));
        assert_eq!(l.fragment_disk(7, 1), DiskId(0)); // wraps
    }

    /// Figure 5: 12 disks, stride 1, X (M=3) starting at disk 4.
    #[test]
    fn figure5_object_x_positions() {
        let x = StripingLayout::new(ObjectId(0), 4, 3, 13, 12, 1);
        // Row "Subobject 0": X0.0 X0.1 X0.2 on disks 4,5,6.
        assert_eq!(x.fragment_disk(0, 0), DiskId(4));
        assert_eq!(x.fragment_disk(0, 2), DiskId(6));
        // Row 8: X8.0 on disk 0 (4+8 = 12 ≡ 0).
        assert_eq!(x.fragment_disk(8, 0), DiskId(0));
        // Z (M=2) starts at disk 7: Z0.0, Z0.1 on 7,8.
        let z = StripingLayout::new(ObjectId(1), 7, 2, 13, 12, 1);
        assert_eq!(z.fragment_disk(0, 0), DiskId(7));
        assert_eq!(z.fragment_disk(0, 1), DiskId(8));
        // Y (M=4) starts at disk 0: Y4.2 on disk 6 (0+4·1+2).
        let y = StripingLayout::new(ObjectId(2), 0, 4, 13, 12, 1);
        assert_eq!(y.fragment_disk(4, 2), DiskId(6));
    }

    #[test]
    fn fragments_per_disk_matches_brute_force() {
        for (d, k, m, n, start) in [
            (9u32, 3u32, 3u32, 17u32, 2u32),
            (12, 1, 4, 50, 7),
            (12, 4, 3, 29, 1),
            (10, 10, 4, 33, 6),
            (10, 0, 2, 5, 9),
            (7, 5, 3, 100, 3),
            (1000, 5, 5, 3000, 0),
            // The farm_100k shape: n = 3,000 below the period of 20,000,
            // from disk 0 and from a start whose footprint wraps.
            (100_000, 5, 5, 3000, 0),
            (100_000, 5, 5, 3000, 93_001),
            // Non-coprime strides with n past the period (500 and 2,500).
            (1000, 6, 4, 1234, 999),
            (100_000, 40, 5, 3000, 99_990),
        ] {
            let l = StripingLayout::new(ObjectId(0), start, m, n, d, k);
            let analytic = l.fragments_per_disk();
            let mut brute = vec![0u32; d as usize];
            for i in 0..n {
                for j in 0..m {
                    brute[l.fragment_disk(i, j).index()] += 1;
                }
            }
            assert_eq!(analytic, brute, "d={d} k={k} m={m} n={n} start={start}");
        }
    }

    #[test]
    fn table3_placement_is_perfectly_balanced() {
        // D=1000, k=5, M=5, n=3000: each disk gets exactly 15 fragments.
        let l = StripingLayout::new(ObjectId(0), 0, 5, 3000, 1000, 5);
        let per = l.fragments_per_disk();
        assert!(per.iter().all(|&c| c == 15), "skewed: {:?}", &per[..10]);
        assert_eq!(l.total_fragments(), 15_000);
    }

    #[test]
    fn stationary_layout_concentrates_on_m_disks() {
        let l = StripingLayout::new(ObjectId(0), 3, 4, 100, 10, 10);
        let per = l.fragments_per_disk();
        for (d, &c) in per.iter().enumerate() {
            if (3..7).contains(&d) {
                assert_eq!(c, 100);
            } else {
                assert_eq!(c, 0);
            }
        }
    }

    fn map(disks: u32, stride: u32, cylinders: u32) -> PlacementMap {
        let config = StripingConfig {
            disks,
            stride,
            fragment: Bytes::new(1_512_000),
            b_disk: Bandwidth::mbps(20),
            parity_group: None,
        };
        PlacementMap::new(config, cylinders, 1).unwrap()
    }

    #[test]
    fn place_and_remove_roundtrip() {
        let mut m = map(12, 1, 100);
        let s = spec(0, 60, 24); // M = 3
        m.place_at(&s, 4).unwrap();
        assert!(m.is_resident(ObjectId(0)));
        assert_eq!(m.resident_count(), 1);
        let used: u32 = m.used_cylinders().iter().sum();
        assert_eq!(used, 72); // 24 subobjects × 3 fragments
        m.remove(ObjectId(0)).unwrap();
        assert_eq!(m.resident_count(), 0);
        assert!(m.used_cylinders().iter().all(|&u| u == 0));
    }

    #[test]
    fn double_place_and_missing_remove_fail() {
        let mut m = map(12, 1, 100);
        let s = spec(0, 60, 12);
        m.place_at(&s, 0).unwrap();
        assert!(matches!(m.place_at(&s, 3), Err(Error::InvalidState { .. })));
        assert_eq!(m.remove(ObjectId(9)), Err(Error::NotResident(ObjectId(9))));
    }

    #[test]
    fn capacity_check_is_atomic() {
        // 12 disks × 10 cylinders = 120 fragments of space; an object
        // needing 144 fragments must fail leaving the map untouched.
        let mut m = map(12, 1, 10);
        let s = spec(0, 60, 48); // 48 × 3 = 144 fragments
        let before = m.used_cylinders();
        assert!(matches!(m.place_at(&s, 0), Err(Error::DiskFull { .. })));
        assert_eq!(m.used_cylinders(), before);
    }

    #[test]
    fn round_robin_start_advances_by_stride() {
        let mut m = map(12, 1, 1000);
        let a = spec(0, 40, 6);
        let b = spec(1, 40, 6);
        m.place(&a).unwrap();
        m.place(&b).unwrap();
        assert_eq!(m.layout(ObjectId(0)).unwrap().start_disk, 0);
        assert_eq!(m.layout(ObjectId(1)).unwrap().start_disk, 1);
    }

    #[test]
    fn oversized_degree_is_rejected() {
        let mut m = map(4, 1, 100);
        let s = spec(0, 200, 10); // M = 10 > 4 disks
        assert!(matches!(
            m.place_at(&s, 0),
            Err(Error::BandwidthUnsatisfiable { .. })
        ));
    }

    #[test]
    fn skew_ratio_balanced_vs_stationary() {
        // Balanced: k=1.
        let mut m = map(10, 1, 1000);
        m.place_at(&spec(0, 40, 50), 0).unwrap(); // M=2, 100 fragments
        assert!(m.skew_ratio() < 1.11, "ratio {}", m.skew_ratio());
        // Stationary: k=10 ⇒ everything on 2 disks.
        let mut m = map(10, 10, 1000);
        m.place_at(&spec(0, 40, 50), 0).unwrap();
        assert!(m.skew_ratio() > 4.0, "ratio {}", m.skew_ratio());
    }

    #[test]
    fn simple_striping_cylinder_accounting() {
        let mut m = map(9, 3, 100);
        m.place_at(&spec(0, 60, 9), 0).unwrap(); // M=3, simple striping
                                                 // 9 subobjects × 3 fragments over 9 disks = 3 per disk.
        for d in 0..9 {
            assert_eq!(m.used_on(DiskId(d)), 3);
        }
    }

    fn parity_map(disks: u32, stride: u32, cylinders: u32, group: u32) -> PlacementMap {
        let config = StripingConfig {
            disks,
            stride,
            fragment: Bytes::new(1_512_000),
            b_disk: Bandwidth::mbps(20),
            parity_group: Some(group),
        };
        PlacementMap::new(config, cylinders, 1).unwrap()
    }

    #[test]
    fn parity_inflates_storage_by_one_fragment_per_group() {
        // M = 3, g = 3: one parity fragment per subobject — storage bill
        // 4/3 of the data, charged and refunded symmetrically.
        let mut m = parity_map(12, 1, 100, 3);
        m.place_at(&spec(0, 60, 24), 4).unwrap();
        let used: u32 = m.used_cylinders().iter().sum();
        assert_eq!(used, 24 * (3 + 1));
        m.remove(ObjectId(0)).unwrap();
        assert!(m.used_cylinders().iter().all(|&u| u == 0));
        // g = 2 on the same object: ceil(3/2) = 2 parity fragments.
        let mut m = parity_map(12, 1, 100, 2);
        m.place_at(&spec(0, 60, 24), 4).unwrap();
        let used: u32 = m.used_cylinders().iter().sum();
        assert_eq!(used, 24 * (3 + 2));
    }

    #[test]
    fn parity_stripe_must_fit_the_farm() {
        // M = 3 data + 3 parity (g = 1) needs 6 offsets; a 5-disk farm
        // cannot hold the inflated stripe.
        let mut m = parity_map(5, 1, 100, 1);
        assert!(matches!(
            m.place_at(&spec(0, 60, 10), 0),
            Err(Error::BandwidthUnsatisfiable { .. })
        ));
    }

    #[test]
    fn zero_parity_group_is_rejected() {
        let config = StripingConfig {
            disks: 12,
            stride: 1,
            fragment: Bytes::new(1_512_000),
            b_disk: Bandwidth::mbps(20),
            parity_group: Some(0),
        };
        assert!(matches!(
            config.validate(),
            Err(Error::InvalidConfig { .. })
        ));
    }
}
