//! Placement engines: mapping every fragment of every object onto
//! `(disk, cylinder)` addresses.
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
//! additionally tracks per-disk cylinder allocation so residency decisions
//! respect storage capacity.

use crate::media::ObjectSpec;
use serde::{Deserialize, Serialize};
use ss_disk::{CylinderAllocator, CylinderRange};
use ss_types::{Bandwidth, Bytes, DiskId, Error, ObjectId, Result};
use std::collections::HashMap;

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

/// The disk/cylinder address of one fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FragmentAddr {
    /// The drive holding the fragment.
    pub disk: DiskId,
    /// The first cylinder of the fragment on that drive.
    pub cylinder: u32,
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

    /// The disk holding the first fragment of subobject `sub`.
    pub fn subobject_start_disk(&self, sub: u32) -> DiskId {
        self.fragment_disk(sub, 0)
    }

    /// How many fragments of this object land on each disk (length-`D`
    /// vector), computed analytically in `O(D·M)` using the periodicity of
    /// `i·k mod D`.
    pub fn fragments_per_disk(&self) -> Vec<u32> {
        let d = u64::from(self.disks);
        let k = u64::from(self.stride);
        let n = u64::from(self.subobjects);
        let mut counts = vec![0u32; self.disks as usize];
        if k == 0 {
            // Stationary: every subobject on the same M disks.
            for j in 0..self.degree {
                let disk = ((u64::from(self.start_disk) + u64::from(j)) % d) as usize;
                counts[disk] = self.subobjects;
            }
            return counts;
        }
        let g = crate::frame::gcd(k, d);
        let period = d / g; // i·k mod D cycles with this period
        let full_cycles = n / period;
        let remainder = n % period;
        // For each disk, for each fragment index j, count subobjects i with
        // (start + i·k + j) ≡ disk (mod D).
        for (disk, slot) in counts.iter_mut().enumerate() {
            let mut c = 0u64;
            for j in 0..u64::from(self.degree) {
                // Need i·k ≡ disk − start − j (mod D).
                let rho = (disk as u64 + 2 * d - u64::from(self.start_disk) % d - j % d) % d;
                if !rho.is_multiple_of(g) {
                    continue;
                }
                // Solutions i ≡ i0 (mod period); count those < n.
                let i0 = smallest_solution(k, d, rho);
                c += full_cycles + u64::from(i0 < remainder);
            }
            *slot = u32::try_from(c).expect("fragment count overflow");
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

/// Smallest `i ≥ 0` with `i·k ≡ rho (mod d)`; caller guarantees
/// `gcd(k,d) | rho`.
fn smallest_solution(k: u64, d: u64, rho: u64) -> u64 {
    let g = crate::frame::gcd(k, d);
    let (k1, d1, r1) = (k / g, d / g, rho / g);
    if d1 <= 1 {
        return 0;
    }
    // i ≡ r1 · k1⁻¹ (mod d1); k1 and d1 are coprime, so the inverse
    // exists (extended Euclid).
    let (mut old_r, mut r) = (k1 as i128, d1 as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    let m = d1 as i128;
    let inv = ((old_s % m + m) % m) as u64;
    (r1 % d1) * inv % d1
}

/// One object's placement: address arithmetic plus the cylinder ranges it
/// occupies on each disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacedObject {
    /// The address arithmetic.
    pub layout: StripingLayout,
    /// Cylinder ranges occupied per disk (indexed by disk id; empty for
    /// untouched disks).
    pub ranges: Vec<Vec<CylinderRange>>,
}

impl PlacedObject {
    /// Cylinders this object occupies on `disk`.
    pub fn cylinders_on(&self, disk: DiskId) -> u32 {
        self.ranges[disk.index()].iter().map(|r| r.len).sum()
    }
}

/// Which capacity-accounting backend a [`PlacementMap`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementBackend {
    /// Per-disk first-fit [`CylinderAllocator`]s plus explicit
    /// [`PlacedObject`] cylinder ranges for every resident object. The
    /// reference engine: tests and diagnostics that need real cylinder
    /// addresses use it.
    Materialized,
    /// Closed-form accounting: per-disk *used-cylinder counters* only,
    /// derived from the layout arithmetic. Placement success/failure,
    /// per-disk usage, and skew are identical to the materialized engine
    /// (a [`CylinderAllocator`] allocation succeeds iff enough cylinders
    /// are free, regardless of fragmentation), but no ranges are stored,
    /// and placements whose fragment-count profile is rotation-uniform
    /// commit in O(1) instead of O(D).
    Lazy,
}

/// The per-`(degree, subobjects)` fragment-count profile the lazy backend
/// caches: counts for a start disk of 0 (other starts are rotations).
#[derive(Debug, Clone)]
struct Profile {
    /// `fragments_per_disk()` of the start-0 layout.
    counts: Vec<u32>,
    /// `Some(c)` iff every disk receives exactly `c` fragments — then
    /// placement is rotation-invariant and commits in O(1).
    uniform: Option<u32>,
}

/// The lazy backend's state: counters instead of allocators.
#[derive(Debug, Clone)]
struct LazyState {
    /// Used cylinders contributed equally to *every* disk by
    /// uniform-profile placements.
    uniform_used: u32,
    /// Per-disk used cylinders from non-uniform placements.
    skewed_used: Vec<u32>,
    /// Cached `max(skewed_used)` for the O(1) uniform feasibility check.
    max_skewed_used: u32,
    /// Start-0 profiles keyed by `(degree, subobjects)`.
    profiles: HashMap<(u32, u32), Profile>,
    layouts: HashMap<ObjectId, StripingLayout>,
}

/// The two interchangeable engines (see [`PlacementBackend`]).
#[derive(Debug, Clone)]
enum Engine {
    Materialized {
        allocators: Vec<CylinderAllocator>,
        placed: HashMap<ObjectId, PlacedObject>,
    },
    Lazy(LazyState),
}

/// A placement map over the whole farm: layouts plus capacity accounting.
///
/// [`PlacementMap::new`] builds the **lazy** engine (the hot-path default:
/// full-farm setup is closed-form). [`PlacementMap::new_materialized`]
/// builds the reference engine that additionally tracks real cylinder
/// ranges; the two are observably equivalent for every operation except
/// [`PlacementMap::placed_object`] (see `tests/placement_properties.rs`
/// for the machine-checked equivalence).
#[derive(Debug, Clone)]
pub struct PlacementMap {
    config: StripingConfig,
    cylinders_per_fragment: u32,
    cylinders: u32,
    engine: Engine,
    next_start: u32,
    /// First start of the current round-robin cycle; bumped by one when a
    /// non-coprime stride wraps, so successive cycles cover *all* residues
    /// instead of locking onto multiples of `gcd(D, k)`.
    cycle_base: u32,
}

impl PlacementMap {
    /// Creates an empty map over drives with `cylinders` cylinders each,
    /// using the lazy (counter-based) engine.
    /// `cylinders_per_fragment` is how many cylinders one fragment spans
    /// (1 in the Table 3 configuration, 2 for the §3.1 "two-cylinder
    /// fragments" variant).
    pub fn new(
        config: StripingConfig,
        cylinders: u32,
        cylinders_per_fragment: u32,
    ) -> Result<Self> {
        Self::with_backend(
            config,
            cylinders,
            cylinders_per_fragment,
            PlacementBackend::Lazy,
        )
    }

    /// Like [`PlacementMap::new`] but with the materialized
    /// (cylinder-range) engine.
    pub fn new_materialized(
        config: StripingConfig,
        cylinders: u32,
        cylinders_per_fragment: u32,
    ) -> Result<Self> {
        Self::with_backend(
            config,
            cylinders,
            cylinders_per_fragment,
            PlacementBackend::Materialized,
        )
    }

    /// Creates an empty map with an explicit engine choice.
    pub fn with_backend(
        config: StripingConfig,
        cylinders: u32,
        cylinders_per_fragment: u32,
        backend: PlacementBackend,
    ) -> Result<Self> {
        config.validate()?;
        if cylinders_per_fragment == 0 {
            return Err(Error::InvalidConfig {
                reason: "fragment must span at least one cylinder".into(),
            });
        }
        let engine = match backend {
            PlacementBackend::Materialized => {
                let cyl_capacity = config.fragment / u64::from(cylinders_per_fragment);
                Engine::Materialized {
                    allocators: (0..config.disks)
                        .map(|d| CylinderAllocator::new(DiskId(d), cylinders, cyl_capacity))
                        .collect(),
                    placed: HashMap::new(),
                }
            }
            PlacementBackend::Lazy => Engine::Lazy(LazyState {
                uniform_used: 0,
                skewed_used: vec![0; config.disks as usize],
                max_skewed_used: 0,
                profiles: HashMap::new(),
                layouts: HashMap::new(),
            }),
        };
        Ok(PlacementMap {
            config,
            cylinders_per_fragment,
            cylinders,
            engine,
            next_start: 0,
            cycle_base: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &StripingConfig {
        &self.config
    }

    /// Which engine this map runs.
    pub fn backend(&self) -> PlacementBackend {
        match self.engine {
            Engine::Materialized { .. } => PlacementBackend::Materialized,
            Engine::Lazy(_) => PlacementBackend::Lazy,
        }
    }

    /// Number of placed (resident) objects.
    pub fn resident_count(&self) -> usize {
        match &self.engine {
            Engine::Materialized { placed, .. } => placed.len(),
            Engine::Lazy(s) => s.layouts.len(),
        }
    }

    /// True iff `id` is placed.
    pub fn is_resident(&self, id: ObjectId) -> bool {
        match &self.engine {
            Engine::Materialized { placed, .. } => placed.contains_key(&id),
            Engine::Lazy(s) => s.layouts.contains_key(&id),
        }
    }

    /// The layout of `id`, if resident.
    pub fn layout(&self, id: ObjectId) -> Option<StripingLayout> {
        match &self.engine {
            Engine::Materialized { placed, .. } => placed.get(&id).map(|p| p.layout),
            Engine::Lazy(s) => s.layouts.get(&id).copied(),
        }
    }

    /// The materialized placement of `id` with its cylinder ranges.
    /// `None` if `id` is not resident **or** the map runs the lazy
    /// engine (which stores no ranges).
    pub fn placed_object(&self, id: ObjectId) -> Option<&PlacedObject> {
        match &self.engine {
            Engine::Materialized { placed, .. } => placed.get(&id),
            Engine::Lazy(_) => None,
        }
    }

    /// Iterates over resident object ids (arbitrary order).
    pub fn resident_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let (a, b) = match &self.engine {
            Engine::Materialized { placed, .. } => (Some(placed.keys().copied()), None),
            Engine::Lazy(s) => (None, Some(s.layouts.keys().copied())),
        };
        a.into_iter().flatten().chain(b.into_iter().flatten())
    }

    /// Places `spec` starting at the next round-robin start disk.
    /// On capacity shortfall the map is left unchanged and an error
    /// identifying the first full disk is returned.
    ///
    /// Start selection balances storage for every stride: a stationary
    /// layout (`k ≡ 0 mod D`) packs objects side by side (VDR-style, each
    /// object's `M` disks directly after the previous one's); a rotating
    /// layout advances by the stride, and when the start cycles back to
    /// its origin (non-coprime strides revisit only `D/gcd(D,k)`
    /// positions) the cycle origin shifts by one so the next round covers
    /// fresh residues.
    pub fn place(&mut self, spec: &ObjectSpec) -> Result<StripingLayout> {
        let d = self.config.disks;
        let k = self.config.stride % d;
        let start = self.next_start;
        let next = if k == 0 {
            (start + spec.degree(self.config.b_disk)) % d
        } else {
            let wrapped = (start + k) % d;
            if wrapped == self.cycle_base {
                self.cycle_base = (self.cycle_base + 1) % d;
                self.cycle_base
            } else {
                wrapped
            }
        };
        let layout = self.place_at(spec, start)?;
        self.next_start = next;
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
        match &mut self.engine {
            Engine::Materialized { allocators, placed } => {
                let per_disk = cap_layout.fragments_per_disk();
                // Feasibility check before mutating any allocator, in
                // u64: an absurd fragment span must fail, not overflow.
                for (d, &frags) in per_disk.iter().enumerate() {
                    let need = u64::from(frags) * u64::from(cpf);
                    let have = allocators[d].free_cylinders();
                    if u64::from(have) < need {
                        return Err(Error::DiskFull {
                            disk: DiskId(d as u32),
                            requested: self.config.fragment * u64::from(frags),
                            available: allocators[d].free_bytes(),
                        });
                    }
                }
                let mut ranges = vec![Vec::new(); self.config.disks as usize];
                for (d, &frags) in per_disk.iter().enumerate() {
                    let need = frags * cpf;
                    if need > 0 {
                        ranges[d] = allocators[d]
                            .allocate(need)
                            .expect("feasibility was checked");
                    }
                }
                placed.insert(spec.id, PlacedObject { layout, ranges });
            }
            Engine::Lazy(state) => {
                let cylinders = u64::from(self.cylinders);
                let cyl_capacity = self.config.fragment / u64::from(cpf);
                let fragment = self.config.fragment;
                // Sums in u64: an absurd fragment span must fail, not
                // overflow. Committed counts stay within `cylinders`.
                let uniform = u64::from(state.uniform_used);
                let used = |skew: u32| uniform + u64::from(skew);
                let profile = state.profile(&cap_layout);
                match profile.uniform {
                    Some(c) => {
                        // Rotation-invariant: every disk takes the same
                        // hit, so one comparison against the fullest disk
                        // decides feasibility, and commitment is a single
                        // counter bump.
                        let need = u64::from(c) * u64::from(cpf);
                        if used(state.max_skewed_used) + need > cylinders {
                            // Identify the first over-full disk for the
                            // error (identical to the materialized scan).
                            let d = state
                                .skewed_used
                                .iter()
                                .position(|&s| used(s) + need > cylinders)
                                .expect("some disk is over the max");
                            let free = cylinders - used(state.skewed_used[d]);
                            return Err(Error::DiskFull {
                                disk: DiskId(d as u32),
                                requested: fragment * u64::from(c),
                                available: cyl_capacity * free,
                            });
                        }
                        state.uniform_used += need as u32;
                    }
                    None => {
                        let counts = profile.counts.clone();
                        let disks = self.config.disks as usize;
                        let start = layout.start_disk as usize;
                        // counts are for start 0; start s rotates them:
                        // frags(d) = counts[(d - s) mod D].
                        let frags_on = |d: usize| counts[(d + disks - start) % disks];
                        for (d, &skew) in state.skewed_used.iter().enumerate() {
                            let need = u64::from(frags_on(d)) * u64::from(cpf);
                            if used(skew) + need > cylinders {
                                let free = cylinders - used(skew);
                                return Err(Error::DiskFull {
                                    disk: DiskId(d as u32),
                                    requested: fragment * u64::from(frags_on(d)),
                                    available: cyl_capacity * free,
                                });
                            }
                        }
                        for (d, skew) in state.skewed_used.iter_mut().enumerate() {
                            *skew += frags_on(d) * cpf;
                            state.max_skewed_used = state.max_skewed_used.max(*skew);
                        }
                    }
                }
                state.layouts.insert(spec.id, layout);
            }
        }
        Ok(layout)
    }

    /// Removes `id`, returning its cylinders to the free pools.
    pub fn remove(&mut self, id: ObjectId) -> Result<()> {
        let cpf = self.cylinders_per_fragment;
        let parity_group = self.config.parity_group;
        match &mut self.engine {
            Engine::Materialized { allocators, placed } => {
                let obj = placed.remove(&id).ok_or(Error::NotResident(id))?;
                for (d, runs) in obj.ranges.into_iter().enumerate() {
                    for run in runs {
                        allocators[d].free(run);
                    }
                }
            }
            Engine::Lazy(state) => {
                let layout = state.layouts.remove(&id).ok_or(Error::NotResident(id))?;
                // Refund exactly what place_at charged: the parity-inflated
                // fragment profile.
                let parity = match parity_group {
                    Some(g) => layout.degree.div_ceil(g),
                    None => 0,
                };
                let cap_layout = layout.with_parity(parity);
                let profile = state.profile(&cap_layout);
                match profile.uniform {
                    Some(c) => state.uniform_used -= c * cpf,
                    None => {
                        let counts = profile.counts.clone();
                        let disks = self.config.disks as usize;
                        let start = layout.start_disk as usize;
                        for (d, skew) in state.skewed_used.iter_mut().enumerate() {
                            *skew -= counts[(d + disks - start) % disks] * cpf;
                        }
                        state.max_skewed_used =
                            state.skewed_used.iter().copied().max().unwrap_or(0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Free cylinders per disk.
    pub fn free_cylinders(&self) -> Vec<u32> {
        match &self.engine {
            Engine::Materialized { allocators, .. } => {
                allocators.iter().map(|a| a.free_cylinders()).collect()
            }
            Engine::Lazy(s) => s
                .skewed_used
                .iter()
                .map(|&skew| self.cylinders - s.uniform_used - skew)
                .collect(),
        }
    }

    /// Used cylinders per disk.
    pub fn used_cylinders(&self) -> Vec<u32> {
        match &self.engine {
            Engine::Materialized { allocators, .. } => {
                allocators.iter().map(|a| a.used_cylinders()).collect()
            }
            Engine::Lazy(s) => s
                .skewed_used
                .iter()
                .map(|&skew| s.uniform_used + skew)
                .collect(),
        }
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

impl LazyState {
    /// The cached start-0 fragment profile for `layout`'s
    /// `(degree, subobjects)` class, computing it on first use.
    /// `fragments_per_disk` of a start-`s` layout is the start-0 profile
    /// rotated by `s`, so one O(D·M) computation serves every object of
    /// the class regardless of where it starts.
    fn profile(&mut self, layout: &StripingLayout) -> &Profile {
        let key = (layout.degree, layout.subobjects);
        self.profiles.entry(key).or_insert_with(|| {
            let base = StripingLayout::new(
                layout.object,
                0,
                layout.degree,
                layout.subobjects,
                layout.disks,
                layout.stride,
            );
            let counts = base.fragments_per_disk();
            let uniform = match (counts.iter().min(), counts.iter().max()) {
                (Some(&lo), Some(&hi)) if lo == hi => Some(lo),
                _ => None,
            };
            Profile { counts, uniform }
        })
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
        let before = m.free_cylinders();
        assert!(matches!(m.place_at(&s, 0), Err(Error::DiskFull { .. })));
        assert_eq!(m.free_cylinders(), before);
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
    fn placed_object_cylinder_accounting() {
        let config = StripingConfig {
            disks: 9,
            stride: 3,
            fragment: Bytes::new(1_512_000),
            b_disk: Bandwidth::mbps(20),
            parity_group: None,
        };
        let mut m = PlacementMap::new_materialized(config, 100, 1).unwrap();
        m.place_at(&spec(0, 60, 9), 0).unwrap(); // M=3, simple striping
        let p = m.placed_object(ObjectId(0)).unwrap();
        // 9 subobjects × 3 fragments over 9 disks = 3 per disk.
        for d in 0..9 {
            assert_eq!(p.cylinders_on(DiskId(d)), 3);
        }
    }

    #[test]
    fn lazy_is_the_default_and_stores_no_ranges() {
        let mut m = map(12, 1, 100);
        assert_eq!(m.backend(), PlacementBackend::Lazy);
        m.place_at(&spec(0, 60, 12), 0).unwrap();
        assert!(m.is_resident(ObjectId(0)));
        assert!(m.placed_object(ObjectId(0)).is_none());
        assert!(m.layout(ObjectId(0)).is_some());
    }

    /// The lazy engine's DiskFull error carries the exact same disk,
    /// requested, and available fields as the materialized scan.
    #[test]
    fn lazy_disk_full_error_matches_materialized() {
        let config = StripingConfig {
            disks: 12,
            stride: 1,
            fragment: Bytes::new(1_512_000),
            b_disk: Bandwidth::mbps(20),
            parity_group: None,
        };
        let mut lazy = PlacementMap::new(config.clone(), 10, 1).unwrap();
        let mut mat = PlacementMap::new_materialized(config, 10, 1).unwrap();
        // Partially fill, then overflow with a big object.
        let small = spec(0, 60, 20); // 60 fragments
        lazy.place_at(&small, 0).unwrap();
        mat.place_at(&small, 0).unwrap();
        let big = spec(1, 60, 48); // 144 fragments > remaining 60
        let a = lazy.place_at(&big, 3).unwrap_err();
        let b = mat.place_at(&big, 3).unwrap_err();
        assert_eq!(a, b);
        assert!(matches!(a, Error::DiskFull { .. }));
        assert_eq!(lazy.used_cylinders(), mat.used_cylinders());
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
    fn parity_capacity_agrees_across_backends() {
        let config = StripingConfig {
            disks: 9,
            stride: 3,
            fragment: Bytes::new(1_512_000),
            b_disk: Bandwidth::mbps(20),
            parity_group: Some(3),
        };
        let mut lazy = PlacementMap::new(config.clone(), 50, 1).unwrap();
        let mut mat = PlacementMap::new_materialized(config, 50, 1).unwrap();
        for (i, start) in [(0u32, 0u32), (1, 3), (2, 7)] {
            let s = spec(i, 60, 9); // M = 3 + 1 parity
            lazy.place_at(&s, start).unwrap();
            mat.place_at(&s, start).unwrap();
        }
        assert_eq!(lazy.used_cylinders(), mat.used_cylinders());
        lazy.remove(ObjectId(1)).unwrap();
        mat.remove(ObjectId(1)).unwrap();
        assert_eq!(lazy.used_cylinders(), mat.used_cylinders());
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

    /// A stationary (non-uniform-profile) layout goes through the lazy
    /// engine's skewed path and still accounts exactly.
    #[test]
    fn lazy_skewed_path_accounts_exactly() {
        let mut lazy = map(10, 10, 1000); // k ≡ 0 mod D: stationary
        let mut reference = {
            let config = StripingConfig {
                disks: 10,
                stride: 10,
                fragment: Bytes::new(1_512_000),
                b_disk: Bandwidth::mbps(20),
                parity_group: None,
            };
            PlacementMap::new_materialized(config, 1000, 1).unwrap()
        };
        for (i, start) in [(0u32, 0u32), (1, 4), (2, 7)] {
            let s = spec(i, 40, 30); // M=2, stationary pair of disks
            lazy.place_at(&s, start).unwrap();
            reference.place_at(&s, start).unwrap();
        }
        assert_eq!(lazy.used_cylinders(), reference.used_cylinders());
        assert_eq!(lazy.skew_ratio(), reference.skew_ratio());
        lazy.remove(ObjectId(1)).unwrap();
        reference.remove(ObjectId(1)).unwrap();
        assert_eq!(lazy.used_cylinders(), reference.used_cylinders());
    }
}
