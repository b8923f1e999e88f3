//! Server configuration: Table 3 plus scheme and measurement settings.

use serde::{Deserialize, Serialize};
use ss_core::admission::AdmissionPolicy;
use ss_core::media::{MediaType, ObjectCatalog, ObjectSpec};
use ss_disk::DiskParams;
use ss_sim::FaultPlan;
use ss_tertiary::TertiaryParams;
use ss_types::ObjectId;
use ss_types::{Bandwidth, Error, NodeTopology, Result, SimDuration, SimTime};
use ss_vdr::VdrConfig;
use ss_workload::Popularity;

/// Which placement/scheduling scheme the server runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Striping with the given stride (`k = M` reproduces the paper's
    /// "simple striping"; other strides give staggered striping proper)
    /// and admission policy.
    Striping {
        /// Stride `k`.
        stride: u32,
        /// Contiguous or time-fragmented admission.
        policy: AdmissionPolicy,
        /// §3.1's "naive approach" switch: when set, every display
        /// reserves an *aligned group* of this many disks regardless of
        /// its true degree of declustering — the fixed clusters sized for
        /// the highest-bandwidth media type that the paper argues waste
        /// disk bandwidth under a media mix. `None` (staggered striping
        /// proper) reserves exactly `M_X` disks per display.
        cluster_round: Option<u32>,
    },
    /// The virtual-data-replication baseline.
    Vdr {
        /// Baseline policy knobs.
        vdr: VdrConfig,
    },
}

/// One entry of a heterogeneous database description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixEntry {
    /// The media type of these objects.
    pub media: MediaType,
    /// How many objects of this type the database holds.
    pub count: u32,
    /// Subobjects per object of this type.
    pub subobjects: u32,
}

/// A heterogeneous database: several media types side by side (the §3.2
/// scenario staggered striping was designed for).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MediaMix {
    /// The database composition. Objects are numbered sequentially in
    /// entry order (entry order therefore also sets popularity order for
    /// rank-based distributions).
    pub entries: Vec<MixEntry>,
}

impl MediaMix {
    /// Total number of objects.
    pub fn total_objects(&self) -> u32 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Builds the catalog with sequential ids in entry order.
    pub fn catalog(&self) -> ObjectCatalog {
        let mut objects = Vec::new();
        let mut id = 0u32;
        for e in &self.entries {
            for _ in 0..e.count {
                objects.push(ObjectSpec::new(ObjectId(id), e.media.clone(), e.subobjects));
                id += 1;
            }
        }
        ObjectCatalog::new(objects).expect("sequential ids are dense")
    }

    /// The §3.1 mixed example: objects Y at 120 mbps (M = 6) and Z at
    /// 60 mbps (M = 3) in equal numbers, **interleaved** in id order so a
    /// rank-based popularity distribution spreads demand over both types
    /// instead of concentrating on whichever type is listed first.
    pub fn section31_example(count_each: u32, subobjects: u32) -> Self {
        let y = MediaType::new("Y-video-120", Bandwidth::mbps(120));
        let z = MediaType::new("Z-video-60", Bandwidth::mbps(60));
        let mut entries = Vec::with_capacity(2 * count_each as usize);
        for _ in 0..count_each {
            entries.push(MixEntry {
                media: y.clone(),
                count: 1,
                subobjects,
            });
            entries.push(MixEntry {
                media: z.clone(),
                count: 1,
                subobjects,
            });
        }
        MediaMix { entries }
    }
}

/// How requests arrive at the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// The paper's closed system: each station re-requests immediately
    /// after its display completes (zero think time).
    Closed,
    /// Open system: Poisson arrivals at the given rate, independent of
    /// completions (ablation; striping scheme only).
    Open {
        /// Mean arrivals per simulated hour.
        rate_per_hour: f64,
    },
    /// Replay a pre-recorded request trace verbatim
    /// (`(microseconds, object id)` pairs, sorted by time; striping
    /// scheme only). The reproducible-regression workload.
    Trace {
        /// The recorded events.
        events: Vec<(u64, u32)>,
    },
}

/// How queued requests are ordered before each admission pass — the §5
/// future-work question "How do we schedule multiple requests fairly?
/// Should a small request have priority?", made concrete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QueuePolicy {
    /// First come, first served (with skips: a blocked request never
    /// blocks a later request whose disks are free).
    #[default]
    Fcfs,
    /// Requests for low-bandwidth objects (small degree of declustering)
    /// go first — they fit into smaller holes.
    SmallestFirst,
    /// Requests for high-bandwidth objects go first — they starve under
    /// the other policies when the farm fragments.
    LargestFirst,
}

/// When a display of a tertiary-resident object may begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaterializeMode {
    /// As soon as enough prefix is staged that the remainder arrives in
    /// time (`t₀ = size·(1/B_t − 1/B_d)`). Available to the striping
    /// scheme, whose farm has bandwidth to spare.
    Pipelined,
    /// Only after the object is fully disk resident. The only option for
    /// VDR: the target cluster's full bandwidth equals one display, so it
    /// cannot absorb the materialization write and a display at once.
    AfterFull,
}

/// Parity-protected degraded service (§ fault tolerance): the placement
/// carries one rotated parity fragment per `group` data fragments, and
/// admission may reconstruct reads lost to a failed disk from the
/// surviving group members plus parity instead of rejecting the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParityConfig {
    /// Parity-group size `g` (data fragments per parity fragment).
    pub group: u32,
    /// How many times a rejected request is retried with randomized
    /// backoff while an outage is active before it parks until the next
    /// fault transition. Retries are deterministic (drawn from the seeded
    /// `"backoff"` RNG stream).
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// Upper bound on one randomized backoff delay, in intervals.
    #[serde(default = "default_max_backoff")]
    pub max_backoff_intervals: u64,
}

fn default_max_retries() -> u32 {
    8
}

fn default_max_backoff() -> u64 {
    16
}

impl ParityConfig {
    /// Group size `g` with the default retry policy.
    pub fn group(group: u32) -> Self {
        ParityConfig {
            group,
            max_retries: default_max_retries(),
            max_backoff_intervals: default_max_backoff(),
        }
    }
}

/// Online hot-spare rebuild: after a disk fails, surviving-group reads are
/// drained onto a spare at a bounded rate, and the disk re-enters service
/// at the earlier of its scheduled repair and the rebuild completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebuildConfig {
    /// Fragments regenerated per interval per spare (the bandwidth cap the
    /// drain steals from normal service).
    pub fragments_per_interval: u64,
    /// Number of spare drives absorbing rebuilds concurrently.
    #[serde(default = "default_spares")]
    pub spares: u32,
}

fn default_spares() -> u32 {
    1
}

impl RebuildConfig {
    /// A rebuild pipeline at `rate` fragments per interval on one spare.
    pub fn rate(rate: u64) -> Self {
        RebuildConfig {
            fragments_per_interval: rate,
            spares: default_spares(),
        }
    }
}

/// Background scrub daemon: walk each disk's allocated fragments at a
/// bounded verification rate, detecting latent torn-write errors before
/// a display trips over them. On the striping scheme the verification
/// reads book genuine `IntervalScheduler` bandwidth (like the rebuild
/// drain); on VDR — whose replica operations are whole-cluster, below
/// the fragment-drain grain — the scrub is a metadata-plane walk only,
/// mirroring the rebuild asymmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Fragments verified per interval (the bandwidth cap the scrub
    /// steals from normal service while a chunk is in flight).
    pub fragments_per_interval: u64,
}

impl ScrubConfig {
    /// A scrub daemon verifying `rate` fragments per interval.
    pub fn rate(rate: u64) -> Self {
        ScrubConfig {
            fragments_per_interval: rate,
        }
    }
}

/// Stream sharing: multicast batching plus a prefix cache. Arrivals for
/// an object whose stream started within the last `batch_window`
/// intervals join that stream instead of opening a private one — the
/// shared stream's disk reads are booked once and fanned out to every
/// dependent display in the buffer/metrics plane. A lag-0 join (same
/// admission pass) is pure batching; a later join is serviced from the
/// prefix cache while it catches up, so it is hiccup-free only when the
/// first `lag` intervals of the object are cache resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharingConfig {
    /// Join window in intervals: an arrival may share a stream whose
    /// delivery started at most this many intervals ago.
    pub batch_window: u64,
    /// How many leading intervals of an object the prefix cache keeps
    /// resident. Joins at lag > this are refused (a join must replay its
    /// missed prefix from cache to stay hiccup-free).
    #[serde(default = "default_prefix_intervals")]
    pub prefix_intervals: u64,
    /// Prefix-cache budget in buffer-pool fragments (the same unit the
    /// display buffer accounting uses).
    #[serde(default = "default_cache_fragments")]
    pub cache_fragments: u64,
}

fn default_prefix_intervals() -> u64 {
    16
}

fn default_cache_fragments() -> u64 {
    512
}

impl SharingConfig {
    /// A `window`-interval batching window with the default prefix-cache
    /// shape.
    pub fn window(window: u64) -> Self {
        SharingConfig {
            batch_window: window,
            prefix_intervals: default_prefix_intervals(),
            cache_fragments: default_cache_fragments(),
        }
    }
}

/// The interconnect between storage nodes of a distributed farm: a star
/// of per-node full-duplex links around one switch. Capacities are in
/// fragments per interval; `None` means infinite (the equivalence
/// configuration). A display routed to home node `h` whose stripe reads
/// a fragment on another node's disk charges one fragment of `h`'s link
/// and one fragment of the switch fabric for that interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterconnectConfig {
    /// Per-link capacity in fragments per interval (`None` = infinite).
    #[serde(default)]
    pub link_fragments_per_interval: Option<u64>,
    /// Switch-fabric capacity in fragments per interval, shared across
    /// all links (`None` = infinite).
    #[serde(default)]
    pub switch_fragments_per_interval: Option<u64>,
    /// One-way transfer latency in whole intervals. Remote fragments are
    /// prefetched this many intervals early, which bills extra buffer
    /// memory (never a delayed delivery start).
    #[serde(default)]
    pub latency_intervals: u64,
}

/// How the front-end admission tier picks a display's home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Route to the live node currently hosting the fewest home displays
    /// (ties broken by a draw from the router's own RNG stream).
    #[default]
    LeastLoaded,
    /// Route to the node owning the physical disk under the display's
    /// stripe at delivery start — the choice that minimises remote
    /// fragments — falling back to least-loaded when that node is down.
    LocalityAffinity,
}

/// A whole-node outage: every disk the node owns fails at `fail_at` and
/// is repaired at `repair_at`. Compiled into the run's `FaultTimeline`
/// as correlated per-disk failures, so rescue, parity, rebuild and
/// stream sharing compose with node failures unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeOutage {
    /// The failing node.
    pub node: u32,
    /// When every disk on the node goes down.
    pub fail_at: SimTime,
    /// When every disk on the node comes back.
    pub repair_at: SimTime,
}

/// The distributed tier: node topology, interconnect model, front-end
/// router, and node-level fault domains. `None` (the default) is the
/// single-box farm, byte-for-byte; so is `N = 1` with the default
/// (infinite) interconnect — the equivalence the distributed test suite
/// pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedConfig {
    /// Farm shape: `nodes` × `disks_per_node` must equal `disks`.
    pub topology: NodeTopology,
    /// Link/switch capacities and transfer latency.
    #[serde(default)]
    pub interconnect: InterconnectConfig,
    /// Home-node selection policy for arriving displays.
    #[serde(default)]
    pub router: RouterPolicy,
    /// Whole-node outage windows, compiled into the fault timeline.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub node_outages: Vec<NodeOutage>,
}

impl DistributedConfig {
    /// An `n`-node even split of `disks` disks with an infinite
    /// interconnect and the default router.
    pub fn even(n: u32, disks: u32) -> Self {
        DistributedConfig {
            topology: NodeTopology::even(n, disks),
            interconnect: InterconnectConfig::default(),
            router: RouterPolicy::default(),
            node_outages: Vec::new(),
        }
    }
}

/// The complete simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Number of disks `D`.
    pub disks: u32,
    /// Per-drive characteristics.
    pub disk: DiskParams,
    /// Cylinders per fragment (1 in Table 3).
    pub cylinders_per_fragment: u32,
    /// Tertiary device characteristics.
    pub tertiary: TertiaryParams,
    /// Number of objects in the database (2000 in Table 3).
    pub objects: u32,
    /// Subobjects per object (3000 in Table 3).
    pub subobjects: u32,
    /// The (single) media type of the database.
    pub media: MediaType,
    /// Optional heterogeneous database: when set, overrides
    /// `objects`/`subobjects`/`media` with an explicit mix of media types
    /// (only the striping scheme supports this; §4 evaluates a single
    /// type, so the paper configs leave it `None`).
    pub mix: Option<MediaMix>,
    /// Number of display stations (the load parameter of Figure 8).
    pub stations: u32,
    /// Closed-loop (the paper) or open Poisson arrivals (ablation).
    pub arrivals: ArrivalModel,
    /// Ordering of the disk-admission queue (§5 future work; FCFS is the
    /// paper's implicit choice).
    pub queue: QueuePolicy,
    /// Object-popularity distribution.
    pub popularity: Popularity,
    /// Station think time (zero in §4.1).
    pub think_time: SimDuration,
    /// Placement/scheduling scheme under test.
    pub scheme: Scheme,
    /// Display-start rule for tertiary-resident objects.
    pub materialize: MaterializeMode,
    /// Preload the disks with the most popular objects before the run
    /// (the warm state the paper's steady-state measurements imply; a cold
    /// start would spend 250+ simulated hours just filling the farm
    /// through the 40 mbps tertiary).
    pub preload: bool,
    /// Simulated warm-up time excluded from the measurements.
    pub warmup: SimDuration,
    /// Simulated measurement window.
    pub measure: SimDuration,
    /// Expand and machine-verify every admission's full delivery
    /// timeline against the placement (hiccup-freedom, read alignment,
    /// causality). O(n·M) per admission — used by tests and debugging,
    /// off for the large sweeps.
    pub verify_delivery: bool,
    /// Tick every interval boundary unconditionally instead of skipping
    /// intervals the event-driven scheduler proves quiescent. The reports
    /// are bit-for-bit identical either way (the dense-vs-sparse
    /// equivalence tests enforce it); this is the reference mode those
    /// tests compare against and an escape hatch for debugging.
    #[serde(default)]
    pub dense_ticks: bool,
    /// Disk fault injection. The default ([`FaultPlan::none`]) injects
    /// nothing and reproduces the fault-free run byte-for-byte.
    #[serde(default)]
    pub faults: FaultPlan,
    /// Parity-protected degraded service. `None` (the default) keeps the
    /// paper's parity-free placement and admission byte-for-byte.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parity: Option<ParityConfig>,
    /// Online hot-spare rebuild. `None` (the default) leaves failed disks
    /// down until their scheduled repair, byte-for-byte the PR 3 behavior.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rebuild: Option<RebuildConfig>,
    /// Stream sharing (multicast batching + prefix caching). `None` (the
    /// default) keeps one private stream per viewer, byte-for-byte the
    /// unshared behavior.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sharing: Option<SharingConfig>,
    /// The distributed tier: N storage nodes behind an interconnect with
    /// a front-end admission router and node-level fault domains. `None`
    /// (the default) is the single-box farm, byte-for-byte.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub distributed: Option<DistributedConfig>,
    /// Background scrub daemon verifying allocated fragments against
    /// latent torn-write errors. `None` (the default) runs no scrub,
    /// byte-for-byte.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scrub: Option<ScrubConfig>,
    /// Master RNG seed.
    pub seed: u64,
}

impl ServerConfig {
    /// The paper's configuration (Table 3), parameterised by station count
    /// and popularity mean, running simple striping (`k = M = 5`).
    pub fn paper_striping(stations: u32, mean: f64, seed: u64) -> Self {
        ServerConfig {
            disks: 1000,
            disk: DiskParams::table3(),
            cylinders_per_fragment: 1,
            tertiary: TertiaryParams::table3(),
            objects: 2000,
            subobjects: 3000,
            media: MediaType::table3(),
            mix: None,
            stations,
            arrivals: ArrivalModel::Closed,
            queue: QueuePolicy::Fcfs,
            popularity: Popularity::TruncatedGeometric { mean },
            think_time: SimDuration::ZERO,
            scheme: Scheme::Striping {
                stride: 5,
                policy: AdmissionPolicy::Contiguous,
                cluster_round: None,
            },
            materialize: MaterializeMode::Pipelined,
            preload: true,
            warmup: SimDuration::from_secs(4 * 3600),
            measure: SimDuration::from_secs(12 * 3600),
            verify_delivery: false,
            dense_ticks: false,
            faults: FaultPlan::none(),
            parity: None,
            rebuild: None,
            sharing: None,
            distributed: None,
            scrub: None,
            seed,
        }
    }

    /// The paper's configuration running the virtual-data-replication
    /// baseline.
    pub fn paper_vdr(stations: u32, mean: f64, seed: u64) -> Self {
        ServerConfig {
            scheme: Scheme::Vdr {
                vdr: VdrConfig::table3(),
            },
            materialize: MaterializeMode::AfterFull,
            ..Self::paper_striping(stations, mean, seed)
        }
    }

    /// Builds the database catalog: the homogeneous Table 3 database, or
    /// the configured media mix.
    pub fn catalog(&self) -> ObjectCatalog {
        match &self.mix {
            None => ObjectCatalog::homogeneous(self.objects, self.media.clone(), self.subobjects),
            Some(mix) => mix.catalog(),
        }
    }

    /// Effective per-disk bandwidth with the configured fragment size.
    pub fn b_disk(&self) -> Bandwidth {
        self.disk.effective_bandwidth(self.fragment_size())
    }

    /// Fragment size in bytes.
    pub fn fragment_size(&self) -> ss_types::Bytes {
        self.disk.cylinder_capacity * u64::from(self.cylinders_per_fragment)
    }

    /// The degree of declustering `M` of the single media type.
    pub fn degree(&self) -> u32 {
        self.media.degree_of_declustering(self.b_disk())
    }

    /// The global time-interval length: the time one disk needs to
    /// deliver one fragment at the effective rate,
    /// `size(fragment) / B_disk`. Because the fragment size is global,
    /// this is the same for every media type (§3.2) — for the Table 3
    /// database it equals the display time of one subobject, 0.6048 s.
    pub fn interval(&self) -> SimDuration {
        self.fragment_size().transfer_time(self.b_disk())
    }

    /// The run's length in whole intervals: `warmup + measure`, rounded
    /// up. `validate` refuses an interconnect latency or a fragmented
    /// admission delay longer than this.
    pub fn run_intervals(&self) -> u64 {
        let run = self
            .warmup
            .as_micros()
            .saturating_add(self.measure.as_micros());
        run.div_ceil(self.interval().as_micros().max(1))
    }

    /// Size of one object in bytes.
    pub fn object_size(&self) -> ss_types::Bytes {
        self.fragment_size() * u64::from(self.degree()) * u64::from(self.subobjects)
    }

    /// Display duration of one object.
    pub fn display_time(&self) -> SimDuration {
        self.interval() * u64::from(self.subobjects)
    }

    /// The number of whole objects the farm can hold.
    pub fn farm_capacity_objects(&self) -> u32 {
        let per_object = u64::from(self.subobjects)
            * u64::from(self.degree())
            * u64::from(self.cylinders_per_fragment);
        let farm = u64::from(self.disks) * u64::from(self.disk.cylinders);
        u32::try_from(farm / per_object).expect("absurd capacity")
    }

    /// Validates cross-parameter consistency.
    pub fn validate(&self) -> Result<()> {
        self.disk.validate()?;
        self.tertiary.validate()?;
        let bad = |reason: String| Err(Error::InvalidConfig { reason });
        if self.disks == 0 || self.objects == 0 || self.subobjects == 0 {
            return bad("disks, objects and subobjects must be positive".into());
        }
        if let Some(mix) = &self.mix {
            if mix.total_objects() == 0 {
                return bad("media mix holds no objects".into());
            }
        }
        let n_objects = self
            .mix
            .as_ref()
            .map_or(self.objects, MediaMix::total_objects);
        self.popularity.validate(n_objects as usize)?;
        match &self.arrivals {
            ArrivalModel::Closed => {}
            ArrivalModel::Open { rate_per_hour } => {
                if !(*rate_per_hour > 0.0 && rate_per_hour.is_finite()) {
                    return bad(format!("invalid open arrival rate {rate_per_hour}"));
                }
                if matches!(self.scheme, Scheme::Vdr { .. }) {
                    return bad("the VDR baseline runs the paper's closed workload only".into());
                }
            }
            ArrivalModel::Trace { events } => {
                if matches!(self.scheme, Scheme::Vdr { .. }) {
                    return bad("the VDR baseline runs the paper's closed workload only".into());
                }
                for pair in events.windows(2) {
                    if pair[1].0 < pair[0].0 {
                        return bad("arrival trace is not sorted by time".into());
                    }
                }
                if events.iter().any(|&(_, obj)| obj >= n_objects) {
                    return bad("arrival trace references an unknown object".into());
                }
            }
        }
        if self.stations == 0 {
            return bad("need at least one station".into());
        }
        if self.cylinders_per_fragment == 0 {
            return bad("fragment must span at least one cylinder".into());
        }
        if self.degree() > self.disks {
            return bad(format!(
                "media needs {} disks but the farm has {}",
                self.degree(),
                self.disks
            ));
        }
        if let Some(mix) = &self.mix {
            if mix.entries.is_empty() {
                return bad("media mix has no entries".into());
            }
            if matches!(self.scheme, Scheme::Vdr { .. }) {
                return bad("the VDR baseline only supports a homogeneous database".into());
            }
            let b_disk = self.b_disk();
            for e in &mix.entries {
                let m = e.media.degree_of_declustering(b_disk);
                if m > self.disks {
                    return bad(format!(
                        "mix entry '{}' needs {m} disks but the farm has {}",
                        e.media.name, self.disks
                    ));
                }
                if let Scheme::Striping {
                    cluster_round: Some(c),
                    ..
                } = self.scheme
                {
                    if m > c {
                        return bad(format!(
                            "mix entry '{}' needs {m} disks, larger than the {c}-disk clusters",
                            e.media.name
                        ));
                    }
                }
            }
        }
        if let Scheme::Striping {
            cluster_round: Some(c),
            stride,
            ..
        } = self.scheme
        {
            if c == 0 || c > self.disks {
                return bad(format!("cluster size {c} invalid for {} disks", self.disks));
            }
            if stride % self.disks != c % self.disks && stride != c {
                return bad("cluster-rounded striping requires stride == cluster size".into());
            }
        }
        if self.measure.is_zero() {
            return bad("measurement window must be positive".into());
        }
        if let Scheme::Striping {
            policy:
                AdmissionPolicy::Fragmented {
                    max_delay_intervals,
                    ..
                },
            ..
        } = self.scheme
        {
            // The fragmented planner walks every interval of the delay
            // window and books reads up to its end: a window longer than
            // the run is meaningless, and an unbounded one overflows the
            // interval clock or exhausts memory.
            let run_intervals = self.run_intervals();
            if max_delay_intervals > run_intervals {
                return bad(format!(
                    "fragmented admission delay of {max_delay_intervals} intervals exceeds \
                     the {run_intervals}-interval run"
                ));
            }
        }
        self.faults.validate(self.disks)?;
        if let Some(p) = &self.parity {
            if p.group == 0 {
                return bad("parity group must cover at least one fragment".into());
            }
            if matches!(self.scheme, Scheme::Vdr { .. }) {
                return bad(
                    "the VDR baseline's redundancy is replication; parity groups \
                     apply to the striping scheme only"
                        .into(),
                );
            }
            // Every media type's inflated stripe (data + parity offsets)
            // must fit the farm.
            let b_disk = self.b_disk();
            let check = |m: u32, name: &str| -> Result<()> {
                let groups = m.div_ceil(p.group);
                if m + groups > self.disks {
                    return Err(Error::InvalidConfig {
                        reason: format!(
                            "'{name}' needs {m} data + {groups} parity disks but the \
                             farm has {}",
                            self.disks
                        ),
                    });
                }
                Ok(())
            };
            match &self.mix {
                None => check(self.degree(), &self.media.name)?,
                Some(mix) => {
                    for e in &mix.entries {
                        check(e.media.degree_of_declustering(b_disk), &e.media.name)?;
                    }
                }
            }
        }
        if let Some(r) = &self.rebuild {
            if r.fragments_per_interval == 0 {
                return bad("rebuild must drain at least one fragment per interval".into());
            }
            if r.spares == 0 {
                return bad("rebuild needs at least one spare".into());
            }
        }
        if let Some(s) = &self.scrub {
            if s.fragments_per_interval == 0 {
                return bad("scrub must verify at least one fragment per interval".into());
            }
        }
        if let Some(s) = &self.sharing {
            if s.batch_window == 0 {
                return bad("sharing batch_window must cover at least one interval".into());
            }
            if s.cache_fragments == 0 {
                return bad("sharing prefix cache needs a positive fragment budget".into());
            }
        }
        if let Some(d) = &self.distributed {
            if d.topology.nodes == 0 || d.topology.disks_per_node == 0 {
                return bad("distributed topology needs nodes and disks_per_node >= 1".into());
            }
            if d.topology.disks() != self.disks {
                return bad(format!(
                    "distributed topology covers {} disks but the farm has {}",
                    d.topology.disks(),
                    self.disks
                ));
            }
            if d.interconnect.link_fragments_per_interval == Some(0)
                || d.interconnect.switch_fragments_per_interval == Some(0)
            {
                return bad(
                    "interconnect capacities must be >= 1 fragment per interval \
                     (or omitted for infinite)"
                        .into(),
                );
            }
            // The latency prefetch bills `latency × remote fragments`
            // buffers per display; a latency longer than the run is
            // meaningless and would overflow that bill.
            let run_intervals = self.run_intervals();
            if d.interconnect.latency_intervals > run_intervals {
                return bad(format!(
                    "interconnect latency of {} intervals exceeds the {run_intervals}-interval run",
                    d.interconnect.latency_intervals
                ));
            }
            let mut windows: Vec<&NodeOutage> = d.node_outages.iter().collect();
            windows.sort_by_key(|o| (o.node, o.fail_at));
            for o in &windows {
                if o.node >= d.topology.nodes {
                    return bad(format!(
                        "node outage references node {} of {}",
                        o.node, d.topology.nodes
                    ));
                }
                if o.repair_at <= o.fail_at {
                    return bad("node outage window is empty or inverted".into());
                }
            }
            for pair in windows.windows(2) {
                if pair[0].node == pair[1].node && pair[1].fail_at < pair[0].repair_at {
                    return bad(format!(
                        "overlapping outage windows on node {}",
                        pair[0].node
                    ));
                }
            }
        }
        if let Scheme::Vdr { vdr } = &self.scheme {
            if vdr.clusters == 0 {
                return bad("VDR needs at least one cluster".into());
            }
            if self.materialize == MaterializeMode::Pipelined {
                return bad(
                    "VDR cannot pipeline materialization: a cluster's bandwidth \
                     equals one display"
                        .into(),
                );
            }
        }
        Ok(())
    }

    /// A small configuration for tests: 20 disks, 10 objects of 40
    /// subobjects, 30-minute window.
    pub fn small_test(stations: u32, seed: u64) -> Self {
        let mut c = Self::paper_striping(stations, 2.0, seed);
        c.disks = 20;
        c.objects = 10;
        c.subobjects = 40;
        c.warmup = SimDuration::from_secs(300);
        c.measure = SimDuration::from_secs(1800);
        c.verify_delivery = true;
        c
    }

    /// The VDR companion of [`Self::small_test`]: the same farm and
    /// database, clustered as 4 replication groups of 5 disks.
    pub fn small_vdr_test(stations: u32, seed: u64) -> Self {
        let mut c = Self::small_test(stations, seed);
        c.scheme = Scheme::Vdr {
            vdr: crate::vdr::vdr_config_for(&c),
        };
        c.materialize = MaterializeMode::AfterFull;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_reproduces_table3_derived_values() {
        let c = ServerConfig::paper_striping(64, 20.0, 1);
        assert_eq!(c.degree(), 5);
        let iv = c.interval().as_secs_f64();
        assert!((iv - 0.6048).abs() < 1e-6, "interval {iv}");
        let disp = c.display_time().as_secs_f64();
        assert!((disp - 1814.4).abs() < 0.01, "display {disp}");
        assert_eq!(c.object_size().as_u64(), 22_680_000_000);
        // Farm capacity: exactly 200 objects (§4.1).
        assert_eq!(c.farm_capacity_objects(), 200);
        c.validate().unwrap();
    }

    #[test]
    fn vdr_config_validates() {
        ServerConfig::paper_vdr(64, 20.0, 1).validate().unwrap();
    }

    #[test]
    fn vdr_rejects_pipelined_materialization() {
        let mut c = ServerConfig::paper_vdr(64, 20.0, 1);
        c.materialize = MaterializeMode::Pipelined;
        assert!(c.validate().is_err());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut c = ServerConfig::paper_striping(0, 20.0, 1);
        assert!(c.validate().is_err());
        c = ServerConfig::paper_striping(1, 20.0, 1);
        c.disks = 3; // fewer than M = 5
        assert!(c.validate().is_err());
        c = ServerConfig::paper_striping(1, 20.0, 1);
        c.measure = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn parity_and_rebuild_knobs_validate() {
        let mut c = ServerConfig::small_test(4, 9);
        c.parity = Some(ParityConfig::group(5));
        c.rebuild = Some(RebuildConfig::rate(4));
        c.validate().unwrap();
        // Zero group, VDR scheme, and zero rebuild rate are all rejected.
        c.parity = Some(ParityConfig::group(0));
        assert!(c.validate().is_err());
        let mut v = ServerConfig::small_vdr_test(4, 9);
        v.parity = Some(ParityConfig::group(5));
        assert!(v.validate().is_err());
        let mut c = ServerConfig::small_test(4, 9);
        c.rebuild = Some(RebuildConfig::rate(0));
        assert!(c.validate().is_err());
        // The inflated stripe must fit the farm: M = 5 data + 5 parity on
        // a 20-disk farm is fine, but g = 1 on a 9-disk farm is not.
        let mut c = ServerConfig::small_test(4, 9);
        c.disks = 9;
        c.parity = Some(ParityConfig::group(1));
        assert!(c.validate().is_err());
    }

    #[test]
    fn parity_free_config_serializes_unchanged() {
        // The new knobs are skipped when None, so serialized seed configs
        // (and the goldens derived from them) stay byte-identical.
        let c = ServerConfig::small_test(4, 9);
        let json = serde_json::to_string(&c).unwrap();
        assert!(!json.contains("parity"));
        assert!(!json.contains("rebuild"));
        assert!(!json.contains("sharing"));
        assert!(!json.contains("distributed"));
        assert!(!json.contains("scrub"));
        assert!(!json.contains("crash"));
        let back: ServerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn scrub_and_crash_knobs_validate() {
        let mut c = ServerConfig::small_test(4, 9);
        c.scrub = Some(ScrubConfig::rate(2));
        c.validate().unwrap();
        // VDR accepts the scrub too (metadata-plane walk).
        let mut v = ServerConfig::small_vdr_test(4, 9);
        v.scrub = Some(ScrubConfig::rate(1));
        v.validate().unwrap();
        // A zero verification rate is rejected.
        c.scrub = Some(ScrubConfig::rate(0));
        assert!(c.validate().is_err());
        // Crash events ride the fault-plan validation: out-of-range disks
        // are refused at config time.
        let mut c = ServerConfig::small_test(4, 9);
        c.faults.crash = Some(ss_sim::CrashFaults {
            events: vec![ss_sim::CrashPlanEvent {
                disk: 99,
                at: SimTime::from_secs(600),
                kind: ss_sim::CrashKind::PowerLoss,
            }],
            power_loss_mtbf: None,
            torn_write_mtbf: None,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn sharing_knobs_validate() {
        let mut c = ServerConfig::small_test(4, 9);
        c.sharing = Some(SharingConfig::window(8));
        c.validate().unwrap();
        // Both schemes accept sharing.
        let mut v = ServerConfig::small_vdr_test(4, 9);
        v.sharing = Some(SharingConfig::window(8));
        v.validate().unwrap();
        // Degenerate windows and budgets are rejected.
        c.sharing = Some(SharingConfig::window(0));
        assert!(c.validate().is_err());
        let mut s = SharingConfig::window(8);
        s.cache_fragments = 0;
        c.sharing = Some(s);
        assert!(c.validate().is_err());
    }

    #[test]
    fn distributed_knobs_validate() {
        let mut c = ServerConfig::small_test(4, 9);
        c.distributed = Some(DistributedConfig::even(4, c.disks));
        c.validate().unwrap();
        // Both schemes accept the distributed tier.
        let mut v = ServerConfig::small_vdr_test(4, 9);
        v.distributed = Some(DistributedConfig::even(2, v.disks));
        v.validate().unwrap();
        // Topology must cover the farm exactly.
        let mut d = DistributedConfig::even(4, c.disks);
        d.topology.disks_per_node = 3;
        c.distributed = Some(d);
        assert!(c.validate().is_err());
        // Zero capacity means "always reject": refuse it at config time.
        let mut d = DistributedConfig::even(4, c.disks);
        d.interconnect.link_fragments_per_interval = Some(0);
        c.distributed = Some(d);
        assert!(c.validate().is_err());
        // Outages must name a real node, span a window, and not overlap.
        let outage = |node, a, b| NodeOutage {
            node,
            fail_at: SimTime::from_secs(a),
            repair_at: SimTime::from_secs(b),
        };
        let mut d = DistributedConfig::even(4, c.disks);
        d.node_outages = vec![outage(9, 100, 200)];
        c.distributed = Some(d.clone());
        assert!(c.validate().is_err());
        d.node_outages = vec![outage(1, 200, 200)];
        c.distributed = Some(d.clone());
        assert!(c.validate().is_err());
        d.node_outages = vec![outage(1, 100, 300), outage(1, 250, 400)];
        c.distributed = Some(d.clone());
        assert!(c.validate().is_err());
        d.node_outages = vec![outage(1, 100, 300), outage(2, 250, 400)];
        c.distributed = Some(d);
        c.validate().unwrap();
    }

    #[test]
    fn small_test_config_is_consistent() {
        let c = ServerConfig::small_test(4, 9);
        c.validate().unwrap();
        // 20 disks × 3000 cylinders / (40 × 5) = 300 objects fit; the
        // 10-object database is fully disk-residentable.
        assert!(c.farm_capacity_objects() >= c.objects);
    }
}
