//! The virtual-data-replication media server (the §4 baseline).
//!
//! Requests for an object go to an idle cluster holding a replica. When
//! every replica is busy, the policy may create another replica (disk-to-
//! disk when an idle source exists, otherwise from tertiary), evicting the
//! least-frequently-accessed victim. An object absent from disk is
//! materialized from tertiary into an evictable cluster; the display
//! starts only after full materialization, because one cluster's bandwidth
//! is exactly one display (see [`crate::config::MaterializeMode`]).

use crate::config::{Scheme, ServerConfig};
use crate::metrics::{MetricsCollector, RunReport};
use crate::router::NodeRouter;
use crate::storage::StoragePlane;
use ss_core::buffers::BufferTracker;
use ss_core::cache::PrefixCache;
use ss_core::interconnect::InterconnectLedger;
use ss_disk::{AvailabilityMask, RebuildScheduler};
use ss_sim::{
    Context, CrashEvent, DeterministicRng, FaultEvent, FaultKind, FaultPlan, FaultTimeline, Model,
    Simulation,
};
use ss_tertiary::TertiaryDevice;
use ss_types::{ClusterId, Error, NodeId, NodeTopology, ObjectId, Result, SimTime, StationId};
use ss_vdr::{ClusterFarm, ClusterStatus, CopyPlan, VdrConfig};
use ss_workload::{StationPool, StationState};
use std::collections::{BTreeSet, VecDeque};

/// The server's event alphabet: one periodic interval tick.
pub enum Event {
    /// Advance one time interval.
    Tick,
}

/// A queued request. (Issue time lives in the station pool.)
#[derive(Debug, Clone, Copy)]
struct Waiter {
    station: StationId,
    object: ObjectId,
}

// The VDR baseline intentionally runs only the paper's closed workload;
// `ServerConfig::validate` rejects `ArrivalModel::Open` for it.

/// A viewer riding an in-flight shared display (multicast batching): it
/// consumes the cluster's stream from the buffer plane, so it occupies no
/// cluster of its own. A positive-lag joiner replays its missed prefix
/// from the cache while `catchup_fragments` buffers hold the live stream
/// until it catches up.
#[derive(Debug, Clone, Copy)]
struct SharedViewer {
    station: StationId,
    ends: SimTime,
    /// Catch-up buffers held for the viewer's whole ride (0 for a lag-0
    /// batched join).
    catchup_fragments: u64,
    /// Already counted in `hiccup_streams`.
    hiccuped: bool,
}

#[derive(Debug, Clone)]
struct ActiveDisplay {
    station: StationId,
    object: ObjectId,
    /// The front-end node delivering the stream (`NodeId(0)` whenever the
    /// distributed tier is off). A failure fallback onto a replica on
    /// another node keeps the home: the viewer stays on its front end and
    /// the new cross-node traffic is force-booked.
    home_node: NodeId,
    /// The cluster serving the display (changes if a failure forces a
    /// fallback onto another replica).
    cluster: ClusterId,
    /// When delivery began (the join-window anchor for sharing).
    started: SimTime,
    ends: SimTime,
    /// Shared viewers fanned out from this display's stream (empty unless
    /// sharing is configured).
    viewers: Vec<SharedViewer>,
    /// The primary viewer completed (and its cluster freed) but dependents
    /// are still playing out their buffered tails; the entry is removed
    /// once `viewers` drains too.
    primary_done: bool,
    /// Already counted in `streams_rescued`.
    rescued: bool,
}

/// The VDR server model.
pub struct VdrModel {
    config: ServerConfig,
    vdr: VdrConfig,
    farm: ClusterFarm,
    stations: StationPool,
    tertiary: TertiaryDevice,
    metrics: MetricsCollector,
    waiters: Vec<Waiter>,
    active: Vec<ActiveDisplay>,
    /// Completion time of the copy/materialization in flight for each
    /// object, dense by object id (`None` = no copy running).
    copy_done: Vec<Option<SimTime>>,
    /// Ids with `copy_done[..]` set (the handful of in-flight copies).
    copy_ids: Vec<ObjectId>,
    /// Objects awaiting the tertiary device (one submission at a time, so
    /// clusters are not reserved hours before the transfer can begin).
    fetch_queue: VecDeque<ObjectId>,
    /// Dense membership mirror of `fetch_queue`, so the per-waiter
    /// duplicate check is O(1) instead of a queue scan.
    in_fetch_queue: Vec<bool>,
    /// Per-object queued-request counts, reused across `serve_waiters`
    /// passes (entries are zeroed at the end of each pass).
    queue_len: Vec<u32>,
    /// Per-station activation times: initial requests are staggered over
    /// one display time so the closed loop does not start in lockstep
    /// (identical display lengths would otherwise keep every station
    /// synchronised forever — a measurement artifact, not a property of
    /// the schemes).
    activate_at: Vec<SimTime>,
    measurement_started: bool,
    deadline: SimTime,
    /// The boundary of the last executed tick (event-driven mode replays
    /// the metric samples of the boundaries skipped since then).
    last_tick: SimTime,
    /// The compiled fault schedule (empty when the plan is empty — the
    /// zero-fault gate for every code path below).
    timeline: FaultTimeline,
    /// Timeline events already applied.
    fault_cursor: usize,
    /// Live per-*disk* up/slow state and downtime accounting.
    mask: AvailabilityMask,
    /// Failed disks per cluster: the cluster is down while nonzero.
    cluster_down: Vec<u32>,
    /// Slow disks per cluster: the cluster is slow while nonzero.
    cluster_slow: Vec<u32>,
    /// Online hot-spare rebuild pipeline (None unless configured). Under
    /// VDR the spare is filled from a surviving replica cluster; the
    /// drain's bandwidth interference is not modeled (replica copies are
    /// whole-cluster operations, a fragment drain is below that grain).
    rebuild: Option<RebuildScheduler>,
    /// Rebuild completions not yet applied: `(disk, start, done)` in
    /// interval indices; queued only when the rebuild beats the repair.
    pending_rebuilds: Vec<(u32, u64, u64)>,
    /// Disks returned to service by an early rebuild; the next scheduled
    /// `Repair` timeline event for each is spent as a no-op.
    rebuilt_early: Vec<u32>,
    /// Stream-sharing prefix cache, armed by `config.sharing`.
    cache: Option<PrefixCache>,
    /// Catch-up buffer accounting for shared viewers (the striping model's
    /// display buffers have no VDR analogue, so this tracker exists only
    /// for sharing).
    buffers: BufferTracker,
    /// Per-object access counts (the cache's popularity table; the farm
    /// keeps its own LFU counts privately).
    freq: Vec<u64>,
    /// Viewers currently watching: every non-completed primary plus every
    /// shared viewer. Equals `active.len()` whenever sharing is off.
    active_viewers: u64,
    /// Catch-up buffers currently held by shared viewers.
    catchup_in_use: u64,
    /// Distributed tier (router + interconnect ledger), armed by
    /// `config.distributed`.
    dist: Option<VdrDist>,
    /// Crash-consistent metadata plane, armed by crash faults or
    /// `config.scrub`: one per-*cluster* ledger in per-ledger (replica)
    /// mode. VDR replicas are whole-cluster objects with no fragment
    /// scheduler behind them, so the scrub walk here is a pure metadata
    /// pass — no bandwidth is booked, and repairs are in-place replica
    /// resyncs.
    plane: Option<StoragePlane>,
}

/// VDR's distributed-tier state. A display is one indivisible cluster
/// stream, so its interconnect demand is all-or-nothing: `degree`
/// fragments per interval over the whole delivery window whenever the
/// home node differs from the serving cluster's node (the node of the
/// cluster's first disk). With one node nothing is ever remote and the
/// admission path is byte-identical to the single-box server.
struct VdrDist {
    topology: NodeTopology,
    latency_intervals: u64,
    router: NodeRouter,
    ledger: InterconnectLedger,
    latency_buffer_fragments: u64,
    node_outages: u32,
    /// Reusable `(interval, fragments)` span buffer for booking.
    scratch: Vec<(u64, u64)>,
}

impl VdrModel {
    fn new(config: ServerConfig) -> Result<Self> {
        let vdr = match &config.scheme {
            Scheme::Vdr { vdr } => vdr.clone(),
            _ => {
                return Err(Error::InvalidConfig {
                    reason: "VdrServer requires Scheme::Vdr".into(),
                })
            }
        };
        // Cross-check the cluster geometry against the farm.
        let clusters_possible = config.disks / config.degree();
        if vdr.clusters > clusters_possible {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "{} clusters of {} disks exceed the {}-disk farm",
                    vdr.clusters,
                    config.degree(),
                    config.disks
                ),
            });
        }
        let per_cluster_capacity =
            config.disk.cylinders / (config.subobjects * config.cylinders_per_fragment);
        if vdr.objects_per_cluster > per_cluster_capacity {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "objects_per_cluster {} exceeds cluster capacity {}",
                    vdr.objects_per_cluster, per_cluster_capacity
                ),
            });
        }
        let mut farm = ClusterFarm::new(vdr.clone());
        if config.preload {
            // Most-popular-first, dealt round-robin across clusters so the
            // hottest objects land on distinct clusters (packing them into
            // one cluster would serialise all their displays).
            let slots = u64::from(vdr.clusters) * u64::from(vdr.objects_per_cluster);
            let n = u32::try_from(slots.min(u64::from(config.objects))).expect("fits");
            for obj in 0..n {
                let c = obj % vdr.clusters;
                farm.begin_copy(
                    CopyPlan::FromTertiary {
                        target: ClusterId(c),
                    },
                    ObjectId(obj),
                    SimTime::ZERO,
                    SimTime::ZERO,
                )
                .expect("preload into cluster with free slots");
                farm.refresh(SimTime::ZERO);
            }
        }
        let rng = DeterministicRng::seed_from_u64(config.seed);
        let sampler = config.popularity.sampler(config.objects as usize);
        let stations = StationPool::new(
            config.stations,
            sampler,
            config.think_time,
            rng.derive("stations"),
        );
        let tertiary = TertiaryDevice::new(config.tertiary.clone());
        let deadline = SimTime::ZERO + config.warmup + config.measure;
        // Node outages compile into correlated per-disk windows on the
        // ordinary fault timeline, exactly like the striping model, so
        // cluster fallback and rebuild compose with node failures
        // unchanged.
        let timeline = match &config.distributed {
            Some(d) if !d.node_outages.is_empty() => {
                let mut plan = config.faults.clone();
                for o in &d.node_outages {
                    for disk in d.topology.node_disks(NodeId(o.node)) {
                        plan.events
                            .extend(FaultPlan::fail_window(disk, o.fail_at, o.repair_at).events);
                    }
                    ss_obs::obs!(ss_obs::Event::NodeOutageCompiled {
                        node: o.node,
                        disks: d.topology.disks_per_node,
                    });
                }
                plan.compile(config.disks, deadline, &rng)
            }
            _ => config.faults.compile(config.disks, deadline, &rng),
        };
        let mask = AvailabilityMask::new(config.disks);
        let clusters = vdr.clusters as usize;
        // `derive` is a pure function of (seed, label): adding the cache
        // stream moves none of the existing streams above.
        let cache = config.sharing.map(|s| {
            let mut crng = rng.derive("cache");
            PrefixCache::new(
                config.objects,
                config.fragment_size(),
                s.cache_fragments,
                crng.next_u64_raw(),
            )
        });
        // Like the cache stream: `derive` is position-independent, so
        // arming the router moves no existing stream.
        let dist = config.distributed.as_ref().map(|d| VdrDist {
            topology: d.topology,
            latency_intervals: d.interconnect.latency_intervals,
            router: NodeRouter::new(d.topology, d.router, rng.derive("router")),
            ledger: InterconnectLedger::new(
                d.topology.nodes,
                d.interconnect.link_fragments_per_interval,
                d.interconnect.switch_fragments_per_interval,
            ),
            latency_buffer_fragments: 0,
            node_outages: d.node_outages.len() as u32,
            scratch: Vec::new(),
        });
        // The storage plane arms only when the crash machinery can act:
        // compiled crash events or the scrub daemon. Zero-armed runs
        // never construct it, keeping them byte-identical to the
        // pre-plane engine. One metadata ledger per cluster in replica
        // (per-ledger) mode, one slot per resident object.
        let plane = (!timeline.crash_events().is_empty() || config.scrub.is_some()).then(|| {
            let mut plane = StoragePlane::new(
                clusters,
                vdr.objects_per_cluster,
                config.scrub.map(|s| s.fragments_per_interval),
            )
            .per_ledger();
            for c in 0..vdr.clusters {
                for o in farm.cluster_contents(ClusterId(c)) {
                    plane.seed(u64::from(o.0), [(c, 1)]);
                }
            }
            // The preload is base state, not replayable history.
            plane.checkpoint();
            // Metadata-only walk: the chunk is not booked anywhere.
            plane.begin_scrub(0);
            plane
        });
        Ok(VdrModel {
            vdr,
            farm,
            stations,
            tertiary,
            metrics: MetricsCollector::new(),
            waiters: Vec::new(),
            active: Vec::new(),
            copy_done: vec![None; config.objects as usize],
            copy_ids: Vec::new(),
            fetch_queue: VecDeque::new(),
            in_fetch_queue: vec![false; config.objects as usize],
            queue_len: vec![0; config.objects as usize],
            activate_at: stagger(&config),
            measurement_started: false,
            deadline,
            last_tick: SimTime::ZERO,
            timeline,
            fault_cursor: 0,
            mask,
            cluster_down: vec![0; clusters],
            cluster_slow: vec![0; clusters],
            rebuild: config
                .rebuild
                .as_ref()
                .map(|r| RebuildScheduler::new(r.fragments_per_interval, r.spares)),
            pending_rebuilds: Vec::new(),
            rebuilt_early: Vec::new(),
            cache,
            buffers: BufferTracker::new(config.fragment_size(), None),
            freq: vec![0; config.objects as usize],
            active_viewers: 0,
            catchup_in_use: 0,
            dist,
            plane,
            config,
        })
    }

    fn complete_displays(&mut self, now: SimTime) {
        let t = now.as_micros() / self.config.interval().as_micros();
        let mut i = 0;
        while i < self.active.len() {
            let object = self.active[i].object;
            // Shared viewers finish on their own clocks (a late joiner's
            // buffered tail plays out past the primary's end).
            let mut viewers = std::mem::take(&mut self.active[i].viewers);
            let mut v = 0;
            while v < viewers.len() {
                if viewers[v].ends <= now {
                    let done = viewers.swap_remove(v);
                    self.stations.complete_at(done.station, now);
                    self.buffers.release(done.catchup_fragments);
                    self.catchup_in_use -= done.catchup_fragments;
                    let measured = self.metrics.measuring();
                    if measured {
                        self.metrics.record_completion();
                    }
                    ss_obs::obs!(ss_obs::Event::DisplayEnd {
                        object: object.0,
                        interval: t,
                        measured,
                    });
                    self.active_viewers -= 1;
                } else {
                    v += 1;
                }
            }
            self.active[i].viewers = viewers;
            if self.active[i].ends <= now && !self.active[i].primary_done {
                let d = &mut self.active[i];
                d.primary_done = true;
                let home = d.home_node;
                if let Some(dist) = self.dist.as_mut() {
                    dist.router.note_end(home);
                }
                self.stations.complete_at(d.station, now);
                let measured = self.metrics.measuring();
                if measured {
                    self.metrics.record_completion();
                }
                ss_obs::obs!(ss_obs::Event::DisplayEnd {
                    object: object.0,
                    interval: t,
                    measured,
                });
                self.active_viewers -= 1;
            }
            if self.active[i].primary_done && self.active[i].viewers.is_empty() {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let copy_done = &mut self.copy_done;
        self.copy_ids.retain(|o| {
            if copy_done[o.index()].is_some_and(|done| done > now) {
                true
            } else {
                copy_done[o.index()] = None;
                false
            }
        });
        self.farm.refresh(now);
        self.metrics.active.set(now, self.active_viewers as f64);
    }

    /// Routes a display about to start on `cluster` to a home node,
    /// booking `degree` interconnect fragments per interval over the
    /// whole delivery window when the home differs from the cluster's
    /// node. Returns the home node, or `None` when the interconnect
    /// refuses the booking (the waiter stays queued and retries).
    /// `NodeId(0)` with nothing booked when the tier is off or the farm
    /// is one node — the byte-identity path.
    fn route_display(&mut self, cluster: ClusterId, now: SimTime, ends: SimTime) -> Option<NodeId> {
        let Some(dist) = self.dist.as_mut() else {
            return Some(NodeId(0));
        };
        let degree = self.config.degree();
        let cluster_disk = cluster.0 * degree;
        let mask = &self.mask;
        let dpn = dist.topology.disks_per_node;
        let home = dist
            .router
            .route(cluster_disk, |n| !mask.node_fully_down(n.0, dpn));
        if dist.topology.nodes <= 1 || dist.topology.node_of(cluster_disk) == home {
            return Some(home);
        }
        let us = self.config.interval().as_micros();
        let t0 = now.as_micros() / us;
        let t1 = ends.as_micros().div_ceil(us).max(t0 + 1);
        dist.scratch.clear();
        dist.scratch
            .extend((t0..t1).map(|u| (u, u64::from(degree))));
        if !dist.ledger.try_book(home, &dist.scratch) {
            return None;
        }
        crate::router::obs_link_book(home, &dist.scratch);
        dist.latency_buffer_fragments += dist.latency_intervals * u64::from(degree);
        Some(home)
    }

    /// Force-books the remaining window of a display re-homed onto
    /// `cluster` by a failure fallback. A rescue is never refused for
    /// link headroom; the dead cluster's old booking is not reclaimed —
    /// the ledger may overbook, never undercount.
    fn rebook_display(&mut self, home: NodeId, cluster: ClusterId, now: SimTime, ends: SimTime) {
        let Some(dist) = self.dist.as_mut() else {
            return;
        };
        let degree = self.config.degree();
        let cluster_disk = cluster.0 * degree;
        if dist.topology.nodes <= 1 || dist.topology.node_of(cluster_disk) == home {
            return;
        }
        let us = self.config.interval().as_micros();
        let t0 = now.as_micros() / us;
        let t1 = ends.as_micros().div_ceil(us).max(t0 + 1);
        dist.scratch.clear();
        dist.scratch
            .extend((t0..t1).map(|u| (u, u64::from(degree))));
        let spans = std::mem::take(&mut dist.scratch);
        dist.ledger.force_book(home, &spans);
        crate::router::obs_link_book(home, &spans);
        dist.scratch = spans;
    }

    /// One pass over the wait queue (FIFO with skips).
    fn serve_waiters(&mut self, now: SimTime) {
        let display_time = self.config.display_time();
        let waiters = std::mem::take(&mut self.waiters);
        // Queue length per object for the replication trigger (dense
        // scratch table; zeroed again at the end of the pass).
        for w in &waiters {
            self.queue_len[w.object.index()] += 1;
        }
        let mut still = Vec::with_capacity(waiters.len());
        for &w in &waiters {
            if self.config.sharing.is_some() && self.try_join_shared(&w, now) {
                // Joined an in-flight shared stream: no cluster booked, no
                // replica needed for this request.
                self.queue_len[w.object.index()] =
                    self.queue_len[w.object.index()].saturating_sub(1);
                continue;
            }
            if let Some(cluster) = self.farm.find_idle_replica(w.object, now) {
                let ends = now + display_time;
                let Some(home) = self.route_display(cluster, now, ends) else {
                    // Interconnect saturated: the replica stays idle, the
                    // request stays queued, and a later pass retries once
                    // link intervals free up.
                    still.push(w);
                    continue;
                };
                self.farm
                    .start_display(cluster, w.object, now, ends)
                    .expect("idle replica accepts display");
                let waited = self.stations.start_display(w.station, now);
                if self.metrics.measuring() {
                    self.metrics.record_latency(waited);
                }
                self.active.push(ActiveDisplay {
                    station: w.station,
                    object: w.object,
                    home_node: home,
                    cluster,
                    started: now,
                    ends,
                    viewers: Vec::new(),
                    primary_done: false,
                    rescued: false,
                });
                self.active_viewers += 1;
                if let Some(dist) = self.dist.as_mut() {
                    dist.router.note_start(home);
                    ss_obs::obs!(ss_obs::Event::RouteAssign {
                        object: w.object.0,
                        node: home.0,
                        interval: now.as_micros() / self.config.interval().as_micros(),
                    });
                }
                if let Some(sh) = self.config.sharing {
                    self.metrics.sharing_mut().streams_opened += 1;
                    // Offer this stream's prefix for residency so in-window
                    // joiners can patch their lag from memory.
                    let cost = sh.prefix_intervals.min(u64::from(self.config.subobjects))
                        * u64::from(self.config.degree());
                    if let Some(cache) = self.cache.as_mut() {
                        cache.offer(w.object.0, cost, &self.freq);
                    }
                }
                if ss_obs::enabled() {
                    let us = self.config.interval().as_micros();
                    ss_obs::record(ss_obs::Event::ClusterDisplayStart {
                        object: w.object.0,
                        cluster: cluster.0,
                        interval: now.as_micros() / us,
                        end_interval: ends.as_micros() / us,
                    });
                    ss_obs::record(ss_obs::Event::Startup {
                        object: w.object.0,
                        interval: now.as_micros() / us,
                        wait_us: waited.as_micros(),
                        measured: self.metrics.measuring(),
                    });
                    ss_obs::with_registry(|r| r.count("admissions", 1));
                }
                // Piggyback replication: if more requests for this object
                // remain blocked, tee the display's stream into an idle
                // target cluster — a replica for the price of the target
                // alone. This is what keeps a hot object's replica count
                // tracking its demand (replicas of hot objects are never
                // idle, so plain disk-to-disk copies cannot run).
                let blocked = self.queue_len[w.object.index()].saturating_sub(1);
                if blocked >= 1 && self.copy_done[w.object.index()].is_none() {
                    if let Some(target) = self.farm.plan_piggyback(w.object, blocked, now) {
                        self.farm
                            .begin_stream_copy(target, w.object, now, ends)
                            .expect("planned piggyback commits");
                        self.copy_done[w.object.index()] = Some(ends);
                        self.copy_ids.push(w.object);
                        ss_obs::obs!(ss_obs::Event::ClusterCopyStart {
                            object: w.object.0,
                            cluster: target.0,
                            until_us: ends.as_micros(),
                        });
                    }
                }
                self.queue_len[w.object.index()] =
                    self.queue_len[w.object.index()].saturating_sub(1);
                continue;
            }
            // No idle replica: consider creating one, unless a copy of
            // this object is already on its way. Disk-to-disk copies are
            // attempted immediately; tertiary-sourced copies go through
            // the fetch queue and are planned when the device frees.
            if self.copy_done[w.object.index()].is_none() {
                let qlen = self.queue_len[w.object.index()].max(1);
                if let Some(plan) = self.farm.plan_replica(w.object, qlen, now, false) {
                    let until = now + display_time; // cluster-to-cluster copy
                    let target = plan.target();
                    self.farm
                        .begin_copy(plan, w.object, now, until)
                        .expect("planned copy commits");
                    self.copy_done[w.object.index()] = Some(until);
                    self.copy_ids.push(w.object);
                    ss_obs::obs!(ss_obs::Event::ClusterCopyStart {
                        object: w.object.0,
                        cluster: target.0,
                        until_us: until.as_micros(),
                    });
                } else if !self.in_fetch_queue[w.object.index()] {
                    self.fetch_queue.push_back(w.object);
                    self.in_fetch_queue[w.object.index()] = true;
                }
            }
            still.push(w);
        }
        // Zero the scratch counts (only entries this pass touched).
        for w in &waiters {
            self.queue_len[w.object.index()] = 0;
        }
        self.waiters = still;
        self.metrics.active.set(now, self.active_viewers as f64);
    }

    /// Tries to ride `w` on an in-flight shared display of the same
    /// object (multicast batching). A lag-0 arrival joins outright; a
    /// positive-lag arrival within `batch_window` intervals joins only if
    /// the object's prefix is cache-resident, replaying the missed prefix
    /// from memory while holding `lag × M` catch-up buffers for the live
    /// stream. Joins occupy **no** cluster.
    fn try_join_shared(&mut self, w: &Waiter, now: SimTime) -> bool {
        let sh = self.config.sharing.expect("caller checked sharing is on");
        let us = self.config.interval().as_micros();
        let t = now.as_micros() / us;
        // Youngest live stream of the object (max start; index tie-break
        // keeps the pick deterministic).
        let candidate = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, d)| d.object == w.object && !d.primary_done)
            .max_by_key(|(i, d)| (d.started, *i))
            .map(|(i, d)| (i, d.started));
        let Some((idx, started)) = candidate else {
            return false;
        };
        let lag = t.saturating_sub(started.as_micros() / us);
        if lag > sh.batch_window {
            return false;
        }
        let catchup = if lag == 0 {
            0
        } else {
            if lag > sh.prefix_intervals {
                return false; // prefix cannot cover the missed intervals
            }
            let cache = self.cache.as_mut().expect("sharing is on");
            if !cache.lookup(w.object.0) {
                return false; // prefix not resident: a cold join would hiccup
            }
            lag * u64::from(self.config.degree())
        };
        let ends = now + self.config.display_time();
        let waited = self.stations.start_display(w.station, now);
        if self.metrics.measuring() {
            self.metrics.record_latency(waited);
        }
        self.buffers.acquire(catchup).expect("unbounded tracker");
        self.catchup_in_use += catchup;
        let s = self.metrics.sharing_mut();
        s.viewers_joined += 1;
        if lag == 0 {
            s.batched_joins += 1;
        } else {
            s.patched_joins += 1;
        }
        s.peak_catchup_fragments = s.peak_catchup_fragments.max(self.catchup_in_use);
        self.active[idx].viewers.push(SharedViewer {
            station: w.station,
            ends,
            catchup_fragments: catchup,
            hiccuped: false,
        });
        self.active_viewers += 1;
        if ss_obs::enabled() {
            ss_obs::record(ss_obs::Event::SharedJoin {
                object: w.object.0,
                interval: t,
                lag,
                buffer: catchup,
            });
            ss_obs::record(ss_obs::Event::Startup {
                object: w.object.0,
                interval: t,
                wait_us: waited.as_micros(),
                measured: self.metrics.measuring(),
            });
            ss_obs::with_registry(|r| r.count("shared_joins", 1));
        }
        true
    }

    /// Feeds the tertiary device: when it is free, plan and submit the
    /// head-of-queue fetch. Objects nobody waits for any more are dropped.
    fn pump_fetches(&mut self, now: SimTime) {
        while self.tertiary.busy_until() <= now {
            let Some(&object) = self.fetch_queue.front() else {
                return;
            };
            let qlen = self.waiters.iter().filter(|w| w.object == object).count() as u32;
            if qlen == 0 || self.copy_done[object.index()].is_some() {
                self.fetch_queue.pop_front();
                self.in_fetch_queue[object.index()] = false;
                continue;
            }
            match self.farm.plan_replica(object, qlen, now, true) {
                Some(plan) => {
                    let display_time = self.config.display_time();
                    let until = match plan {
                        CopyPlan::FromDisk { .. } => now + display_time,
                        CopyPlan::FromTertiary { .. } => {
                            let schedule = self.tertiary.submit(
                                now,
                                object,
                                self.config.object_size(),
                                u64::from(self.config.subobjects),
                                self.config.media.display_bandwidth,
                            );
                            self.metrics.record_tertiary_fetch();
                            schedule.done
                        }
                    };
                    let target = plan.target();
                    self.farm
                        .begin_copy(plan, object, now, until)
                        .expect("planned copy commits");
                    self.copy_done[object.index()] = Some(until);
                    self.copy_ids.push(object);
                    ss_obs::obs!(ss_obs::Event::ClusterCopyStart {
                        object: object.0,
                        cluster: target.0,
                        until_us: until.as_micros(),
                    });
                    self.fetch_queue.pop_front();
                    self.in_fetch_queue[object.index()] = false;
                }
                None => return, // no victim available; retry next interval
            }
        }
    }

    fn issue_requests(&mut self, now: SimTime) {
        for s in 0..self.stations.len() {
            let station = StationId(s as u32);
            if now < self.activate_at[s] {
                continue;
            }
            if matches!(self.stations.state(station), StationState::Thinking) {
                let (_req, object) = self.stations.issue(station, now);
                self.farm.record_access(object);
                self.freq[object.index()] += 1;
                self.waiters.push(Waiter { station, object });
            }
        }
    }

    /// Applies every timeline event due by `now`. A disk fault maps onto
    /// the aligned cluster holding it (`disk / M`); the cluster is down or
    /// slow while *any* of its disks is.
    fn process_faults(&mut self, now: SimTime) {
        let degree = self.config.degree();
        while let Some(&ev) = self.timeline.events().get(self.fault_cursor) {
            if ev.at > now {
                break;
            }
            self.fault_cursor += 1;
            if ev.kind == FaultKind::Repair {
                if let Some(p) = self.rebuilt_early.iter().position(|&d| d == ev.disk) {
                    // The rebuild pipeline already returned this disk to
                    // service; the scheduled repair is spent as a no-op.
                    self.rebuilt_early.swap_remove(p);
                    continue;
                }
            }
            self.mask.apply(&ev, now);
            let c = ev.disk / degree;
            // Disks beyond the last whole cluster serve no VDR data.
            let in_farm = c < self.vdr.clusters;
            let ci = c as usize;
            match ev.kind {
                FaultKind::Fail => {
                    self.metrics.degraded_mut().faults_injected += 1;
                    if let Some(rb) = self.rebuild.as_mut() {
                        // The failed disk holds `subobjects` fragments per
                        // replica its cluster carries; drain them from a
                        // surviving replica onto a spare. The completion
                        // interval is final at enqueue time.
                        let interval = self.config.interval();
                        let t = now.as_micros() / interval.as_micros();
                        let frags = if in_farm {
                            self.farm.cluster_contents(ClusterId(c)).len() as u64
                                * u64::from(self.config.subobjects)
                        } else {
                            0
                        };
                        let job = rb.enqueue(ev.disk, frags, t);
                        let us = interval.as_micros();
                        self.timeline.note_rebuild(
                            ev.disk,
                            SimTime::from_micros(job.start * us),
                            SimTime::from_micros(job.done * us),
                        );
                        let scheduled = self
                            .timeline
                            .events()
                            .get(self.fault_cursor..)
                            .into_iter()
                            .flatten()
                            .find(|e| e.disk == ev.disk && e.kind == FaultKind::Repair)
                            .map_or(self.deadline.as_micros().div_ceil(us), |e| {
                                e.at.as_micros().div_ceil(us)
                            });
                        if job.done < scheduled {
                            self.pending_rebuilds.push((ev.disk, job.start, job.done));
                        }
                    }
                    if in_farm {
                        self.cluster_down[ci] += 1;
                        if self.cluster_down[ci] == 1 {
                            self.cluster_failed(ClusterId(c), now);
                        }
                    }
                }
                FaultKind::Repair => {
                    self.metrics.degraded_mut().repairs += 1;
                    if in_farm {
                        self.cluster_down[ci] -= 1;
                        if self.cluster_down[ci] == 0 {
                            // Fail-stop with intact media: the cluster
                            // serves its old replicas again.
                            self.farm.set_down(ClusterId(c), false);
                        }
                    }
                }
                FaultKind::SlowStart => {
                    self.metrics.degraded_mut().slow_episodes += 1;
                    if in_farm {
                        self.cluster_slow[ci] += 1;
                        if self.cluster_slow[ci] == 1 {
                            self.farm.set_slow(ClusterId(c), true);
                        }
                    }
                }
                FaultKind::SlowEnd => {
                    if in_farm {
                        self.cluster_slow[ci] -= 1;
                        if self.cluster_slow[ci] == 0 {
                            self.farm.set_slow(ClusterId(c), false);
                        }
                    }
                }
            }
        }
    }

    /// Applies every rebuild completion due by `now`: the rebuilt disk
    /// re-enters service ahead of its scheduled repair (whose timeline
    /// event becomes a no-op), counted exactly like a scheduled repair so
    /// the `faults_injected == repairs` ledger still balances.
    fn process_rebuilds(&mut self, now: SimTime) {
        if self.pending_rebuilds.is_empty() {
            return;
        }
        let interval = self.config.interval();
        let t = now.as_micros() / interval.as_micros();
        let interval_s = interval.as_secs_f64();
        let degree = self.config.degree();
        let mut i = 0;
        while i < self.pending_rebuilds.len() {
            let (disk, start, done) = self.pending_rebuilds[i];
            if done <= t {
                self.pending_rebuilds.remove(i);
                let ev = FaultEvent {
                    disk,
                    at: now,
                    kind: FaultKind::Repair,
                };
                self.mask.apply(&ev, now);
                self.rebuilt_early.push(disk);
                let c = disk / degree;
                if c < self.vdr.clusters {
                    let ci = c as usize;
                    self.cluster_down[ci] -= 1;
                    if self.cluster_down[ci] == 0 {
                        // Fail-stop with rebuilt media: the spare serves
                        // the cluster's old replicas again.
                        self.farm.set_down(ClusterId(c), false);
                    }
                    if let Some(p) = self.plane.as_mut() {
                        // The drain rewrote the spare from a surviving
                        // replica: journal it (a torn-write target).
                        p.record_rewrite(c);
                    }
                }
                let g = self.metrics.degraded_mut();
                g.repairs += 1;
                let h = g.self_heal_mut();
                h.rebuilds_completed += 1;
                h.rebuild_seconds += (done - start) as f64 * interval_s;
                ss_obs::obs!(ss_obs::Event::RebuildDone { disk, early: true });
            } else {
                i += 1;
            }
        }
    }

    /// Handles a cluster fail-stop: aborts its in-flight work, falls the
    /// display back onto another idle replica when one exists (replicas
    /// are VDR's only redundancy), and otherwise drops the stream with
    /// full hiccup accounting — a cluster is one indivisible delivery
    /// pipeline, so unlike staggered striping there is no partial rescue.
    fn cluster_failed(&mut self, cluster: ClusterId, now: SimTime) {
        let st = self.farm.abort(cluster, now);
        self.farm.set_down(cluster, true);
        match st {
            // A dying copy loses both halves; clearing the in-flight
            // marker lets the policy re-plan it later.
            ClusterStatus::Copying { object, .. } | ClusterStatus::SourcingCopy { object, .. } => {
                self.clear_copy(object, now);
            }
            _ => {}
        }
        let interval = self.config.interval();
        let interval_s = interval.as_secs_f64();
        let mut i = 0;
        while i < self.active.len() {
            // A primary-done entry's cluster was freed at the primary's
            // end; its surviving viewers play from their buffered tails
            // and ride out the failure untouched.
            if self.active[i].cluster != cluster || self.active[i].primary_done {
                i += 1;
                continue;
            }
            let (object, ends, rescued, home) = {
                let d = &self.active[i];
                (d.object, d.ends, d.rescued, d.home_node)
            };
            if let Some(target) = self.farm.find_idle_replica(object, now) {
                // One rescue saves the whole shared stream: every
                // dependent keeps consuming the (re-homed) delivery.
                self.farm
                    .start_display(target, object, now, ends)
                    .expect("idle replica accepts display");
                self.active[i].cluster = target;
                // The viewer stays on its front end; a replica on another
                // node turns the rest of the stream remote.
                self.rebook_display(home, target, now, ends);
                let g = self.metrics.degraded_mut();
                g.rescues += 1;
                if !rescued {
                    self.active[i].rescued = true;
                    g.streams_rescued += 1;
                }
                ss_obs::obs!(ss_obs::Event::ClusterRescue {
                    object: object.0,
                    from_cluster: cluster.0,
                    to_cluster: target.0,
                });
                i += 1;
            } else {
                // No surviving idle replica: the stream is cut off and
                // every remaining promised interval is lost — for the
                // primary and for every dependent riding its delivery.
                let remaining = ends.saturating_duration_since(now);
                let lost = remaining.as_micros().div_ceil(interval.as_micros());
                let mut d = self.active.swap_remove(i);
                if let Some(dist) = self.dist.as_mut() {
                    // The dropped display was live: its home slot frees.
                    dist.router.note_end(d.home_node);
                }
                self.stations.complete_at(d.station, now);
                self.active_viewers -= 1;
                let g = self.metrics.degraded_mut();
                g.hiccup_streams += 1;
                g.hiccup_intervals += lost;
                g.hiccup_seconds += lost as f64 * interval_s;
                g.streams_dropped += 1;
                ss_obs::obs!(ss_obs::Event::DisplayDrop {
                    object: object.0,
                    interval: now.as_micros() / interval.as_micros(),
                    hiccups: lost,
                });
                for v in d.viewers.drain(..) {
                    let v_remaining = v.ends.saturating_duration_since(now);
                    let v_lost = v_remaining.as_micros().div_ceil(interval.as_micros());
                    self.stations.complete_at(v.station, now);
                    self.buffers.release(v.catchup_fragments);
                    self.catchup_in_use -= v.catchup_fragments;
                    self.active_viewers -= 1;
                    let g = self.metrics.degraded_mut();
                    if !v.hiccuped {
                        g.hiccup_streams += 1;
                    }
                    g.hiccup_intervals += v_lost;
                    g.hiccup_seconds += v_lost as f64 * interval_s;
                    g.streams_dropped += 1;
                    ss_obs::obs!(ss_obs::Event::DisplayDrop {
                        object: object.0,
                        interval: now.as_micros() / interval.as_micros(),
                        hiccups: v_lost,
                    });
                }
            }
        }
    }

    /// Aborts both halves of the in-flight copy of `object` (the other
    /// half of a cluster-to-cluster copy dies with its peer) and clears
    /// the in-flight marker.
    fn clear_copy(&mut self, object: ObjectId, now: SimTime) {
        for i in 0..self.vdr.clusters {
            let id = ClusterId(i);
            if matches!(
                self.farm.status(id, now),
                ClusterStatus::Copying { object: o, .. }
                | ClusterStatus::SourcingCopy { object: o, .. } if o == object
            ) {
                self.farm.abort(id, now);
            }
        }
        self.copy_done[object.index()] = None;
        self.copy_ids.retain(|&o| o != object);
    }

    /// Mirrors the farm's per-cluster contents into the plane as
    /// journalled per-ledger transactions: replica registrations become
    /// allocs, evictions become frees. Run at the end of every executed
    /// tick (the farm mutates only inside ticks), so the plane ≡ farm
    /// reconciliation invariant holds at every boundary.
    fn sync_plane(&mut self) {
        let Some(plane) = self.plane.as_mut() else {
            return;
        };
        for c in 0..self.vdr.clusters {
            let ci = c as usize;
            let want: BTreeSet<u64> = self
                .farm
                .cluster_contents(ClusterId(c))
                .iter()
                .map(|o| u64::from(o.0))
                .collect();
            let have = plane.ledger_objects(ci);
            for &o in have.difference(&want) {
                plane.record_free_on(ci, o);
            }
            for &o in want.difference(&have) {
                plane.record_alloc_on(ci, o, 1);
            }
        }
    }

    /// The crash/scrub pass: sync the plane to the farm, fire due crash
    /// events, re-sync so a discarded replica registration is
    /// immediately re-journalled (a metadata-level resync from a
    /// surviving replica or tertiary — counted as a forced refetch),
    /// then advance the scrub walk.
    fn process_storage_plane(&mut self, now: SimTime) {
        self.sync_plane();
        let Some(mut plane) = self.plane.take() else {
            return;
        };
        if plane
            .next_crash_at(&self.timeline)
            .is_some_and(|at| at <= now)
        {
            // Crash events strike physical disks; the plane's ledgers
            // are clusters, so map disk → cluster exactly like
            // `process_faults` (events landing beyond the last whole
            // cluster are spent by the plane's range guard).
            let degree = self.config.degree();
            let events: Vec<CrashEvent> = self
                .timeline
                .crash_events()
                .iter()
                .map(|ev| CrashEvent {
                    disk: ev.disk / degree,
                    ..*ev
                })
                .collect();
            plane.process_crashes(&events, now, |_| true);
        }
        let t = now.as_micros() / self.config.interval().as_micros();
        // Every scrub finding is repaired by resyncing the replica in
        // place from a surviving copy (`false` = not a parity rebuild);
        // the farm is untouched, so no eviction or refetch follows.
        plane.process_scrub(t, now, |_, _| false);
        self.plane = Some(plane);
        self.sync_plane();
    }

    fn tick(&mut self, now: SimTime) {
        if !self.measurement_started && now.duration_since(SimTime::ZERO) >= self.config.warmup {
            self.metrics.start_measurement(now);
            self.measurement_started = true;
        }
        self.complete_displays(now);
        if !self.timeline.is_empty() {
            self.process_rebuilds(now);
            self.process_faults(now);
        }
        self.serve_waiters(now);
        self.issue_requests(now);
        self.serve_waiters(now);
        self.pump_fetches(now);
        if self.plane.is_some() {
            self.process_storage_plane(now);
        }
        let busy = f64::from(self.vdr.clusters - self.farm.idle_count(now));
        let util = busy / f64::from(self.vdr.clusters);
        self.metrics.utilization.set(now, util);
        if let Some(dist) = self.dist.as_mut() {
            // Booked interconnect intervals strictly behind the clock are
            // never queried again: retire them.
            dist.ledger
                .retire(now.as_micros() / self.config.interval().as_micros());
        }
        debug_assert_eq!(
            self.active_viewers,
            self.active
                .iter()
                .map(|d| u64::from(!d.primary_done) + d.viewers.len() as u64)
                .sum::<u64>(),
            "viewer count must mirror the active set"
        );
        if ss_obs::enabled() {
            let active = self.active_viewers as f64;
            let wasted = ((busy - active) / f64::from(self.vdr.clusters)).max(0.0);
            let row = self.heatmap_row(now);
            crate::metrics::obs_boundary_row(
                now.as_micros() / self.config.interval().as_micros(),
                active,
                self.waiters.len() as f64,
                util,
                wasted,
                |buf| buf.extend_from_slice(&row),
            );
        }
    }

    /// Per-physical-disk busy row for the observability heatmap. A VDR
    /// cluster is one indivisible delivery pipeline, so all `M` disks of
    /// a non-idle cluster count busy together; disks beyond the last
    /// whole cluster serve no data and always read idle.
    fn heatmap_row(&mut self, now: SimTime) -> Vec<f32> {
        let degree = self.config.degree() as usize;
        let mut row = vec![0.0; self.vdr.clusters as usize * degree];
        for c in 0..self.vdr.clusters {
            if !matches!(self.farm.status(ClusterId(c), now), ClusterStatus::Idle) {
                let base = c as usize * degree;
                for cell in &mut row[base..base + degree] {
                    *cell = 1.0;
                }
            }
        }
        row
    }

    /// The earliest future instant at which the next tick can do anything a
    /// quiescent tick would not (see the striping model's twin). Every
    /// cluster-status transition happens at a display end or a copy
    /// completion, and all farm decisions are deterministic in the statuses
    /// plus the (tick-only) LFU counts — so between these instants a tick
    /// is a provable no-op, waiters included.
    fn next_wakeup(&self, now: SimTime) -> SimTime {
        // A queued fetch facing a free tertiary device retries its replica
        // planning (including the eviction search) every interval.
        if !self.fetch_queue.is_empty() && self.tertiary.busy_until() <= now {
            return now;
        }
        let mut horizon = self.deadline;
        // Fault events must be processed at their boundary: cluster
        // availability and the rescue/drop decisions hang off them.
        if let Some(at) = self.timeline.next_at(self.fault_cursor) {
            horizon = horizon.min(at);
        }
        // Rebuild completions flip disks back into service at their
        // boundary.
        let us = self.config.interval().as_micros();
        for &(_, _, done) in &self.pending_rebuilds {
            horizon = horizon.min(SimTime::from_micros(done * us));
        }
        // Crash events recover at their boundary; a scrub chunk end
        // advances the walk (both are no-ops between these instants).
        if let Some(p) = &self.plane {
            if let Some(at) = p.next_crash_at(&self.timeline) {
                horizon = horizon.min(at);
            }
            if let Some(end) = p.next_scrub_end() {
                horizon = horizon.min(SimTime::from_micros(end * us));
            }
        }
        if !self.measurement_started {
            horizon = horizon.min(SimTime::ZERO + self.config.warmup);
        }
        // (a) Display completions free clusters and stations — primary
        // and shared-viewer ends alike. A primary-done entry's own `ends`
        // is in the past and spent; only its viewers impose wakeups.
        for d in &self.active {
            if !d.primary_done {
                horizon = horizon.min(d.ends);
            }
            for v in &d.viewers {
                horizon = horizon.min(v.ends);
            }
        }
        // (d) Copy completions register replicas; a busy tertiary device
        // frees up for the next queued fetch.
        for &o in &self.copy_ids {
            if let Some(done) = self.copy_done[o.index()] {
                horizon = horizon.min(done);
            }
        }
        if !self.fetch_queue.is_empty() {
            horizon = horizon.min(self.tertiary.busy_until());
        }
        // (b) Station activation / think expiry (the VDR baseline is
        // closed-loop only).
        let station_min = (0..self.stations.len())
            .filter_map(|s| {
                let station = StationId(s as u32);
                matches!(self.stations.state(station), StationState::Thinking)
                    .then(|| self.activate_at[s].max(self.stations.ready_from(station)))
            })
            .min();
        if let Some(ready) = station_min {
            horizon = horizon.min(ready);
        }
        horizon
    }

    /// Replays the metric samples a dense model would have taken at every
    /// boundary strictly between the last executed tick and `now`. With no
    /// status transition inside the skipped range, both the active-display
    /// count and the busy-cluster fraction are the constants of the last
    /// executed tick, so the dense piecewise accumulation is reproduced
    /// bit-for-bit.
    fn replay_skipped(&mut self, now: SimTime) {
        let interval = self.config.interval();
        let b = self.last_tick + interval;
        if b >= now {
            return;
        }
        let active = self.active_viewers as f64;
        let busy = f64::from(self.vdr.clusters - self.farm.idle_count(b));
        let clusters = f64::from(self.vdr.clusters);
        let util = busy / clusters;
        // Cluster statuses are frozen across the skipped range, so the
        // observability row (and the heatmap in particular) is one
        // constant sampled at the first boundary.
        let obs = ss_obs::enabled().then(|| {
            (
                self.heatmap_row(b),
                ((busy - active) / clusters).max(0.0),
                self.waiters.len() as f64,
                interval.as_micros(),
            )
        });
        self.metrics
            .replay_boundaries(self.last_tick, interval, now, |at| {
                if let Some((row, wasted, queue, us)) = &obs {
                    crate::metrics::obs_boundary_row(
                        at.as_micros() / us,
                        active,
                        *queue,
                        util,
                        *wasted,
                        |buf| buf.extend_from_slice(row),
                    );
                }
                (active, util)
            });
    }
}

impl Model for VdrModel {
    type Event = Event;
    fn handle(&mut self, _ev: Event, ctx: &mut Context<'_, Event>) {
        let now = ctx.now();
        ss_obs::set_clock(now.as_micros());
        if !self.config.dense_ticks {
            self.replay_skipped(now);
        }
        self.tick(now);
        self.last_tick = now;
        if now >= self.deadline {
            ctx.stop();
        } else if self.config.dense_ticks {
            ctx.schedule_in(self.config.interval(), Event::Tick);
        } else {
            ctx.schedule_next_boundary(self.config.interval(), self.next_wakeup(now), Event::Tick);
        }
    }
}

/// The runnable VDR server.
pub struct VdrServer {
    sim: Simulation<VdrModel>,
}

impl VdrServer {
    /// Builds the server from a validated configuration.
    pub fn new(config: ServerConfig) -> Result<Self> {
        config.validate()?;
        let model = VdrModel::new(config)?;
        let mut sim = Simulation::new(model);
        sim.schedule_at(SimTime::ZERO, Event::Tick);
        Ok(VdrServer { sim })
    }

    /// Like [`VdrServer::run`] but prints a state snapshot every 500
    /// simulated intervals (calibration/debug aid).
    pub fn run_debug(mut self) -> RunReport {
        let mut next = 0u64;
        loop {
            if !self.sim.step() {
                break;
            }
            let t = self.sim.now().as_micros() / 604_800;
            if t >= next {
                next = t + 500;
                let m = self.sim.model();
                eprintln!(
                    "t={:8.0}s active={} waiters={} fetchq={} copies={} thinking={}",
                    self.sim.now().as_secs_f64(),
                    m.active.len(),
                    m.waiters.len(),
                    m.fetch_queue.len(),
                    m.copy_ids.len(),
                    m.stations.len() - m.stations.count_waiting() - m.stations.count_displaying(),
                );
            }
        }
        self.finish()
    }

    /// Runs to the configured deadline and produces the report.
    pub fn run(mut self) -> RunReport {
        self.sim.run();
        self.finish()
    }

    fn finish(mut self) -> RunReport {
        let now = self.sim.now();
        let m = self.sim.model_mut();
        if !m.timeline.is_empty() {
            m.mask.finish(now);
            let g = m.metrics.degraded_mut();
            g.disk_downtime_s = m.mask.total_downtime().as_secs_f64();
            g.max_disk_downtime_s = m.mask.max_downtime().as_secs_f64();
            g.slow_seconds = m.mask.total_slow_time().as_secs_f64();
        }
        let m = self.sim.model();
        let popularity = m.config.popularity.tag();
        let mut report = m.metrics.report(
            now,
            "vdr",
            m.config.stations,
            popularity,
            m.config.seed,
            m.tertiary.utilization(now),
            m.farm.unique_residents() as u64,
        );
        report.rebuild_rate = m.config.rebuild.as_ref().map(|r| r.fragments_per_interval);
        if let Some(sh) = m.config.sharing {
            let mut s = m.metrics.sharing.unwrap_or_default();
            if let Some(cache) = &m.cache {
                let cs = cache.stats();
                s.cache_hits = cs.hits;
                s.cache_misses = cs.misses;
                s.cache_insertions = cs.insertions;
                s.cache_evictions = cs.evictions;
            }
            s.cache_budget_fragments = sh.cache_fragments;
            s.prefix_intervals = sh.prefix_intervals;
            s.batch_window = sh.batch_window;
            report.sharing = Some(s);
        }
        // Attached whenever a crash event fired or the scrub daemon was
        // armed, so a zero-crash zero-scrub run stays byte-identical.
        if let Some(p) = &m.plane {
            if p.fired() || p.scrub_armed() {
                report.crash = Some(p.stats.clone());
            }
        }
        // Attached only when it can say something a single-box run
        // cannot, so a 1-node infinite-interconnect config reproduces the
        // single-box report byte-for-byte.
        if let Some(ds) = &m.dist {
            if ds.topology.nodes > 1 || ds.node_outages > 0 {
                report.distributed = Some(crate::metrics::DistributedStats {
                    nodes: ds.topology.nodes,
                    disks_per_node: ds.topology.disks_per_node,
                    displays_routed: ds.router.routed().to_vec(),
                    remote_fragment_intervals: ds.ledger.remote_fragment_intervals(),
                    peak_link_fragments: ds.ledger.peak_link_fragments(),
                    interconnect_rejections: ds.ledger.rejections(),
                    latency_buffer_fragments: ds.latency_buffer_fragments,
                    node_outages: ds.node_outages,
                });
            }
        }
        report
    }

    /// Access to the model (tests).
    pub fn model(&self) -> &VdrModel {
        self.sim.model()
    }

    /// Advances one event (diagnostics); returns false when finished.
    pub fn step(&mut self) -> bool {
        self.sim.step()
    }

    /// The simulation clock (diagnostics).
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

impl VdrModel {
    /// Currently running displays (tests/examples).
    pub fn active_displays(&self) -> usize {
        self.active.len()
    }

    /// Currently queued requests (tests/examples).
    pub fn queued(&self) -> usize {
        self.waiters.len()
    }

    /// Interval boundaries skipped (proved quiescent) so far.
    pub fn ticks_skipped(&self) -> u64 {
        self.metrics.ticks_skipped
    }

    /// The per-disk availability mask (fault-injection diagnostics).
    pub fn mask(&self) -> &AvailabilityMask {
        &self.mask
    }

    /// The compiled fault timeline (fault-injection diagnostics).
    pub fn fault_timeline(&self) -> &FaultTimeline {
        &self.timeline
    }

    /// Degraded-mode counters accumulated so far (`None` when no fault
    /// has fired).
    pub fn degraded(&self) -> Option<&crate::metrics::DegradedStats> {
        self.metrics.degraded.as_ref()
    }

    /// Interconnect fragment·intervals booked so far (distributed
    /// diagnostics; 0 when the tier is off).
    pub fn remote_fragment_intervals(&self) -> u64 {
        self.dist
            .as_ref()
            .map_or(0, |d| d.ledger.remote_fragment_intervals())
    }

    /// The cross-layer reconciliation invariant, per cluster: every
    /// metadata ledger internally consistent and holding exactly the
    /// farm's replica set for its cluster. Vacuously true when the plane
    /// is off.
    pub fn storage_reconciles(&self) -> bool {
        let Some(p) = self.plane.as_ref() else {
            return true;
        };
        p.verify_all()
            && (0..self.vdr.clusters).all(|c| {
                let want: BTreeSet<u64> = self
                    .farm
                    .cluster_contents(ClusterId(c))
                    .iter()
                    .map(|o| u64::from(o.0))
                    .collect();
                p.ledger_objects(c as usize) == want
            })
    }

    /// Crash statistics accumulated so far (`None` when the plane is off).
    pub fn crash_stats(&self) -> Option<&crate::metrics::CrashStats> {
        self.plane.as_ref().map(|p| &p.stats)
    }

    /// Latent errors currently planted and undetected (0 when the plane
    /// is off) — scrub-coverage diagnostics.
    pub fn latent_errors(&self) -> usize {
        self.plane.as_ref().map_or(0, StoragePlane::latent_len)
    }
}

/// Staggered activation times: station `s` of `N` wakes at
/// `s/N × display_time`.
pub(crate) fn stagger(config: &ServerConfig) -> Vec<SimTime> {
    let display = config.display_time();
    (0..config.stations)
        .map(|s| SimTime::ZERO + display * u64::from(s) / u64::from(config.stations))
        .collect()
}

/// Builds a consistent VDR variant of any striping config: `R = D/M`
/// clusters sized to the farm, capacity-derived objects-per-cluster.
pub fn vdr_config_for(config: &ServerConfig) -> VdrConfig {
    let clusters = config.disks / config.degree();
    let objects_per_cluster =
        (config.disk.cylinders / (config.subobjects * config.cylinders_per_fragment)).max(1);
    VdrConfig {
        clusters,
        objects_per_cluster,
        ..VdrConfig::table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MaterializeMode;

    fn small(stations: u32) -> ServerConfig {
        let mut c = ServerConfig::small_test(stations, 42);
        c.scheme = Scheme::Vdr {
            vdr: vdr_config_for(&c),
        };
        c.materialize = MaterializeMode::AfterFull;
        c
    }

    #[test]
    fn vdr_config_for_small_farm() {
        let c = ServerConfig::small_test(1, 1);
        let v = vdr_config_for(&c);
        assert_eq!(v.clusters, 4); // 20 disks / M=5
        assert_eq!(v.objects_per_cluster, 75); // 3000 cylinders / 40
    }

    #[test]
    fn single_station_loops_displays() {
        let report = VdrServer::new(small(1)).unwrap().run();
        // Same back-to-back arithmetic as the striping test: ≈ 74
        // displays in the 1800 s window at 24.192 s each.
        let got = report.displays_completed as f64;
        assert!((got - 74.0).abs() <= 3.0, "got {got}");
        assert!(report.mean_latency_s < 1.0);
    }

    #[test]
    fn vdr_caps_at_cluster_count() {
        // 8 stations on 4 clusters: at most 4 concurrent displays, so
        // throughput saturates at 4 / 24.192 s ≈ 595/hour.
        let report = VdrServer::new(small(8)).unwrap().run();
        assert!(
            report.displays_per_hour < 640.0,
            "rate {}",
            report.displays_per_hour
        );
        // ... but well above the single-cluster rate. It does not reach
        // the 595 ceiling inside this short window because disk-to-disk
        // replication of the hot objects costs cluster-time (each copy
        // occupies a source and a target for one display time) — the very
        // overhead the paper charges against this baseline.
        assert!(
            report.displays_per_hour > 300.0,
            "rate {}",
            report.displays_per_hour
        );
    }

    #[test]
    fn determinism() {
        let a = VdrServer::new(small(4)).unwrap().run();
        let b = VdrServer::new(small(4)).unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn hot_object_gets_replicated() {
        // A single-object hotspot: extreme skew drives every request at
        // object 0; with 4 clusters the policy must replicate it.
        let mut cfg = small(8);
        cfg.popularity = ss_workload::Popularity::TruncatedGeometric { mean: 0.3 };
        let server = VdrServer::new(cfg).unwrap();
        let report = server.run();
        // With replication, more than one display of the hot object can
        // run concurrently, so throughput must exceed the single-cluster
        // ceiling of 3600/24.192 ≈ 149/hour.
        assert!(
            report.displays_per_hour > 200.0,
            "rate {}",
            report.displays_per_hour
        );
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_baseline() {
        use ss_sim::FaultPlan;
        let baseline = VdrServer::new(small(4)).unwrap().run();
        let mut cfg = small(4);
        cfg.faults = FaultPlan::none();
        let r = VdrServer::new(cfg).unwrap().run();
        assert_eq!(baseline, r);
        assert!(r.degraded.is_none());
    }

    /// A slow scheduled repair with a fast rebuild: the spare returns the
    /// disk (and its cluster) to service long before the repair window
    /// closes, the stale `Repair` event is a no-op, and the downtime
    /// shrinks accordingly.
    #[test]
    fn hot_spare_rebuild_beats_the_scheduled_repair() {
        use ss_sim::FaultPlan;
        let mut cfg = small(8);
        cfg.faults = FaultPlan::fail_window(2, SimTime::from_secs(600), SimTime::from_secs(1800));
        cfg.rebuild = Some(crate::config::RebuildConfig::rate(64));
        let r = VdrServer::new(cfg).unwrap().run();
        let g = r.degraded.as_ref().expect("degraded section present");
        assert_eq!(g.faults_injected, 1);
        assert_eq!(g.repairs, 1, "the early repair balances the ledger");
        let h = g.self_heal.as_ref().expect("self-heal section present");
        assert_eq!(h.rebuilds_completed, 1);
        assert!(h.rebuild_seconds > 0.0);
        // 75 replicas × 40 subobjects = 3000 fragments at 64/interval →
        // 47 intervals ≈ 28.4 s of downtime instead of 1200 s.
        assert!(
            g.disk_downtime_s < 60.0,
            "rebuild should cut downtime to ≈ 28 s, got {}",
            g.disk_downtime_s
        );
    }

    #[test]
    fn cluster_failure_degrades_and_repair_restores() {
        use ss_sim::FaultPlan;
        // Fail one disk of cluster 0 (disks 0..5) for 300 s mid-run: the
        // whole cluster is unavailable, so any display on it is rescued
        // onto a replica or dropped, and planning avoids it meanwhile.
        let mut cfg = small(8);
        cfg.faults = FaultPlan::fail_window(2, SimTime::from_secs(600), SimTime::from_secs(900));
        let r = VdrServer::new(cfg).unwrap().run();
        let g = r.degraded.as_ref().expect("degraded section present");
        assert_eq!(g.faults_injected, 1);
        assert_eq!(g.repairs, 1);
        let iv = ServerConfig::small_test(8, 42).interval().as_secs_f64();
        assert!(
            (g.disk_downtime_s - 300.0).abs() <= 2.0 * iv,
            "downtime {}",
            g.disk_downtime_s
        );
        // A saturated 4-cluster farm has a display on cluster 0 at t=600;
        // it is either moved to a replica or cut off — never ignored.
        assert!(
            g.rescues + g.streams_dropped > 0,
            "the affected stream must be rescued or dropped: {g:?}"
        );
        assert_eq!(
            g.streams_dropped > 0,
            g.hiccup_intervals > 0,
            "VDR hiccups exactly when a stream is cut off: {g:?}"
        );
        // The run keeps going on the surviving clusters.
        assert!(r.displays_completed > 0);
    }

    #[test]
    fn faulty_vdr_runs_are_seed_deterministic() {
        use ss_sim::{FaultPlan, StochasticFaults};
        use ss_types::SimDuration;
        let mk = || {
            let mut cfg = small(6);
            cfg.faults = FaultPlan {
                stochastic: Some(StochasticFaults {
                    mean_time_between_failures: SimDuration::from_secs(500),
                    mean_time_to_repair: SimDuration::from_secs(150),
                    slow_fraction: 0.25,
                }),
                ..FaultPlan::none()
            };
            cfg
        };
        let a = VdrServer::new(mk()).unwrap().run();
        let b = VdrServer::new(mk()).unwrap().run();
        assert_eq!(a, b);
        let g = a.degraded.as_ref().expect("stochastic plan fires");
        assert_eq!(g.faults_injected, g.repairs, "every window closes");
    }

    #[test]
    fn wrong_scheme_is_rejected() {
        let cfg = ServerConfig::small_test(2, 1);
        assert!(matches!(
            VdrServer::new(cfg),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn oversized_cluster_count_rejected() {
        let mut cfg = small(2);
        if let Scheme::Vdr { vdr } = &mut cfg.scheme {
            vdr.clusters = 999;
        }
        assert!(matches!(
            VdrModel::new(cfg),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn zero_armed_run_attaches_no_crash_section() {
        let report = VdrServer::new(small(2)).unwrap().run();
        assert!(report.crash.is_none(), "plane never constructed");
    }

    #[test]
    fn crash_plane_recovers_and_reconciles_with_the_farm_at_every_event() {
        let mut cfg = small(4);
        // Cold start: tertiary materializations register replicas, so the
        // sync pass journals real allocation transactions for the power
        // losses to cut.
        cfg.preload = false;
        // Degree 5: disks 0 and 3 strike cluster 0, disk 7 cluster 1.
        cfg.faults.crash = Some(ss_sim::CrashFaults {
            events: vec![
                ss_sim::CrashPlanEvent {
                    disk: 0,
                    at: SimTime::from_secs(60),
                    kind: ss_sim::CrashKind::PowerLoss,
                },
                ss_sim::CrashPlanEvent {
                    disk: 3,
                    at: SimTime::from_secs(200),
                    kind: ss_sim::CrashKind::TornWrite,
                },
                ss_sim::CrashPlanEvent {
                    disk: 7,
                    at: SimTime::from_secs(300),
                    kind: ss_sim::CrashKind::PowerLoss,
                },
            ],
            ..Default::default()
        });
        let mut server = VdrServer::new(cfg).unwrap();
        while server.step() {
            assert!(
                server.model().storage_reconciles(),
                "plane/farm reconciliation broke at {:?}",
                server.now()
            );
        }
        let report = server.run();
        let c = report.crash.as_ref().expect("crash events fired");
        assert_eq!(c.power_loss_events, 2);
        assert_eq!(c.torn_write_events, 1);
        assert_eq!(c.recoveries, 2);
        assert_eq!(c.recoveries_clean, 2, "every recovery verified clean");
        assert!(c.txns_journaled > 0, "replica syncs journal allocs");
        assert!(report.displays_completed > 0, "the server kept serving");
    }

    #[test]
    fn metadata_scrub_finds_torn_writes_without_booking_bandwidth() {
        let mk = || {
            let mut cfg = small(2);
            cfg.scrub = Some(crate::config::ScrubConfig::rate(50));
            // One torn write per cluster (degree 5).
            cfg.faults.crash = Some(ss_sim::CrashFaults {
                events: (0..4)
                    .map(|i| ss_sim::CrashPlanEvent {
                        disk: i * 5,
                        at: SimTime::from_secs(300 + u64::from(i) * 60),
                        kind: ss_sim::CrashKind::TornWrite,
                    })
                    .collect(),
                ..Default::default()
            });
            cfg
        };
        let mut server = VdrServer::new(mk()).unwrap();
        while server.step() {
            assert!(server.model().storage_reconciles());
        }
        assert_eq!(server.model().latent_errors(), 0, "a pass found them all");
        let report = server.run();
        let c = report.crash.as_ref().expect("scrub armed");
        assert_eq!(c.torn_write_events, 4);
        assert!(c.latent_injected >= 1, "torn writes hit preloaded slots");
        assert_eq!(c.latent_found, c.latent_injected);
        assert_eq!(c.latent_repaired, c.latent_found);
        // Replica resync repairs in place: no eviction, no refetch, and a
        // metadata-only walk charges no verification bandwidth.
        assert_eq!(c.objects_refetched, 0);
        assert_eq!(c.scrub_interference_intervals, 0);
        assert!(c.scrub_passes >= 1, "the walk wrapped the farm");
        assert!(c.latent_dwell_s > 0.0, "detection lags injection");
        assert_eq!(c.scrub_rate, 50);
        // Same seed, same crash/scrub plan: byte-identical reports.
        let again = VdrServer::new(mk()).unwrap().run();
        assert_eq!(report, again);
    }
}
