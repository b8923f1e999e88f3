//! The virtual-data-replication media server (the §4 baseline).
//!
//! Requests for an object go to an idle cluster holding a replica. When
//! every replica is busy, the policy may create another replica (disk-to-
//! disk when an idle source exists, otherwise from tertiary), evicting the
//! least-frequently-accessed victim. An object absent from disk is
//! materialized from tertiary into an evictable cluster; the display
//! starts only after full materialization, because one cluster's bandwidth
//! is exactly one display (see [`crate::config::MaterializeMode`]).
//!
//! The VDR baseline runs only the paper's closed workload;
//! `ServerConfig::validate` rejects open and trace arrivals for it.

use crate::config::{Scheme, ServerConfig};
use crate::kernel::{
    ActiveDisplay, DistState, Kernel, PlacementPolicy, Server, ServerCore, Waiter,
};
use crate::storage::StoragePlane;
use ss_disk::RebuildJob;
use ss_sim::{CrashEvent, FaultEvent, FaultKind};
use ss_types::{ClusterId, Error, NodeId, NodeTopology, ObjectId, Result, SimTime};
use ss_vdr::{ClusterFarm, ClusterStatus, CopyPlan, VdrConfig};
use std::collections::BTreeSet;

/// The VDR server model.
pub type VdrModel = Kernel<VdrPolicy>;

/// The runnable VDR server.
pub type VdrServer = Server<VdrPolicy>;

/// VDR's placement state: the cluster farm and its replica copies.
pub struct VdrPolicy {
    vdr: VdrConfig,
    farm: ClusterFarm,
    /// Disks per cluster (the media's degree of declustering).
    degree: u32,
    /// Disks in the farm, whole clusters or not (the heat row's width).
    disks: u32,
    subobjects: u32,
    /// The busy clusters and their share of the farm as the tick's own
    /// sample counted them; `release` clears it (see `busy()`).
    busy: Option<(f64, f64)>,
    /// Per-object queued-request counts, reused across admission passes
    /// (entries are zeroed at the end of each pass).
    queue_len: Vec<u32>,
    /// The farm's contents change count when the storage plane last
    /// mirrored it.
    synced_changes: u64,
    /// The last admission pass left a waiter queued because the
    /// interconnect refused its display (see [`PlacementPolicy::wakeup`]).
    gate_refused: bool,
}

type Core = ServerCore<ClusterId>;
type Active = ActiveDisplay<ClusterId>;

impl DistState {
    /// Whether a stream served from the cluster starting at
    /// `cluster_disk` crosses the interconnect to reach `home`. A display
    /// is one indivisible cluster stream, so its interconnect demand is
    /// all-or-nothing.
    fn remote(&self, cluster_disk: u32, home: NodeId) -> bool {
        self.topology.nodes > 1 && self.topology.node_of(cluster_disk) != home
    }

    /// Books `degree` fragments per interval over `[t0, t1)` on `home`'s
    /// link; `force` books without checking headroom (a failure fallback
    /// is never refused).
    fn book_stream(
        &mut self,
        home: NodeId,
        degree: u32,
        (t0, t1): (u64, u64),
        force: bool,
    ) -> bool {
        self.scratch.clear();
        self.scratch
            .extend((t0..t1).map(|u| (u, u64::from(degree))));
        self.book(home, force)
    }
}

impl VdrPolicy {
    /// The interval window `[now, ends)` a display occupies, in whole
    /// intervals (at least one).
    fn window(core: &Core, now: SimTime, ends: SimTime) -> (u64, u64) {
        let us = core.interval.as_micros();
        let t0 = now.as_micros() / us;
        (t0, ends.as_micros().div_ceil(us).max(t0 + 1))
    }

    /// Routes a display about to start on `cluster` to a home node,
    /// booking its interconnect window when the home differs from the
    /// cluster's node (the node of the cluster's first disk). Returns the
    /// home node, or `None` when the interconnect refuses the booking
    /// (the waiter stays queued and retries). `NodeId(0)` with nothing
    /// booked when the tier is off or the farm is one node — the
    /// byte-identity path.
    fn route_display(
        &self,
        core: &mut Core,
        cluster: ClusterId,
        now: SimTime,
        ends: SimTime,
    ) -> Option<NodeId> {
        let window = Self::window(core, now, ends);
        let Some(dist) = core.dist.as_mut() else {
            return Some(NodeId(0));
        };
        let cluster_disk = cluster.0 * self.degree;
        let home = dist.route(cluster_disk, &core.mask);
        if !dist.remote(cluster_disk, home) {
            return Some(home);
        }
        if !dist.book_stream(home, self.degree, window, false) {
            return None;
        }
        dist.latency_buffer_fragments += dist.latency_intervals * u64::from(self.degree);
        Some(home)
    }

    /// Offers `object` at the head of the fetch queue to the tertiary
    /// device: plans a replica (from disk when an idle source exists) and
    /// submits it. Objects nobody waits for any more, or already being
    /// copied, are dropped. Returns false when no victim is available.
    fn fetch(&mut self, core: &mut Core, object: ObjectId, now: SimTime) -> bool {
        let qlen = core.queue.iter().filter(|w| w.object == object).count() as u32;
        if qlen == 0 || core.in_flight.get(object).is_some() {
            return true;
        }
        let Some(plan) = self.farm.plan_replica(object, qlen, now, true, &core.freq) else {
            return false; // no victim available; retry next interval
        };
        let until = match plan {
            CopyPlan::FromDisk { .. } => now + core.config.display_time(),
            CopyPlan::FromTertiary { .. } => {
                let schedule = core.tertiary.submit(
                    now,
                    object,
                    core.config.object_size(),
                    u64::from(self.subobjects),
                    core.config.media.display_bandwidth,
                );
                core.metrics.record_tertiary_fetch();
                schedule.done
            }
        };
        self.begin_copy(core, plan, object, now, until);
        true
    }

    /// Commits a planned replica copy of `object` finishing at `until`.
    fn begin_copy(
        &mut self,
        core: &mut Core,
        plan: CopyPlan,
        object: ObjectId,
        now: SimTime,
        until: SimTime,
    ) {
        let target = plan.target();
        self.farm
            .begin_copy(plan, object, now, until)
            .expect("planned copy commits");
        Self::note_copy(core, object, target, until);
    }

    /// Marks `object`'s copy onto `target` in flight until `until`.
    fn note_copy(core: &mut Core, object: ObjectId, target: ClusterId, until: SimTime) {
        core.in_flight.insert(object, until);
        ss_obs::obs!(ss_obs::Event::ClusterCopyStart {
            object: object.0,
            cluster: target.0,
            until_us: until.as_micros(),
        });
    }

    /// Handles a cluster fail-stop: aborts its in-flight work, falls the
    /// display back onto another idle replica when one exists (replicas
    /// are VDR's only redundancy), and otherwise drops the stream with
    /// full hiccup accounting — a cluster is one indivisible delivery
    /// pipeline, so unlike staggered striping there is no partial rescue.
    fn cluster_failed(&mut self, core: &mut Core, cluster: ClusterId, now: SimTime) {
        let st = self.farm.abort(cluster, now);
        self.farm.set_down(cluster, true);
        match st {
            // A dying copy loses both halves; clearing the in-flight
            // marker lets the policy re-plan it later.
            ClusterStatus::Copying { object, .. } | ClusterStatus::SourcingCopy { object, .. } => {
                self.clear_copy(core, object, now);
            }
            _ => {}
        }
        let interval = core.interval;
        let interval_s = interval.as_secs_f64();
        let t = core.interval_index(now);
        let mut i = 0;
        while i < core.active.len() {
            // A primary-done entry's cluster was freed at the primary's
            // end; its surviving viewers play from their buffered tails
            // and ride out the failure untouched.
            let d = &core.active[i];
            if d.ext != cluster || d.primary_done {
                i += 1;
                continue;
            }
            let (object, ends, home) = (d.object, d.ends, d.home_node);
            if let Some(target) = self.farm.find_idle_replica(object, now) {
                // One rescue saves the whole shared stream: every
                // dependent keeps consuming the (re-homed) delivery.
                self.farm
                    .start_display(target, object, now, ends)
                    .expect("idle replica accepts display");
                core.active[i].ext = target;
                // The viewer stays on its front end; a replica on another
                // node turns the rest of the stream remote.
                let window = Self::window(core, now, ends);
                if let Some(dist) = core.dist.as_mut() {
                    if dist.remote(target.0 * self.degree, home) {
                        dist.book_stream(home, self.degree, window, true);
                    }
                }
                let d = &mut core.active[i];
                let g = core.metrics.degraded_mut();
                g.rescues += 1;
                if !d.rescued {
                    d.rescued = true;
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
                core.drop_display(i, now, t, |g, ends, hiccuped| {
                    let lost = ends
                        .saturating_duration_since(now)
                        .as_micros()
                        .div_ceil(interval.as_micros());
                    if !hiccuped {
                        g.hiccup_streams += 1;
                    }
                    g.hiccup_intervals += lost;
                    g.hiccup_seconds += lost as f64 * interval_s;
                    lost
                });
            }
        }
    }

    /// Aborts both halves of the in-flight copy of `object` (the other
    /// half of a cluster-to-cluster copy dies with its peer) and clears
    /// the in-flight marker.
    fn clear_copy(&mut self, core: &mut Core, object: ObjectId, now: SimTime) {
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
        core.in_flight.remove(object);
    }

    /// The farm's replica set on cluster `c`, as plane object ids.
    fn cluster_objects(&self, c: u32) -> BTreeSet<u64> {
        self.farm
            .cluster_contents(ClusterId(c))
            .iter()
            .map(|o| u64::from(o.0))
            .collect()
    }

    /// Mirrors the farm's per-cluster contents into the plane as
    /// journalled per-ledger transactions: replica registrations become
    /// allocs, evictions become frees, so the plane ≡ farm reconciliation
    /// invariant holds at every boundary. The walk runs only when it can
    /// journal something: when the farm's contents changed since the
    /// last sync ([`ClusterFarm::changes`]), or when `crashed` (a power
    /// loss may have rolled a replica registration out of the plane).
    /// Otherwise the plane still mirrors the farm.
    fn sync_plane(&mut self, plane: &mut StoragePlane, crashed: bool) {
        if !crashed && self.farm.changes() == self.synced_changes {
            return;
        }
        self.synced_changes = self.farm.changes();
        for c in 0..self.vdr.clusters {
            let ci = c as usize;
            let want = self.cluster_objects(c);
            let have = plane.ledger_objects(ci);
            for &o in have.difference(&want) {
                plane.record_free_on(ci, o);
            }
            for &o in want.difference(&have) {
                plane.record_alloc_on(ci, o, 1);
            }
        }
    }

    /// The busy clusters and their share of the farm at `at`. The tick's
    /// own sample, the first after `release`, counts them; every boundary
    /// skipped after it reads that count, since no cluster changes status
    /// between ticks (DESIGN.md §3.11). Debug builds recount.
    fn busy(&mut self, at: SimTime) -> (f64, f64) {
        let clusters = self.vdr.clusters;
        let busy = *self.busy.get_or_insert_with(|| {
            let busy = f64::from(clusters - self.farm.idle_count(at));
            (busy, busy / f64::from(clusters))
        });
        debug_assert_eq!(
            busy.0,
            f64::from(clusters - self.farm.idle_count(at)),
            "a cluster changed status between ticks, by {at}"
        );
        busy
    }

    /// The cluster a disk belongs to, if it lies inside a whole cluster
    /// (disks beyond the last whole cluster serve no VDR data).
    fn cluster_of(&self, disk: u32) -> Option<u32> {
        let c = disk / self.degree;
        (c < self.vdr.clusters).then_some(c)
    }
}

impl PlacementPolicy for VdrPolicy {
    /// The cluster serving the display (changes if a failure forces a
    /// fallback onto another replica). A fallback onto a replica on
    /// another node keeps the home: the viewer stays on its front end and
    /// the new cross-node traffic is force-booked.
    type Display = ClusterId;
    const NAME: &'static str = "vdr";
    const STORAGE_BEFORE_ADMISSION: bool = false;
    const SCRUB_BOOKS_BANDWIDTH: bool = false;

    fn build(config: &ServerConfig) -> Result<(Self, usize)> {
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
        let per_cluster_capacity = cluster_capacity(config);
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
        let objects = config.objects as usize;
        let scheme = VdrPolicy {
            vdr,
            farm,
            degree: config.degree(),
            disks: config.disks,
            subobjects: config.subobjects,
            busy: None,
            queue_len: vec![0; objects],
            synced_changes: 0,
            gate_refused: false,
        };
        Ok((scheme, objects))
    }

    /// One metadata ledger per cluster in replica (per-ledger) mode, one
    /// slot per resident object. VDR replicas are whole-cluster objects
    /// with no fragment scheduler behind them, so the scrub walk here is
    /// a pure metadata pass — no bandwidth is booked, and repairs are
    /// in-place replica resyncs. Crash events strike physical disks, so
    /// each maps to its disk's cluster (`disk / M`) like the fault pass;
    /// one past the last whole cluster lands past the last ledger, where
    /// the plane spends it.
    fn storage_plane(&mut self, config: &ServerConfig, crashes: Vec<CrashEvent>) -> StoragePlane {
        let crashes = crashes
            .into_iter()
            .map(|ev| CrashEvent {
                disk: ev.disk / self.degree,
                ..ev
            })
            .collect();
        let mut plane = StoragePlane::new(
            self.vdr.clusters as usize,
            self.vdr.objects_per_cluster,
            config.scrub.map(|s| s.fragments_per_interval),
            crashes,
        )
        .per_ledger();
        for c in 0..self.vdr.clusters {
            for o in self.farm.cluster_contents(ClusterId(c)) {
                plane.seed(u64::from(o.0), [(c, 1)]);
            }
        }
        self.synced_changes = self.farm.changes();
        // The preload is base state, not replayable history.
        plane.checkpoint();
        // Metadata-only walk: the chunk is not booked anywhere.
        plane.begin_scrub(0);
        plane
    }

    /// Lands finished copies and refreshes every cluster's status, so
    /// the fault pass sees the farm as of `now`; the busy count is taken
    /// again at the tick's end.
    fn release(&mut self, core: &mut Core, now: SimTime) {
        core.in_flight.land(now, |_| {});
        self.busy = None;
        self.farm.refresh(now);
    }

    fn admit(&mut self, core: &mut Core, now: SimTime) {
        let display_time = core.config.display_time();
        let t = core.interval_index(now);
        let waiters = std::mem::take(&mut core.queue);
        // Queue length per object for the replication trigger (dense
        // scratch table; zeroed again at the end of the pass).
        for w in &waiters {
            self.queue_len[w.object.index()] += 1;
        }
        let mut still = Vec::with_capacity(waiters.len());
        self.gate_refused = false;
        for &w in &waiters {
            let o = w.object.index();
            if core.try_join_shared(&w, now, t, || (self.degree, display_time)) {
                // Joined an in-flight shared stream: no cluster booked, no
                // replica needed for this request.
                self.queue_len[o] = self.queue_len[o].saturating_sub(1);
                continue;
            }
            if let Some(cluster) = self.farm.find_idle_replica(w.object, now) {
                let ends = now + display_time;
                let Some(home) = self.route_display(core, cluster, now, ends) else {
                    // Interconnect saturated: the replica stays idle, the
                    // request stays queued, and a later pass retries once
                    // link intervals free up.
                    self.gate_refused = true;
                    still.push(w);
                    continue;
                };
                self.farm
                    .start_display(cluster, w.object, now, ends)
                    .expect("idle replica accepts display");
                let wait = core.start_wait(&w, now, now);
                core.open_display(
                    ActiveDisplay {
                        station: w.station,
                        object: w.object,
                        home_node: home,
                        ends,
                        delivery_start: t,
                        viewers: Vec::new(),
                        primary_done: false,
                        buffer_fragments: 0,
                        rescued: false,
                        hiccuped: false,
                        ext: cluster,
                    },
                    t,
                    self.subobjects,
                    self.degree,
                );
                if ss_obs::enabled() {
                    let us = core.interval.as_micros();
                    ss_obs::record(ss_obs::Event::ClusterDisplayStart {
                        object: w.object.0,
                        cluster: cluster.0,
                        interval: t,
                        end_interval: ends.as_micros() / us,
                    });
                    core.journal_startup(w.object, t, wait);
                    ss_obs::with_registry(|r| r.count("admissions", 1));
                }
                // Piggyback replication: if more requests for this object
                // remain blocked, tee the display's stream into an idle
                // target cluster — a replica for the price of the target
                // alone. This is what keeps a hot object's replica count
                // tracking its demand (replicas of hot objects are never
                // idle, so plain disk-to-disk copies cannot run).
                let blocked = self.queue_len[o].saturating_sub(1);
                if blocked >= 1 && core.in_flight.get(w.object).is_none() {
                    if let Some(target) =
                        self.farm.plan_piggyback(w.object, blocked, now, &core.freq)
                    {
                        self.farm
                            .begin_stream_copy(target, w.object, now, ends)
                            .expect("planned piggyback commits");
                        Self::note_copy(core, w.object, target, ends);
                    }
                }
                self.queue_len[o] = self.queue_len[o].saturating_sub(1);
                continue;
            }
            // No idle replica: consider creating one, unless a copy of
            // this object is already on its way. Disk-to-disk copies are
            // attempted immediately; tertiary-sourced copies go through
            // the fetch queue and are planned when the device frees.
            if core.in_flight.get(w.object).is_none() {
                let qlen = self.queue_len[o].max(1);
                if let Some(plan) = self
                    .farm
                    .plan_replica(w.object, qlen, now, false, &core.freq)
                {
                    // A cluster-to-cluster copy takes one display time.
                    self.begin_copy(core, plan, w.object, now, now + display_time);
                } else {
                    core.request_fetch(w.object);
                }
            }
            still.push(w);
        }
        // Zero the scratch counts (only entries this pass touched).
        for w in &waiters {
            self.queue_len[w.object.index()] = 0;
        }
        core.queue = still;
    }

    fn route(&mut self, core: &mut Core, w: Waiter, _now: SimTime) {
        core.queue.push(w);
    }

    fn pump(&mut self, core: &mut Core, now: SimTime) {
        core.pump_fetches(now, |core, object| self.fetch(core, object, now));
    }

    /// The crash/scrub pass: sync the plane to the farm, fire due crash
    /// events, advance the scrub walk, then re-sync after a crash so a
    /// discarded replica registration is immediately re-journalled (a
    /// metadata-level resync from a surviving replica or tertiary —
    /// counted as a forced refetch).
    fn storage(&mut self, core: &mut Core, now: SimTime) {
        let Some(mut plane) = core.plane.take() else {
            return;
        };
        self.sync_plane(&mut plane, false);
        let crashed = plane.next_crash_at().is_some_and(|at| at <= now);
        if crashed {
            plane.process_crashes(now, |_| true);
        }
        // Every scrub finding is repaired by resyncing the replica in
        // place from a surviving copy (`false` = not a parity rebuild);
        // the farm is untouched, so no eviction or refetch follows. The
        // kernel completed the chunks that ended before this tick; one
        // ending at the tick completes here, after its crash events.
        plane.process_scrub(core.interval_index(now), core.interval, |_, _| false);
        self.sync_plane(&mut plane, crashed);
        core.plane = Some(plane);
    }

    /// The failed disk holds `subobjects` fragments per replica its
    /// cluster carries; the drain refills them from a surviving replica.
    /// (The drain's bandwidth interference is not modeled: replica copies
    /// are whole-cluster operations, a fragment drain is below that
    /// grain.)
    fn rebuild_fragments(&self, disk: u32) -> u64 {
        self.cluster_of(disk).map_or(0, |c| {
            self.farm.cluster_contents(ClusterId(c)).len() as u64 * u64::from(self.subobjects)
        })
    }

    fn ledger_of(&self, disk: u32) -> Option<u32> {
        self.cluster_of(disk)
    }

    /// A disk fault maps onto the aligned cluster holding it (`disk / M`);
    /// the cluster is down or slow while *any* of its disks is, read off
    /// the mask, which already holds the transition. A repair (scheduled,
    /// or an early rebuild onto a spare) is a fail-stop with intact media:
    /// the cluster serves its old replicas again.
    fn transition(
        &mut self,
        core: &mut Core,
        ev: &FaultEvent,
        _t: u64,
        now: SimTime,
        _until: u64,
        _drain: Option<RebuildJob>,
    ) {
        let Some(c) = self.cluster_of(ev.disk) else {
            return;
        };
        let (down, slow) = core.mask.count_in(c * self.degree..(c + 1) * self.degree);
        if ev.kind == FaultKind::Fail && down == 1 {
            self.cluster_failed(core, ClusterId(c), now);
        }
        self.farm.set_down(ClusterId(c), down > 0);
        self.farm.set_slow(ClusterId(c), slow > 0);
    }

    fn utilization(&mut self, _t: u64, at: SimTime) -> f64 {
        self.busy(at).1
    }

    /// Busy clusters not delivering a primary display (copies, and the
    /// idle-but-unplannable).
    fn wasted(&mut self, _active: &[Active], viewers: f64, _t: u64, at: SimTime) -> f64 {
        let (busy, _) = self.busy(at);
        ((busy - viewers) / f64::from(self.vdr.clusters)).max(0.0)
    }

    /// A VDR cluster is one indivisible delivery pipeline, so all `M`
    /// disks of a non-idle cluster count busy together; disks beyond the
    /// last whole cluster serve no data and always read idle. Clusters
    /// sit on fixed disks, so the row's rotation is 0.
    fn heat_row(&mut self, _t: u64, at: SimTime, row: &mut Vec<f32>) -> u32 {
        let degree = self.degree as usize;
        row.resize(self.disks as usize, 0.0);
        for c in 0..self.vdr.clusters {
            if !matches!(self.farm.status(ClusterId(c), at), ClusterStatus::Idle) {
                let base = c as usize * degree;
                row[base..base + degree].fill(1.0);
            }
        }
        0
    }

    /// Clusters sit on fixed disks and keep their status between ticks,
    /// so a skipped boundary repeats the tick's row.
    fn heat_repeat(&self, _t: u64) -> Option<u32> {
        Some(0)
    }

    /// Every cluster-status transition happens at a display end or a copy
    /// completion (the kernel wakes for both; a completion registers a
    /// replica), and all farm decisions are deterministic in the
    /// statuses plus the (tick-only) LFU counts and queue lengths — so
    /// between these instants a tick is a provable no-op, waiters and a
    /// refused tertiary fetch included. One refusal is not a farm
    /// decision: a waiter whose display the interconnect refused retries
    /// with a fresh router draw at every boundary, so while one is queued
    /// the clock ticks densely.
    fn wakeup(&self, core: &Core, now: SimTime) -> SimTime {
        if self.gate_refused {
            now
        } else {
            core.deadline
        }
    }

    /// A live primary streams `degree` fragments per interval across the
    /// interconnect while its cluster sits on another node than its home.
    fn remote_demand(&self, topology: &NodeTopology, d: &Active, _t: u64) -> u64 {
        let remote = !d.primary_done && topology.node_of(d.ext.0 * self.degree) != d.home_node;
        u64::from(remote) * u64::from(self.degree)
    }

    fn residents(&self) -> usize {
        self.farm.unique_residents()
    }

    /// Every metadata ledger internally consistent and holding exactly
    /// the farm's replica set for its cluster.
    fn reconciles(&self, plane: &StoragePlane) -> bool {
        plane.verify_all()
            && (0..self.vdr.clusters)
                .all(|c| plane.ledger_objects(c as usize) == self.cluster_objects(c))
    }
}

/// Whole objects one cluster holds: each of its disks stores one
/// fragment of every subobject.
fn cluster_capacity(config: &ServerConfig) -> u32 {
    let per_object = u64::from(config.subobjects) * u64::from(config.cylinders_per_fragment);
    // At most the cylinder count, so it fits.
    (u64::from(config.disk.cylinders) / per_object) as u32
}

/// Builds a consistent VDR variant of any striping config: `R = D/M`
/// clusters sized to the farm, capacity-derived objects-per-cluster.
pub fn vdr_config_for(config: &ServerConfig) -> VdrConfig {
    let clusters = config.disks / config.degree();
    let objects_per_cluster = cluster_capacity(config).max(1);
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

    /// Two disks of cluster 0 fail over overlapping windows and two disks
    /// of cluster 1 have overlapping slow episodes: a cluster stays down
    /// (slow) until its last down (slow) disk returns. After every step
    /// each cluster's farm flags match the plan's windows, an event
    /// taking effect at the first boundary at or after it.
    #[test]
    fn a_cluster_stays_down_until_its_last_disk_repairs() {
        use ss_sim::FaultPlan;
        let s = SimTime::from_secs;
        // (disk, opens, closes, down?); degree 5, so cluster 0 is disks
        // 0..5 and cluster 1 disks 5..10.
        let windows = [
            (1, 400, 800, true),
            (3, 600, 1000, true),
            (6, 500, 900, false),
            (8, 700, 1100, false),
        ];
        let mut cfg = small(8);
        cfg.faults = FaultPlan {
            events: windows
                .iter()
                .flat_map(|&(disk, open, close, down)| {
                    let (start, end) = if down {
                        (FaultKind::Fail, FaultKind::Repair)
                    } else {
                        (FaultKind::SlowStart, FaultKind::SlowEnd)
                    };
                    [(open, start), (close, end)].map(|(at, kind)| FaultEvent {
                        disk,
                        at: s(at),
                        kind,
                    })
                })
                .collect(),
            ..FaultPlan::none()
        };
        // Whether a window of the given kind covers a disk of cluster `c`
        // at boundary `now`.
        let covered = |c: u32, kind: bool, now: SimTime| {
            windows.iter().any(|&(disk, open, close, down)| {
                disk / 5 == c && down == kind && s(open) <= now && now < s(close)
            })
        };
        let mut server = VdrServer::new(cfg).unwrap();
        // Boundaries checked while one window of a pair had closed and
        // the other was still open.
        let mut between = [0; 2];
        while server.step() {
            let now = server.now();
            let farm = &server.model().scheme.farm;
            for c in 0..4 {
                let id = ClusterId(c);
                assert_eq!(
                    farm.is_down(id),
                    covered(c, true, now),
                    "{id} down at {now:?}"
                );
                assert_eq!(
                    farm.is_slow(id),
                    covered(c, false, now),
                    "{id} slow at {now:?}"
                );
            }
            between[0] += u32::from(s(800) <= now && now < s(1000));
            between[1] += u32::from(s(900) <= now && now < s(1100));
        }
        assert!(between.iter().all(|&n| n > 0), "{between:?}");
    }

    /// A 22-disk farm holds 4 clusters of 5, so disks 20 and 21 lie in no
    /// cluster: a crash there maps past the last ledger and is spent
    /// without firing.
    #[test]
    fn a_crash_past_the_last_whole_cluster_is_spent() {
        let run_with = |disks: &[u32]| {
            let mut cfg = ServerConfig::small_vdr_test(8, 3);
            cfg.disks = 22;
            if !disks.is_empty() {
                cfg.faults.crash = Some(ss_sim::CrashFaults {
                    events: disks
                        .iter()
                        .zip([600, 900])
                        .map(|(&disk, at)| ss_sim::CrashPlanEvent {
                            disk,
                            at: SimTime::from_secs(at),
                            kind: ss_sim::CrashKind::PowerLoss,
                        })
                        .collect(),
                    ..Default::default()
                });
            }
            VdrServer::new(cfg).unwrap()
        };
        let mut server = run_with(&[21, 0]);
        while server.step() {
            assert!(
                server.model().storage_reconciles(),
                "plane/farm reconciliation broke at {:?}",
                server.now()
            );
        }
        let report = server.run();
        let c = report.crash.as_ref().expect("the disk-0 power loss fired");
        assert_eq!(c.power_loss_events, 1);
        assert_eq!(run_with(&[21]).run(), run_with(&[]).run());
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

    /// A farm too small for its catalog (8 replica slots, 10 objects):
    /// materializations and replication must evict LFU replicas, while
    /// the scrub walks the plane and power losses cut its journal. The
    /// plane is re-synced only when the farm's contents change, so every
    /// eviction must register as a change: the plane reconciles with the
    /// farm after every tick.
    #[test]
    fn crash_plane_tracks_evictions_at_every_tick() {
        let mut cfg = small(8);
        cfg.preload = false;
        if let Scheme::Vdr { vdr } = &mut cfg.scheme {
            vdr.objects_per_cluster = 2;
        }
        cfg.scrub = Some(crate::config::ScrubConfig::rate(50));
        cfg.faults.crash = Some(ss_sim::CrashFaults {
            events: (0..4)
                .map(|i| ss_sim::CrashPlanEvent {
                    disk: i * 5,
                    at: SimTime::from_secs(400 + u64::from(i) * 150),
                    kind: ss_sim::CrashKind::PowerLoss,
                })
                .collect(),
            ..Default::default()
        });
        let mut server = VdrServer::new(cfg).unwrap();
        let contents = |server: &VdrServer| -> Vec<BTreeSet<u64>> {
            (0..4)
                .map(|c| server.model().scheme.cluster_objects(c))
                .collect()
        };
        let mut before = contents(&server);
        let mut evictions = 0;
        while server.step() {
            assert!(
                server.model().storage_reconciles(),
                "plane/farm reconciliation broke at {:?}",
                server.now()
            );
            let after = contents(&server);
            evictions += before
                .iter()
                .zip(&after)
                .map(|(b, a)| b.difference(a).count())
                .sum::<usize>();
            before = after;
        }
        assert!(evictions > 0, "the catalog outgrows the farm");
        let report = server.run();
        let c = report.crash.as_ref().expect("crash events fired");
        assert_eq!(c.power_loss_events, 4);
        assert!(c.scrub_chunks > 0, "the scrub walked the plane");
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
