//! The cluster farm: occupancy, replica map, and the replication/eviction
//! policy. The access counts its LFU rule reads are the caller's.

use serde::{Deserialize, Serialize};
use ss_types::{ClusterId, Error, ObjectId, Result, SimTime};

/// Where a new replica's bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CopySource {
    /// Prefer copying from an idle disk-resident replica (occupies source
    /// and target clusters for the copy); fall back to tertiary.
    PreferDisk,
    /// Always re-materialize from the tertiary device.
    TertiaryOnly,
}

/// Static configuration of the virtual-data-replication baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VdrConfig {
    /// Number of clusters `R = ⌊D/M⌋` (200 in Table 3).
    pub clusters: u32,
    /// Objects that fit in one cluster (1 in Table 3: a 22.68 GB object
    /// exhausts a 5 × 4.536 GB cluster).
    pub objects_per_cluster: u32,
    /// Source preference for new replicas.
    pub copy_source: CopySource,
    /// Minimum number of waiting requests for an object before a *second*
    /// (or further) replica is considered. 1 = replicate on the first
    /// blocked request.
    pub replication_threshold: u32,
}

impl VdrConfig {
    /// The §4 baseline: 200 single-object clusters, disk-sourced copies
    /// preferred, replicate as soon as one request is blocked.
    pub fn table3() -> Self {
        VdrConfig {
            clusters: 200,
            objects_per_cluster: 1,
            copy_source: CopySource::PreferDisk,
            replication_threshold: 2,
        }
    }
}

/// What a cluster is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterStatus {
    /// No display or copy in progress.
    Idle,
    /// Displaying an object until the given time.
    Displaying {
        /// Object on screen.
        object: ObjectId,
        /// When the cluster frees.
        until: SimTime,
    },
    /// Receiving a new replica (from disk or tertiary) until the given
    /// time.
    Copying {
        /// Object being installed.
        object: ObjectId,
        /// When the copy completes.
        until: SimTime,
    },
    /// Acting as the *source* of a cluster-to-cluster copy.
    SourcingCopy {
        /// Object being read out.
        object: ObjectId,
        /// When the cluster frees.
        until: SimTime,
    },
}

#[derive(Debug, Clone)]
struct Cluster {
    status: ClusterStatus,
    contents: Vec<ObjectId>,
}

/// How a requested replica will be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPlan {
    /// Cluster-to-cluster copy: read from `source`, write to `target`.
    FromDisk {
        /// The idle replica cluster supplying the bytes.
        source: ClusterId,
        /// The cluster receiving the new replica.
        target: ClusterId,
    },
    /// Materialize from the tertiary device into `target`.
    FromTertiary {
        /// The cluster receiving the new replica.
        target: ClusterId,
    },
}

impl CopyPlan {
    /// The cluster receiving the new replica, whatever the source.
    pub fn target(&self) -> ClusterId {
        match *self {
            CopyPlan::FromDisk { target, .. } | CopyPlan::FromTertiary { target } => target,
        }
    }
}

/// The virtual-data-replication farm state.
#[derive(Debug, Clone)]
pub struct ClusterFarm {
    config: VdrConfig,
    clusters: Vec<Cluster>,
    /// Replica locations, dense by object id (grown on demand). An empty
    /// inner vec means "not resident".
    replicas: Vec<Vec<ClusterId>>,
    /// Number of objects with at least one replica (non-empty `replicas`
    /// entries), maintained incrementally.
    resident_objects: usize,
    /// Clusters currently failed (fault injection): excluded from every
    /// planning decision. Contents survive — fail-stop with intact media —
    /// but in-flight work must be aborted by the caller via
    /// [`ClusterFarm::abort`].
    down: Vec<bool>,
    /// Clusters in a transient slow episode: excluded from *new* planning
    /// only; in-flight work keeps running.
    slow: Vec<bool>,
    /// Contents changes so far: replica registrations plus evictions.
    changes: u64,
}

impl ClusterFarm {
    /// An empty farm.
    pub fn new(config: VdrConfig) -> Self {
        assert!(config.clusters > 0 && config.objects_per_cluster > 0);
        ClusterFarm {
            clusters: vec![
                Cluster {
                    status: ClusterStatus::Idle,
                    contents: Vec::new(),
                };
                config.clusters as usize
            ],
            down: vec![false; config.clusters as usize],
            slow: vec![false; config.clusters as usize],
            config,
            replicas: Vec::new(),
            resident_objects: 0,
            changes: 0,
        }
    }

    /// Marks `cluster` failed or repaired (fault injection). A repaired
    /// cluster serves the same replicas it held before the failure.
    pub fn set_down(&mut self, cluster: ClusterId, down: bool) {
        self.down[cluster.index()] = down;
    }

    /// True when `cluster` is failed.
    pub fn is_down(&self, cluster: ClusterId) -> bool {
        self.down[cluster.index()]
    }

    /// The replicas `cluster` currently holds (rebuild sizing: each one
    /// contributes `subobjects` fragments to every disk of the cluster).
    pub fn cluster_contents(&self, cluster: ClusterId) -> &[ObjectId] {
        &self.clusters[cluster.index()].contents
    }

    /// How many times any cluster's contents changed (a replica
    /// registered or was evicted). Equal counts bracket an interval in
    /// which every [`ClusterFarm::cluster_contents`] stayed the same.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Marks `cluster` slow (fault injection): new work avoids it, work
    /// already in flight keeps running.
    pub fn set_slow(&mut self, cluster: ClusterId, slow: bool) {
        self.slow[cluster.index()] = slow;
    }

    /// True when `cluster` is in a slow episode.
    pub fn is_slow(&self, cluster: ClusterId) -> bool {
        self.slow[cluster.index()]
    }

    /// True when new work may be planned onto the cluster (up and fast).
    fn plannable(&self, i: usize) -> bool {
        !self.down[i] && !self.slow[i]
    }

    /// Aborts whatever `cluster` is doing — display, inbound copy, or
    /// copy sourcing — without registering anything, and returns the
    /// status that was aborted. The companion half of a cluster-to-cluster
    /// copy is *not* touched; the caller decides its fate.
    pub fn abort(&mut self, cluster: ClusterId, now: SimTime) -> ClusterStatus {
        let st = self.status(cluster, now);
        self.clusters[cluster.index()].status = ClusterStatus::Idle;
        st
    }

    /// Clusters currently holding a replica of `object`.
    pub fn replicas_of(&self, object: ObjectId) -> &[ClusterId] {
        self.replicas
            .get(object.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// True iff at least one replica of `object` exists.
    pub fn is_resident(&self, object: ObjectId) -> bool {
        !self.replicas_of(object).is_empty()
    }

    /// The status of `cluster`, lazily downgraded to [`ClusterStatus::Idle`]
    /// if its busy period has passed.
    pub fn status(&mut self, cluster: ClusterId, now: SimTime) -> ClusterStatus {
        let c = &mut self.clusters[cluster.index()];
        match c.status {
            ClusterStatus::Displaying { until, .. } | ClusterStatus::SourcingCopy { until, .. }
                if until <= now =>
            {
                c.status = ClusterStatus::Idle;
            }
            ClusterStatus::Copying { object, until } if until <= now => {
                // Copy completed: register the replica.
                c.status = ClusterStatus::Idle;
                c.contents.push(object);
                self.changes += 1;
                let i = object.index();
                if i >= self.replicas.len() {
                    self.replicas.resize(i + 1, Vec::new());
                }
                if self.replicas[i].is_empty() {
                    self.resident_objects += 1;
                }
                self.replicas[i].push(cluster);
            }
            _ => {}
        }
        c.status
    }

    /// Refreshes every cluster's status (call at event boundaries).
    pub fn refresh(&mut self, now: SimTime) {
        for i in 0..self.clusters.len() {
            self.status(ClusterId(i as u32), now);
        }
    }

    /// Finds an idle cluster holding `object`, if any.
    pub fn find_idle_replica(&mut self, object: ObjectId, now: SimTime) -> Option<ClusterId> {
        // Index-based scan instead of snapshotting the replica list:
        // `status` can only *append* replicas (a completing copy), so the
        // first `n` entries are stable while we probe them.
        let n = self.replicas_of(object).len();
        for i in 0..n {
            let c = self.replicas.get(object.index())?[i];
            if self.plannable(c.index()) && self.status(c, now) == ClusterStatus::Idle {
                return Some(c);
            }
        }
        None
    }

    /// Starts a display of `object` on `cluster` until `until`.
    /// The cluster must be idle and hold a replica.
    pub fn start_display(
        &mut self,
        cluster: ClusterId,
        object: ObjectId,
        now: SimTime,
        until: SimTime,
    ) -> Result<()> {
        if self.down[cluster.index()] {
            return Err(Error::InvalidState {
                reason: format!("{cluster} is down"),
            });
        }
        if self.status(cluster, now) != ClusterStatus::Idle {
            return Err(Error::InvalidState {
                reason: format!("{cluster} is not idle"),
            });
        }
        if !self.clusters[cluster.index()].contents.contains(&object) {
            return Err(Error::NotResident(object));
        }
        self.clusters[cluster.index()].status = ClusterStatus::Displaying { object, until };
        Ok(())
    }

    /// Decides whether a new replica of `object` should be created given
    /// `queue_len` requests currently blocked on it, and — if so — where
    /// the bytes come from and which cluster receives them (evicting a
    /// colder object if necessary). The target cluster is *not* committed;
    /// call [`ClusterFarm::begin_copy`] with the returned plan to commit.
    ///
    /// With `allow_tertiary = false` the planner only proposes disk-to-
    /// disk copies and — crucially — evicts nothing when no idle source
    /// exists, so callers can gate tertiary-sourced copies on the device
    /// actually being available without suffering premature evictions.
    /// `freq` is the caller's per-object access-count table (indexed by
    /// dense id), which ranks eviction victims.
    pub fn plan_replica(
        &mut self,
        object: ObjectId,
        queue_len: u32,
        now: SimTime,
        allow_tertiary: bool,
        freq: &[u64],
    ) -> Option<CopyPlan> {
        // The threshold gates *additional replicas* only; the first copy
        // of a missing object must always be materializable.
        if self.is_resident(object) && queue_len < self.config.replication_threshold {
            return None;
        }
        let source = match self.config.copy_source {
            CopySource::TertiaryOnly => None,
            CopySource::PreferDisk => self.find_idle_replica(object, now),
        };
        if source.is_none() && !allow_tertiary {
            return None;
        }
        let target = self.eviction_target(object, now, freq)?;
        Some(match source {
            Some(source) => {
                debug_assert_ne!(source, target, "source holds the object, target cannot");
                CopyPlan::FromDisk { source, target }
            }
            None => CopyPlan::FromTertiary { target },
        })
    }

    /// Chooses a cluster to receive a new replica of `object`: an idle
    /// cluster with spare content slots, or an idle cluster holding an
    /// evictable victim — surplus replicas first, and a sole copy only
    /// when it is strictly colder than `object` by the access counts
    /// `freq`. Victims are evicted immediately.
    fn eviction_target(
        &mut self,
        object: ObjectId,
        now: SimTime,
        freq: &[u64],
    ) -> Option<ClusterId> {
        let frequency = |o: ObjectId| freq.get(o.index()).copied().unwrap_or(0);
        let n = self.clusters.len();
        // Pass 1: idle cluster with a free slot.
        for i in 0..n {
            let id = ClusterId(i as u32);
            if self.plannable(i)
                && self.status(id, now) == ClusterStatus::Idle
                && self.clusters[i].contents.len() < self.config.objects_per_cluster as usize
                && !self.clusters[i].contents.contains(&object)
            {
                return Some(id);
            }
        }
        // Pass 2: idle cluster with the globally best victim. Surplus
        // replicas (objects with more than one copy) are always preferred
        // over sole copies — evicting a spare replica loses no residency —
        // and within each class the coldest object goes first.
        let mut best: Option<((bool, u64), ClusterId, ObjectId)> = None;
        for i in 0..n {
            let id = ClusterId(i as u32);
            if !self.plannable(i)
                || self.status(id, now) != ClusterStatus::Idle
                || self.clusters[i].contents.contains(&object)
            {
                continue;
            }
            let candidate = self.clusters[i]
                .contents
                .iter()
                .map(|&o| {
                    let sole = self.replicas_of(o).len() <= 1;
                    ((sole, frequency(o)), o)
                })
                .min_by_key(|&(key, _)| key);
            if let Some((key, victim)) = candidate {
                if best.as_ref().is_none_or(|&(bk, _, _)| key < bk) {
                    best = Some((key, id, victim));
                }
            }
        }
        let ((sole, victim_freq), target, victim) = best?;
        if sole && victim_freq >= frequency(object) {
            // Sole copies may only make way for a strictly hotter object.
            return None;
        }
        self.evict(target, victim)
            .expect("victim is resident on target");
        Some(target)
    }

    /// Plans a **piggyback** replica: when a display of `object` is about
    /// to start, its outbound stream can simultaneously be written to an
    /// idle target cluster, creating a replica for the price of the
    /// (otherwise idle) target alone. Returns the target, with any victim
    /// already evicted, or `None` if the queue pressure is below the
    /// replication threshold or no admissible target exists.
    pub fn plan_piggyback(
        &mut self,
        object: ObjectId,
        queue_len: u32,
        now: SimTime,
        freq: &[u64],
    ) -> Option<ClusterId> {
        if queue_len < self.config.replication_threshold {
            return None;
        }
        self.eviction_target(object, now, freq)
    }

    /// Commits a piggyback (stream-tee) copy: only `target` is occupied;
    /// the replica registers when `until` lapses. Equivalent to the
    /// receive half of [`ClusterFarm::begin_copy`].
    pub fn begin_stream_copy(
        &mut self,
        target: ClusterId,
        object: ObjectId,
        now: SimTime,
        until: SimTime,
    ) -> Result<()> {
        self.begin_copy(CopyPlan::FromTertiary { target }, object, now, until)
    }

    /// Removes `object`'s replica from `cluster`.
    pub fn evict(&mut self, cluster: ClusterId, object: ObjectId) -> Result<()> {
        let c = &mut self.clusters[cluster.index()];
        let pos = c
            .contents
            .iter()
            .position(|&o| o == object)
            .ok_or(Error::NotResident(object))?;
        c.contents.remove(pos);
        self.changes += 1;
        if let Some(list) = self.replicas.get_mut(object.index()) {
            let had = !list.is_empty();
            list.retain(|&cl| cl != cluster);
            if had && list.is_empty() {
                self.resident_objects -= 1;
            }
        }
        Ok(())
    }

    /// Commits a copy plan: marks the target (and disk source, if any)
    /// busy until `until`. The replica registers automatically when the
    /// target's busy period lapses.
    pub fn begin_copy(
        &mut self,
        plan: CopyPlan,
        object: ObjectId,
        now: SimTime,
        until: SimTime,
    ) -> Result<()> {
        let target = match plan {
            CopyPlan::FromDisk { source, target } => {
                if self.down[source.index()] {
                    return Err(Error::InvalidState {
                        reason: format!("copy source {source} is down"),
                    });
                }
                if self.status(source, now) != ClusterStatus::Idle {
                    return Err(Error::InvalidState {
                        reason: format!("copy source {source} is not idle"),
                    });
                }
                self.clusters[source.index()].status =
                    ClusterStatus::SourcingCopy { object, until };
                target
            }
            CopyPlan::FromTertiary { target } => target,
        };
        if self.down[target.index()] {
            return Err(Error::InvalidState {
                reason: format!("copy target {target} is down"),
            });
        }
        if self.status(target, now) != ClusterStatus::Idle {
            return Err(Error::InvalidState {
                reason: format!("copy target {target} is not idle"),
            });
        }
        if self.clusters[target.index()].contents.len() >= self.config.objects_per_cluster as usize
        {
            return Err(Error::InvalidState {
                reason: format!("copy target {target} has no free object slot"),
            });
        }
        self.clusters[target.index()].status = ClusterStatus::Copying { object, until };
        Ok(())
    }

    /// Number of clusters idle *and available*: a failed or slow cluster
    /// cannot take work, so it counts against the farm's spare capacity.
    pub fn idle_count(&mut self, now: SimTime) -> u32 {
        (0..self.clusters.len())
            .filter(|&i| {
                self.plannable(i) && self.status(ClusterId(i as u32), now) == ClusterStatus::Idle
            })
            .count() as u32
    }

    /// Number of distinct disk-resident objects.
    pub fn unique_residents(&self) -> usize {
        self.resident_objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::SimDuration;

    fn farm(clusters: u32) -> ClusterFarm {
        ClusterFarm::new(VdrConfig {
            clusters,
            objects_per_cluster: 1,
            copy_source: CopySource::PreferDisk,
            replication_threshold: 1,
        })
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Installs `object` on `cluster` instantly (test helper emulating a
    /// completed materialization).
    fn install(f: &mut ClusterFarm, cluster: ClusterId, object: ObjectId) {
        f.begin_copy(
            CopyPlan::FromTertiary { target: cluster },
            object,
            t(0),
            t(0),
        )
        .unwrap();
        f.refresh(t(0));
    }

    #[test]
    fn copy_completion_registers_replica() {
        let mut f = farm(4);
        f.begin_copy(
            CopyPlan::FromTertiary {
                target: ClusterId(2),
            },
            ObjectId(9),
            t(0),
            t(100),
        )
        .unwrap();
        assert!(!f.is_resident(ObjectId(9)));
        assert_eq!(
            f.status(ClusterId(2), t(50)),
            ClusterStatus::Copying {
                object: ObjectId(9),
                until: t(100)
            }
        );
        assert_eq!(f.status(ClusterId(2), t(100)), ClusterStatus::Idle);
        assert!(f.is_resident(ObjectId(9)));
        assert_eq!(f.replicas_of(ObjectId(9)), &[ClusterId(2)]);
    }

    #[test]
    fn display_requires_residency_and_idleness() {
        let mut f = farm(2);
        assert!(matches!(
            f.start_display(ClusterId(0), ObjectId(1), t(0), t(10)),
            Err(Error::NotResident(_))
        ));
        install(&mut f, ClusterId(0), ObjectId(1));
        f.start_display(ClusterId(0), ObjectId(1), t(0), t(10))
            .unwrap();
        assert!(matches!(
            f.start_display(ClusterId(0), ObjectId(1), t(5), t(15)),
            Err(Error::InvalidState { .. })
        ));
        // Frees at t=10.
        assert_eq!(f.find_idle_replica(ObjectId(1), t(10)), Some(ClusterId(0)));
    }

    #[test]
    fn plan_prefers_empty_clusters_then_cold_victims() {
        let mut f = farm(3);
        install(&mut f, ClusterId(0), ObjectId(1)); // hot object
        install(&mut f, ClusterId(1), ObjectId(2)); // cold object
        let freq = [0, 10, 1];
        // Cluster 2 is empty: first choice. Source: idle replica on c0.
        let plan = f.plan_replica(ObjectId(1), 1, t(0), true, &freq).unwrap();
        assert_eq!(
            plan,
            CopyPlan::FromDisk {
                source: ClusterId(0),
                target: ClusterId(2)
            }
        );
        // Commit it; now replicate again — no empty cluster, so the cold
        // object 2 on cluster 1 is evicted.
        f.begin_copy(plan, ObjectId(1), t(0), t(100)).unwrap();
        let plan2 = f.plan_replica(ObjectId(1), 1, t(0), true, &freq).unwrap();
        assert_eq!(
            plan2,
            CopyPlan::FromTertiary {
                target: ClusterId(1)
            }
        );
        assert!(!f.is_resident(ObjectId(2)));
    }

    #[test]
    fn no_replication_for_colder_object() {
        let mut f = farm(2);
        install(&mut f, ClusterId(0), ObjectId(1));
        install(&mut f, ClusterId(1), ObjectId(2));
        // Object 1 (freq 1) cannot evict object 2 (freq 10).
        assert_eq!(
            f.plan_replica(ObjectId(1), 5, t(0), true, &[0, 1, 10]),
            None
        );
    }

    #[test]
    fn threshold_gates_replication() {
        let mut f = ClusterFarm::new(VdrConfig {
            clusters: 2,
            objects_per_cluster: 1,
            copy_source: CopySource::TertiaryOnly,
            replication_threshold: 3,
        });
        install(&mut f, ClusterId(0), ObjectId(1));
        let freq = [0, 1];
        assert_eq!(f.plan_replica(ObjectId(1), 2, t(0), true, &freq), None);
        assert_eq!(
            f.plan_replica(ObjectId(1), 3, t(0), true, &freq),
            Some(CopyPlan::FromTertiary {
                target: ClusterId(1)
            })
        );
        // Gated: without tertiary permission (and no disk source under
        // TertiaryOnly) the planner must do nothing — and evict nothing.
        assert_eq!(f.plan_replica(ObjectId(1), 3, t(0), false, &freq), None);
    }

    #[test]
    fn tertiary_only_never_sources_from_disk() {
        let mut f = ClusterFarm::new(VdrConfig {
            clusters: 2,
            objects_per_cluster: 1,
            copy_source: CopySource::TertiaryOnly,
            replication_threshold: 1,
        });
        install(&mut f, ClusterId(0), ObjectId(1));
        let plan = f.plan_replica(ObjectId(1), 1, t(0), true, &[]).unwrap();
        assert!(matches!(plan, CopyPlan::FromTertiary { .. }));
    }

    #[test]
    fn disk_copy_occupies_source_and_target() {
        let mut f = farm(2);
        install(&mut f, ClusterId(0), ObjectId(1));
        let plan = CopyPlan::FromDisk {
            source: ClusterId(0),
            target: ClusterId(1),
        };
        f.begin_copy(plan, ObjectId(1), t(0), t(0) + SimDuration::from_secs(100))
            .unwrap();
        assert!(matches!(
            f.status(ClusterId(0), t(50)),
            ClusterStatus::SourcingCopy { .. }
        ));
        assert!(matches!(
            f.status(ClusterId(1), t(50)),
            ClusterStatus::Copying { .. }
        ));
        assert_eq!(f.idle_count(t(50)), 0);
        f.refresh(t(100));
        assert_eq!(f.idle_count(t(100)), 2);
        assert_eq!(f.replicas_of(ObjectId(1)), &[ClusterId(0), ClusterId(1)]);
        assert_eq!(f.unique_residents(), 1);
    }

    #[test]
    fn down_cluster_is_invisible_to_planning_and_repair_restores_it() {
        let mut f = farm(2);
        install(&mut f, ClusterId(0), ObjectId(1));
        assert_eq!(f.find_idle_replica(ObjectId(1), t(0)), Some(ClusterId(0)));
        f.set_down(ClusterId(0), true);
        assert!(f.is_down(ClusterId(0)));
        // The sole replica's cluster is down: no idle replica, displays
        // are rejected, the replica planner falls back to tertiary into
        // the surviving cluster, and spare capacity shrinks by one.
        assert_eq!(f.find_idle_replica(ObjectId(1), t(0)), None);
        assert!(matches!(
            f.start_display(ClusterId(0), ObjectId(1), t(0), t(10)),
            Err(Error::InvalidState { .. })
        ));
        assert_eq!(
            f.plan_replica(ObjectId(1), 5, t(0), true, &[]),
            Some(CopyPlan::FromTertiary {
                target: ClusterId(1)
            })
        );
        assert_eq!(f.idle_count(t(0)), 1);
        // Repair: contents survived, the replica serves again.
        f.set_down(ClusterId(0), false);
        assert_eq!(f.find_idle_replica(ObjectId(1), t(0)), Some(ClusterId(0)));
        assert_eq!(f.idle_count(t(0)), 2);
    }

    #[test]
    fn slow_cluster_blocks_new_planning_only() {
        let mut f = farm(2);
        install(&mut f, ClusterId(0), ObjectId(1));
        f.start_display(ClusterId(0), ObjectId(1), t(0), t(10))
            .unwrap();
        f.set_slow(ClusterId(0), true);
        assert!(f.is_slow(ClusterId(0)));
        // The in-flight display keeps running and still completes...
        assert!(matches!(
            f.status(ClusterId(0), t(5)),
            ClusterStatus::Displaying { .. }
        ));
        assert_eq!(f.status(ClusterId(0), t(10)), ClusterStatus::Idle);
        // ...but the idle slow cluster is not offered to new work.
        assert_eq!(f.find_idle_replica(ObjectId(1), t(10)), None);
        f.set_slow(ClusterId(0), false);
        assert_eq!(f.find_idle_replica(ObjectId(1), t(10)), Some(ClusterId(0)));
    }

    #[test]
    fn abort_cancels_without_registering() {
        let mut f = farm(2);
        f.begin_copy(
            CopyPlan::FromTertiary {
                target: ClusterId(1),
            },
            ObjectId(7),
            t(0),
            t(100),
        )
        .unwrap();
        let st = f.abort(ClusterId(1), t(50));
        assert!(matches!(st, ClusterStatus::Copying { .. }));
        assert_eq!(f.status(ClusterId(1), t(50)), ClusterStatus::Idle);
        // The aborted copy never registers a replica — not even after its
        // would-be completion time.
        f.refresh(t(200));
        assert!(!f.is_resident(ObjectId(7)));
    }

    #[test]
    fn eviction_updates_replica_map() {
        let mut f = farm(2);
        install(&mut f, ClusterId(0), ObjectId(1));
        install(&mut f, ClusterId(1), ObjectId(1));
        assert_eq!(f.replicas_of(ObjectId(1)).len(), 2);
        assert_eq!(f.changes(), 2, "two registrations");
        f.evict(ClusterId(0), ObjectId(1)).unwrap();
        assert_eq!(f.replicas_of(ObjectId(1)), &[ClusterId(1)]);
        assert_eq!(f.changes(), 3, "an eviction is a contents change");
        assert_eq!(
            f.evict(ClusterId(0), ObjectId(1)),
            Err(Error::NotResident(ObjectId(1)))
        );
        assert_eq!(f.changes(), 3, "a refused eviction changes nothing");
    }
}
