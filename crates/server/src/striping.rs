//! The striping media server: the §4 simulation with simple striping
//! (`k = M`) or staggered striping (any stride) as the placement scheme.
//!
//! The simulation advances in global time intervals (0.6048 s under
//! Table 3) on the shared [`crate::kernel`]. This scheme's part of each
//! tick:
//!
//! 1. promotes finished materializations to displayable residency,
//! 2. admits queued requests through the virtual-frame
//!    [`IntervalScheduler`] (FIFO with skips: a blocked request does not
//!    block later requests whose disks are free — the idle slots of
//!    Figure 3 get used, exactly the paper's motivation),
//! 3. routes newly issued requests (resident → disk queue; absent → LFU
//!    eviction + tertiary fetch),
//! 4. coalesces lagging fragments and feeds the tertiary device.
//!
//! Storage residency uses the exact cylinder accounting of
//! [`PlacementMap`]; evictions follow the paper's "removes the least
//! frequently accessed object" rule, restricted to objects not being
//! displayed or fetched.

use crate::config::{MaterializeMode, QueuePolicy, Scheme, ServerConfig};
use crate::kernel::{
    ActiveDisplay, DistState, Kernel, PlacementPolicy, Server, ServerCore, Waiter,
};
use crate::storage::{ScrubChunk, StoragePlane};
use ss_core::admission::{AdmissionGrant, AdmissionPolicy, IntervalScheduler, Outage};
use ss_core::buffers::BufferTracker;
use ss_core::coalesce::{ActiveFragmentedDisplay, CoalescePlan, LostRead};
use ss_core::frame::VirtualFrame;
use ss_core::media::ObjectCatalog;
use ss_core::placement::{PlacementMap, StripingConfig, StripingLayout};
use ss_disk::RebuildJob;
use ss_sim::{CrashEvent, DeterministicRng, FaultEvent, FaultKind};
use ss_types::{DiskId, Error, NodeId, NodeTopology, ObjectId, Result, SimTime};

/// The striping server model (driven by [`Server`]).
pub type StripingModel = Kernel<StripingPolicy>;

/// The runnable striping server.
pub type StripingServer = Server<StripingPolicy>;

/// Striping's per-display state.
#[derive(Debug, Clone, Default)]
pub struct StripingDisplay {
    /// Live scheduling state, kept while the display still buffers so the
    /// coalescing pass can migrate its lagging fragments. Under fault
    /// injection every display keeps it for its whole life: the rescue
    /// pass needs the committed read timeline to find and re-plan reads
    /// that fall into an outage window.
    fragmented: Option<ActiveFragmentedDisplay>,
    /// Accumulated hiccup intervals (lost reads that no rescue could
    /// clear) — drives the optional drop policy.
    hiccups: u64,
    /// Lost reads already charged as hiccups, so a later failure never
    /// double-counts them. An ordered set by [`hiccup_key`], failed disk
    /// first: kept sorted and searched by bisection (a sorted `Vec` holds
    /// the same set in less memory than a `BTreeSet`). A node outage
    /// fails its disks in ascending order, so each of its rescue passes
    /// appends its charges after the whole log.
    hiccup_log: Vec<LostRead>,
    /// Reads admitted *into* an outage window under parity reconstruction:
    /// the planner already booked a companion read that regenerates each
    /// of them, so the rescue pass and the lost-read invariant must not
    /// treat them as casualties. Sorted, like `hiccup_log`.
    reconstructed_log: Vec<LostRead>,
}

impl StripingDisplay {
    /// True when lost read `lr` is already accounted for: charged as a
    /// hiccup, or planned into its outage under parity reconstruction.
    fn accounts_for(&self, lr: &LostRead) -> bool {
        self.hiccup_log
            .binary_search_by_key(&hiccup_key(lr), hiccup_key)
            .is_ok()
            || self.reconstructed_log.binary_search(lr).is_ok()
    }
}

/// The order of [`StripingDisplay::hiccup_log`]: failed disk, then
/// fragment, subobject and interval.
fn hiccup_key(lr: &LostRead) -> (u32, u32, u32, u64) {
    (lr.disk, lr.frag, lr.subobject, lr.at)
}

impl DistState {
    /// Fills `scratch` with the interconnect demand of a read plan homed
    /// on `home`: one fragment crosses the interconnect for every
    /// committed read whose physical disk lives on another node. Returns
    /// the number of fragments with at least one remote read (the
    /// latency-prefetch buffer multiplier). With one node the scratch
    /// stays empty and the return value is zero.
    ///
    /// The plan reads inside `[min read_start, max read_start +
    /// subobjects)`, so the per-interval counts go into a dense array over
    /// that window and come out already in ascending interval order: one
    /// pass over the reads, no search and no sort. Each virtual disk's
    /// physical disk is computed once, at its first read, and then walked:
    /// the frame moves it by the reduced stride each interval, wrapping
    /// at `D`. A read is remote iff its disk lies outside the home node's
    /// range `[home·dpn, min((home+1)·dpn, D))`, so no read divides.
    fn remote_spans(
        &mut self,
        frame: &VirtualFrame,
        home: NodeId,
        virtual_disks: &[u32],
        read_start: &[u64],
        subobjects: u32,
    ) -> u64 {
        self.scratch.clear();
        let read_start = &read_start[..virtual_disks.len()];
        let (Some(&lo), Some(&hi)) = (read_start.iter().min(), read_start.iter().max()) else {
            return 0;
        };
        if self.topology.nodes <= 1 {
            return 0;
        }
        let n = u64::from(subobjects);
        self.counts.clear();
        self.counts.resize((hi - lo + n) as usize, 0);
        let disks = frame.disks();
        let dpn = self.topology.disks_per_node;
        let first = home.0 * dpn;
        let local = first..(first + dpn).min(disks);
        // Adding the stride `k < D` wraps iff the disk is at `D − k` or
        // past it; subtracting `D − k` there never overflows.
        let (k, wrap) = (frame.stride(), disks - frame.stride());
        let mut remote_frags = 0u64;
        for (&v, &base) in virtual_disks.iter().zip(read_start) {
            let mut any = false;
            let mut p = frame.physical(v, base);
            for count in &mut self.counts[(base - lo) as usize..(base - lo + n) as usize] {
                if !local.contains(&p) {
                    any = true;
                    *count += 1;
                }
                p = if p >= wrap { p - wrap } else { p + k };
            }
            remote_frags += u64::from(any);
        }
        self.scratch.extend(
            self.counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(k, &c)| (lo + k as u64, c)),
        );
        remote_frags
    }

    /// Re-books the interconnect for fragment `frag` of a re-planned
    /// display from interval `t` onward. Coalesce and rescue move reads
    /// between virtual disks *after* admission, so the new remote reads
    /// are force-booked: a rescue must never be refused for link
    /// headroom, and the old booking is not reclaimed — the ledger may
    /// overbook, never undercount (the deficit invariant counts only
    /// shortfalls).
    fn rebook_fragment(
        &mut self,
        frame: &VirtualFrame,
        home: NodeId,
        frag_state: &ActiveFragmentedDisplay,
        frag: u32,
        t: u64,
    ) {
        let i = frag as usize..frag as usize + 1;
        let (v, base) = (
            &frag_state.virtual_disks[i.clone()],
            &frag_state.read_start[i],
        );
        self.remote_spans(frame, home, v, base, frag_state.subobjects);
        self.scratch.retain(|&(u, _)| u >= t);
        if !self.scratch.is_empty() {
            self.book(home, true);
        }
    }
}

/// Striping's placement state: the virtual-frame interval scheduler, the
/// placement map's per-disk used-cylinder counters, and the tertiary
/// staging tables.
pub struct StripingPolicy {
    b_disk: ss_types::Bandwidth,
    /// §3.1 naive mode: reserve aligned groups of this many disks.
    cluster_round: Option<u32>,
    policy: AdmissionPolicy,
    catalog: ObjectCatalog,
    placement: PlacementMap,
    scheduler: IntervalScheduler,
    /// Waiters per in-flight materialization, dense by object id (empty
    /// Vec = none).
    wait_tertiary: Vec<Vec<Waiter>>,
    /// In-flight (or staged-but-not-yet-displayable) materializations,
    /// dense by object id: the instant the object becomes displayable.
    materializing: Vec<Option<SimTime>>,
    /// Ids with `materializing[..]` set, in submission order: the tick
    /// loop scans only the (few) in-flight transfers, and promotions
    /// release waiters in a deterministic order.
    materializing_ids: Vec<ObjectId>,
    /// Aligned start used by the next naive-mode placement.
    next_naive_start: u32,
    cylinders_per_fragment: u32,
    /// Deterministic delay stream for the admission backoff queue.
    backoff_rng: DeterministicRng,
    /// The last pump refused a fetch after evicting: its retry places at
    /// the round-robin start, not at the last victim's, so it may pass at
    /// the next boundary.
    fetch_retry: bool,
    /// The queue buffer the last admission pass drained, kept empty for
    /// its allocation: the next pass refills it instead of growing a
    /// fresh one.
    spare_queue: Vec<Waiter>,
    /// `(object, bound)` pairs the last re-bound computed, kept empty for
    /// its allocation like `spare_queue`.
    bounds: Vec<(ObjectId, u64)>,
}

/// The storage plane's view of a placement layout: `(disk, fragments)`
/// pairs for every drive holding at least one of the object's fragments.
fn plane_layout(layout: &StripingLayout) -> Vec<(u32, u32)> {
    layout
        .fragments_per_disk()
        .into_iter()
        .enumerate()
        .filter(|&(_, f)| f > 0)
        .map(|(d, f)| (d as u32, f))
        .collect()
}

/// True when every display keeps its committed read timeline whatever its
/// buffer bill: the rescue pass needs it under fault injection, the
/// remote-booking deficit invariant on a multi-node farm, and the
/// wasted-bandwidth series under observability. At zero buffer the state
/// is inert for decisions.
fn keeps_read_state(core: &Core) -> bool {
    !core.timeline.is_empty()
        || core.dist.as_ref().is_some_and(|ds| ds.topology.nodes > 1)
        || ss_obs::enabled()
}

type Core = ServerCore<StripingDisplay>;
type Active = ActiveDisplay<StripingDisplay>;

impl PlacementPolicy for StripingPolicy {
    type Display = StripingDisplay;
    const NAME: &'static str = "striping";
    const STORAGE_BEFORE_ADMISSION: bool = true;
    const SCRUB_BOOKS_BANDWIDTH: bool = true;
    const FROZEN_BETWEEN_TICKS: bool = false;

    fn build(config: &ServerConfig) -> Result<(Self, usize)> {
        let (stride, policy, cluster_round) = match config.scheme {
            Scheme::Striping {
                stride,
                policy,
                cluster_round,
            } => (stride, policy, cluster_round),
            _ => {
                return Err(Error::InvalidConfig {
                    reason: "StripingServer requires Scheme::Striping".into(),
                })
            }
        };
        let b_disk = config.b_disk();
        let catalog = config.catalog();
        let striping = StripingConfig {
            disks: config.disks,
            stride,
            fragment: config.fragment_size(),
            b_disk,
            parity_group: config.parity.as_ref().map(|p| p.group),
        };
        let mut placement = PlacementMap::new(
            striping,
            config.disk.cylinders,
            config.cylinders_per_fragment,
        )?;
        if config.preload {
            // Most-popular-first preload: ids ascend in popularity order
            // for both geometric and Zipf samplers. Under cluster-rounding
            // every start must be cluster-aligned, so the naive mode keeps
            // its own aligned rotation.
            let mut aligned_next = 0u32;
            for spec in catalog.iter() {
                let placed = match cluster_round {
                    Some(c) => {
                        let r = placement.place_at(spec, aligned_next);
                        if r.is_ok() {
                            aligned_next = (aligned_next + c) % config.disks;
                        }
                        r.map(|_| ())
                    }
                    None => placement.place(spec).map(|_| ()),
                };
                if placed.is_err() {
                    break; // farm full
                }
            }
        }
        let mut scheduler = IntervalScheduler::new(VirtualFrame::new(config.disks, stride));
        scheduler.set_parity_group(config.parity.as_ref().map(|p| p.group));
        let n_objects = catalog.len();
        let scheme = StripingPolicy {
            b_disk,
            cluster_round,
            policy,
            catalog,
            placement,
            scheduler,
            wait_tertiary: vec![Vec::new(); n_objects],
            materializing: vec![None; n_objects],
            materializing_ids: Vec::new(),
            next_naive_start: 0,
            cylinders_per_fragment: config.cylinders_per_fragment,
            backoff_rng: DeterministicRng::seed_from_u64(config.seed).derive("backoff"),
            fetch_retry: false,
            spare_queue: Vec::new(),
            bounds: Vec::new(),
        };
        Ok((scheme, n_objects))
    }

    /// One ledger per physical disk, so the crash events keep their
    /// disks.
    fn storage_plane(&mut self, config: &ServerConfig, crashes: Vec<CrashEvent>) -> StoragePlane {
        let slots = config.disk.cylinders / config.cylinders_per_fragment;
        let mut plane = StoragePlane::new(
            config.disks as usize,
            slots,
            config.scrub.map(|s| s.fragments_per_interval),
            crashes,
        );
        // Seed in id order: `resident_ids` iterates a hash map, and the
        // seeding sequence decides the ledgers' extent layout — which
        // torn-write salts index into. Any other order would vary run to
        // run.
        let mut resident: Vec<ObjectId> = self.placement.resident_ids().collect();
        resident.sort_unstable();
        for id in resident {
            let layout = self.placement.layout(id).expect("resident layout");
            plane.seed(u64::from(id.0), plane_layout(&layout));
        }
        // The preload is base state, not replayable history.
        plane.checkpoint();
        if let Some(chunk) = plane.begin_scrub(0) {
            self.book_scrub(&mut plane, chunk);
        }
        plane
    }

    /// Every free-disk count from here on — this tick's planners, its
    /// utilization/heatmap rows, `next_wakeup`'s `earliest_free`, later
    /// ticks and their skipped-boundary replays — asks about this
    /// interval or a later one, so the free-horizon index may fold older
    /// horizons. Retiring before any booking keeps the index's window
    /// sized to the live bookings even after a long quiescent skip.
    fn release(&mut self, core: &mut Core, now: SimTime) {
        self.scheduler.retire(core.interval_index(now));
    }

    fn finish_primary(display: &mut StripingDisplay) {
        // Coalesce and rescue never touch a finished stream (its reads
        // are all in the past anyway).
        display.fragmented = None;
    }

    /// Promotes due materializations, then runs one pass of
    /// `plan → admit_gate → commit` over the queue. (The
    /// promotion is a no-op on a tick's second pass: nothing between the
    /// passes starts a materialization.)
    fn admit(&mut self, core: &mut Core, now: SimTime) {
        self.promote_materializations(core, now);
        let t = core.interval_index(now);
        // The queue is drained and still-waiting entries are pushed back,
        // in order, into the buffer the last pass drained.
        let mut waiters = std::mem::replace(&mut core.queue, std::mem::take(&mut self.spare_queue));
        match core.config.queue {
            QueuePolicy::Fcfs => {}
            QueuePolicy::SmallestFirst => {
                waiters.sort_by_key(|w| self.degree_of(w.object, u32::MAX));
            }
            QueuePolicy::LargestFirst => {
                waiters.sort_by_key(|w| std::cmp::Reverse(self.degree_of(w.object, 0)));
            }
        }
        // The retry/backoff queue is armed only while parity is on and an
        // outage is open: rejected candidates re-attempt after a bounded
        // deterministic delay instead of probing every interval, and after
        // `max_retries` failures they park until the next fault
        // transition. With parity off every waiter keeps
        // `next_attempt == 0` and this is the plain FIFO-with-skips loop.
        let backoff = self.backoff_armed(core);
        let (max_retries, max_backoff) = core
            .config
            .parity
            .as_ref()
            .map_or((0, 1), |p| (p.max_retries, p.max_backoff_intervals.max(1)));
        let (fragment, interval) = (core.config.fragment_size(), core.interval);
        for mut w in waiters.drain(..) {
            // `route` queues only displayable objects, `reserve_space`
            // never evicts one with a queued waiter, and `rollback_alloc`
            // moves an evicted object's waiters to the tertiary.
            debug_assert!(
                self.displayable(w.object, now),
                "{} is queued but not displayable",
                w.object
            );
            if backoff && w.next_attempt > t {
                core.queue.push(w);
                continue;
            }
            if core.config.sharing.is_some()
                && core.try_join_shared(&w, now, t, || {
                    let spec = self.catalog.get(w.object).expect("catalog object");
                    let viewing = spec.display_time(self.b_disk, fragment);
                    let span = viewing.max(interval * u64::from(spec.subobjects));
                    (spec.degree(self.b_disk), span)
                })
            {
                // Joined an in-flight shared stream.
                continue;
            }
            if w.wake > t {
                // Asleep: no plan can pass before its wake. Debug builds
                // still plan it, to check the bound.
                debug_assert!(
                    self.plan_fails(&w, t),
                    "{} asleep until interval {} is admissible at {t}",
                    w.object,
                    w.wake
                );
                core.queue.push(w);
                continue;
            }
            let layout = self
                .placement
                .layout(w.object)
                .expect("displayable object is placed");
            let (start_disk, degree) = self.reservation(&layout);
            let spec = self.catalog.get(w.object).expect("catalog object");
            let viewing = spec.display_time(self.b_disk, core.config.fragment_size());
            // Copied out so the catalog borrow ends before the admission
            // gate (which needs the router and ledger).
            let subobjects = spec.subobjects;
            let media_degree = spec.degree(self.b_disk);
            // `plan` + `commit` is exactly `try_admit` (admission.rs),
            // split open so the interconnect gate can run between them;
            // with the tier off the gate admits as `(NodeId(0), 0)` and
            // touches nothing. A rejected plan puts the waiter to sleep
            // until its bound (and past this interval, so the tick's
            // second pass skips it) unless backoff paces it instead. A
            // gate refusal leaves it awake: the router draws on every
            // gate attempt, so skipping one would move the draws.
            let plan =
                self.scheduler
                    .plan(t, w.object, start_disk, degree, subobjects, self.policy);
            if plan.is_err() && !backoff {
                w.wake = self
                    .scheduler
                    .no_pass_before(t, start_disk, degree, subobjects, self.policy)
                    .max(t + 1);
            }
            let attempt = plan.and_then(|grant| {
                let (home, extra) = self.admit_gate(core, &grant, subobjects)?;
                self.scheduler.commit(t, &grant, subobjects);
                Ok((grant, home, extra))
            });
            match attempt {
                Ok((grant, home, extra_buffers)) => {
                    // (Naive cluster-rounding reserves more disks than the
                    // layout's degree, so the timeline check only applies
                    // to exact-degree grants. A degraded grant legitimately
                    // reads through an outage window — its lost reads are
                    // regenerated from the booked parity companions — so
                    // the hiccup-free check does not apply to it either.)
                    if core.config.verify_delivery
                        && self.cluster_round.is_none()
                        && grant.reconstructed_intervals == 0
                    {
                        let schedule = ss_core::schedule::DeliverySchedule::from_grant(
                            &grant,
                            &layout,
                            self.scheduler.frame(),
                        );
                        schedule
                            .verify(&layout)
                            .expect("admitted display must be hiccup-free");
                    }
                    let start =
                        SimTime::from_micros(grant.delivery_start * core.interval.as_micros());
                    // The station is busy until viewing completes (>= the
                    // disk occupancy when the media rate is not an exact
                    // multiple of B_disk).
                    let ends = start + viewing.max(core.interval * u64::from(subobjects));
                    let wait = core.start_wait(&w, now, start);
                    // `extra_buffers` is the interconnect latency
                    // prefetch (zero unless the tier is armed with a
                    // nonzero latency and this plan reads remotely); it
                    // lives and dies with the display's own buffers.
                    core.buffers
                        .acquire(grant.buffer_fragments + extra_buffers)
                        .expect("unbounded tracker");
                    core.metrics.peak_buffer_fragments =
                        core.metrics.peak_buffer_fragments.max(core.buffers.peak());
                    let keep = grant.buffer_fragments > 0 || keeps_read_state(core);
                    let fragmented = keep.then(|| {
                        ActiveFragmentedDisplay::from_grant(&grant, layout.start_disk, subobjects)
                    });
                    let reconstructed_log = if grant.reconstructed_intervals > 0 {
                        let g = core.metrics.degraded_mut().self_heal_mut();
                        g.degraded_admissions += 1;
                        g.reconstructed_reads += grant.reconstructed_intervals;
                        g.parity_overhead_intervals +=
                            grant.parity_companions.len() as u64 * u64::from(subobjects);
                        // The reads this grant plans *into* the outage are
                        // exactly its currently-lost reads; remember them
                        // so the rescue pass never charges them.
                        let mut log = fragmented
                            .as_ref()
                            .map(|f| self.scheduler.lost_reads(f, t))
                            .unwrap_or_default();
                        log.sort_unstable();
                        log.dedup();
                        log
                    } else {
                        Vec::new()
                    };
                    core.open_display(
                        ActiveDisplay {
                            station: w.station,
                            object: w.object,
                            home_node: home,
                            ends,
                            delivery_start: grant.delivery_start,
                            viewers: Vec::new(),
                            primary_done: false,
                            buffer_fragments: grant.buffer_fragments + extra_buffers,
                            rescued: false,
                            hiccuped: false,
                            ext: StripingDisplay {
                                fragmented,
                                hiccups: 0,
                                hiccup_log: Vec::new(),
                                reconstructed_log,
                            },
                        },
                        t,
                        subobjects,
                        media_degree,
                    );
                    if ss_obs::enabled() {
                        ss_obs::record(ss_obs::Event::AdmitAccept {
                            object: w.object.0,
                            interval: t,
                            start_disk,
                            degree: grant.virtual_disks.len() as u32,
                            subobjects: u64::from(subobjects),
                            delivery_start: grant.delivery_start,
                            end_interval: grant.end_interval,
                            buffer: grant.buffer_fragments,
                            reconstructed: grant.reconstructed_intervals,
                        });
                        core.journal_startup(w.object, t, wait);
                        ss_obs::with_registry(|r| r.count("admissions", 1));
                    }
                }
                Err(_) => {
                    if ss_obs::enabled() {
                        ss_obs::record(ss_obs::Event::AdmitReject {
                            object: w.object.0,
                            interval: t,
                        });
                        ss_obs::with_registry(|r| r.count("rejections", 1));
                    }
                    if backoff {
                        w.attempts += 1;
                        let h = core.metrics.degraded_mut().self_heal_mut();
                        if w.attempts >= max_retries {
                            w.next_attempt = u64::MAX;
                            h.backoff_exhausted += 1;
                            ss_obs::obs!(ss_obs::Event::AdmitPark {
                                object: w.object.0,
                                interval: t,
                            });
                        } else {
                            w.next_attempt = t + 1 + self.backoff_rng.next_below(max_backoff);
                            h.backoff_retries += 1;
                            ss_obs::obs!(ss_obs::Event::AdmitRetry {
                                object: w.object.0,
                                interval: t,
                                next_attempt: w.next_attempt,
                            });
                        }
                    }
                    core.queue.push(w);
                }
            }
        }
        self.spare_queue = waiters;
    }

    fn route(&mut self, core: &mut Core, w: Waiter, now: SimTime) {
        if self.displayable(w.object, now) {
            core.queue.push(w);
        } else {
            // Absent or still materializing: park the waiter on the
            // object; enqueue a fetch if none is queued or in flight yet.
            let o = w.object.index();
            if self.materializing[o].is_none() && !core.in_fetch_queue[o] {
                core.fetch_queue.push_back(w.object);
                core.in_fetch_queue[o] = true;
            }
            self.wait_tertiary[o].push(w);
        }
    }

    /// Coalesces, feeds the tertiary device, then re-bounds the queue's
    /// earliest sleepers: nothing later in the tick changes the
    /// scheduler.
    fn pump(&mut self, core: &mut Core, now: SimTime) {
        self.coalesce_pass(core, now);
        self.fetch_retry = false;
        core.pump_fetches(now, |core, object| self.fetch(core, object, now));
        self.rebound_sleepers(core, core.interval_index(now));
    }

    /// Fires due crash events against the storage plane and advances the
    /// scrub walk: recovery rollbacks evict their objects from placement,
    /// scrub finds repair in place under parity (or evict-and-refetch
    /// without), and each newly started scrub chunk is booked as real
    /// scheduler bandwidth.
    fn storage(&mut self, core: &mut Core, now: SimTime) {
        let Some(mut plane) = core.plane.take() else {
            return;
        };
        plane.process_crashes(now, |object| {
            self.rollback_alloc(core, ObjectId(object as u32))
        });
        let t = core.interval_index(now);
        let parity = core.config.parity.is_some();
        let mut scrub_evicted: Vec<u64> = Vec::new();
        let chunks = plane.process_scrub(t, core.interval, |_, object| {
            if parity {
                true // the parity group reconstructs the slot in place
            } else {
                if !scrub_evicted.contains(&object) {
                    scrub_evicted.push(object);
                }
                false
            }
        });
        // Without parity the damaged object's copy is unusable: evict it
        // (the next request refetches from tertiary) and complete the
        // deallocation in the plane.
        for object in scrub_evicted {
            if self.rollback_alloc(core, ObjectId(object as u32)) {
                plane.stats.objects_refetched += 1;
            }
            plane.free_refetched(object, now);
        }
        for chunk in chunks {
            self.book_scrub(&mut plane, chunk);
        }
        core.plane = Some(plane);
    }

    fn rebuild_fragments(&self, disk: u32) -> u64 {
        u64::from(self.placement.used_on(DiskId(disk))) / u64::from(self.cylinders_per_fragment)
    }

    fn ledger_of(&self, disk: u32) -> Option<u32> {
        Some(disk)
    }

    /// Mirrors failures and slow episodes as planning outages in the
    /// scheduler; on each hard failure, books the rebuild drain and runs
    /// the rescue pass over the in-flight displays.
    fn transition(
        &mut self,
        core: &mut Core,
        ev: &FaultEvent,
        t: u64,
        now: SimTime,
        until: u64,
        drain: Option<RebuildJob>,
    ) {
        match ev.kind {
            FaultKind::Fail => {
                if let (Some(job), Some(rb)) = (drain, core.rebuild.as_ref()) {
                    // The drain reads surviving group members at `rate`
                    // fragments per interval: book that many virtual
                    // disks until the drain completes so admissions
                    // compete with the rebuild for real bandwidth.
                    let first = u64::from(ev.disk) + 1;
                    let count = rb.rate().min(u64::from(core.config.disks) - 1);
                    let added = self.scheduler.hold_busy(first, count, job.start, job.done);
                    // A drain lasts at least one interval: the interference
                    // is positive exactly when a horizon moved.
                    if added > 0 {
                        let g = core.metrics.degraded_mut().self_heal_mut();
                        g.rebuild_interference_intervals += added;
                    }
                }
                let outage = Outage {
                    disk: ev.disk,
                    from: t,
                    until,
                    hard: true,
                };
                self.scheduler.add_outage(outage);
                self.rescue_pass(core, now, t, &outage);
            }
            FaultKind::SlowStart => self.scheduler.add_outage(Outage {
                disk: ev.disk,
                from: t,
                until,
                hard: false,
            }),
            FaultKind::Repair | FaultKind::SlowEnd => self.scheduler.prune_outages(t),
        }
    }

    fn utilization(&mut self, t: u64, _at: SimTime) -> f64 {
        self.scheduler.utilization(t)
    }

    /// Fraction of farm capacity committed this interval but not reading
    /// display data: parity companions, naive cluster-rounding
    /// reservations and rebuild-drain bookings. The quantity the paper
    /// argues staggered striping keeps near zero.
    fn wasted(&mut self, active: &[Active], _viewers: f64, t: u64, _at: SimTime) -> f64 {
        let d = self.scheduler.frame().disks();
        let committed = f64::from(d - self.scheduler.free_count(t));
        let mut reading = 0u64;
        for a in active {
            if let Some(f) = &a.ext.fragmented {
                let n = u64::from(f.subobjects);
                reading += f
                    .read_start
                    .iter()
                    .filter(|&&base| base <= t && t < base + n)
                    .count() as u64;
            }
        }
        ((committed - reading as f64) / f64::from(d)).max(0.0)
    }

    /// The row in the rotating frame: virtual disk `v` is busy iff it has
    /// a committed read, `free_from[v] > t`. It sits over physical disk
    /// `(v + k·t) mod D`, so the row's rotation is `k·t mod D`.
    fn heat_row(&mut self, t: u64, _at: SimTime, row: &mut Vec<f32>) -> u32 {
        let s = &self.scheduler;
        let disks = s.frame().disks();
        row.extend((0..disks).map(|v| if s.is_free(v, t) { 0.0 } else { 1.0 }));
        s.frame().physical(0, t)
    }

    /// Between executed ticks the horizons stand still, so a virtual
    /// disk's busy bit flips at `t` only if its horizon falls in
    /// `(t − 1, t]`; equal free counts at both ends mean none does.
    fn heat_repeat(&self, t: u64) -> Option<u32> {
        let s = &self.scheduler;
        (s.free_count(t - 1) == s.free_count(t)).then(|| s.frame().physical(0, t))
    }

    fn wakeup(&self, core: &Core, now: SimTime) -> SimTime {
        // Fragmented displays migrate one fragment per interval: that
        // cannot be predicted from timestamps alone. A fetch refused after
        // evicting retries at another start, which the evictions may have
        // cleared.
        if self.fetch_retry {
            return now;
        }
        // Every display's buffer bill is held in the tracker, so an
        // empty tracker means no display buffers.
        if core.buffers.in_use() > 0
            && core.active.iter().any(|d| {
                d.ext
                    .fragmented
                    .as_ref()
                    .is_some_and(|f| f.buffer_total() > 0)
            })
        {
            return now;
        }
        let mut horizon = core.deadline;
        // The queue wakes at its earliest pacing interval: no waiter is
        // planned before its own, and with the scheduler untouched
        // (commits and completions are wakeup sources themselves) nothing
        // else about a waiter changes. Under backoff that is the earliest
        // `next_attempt`, past the tick for every waiter the passes
        // refused or skipped. Otherwise it is the earliest `wake`, which
        // the pump re-bounded against the tick's final state from the
        // count test of its own degree (`earliest_free`), so it is never
        // before the count test of the smallest queued degree. Parked
        // waiters (`u64::MAX`) wake at the next fault transition or
        // rebuild completion, both wakeup sources of their own.
        let armed = self.backoff_armed(core);
        let pace = |w: &Waiter| if armed { w.next_attempt } else { w.wake };
        let earliest = core.queue.iter().map(pace).filter(|&at| at != u64::MAX);
        if let Some(at) = earliest.min() {
            horizon = horizon.min(SimTime::from_micros(at * core.interval.as_micros()));
        }
        // Pending materializations become displayable.
        for &o in &self.materializing_ids {
            if let Some(ready) = self.materializing[o.index()] {
                horizon = horizon.min(ready);
            }
        }
        horizon
    }

    /// Committed reads of `d` at `t` whose physical disk lives on another
    /// node than the display's home.
    fn remote_demand(&self, topology: &NodeTopology, d: &Active, t: u64) -> u64 {
        let Some(f) = d.ext.fragmented.as_ref() else {
            return 0;
        };
        let frame = self.scheduler.frame();
        f.virtual_disks
            .iter()
            .zip(&f.read_start)
            .filter(|&(&v, &base)| {
                base <= t
                    && t < base + u64::from(f.subobjects)
                    && topology.node_of(frame.physical(v, t)) != d.home_node
            })
            .count() as u64
    }

    fn residents(&self) -> usize {
        self.placement.resident_count()
    }

    /// Bitmap popcount ≡ extent table ≡ free index on every ledger, and
    /// the plane's object set identical to the placement residents.
    fn reconciles(&self, plane: &StoragePlane) -> bool {
        plane.reconciles(self.placement.resident_ids().map(|o| u64::from(o.0)))
    }
}

impl StripingPolicy {
    /// Books a scrub chunk's verification reads as interval-scheduler
    /// bandwidth: the plane's scrub rate of virtual disks are held busy
    /// until the chunk completes, exactly like the rebuild drain's
    /// booking, and the horizon advances are charged as interference. The
    /// booked disks rotate with the chunk's start interval — in staggered
    /// striping the virtual→physical mapping itself rotates over time, so
    /// the physical drive under scrub surfaces as a different virtual disk
    /// each chunk. That spreads the tithe: no single virtual disk is
    /// pinned for more than one short chunk at a time.
    fn book_scrub(&mut self, plane: &mut StoragePlane, chunk: ScrubChunk) {
        let (from, rate) = (chunk.start, plane.stats.scrub_rate);
        let added = self
            .scheduler
            .hold_busy(u64::from(chunk.disk) + from, rate, from, chunk.end);
        plane.stats.scrub_interference_intervals += added;
    }

    /// The `(start disk, degree)` admission plans `layout`'s object
    /// with. §3.1 naive mode rounds the reservation up to a whole aligned
    /// cluster; staggered striping reserves exactly `M_X`.
    fn reservation(&self, layout: &StripingLayout) -> (u32, u32) {
        match self.cluster_round {
            Some(c) => (layout.start_disk - layout.start_disk % c, c),
            None => (layout.start_disk, layout.degree),
        }
    }

    /// True while the retry/backoff queue paces admission: parity is on
    /// and an outage is open. Waiters then sleep by `next_attempt`, not
    /// by `wake`.
    fn backoff_armed(&self, core: &Core) -> bool {
        core.config.parity.is_some() && self.scheduler.has_outages()
    }

    /// The `(start disk, degree, subobjects)` admission plans a queued
    /// waiter for `object` with.
    fn plan_args(&self, object: ObjectId) -> (u32, u32, u32) {
        let layout = self
            .placement
            .layout(object)
            .expect("displayable object is placed");
        let (start_disk, degree) = self.reservation(&layout);
        (start_disk, degree, layout.subobjects)
    }

    /// True when planning `w` at interval `t` fails: the debug check
    /// that a sleeping waiter's bound holds.
    fn plan_fails(&self, w: &Waiter, t: u64) -> bool {
        let (start_disk, degree, subobjects) = self.plan_args(w.object);
        self.scheduler
            .plan(t, w.object, start_disk, degree, subobjects, self.policy)
            .is_err()
    }

    /// `no_pass_before` for `w` at interval `t`, against the scheduler's
    /// state now.
    fn no_pass_before(&self, w: &Waiter, t: u64) -> u64 {
        let (start_disk, degree, subobjects) = self.plan_args(w.object);
        self.scheduler
            .no_pass_before(t, start_disk, degree, subobjects, self.policy)
    }

    /// Re-bounds the queue after the tick's last commit, while backoff is
    /// unarmed. A waiter rejected early in a pass took its `wake` before
    /// the pass's later commits, and the paper's rotation (§3.2) moves
    /// its aligned virtual disks back by `k` each interval, so a display
    /// booked after it can cover the window the wake counted on. The
    /// waiter holding the minimum `wake` — the one `wakeup` reads — gets
    /// the later of its wake and `no_pass_before` against the final
    /// state, until the minimum holds.
    ///
    /// Exact for the same reason as the wake itself: a bound computed
    /// against more commits is still a lower bound, and every event that
    /// lowers a horizon or removes an outage window sets every `wake` to
    /// 0. A waiter this puts to sleep would have failed its plan, which
    /// leaves no trace but the journal's `admit_reject` and never reaches
    /// the interconnect gate, so the router's draws do not move.
    ///
    /// Neither the scheduler nor a layout changes inside the loop, so a
    /// bound is a function of the waiter's object: each object's is
    /// computed once and reused.
    fn rebound_sleepers(&mut self, core: &mut Core, t: u64) {
        if self.backoff_armed(core) {
            return;
        }
        let mut bounds = std::mem::take(&mut self.bounds);
        while let Some(w) = core.queue.iter_mut().min_by_key(|w| w.wake) {
            let bound = match bounds.iter().find(|&&(o, _)| o == w.object) {
                Some(&(_, bound)) => bound,
                None => {
                    let bound = self.no_pass_before(w, t);
                    bounds.push((w.object, bound));
                    bound
                }
            };
            if bound <= w.wake {
                break;
            }
            w.wake = bound;
        }
        bounds.clear();
        self.bounds = bounds;
    }

    /// `object`'s degree of declustering, or `unknown` for an id outside
    /// the catalog.
    fn degree_of(&self, object: ObjectId, unknown: u32) -> u32 {
        self.catalog
            .get(object)
            .map_or(unknown, |s| s.degree(self.b_disk))
    }

    /// True iff `object` is resident *and* displayable (fully placed, and
    /// past its pipelined-start horizon if it is still materializing).
    fn displayable(&self, object: ObjectId, now: SimTime) -> bool {
        self.placement.is_resident(object)
            && self.materializing[object.index()].is_none_or(|ready| ready <= now)
    }

    fn promote_materializations(&mut self, core: &mut Core, now: SimTime) {
        let mut i = 0;
        while i < self.materializing_ids.len() {
            let o = self.materializing_ids[i];
            if self.materializing[o.index()].is_some_and(|t| t <= now) {
                self.materializing[o.index()] = None;
                self.materializing_ids.remove(i);
                // A re-queued waiter wakes: its layout may have moved.
                let waiters = std::mem::take(&mut self.wait_tertiary[o.index()]);
                core.queue
                    .extend(waiters.into_iter().map(|w| Waiter { wake: 0, ..w }));
            } else {
                i += 1;
            }
        }
    }

    /// Offers `object` at the head of the fetch queue to the tertiary
    /// device: reserves space for it (evicting as needed) and submits the
    /// transfer. Returns false when all residents are pinned.
    fn fetch(&mut self, core: &mut Core, object: ObjectId, now: SimTime) -> bool {
        // An object enters the fetch queue only with parked waiters, and
        // they leave `wait_tertiary` only when its materialization is
        // promoted.
        debug_assert!(
            !self.wait_tertiary[object.index()].is_empty(),
            "{object} is queued for a fetch nobody waits for"
        );
        if !self.reserve_space(core, object) {
            return false; // all residents pinned; retry next interval
        }
        let spec = self.catalog.get(object).expect("catalog object");
        let schedule = core.tertiary.submit(
            now,
            object,
            spec.size(self.b_disk, core.config.fragment_size()),
            u64::from(spec.subobjects),
            spec.media.display_bandwidth,
        );
        let ready = match core.config.materialize {
            MaterializeMode::Pipelined => schedule.earliest_display,
            MaterializeMode::AfterFull => schedule.done,
        };
        core.metrics.record_tertiary_fetch();
        self.materializing[object.index()] = Some(ready);
        self.materializing_ids.push(object);
        true
    }

    /// Routes a *planned* grant to a home node and books its remote
    /// fragments' interconnect intervals — the step between `plan` and
    /// `commit` when the distributed tier is armed. Returns the home
    /// node and the latency-prefetch buffers to bill on top of the
    /// grant's own (`NodeId(0)` and zero when the tier is off, or with a
    /// single node: nothing is remote, nothing is booked, and the caller
    /// stays byte-identical to the single-box path). A refused booking
    /// surfaces as `AdmissionRejected`, flowing into the ordinary
    /// reject/backoff path without the scheduler ever mutating.
    fn admit_gate(
        &self,
        core: &mut Core,
        grant: &AdmissionGrant,
        subobjects: u32,
    ) -> Result<(NodeId, u64)> {
        let Some(dist) = core.dist.as_mut() else {
            return Ok((NodeId(0), 0));
        };
        let frame = self.scheduler.frame();
        // Affinity: the disk serving the stripe head at delivery start.
        let affinity = frame.physical(grant.virtual_disks[0], grant.delivery_start);
        let home = dist.route(affinity, &core.mask);
        let remote_frags = dist.remote_spans(
            frame,
            home,
            &grant.virtual_disks,
            &grant.read_start,
            subobjects,
        );
        if !dist.book(home, false) {
            return Err(Error::AdmissionRejected {
                object: grant.object,
                needed: grant.virtual_disks.len() as u32,
                free: 0,
            });
        }
        let extra = dist.latency_intervals * remote_frags;
        dist.latency_buffer_fragments += extra;
        Ok((home, extra))
    }

    /// Evicts least-frequently-accessed idle objects until `object` fits,
    /// then reserves space by placing it. Returns false if no progress is
    /// possible right now; a refusal that evicted sets `fetch_retry`.
    fn reserve_space(&mut self, core: &mut Core, object: ObjectId) -> bool {
        let spec = self.catalog.get(object).expect("catalog object").clone();
        // After an eviction, place into the victim's slot: evicting the
        // globally coldest object frees *its* disks, which need not
        // overlap the round-robin position (under a stationary or skewed
        // stride, retrying a fixed position would evict most of the farm
        // before freeing the right disks).
        let mut reuse_start: Option<u32> = None;
        loop {
            let placed = match (self.cluster_round, reuse_start) {
                (Some(_), _) => self
                    .placement
                    .place_at(&spec, self.next_naive_start)
                    .map(|_| ()),
                (None, Some(start)) => self.placement.place_at(&spec, start).map(|_| ()),
                (None, None) => self.placement.place(&spec).map(|_| ()),
            };
            match placed {
                Ok(_) => {
                    if let Some(p) = core.plane.as_mut() {
                        let layout = self.placement.layout(object).expect("just placed");
                        p.record_alloc(u64::from(object.0), plane_layout(&layout));
                    }
                    return true;
                }
                Err(Error::DiskFull { .. }) => {
                    // Evict the coldest object that is not displaying, not
                    // materializing, and not awaited.
                    // `(freq, id)` key: the id tie-break makes the pick
                    // independent of resident-set iteration order.
                    let victim = self
                        .placement
                        .resident_ids()
                        .filter(|o| {
                            core.active_per_object[o.index()] == 0
                                && self.materializing[o.index()].is_none()
                                && core.queue.iter().all(|w| w.object != *o)
                                && self.wait_tertiary[o.index()].is_empty()
                        })
                        .min_by_key(|o| (core.freq[o.index()], *o));
                    match victim {
                        Some(v) => {
                            let start = self.placement.layout(v).expect("victim placed").start_disk;
                            if self.cluster_round.is_some() {
                                // Take over the victim's aligned start.
                                self.next_naive_start = start;
                            }
                            reuse_start = Some(start);
                            self.placement.remove(v).expect("victim resident");
                            if let Some(p) = core.plane.as_mut() {
                                p.record_free(u64::from(v.0));
                            }
                        }
                        None => {
                            self.fetch_retry = reuse_start.is_some();
                            return false;
                        }
                    }
                }
                Err(e) => panic!("unexpected placement failure: {e}"),
            }
        }
    }

    /// Dynamic coalescing (§3.2.1, Algorithm 2 at system level): migrate
    /// one lagging fragment per buffering display per interval onto freed
    /// disks, releasing buffer memory.
    ///
    /// Every display's buffer bill is held in `core.buffers`, and a
    /// handover only moves a read base later and releases exactly its
    /// saving, so with the tracker empty no display has anything to
    /// coalesce.
    fn coalesce_pass(&mut self, core: &mut Core, now: SimTime) {
        if core.buffers.in_use() == 0 {
            debug_assert!(
                core.active.iter().all(|d| d
                    .ext
                    .fragmented
                    .as_ref()
                    .is_none_or(|f| f.buffer_total() == 0)),
                "a display buffers outside the tracker"
            );
            return;
        }
        let t = core.interval_index(now);
        let keep_state = keeps_read_state(core);
        for d in &mut core.active {
            let Some(frag_state) = d.ext.fragmented.as_ref() else {
                continue;
            };
            if frag_state.buffer_total() == 0 {
                continue; // fully pipelined already
            }
            let Some(plan) = self.scheduler.plan_coalesce(frag_state, t) else {
                continue;
            };
            // A handover lowers the bill by exactly its saving.
            let left = frag_state.buffer_total() - plan.buffer_saving;
            self.hand_over(
                core.dist.as_mut(),
                &mut core.buffers,
                &mut core.queue,
                d,
                &plan,
                t,
            );
            core.metrics.coalesces += 1;
            ss_obs::obs!(ss_obs::Event::Coalesce {
                object: d.object.0,
                frag: plan.frag,
                saving: plan.buffer_saving,
            });
            if left == 0 && !keep_state {
                d.ext.fragmented = None; // fully pipelined
            }
        }
    }

    /// Commits `plan`, a handover of one of `d`'s fragments made at
    /// interval `t`: moves the fragment's reads in the scheduler,
    /// force-books its new remote reads, and releases the buffers the
    /// handover saves. The handing-over disk frees sooner, so every
    /// sleeping waiter in `queue` wakes. Coalesce and rescue differ only
    /// in what they count afterwards.
    fn hand_over(
        &mut self,
        dist: Option<&mut DistState>,
        buffers: &mut BufferTracker,
        queue: &mut [Waiter],
        d: &mut Active,
        plan: &CoalescePlan,
        t: u64,
    ) {
        let f = d.ext.fragmented.as_mut().expect("plan needs read state");
        self.scheduler.apply_coalesce(f, plan);
        for w in queue {
            w.wake = 0;
        }
        if let Some(dist) = dist {
            dist.rebook_fragment(self.scheduler.frame(), d.home_node, f, plan.frag, t);
        }
        buffers.release(plan.buffer_saving);
        d.buffer_fragments -= plan.buffer_saving;
    }

    /// Tries to save every in-flight display whose committed reads fall
    /// inside the newly opened window `outage`. A fragment is rescued by a
    /// coalesce-direction re-plan onto a surviving virtual disk (buffers
    /// are *released*, never added — the read base only moves later); when
    /// no feasible plan exists the lost reads are charged as hiccup
    /// intervals, and a display that exceeds the plan's hiccup budget is
    /// dropped.
    ///
    /// Only the reads lost to `outage` itself are enumerated: after every
    /// pass each read lost to an earlier outage has been re-planned clear
    /// of every known window or logged (the `unaccounted_lost_reads == 0`
    /// invariant), so those reads would be filtered out again anyway. A
    /// read also lost to an earlier window on the same disk is already
    /// logged and stays filtered.
    fn rescue_pass(&mut self, core: &mut Core, now: SimTime, t: u64, outage: &Outage) {
        let interval_s = core.interval.as_secs_f64();
        let limit = core.config.faults.drop_after_hiccup_intervals;
        let mut i = 0;
        while i < core.active.len() {
            let d = &mut core.active[i];
            let fresh: Vec<LostRead> = match &d.ext.fragmented {
                Some(frag_state) => self
                    .scheduler
                    .lost_reads_to(frag_state, t, outage)
                    .into_iter()
                    .filter(|lr| !d.ext.accounts_for(lr))
                    .collect(),
                None => Vec::new(),
            };
            if fresh.is_empty() {
                i += 1;
                continue;
            }
            let mut frags: Vec<u32> = fresh.iter().map(|lr| lr.frag).collect();
            frags.sort_unstable();
            frags.dedup();
            for frag in frags {
                let f = d.ext.fragmented.as_ref().expect("read state of lost reads");
                match self.scheduler.plan_rescue(f, frag, t) {
                    Some(plan) => {
                        self.hand_over(
                            core.dist.as_mut(),
                            &mut core.buffers,
                            &mut core.queue,
                            d,
                            &plan,
                            t,
                        );
                        let g = core.metrics.degraded_mut();
                        g.rescues += 1;
                        g.rescue_buffer_overhead += d.delivery_start - plan.new_read_start;
                        if !d.rescued {
                            d.rescued = true;
                            g.streams_rescued += 1;
                        }
                        ss_obs::obs!(ss_obs::Event::Rescue {
                            object: d.object.0,
                            frag,
                            interval: t,
                        });
                    }
                    None => {
                        let lost: Vec<LostRead> =
                            fresh.iter().filter(|lr| lr.frag == frag).copied().collect();
                        if ss_obs::enabled() {
                            for lr in &lost {
                                ss_obs::record(ss_obs::Event::Hiccup {
                                    object: d.object.0,
                                    frag: lr.frag,
                                    subobject: u64::from(lr.subobject),
                                    interval: lr.at,
                                    disk: lr.disk,
                                    viewers: d.viewers.len() as u64,
                                });
                            }
                        }
                        let g = core.metrics.degraded_mut();
                        // A shared stream's lost read starves the primary
                        // and every dependent viewer alike: charge the
                        // hiccup once per consumer.
                        let fanout = 1 + d.viewers.len() as u64;
                        g.hiccup_intervals += lost.len() as u64 * fanout;
                        g.hiccup_seconds += lost.len() as f64 * fanout as f64 * interval_s;
                        if !d.hiccuped {
                            d.hiccuped = true;
                            g.hiccup_streams += 1;
                        }
                        for v in &mut d.viewers {
                            if !v.hiccuped {
                                v.hiccuped = true;
                                g.hiccup_streams += 1;
                            }
                        }
                        // The drop threshold stays per *stream*: dependents
                        // live and die with the primary's budget.
                        d.ext.hiccups += lost.len() as u64;
                        // `lost` is one fragment's reads on one failed
                        // disk in interval order, hence sorted. It lands
                        // after the whole log unless an earlier pass
                        // charged a later disk; then the stable sort
                        // merges the two runs in linear time.
                        let log = &mut d.ext.hiccup_log;
                        let merge = log
                            .last()
                            .zip(lost.first())
                            .is_some_and(|(last, first)| hiccup_key(last) > hiccup_key(first));
                        log.extend(lost);
                        if merge {
                            log.sort_by_key(hiccup_key);
                        }
                    }
                }
            }
            let hiccups = d.ext.hiccups;
            if limit.is_some_and(|l| hiccups >= l) {
                core.drop_display(i, now, t, |_, _, _| hiccups);
            } else {
                i += 1;
            }
        }
    }

    /// Evicts `object` after the crash machinery invalidated its on-disk
    /// fragments: the placement entry is dropped, any in-flight
    /// materialization is abandoned, and waiters are re-parked on the
    /// tertiary queue so the next pump refetches the object. Returns
    /// whether the object was resident. In-flight displays run on —
    /// their reads were committed before the damage (a modeling choice:
    /// a crash invalidates future admissions, not delivered intervals).
    fn rollback_alloc(&mut self, core: &mut Core, object: ObjectId) -> bool {
        let o = object.index();
        if self.materializing[o].is_some() {
            self.materializing[o] = None;
            self.materializing_ids.retain(|&x| x != object);
        }
        let resident = self.placement.is_resident(object);
        if resident {
            self.placement.remove(object).expect("resident");
        }
        let mut i = 0;
        while i < core.queue.len() {
            if core.queue[i].object == object {
                let w = core.queue.remove(i);
                self.wait_tertiary[o].push(w);
            } else {
                i += 1;
            }
        }
        if !self.wait_tertiary[o].is_empty() && !core.in_fetch_queue[o] {
            core.fetch_queue.push_back(object);
            core.in_fetch_queue[o] = true;
        }
        resident
    }
}

impl StripingModel {
    /// Committed reads visible at `now` that fall inside a known hard
    /// outage window and are neither rescued nor charged as hiccups. The
    /// fault harness's "no fragment is read from a down disk" invariant
    /// demands this be zero after every processed tick.
    pub fn unaccounted_lost_reads(&self, now: SimTime) -> usize {
        let t = self.core.interval_index(now);
        self.core
            .active
            .iter()
            .filter_map(|d| d.ext.fragmented.as_ref().map(|f| (d, f)))
            .map(|(d, f)| {
                self.scheme
                    .scheduler
                    .lost_reads(f, t)
                    .into_iter()
                    .filter(|lr| !d.ext.accounts_for(lr))
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalModel;

    /// Small farm: 20 disks, 10 objects × 40 subobjects, everything fits.
    fn small(stations: u32) -> ServerConfig {
        ServerConfig::small_test(stations, 42)
    }

    #[test]
    fn throughput_scales_with_stations_until_saturation() {
        let r1 = StripingServer::new(small(1)).unwrap().run();
        let r4 = StripingServer::new(small(4)).unwrap().run();
        assert!(
            r4.displays_per_hour > 2.5 * r1.displays_per_hour,
            "1 station: {}, 4 stations: {}",
            r1.displays_per_hour,
            r4.displays_per_hour
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut c2 = small(4);
        c2.seed = 43;
        let a = StripingServer::new(small(4)).unwrap().run();
        let b = StripingServer::new(c2).unwrap().run();
        assert_ne!(a, b);
    }

    #[test]
    fn cold_start_fetches_from_tertiary() {
        let mut cfg = small(2);
        cfg.preload = false;
        // Make objects small enough that materialization fits the window:
        // 40 subobjects × 5 × 1.512 MB = 302 MB → 60 s at 40 mbps.
        let report = StripingServer::new(cfg).unwrap().run();
        assert!(report.displays_completed > 0, "no displays completed");
        assert!(report.unique_residents > 0);
    }

    #[test]
    fn open_arrivals_mode_services_poisson_stream() {
        // Arrivals at twice the single-viewer rate: the farm absorbs them
        // all (capacity is 4 concurrent on this farm), so completions per
        // hour track the arrival rate and latency stays near zero.
        let mut cfg = small(1);
        cfg.arrivals = crate::config::ArrivalModel::Open {
            rate_per_hour: 300.0,
        };
        let r = StripingServer::new(cfg).unwrap().run();
        assert!(
            (r.displays_per_hour - 300.0).abs() < 45.0,
            "rate {}",
            r.displays_per_hour
        );
        assert!(r.mean_latency_s < 10.0, "latency {}", r.mean_latency_s);
    }

    #[test]
    fn open_arrivals_overload_queues() {
        // Offered load far above the farm ceiling (4 concurrent /
        // 24.192 s = 595/hour): completions cap at the ceiling and
        // waiting time explodes.
        let mut cfg = small(1);
        cfg.arrivals = crate::config::ArrivalModel::Open {
            rate_per_hour: 1200.0,
        };
        let r = StripingServer::new(cfg).unwrap().run();
        assert!(r.displays_per_hour < 640.0, "rate {}", r.displays_per_hour);
        assert!(r.mean_latency_s > 60.0, "latency {}", r.mean_latency_s);
    }

    #[test]
    fn open_mode_rejected_for_vdr() {
        let mut cfg = ServerConfig::paper_vdr(4, 10.0, 1);
        cfg.arrivals = crate::config::ArrivalModel::Open {
            rate_per_hour: 10.0,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_window_reports_degraded_mode() {
        use ss_sim::FaultPlan;
        let mut cfg = small(4);
        cfg.faults = FaultPlan::fail_window(3, SimTime::from_secs(600), SimTime::from_secs(900));
        let r = StripingServer::new(cfg).unwrap().run();
        let g = r.degraded.as_ref().expect("degraded section present");
        assert_eq!(g.faults_injected, 1);
        assert_eq!(g.repairs, 1);
        // Fault processing snaps to interval boundaries, so the booked
        // downtime is within one interval of the scheduled window.
        let iv = ServerConfig::small_test(4, 42).interval().as_secs_f64();
        assert!(
            (g.disk_downtime_s - 300.0).abs() <= 2.0 * iv,
            "downtime {}",
            g.disk_downtime_s
        );
        assert_eq!(g.disk_downtime_s, g.max_disk_downtime_s);
        assert_eq!(g.slow_seconds, 0.0);
        // The duration sanity-check above pins the mask arithmetic; the
        // service still runs (the farm has 19 surviving disks).
        assert!(r.displays_completed > 0);
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        use ss_sim::{FaultPlan, StochasticFaults};
        use ss_types::SimDuration;
        let mk = || {
            let mut cfg = small(4);
            cfg.faults = FaultPlan {
                stochastic: Some(StochasticFaults {
                    mean_time_between_failures: SimDuration::from_secs(400),
                    mean_time_to_repair: SimDuration::from_secs(120),
                    slow_fraction: 0.3,
                }),
                ..FaultPlan::none()
            };
            cfg
        };
        let a = StripingServer::new(mk()).unwrap().run();
        let b = StripingServer::new(mk()).unwrap().run();
        assert_eq!(a, b);
        let g = a.degraded.as_ref().expect("stochastic plan fires");
        assert!(g.faults_injected > 0);
        assert_eq!(g.faults_injected, g.repairs, "every window closes");
    }

    /// The fault-grid scenario (one disk down for the middle half of the
    /// measurement window) with the full self-healing pipeline on: parity
    /// reconstruction keeps admitting, the rebuild returns the disk early,
    /// and throughput beats the parity-off degraded run.
    #[test]
    fn parity_and_rebuild_serve_through_an_outage() {
        use ss_sim::FaultPlan;
        let faulty = |stations: u32| {
            let mut cfg = small(stations);
            let fail = SimTime::from_micros(cfg.warmup.as_micros() + cfg.measure.as_micros() / 4);
            let repair =
                SimTime::from_micros(cfg.warmup.as_micros() + 3 * cfg.measure.as_micros() / 4);
            cfg.faults = FaultPlan::fail_window(0, fail, repair);
            cfg
        };
        let plain = StripingServer::new(faulty(8)).unwrap().run();
        let mut cfg = faulty(8);
        cfg.parity = Some(crate::config::ParityConfig::group(5));
        // One fragment per interval: the failed disk's 120 fragments keep
        // the farm degraded for ≈ 73 s before the early repair — long
        // enough that admissions must go through parity reconstruction.
        cfg.rebuild = Some(crate::config::RebuildConfig::rate(1));
        let healed = StripingServer::new(cfg).unwrap().run();
        let g = healed.degraded.as_ref().expect("degraded section present");
        let h = g.self_heal.as_ref().expect("self-heal section present");
        assert!(h.degraded_admissions > 0, "no degraded admissions: {h:?}");
        assert!(h.reconstructed_reads > 0);
        assert!(h.parity_overhead_intervals > 0);
        assert_eq!(h.rebuilds_completed, 1, "{h:?}");
        assert!(h.rebuild_seconds > 0.0);
        assert_eq!(g.faults_injected, g.repairs, "the early repair balances");
        assert_eq!(g.streams_dropped, 0);
        assert!(
            healed.displays_per_hour > plain.displays_per_hour,
            "self-healing must beat plain degraded service: {} vs {}",
            healed.displays_per_hour,
            plain.displays_per_hour
        );
    }

    /// Parity + rebuild runs stay bit-for-bit seed-deterministic (the
    /// backoff delays come from a derived RNG stream, the rebuild schedule
    /// is fixed at enqueue).
    #[test]
    fn parity_rebuild_runs_are_seed_deterministic() {
        use ss_sim::{FaultPlan, StochasticFaults};
        use ss_types::SimDuration;
        let mk = || {
            let mut cfg = small(4);
            cfg.faults = FaultPlan {
                stochastic: Some(StochasticFaults {
                    mean_time_between_failures: SimDuration::from_secs(400),
                    mean_time_to_repair: SimDuration::from_secs(120),
                    slow_fraction: 0.3,
                }),
                ..FaultPlan::none()
            };
            cfg.parity = Some(crate::config::ParityConfig::group(5));
            cfg.rebuild = Some(crate::config::RebuildConfig::rate(16));
            cfg
        };
        let a = StripingServer::new(mk()).unwrap().run();
        let b = StripingServer::new(mk()).unwrap().run();
        assert_eq!(a, b);
        let g = a.degraded.as_ref().expect("stochastic plan fires");
        assert!(g.faults_injected > 0);
        assert_eq!(g.faults_injected, g.repairs, "every window closes");
    }

    /// White-box rescue exercise: Figure 6's handover run in the *rescue*
    /// direction by the real fault machinery. End-to-end runs on the small
    /// farm almost never exercise a successful striping rescue — dynamic
    /// coalescing burns a display's slack the very tick it is admitted, so
    /// by the time a fault fires every fragment sits at offset 0 with
    /// nothing to trade. This test plants a display mid-coalesce directly
    /// in the model and lets `process_faults` do the rest.
    ///
    /// The geometry (20 disks, stride 1):
    ///
    /// * the planted display (M = 2, n = 10) delivers from interval 5;
    ///   fragment 0 is fully pipelined (base 5, virtual disk 15), fragment
    ///   1 lags with offset 2 (base 3, virtual disk 18, two buffers held);
    /// * disk 3 is *slow* over intervals [0, 8): the taker candidate for
    ///   base 5 (virtual disk 16) would visit it at interval 7, so every
    ///   coalesce attempt before the failure is refused — the offset
    ///   survives until the fault fires;
    /// * virtual disk 17, the only other taker (base 4), is busy forever;
    /// * disk 5 fail-stops over intervals [6, 9): fragment 1's committed
    ///   read of subobject 4 at interval 7 lands on it — one lost read.
    ///
    /// At the failure tick (6) the rescue pass must re-plan fragment 1
    /// onto virtual disk 16 at base 5 (handover at subobject 3): the
    /// taker's remaining reads clear both windows — its first visit to
    /// slow disk 3 is behind the handover point by then, and it visits
    /// failed disk 5 only at interval 9, repair time. Both buffers are
    /// released, the delivery schedule is untouched (no hiccup), and no
    /// read is ever taken from a down disk.
    #[test]
    fn rescue_pass_replans_lost_read_onto_surviving_disk() {
        use ss_sim::{FaultEvent, FaultPlan};
        let mut cfg = small(1);
        cfg.scheme = Scheme::Striping {
            stride: 1,
            policy: AdmissionPolicy::Fragmented {
                max_buffer_fragments: 64,
                max_delay_intervals: 16,
            },
            cluster_round: None,
        };
        // An empty trace: no organic traffic, the planted display is the
        // only activity on the farm.
        cfg.arrivals = ArrivalModel::Trace { events: vec![] };
        let iv = cfg.interval().as_micros();
        let at = |t: u64| SimTime::from_micros(t * iv);
        let ev = |disk, t, kind| FaultEvent {
            disk,
            at: at(t),
            kind,
        };
        cfg.faults = FaultPlan {
            events: vec![
                ev(3, 0, FaultKind::SlowStart),
                ev(5, 6, FaultKind::Fail),
                ev(3, 8, FaultKind::SlowEnd),
                ev(5, 9, FaultKind::Repair),
            ],
            ..FaultPlan::default()
        };

        let mut server = StripingServer::new(cfg).unwrap();
        let m = &mut server.kernel;
        // Fragment i's serving virtual disk is virtual_of(start_disk + i,
        // baseᵢ) = (start_disk + i − baseᵢ) mod 20; its reads occupy
        // [baseᵢ, baseᵢ + n).
        m.scheme.scheduler.set_free_from(15, 15);
        m.scheme.scheduler.set_free_from(18, 13);
        m.scheme.scheduler.set_free_from(17, 1000);
        m.core.buffers.acquire(2).unwrap();
        m.core.open_display(
            ActiveDisplay {
                station: None,
                object: ObjectId(0),
                home_node: NodeId(0),
                ends: at(100),
                delivery_start: 5,
                viewers: Vec::new(),
                primary_done: false,
                buffer_fragments: 2,
                rescued: false,
                hiccuped: false,
                ext: StripingDisplay {
                    fragmented: Some(ActiveFragmentedDisplay {
                        object: ObjectId(0),
                        start_disk: 0,
                        degree: 2,
                        subobjects: 10,
                        virtual_disks: vec![15, 18],
                        read_start: vec![5, 3],
                        delivery_start: 5,
                    }),
                    hiccups: 0,
                    hiccup_log: Vec::new(),
                    reconstructed_log: Vec::new(),
                },
            },
            0,
            10,
            2,
        );

        // Run through the failure (interval 6) up to the repair tick
        // (interval 9, the last scheduled wakeup before the quiescent
        // model leaps ahead); the down-disk invariant must hold at every
        // instant.
        while server.now() < at(9) && server.step() {
            assert_eq!(server.model().unaccounted_lost_reads(server.now()), 0);
        }

        let m = server.model();
        let g = m.degraded().expect("the failure fired");
        assert_eq!(g.faults_injected, 1);
        assert_eq!(g.slow_episodes, 1);
        assert_eq!(g.rescues, 1, "the lost read was rescued");
        assert_eq!(g.streams_rescued, 1);
        assert_eq!(g.rescue_buffer_overhead, 0, "the rescue fully coalesced");
        assert_eq!(g.hiccup_intervals, 0, "a rescued display never hiccups");
        assert_eq!(g.streams_dropped, 0);
        let d = &m.core.active[0];
        let f = d
            .ext
            .fragmented
            .as_ref()
            .expect("kept while faults are live");
        assert_eq!(f.virtual_disks, vec![15, 16], "handed over to disk 16");
        assert_eq!(f.read_start, vec![5, 5], "the read base moved to 5");
        assert_eq!(d.buffer_fragments, 0, "both buffers released");
        assert_eq!(m.core.buffers.in_use(), 0);
    }

    /// After every tick the queue's earliest wake is a fixed point of
    /// `no_pass_before` against the tick's final scheduler state: no
    /// commit later in the tick left it stale, so `wakeup` never
    /// schedules a boundary at which that waiter's plan must still fail.
    ///
    /// The queue's wakeup term is its earliest pacing interval, which
    /// rests on two more facts, checked here against the count scan it
    /// replaced. With backoff unarmed, the minimum wake is no earlier than
    /// the count test of the smallest queued degree, `earliest_free` less
    /// the fragmented policy's delay window. With backoff armed, every
    /// queued `next_attempt` lies past the tick. Four farms: contiguous,
    /// fragmented, a mix of degrees 6 and 3 (so the minimum-wake waiter
    /// can be wider than the narrowest queued one), and parity through a
    /// failure window (so backoff is armed).
    #[test]
    fn earliest_wake_is_bounded_against_the_ticks_last_commit() {
        use crate::config::{MediaMix, ParityConfig};
        use ss_sim::FaultPlan;
        // 16 stations on a farm that serves 4 displays at once.
        let contiguous = small(16);
        let mut fragmented = small(16);
        fragmented.scheme = Scheme::Striping {
            stride: 1,
            policy: AdmissionPolicy::Fragmented {
                max_buffer_fragments: 64,
                max_delay_intervals: 16,
            },
            cluster_round: None,
        };
        let mut mixed = small(16);
        mixed.mix = Some(MediaMix::section31_example(5, 40));
        let mut backoff = small(16);
        backoff.parity = Some(ParityConfig::group(5));
        let (warmup, measure) = (backoff.warmup.as_micros(), backoff.measure.as_micros());
        backoff.faults = FaultPlan::fail_window(
            0,
            SimTime::from_micros(warmup + measure / 4),
            SimTime::from_micros(warmup + 3 * measure / 4),
        );
        let (mut armed, mut wider) = (0, 0);
        for cfg in [contiguous, fragmented, mixed, backoff] {
            let mut server = StripingServer::new(cfg).unwrap();
            let (mut unarmed, mut steps_with_sleepers) = (0, 0);
            while server.step() {
                let m = server.model();
                let t = m.core.interval_index(server.now());
                let (queue, scheme) = (&m.core.queue, &m.scheme);
                if queue.is_empty() {
                    continue;
                }
                if scheme.backoff_armed(&m.core) {
                    armed += 1;
                    let w = queue.iter().min_by_key(|w| w.next_attempt).unwrap();
                    assert!(
                        w.next_attempt > t,
                        "{} may retry at {} (tick {t})",
                        w.object,
                        w.next_attempt
                    );
                    continue;
                }
                unarmed += 1;
                let w = queue.iter().min_by_key(|w| w.wake).unwrap();
                let bound = scheme.no_pass_before(w, t);
                assert!(
                    bound <= w.wake,
                    "{} wakes at {} but cannot pass before {bound} (tick {t})",
                    w.object,
                    w.wake
                );
                let degree = |o| {
                    scheme
                        .cluster_round
                        .unwrap_or_else(|| scheme.degree_of(o, 1))
                };
                let m_min = queue.iter().map(|w| degree(w.object)).min().unwrap();
                let delay = match scheme.policy {
                    AdmissionPolicy::Contiguous => 0,
                    AdmissionPolicy::Fragmented {
                        max_delay_intervals,
                        ..
                    } => max_delay_intervals,
                };
                let count = scheme.scheduler.earliest_free(m_min).unwrap();
                assert!(
                    w.wake >= count.saturating_sub(delay),
                    "{} wakes at {} before the count test's {count} less {delay} (tick {t})",
                    w.object,
                    w.wake
                );
                wider += usize::from(degree(w.object) > m_min);
                steps_with_sleepers += usize::from(queue.iter().any(|w| w.wake > t));
            }
            assert!(unarmed > 0, "no unarmed step had a queue");
            assert!(steps_with_sleepers > 0, "no step left a waiter asleep");
        }
        assert!(armed > 0, "no armed step had a queue");
        assert!(wider > 0, "the minimum wake was never the wider degree's");
    }

    #[test]
    fn crash_plane_recovers_cleanly_and_reconciles_at_every_event() {
        let mut cfg = small(4);
        // Cold start: tertiary fetches journal real allocation
        // transactions for the power losses to cut.
        cfg.preload = false;
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
        let mut server = StripingServer::new(cfg).unwrap();
        while server.step() {
            assert!(
                server.model().storage_reconciles(),
                "plane/placement reconciliation broke at {:?}",
                server.now()
            );
        }
        let report = server.run();
        let c = report.crash.as_ref().expect("crash events fired");
        assert_eq!(c.power_loss_events, 2);
        assert_eq!(c.torn_write_events, 1);
        assert_eq!(c.recoveries, 2);
        assert_eq!(c.recoveries_clean, 2, "every recovery verified clean");
        assert!(c.txns_journaled > 0, "cold-start fetches journal allocs");
        assert!(report.displays_completed > 0, "the server kept serving");
    }

    #[test]
    fn scrub_daemon_detects_and_repairs_torn_writes() {
        let mut cfg = small(2);
        cfg.scrub = Some(crate::config::ScrubConfig::rate(50));
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
        let mut server = StripingServer::new(cfg).unwrap();
        while server.step() {
            assert!(server.model().storage_reconciles());
        }
        assert_eq!(server.model().latent_errors(), 0, "a pass found them all");
        let report = server.run();
        let c = report.crash.as_ref().expect("scrub armed");
        assert_eq!(c.torn_write_events, 4);
        assert!(c.latent_injected >= 1, "torn writes hit allocated slots");
        assert_eq!(c.latent_found, c.latent_injected);
        assert_eq!(c.latent_repaired, c.latent_found);
        // No parity group: repairs evict and refetch from tertiary.
        assert_eq!(c.objects_refetched, c.latent_repaired);
        assert!(c.latent_dwell_s > 0.0, "detection lags injection");
        assert!(c.scrub_chunks > 0);
        assert!(c.scrub_passes >= 1, "the walk covered the whole farm");
        assert!(
            c.scrub_interference_intervals > 0,
            "verification reads were booked as real bandwidth"
        );
        assert_eq!(c.scrub_rate, 50);
    }

    #[test]
    fn parity_repairs_scrub_findings_in_place() {
        let mk = || {
            let mut cfg = small(2);
            cfg.parity = Some(crate::config::ParityConfig::group(5));
            cfg.scrub = Some(crate::config::ScrubConfig::rate(50));
            cfg.faults.crash = Some(ss_sim::CrashFaults {
                events: vec![ss_sim::CrashPlanEvent {
                    disk: 2,
                    at: SimTime::from_secs(300),
                    kind: ss_sim::CrashKind::TornWrite,
                }],
                ..Default::default()
            });
            cfg
        };
        let report = StripingServer::new(mk()).unwrap().run();
        let c = report.crash.as_ref().expect("scrub armed");
        assert_eq!(c.latent_repaired, c.latent_found);
        assert_eq!(c.objects_refetched, 0, "parity reconstructs in place");
        // Crash-armed runs stay deterministic.
        let again = StripingServer::new(mk()).unwrap().run();
        assert_eq!(report, again);
    }

    /// The per-read computation `remote_spans` walks instead of: each
    /// read's physical disk from `frame.physical`, its node from
    /// `node_of`. Returns the `(interval, fragments)` spans and the count
    /// of fragments with a remote read.
    fn reference_spans(
        topology: NodeTopology,
        frame: &VirtualFrame,
        home: NodeId,
        virtual_disks: &[u32],
        read_start: &[u64],
        subobjects: u32,
    ) -> (Vec<(u64, u64)>, u64) {
        let read_start = &read_start[..virtual_disks.len()];
        let (Some(&lo), Some(&hi)) = (read_start.iter().min(), read_start.iter().max()) else {
            return (Vec::new(), 0);
        };
        if topology.nodes <= 1 {
            return (Vec::new(), 0);
        }
        let n = u64::from(subobjects);
        let mut counts = vec![0u64; (hi - lo + n) as usize];
        let mut remote_frags = 0u64;
        for (&v, &base) in virtual_disks.iter().zip(read_start) {
            let mut any = false;
            for u in base..base + n {
                if topology.node_of(frame.physical(v, u)) != home {
                    any = true;
                    counts[(u - lo) as usize] += 1;
                }
            }
            remote_frags += u64::from(any);
        }
        let spans = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| (lo + k as u64, c))
            .collect();
        (spans, remote_frags)
    }

    /// The walked `remote_spans` agrees with the per-read reference on
    /// every farm of 1–60 disks at every stride from 0 to `2D` (a
    /// stationary frame, and strides past `disks_per_node`), split over
    /// 1–6 nodes (trailing disks included), for any home node, degrees
    /// 1 to `D`, 1–50 subobjects and read starts spread over 20
    /// intervals.
    #[test]
    fn walked_remote_spans_match_the_per_read_reference() {
        let mut rng = DeterministicRng::seed_from_u64(9);
        for disks in 1u32..=60 {
            for stride in 0..=2 * disks {
                let frame = VirtualFrame::new(disks, stride);
                for _ in 0..3 {
                    let nodes = 1 + rng.next_below(u64::from(disks.min(6))) as u32;
                    let topology = NodeTopology::even(nodes, disks);
                    let mut dist = DistState {
                        topology,
                        latency_intervals: 0,
                        router: crate::router::NodeRouter::new(
                            topology,
                            crate::config::RouterPolicy::LeastLoaded,
                            rng.derive("router"),
                        ),
                        ledger: ss_core::interconnect::InterconnectLedger::new(nodes, None, None),
                        latency_buffer_fragments: 0,
                        node_outages: 0,
                        scratch: Vec::new(),
                        counts: Vec::new(),
                    };
                    let home = NodeId(rng.next_below(u64::from(nodes)) as u32);
                    let degree = 1 + rng.next_below(u64::from(disks)) as usize;
                    let subobjects = 1 + rng.next_below(50) as u32;
                    let first = rng.next_below(1_000);
                    let virtual_disks: Vec<u32> = (0..degree)
                        .map(|_| rng.next_below(u64::from(disks)) as u32)
                        .collect();
                    let read_start: Vec<u64> =
                        (0..degree).map(|_| first + rng.next_below(20)).collect();
                    let frags =
                        dist.remote_spans(&frame, home, &virtual_disks, &read_start, subobjects);
                    let (spans, reference) = reference_spans(
                        topology,
                        &frame,
                        home,
                        &virtual_disks,
                        &read_start,
                        subobjects,
                    );
                    assert_eq!(
                        (&dist.scratch, frags),
                        (&spans, reference),
                        "D {disks}, k {stride}, {nodes} nodes, home {home:?}"
                    );
                }
            }
        }
    }
}
