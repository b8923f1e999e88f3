//! The striping media server: the §4 simulation with simple striping
//! (`k = M`) or staggered striping (any stride) as the placement scheme.
//!
//! The simulation advances in global time intervals (0.6048 s under
//! Table 3). Each tick the server, in order:
//!
//! 1. completes displays whose last subobject has been delivered,
//! 2. promotes finished materializations to displayable residency,
//! 3. admits queued requests through the virtual-frame
//!    [`IntervalScheduler`] (FIFO with skips: a blocked request does not
//!    block later requests whose disks are free — the idle slots of
//!    Figure 3 get used, exactly the paper's motivation),
//! 4. lets thinking stations issue new requests (resident → disk queue;
//!    absent → LFU eviction + tertiary fetch).
//!
//! Storage residency uses the exact cylinder accounting of
//! [`PlacementMap`]; evictions follow the paper's "removes the least
//! frequently accessed object" rule, restricted to objects not being
//! displayed or fetched.

use crate::config::{ArrivalModel, MaterializeMode, QueuePolicy, Scheme, ServerConfig};
use crate::metrics::{MetricsCollector, RunReport};
use crate::router::NodeRouter;
use crate::storage::{ScrubChunk, StoragePlane};
use ss_core::admission::{AdmissionGrant, AdmissionPolicy, IntervalScheduler, Outage};
use ss_core::buffers::BufferTracker;
use ss_core::cache::PrefixCache;
use ss_core::coalesce::{ActiveFragmentedDisplay, LostRead};
use ss_core::frame::VirtualFrame;
use ss_core::interconnect::InterconnectLedger;
use ss_core::media::ObjectCatalog;
use ss_core::placement::{PlacementMap, StripingConfig, StripingLayout};
use ss_disk::{AvailabilityMask, RebuildScheduler};
use ss_sim::{
    Context, DeterministicRng, FaultEvent, FaultKind, FaultPlan, FaultTimeline, Model, Simulation,
};
use ss_tertiary::TertiaryDevice;
use ss_types::{Error, NodeId, NodeTopology, ObjectId, Result, SimDuration, SimTime, StationId};
use ss_workload::{OpenArrivals, StationPool, StationState, TraceArrivals};
use std::collections::VecDeque;

/// The server's event alphabet: one periodic interval tick.
pub enum Event {
    /// Advance one time interval.
    Tick,
}

/// A viewer riding an in-flight shared stream (multicast batching): it
/// consumes the stream's reads from the buffer plane, so it books no
/// disk bandwidth of its own. A positive-lag joiner replays its missed
/// prefix from the cache while `catchup_fragments` buffers hold the live
/// stream until it catches up.
#[derive(Debug, Clone, Copy)]
struct SharedViewer {
    station: Option<StationId>,
    ends: SimTime,
    /// Catch-up buffers held for the viewer's whole ride (0 for a lag-0
    /// batched join).
    catchup_fragments: u64,
    /// Already counted in `hiccup_streams`.
    hiccuped: bool,
}

/// One admitted, running display. Open-system viewers have no station.
#[derive(Debug, Clone)]
struct ActiveDisplay {
    station: Option<StationId>,
    object: ObjectId,
    /// The front-end node delivering this stream (`NodeId(0)` whenever
    /// the distributed tier is off — the whole farm is one node).
    home_node: NodeId,
    ends: SimTime,
    /// Interval delivery began (the join-window anchor for sharing).
    delivery_start: u64,
    /// Shared viewers fanned out from this stream's reads (empty unless
    /// sharing is configured).
    viewers: Vec<SharedViewer>,
    /// The primary viewer completed but dependents are still riding the
    /// buffered tail; the entry is removed once `viewers` drains too.
    primary_done: bool,
    /// Fragment buffers currently held (fragmented admission only;
    /// reduced by dynamic coalescing).
    buffer_fragments: u64,
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
    /// double-counts them.
    hiccup_log: Vec<LostRead>,
    /// Reads admitted *into* an outage window under parity reconstruction:
    /// the planner already booked a companion read that regenerates each
    /// of them, so the rescue pass and the lost-read invariant must not
    /// treat them as casualties.
    reconstructed_log: Vec<LostRead>,
    /// Already counted in `streams_rescued` / `hiccup_streams`.
    rescued: bool,
    hiccuped: bool,
}

/// A request waiting for disk admission. Closed-loop requests carry their
/// station (whose pool records the issue time); open-system requests
/// carry the issue time directly.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    station: Option<StationId>,
    object: ObjectId,
    issued: SimTime,
    /// Failed admission attempts since the last fault transition (the
    /// backoff queue is armed only while parity is on and an outage is
    /// open; otherwise both fields stay 0 and the queue behaves exactly
    /// as before).
    attempts: u32,
    /// First interval at which the next attempt may run; `u64::MAX`
    /// parks an exhausted waiter until the next fault transition resets
    /// the queue.
    next_attempt: u64,
}

/// Distributed-tier state, armed by `config.distributed`: the node
/// topology, the front-end admission router, and the interconnect
/// ledger. With one node every fragment is local, nothing is ever
/// booked, and the admission path is byte-identical to the single-box
/// server (the correctness spine the distributed-equivalence sweep
/// pins).
struct DistState {
    topology: NodeTopology,
    /// One-way transfer latency in whole intervals: each fragment with a
    /// remote read prefetches this many intervals early, billing extra
    /// buffer memory (never delaying the delivery start).
    latency_intervals: u64,
    router: NodeRouter,
    ledger: InterconnectLedger,
    /// Cumulative latency-prefetch buffers billed (report column).
    latency_buffer_fragments: u64,
    /// Node outages compiled into the fault timeline (report column).
    node_outages: u32,
    /// Reusable sorted `(interval, fragments)` span buffer for booking.
    scratch: Vec<(u64, u64)>,
}

impl DistState {
    /// Fills `scratch` with the interconnect demand of a read plan homed
    /// on `home`: one fragment crosses the interconnect for every
    /// committed read whose physical disk lives on another node. Returns
    /// the number of fragments with at least one remote read (the
    /// latency-prefetch buffer multiplier). With one node the scratch
    /// stays empty and the return value is zero.
    fn remote_spans(
        &mut self,
        frame: &VirtualFrame,
        home: NodeId,
        virtual_disks: &[u32],
        read_start: &[u64],
        subobjects: u32,
    ) -> u64 {
        self.scratch.clear();
        if self.topology.nodes <= 1 {
            return 0;
        }
        let mut remote_frags = 0u64;
        for (i, &v) in virtual_disks.iter().enumerate() {
            let base = read_start[i];
            let mut any = false;
            for u in base..base + u64::from(subobjects) {
                if self.topology.node_of(frame.physical(v, u)) != home {
                    any = true;
                    match self.scratch.iter_mut().find(|(t, _)| *t == u) {
                        Some((_, c)) => *c += 1,
                        None => self.scratch.push((u, 1)),
                    }
                }
            }
            remote_frags += u64::from(any);
        }
        self.scratch.sort_unstable_by_key(|&(t, _)| t);
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
        if self.topology.nodes <= 1 {
            return;
        }
        let i = frag as usize;
        let v = frag_state.virtual_disks[i];
        let base = frag_state.read_start[i];
        let n = u64::from(frag_state.subobjects);
        self.scratch.clear();
        for u in base.max(t)..base + n {
            if self.topology.node_of(frame.physical(v, u)) != home {
                self.scratch.push((u, 1));
            }
        }
        if !self.scratch.is_empty() {
            let spans = std::mem::take(&mut self.scratch);
            self.ledger.force_book(home, &spans);
            crate::router::obs_link_book(home, &spans);
            self.scratch = spans;
        }
    }
}

/// The striping server model (driven by [`ss_sim::Simulation`]).
pub struct StripingModel {
    config: ServerConfig,
    interval: SimDuration,
    b_disk: ss_types::Bandwidth,
    /// §3.1 naive mode: reserve aligned groups of this many disks.
    cluster_round: Option<u32>,
    policy: AdmissionPolicy,
    catalog: ObjectCatalog,
    placement: PlacementMap,
    scheduler: IntervalScheduler,
    stations: StationPool,
    tertiary: TertiaryDevice,
    metrics: MetricsCollector,
    /// FIFO of requests for displayable resident objects.
    wait_disk: Vec<Waiter>,
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
    /// Objects awaiting their turn at the tertiary device. Jobs are
    /// submitted one at a time, when the device is actually free, so
    /// neither disk space nor eviction decisions are committed hours
    /// before the transfer can begin.
    fetch_queue: VecDeque<ObjectId>,
    /// Dense membership mirror of `fetch_queue` (O(1) duplicate check).
    in_fetch_queue: Vec<bool>,
    active: Vec<ActiveDisplay>,
    /// Running display count per object, dense by object id.
    active_per_object: Vec<u32>,
    freq: Vec<u64>,
    /// Staggered initial activation times (see the VDR server: avoids the
    /// lockstep artifact of identical display lengths).
    activate_at: Vec<SimTime>,
    /// Aligned start used by the next naive-mode placement.
    next_naive_start: u32,
    /// Delivery-buffer accounting (§3.2.1).
    buffers: BufferTracker,
    /// Open-system arrival stream (None in the closed/trace models).
    open: Option<OpenArrivals>,
    /// Trace-replay arrival stream (None in the closed/Poisson models).
    trace: Option<TraceArrivals>,
    /// The next open arrival not yet released into the queues.
    next_arrival: Option<(SimTime, ObjectId)>,
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
    /// Live per-disk up/slow state and downtime accounting.
    mask: AvailabilityMask,
    /// Deterministic delay stream for the admission backoff queue.
    backoff_rng: DeterministicRng,
    /// Online hot-spare rebuild pipeline (None unless configured).
    rebuild: Option<RebuildScheduler>,
    /// Rebuild completions not yet applied: `(disk, start, done)` in
    /// interval indices. Only rebuilds finishing *before* the scheduled
    /// repair are queued here.
    pending_rebuilds: Vec<(u32, u64, u64)>,
    /// Disks returned to service by an early rebuild; the next scheduled
    /// `Repair` timeline event for each is spent as a no-op.
    rebuilt_early: Vec<u32>,
    /// Stream-sharing prefix cache, armed by `config.sharing`.
    cache: Option<PrefixCache>,
    /// Viewers currently watching: every non-completed primary plus every
    /// shared viewer. Equals `active.len()` whenever sharing is off, so
    /// the active-displays series is untouched on unshared runs.
    active_viewers: u64,
    /// Catch-up buffers currently held by shared viewers (feeds the
    /// `peak_catchup_fragments` statistic).
    catchup_in_use: u64,
    /// Distributed tier (router + interconnect ledger), armed by
    /// `config.distributed`.
    dist: Option<DistState>,
    /// Crash-consistent storage plane (journalled per-disk metadata and
    /// the scrub walk), armed by `faults.crash` / `config.scrub`.
    plane: Option<StoragePlane>,
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

/// Books a scrub chunk's verification reads as interval-scheduler
/// bandwidth: `rate` virtual disks are blocked until the chunk
/// completes, exactly like the rebuild drain's booking, so scrubbing
/// competes with display admissions for real bandwidth. The booked
/// disks rotate with the chunk's start interval — in staggered striping
/// the virtual→physical mapping itself rotates over time, so the
/// physical drive under scrub surfaces as a different virtual disk each
/// chunk. That spreads the tithe: no single virtual disk is pinned for
/// more than one short chunk at a time. Horizon advances are charged as
/// interference.
fn book_scrub_chunk(
    scheduler: &mut IntervalScheduler,
    stats: &mut crate::metrics::CrashStats,
    disks: u32,
    chunk: ScrubChunk,
    rate: u64,
) {
    let d = u64::from(disks);
    for j in 0..rate.min(d) {
        let v = ((u64::from(chunk.disk) + chunk.start + j) % d) as u32;
        let old = scheduler.free_from(v);
        if chunk.end > old {
            stats.scrub_interference_intervals += chunk.end - old.max(chunk.start);
            scheduler.set_free_from(v, chunk.end);
        }
    }
}

impl StripingModel {
    fn new(config: ServerConfig) -> Result<Self> {
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
        let rng = DeterministicRng::seed_from_u64(config.seed);
        let sampler = config.popularity.sampler(catalog.len());
        let stations = StationPool::new(
            config.stations,
            sampler.clone(),
            config.think_time,
            rng.derive("stations"),
        );
        let (open, trace) = match &config.arrivals {
            ArrivalModel::Closed => (None, None),
            ArrivalModel::Open { rate_per_hour } => (
                Some(OpenArrivals::new(
                    *rate_per_hour,
                    sampler,
                    rng.derive("arrivals"),
                )),
                None,
            ),
            ArrivalModel::Trace { events } => {
                let events = events
                    .iter()
                    .map(|&(us, obj)| (SimTime::from_micros(us), ObjectId(obj)))
                    .collect();
                (
                    None,
                    Some(TraceArrivals::new(events).expect("validated trace")),
                )
            }
        };
        let mut scheduler = IntervalScheduler::new(VirtualFrame::new(config.disks, stride));
        scheduler.set_parity_group(config.parity.as_ref().map(|p| p.group));
        let tertiary = TertiaryDevice::new(config.tertiary.clone());
        let deadline = SimTime::ZERO + config.warmup + config.measure;
        // A node outage compiles into correlated per-disk fail/repair
        // windows on the ordinary fault timeline, so rescue, parity
        // reconstruction, rebuild and stream sharing compose with node
        // failures unchanged. `compile` re-sorts and normalizes, so the
        // appended windows interleave correctly with the scalar plan.
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
        let backoff_rng = rng.derive("backoff");
        let rebuild = config
            .rebuild
            .as_ref()
            .map(|r| RebuildScheduler::new(r.fragments_per_interval, r.spares));
        let mask = AvailabilityMask::new(config.disks);
        // `derive` is a pure function of (seed, label): adding the cache
        // stream moves none of the existing streams above.
        let cache = config.sharing.map(|s| {
            let mut crng = rng.derive("cache");
            PrefixCache::new(
                catalog.len() as u32,
                config.fragment_size(),
                s.cache_fragments,
                crng.next_u64_raw(),
            )
        });
        // Like the cache stream: `derive` is position-independent, so
        // arming the router moves no existing stream.
        let dist = config.distributed.as_ref().map(|d| DistState {
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
        // pre-plane engine.
        let mut plane =
            (!timeline.crash_events().is_empty() || config.scrub.is_some()).then(|| {
                let slots = config.disk.cylinders / config.cylinders_per_fragment;
                let mut plane = StoragePlane::new(
                    config.disks as usize,
                    slots,
                    config.scrub.map(|s| s.fragments_per_interval),
                );
                // Seed in id order: `resident_ids` iterates a hash map, and
                // the seeding sequence decides the ledgers' extent layout —
                // which torn-write salts index into. Any other order would
                // vary run to run.
                let mut resident: Vec<ObjectId> = placement.resident_ids().collect();
                resident.sort_unstable();
                for id in resident {
                    let layout = placement.layout(id).expect("resident layout");
                    plane.seed(u64::from(id.0), plane_layout(&layout));
                }
                // The preload is base state, not replayable history.
                plane.checkpoint();
                plane
            });
        if let Some(p) = plane.as_mut() {
            if let Some(chunk) = p.begin_scrub(0) {
                let rate = p.stats.scrub_rate;
                book_scrub_chunk(&mut scheduler, &mut p.stats, config.disks, chunk, rate);
            }
        }
        let n_objects = catalog.len();
        Ok(StripingModel {
            interval: config.interval(),
            b_disk,
            cluster_round,
            policy,
            catalog,
            placement,
            scheduler,
            stations,
            tertiary,
            metrics: MetricsCollector::new(),
            wait_disk: Vec::new(),
            wait_tertiary: vec![Vec::new(); n_objects],
            materializing: vec![None; n_objects],
            materializing_ids: Vec::new(),
            fetch_queue: VecDeque::new(),
            in_fetch_queue: vec![false; n_objects],
            active: Vec::new(),
            active_per_object: vec![0; n_objects],
            freq: vec![0; n_objects],
            activate_at: crate::vdr::stagger(&config),
            next_naive_start: 0,
            buffers: BufferTracker::new(config.fragment_size(), None),
            open,
            trace,
            next_arrival: None,
            measurement_started: false,
            deadline,
            last_tick: SimTime::ZERO,
            timeline,
            fault_cursor: 0,
            mask,
            backoff_rng,
            rebuild,
            pending_rebuilds: Vec::new(),
            rebuilt_early: Vec::new(),
            cache,
            active_viewers: 0,
            catchup_in_use: 0,
            dist,
            plane,
            config,
        })
    }

    fn interval_index(&self, now: SimTime) -> u64 {
        now.as_micros() / self.interval.as_micros()
    }

    /// True iff `object` is resident *and* displayable (fully placed, and
    /// past its pipelined-start horizon if it is still materializing).
    fn displayable(&self, object: ObjectId, now: SimTime) -> bool {
        self.placement.is_resident(object)
            && self.materializing[object.index()].is_none_or(|ready| ready <= now)
    }

    fn complete_displays(&mut self, now: SimTime) {
        let t = self.interval_index(now);
        let mut i = 0;
        while i < self.active.len() {
            let object = self.active[i].object;
            // Shared viewers finish on their own clocks, independent of
            // the primary (a late joiner's ride extends past the stream).
            let mut viewers = std::mem::take(&mut self.active[i].viewers);
            let mut v = 0;
            while v < viewers.len() {
                if viewers[v].ends <= now {
                    let done = viewers.swap_remove(v);
                    if let Some(station) = done.station {
                        self.stations.complete_at(station, now);
                    }
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
                    self.active_per_object[object.index()] -= 1;
                    self.active_viewers -= 1;
                } else {
                    v += 1;
                }
            }
            self.active[i].viewers = viewers;
            if self.active[i].ends <= now && !self.active[i].primary_done {
                let d = &mut self.active[i];
                d.primary_done = true;
                // Drop delivery state so coalesce/rescue never touch a
                // finished stream (its reads are all in the past anyway).
                d.fragmented = None;
                let frags = std::mem::take(&mut d.buffer_fragments);
                let station = d.station;
                let home = d.home_node;
                if let Some(dist) = self.dist.as_mut() {
                    dist.router.note_end(home);
                }
                if let Some(station) = station {
                    self.stations.complete_at(station, now);
                }
                self.buffers.release(frags);
                let measured = self.metrics.measuring();
                if measured {
                    self.metrics.record_completion();
                }
                ss_obs::obs!(ss_obs::Event::DisplayEnd {
                    object: object.0,
                    interval: t,
                    measured,
                });
                self.active_per_object[object.index()] -= 1;
                self.active_viewers -= 1;
            }
            if self.active[i].primary_done && self.active[i].viewers.is_empty() {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        self.metrics.active.set(now, self.active_viewers as f64);
    }

    fn promote_materializations(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.materializing_ids.len() {
            let o = self.materializing_ids[i];
            if self.materializing[o.index()].is_some_and(|t| t <= now) {
                self.materializing[o.index()] = None;
                self.materializing_ids.remove(i);
                let waiters = std::mem::take(&mut self.wait_tertiary[o.index()]);
                self.wait_disk.extend(waiters);
            } else {
                i += 1;
            }
        }
    }

    /// Feeds the tertiary device: while it is free and fetches are queued,
    /// reserve space for the head-of-queue object and submit it.
    fn pump_fetches(&mut self, now: SimTime) {
        while self.tertiary.busy_until() <= now {
            let Some(&object) = self.fetch_queue.front() else {
                return;
            };
            if self.wait_tertiary[object.index()].is_empty() {
                // Everyone who wanted it gave up (cannot happen in the
                // closed-loop model, but keep the queue self-cleaning).
                self.fetch_queue.pop_front();
                self.in_fetch_queue[object.index()] = false;
                continue;
            }
            if !self.reserve_space(object) {
                return; // all residents pinned; retry next interval
            }
            let spec = self.catalog.get(object).expect("catalog object").clone();
            let schedule = self.tertiary.submit(
                now,
                object,
                spec.size(self.b_disk, self.config.fragment_size()),
                u64::from(spec.subobjects),
                spec.media.display_bandwidth,
            );
            let ready = match self.config.materialize {
                MaterializeMode::Pipelined => schedule.earliest_display,
                MaterializeMode::AfterFull => schedule.done,
            };
            self.metrics.record_tertiary_fetch();
            self.materializing[object.index()] = Some(ready);
            self.materializing_ids.push(object);
            self.fetch_queue.pop_front();
            self.in_fetch_queue[object.index()] = false;
        }
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
    ///
    /// Kept out of line: inlined into `try_admissions`, its single caller,
    /// the span walk in `remote_spans` ran about 2× slower on the
    /// benchmark's `degraded` workload, where it dominates tick time.
    #[inline(never)]
    fn admit_gate(&mut self, grant: &AdmissionGrant, subobjects: u32) -> Result<(NodeId, u64)> {
        let Some(dist) = self.dist.as_mut() else {
            return Ok((NodeId(0), 0));
        };
        let frame = self.scheduler.frame();
        // Affinity: the disk serving the stripe head at delivery start.
        let affinity = frame.physical(grant.virtual_disks[0], grant.delivery_start);
        let mask = &self.mask;
        let dpn = dist.topology.disks_per_node;
        let home = dist
            .router
            .route(affinity, |n| !mask.node_fully_down(n.0, dpn));
        let remote_frags = dist.remote_spans(
            frame,
            home,
            &grant.virtual_disks,
            &grant.read_start,
            subobjects,
        );
        if !dist.ledger.try_book(home, &dist.scratch) {
            return Err(Error::AdmissionRejected {
                object: grant.object,
                needed: grant.virtual_disks.len() as u32,
                free: 0,
            });
        }
        crate::router::obs_link_book(home, &dist.scratch);
        let extra = dist.latency_intervals * remote_frags;
        dist.latency_buffer_fragments += extra;
        Ok((home, extra))
    }

    fn try_admissions(&mut self, now: SimTime) {
        let t = self.interval_index(now);
        // `wait_disk` is drained and still-waiting entries are pushed back
        // into the (now empty) queue in order — no scratch allocation.
        let mut waiters = std::mem::take(&mut self.wait_disk);
        match self.config.queue {
            QueuePolicy::Fcfs => {}
            QueuePolicy::SmallestFirst => {
                let b_disk = self.b_disk;
                waiters.sort_by_key(|w| {
                    self.catalog
                        .get(w.object)
                        .map_or(u32::MAX, |s| s.degree(b_disk))
                });
            }
            QueuePolicy::LargestFirst => {
                let b_disk = self.b_disk;
                waiters.sort_by_key(|w| {
                    std::cmp::Reverse(self.catalog.get(w.object).map_or(0, |s| s.degree(b_disk)))
                });
            }
        }
        // The retry/backoff queue is armed only while parity is on and an
        // outage is open: rejected candidates re-attempt after a bounded
        // deterministic delay instead of probing every interval, and after
        // `max_retries` failures they park until the next fault
        // transition. With parity off every waiter keeps
        // `next_attempt == 0` and this is the old FIFO-with-skips loop.
        let backoff = self.config.parity.is_some() && self.scheduler.has_outages();
        let (max_retries, max_backoff) = self
            .config
            .parity
            .as_ref()
            .map_or((0, 1), |p| (p.max_retries, p.max_backoff_intervals.max(1)));
        for mut w in waiters.drain(..) {
            if backoff && w.next_attempt > t {
                self.wait_disk.push(w);
                continue;
            }
            if !self.displayable(w.object, now) {
                // Evicted while queued: re-fetch.
                self.wait_disk.push(w);
                continue;
            }
            if self.config.sharing.is_some() && self.try_join_shared(&w, now, t) {
                // Joined an in-flight shared stream.
                continue;
            }
            let layout = self
                .placement
                .layout(w.object)
                .expect("displayable object is placed");
            let spec = self.catalog.get(w.object).expect("catalog object");
            // §3.1 naive mode: round the reservation up to a whole
            // aligned cluster; staggered striping reserves exactly M_X.
            let (start_disk, degree) = match self.cluster_round {
                Some(c) => (layout.start_disk - layout.start_disk % c, c),
                None => (layout.start_disk, layout.degree),
            };
            let viewing = spec.display_time(self.b_disk, self.config.fragment_size());
            // Copied out so the catalog borrow ends before the admission
            // gate (which needs `&mut self` for the router and ledger).
            let subobjects = spec.subobjects;
            let media_degree = spec.degree(self.b_disk);
            // `refresh_index` + `plan` + `commit` is exactly `try_admit`
            // (admission.rs), split open so the interconnect gate can run
            // between the last two; with the tier off the gate admits as
            // `(NodeId(0), 0)` and touches nothing.
            self.scheduler.refresh_index();
            let attempt = self
                .scheduler
                .plan(t, w.object, start_disk, degree, subobjects, self.policy)
                .and_then(|grant| {
                    let (home, extra) = self.admit_gate(&grant, subobjects)?;
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
                    if self.config.verify_delivery
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
                        SimTime::from_micros(grant.delivery_start * self.interval.as_micros());
                    // The station is busy until viewing completes (>= the
                    // disk occupancy when the media rate is not an exact
                    // multiple of B_disk).
                    let ends = start + viewing.max(self.interval * u64::from(subobjects));
                    let waited = match w.station {
                        Some(station) => self.stations.start_display(station, now),
                        None => now.duration_since(w.issued),
                    };
                    if self.metrics.measuring() {
                        self.metrics
                            .record_latency(waited + start.saturating_duration_since(now));
                    }
                    // `extra_buffers` is the interconnect latency
                    // prefetch (zero unless the tier is armed with a
                    // nonzero latency and this plan reads remotely); it
                    // lives and dies with the display's own buffers.
                    self.buffers
                        .acquire(grant.buffer_fragments + extra_buffers)
                        .expect("unbounded tracker");
                    self.metrics.peak_buffer_fragments =
                        self.metrics.peak_buffer_fragments.max(self.buffers.peak());
                    // Observability keeps the fragmented read-state
                    // alive on every display so the wasted-bandwidth
                    // series can see each fragment's reading window; the
                    // state is inert for zero-buffer fault-free displays
                    // (every consumer checks `buffer_total() > 0` or the
                    // timeline first), so decisions are unchanged.
                    // A multi-node farm keeps it alive too: the remote-
                    // booking deficit invariant needs every display's
                    // committed read timeline (inert for decisions, like
                    // the observability case).
                    let fragmented = (grant.buffer_fragments > 0
                        || !self.timeline.is_empty()
                        || self.dist.as_ref().is_some_and(|ds| ds.topology.nodes > 1)
                        || ss_obs::enabled())
                    .then(|| {
                        ActiveFragmentedDisplay::from_grant(&grant, layout.start_disk, subobjects)
                    });
                    let reconstructed_log = if grant.reconstructed_intervals > 0 {
                        let g = self.metrics.degraded_mut().self_heal_mut();
                        g.degraded_admissions += 1;
                        g.reconstructed_reads += grant.reconstructed_intervals;
                        g.parity_overhead_intervals +=
                            grant.parity_companions.len() as u64 * u64::from(subobjects);
                        // The reads this grant plans *into* the outage are
                        // exactly its currently-lost reads; remember them
                        // so the rescue pass never charges them.
                        fragmented
                            .as_ref()
                            .map(|f| self.scheduler.lost_reads(f, t))
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    self.active.push(ActiveDisplay {
                        station: w.station,
                        object: w.object,
                        home_node: home,
                        ends,
                        delivery_start: grant.delivery_start,
                        viewers: Vec::new(),
                        primary_done: false,
                        buffer_fragments: grant.buffer_fragments + extra_buffers,
                        fragmented,
                        hiccups: 0,
                        hiccup_log: Vec::new(),
                        reconstructed_log,
                        rescued: false,
                        hiccuped: false,
                    });
                    self.active_per_object[w.object.index()] += 1;
                    self.active_viewers += 1;
                    if let Some(dist) = self.dist.as_mut() {
                        dist.router.note_start(home);
                        ss_obs::obs!(ss_obs::Event::RouteAssign {
                            object: w.object.0,
                            node: home.0,
                            interval: t,
                        });
                    }
                    if let Some(sh) = self.config.sharing {
                        self.metrics.sharing_mut().streams_opened += 1;
                        // Offer this stream's prefix for residency so
                        // in-window joiners can patch their lag from
                        // memory; admission is popularity-gated LFU.
                        let cost = sh.prefix_intervals.min(u64::from(subobjects))
                            * u64::from(media_degree);
                        if let Some(cache) = self.cache.as_mut() {
                            cache.offer(w.object.0, cost, &self.freq);
                        }
                    }
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
                        ss_obs::record(ss_obs::Event::Startup {
                            object: w.object.0,
                            interval: t,
                            wait_us: (waited + start.saturating_duration_since(now)).as_micros(),
                            measured: self.metrics.measuring(),
                        });
                        ss_obs::with_registry(|r| {
                            r.count("admissions", 1);
                            r.observe(
                                "admission_latency_intervals",
                                grant.latency_intervals(t) as f64,
                            );
                        });
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
                        if w.attempts >= max_retries {
                            w.next_attempt = u64::MAX;
                            self.metrics
                                .degraded_mut()
                                .self_heal_mut()
                                .backoff_exhausted += 1;
                            ss_obs::obs!(ss_obs::Event::AdmitPark {
                                object: w.object.0,
                                interval: t,
                            });
                        } else {
                            w.next_attempt = t + 1 + self.backoff_rng.next_below(max_backoff);
                            self.metrics.degraded_mut().self_heal_mut().backoff_retries += 1;
                            ss_obs::obs!(ss_obs::Event::AdmitRetry {
                                object: w.object.0,
                                interval: t,
                                next_attempt: w.next_attempt,
                            });
                        }
                    }
                    self.wait_disk.push(w);
                }
            }
        }
        self.metrics.active.set(now, self.active_viewers as f64);
    }

    /// Tries to ride `w` on an in-flight shared stream of the same object
    /// (multicast batching, §3.7 of DESIGN.md). A lag-0 arrival joins the
    /// stream outright; a positive-lag arrival within `batch_window`
    /// intervals joins only if the object's prefix is cache-resident, in
    /// which case it replays the missed prefix from memory while holding
    /// `lag × M_X` catch-up buffers for the live stream. Joins book **no**
    /// disk bandwidth and never touch the interval scheduler.
    fn try_join_shared(&mut self, w: &Waiter, now: SimTime, t: u64) -> bool {
        let sh = self.config.sharing.expect("caller checked sharing is on");
        // Youngest live stream of the object (max delivery_start; index
        // tie-break keeps the pick deterministic).
        let candidate = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, d)| d.object == w.object && !d.primary_done)
            .max_by_key(|(i, d)| (d.delivery_start, *i))
            .map(|(i, d)| (i, d.delivery_start));
        let Some((idx, delivery_start)) = candidate else {
            return false;
        };
        let lag = t.saturating_sub(delivery_start);
        if lag > sh.batch_window {
            return false;
        }
        let spec = self.catalog.get(w.object).expect("catalog object");
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
            lag * u64::from(spec.degree(self.b_disk))
        };
        // The viewer starts when the stream's delivery did (lag 0) or now
        // (patched join); either way it watches the full object.
        let begin = SimTime::from_micros(delivery_start * self.interval.as_micros()).max(now);
        let viewing = spec.display_time(self.b_disk, self.config.fragment_size());
        let ends = begin + viewing.max(self.interval * u64::from(spec.subobjects));
        let waited = match w.station {
            Some(station) => self.stations.start_display(station, now),
            None => now.duration_since(w.issued),
        };
        if self.metrics.measuring() {
            self.metrics
                .record_latency(waited + begin.saturating_duration_since(now));
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
        self.active_per_object[w.object.index()] += 1;
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
                wait_us: (waited + begin.saturating_duration_since(now)).as_micros(),
                measured: self.metrics.measuring(),
            });
            ss_obs::with_registry(|r| r.count("shared_joins", 1));
        }
        true
    }

    /// Evicts least-frequently-accessed idle objects until `spec` fits,
    /// then reserves space by placing it. Returns false if no progress is
    /// possible right now.
    fn reserve_space(&mut self, object: ObjectId) -> bool {
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
                    if let Some(p) = self.plane.as_mut() {
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
                            self.active_per_object[o.index()] == 0
                                && self.materializing[o.index()].is_none()
                                && self.wait_disk.iter().all(|w| w.object != *o)
                                && self.wait_tertiary[o.index()].is_empty()
                        })
                        .min_by_key(|o| (self.freq[o.index()], *o));
                    match victim {
                        Some(v) => {
                            let start = self.placement.layout(v).expect("victim placed").start_disk;
                            if self.cluster_round.is_some() {
                                // Take over the victim's aligned start.
                                self.next_naive_start = start;
                            }
                            reuse_start = Some(start);
                            self.placement.remove(v).expect("victim resident");
                            if let Some(p) = self.plane.as_mut() {
                                p.record_free(u64::from(v.0));
                            }
                        }
                        None => return false,
                    }
                }
                Err(e) => panic!("unexpected placement failure: {e}"),
            }
        }
    }

    fn issue_requests(&mut self, now: SimTime) {
        if self.trace.is_some() {
            self.release_trace_arrivals(now);
            return;
        }
        if self.open.is_some() {
            self.release_open_arrivals(now);
            return;
        }
        for s in 0..self.stations.len() {
            let station = StationId(s as u32);
            if now < self.activate_at[s] {
                continue;
            }
            if matches!(self.stations.state(station), StationState::Thinking) {
                let (_req, object) = self.stations.issue(station, now);
                self.freq[object.index()] += 1;
                self.route_request(
                    Waiter {
                        station: Some(station),
                        object,
                        issued: now,
                        attempts: 0,
                        next_attempt: 0,
                    },
                    now,
                );
            }
        }
    }

    /// Releases every trace arrival with timestamp ≤ now.
    fn release_trace_arrivals(&mut self, now: SimTime) {
        loop {
            let due = self.trace.as_mut().expect("trace mode").pop_due(now);
            let Some((at, object)) = due else { return };
            self.freq[object.index()] += 1;
            self.route_request(
                Waiter {
                    station: None,
                    object,
                    issued: at,
                    attempts: 0,
                    next_attempt: 0,
                },
                now,
            );
        }
    }

    /// Releases every open-system arrival with timestamp ≤ now.
    fn release_open_arrivals(&mut self, now: SimTime) {
        let stream = self.open.as_mut().expect("open mode");
        loop {
            let (at, object) = match self.next_arrival.take() {
                Some(a) => a,
                None => {
                    let (at, _req, object) = stream.next();
                    (at, object)
                }
            };
            if at > now {
                self.next_arrival = Some((at, object));
                return;
            }
            self.freq[object.index()] += 1;
            let w = Waiter {
                station: None,
                object,
                issued: at,
                attempts: 0,
                next_attempt: 0,
            };
            // Inline the routing (self.open is mutably borrowed above).
            if self.placement.is_resident(object)
                && self.materializing[object.index()].is_none_or(|ready| ready <= now)
            {
                self.wait_disk.push(w);
            } else {
                if self.materializing[object.index()].is_none()
                    && !self.in_fetch_queue[object.index()]
                {
                    self.fetch_queue.push_back(object);
                    self.in_fetch_queue[object.index()] = true;
                }
                self.wait_tertiary[object.index()].push(w);
            }
        }
    }

    fn route_request(&mut self, w: Waiter, now: SimTime) {
        if self.displayable(w.object, now) {
            self.wait_disk.push(w);
        } else {
            // Absent or still materializing: park the waiter on the
            // object; enqueue a fetch if none is queued or in flight yet.
            if self.materializing[w.object.index()].is_none()
                && !self.in_fetch_queue[w.object.index()]
            {
                self.fetch_queue.push_back(w.object);
                self.in_fetch_queue[w.object.index()] = true;
            }
            self.wait_tertiary[w.object.index()].push(w);
        }
    }

    /// Dynamic coalescing (§3.2.1, Algorithm 2 at system level): migrate
    /// one lagging fragment per buffering display per interval onto freed
    /// disks, releasing buffer memory.
    fn coalesce_pass(&mut self, now: SimTime) {
        let t = self.interval_index(now);
        let faults = !self.timeline.is_empty();
        for d in &mut self.active {
            let Some(frag_state) = d.fragmented.as_mut() else {
                continue;
            };
            if frag_state.buffer_total() == 0 {
                continue; // fully pipelined already
            }
            if let Some(plan) = self.scheduler.plan_coalesce(frag_state, t) {
                self.scheduler.apply_coalesce(frag_state, &plan);
                if let Some(dist) = self.dist.as_mut() {
                    dist.rebook_fragment(
                        self.scheduler.frame(),
                        d.home_node,
                        frag_state,
                        plan.frag,
                        t,
                    );
                }
                self.buffers.release(plan.buffer_saving);
                d.buffer_fragments -= plan.buffer_saving;
                self.metrics.coalesces += 1;
                ss_obs::obs!(ss_obs::Event::Coalesce {
                    object: d.object.0,
                    frag: plan.frag,
                    saving: plan.buffer_saving,
                });
                let multi_node = self.dist.as_ref().is_some_and(|ds| ds.topology.nodes > 1);
                if frag_state.buffer_total() == 0 && !faults && !multi_node && !ss_obs::enabled() {
                    // Fully pipelined; under fault injection the state is
                    // kept — the rescue pass still needs the timeline —
                    // and observability keeps it for the wasted-bandwidth
                    // series (inert either way at zero buffer).
                    d.fragmented = None;
                }
            }
        }
    }

    /// The interval index of the first tick boundary at or after `at` —
    /// the interval at which the server processes a fault stamped `at`.
    fn interval_ceil(&self, at: SimTime) -> u64 {
        at.as_micros().div_ceil(self.interval.as_micros())
    }

    /// The interval at which the window opened just before `cursor`
    /// closes: the first later timeline event of `end_kind` on `disk`.
    /// Compiled timelines always close their windows; the run deadline is
    /// a defensive fallback.
    fn window_end(&self, disk: u32, end_kind: FaultKind, cursor: usize) -> u64 {
        self.timeline.events()[cursor..]
            .iter()
            .find(|ev| ev.disk == disk && ev.kind == end_kind)
            .map_or_else(
                || self.interval_ceil(self.deadline),
                |ev| self.interval_ceil(ev.at),
            )
    }

    /// Applies every timeline event due by `now`: updates the mask,
    /// mirrors failures and slow episodes as planning outages in the
    /// scheduler, and on each hard failure runs the rescue pass over the
    /// in-flight displays.
    fn process_faults(&mut self, now: SimTime) {
        let mut transitioned = false;
        while let Some(&ev) = self.timeline.events().get(self.fault_cursor) {
            if ev.at > now {
                break;
            }
            self.fault_cursor += 1;
            transitioned = true;
            if ev.kind == FaultKind::Repair {
                if let Some(p) = self.rebuilt_early.iter().position(|&d| d == ev.disk) {
                    // The rebuild pipeline already returned this disk to
                    // service; the scheduled repair is spent as a no-op.
                    self.rebuilt_early.swap_remove(p);
                    continue;
                }
            }
            self.mask.apply(&ev, now);
            let t = self.interval_index(now);
            match ev.kind {
                FaultKind::Fail => {
                    let mut until = self.window_end(ev.disk, FaultKind::Repair, self.fault_cursor);
                    if let Some(rb) = self.rebuild.as_mut() {
                        // Queue the failed disk onto a spare. Its `done`
                        // interval is final at enqueue time, so the outage
                        // can close at the earlier of scheduled repair and
                        // rebuild completion, and the drain's bandwidth is
                        // charged up front.
                        let frags = u64::from(self.placement.used_cylinders()[ev.disk as usize])
                            / u64::from(self.config.cylinders_per_fragment);
                        let job = rb.enqueue(ev.disk, frags, t);
                        let us = self.interval.as_micros();
                        self.timeline.note_rebuild(
                            ev.disk,
                            SimTime::from_micros(job.start * us),
                            SimTime::from_micros(job.done * us),
                        );
                        if job.done < until {
                            until = job.done;
                            self.pending_rebuilds.push((ev.disk, job.start, job.done));
                        }
                        // The drain reads surviving group members at
                        // `rate` fragments per interval: book that many
                        // virtual disks until the drain completes so
                        // admissions compete with the rebuild for real
                        // bandwidth.
                        let d = u64::from(self.config.disks);
                        for j in 0..rb.rate().min(d - 1) {
                            let v = ((u64::from(ev.disk) + 1 + j) % d) as u32;
                            let old = self.scheduler.free_from(v);
                            if job.done > old {
                                self.metrics
                                    .degraded_mut()
                                    .self_heal_mut()
                                    .rebuild_interference_intervals +=
                                    job.done - old.max(job.start);
                                self.scheduler.set_free_from(v, job.done);
                            }
                        }
                    }
                    self.scheduler.add_outage(Outage {
                        disk: ev.disk,
                        from: t,
                        until,
                        hard: true,
                    });
                    self.metrics.degraded_mut().faults_injected += 1;
                    self.rescue_pass(now, t);
                }
                FaultKind::Repair => {
                    self.metrics.degraded_mut().repairs += 1;
                    self.scheduler.prune_outages(t);
                }
                FaultKind::SlowStart => {
                    let until = self.window_end(ev.disk, FaultKind::SlowEnd, self.fault_cursor);
                    self.scheduler.add_outage(Outage {
                        disk: ev.disk,
                        from: t,
                        until,
                        hard: false,
                    });
                    self.metrics.degraded_mut().slow_episodes += 1;
                }
                FaultKind::SlowEnd => self.scheduler.prune_outages(t),
            }
        }
        if transitioned {
            self.reset_backoff();
        }
    }

    /// Every fault transition changes what is admissible, so the backoff
    /// queue starts over: parked waiters get a fresh attempt budget.
    fn reset_backoff(&mut self) {
        if self.config.parity.is_none() {
            return;
        }
        for w in &mut self.wait_disk {
            w.attempts = 0;
            w.next_attempt = 0;
        }
    }

    /// Applies every rebuild completion due by `now`: the rebuilt disk
    /// re-enters service ahead of its scheduled repair (whose timeline
    /// event becomes a no-op), its planning outage is dropped, and the
    /// early repair is counted exactly like a scheduled one — so the
    /// `faults_injected == repairs` ledger still balances.
    fn process_rebuilds(&mut self, now: SimTime) {
        if self.pending_rebuilds.is_empty() {
            return;
        }
        let t = self.interval_index(now);
        let interval_s = self.interval.as_secs_f64();
        let mut completed = false;
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
                self.scheduler.prune_outages(t);
                let g = self.metrics.degraded_mut();
                g.repairs += 1;
                let h = g.self_heal_mut();
                h.rebuilds_completed += 1;
                h.rebuild_seconds += (done - start) as f64 * interval_s;
                ss_obs::obs!(ss_obs::Event::RebuildDone { disk, early: true });
                if let Some(p) = self.plane.as_mut() {
                    // The drain's whole-disk rewrite lands as a journalled
                    // metadata transaction — a power loss right after the
                    // rebuild can tear the rebuilt drive.
                    p.record_rewrite(disk);
                }
                completed = true;
            } else {
                i += 1;
            }
        }
        if completed {
            self.reset_backoff();
        }
    }

    /// Tries to save every in-flight display whose committed reads fall
    /// inside a newly opened outage window. A fragment is rescued by a
    /// coalesce-direction re-plan onto a surviving virtual disk (buffers
    /// are *released*, never added — the read base only moves later); when
    /// no feasible plan exists the lost reads are charged as hiccup
    /// intervals, and a display that exceeds the plan's hiccup budget is
    /// dropped.
    fn rescue_pass(&mut self, now: SimTime, t: u64) {
        let interval_s = self.interval.as_secs_f64();
        let limit = self.timeline.drop_after_hiccup_intervals;
        let mut i = 0;
        while i < self.active.len() {
            let d = &mut self.active[i];
            let Some(frag_state) = d.fragmented.as_mut() else {
                i += 1;
                continue;
            };
            let fresh: Vec<LostRead> = self
                .scheduler
                .lost_reads(frag_state, t)
                .into_iter()
                .filter(|lr| !d.hiccup_log.contains(lr) && !d.reconstructed_log.contains(lr))
                .collect();
            if fresh.is_empty() {
                i += 1;
                continue;
            }
            let mut frags: Vec<u32> = fresh.iter().map(|lr| lr.frag).collect();
            frags.sort_unstable();
            frags.dedup();
            for frag in frags {
                match self.scheduler.plan_rescue(frag_state, frag, t) {
                    Some(plan) => {
                        self.scheduler.apply_coalesce(frag_state, &plan);
                        if let Some(dist) = self.dist.as_mut() {
                            dist.rebook_fragment(
                                self.scheduler.frame(),
                                d.home_node,
                                frag_state,
                                frag,
                                t,
                            );
                        }
                        self.buffers.release(plan.buffer_saving);
                        d.buffer_fragments -= plan.buffer_saving;
                        let g = self.metrics.degraded_mut();
                        g.rescues += 1;
                        g.rescue_buffer_overhead += frag_state.delivery_start - plan.new_read_start;
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
                        let g = self.metrics.degraded_mut();
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
                        d.hiccups += lost.len() as u64;
                        d.hiccup_log.extend(lost);
                    }
                }
            }
            if limit.is_some_and(|l| d.hiccups >= l) {
                let mut d = self.active.swap_remove(i);
                if let Some(dist) = self.dist.as_mut() {
                    // A dropped display is still live (rescue never
                    // touches a finished one), so its home slot frees.
                    dist.router.note_end(d.home_node);
                }
                if let Some(station) = d.station {
                    self.stations.complete_at(station, now);
                }
                self.buffers.release(d.buffer_fragments);
                self.active_per_object[d.object.index()] -= 1;
                self.active_viewers -= 1;
                // The viewer was cut off, not served: no completion is
                // recorded, only the drop.
                self.metrics.degraded_mut().streams_dropped += 1;
                ss_obs::obs!(ss_obs::Event::DisplayDrop {
                    object: d.object.0,
                    interval: t,
                    hiccups: d.hiccups,
                });
                // Dropping a shared stream drops every dependent with it:
                // their reads came from this stream's plan.
                for v in d.viewers.drain(..) {
                    if let Some(station) = v.station {
                        self.stations.complete_at(station, now);
                    }
                    self.buffers.release(v.catchup_fragments);
                    self.catchup_in_use -= v.catchup_fragments;
                    self.active_per_object[d.object.index()] -= 1;
                    self.active_viewers -= 1;
                    self.metrics.degraded_mut().streams_dropped += 1;
                    ss_obs::obs!(ss_obs::Event::DisplayDrop {
                        object: d.object.0,
                        interval: t,
                        hiccups: d.hiccups,
                    });
                }
            } else {
                i += 1;
            }
        }
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
        // Gated separately from the service-fault timeline: a crash- or
        // scrub-armed run may have no service faults at all.
        if self.plane.is_some() {
            self.process_storage_plane(now);
        }
        self.promote_materializations(now);
        self.try_admissions(now);
        self.issue_requests(now);
        // A newly-issued request may be admissible immediately (idle farm).
        self.try_admissions(now);
        self.coalesce_pass(now);
        self.pump_fetches(now);
        // All mutating passes are done: rebuild the free-horizon index
        // once so every read-only query until the next mutation — the
        // utilization/heatmap rows below, `next_wakeup`'s
        // `earliest_free`, the skipped-boundary replay — takes the
        // sorted path instead of its exact-but-linear dirty fallback.
        self.scheduler.refresh_index();
        debug_assert_eq!(
            self.active_viewers,
            self.active
                .iter()
                .map(|d| u64::from(!d.primary_done) + d.viewers.len() as u64)
                .sum::<u64>(),
            "viewer count must mirror the active set"
        );
        let t = self.interval_index(now);
        if let Some(dist) = self.dist.as_mut() {
            // Booked interconnect intervals strictly behind the clock are
            // never queried again: retire them so the ledger stays
            // proportional to the active reading window.
            dist.ledger.retire(t);
        }
        let util = self.scheduler.utilization(t);
        self.metrics.utilization.set(now, util);
        if ss_obs::enabled() {
            crate::metrics::obs_boundary_row(
                t,
                self.active_viewers as f64,
                self.wait_disk.len() as f64,
                util,
                wasted_fraction(&self.scheduler, &self.active, t),
                |row| fill_heatmap_row(&self.scheduler, t, row),
            );
        }
    }

    /// Fires due crash events against the storage plane and advances the
    /// scrub walk: recovery rollbacks evict their objects from placement,
    /// scrub finds repair in place under parity (or evict-and-refetch
    /// without), and each newly started scrub chunk is booked as real
    /// scheduler bandwidth.
    fn process_storage_plane(&mut self, now: SimTime) {
        let Some(mut plane) = self.plane.take() else {
            return;
        };
        if plane
            .next_crash_at(&self.timeline)
            .is_some_and(|at| at <= now)
        {
            let events = self.timeline.crash_events().to_vec();
            plane.process_crashes(&events, now, |object| {
                self.rollback_alloc(ObjectId(object as u32))
            });
        }
        let t = self.interval_index(now);
        let parity = self.config.parity.is_some();
        let mut scrub_evicted: Vec<u64> = Vec::new();
        let chunks = plane.process_scrub(t, now, |_, object| {
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
            if self.rollback_alloc(ObjectId(object as u32)) {
                plane.stats.objects_refetched += 1;
            }
            plane.record_free(object);
        }
        for chunk in chunks {
            let rate = plane.stats.scrub_rate;
            book_scrub_chunk(
                &mut self.scheduler,
                &mut plane.stats,
                self.config.disks,
                chunk,
                rate,
            );
        }
        self.plane = Some(plane);
    }

    /// Evicts `object` after the crash machinery invalidated its on-disk
    /// fragments: the placement entry is dropped, any in-flight
    /// materialization is abandoned, and waiters are re-parked on the
    /// tertiary queue so the next pump refetches the object. Returns
    /// whether the object was resident. In-flight displays run on —
    /// their reads were committed before the damage (a modeling choice:
    /// a crash invalidates future admissions, not delivered intervals).
    fn rollback_alloc(&mut self, object: ObjectId) -> bool {
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
        while i < self.wait_disk.len() {
            if self.wait_disk[i].object == object {
                let w = self.wait_disk.remove(i);
                self.wait_tertiary[o].push(w);
            } else {
                i += 1;
            }
        }
        if !self.wait_tertiary[o].is_empty() && !self.in_fetch_queue[o] {
            self.fetch_queue.push_back(object);
            self.in_fetch_queue[o] = true;
        }
        resident
    }

    /// The earliest future instant at which the next tick can do anything a
    /// quiescent tick would not — the wakeup horizon of the event-driven
    /// scheduler. Called after [`Self::tick`], so every queue reflects the
    /// just-finished interval. Returning a time `<= now` means "state may
    /// change every interval, tick densely".
    fn next_wakeup(&self, now: SimTime) -> SimTime {
        // Per-interval work that cannot be predicted from timestamps
        // alone: fragmented displays migrate one fragment per interval,
        // and a queued fetch facing a free device retries its (possibly
        // eviction-blocked) space reservation each interval.
        if self
            .active
            .iter()
            .any(|d| d.fragmented.as_ref().is_some_and(|f| f.buffer_total() > 0))
            || (!self.fetch_queue.is_empty() && self.tertiary.busy_until() <= now)
        {
            return now;
        }
        let mut horizon = self.deadline;
        // Fault events must be processed at their boundary: the mask, the
        // planning outages, and the rescue pass all hang off them.
        if let Some(at) = self.timeline.next_at(self.fault_cursor) {
            horizon = horizon.min(at);
        }
        // Queued admissions probe the rotated virtual frame each interval,
        // but both planners reject outright while fewer virtual disks than
        // the attempt's degree are free — so with the scheduler untouched
        // (commits and completions are wakeup sources themselves), every
        // attempt before `earliest_free(min degree)` is a side-effect-free
        // rejection and those intervals can be skipped wholesale.
        if !self.wait_disk.is_empty() {
            // With the backoff queue armed, a waiter before its
            // `next_attempt` interval is skipped without side effects, so
            // the queue's wakeup is the earliest retry instead of the
            // earliest free disk. Parked waiters (`u64::MAX`) wake at the
            // next fault transition or rebuild completion, both wakeup
            // sources of their own.
            let min_next = if self.config.parity.is_some() && self.scheduler.has_outages() {
                self.wait_disk
                    .iter()
                    .map(|w| w.next_attempt)
                    .min()
                    .unwrap_or(0)
            } else {
                0
            };
            if min_next > self.interval_index(now) {
                if min_next != u64::MAX {
                    horizon =
                        horizon.min(SimTime::from_micros(min_next * self.interval.as_micros()));
                }
            } else {
                match self.earliest_admission_attempt() {
                    Some(at) if at > now => horizon = horizon.min(at),
                    Some(_) => return now, // an attempt may pass next interval
                    // No queued degree fits the farm: attempts reject
                    // forever, the queue imposes no wakeup of its own.
                    None => {}
                }
            }
        }
        // Rebuild completions flip disks back into service at their
        // boundary.
        for &(_, _, done) in &self.pending_rebuilds {
            horizon = horizon.min(SimTime::from_micros(done * self.interval.as_micros()));
        }
        // Crash events and scrub chunk completions are wakeup sources of
        // the storage plane.
        if let Some(p) = &self.plane {
            if let Some(at) = p.next_crash_at(&self.timeline) {
                horizon = horizon.min(at);
            }
            if let Some(end) = p.next_scrub_end() {
                horizon = horizon.min(SimTime::from_micros(end * self.interval.as_micros()));
            }
        }
        if !self.measurement_started {
            horizon = horizon.min(SimTime::ZERO + self.config.warmup);
        }
        // (a) Active-display completions — primary and shared-viewer ends
        // alike. A primary-done entry's own `ends` is in the past and
        // spent; only its surviving viewers impose wakeups.
        for d in &self.active {
            if !d.primary_done {
                horizon = horizon.min(d.ends);
            }
            for v in &d.viewers {
                horizon = horizon.min(v.ends);
            }
        }
        // (d) Pending materializations become displayable, and a busy
        // tertiary device frees up for the next queued fetch.
        for &o in &self.materializing_ids {
            if let Some(ready) = self.materializing[o.index()] {
                horizon = horizon.min(ready);
            }
        }
        if !self.fetch_queue.is_empty() {
            horizon = horizon.min(self.tertiary.busy_until());
        }
        // (c) The next open-system or trace arrival.
        if let Some((at, _)) = self.next_arrival {
            horizon = horizon.min(at);
        }
        if let Some(at) = self.trace.as_ref().and_then(|t| t.peek_next_at()) {
            horizon = horizon.min(at);
        }
        // (b) Closed-loop stations: staggered activation and think expiry.
        // Post-tick, a thinking station either has not activated yet or is
        // past its expiry and re-issues next tick regardless — exactly the
        // dense model's behavior (`complete_displays` precedes
        // `issue_requests`, so completions re-issue the same tick).
        if self.trace.is_none() && self.open.is_none() {
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
        }
        horizon
    }

    /// The boundary of the first interval at which some queued admission
    /// could pass the planners' leading free-disk count test. `None` when
    /// no queued degree fits the farm at all. Under the fragmented policy
    /// the count test looks `max_delay_intervals` ahead, so the bound
    /// backs off by the same amount.
    fn earliest_admission_attempt(&self) -> Option<SimTime> {
        let m_min = self
            .wait_disk
            .iter()
            .map(|w| match self.cluster_round {
                Some(c) => c,
                None => self
                    .catalog
                    .get(w.object)
                    .map_or(1, |s| s.degree(self.b_disk)),
            })
            .min()
            .expect("caller checked wait_disk is non-empty");
        let delay = match self.policy {
            AdmissionPolicy::Contiguous => 0,
            AdmissionPolicy::Fragmented {
                max_delay_intervals,
                ..
            } => max_delay_intervals,
        };
        let t = self.scheduler.earliest_free(m_min)?.saturating_sub(delay);
        Some(SimTime::from_micros(t * self.interval.as_micros()))
    }

    /// Replays the metric samples a dense model would have taken at every
    /// boundary strictly between the last executed tick and `now`. At a
    /// skipped boundary the active-display set is provably unchanged
    /// (completions are wakeup sources) and the committed-capacity curve is
    /// a pure function of the untouched scheduler, so one
    /// [`ss_sim::TimeWeighted::set`] per series reproduces the dense
    /// accumulation bit-for-bit: the dense model's repeated same-timestamp
    /// sets each contribute exactly +0.0 after the first.
    fn replay_skipped(&mut self, now: SimTime) {
        let active = self.active_viewers as f64;
        let queue_depth = self.wait_disk.len() as f64;
        let us = self.interval.as_micros();
        // Field-disjoint reborrows: the closure reads the scheduler and
        // the active set while `replay_boundaries` holds the metrics.
        let scheduler = &self.scheduler;
        let active_set = &self.active;
        self.metrics
            .replay_boundaries(self.last_tick, self.interval, now, |b| {
                let t = b.as_micros() / us;
                let util = scheduler.utilization(t);
                if ss_obs::enabled() {
                    crate::metrics::obs_boundary_row(
                        t,
                        active,
                        queue_depth,
                        util,
                        wasted_fraction(scheduler, active_set, t),
                        |row| fill_heatmap_row(scheduler, t, row),
                    );
                }
                (active, util)
            });
    }
}

/// Fraction of farm capacity committed this interval but not reading
/// display data: parity companions, naive cluster-rounding reservations
/// and rebuild-drain bookings. The quantity the paper argues staggered
/// striping keeps near zero — computed only when observability is on.
fn wasted_fraction(scheduler: &IntervalScheduler, active: &[ActiveDisplay], t: u64) -> f64 {
    let d = scheduler.frame().disks();
    let committed = f64::from(d - scheduler.free_count(t));
    let mut reading = 0u64;
    for a in active {
        if let Some(f) = &a.fragmented {
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

/// One per-disk busy row at interval `t`: physical disk `p` is busy iff
/// the virtual disk over it has a committed read. Fills the registry's
/// reusable buffer rather than allocating per boundary, and walks only
/// the minority side of the frame: a saturated farm is all-busy and a
/// quiescent one all-free, so most boundaries are a constant fill with
/// no per-disk modular arithmetic at all.
fn fill_heatmap_row(scheduler: &IntervalScheduler, t: u64, row: &mut Vec<f32>) {
    let frame = scheduler.frame();
    let disks = frame.disks();
    let free = scheduler.free_count(t);
    let (majority, minority_free) = if free * 2 >= disks {
        (0.0, false)
    } else {
        (1.0, true)
    };
    row.resize(disks as usize, majority);
    if free == 0 || free == disks {
        return;
    }
    for v in 0..disks {
        if scheduler.is_free(v, t) == minority_free {
            row[frame.physical(v, t) as usize] = 1.0 - majority;
        }
    }
}

impl Model for StripingModel {
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
            ctx.schedule_in(self.interval, Event::Tick);
        } else {
            ctx.schedule_next_boundary(self.interval, self.next_wakeup(now), Event::Tick);
        }
    }
}

/// The runnable striping server.
pub struct StripingServer {
    sim: Simulation<StripingModel>,
}

impl StripingServer {
    /// Builds the server from a validated configuration.
    pub fn new(config: ServerConfig) -> Result<Self> {
        config.validate()?;
        let model = StripingModel::new(config)?;
        let mut sim = Simulation::new(model);
        sim.schedule_at(SimTime::ZERO, Event::Tick);
        Ok(StripingServer { sim })
    }

    /// Runs to the configured deadline and produces the report.
    pub fn run(mut self) -> RunReport {
        self.sim.run();
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
            "striping",
            m.config.stations,
            popularity,
            m.config.seed,
            m.tertiary.utilization(now),
            m.placement.resident_count() as u64,
        );
        report.parity_group = m.config.parity.as_ref().map(|p| p.group);
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
        // The crash section attaches only when the machinery acted or the
        // scrub daemon was armed; a zero-crash zero-scrub run reproduces
        // the pre-plane report byte-for-byte.
        if let Some(p) = &m.plane {
            if p.fired() || p.scrub_armed() {
                report.crash = Some(p.stats.clone());
            }
        }
        // The distributed section attaches only when it can say something
        // a single-box run cannot: a multi-node topology or a compiled
        // node outage. A 1-node infinite-interconnect config therefore
        // reproduces the single-box report byte-for-byte.
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
    pub fn model(&self) -> &StripingModel {
        self.sim.model()
    }

    /// Advances one event (diagnostics); returns false when finished.
    pub fn step(&mut self) -> bool {
        self.sim.step()
    }

    /// Current simulation time (diagnostics).
    pub fn now(&self) -> ss_types::SimTime {
        self.sim.now()
    }
}

impl StripingModel {
    /// Number of displays currently running (tests/examples).
    pub fn active_displays(&self) -> usize {
        self.active.len()
    }

    /// Number of requests queued for disk admission (tests/examples).
    pub fn queued(&self) -> usize {
        self.wait_disk.len()
    }

    /// Resident object count (tests/examples).
    pub fn resident_count(&self) -> usize {
        self.placement.resident_count()
    }

    /// The interval scheduler (read-only diagnostics).
    pub fn scheduler(&self) -> &IntervalScheduler {
        &self.scheduler
    }

    /// The catalog (read-only diagnostics).
    pub fn catalog(&self) -> &ObjectCatalog {
        &self.catalog
    }

    /// Current interval index at `now` (diagnostics).
    pub fn interval_at(&self, now: SimTime) -> u64 {
        self.interval_index(now)
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

    /// Largest failed-attempt count carried by any queued waiter
    /// (backoff diagnostics; bounded by `parity.max_retries`).
    pub fn max_waiter_attempts(&self) -> u32 {
        self.wait_disk.iter().map(|w| w.attempts).max().unwrap_or(0)
    }

    /// The queued waiters as `(object, issued µs)` pairs in queue order
    /// (backoff diagnostics: same-arrival order must survive retries).
    pub fn waiter_queue(&self) -> Vec<(ObjectId, u64)> {
        self.wait_disk
            .iter()
            .map(|w| (w.object, w.issued.as_micros()))
            .collect()
    }

    /// The rebuild pipeline, when configured (diagnostics).
    pub fn rebuild_scheduler(&self) -> Option<&RebuildScheduler> {
        self.rebuild.as_ref()
    }

    /// Interconnect fragment·intervals booked so far (distributed
    /// diagnostics; 0 when the tier is off — the non-vacuousness probe
    /// of the cross-node equivalence sweep).
    pub fn remote_fragment_intervals(&self) -> u64 {
        self.dist
            .as_ref()
            .map_or(0, |d| d.ledger.remote_fragment_intervals())
    }

    /// Remote fragments read by active displays at `now` minus the
    /// interconnect intervals booked for them, clamped at zero per node.
    /// The distributed invariant — *no fragment crosses nodes without a
    /// booked interconnect interval* — demands this be zero after every
    /// processed tick (re-plans may overbook, never undercount). Always
    /// zero when the tier is off.
    pub fn remote_booking_deficit(&self, now: SimTime) -> u64 {
        let Some(dist) = self.dist.as_ref() else {
            return 0;
        };
        let t = self.interval_index(now);
        let frame = self.scheduler.frame();
        let mut demand = vec![0u64; dist.topology.nodes as usize];
        for d in &self.active {
            let Some(f) = d.fragmented.as_ref() else {
                continue;
            };
            for (i, &v) in f.virtual_disks.iter().enumerate() {
                let base = f.read_start[i];
                if base <= t
                    && t < base + u64::from(f.subobjects)
                    && dist.topology.node_of(frame.physical(v, t)) != d.home_node
                {
                    demand[d.home_node.index()] += 1;
                }
            }
        }
        demand
            .iter()
            .enumerate()
            .map(|(n, &need)| need.saturating_sub(dist.ledger.booked(NodeId(n as u32), t)))
            .sum()
    }

    /// The crash-plane reconciliation invariant: every metadata ledger
    /// internally consistent (bitmap popcount ≡ extent table ≡ free
    /// index) and the plane's object set identical to the placement
    /// residents. Vacuously true when the plane is off.
    pub fn storage_reconciles(&self) -> bool {
        self.plane
            .as_ref()
            .is_none_or(|p| p.reconciles(self.placement.resident_ids().map(|o| u64::from(o.0))))
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

    /// Committed reads visible at `now` that fall inside a known hard
    /// outage window and are neither rescued nor charged as hiccups. The
    /// fault harness's "no fragment is read from a down disk" invariant
    /// demands this be zero after every processed tick.
    pub fn unaccounted_lost_reads(&self, now: SimTime) -> usize {
        let t = self.interval_index(now);
        self.active
            .iter()
            .filter_map(|d| d.fragmented.as_ref().map(|f| (d, f)))
            .map(|(d, f)| {
                self.scheduler
                    .lost_reads(f, t)
                    .into_iter()
                    .filter(|lr| !d.hiccup_log.contains(lr) && !d.reconstructed_log.contains(lr))
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small farm: 20 disks, 10 objects × 40 subobjects, everything fits.
    fn small(stations: u32) -> ServerConfig {
        ServerConfig::small_test(stations, 42)
    }

    #[test]
    fn single_station_loops_displays() {
        let cfg = small(1);
        // Display time: 40 subobjects × 0.6048 s = 24.192 s. With a fully
        // resident database and one station, displays run back to back, so
        // the 1800 s measurement window completes ≈ 74 of them.
        let display_s = cfg.display_time().as_secs_f64();
        assert!((display_s - 24.192).abs() < 1e-6);
        let measure_s = cfg.measure.as_secs_f64();
        let report = StripingServer::new(cfg).unwrap().run();
        let expect = measure_s / display_s;
        let got = report.displays_completed as f64;
        assert!(
            (got - expect).abs() <= 2.0,
            "expected ≈{expect} displays, got {got}"
        );
        // Throughput ≈ 3600 / 24.192 ≈ 148.8 displays/hour.
        assert!(
            (report.displays_per_hour - 148.8).abs() < 6.0,
            "rate {}",
            report.displays_per_hour
        );
        assert!(
            report.mean_latency_s < 1.0,
            "latency {}",
            report.mean_latency_s
        );
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
    fn determinism_same_seed_same_report() {
        let a = StripingServer::new(small(4)).unwrap().run();
        let b = StripingServer::new(small(4)).unwrap().run();
        assert_eq!(a, b);
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
    fn zero_fault_plan_is_byte_identical_to_baseline() {
        use ss_sim::FaultPlan;
        let baseline = StripingServer::new(small(4)).unwrap().run();
        let mut cfg = small(4);
        cfg.faults = FaultPlan {
            drop_after_hiccup_intervals: Some(50),
            ..FaultPlan::none()
        };
        assert!(cfg.faults.is_empty());
        let r = StripingServer::new(cfg).unwrap().run();
        assert_eq!(baseline, r);
        assert!(r.degraded.is_none());
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(
            !json.contains("degraded"),
            "zero-fault report must not serialize a degraded section"
        );
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

    #[test]
    fn wrong_scheme_is_rejected() {
        let cfg = ServerConfig::paper_vdr(4, 10.0, 1);
        assert!(matches!(
            StripingServer::new(cfg),
            Err(Error::InvalidConfig { .. })
        ));
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
        let m = server.sim.model_mut();
        // Fragment i's serving virtual disk is virtual_of(start_disk + i,
        // baseᵢ) = (start_disk + i − baseᵢ) mod 20; its reads occupy
        // [baseᵢ, baseᵢ + n).
        m.scheduler.set_free_from(15, 15);
        m.scheduler.set_free_from(18, 13);
        m.scheduler.set_free_from(17, 1000);
        m.buffers.acquire(2).unwrap();
        m.active_per_object[0] += 1;
        m.active_viewers += 1;
        m.active.push(ActiveDisplay {
            station: None,
            object: ObjectId(0),
            home_node: NodeId(0),
            ends: at(100),
            delivery_start: 5,
            viewers: Vec::new(),
            primary_done: false,
            buffer_fragments: 2,
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
            rescued: false,
            hiccuped: false,
        });

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
        let d = &m.active[0];
        let f = d.fragmented.as_ref().expect("kept while faults are live");
        assert_eq!(f.virtual_disks, vec![15, 16], "handed over to disk 16");
        assert_eq!(f.read_start, vec![5, 5], "the read base moved to 5");
        assert_eq!(d.buffer_fragments, 0, "both buffers released");
        assert_eq!(m.buffers.in_use(), 0);
    }

    #[test]
    fn zero_armed_run_attaches_no_crash_section() {
        let report = StripingServer::new(small(4)).unwrap().run();
        assert!(report.crash.is_none(), "no plane, no crash section");
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
}
