//! The server kernel: the §4.1 simulation model (display stations, a
//! centralized scheduler, disks, tertiary storage) that VDR and striping
//! share. [`ServerCore`] owns the model's state once; a placement scheme
//! plugs in through [`PlacementPolicy`] and owns only its placement
//! state. [`Kernel`] runs the tick loop over both (see DESIGN.md §3.11);
//! [`Server`] drives it on the interval clock.

use crate::config::{ArrivalModel, ServerConfig};
use crate::metrics::{DegradedStats, MetricsCollector, RunReport};
use crate::router::NodeRouter;
use crate::storage::StoragePlane;
use ss_core::buffers::BufferTracker;
use ss_core::cache::PrefixCache;
use ss_core::interconnect::InterconnectLedger;
use ss_disk::{AvailabilityMask, RebuildJob, RebuildScheduler};
use ss_sim::{CrashEvent, DeterministicRng, FaultEvent, FaultKind, FaultPlan, FaultTimeline};
use ss_tertiary::TertiaryDevice;
use ss_types::{NodeId, NodeTopology, ObjectId, Result, SimDuration, SimTime, StationId};
use ss_workload::{OpenArrivals, StationPool, StationState, TraceArrivals};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A placement and admission scheme running on the shared kernel.
///
/// Every hook gets the scheme's own state as `self` and the shared model
/// as `core`, so a scheme reads and writes both without borrowing through
/// the kernel. The kernel is generic over the scheme: every hook call is
/// static, and the tick loop compiles once per scheme.
pub trait PlacementPolicy: Sized {
    /// Scheme state carried by each active display.
    type Display;
    /// The report's `scheme` tag.
    const NAME: &'static str;
    /// Whether the storage plane runs before the admission passes
    /// (striping) or after the fetch pump (VDR).
    const STORAGE_BEFORE_ADMISSION: bool;
    /// Whether each scrub chunk books scheduler bandwidth when it starts
    /// (striping's `hold_busy`). A walk that books none is metadata-only
    /// and repairs each latent it finds by an in-place resync, so no
    /// other phase reads what a chunk changes: its chunk ends are not
    /// wakeups, and the kernel completes the chunks that ended between
    /// two ticks at the top of the later one (DESIGN.md §3.2).
    const SCRUB_BOOKS_BANDWIDTH: bool;

    /// Builds the scheme's placement state from `config` (preload
    /// included), returning it with the catalog size.
    fn build(config: &ServerConfig) -> Result<(Self, usize)>;

    /// Builds the storage plane over the preloaded placement, handing it
    /// the run's compiled crash events (physical disks, in firing order).
    fn storage_plane(&mut self, config: &ServerConfig, crashes: Vec<CrashEvent>) -> StoragePlane;

    /// Called right after display completions, before any fault is
    /// applied.
    fn release(&mut self, _core: &mut ServerCore<Self::Display>, _now: SimTime) {}

    /// Drops the scheme state of a display whose primary viewer just
    /// completed: its dependents ride the buffered tail, and no scheme
    /// pass may touch the finished stream again.
    fn finish_primary(_display: &mut Self::Display) {}

    /// One admission pass over `core.queue` (FIFO with skips).
    fn admit(&mut self, core: &mut ServerCore<Self::Display>, now: SimTime);

    /// Queues a newly issued request.
    fn route(&mut self, core: &mut ServerCore<Self::Display>, w: Waiter, now: SimTime);

    /// The per-interval work after admission: feeding the tertiary
    /// device (and, for striping, dynamic coalescing).
    fn pump(&mut self, core: &mut ServerCore<Self::Display>, now: SimTime);

    /// Storage-plane sync, crash recovery and the scrub walk (called only
    /// while the plane is armed).
    fn storage(&mut self, core: &mut ServerCore<Self::Display>, now: SimTime);

    /// Fragments the failed `disk` holds: the rebuild drain's work.
    fn rebuild_fragments(&self, disk: u32) -> u64;

    /// The storage-plane ledger holding `disk`'s metadata, if any.
    fn ledger_of(&self, disk: u32) -> Option<u32>;

    /// Reacts to the fault transition `ev`, already applied to the mask
    /// and counted, at interval `t`. For a failure, `until` is the
    /// interval its outage closes (the scheduled repair or an earlier
    /// rebuild) and `drain` the rebuild job queued for it; for a slow
    /// episode, `until` is the interval it ends. An early rebuild
    /// completion arrives as a `Repair`.
    fn transition(
        &mut self,
        core: &mut ServerCore<Self::Display>,
        ev: &FaultEvent,
        t: u64,
        now: SimTime,
        until: u64,
        drain: Option<RebuildJob>,
    );

    /// Busy fraction of the farm at boundary `at` (interval `t`).
    ///
    /// This hook, `wasted` and `heat_row` run at the end of every tick
    /// and at every skipped boundary after it (millions of boundaries in
    /// a long run), so they must answer cheaply, from the state the last
    /// tick left.
    fn utilization(&mut self, t: u64, at: SimTime) -> f64;

    /// Fraction of farm capacity committed at `t` but not delivering
    /// display data (observability only).
    fn wasted(
        &mut self,
        active: &[ActiveDisplay<Self::Display>],
        viewers: f64,
        t: u64,
        at: SimTime,
    ) -> f64;

    /// Fills the heat row at boundary `at` (interval `t`) into the empty
    /// `row`, one busy cell per disk in the frame the scheme keeps its
    /// occupancy in, and returns the frame's rotation at `t`: physical
    /// disk `p` reads cell `(p − offset) mod D` (observability only).
    fn heat_row(&mut self, t: u64, at: SimTime, row: &mut Vec<f32>) -> u32;

    /// At a skipped boundary `t`, the rotation of `t`'s heat row when
    /// its frame row is provably the one at `t − 1`, so the registry can
    /// repeat it without a fill; `None` when it may differ.
    fn heat_repeat(&self, t: u64) -> Option<u32>;

    /// The earliest instant a scheme-side event can change state, no
    /// later than `core.deadline`; a value `<= now` ticks densely. The
    /// landings in `core.in_flight` are the kernel's own term.
    fn wakeup(&self, core: &ServerCore<Self::Display>, now: SimTime) -> SimTime;

    /// Fragments display `d` reads from a node other than its home at
    /// interval `t`: the interconnect demand the ledger must cover.
    fn remote_demand(
        &self,
        topology: &NodeTopology,
        d: &ActiveDisplay<Self::Display>,
        t: u64,
    ) -> u64;

    /// Distinct disk-resident objects (the report's residency column).
    fn residents(&self) -> usize;

    /// The storage plane's reconciliation with the scheme's placement.
    fn reconciles(&self, plane: &StoragePlane) -> bool;
}

/// A viewer riding an in-flight shared stream (multicast batching): it
/// consumes the stream's reads from the buffer plane, so it books no
/// disk bandwidth of its own. A positive-lag joiner replays its missed
/// prefix from the cache while `catchup_fragments` buffers hold the live
/// stream until it catches up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedViewer {
    pub(crate) station: Option<StationId>,
    pub(crate) ends: SimTime,
    /// Catch-up buffers held for the viewer's whole ride (0 for a lag-0
    /// batched join).
    pub(crate) catchup_fragments: u64,
    /// Already counted in `hiccup_streams`.
    pub(crate) hiccuped: bool,
}

/// One admitted, running display. Open-system viewers have no station.
#[derive(Debug, Clone)]
pub struct ActiveDisplay<X> {
    pub(crate) station: Option<StationId>,
    pub(crate) object: ObjectId,
    /// The front-end node delivering this stream (`NodeId(0)` whenever
    /// the distributed tier is off — the whole farm is one node).
    pub(crate) home_node: NodeId,
    pub(crate) ends: SimTime,
    /// Interval delivery began (the join-window anchor for sharing).
    pub(crate) delivery_start: u64,
    /// Shared viewers fanned out from this stream's reads (empty unless
    /// sharing is configured).
    pub(crate) viewers: Vec<SharedViewer>,
    /// The primary viewer completed but dependents are still riding the
    /// buffered tail; the entry is removed once `viewers` drains too.
    pub(crate) primary_done: bool,
    /// Display buffers currently held (striping's fragmented admission
    /// and interconnect prefetch; always 0 under VDR).
    pub(crate) buffer_fragments: u64,
    /// Already counted in `streams_rescued` / `hiccup_streams`.
    pub(crate) rescued: bool,
    pub(crate) hiccuped: bool,
    /// The scheme's own per-display state.
    pub(crate) ext: X,
}

impl<X> ActiveDisplay<X> {
    /// The primary viewer, in the shape of a shared one (it holds no
    /// catch-up buffers).
    fn primary(&self) -> SharedViewer {
        SharedViewer {
            station: self.station,
            ends: self.ends,
            catchup_fragments: 0,
            hiccuped: self.hiccuped,
        }
    }
}

/// A request waiting for disk admission. Closed-loop requests carry their
/// station; open-system and trace requests have none.
#[derive(Debug, Clone, Copy)]
pub struct Waiter {
    pub(crate) station: Option<StationId>,
    pub(crate) object: ObjectId,
    /// When the request was issued: the start of its wait clock.
    pub(crate) issued: SimTime,
    /// Failed admission attempts since the last fault transition (the
    /// backoff queue is armed only while parity is on and an outage is
    /// open; otherwise both fields stay 0 and the queue behaves as a
    /// plain FIFO with skips).
    pub(crate) attempts: u32,
    /// First interval at which the next attempt may run; `u64::MAX`
    /// parks an exhausted waiter until the next fault transition resets
    /// the queue.
    pub(crate) next_attempt: u64,
    /// First interval at which the waiter's plan may pass
    /// (`IntervalScheduler::no_pass_before`, set by striping on a
    /// rejection while backoff is unarmed, and raised after the pump for
    /// the queue's earliest sleepers against the tick's final state):
    /// before it the waiter sleeps and admission does not plan it. Apart
    /// from `next_attempt`, so backoff runs unchanged; 0 is awake, and
    /// every event that can let a plan pass sooner sets it back to 0.
    pub(crate) wake: u64,
}

/// Distributed-tier state, armed by `config.distributed`: the node
/// topology, the front-end admission router, and the interconnect
/// ledger. With one node every read is local, nothing is ever booked,
/// and the admission path is byte-identical to the single-box server
/// (the correctness spine the distributed-equivalence sweep pins).
pub(crate) struct DistState {
    pub(crate) topology: NodeTopology,
    /// One-way transfer latency in whole intervals: each remote stream
    /// prefetches this many intervals early, billing extra buffer memory
    /// (never delaying the delivery start).
    pub(crate) latency_intervals: u64,
    pub(crate) router: NodeRouter,
    pub(crate) ledger: InterconnectLedger,
    /// Cumulative latency-prefetch buffers billed (report column).
    pub(crate) latency_buffer_fragments: u64,
    /// Node outages compiled into the fault timeline (report column).
    pub(crate) node_outages: u32,
    /// Reusable sorted `(interval, fragments)` span buffer for booking.
    pub(crate) scratch: Vec<(u64, u64)>,
    /// Reusable dense per-interval remote-read counts, indexed by the
    /// offset from a plan's earliest read interval.
    pub(crate) counts: Vec<u64>,
}

impl DistState {
    /// Books `spans` on `home`'s link, unconditionally when `force` (a
    /// re-plan may overbook, never undercount), else only within the
    /// link and switch headroom. Returns whether the booking was made.
    pub(crate) fn book(&mut self, home: NodeId, force: bool) -> bool {
        if force {
            self.ledger.force_book(home, &self.scratch);
        } else if !self.ledger.try_book(home, &self.scratch) {
            return false;
        }
        crate::router::obs_link_book(home, &self.scratch);
        true
    }

    /// Routes a display whose stream starts on physical disk `disk` to a
    /// home node that is not wholly dark in `mask`.
    pub(crate) fn route(&mut self, disk: u32, mask: &AvailabilityMask) -> NodeId {
        let dpn = self.topology.disks_per_node;
        self.router.route(disk, |n| !mask.node_fully_down(n.0, dpn))
    }
}

/// The active set's end times in time order (DESIGN.md §3.2): one
/// `(ends, slot)` entry per unfinished primary and per shared viewer,
/// earliest on top. A display holds one slot from `open_display` until
/// it leaves `active`; `slots` runs parallel to `active` and `pos` maps
/// a slot back to its position. Only `open_display`, `add_viewer`,
/// `complete_displays` and `drop_display` change either side.
struct DisplayEnds {
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The slot of each display, in `active` order.
    slots: Vec<u32>,
    /// The position in `active` of each slot in use.
    pos: Vec<u32>,
    /// Slots of displays that left `active`, reused first.
    free: Vec<u32>,
    /// The completion walk's due positions (kept for its allocation).
    due: Vec<usize>,
}

impl DisplayEnds {
    /// Room for `viewers` concurrent viewers without growing: in the
    /// closed loop each station is at most one viewer.
    fn with_capacity(viewers: usize) -> Self {
        DisplayEnds {
            heap: BinaryHeap::with_capacity(viewers),
            slots: Vec::with_capacity(viewers),
            pos: Vec::with_capacity(viewers),
            free: Vec::with_capacity(viewers),
            due: Vec::with_capacity(viewers),
        }
    }

    /// Gives the display just pushed onto the end of `active` a slot and
    /// queues its primary's end.
    fn open(&mut self, ends: SimTime) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.pos.push(0);
            self.pos.len() as u32 - 1
        });
        self.pos[slot as usize] = self.slots.len() as u32;
        self.slots.push(slot);
        self.heap.push(Reverse((ends, slot)));
    }

    /// Queues the end of a viewer joining the display at position `i`.
    fn join(&mut self, i: usize, ends: SimTime) {
        self.heap.push(Reverse((ends, self.slots[i])));
    }

    /// Mirrors `active.swap_remove(i)` for a display none of whose
    /// entries is queued, and frees its slot.
    fn swap_remove(&mut self, i: usize) {
        self.free.push(self.slots.swap_remove(i));
        if let Some(&moved) = self.slots.get(i) {
            self.pos[moved as usize] = i as u32;
        }
    }

    /// Mirrors dropping the display at position `i`: its queued entries
    /// go too, so a reused slot inherits none and every top is live.
    fn drop_at(&mut self, i: usize) {
        let slot = self.slots[i];
        self.heap.retain(|&Reverse((_, s))| s != slot);
        self.swap_remove(i);
    }

    /// Pops every entry due by `now` into `due` as the position of its
    /// display, ascending and without repeats.
    fn pop_due(&mut self, now: SimTime, due: &mut Vec<usize>) {
        while let Some(&Reverse((ends, slot))) = self.heap.peek() {
            if ends > now {
                break;
            }
            self.heap.pop();
            due.push(self.pos[slot as usize] as usize);
        }
        due.sort_unstable();
        due.dedup();
    }

    /// The earliest queued end.
    fn earliest(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((ends, _))| ends)
    }

    /// Viewers currently watching: one queued end per unfinished primary
    /// and per shared viewer.
    fn viewers(&self) -> f64 {
        self.heap.len() as f64
    }
}

/// The objects in flight to disk (DESIGN.md §3.11): a striping
/// materialization from tertiary or a VDR replica copy, each landing at
/// one instant. The kernel wakes for the earliest landing, and the scheme
/// lands the due ones at its own point of the tick.
pub(crate) struct InFlight {
    /// The landing instant of each object in flight, dense by object id.
    at: Vec<Option<SimTime>>,
    /// The ids in flight, in the order they were sent.
    ids: Vec<ObjectId>,
}

impl InFlight {
    fn new(objects: usize) -> Self {
        InFlight {
            at: vec![None; objects],
            ids: Vec::new(),
        }
    }

    /// When `object` lands, if it is in flight.
    pub(crate) fn get(&self, object: ObjectId) -> Option<SimTime> {
        self.at[object.index()]
    }

    /// Sends `object`, which is not in flight, to land at `at`.
    pub(crate) fn insert(&mut self, object: ObjectId, at: SimTime) {
        let slot = &mut self.at[object.index()];
        debug_assert!(slot.is_none(), "{object} is already in flight");
        *slot = Some(at);
        self.ids.push(object);
    }

    /// Takes `object` out of flight; a no-op when it is not in flight.
    pub(crate) fn remove(&mut self, object: ObjectId) {
        if self.at[object.index()].take().is_some() {
            self.ids.retain(|&o| o != object);
        }
    }

    /// Retires every object landing by `now`, handing each to `f` in the
    /// order they were sent.
    pub(crate) fn land(&mut self, now: SimTime, mut f: impl FnMut(ObjectId)) {
        let at = &mut self.at;
        self.ids.retain(|&o| {
            let slot = &mut at[o.index()];
            if slot.is_some_and(|t| t > now) {
                return true;
            }
            *slot = None;
            f(o);
            false
        });
    }

    /// The earliest landing of an object in flight.
    fn earliest(&self) -> Option<SimTime> {
        self.ids.iter().filter_map(|o| self.at[o.index()]).min()
    }
}

/// The shared simulation model: everything but the placement scheme.
pub struct ServerCore<X> {
    pub(crate) config: ServerConfig,
    pub(crate) interval: SimDuration,
    pub(crate) deadline: SimTime,
    /// The boundary of the last executed tick (event-driven mode replays
    /// the metric samples of the boundaries skipped since then).
    pub(crate) last_tick: SimTime,
    pub(crate) metrics: MetricsCollector,
    /// The closed-loop stations, each ready at its staggered activation
    /// until its first completion, then at its think expiry.
    pub(crate) stations: StationPool,
    /// Open-system arrival stream (None in the closed/trace models).
    pub(crate) open: Option<OpenArrivals>,
    /// Trace-replay arrival stream (None in the closed/Poisson models).
    pub(crate) trace: Option<TraceArrivals>,
    /// The next open arrival not yet released into the queues.
    pub(crate) next_arrival: Option<(SimTime, ObjectId)>,
    pub(crate) tertiary: TertiaryDevice,
    /// Objects awaiting their turn at the tertiary device. Jobs are
    /// submitted one at a time, when the device is actually free, so
    /// neither disk space nor eviction decisions are committed hours
    /// before the transfer can begin.
    pub(crate) fetch_queue: VecDeque<ObjectId>,
    /// Dense membership mirror of `fetch_queue` (O(1) duplicate check).
    in_fetch_queue: Vec<bool>,
    /// Objects on their way to disk, from tertiary or another cluster.
    pub(crate) in_flight: InFlight,
    /// Per-object access counts, dense by object id, bumped once per
    /// issued request: both schemes' LFU eviction and the cache's
    /// popularity table read them.
    pub(crate) freq: Vec<u64>,
    /// Requests waiting for disk admission, in arrival order.
    pub(crate) queue: Vec<Waiter>,
    pub(crate) active: Vec<ActiveDisplay<X>>,
    /// The end times of `active`'s viewers, earliest first: its length
    /// is the viewer count.
    ends: DisplayEnds,
    /// The stations the last `issue_requests` issued (kept for its
    /// allocation).
    issued: Vec<(StationId, ObjectId)>,
    /// Running viewer count per object, dense by object id.
    pub(crate) active_per_object: Vec<u32>,
    /// Catch-up buffers currently held by shared viewers (feeds the
    /// `peak_catchup_fragments` statistic).
    pub(crate) catchup_in_use: u64,
    /// Delivery-buffer accounting (§3.2.1), catch-up buffers included.
    pub(crate) buffers: BufferTracker,
    /// The compiled fault schedule (empty when the plan is empty — the
    /// zero-fault gate for every fault code path).
    pub(crate) timeline: FaultTimeline,
    /// Timeline events already applied.
    pub(crate) fault_cursor: usize,
    /// Live per-disk up/slow state and downtime accounting.
    pub(crate) mask: AvailabilityMask,
    /// Online hot-spare rebuild pipeline (None unless configured).
    pub(crate) rebuild: Option<RebuildScheduler>,
    /// Rebuild completions not yet applied: `(disk, start, done)` in
    /// interval indices. Only rebuilds finishing *before* the scheduled
    /// repair are queued here.
    pub(crate) pending_rebuilds: Vec<(u32, u64, u64)>,
    /// Stream-sharing prefix cache, armed by `config.sharing`.
    pub(crate) cache: Option<PrefixCache>,
    /// Distributed tier (router + interconnect ledger), armed by
    /// `config.distributed`.
    pub(crate) dist: Option<DistState>,
    /// Crash-consistent storage plane (journalled metadata and the scrub
    /// walk), armed by `faults.crash` / `config.scrub`.
    pub(crate) plane: Option<StoragePlane>,
}

impl<X> ServerCore<X> {
    fn new(config: ServerConfig, objects: usize) -> Self {
        let rng = DeterministicRng::seed_from_u64(config.seed);
        let sampler = config.popularity.sampler(objects);
        let stations = StationPool::new(
            stagger(&config),
            sampler.clone(),
            config.think_time,
            rng.derive("stations"),
        );
        let open = match &config.arrivals {
            ArrivalModel::Open { rate_per_hour } => Some(OpenArrivals::new(
                *rate_per_hour,
                sampler,
                rng.derive("arrivals"),
            )),
            _ => None,
        };
        let trace = match &config.arrivals {
            ArrivalModel::Trace { events } => {
                let events = events.iter();
                let events = events.map(|&(us, obj)| (SimTime::from_micros(us), ObjectId(obj)));
                Some(TraceArrivals::new(events.collect()).expect("validated trace"))
            }
            _ => None,
        };
        let deadline = SimTime::ZERO + config.warmup + config.measure;
        let viewers = match config.arrivals {
            ArrivalModel::Closed => config.stations as usize,
            _ => 0,
        };
        // A node outage compiles into correlated per-disk fail/repair
        // windows on the ordinary fault timeline, so every fault reaction
        // composes with node failures unchanged. `compile` re-sorts and
        // normalizes, so the appended windows interleave correctly with
        // the scalar plan.
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
        // `derive` is a pure function of (seed, label): adding the cache
        // and router streams moves none of the existing streams above.
        let cache = config.sharing.map(|s| {
            let mut crng = rng.derive("cache");
            PrefixCache::new(
                objects as u32,
                config.fragment_size(),
                s.cache_fragments,
                crng.next_u64_raw(),
            )
        });
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
            counts: Vec::new(),
        });
        ServerCore {
            interval: config.interval(),
            deadline,
            last_tick: SimTime::ZERO,
            metrics: MetricsCollector::new(),
            stations,
            open,
            trace,
            next_arrival: None,
            tertiary: TertiaryDevice::new(config.tertiary.clone()),
            fetch_queue: VecDeque::new(),
            in_fetch_queue: vec![false; objects],
            in_flight: InFlight::new(objects),
            freq: vec![0; objects],
            queue: Vec::new(),
            active: Vec::new(),
            ends: DisplayEnds::with_capacity(viewers),
            issued: Vec::new(),
            active_per_object: vec![0; objects],
            catchup_in_use: 0,
            buffers: BufferTracker::new(config.fragment_size(), None),
            timeline,
            fault_cursor: 0,
            mask: AvailabilityMask::new(config.disks),
            rebuild: config
                .rebuild
                .as_ref()
                .map(|r| RebuildScheduler::new(r.fragments_per_interval, r.spares)),
            pending_rebuilds: Vec::new(),
            cache,
            dist,
            plane: None,
            config,
        }
    }

    pub(crate) fn interval_index(&self, now: SimTime) -> u64 {
        now.as_micros() / self.interval.as_micros()
    }

    /// The interval at which the window opened just before the cursor
    /// closes: the boundary at or after the first later timeline event of
    /// `end_kind` on `disk` (the interval at which the server processes
    /// it). Compiled timelines always close their windows; the run
    /// deadline is a defensive fallback.
    fn window_end(&self, disk: u32, end_kind: FaultKind) -> u64 {
        let end = self.timeline.events()[self.fault_cursor..]
            .iter()
            .find(|ev| ev.disk == disk && ev.kind == end_kind)
            .map_or(self.deadline, |ev| ev.at);
        end.as_micros().div_ceil(self.interval.as_micros())
    }

    /// Stops `w`'s wait clock for a delivery starting at `begin` (>=
    /// `now`): the time since the request was issued plus the startup
    /// delay. Marks its station displaying and records the wait as a
    /// latency sample while measuring.
    pub(crate) fn start_wait(&mut self, w: &Waiter, now: SimTime, begin: SimTime) -> SimDuration {
        if let Some(station) = w.station {
            self.stations.start_display(station);
        }
        let wait = now.duration_since(w.issued) + begin.saturating_duration_since(now);
        if self.metrics.measuring() {
            self.metrics.record_latency(wait);
        }
        wait
    }

    /// Enters an admitted display into the active set: the viewer
    /// counts, the router's home-node load, and (with sharing armed) the
    /// stream count and the offer of its `subobjects × degree`-fragment
    /// prefix to the cache, so in-window joiners can patch their lag
    /// from memory (admission is popularity-gated LFU).
    pub(crate) fn open_display(
        &mut self,
        d: ActiveDisplay<X>,
        t: u64,
        subobjects: u32,
        degree: u32,
    ) {
        let (object, home) = (d.object, d.home_node);
        debug_assert!(!d.primary_done, "a display opens with its primary");
        self.ends.open(d.ends);
        self.active.push(d);
        self.active_per_object[object.index()] += 1;
        if let Some(dist) = self.dist.as_mut() {
            dist.router.note_start(home);
            ss_obs::obs!(ss_obs::Event::RouteAssign {
                object: object.0,
                node: home.0,
                interval: t,
            });
        }
        if let Some(sh) = self.config.sharing {
            self.metrics.sharing_mut().streams_opened += 1;
            let cost = sh.prefix_intervals.min(u64::from(subobjects)) * u64::from(degree);
            if let Some(cache) = self.cache.as_mut() {
                cache.offer(object.0, cost, &self.freq);
            }
        }
    }

    /// Tries to ride `w` on an in-flight shared stream of the same object
    /// (multicast batching, §3.7 of DESIGN.md). A lag-0 arrival joins the
    /// stream outright; a positive-lag arrival within `batch_window`
    /// intervals joins only if the object's prefix is cache-resident, in
    /// which case it replays the missed prefix from memory while holding
    /// `lag × degree` catch-up buffers for the live stream. Joins book
    /// **no** disk bandwidth or cluster. `shape` yields the object's
    /// degree and its display span. Always false while sharing is off;
    /// inlined, so that check costs no call per queued waiter.
    #[inline]
    pub(crate) fn try_join_shared(
        &mut self,
        w: &Waiter,
        now: SimTime,
        t: u64,
        shape: impl FnOnce() -> (u32, SimDuration),
    ) -> bool {
        let Some(sh) = self.config.sharing else {
            return false;
        };
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
        let (degree, span) = shape();
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
            lag * u64::from(degree)
        };
        // The viewer starts when the stream's delivery did (lag 0) or now
        // (patched join); either way it watches the full object.
        let begin = SimTime::from_micros(delivery_start * self.interval.as_micros()).max(now);
        let ends = begin + span;
        let wait = self.start_wait(w, now, begin);
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
        self.add_viewer(
            idx,
            SharedViewer {
                station: w.station,
                ends,
                catchup_fragments: catchup,
                hiccuped: false,
            },
        );
        if ss_obs::enabled() {
            ss_obs::record(ss_obs::Event::SharedJoin {
                object: w.object.0,
                interval: t,
                lag,
                buffer: catchup,
            });
            self.journal_startup(w.object, t, wait);
            ss_obs::with_registry(|r| r.count("shared_joins", 1));
        }
        true
    }

    /// Rides viewer `v` on the display at position `i`.
    fn add_viewer(&mut self, i: usize, v: SharedViewer) {
        self.ends.join(i, v.ends);
        self.active[i].viewers.push(v);
        self.active_per_object[self.active[i].object.index()] += 1;
    }

    /// Whether a queued waiter may try a join at the boundary after
    /// `now`: a live stream of its object whose lag there is at most
    /// `min(batch_window, prefix_intervals)`. Such a try joins, or counts
    /// a prefix-cache miss, at every boundary a dense run visits, so the
    /// clock may not skip it; once the lag passes the window every try
    /// fails before the cache is asked. (A stream yet to start counts
    /// too: its lag-0 join needs no prefix.)
    fn join_retries_next(&self, now: SimTime) -> bool {
        let Some(sh) = self.config.sharing else {
            return false;
        };
        let t = self.interval_index(now);
        let reach = sh.batch_window.min(sh.prefix_intervals);
        self.active.iter().any(|d| {
            !d.primary_done
                && d.delivery_start.saturating_add(reach) > t
                && self.queue.iter().any(|w| w.object == d.object)
        })
    }

    /// Journals a viewer's startup wait (observability only).
    pub(crate) fn journal_startup(&self, object: ObjectId, t: u64, wait: SimDuration) {
        ss_obs::record(ss_obs::Event::Startup {
            object: object.0,
            interval: t,
            wait_us: wait.as_micros(),
            measured: self.metrics.measuring(),
        });
    }

    /// Takes viewer `v` of `object` off the active set: frees its
    /// station and catch-up buffers and drops it from the counts.
    fn release_viewer(&mut self, v: SharedViewer, object: ObjectId, now: SimTime) {
        if let Some(station) = v.station {
            self.stations.complete_at(station, now);
        }
        self.buffers.release(v.catchup_fragments);
        self.catchup_in_use -= v.catchup_fragments;
        self.active_per_object[object.index()] -= 1;
    }

    /// Counts one viewer of `object` as served at interval `t`.
    fn record_end(&mut self, object: ObjectId, t: u64) {
        let measured = self.metrics.measuring();
        if measured {
            self.metrics.record_completion();
        }
        ss_obs::obs!(ss_obs::Event::DisplayEnd {
            object: object.0,
            interval: t,
            measured,
        });
    }

    /// Completes every viewer whose display ended by `now`. Shared
    /// viewers finish on their own clocks, independent of the primary (a
    /// late joiner's ride extends past the stream); `finish` drops the
    /// scheme state of a completed primary.
    ///
    /// Visits only the displays with a due end, in the order of a walk
    /// over every position: ascending, `swap_remove`ing a display once
    /// its primary and viewers are all done and visiting the display
    /// moved into its place next. A display without a due end is a
    /// no-op in that walk, since every display in `active` has an
    /// unfinished primary or a viewer.
    fn complete_displays(&mut self, now: SimTime, finish: impl Fn(&mut X)) {
        let t = self.interval_index(now);
        let mut due = std::mem::take(&mut self.ends.due);
        self.ends.pop_due(now, &mut due);
        let mut k = 0;
        while k < due.len() {
            let i = due[k];
            let object = self.active[i].object;
            let mut viewers = std::mem::take(&mut self.active[i].viewers);
            let mut v = 0;
            while v < viewers.len() {
                if viewers[v].ends <= now {
                    self.release_viewer(viewers.swap_remove(v), object, now);
                    self.record_end(object, t);
                } else {
                    v += 1;
                }
            }
            self.active[i].viewers = viewers;
            if self.active[i].ends <= now && !self.active[i].primary_done {
                let d = &mut self.active[i];
                d.primary_done = true;
                finish(&mut d.ext);
                let frags = std::mem::take(&mut d.buffer_fragments);
                let (primary, home) = (d.primary(), d.home_node);
                if let Some(dist) = self.dist.as_mut() {
                    dist.router.note_end(home);
                }
                self.buffers.release(frags);
                self.release_viewer(primary, object, now);
                self.record_end(object, t);
            }
            if self.active[i].primary_done && self.active[i].viewers.is_empty() {
                self.active.swap_remove(i);
                self.ends.swap_remove(i);
                // The last display moved into `i`. If it is due, it held
                // the largest due position: visit it here.
                if i < self.active.len() && due.last() == Some(&self.active.len()) {
                    due.pop();
                    continue;
                }
            }
            k += 1;
        }
        due.clear();
        self.ends.due = due;
        debug_assert!(
            self.active.iter().all(|d| (d.primary_done || d.ends > now)
                && d.viewers.iter().all(|v| v.ends > now)),
            "a viewer due by {now} is still active"
        );
    }

    /// Cuts off live display `i` and every viewer riding it: their reads
    /// came from its plan. The viewers were cut off, not served, so no
    /// completion is recorded, only the drops. `charge` bills a dropped
    /// viewer's lost service from its end time and whether it already
    /// counts as hiccuped, and returns the hiccup count journalled with
    /// its drop.
    pub(crate) fn drop_display(
        &mut self,
        i: usize,
        now: SimTime,
        t: u64,
        mut charge: impl FnMut(&mut DegradedStats, SimTime, bool) -> u64,
    ) {
        let mut d = self.active.swap_remove(i);
        self.ends.drop_at(i);
        if let Some(dist) = self.dist.as_mut() {
            // A dropped display is still live, so its home slot frees.
            dist.router.note_end(d.home_node);
        }
        let viewers = std::mem::take(&mut d.viewers);
        self.buffers.release(d.buffer_fragments);
        for v in std::iter::once(d.primary()).chain(viewers) {
            self.release_viewer(v, d.object, now);
            let g = self.metrics.degraded_mut();
            let hiccups = charge(g, v.ends, v.hiccuped);
            g.streams_dropped += 1;
            ss_obs::obs!(ss_obs::Event::DisplayDrop {
                object: d.object.0,
                interval: t,
                hiccups,
            });
        }
    }

    /// Enqueues a rebuild of the failed `disk` (holding `fragments`) when
    /// the pipeline is armed, and returns the interval the outage closes
    /// — the scheduled repair, or the rebuild's completion when that is
    /// earlier (queued then as a pending early repair) — with the job.
    fn fail_window(&mut self, disk: u32, fragments: u64, t: u64) -> (u64, Option<RebuildJob>) {
        let mut until = self.window_end(disk, FaultKind::Repair);
        let Some(rb) = self.rebuild.as_mut() else {
            return (until, None);
        };
        // The job's `done` interval is final at enqueue time, so the
        // outage can close at the earlier of scheduled repair and rebuild
        // completion.
        let job = rb.enqueue(disk, fragments, t);
        if job.done < until {
            until = job.done;
            self.pending_rebuilds.push((disk, job.start, job.done));
        }
        (until, Some(job))
    }

    /// Queues a tertiary fetch of `object` unless one is already queued.
    pub(crate) fn request_fetch(&mut self, object: ObjectId) {
        let queued = &mut self.in_fetch_queue[object.index()];
        if !*queued {
            *queued = true;
            self.fetch_queue.push_back(object);
        }
    }

    /// Feeds the tertiary device: while it is free, offers the
    /// head-of-queue object to `fetch`, which submits (or drops) it and
    /// returns true, or returns false to retry next interval.
    pub(crate) fn pump_fetches(
        &mut self,
        now: SimTime,
        mut fetch: impl FnMut(&mut Self, ObjectId) -> bool,
    ) {
        while self.tertiary.busy_until() <= now {
            let Some(&object) = self.fetch_queue.front() else {
                return;
            };
            if !fetch(self, object) {
                return;
            }
            self.fetch_queue.pop_front();
            self.in_fetch_queue[object.index()] = false;
        }
    }

    /// Every fault transition changes what is admissible, so the backoff
    /// queue starts over (parked waiters get a fresh attempt budget) and
    /// every sleeping waiter wakes.
    fn reset_queue(&mut self) {
        for w in &mut self.queue {
            w.wake = 0;
            w.attempts = 0;
            w.next_attempt = 0;
        }
    }

    /// Lets stations, trace and open arrivals issue their requests due by
    /// `now`, handing each to `route`.
    fn issue_requests(&mut self, now: SimTime, mut route: impl FnMut(&mut Self, Waiter)) {
        let waiter = |station, object, issued| Waiter {
            station,
            object,
            issued,
            attempts: 0,
            next_attempt: 0,
            wake: 0,
        };
        if self.trace.is_some() {
            while let Some((at, object)) = self.trace.as_mut().and_then(|tr| tr.pop_due(now)) {
                self.freq[object.index()] += 1;
                route(self, waiter(None, object, at));
            }
            return;
        }
        if self.open.is_some() {
            loop {
                let (at, object) = match self.next_arrival.take() {
                    Some(a) => a,
                    None => {
                        let (at, _req, object) = self.open.as_mut().expect("open mode").next();
                        (at, object)
                    }
                };
                if at > now {
                    self.next_arrival = Some((at, object));
                    return;
                }
                self.freq[object.index()] += 1;
                route(self, waiter(None, object, at));
            }
        }
        // A station issues once it has activated and its think time
        // since its last completion has run out: its first completion
        // comes after its activation, so `ready_from` holds both.
        let mut issued = std::mem::take(&mut self.issued);
        self.stations.issue_ready(now, &mut issued);
        for &(station, object) in &issued {
            self.freq[object.index()] += 1;
            route(self, waiter(Some(station), object, now));
        }
        self.issued = issued;
    }
}

/// A server model: the shared kernel running placement scheme `P`
/// (driven by [`Server`]).
pub struct Kernel<P: PlacementPolicy> {
    pub(crate) core: ServerCore<P::Display>,
    pub(crate) scheme: P,
}

impl<P: PlacementPolicy> Kernel<P> {
    pub(crate) fn new(config: ServerConfig) -> Result<Self> {
        let (mut scheme, objects) = P::build(&config)?;
        let mut core = ServerCore::new(config, objects);
        // The storage plane arms only when the crash machinery can act:
        // compiled crash events or the scrub daemon. Zero-armed runs
        // never construct it, keeping them byte-identical to the
        // pre-plane engine. `derive` is a pure function of (seed, label),
        // so where the crash stream compiles does not move its salts.
        let config = &core.config;
        let rng = DeterministicRng::seed_from_u64(config.seed);
        let crashes = config
            .faults
            .compile_crash(config.disks, core.deadline, &rng);
        core.plane = (!crashes.is_empty() || config.scrub.is_some())
            .then(|| scheme.storage_plane(config, crashes));
        Ok(Kernel { core, scheme })
    }

    fn tick(&mut self, now: SimTime) {
        let Kernel { core, scheme } = self;
        // A metadata-only scrub walk sleeps through its chunk ends. Each
        // chunk that ended before this tick completes first, at its own
        // end, every latent it finds resynced in place (not a parity
        // rebuild): no ledger has changed since (every plane mutation
        // happens inside a tick), and its events precede all of this
        // tick's. A chunk ending at the tick completes in the storage
        // hook.
        if let Some(p) = core.plane.as_mut().filter(|_| !P::SCRUB_BOOKS_BANDWIDTH) {
            let t = now.as_micros() / core.interval.as_micros();
            if let Some(last) = t.checked_sub(1) {
                p.process_scrub(last, core.interval, |_, _| false);
            }
        }
        if !core.metrics.measuring() && now.duration_since(SimTime::ZERO) >= core.config.warmup {
            core.metrics.start_measurement(now);
        }
        core.complete_displays(now, P::finish_primary);
        scheme.release(core, now);
        if !core.timeline.is_empty() {
            self.process_rebuilds(now);
            self.process_faults(now);
        }
        let Kernel { core, scheme } = self;
        // Gated separately from the service-fault timeline: a crash- or
        // scrub-armed run may have no service faults at all.
        if P::STORAGE_BEFORE_ADMISSION && core.plane.is_some() {
            scheme.storage(core, now);
        }
        scheme.admit(core, now);
        core.issue_requests(now, |core, w| scheme.route(core, w, now));
        // A newly-issued request may be admissible immediately (idle farm).
        scheme.admit(core, now);
        scheme.pump(core, now);
        if !P::STORAGE_BEFORE_ADMISSION && core.plane.is_some() {
            scheme.storage(core, now);
        }
        debug_assert_eq!(
            core.ends.heap.len(),
            core.active
                .iter()
                .map(|d| usize::from(!d.primary_done) + d.viewers.len())
                .sum::<usize>(),
            "viewer count must mirror the active set"
        );
        let t = core.interval_index(now);
        if let Some(dist) = core.dist.as_mut() {
            // Booked interconnect intervals strictly behind the clock are
            // never queried again: retire them so the ledger stays
            // proportional to the active reading window.
            dist.ledger.retire(t);
        }
        // One sample per series per tick: a same-instant set adds exactly
        // +0.0 to the time-weighted sum, so only the tick's final value
        // counts.
        self.sample(t, now, false);
    }

    /// Samples boundary `at` (interval `t`): the two time-weighted series
    /// and, while a registry is installed, the boundary's series row and
    /// heat row. Runs at the end of every tick and at every boundary
    /// skipped after it; at a `skipped` boundary the heat row is repeated
    /// when [`PlacementPolicy::heat_repeat`] vouches that it has not
    /// changed.
    ///
    /// Inlined: the replay loop runs it at millions of skipped boundaries.
    #[inline]
    fn sample(&mut self, t: u64, at: SimTime, skipped: bool) {
        let Kernel { core, scheme } = self;
        let viewers = core.ends.viewers();
        let utilization = scheme.utilization(t, at);
        core.metrics.sample_boundary(at, viewers, utilization);
        if !ss_obs::enabled() {
            return;
        }
        let row = ss_obs::SeriesRow {
            interval: t,
            active_displays: viewers,
            queue_depth: core.queue.len() as f64,
            utilization,
            wasted_fraction: scheme.wasted(&core.active, viewers, t, at),
        };
        let repeat = skipped.then(|| scheme.heat_repeat(t)).flatten();
        ss_obs::with_registry(|r| {
            r.series_row(row);
            if !repeat.is_some_and(|offset| r.heatmap_repeat(t, offset)) {
                r.heatmap_row_with(t, |row| scheme.heat_row(t, at, row));
            }
        });
    }

    /// Applies every timeline event due by `now`: updates the mask,
    /// counts the transition, queues a failed disk's rebuild, and hands
    /// the transition to the scheme.
    fn process_faults(&mut self, now: SimTime) {
        let Kernel { core, scheme } = self;
        let mut transitioned = false;
        while let Some(&ev) = core.timeline.events().get(core.fault_cursor) {
            if ev.at > now {
                break;
            }
            core.fault_cursor += 1;
            transitioned = true;
            // Each disk's failures and repairs alternate on the compiled
            // timeline, so a repair of a disk the mask holds up is one an
            // early rebuild already applied: it is spent as a no-op.
            if ev.kind == FaultKind::Repair && core.mask.count_in(ev.disk..ev.disk + 1).0 == 0 {
                continue;
            }
            core.mask.apply(&ev, now);
            let t = core.interval_index(now);
            let g = core.metrics.degraded_mut();
            let (until, drain) = match ev.kind {
                FaultKind::Fail => {
                    g.faults_injected += 1;
                    let frags = if core.rebuild.is_some() {
                        scheme.rebuild_fragments(ev.disk)
                    } else {
                        0
                    };
                    core.fail_window(ev.disk, frags, t)
                }
                FaultKind::Repair => {
                    g.repairs += 1;
                    (t, None)
                }
                FaultKind::SlowStart => {
                    g.slow_episodes += 1;
                    (core.window_end(ev.disk, FaultKind::SlowEnd), None)
                }
                FaultKind::SlowEnd => (t, None),
            };
            scheme.transition(core, &ev, t, now, until, drain);
        }
        if transitioned {
            core.reset_queue();
        }
    }

    /// Applies every rebuild completion due by `now`: the rebuilt disk
    /// re-enters service ahead of its scheduled repair (whose timeline
    /// event becomes a no-op), the scheme sees it as a repair, the
    /// drain's whole-disk rewrite lands as a journalled metadata
    /// transaction (a power loss right after the rebuild can tear it),
    /// and the early repair is counted exactly like a scheduled one — so
    /// the `faults_injected == repairs` ledger still balances.
    fn process_rebuilds(&mut self, now: SimTime) {
        let Kernel { core, scheme } = self;
        if core.pending_rebuilds.is_empty() {
            return;
        }
        let t = core.interval_index(now);
        let interval_s = core.interval.as_secs_f64();
        let mut completed = false;
        let mut i = 0;
        while i < core.pending_rebuilds.len() {
            let (disk, start, done) = core.pending_rebuilds[i];
            if done <= t {
                core.pending_rebuilds.remove(i);
                let ev = FaultEvent {
                    disk,
                    at: now,
                    kind: FaultKind::Repair,
                };
                core.mask.apply(&ev, now);
                scheme.transition(core, &ev, t, now, t, None);
                if let (Some(p), Some(ledger)) = (core.plane.as_mut(), scheme.ledger_of(disk)) {
                    p.record_rewrite(ledger);
                }
                let g = core.metrics.degraded_mut();
                g.repairs += 1;
                let h = g.self_heal_mut();
                h.rebuilds_completed += 1;
                h.rebuild_seconds += (done - start) as f64 * interval_s;
                ss_obs::obs!(ss_obs::Event::RebuildDone { disk, early: true });
                completed = true;
            } else {
                i += 1;
            }
        }
        if completed {
            core.reset_queue();
        }
    }

    /// The earliest future instant at which the next tick can do anything
    /// a quiescent tick would not — the wakeup horizon of the
    /// event-driven scheduler. Called after [`Self::tick`], so every queue
    /// reflects the just-finished interval. Returning a time `<= now`
    /// means "state may change every interval, tick densely".
    fn next_wakeup(&self, now: SimTime) -> SimTime {
        let core = &self.core;
        // A waiter inside a stream's join window retries the join (and
        // may count a prefix-cache miss) each interval.
        if core.join_retries_next(now) {
            return now;
        }
        let mut horizon = self.scheme.wakeup(core, now);
        if horizon <= now {
            return now;
        }
        // Fault events must be processed at their boundary: the mask and
        // every fault reaction hang off them.
        if let Some(at) = core.timeline.next_at(core.fault_cursor) {
            horizon = horizon.min(at);
        }
        // Rebuild completions flip disks back into service at their
        // boundary.
        let us = core.interval.as_micros();
        for &(_, _, done) in &core.pending_rebuilds {
            horizon = horizon.min(SimTime::from_micros(done * us));
        }
        // Crash events are wakeup sources of the storage plane, and so
        // are the chunk ends of a scrub walk that books bandwidth: the
        // next chunk's booking changes what admission plans against. A
        // metadata-only walk catches up at the next tick instead.
        if let Some(p) = &core.plane {
            if let Some(at) = p.next_crash_at() {
                horizon = horizon.min(at);
            }
            if let Some(end) = p.next_scrub_end().filter(|_| P::SCRUB_BOOKS_BANDWIDTH) {
                horizon = horizon.min(SimTime::from_micros(end * us));
            }
        }
        if !core.metrics.measuring() {
            horizon = horizon.min(SimTime::ZERO + core.config.warmup);
        }
        // (a) Display completions — primary and shared-viewer ends alike.
        // A primary-done entry's own `ends` is in the past and spent;
        // only its surviving viewers impose wakeups.
        if let Some(ends) = core.ends.earliest() {
            horizon = horizon.min(ends);
        }
        debug_assert_eq!(
            core.ends.earliest(),
            core.active
                .iter()
                .flat_map(|d| (!d.primary_done)
                    .then_some(d.ends)
                    .into_iter()
                    .chain(d.viewers.iter().map(|v| v.ends)))
                .min(),
            "the end heap's top is the earliest viewer end"
        );
        // (d) A busy tertiary device frees up for the next queued fetch.
        // Past the pump, a queued fetch facing a free device was refused
        // (no admissible eviction target, or every resident pinned), and
        // every input to that answer changes only at an executed tick or
        // at a wakeup counted here, so it sleeps until then.
        let free_at = core.tertiary.busy_until();
        if !core.fetch_queue.is_empty() && free_at > now {
            horizon = horizon.min(free_at);
        }
        // (e) An object in flight lands on disk: a materialization turns
        // displayable, a replica copy registers and frees its source.
        if let Some(at) = core.in_flight.earliest() {
            horizon = horizon.min(at);
        }
        // (c) The next open-system or trace arrival.
        if let Some((at, _)) = core.next_arrival {
            horizon = horizon.min(at);
        }
        if let Some(at) = core.trace.as_ref().and_then(|t| t.peek_next_at()) {
            horizon = horizon.min(at);
        }
        // (b) Closed-loop stations: staggered activation and think expiry.
        // Post-tick, a thinking station has not activated yet or is still
        // thinking: every ready one issued this tick (completions precede
        // request issue, so a zero think time re-issues the same tick).
        if core.trace.is_none() && core.open.is_none() {
            if let Some(ready) = core.stations.next_ready() {
                horizon = horizon.min(ready);
            }
            debug_assert_eq!(
                core.stations.next_ready(),
                (0..core.stations.len() as u32)
                    .map(StationId)
                    .filter(|&s| matches!(core.stations.state(s), StationState::Thinking))
                    .map(|s| core.stations.ready_from(s))
                    .min(),
                "the ready heap's top is the earliest thinking station"
            );
        }
        horizon
    }

    /// Samples every boundary strictly between the last executed tick and
    /// `now`, as a dense model would have, counting each as skipped. At a
    /// skipped boundary the active set is provably unchanged (completions
    /// are wakeup sources), so one [`ss_sim::TimeWeighted::set`] per
    /// series reproduces the dense accumulation bit-for-bit: the dense
    /// model's repeated same-timestamp sets each contribute exactly +0.0
    /// after the first. The last tick sits on a boundary, so the interval
    /// index advances by one per boundary.
    fn replay_skipped(&mut self, now: SimTime) {
        let interval = self.core.interval;
        let mut b = self.core.last_tick + interval;
        let mut t = self.core.interval_index(b);
        while b < now {
            self.sample(t, b, true);
            self.core.metrics.ticks_skipped += 1;
            b += interval;
            t += 1;
        }
    }

    /// Closes the run at `now` and assembles its report. Each optional
    /// section attaches only when it can say something the unarmed run
    /// cannot, so an unarmed run reproduces the plain report
    /// byte-for-byte.
    fn report(&mut self, now: SimTime) -> RunReport {
        let core = &mut self.core;
        if !core.timeline.is_empty() {
            core.mask.finish(now);
            let g = core.metrics.degraded_mut();
            g.disk_downtime_s = core.mask.total_downtime().as_secs_f64();
            g.max_disk_downtime_s = core.mask.max_downtime().as_secs_f64();
            g.slow_seconds = core.mask.total_slow_time().as_secs_f64();
        }
        let config = &core.config;
        let mut report = core.metrics.report(
            now,
            P::NAME,
            config.stations,
            config.popularity.tag(),
            config.seed,
            core.tertiary.utilization(now),
            self.scheme.residents() as u64,
        );
        report.parity_group = config.parity.as_ref().map(|p| p.group);
        report.rebuild_rate = config.rebuild.as_ref().map(|r| r.fragments_per_interval);
        if let Some(sh) = config.sharing {
            let mut s = core.metrics.sharing.unwrap_or_default();
            if let Some(cache) = &core.cache {
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
        // scrub daemon was armed.
        if let Some(p) = &core.plane {
            if p.fired() || p.scrub_armed() {
                report.crash = Some(p.stats.clone());
            }
        }
        // The distributed section attaches only for a multi-node topology
        // or a compiled node outage: a 1-node infinite-interconnect config
        // reproduces the single-box report.
        if let Some(ds) = &core.dist {
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

    /// Interval boundaries skipped (proved quiescent) so far.
    pub fn ticks_skipped(&self) -> u64 {
        self.core.metrics.ticks_skipped
    }

    /// The per-disk availability mask (fault-injection diagnostics).
    pub fn mask(&self) -> &AvailabilityMask {
        &self.core.mask
    }

    /// Degraded-mode counters accumulated so far (`None` when no fault
    /// has fired).
    pub fn degraded(&self) -> Option<&DegradedStats> {
        self.core.metrics.degraded.as_ref()
    }

    /// Largest failed-attempt count carried by any queued waiter
    /// (backoff diagnostics; bounded by `parity.max_retries`).
    pub fn max_waiter_attempts(&self) -> u32 {
        self.core
            .queue
            .iter()
            .map(|w| w.attempts)
            .max()
            .unwrap_or(0)
    }

    /// The queued waiters as `(object, issued µs)` pairs in queue order
    /// (backoff diagnostics: same-arrival order must survive retries).
    pub fn waiter_queue(&self) -> Vec<(ObjectId, u64)> {
        self.core
            .queue
            .iter()
            .map(|w| (w.object, w.issued.as_micros()))
            .collect()
    }

    /// Interconnect fragment·intervals booked so far (distributed
    /// diagnostics; 0 when the tier is off — the non-vacuousness probe
    /// of the cross-node equivalence sweep).
    pub fn remote_fragment_intervals(&self) -> u64 {
        self.core
            .dist
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
        let Some(dist) = self.core.dist.as_ref() else {
            return 0;
        };
        let t = self.core.interval_index(now);
        let mut demand = vec![0u64; dist.topology.nodes as usize];
        for d in &self.core.active {
            demand[d.home_node.index()] += self.scheme.remote_demand(&dist.topology, d, t);
        }
        demand
            .iter()
            .enumerate()
            .map(|(n, &need)| need.saturating_sub(dist.ledger.booked(NodeId(n as u32), t)))
            .sum()
    }

    /// The crash-plane reconciliation invariant: every metadata ledger
    /// internally consistent and the plane's object set identical to the
    /// scheme's placement. Vacuously true when the plane is off.
    pub fn storage_reconciles(&self) -> bool {
        self.core
            .plane
            .as_ref()
            .is_none_or(|p| self.scheme.reconciles(p))
    }

    /// Crash statistics accumulated so far (`None` when the plane is off).
    pub fn crash_stats(&self) -> Option<&crate::metrics::CrashStats> {
        self.core.plane.as_ref().map(|p| &p.stats)
    }

    /// Latent errors currently planted and undetected (0 when the plane
    /// is off) — scrub-coverage diagnostics.
    pub fn latent_errors(&self) -> usize {
        self.core.plane.as_ref().map_or(0, StoragePlane::latent_len)
    }
}

/// A runnable server: the kernel with scheme `P` on its interval clock
/// (see DESIGN.md §3.2).
pub struct Server<P: PlacementPolicy> {
    pub(crate) kernel: Kernel<P>,
    /// The boundary of the next tick; `None` once the deadline tick ran.
    next: Option<SimTime>,
    /// Ticks executed so far.
    ticks: u64,
}

impl<P: PlacementPolicy> Server<P> {
    /// Builds the server from a validated configuration.
    pub fn new(config: ServerConfig) -> Result<Self> {
        config.validate()?;
        Ok(Server {
            kernel: Kernel::new(config)?,
            next: Some(SimTime::ZERO),
            ticks: 0,
        })
    }

    /// Runs to the configured deadline and produces the report.
    pub fn run(mut self) -> RunReport {
        while self.step() {}
        ss_obs::obs!(ss_obs::Event::EngineStop { events: self.ticks });
        let now = self.now();
        self.kernel.report(now)
    }

    /// Access to the model (tests).
    pub fn model(&self) -> &Kernel<P> {
        &self.kernel
    }

    /// Replays the boundaries skipped since the last tick, runs the next
    /// tick and rounds the next wakeup horizon up to a boundary (the tick
    /// itself under `dense_ticks`, so no boundary is skipped). Returns
    /// false once the deadline tick has run.
    pub fn step(&mut self) -> bool {
        let Some(now) = self.next else {
            return false;
        };
        let kernel = &mut self.kernel;
        ss_obs::set_clock(now.as_micros());
        kernel.replay_skipped(now);
        kernel.tick(now);
        kernel.core.last_tick = now;
        self.ticks += 1;
        let core = &kernel.core;
        self.next = (now < core.deadline).then(|| {
            let dense = core.config.dense_ticks;
            let horizon = if dense { now } else { kernel.next_wakeup(now) };
            next_boundary(now, core.interval, horizon)
        });
        true
    }

    /// The boundary of the last executed tick (`ZERO` before the first).
    pub fn now(&self) -> SimTime {
        self.kernel.core.last_tick
    }

    /// The boundary the next [`Self::step`] ticks, after replaying every
    /// boundary skipped before it; `None` once the deadline tick ran.
    pub fn next_tick(&self) -> Option<SimTime> {
        self.next
    }
}

/// The first interval boundary strictly after `now` and at or after
/// `horizon`; a `horizon <= now` yields the next boundary.
fn next_boundary(now: SimTime, interval: SimDuration, horizon: SimTime) -> SimTime {
    let iv = interval.as_micros();
    let target = horizon.as_micros().max(now.as_micros() + 1);
    SimTime::from_micros(target.div_ceil(iv) * iv)
}

/// Staggered activation times: station `s` of `N` wakes at
/// `s/N × display_time`, so the closed loop does not start in lockstep
/// (identical display lengths would otherwise keep every station
/// synchronised forever — a measurement artifact, not a property of the
/// schemes).
fn stagger(config: &ServerConfig) -> Vec<SimTime> {
    // In u128: the product overflows before the quotient can.
    let display = u128::from(config.display_time().as_micros());
    let stations = u128::from(config.stations);
    (0..config.stations)
        .map(|s| SimTime::from_micros((display * u128::from(s) / stations) as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MaterializeMode, Scheme};
    use crate::{StripingServer, VdrServer};
    use ss_types::Error;

    /// The 20-disk test farm (10 objects × 40 subobjects, everything
    /// fits) under striping, or under VDR with clusters sized to it.
    fn small(vdr: bool, stations: u32) -> ServerConfig {
        let mut c = ServerConfig::small_test(stations, 42);
        if vdr {
            c.scheme = Scheme::Vdr {
                vdr: crate::vdr::vdr_config_for(&c),
            };
            c.materialize = MaterializeMode::AfterFull;
        }
        c
    }

    fn run(config: ServerConfig) -> RunReport {
        crate::run(&config).unwrap()
    }

    #[test]
    fn single_station_loops_displays() {
        for vdr in [false, true] {
            let cfg = small(vdr, 1);
            // Display time: 40 subobjects × 0.6048 s = 24.192 s. With a
            // fully resident database and one station, displays run back
            // to back, so the 1800 s measurement window completes ≈ 74 of
            // them, at ≈ 3600 / 24.192 ≈ 148.8 displays/hour.
            let display_s = cfg.display_time().as_secs_f64();
            assert!((display_s - 24.192).abs() < 1e-6);
            let expect = cfg.measure.as_secs_f64() / display_s;
            let report = run(cfg);
            let got = report.displays_completed as f64;
            assert!(
                (got - expect).abs() <= 2.0,
                "vdr={vdr}: expected ≈{expect} displays, got {got}"
            );
            assert!(
                (report.displays_per_hour - 148.8).abs() < 6.0,
                "vdr={vdr}: rate {}",
                report.displays_per_hour
            );
            assert!(
                report.mean_latency_s < 1.0,
                "vdr={vdr}: latency {}",
                report.mean_latency_s
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_report() {
        for vdr in [false, true] {
            assert_eq!(run(small(vdr, 4)), run(small(vdr, 4)), "vdr={vdr}");
        }
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_baseline() {
        use ss_sim::FaultPlan;
        for vdr in [false, true] {
            let baseline = run(small(vdr, 4));
            let mut cfg = small(vdr, 4);
            cfg.faults = FaultPlan {
                drop_after_hiccup_intervals: Some(50),
                ..FaultPlan::none()
            };
            assert!(cfg.faults.is_empty());
            let r = run(cfg);
            assert_eq!(baseline, r, "vdr={vdr}");
            assert!(r.degraded.is_none());
            let json = serde_json::to_string_pretty(&r).unwrap();
            assert!(
                !json.contains("degraded"),
                "vdr={vdr}: zero-fault report must not serialize a degraded section"
            );
        }
    }

    #[test]
    fn wrong_scheme_is_rejected() {
        assert!(matches!(
            StripingServer::new(small(true, 4)),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            VdrServer::new(small(false, 4)),
            Err(Error::InvalidConfig { .. })
        ));
    }

    /// Boundaries strictly between `now` and the `next` tick.
    fn skipped(now: SimTime, next: SimTime, interval: SimDuration) -> u64 {
        let iv = interval.as_micros();
        next.as_micros() / iv - now.as_micros() / iv - 1
    }

    #[test]
    fn next_boundary_covers_horizon_and_counts_skips() {
        let (s, iv) = (SimTime::from_secs, SimDuration::from_secs(10));
        // Tick 0 jumps to 40 s, covering the 35 s horizon and skipping
        // the boundaries at 10/20/30 s; afterwards the horizon is in the
        // past, so the clock degenerates to plain next-boundary ticking.
        let first = next_boundary(SimTime::ZERO, iv, s(35));
        assert_eq!(first, s(40));
        let second = next_boundary(first, iv, s(35));
        assert_eq!(second, s(50));
        assert_eq!(
            skipped(SimTime::ZERO, first, iv) + skipped(first, second, iv),
            3
        );
    }

    #[test]
    fn next_boundary_from_unaligned_now() {
        // From t = 25 s with a 10 s interval: horizon 25 s → boundary
        // 30 s, no full boundary lies strictly between.
        let (s, iv) = (SimTime::from_secs, SimDuration::from_secs(10));
        let next = next_boundary(s(25), iv, s(25));
        assert_eq!(next, s(30));
        assert_eq!(skipped(s(25), next, iv), 0);
    }

    #[test]
    fn next_boundary_exact_horizon_on_boundary() {
        // A horizon exactly on a boundary schedules that boundary itself.
        let (s, iv) = (SimTime::from_secs, SimDuration::from_secs(10));
        let next = next_boundary(SimTime::ZERO, iv, s(20));
        assert_eq!(next, s(20));
        assert_eq!(skipped(SimTime::ZERO, next, iv), 1);
    }

    /// The completion walk before the end heap, kept as the reference:
    /// it visits every position of `active`.
    fn reference_walk<X>(core: &mut ServerCore<X>, now: SimTime) {
        let t = core.interval_index(now);
        let mut i = 0;
        while i < core.active.len() {
            let object = core.active[i].object;
            let mut viewers = std::mem::take(&mut core.active[i].viewers);
            let mut v = 0;
            while v < viewers.len() {
                if viewers[v].ends <= now {
                    core.release_viewer(viewers.swap_remove(v), object, now);
                    core.record_end(object, t);
                } else {
                    v += 1;
                }
            }
            core.active[i].viewers = viewers;
            if core.active[i].ends <= now && !core.active[i].primary_done {
                let d = &mut core.active[i];
                d.primary_done = true;
                let primary = d.primary();
                core.release_viewer(primary, object, now);
                core.record_end(object, t);
            }
            if core.active[i].primary_done && core.active[i].viewers.is_empty() {
                core.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Runs `walk` over a fresh core holding `plan`'s displays — display
    /// `k` is object `k`, with a primary and shared viewers ending at the
    /// given seconds — and returns the objects left in `active` in order
    /// and the objects of the journal's `DisplayEnd`s in order.
    fn walked(
        plan: &[(u64, &[u64])],
        walk: impl FnOnce(&mut ServerCore<()>),
    ) -> (Vec<u32>, Vec<u32>) {
        let mut core = ServerCore::<()>::new(small(false, 4), 10);
        for (k, &(ends, viewers)) in plan.iter().enumerate() {
            let display = ActiveDisplay {
                station: None,
                object: ObjectId(k as u32),
                home_node: NodeId(0),
                ends: SimTime::from_secs(ends),
                delivery_start: 0,
                viewers: Vec::new(),
                primary_done: false,
                buffer_fragments: 0,
                rescued: false,
                hiccuped: false,
                ext: (),
            };
            core.open_display(display, 0, 1, 1);
            for &v in viewers {
                let viewer = SharedViewer {
                    station: None,
                    ends: SimTime::from_secs(v),
                    catchup_fragments: 0,
                    hiccuped: false,
                };
                core.add_viewer(k, viewer);
            }
        }
        let journal = ss_obs::VecRecorder::new();
        let events = journal.handle();
        ss_obs::install(Box::new(journal), ss_obs::Registry::new(Default::default()));
        walk(&mut core);
        ss_obs::uninstall();
        let events = events.lock().unwrap();
        let ends = events.iter().filter_map(|(_, ev)| match ev {
            ss_obs::Event::DisplayEnd { object, .. } => Some(*object),
            _ => None,
        });
        (
            core.active.iter().map(|d| d.object.0).collect(),
            ends.collect(),
        )
    }

    /// The walk over due positions only leaves `active` in the order,
    /// and completes viewers in the order, of the walk over every
    /// position. The hard case: the last display is due when a removal
    /// swaps it into the removed position, twice in a row, and shared
    /// viewers end at different times.
    #[test]
    fn completion_walk_replays_the_walk_over_every_position() {
        let plan: [(u64, &[u64]); 6] = [
            (10, &[]),       // done at 10 s: display 5 moves in
            (50, &[10, 30]), // one viewer ends, the display stays
            (8, &[9, 12]),   // the primary and one viewer end, it stays
            (100, &[]),      // nothing due
            (7, &[6]),       // done: display 3 moves in
            (5, &[4]),       // done after moving into position 0
        ];
        let now = SimTime::from_secs(10);
        let reference = walked(&plan, |core| reference_walk(core, now));
        assert_eq!(reference.0, [3, 1, 2]);
        assert_eq!(reference.1, [0, 5, 5, 4, 4, 1, 2, 2]);
        let mut next = None;
        let heap = walked(&plan, |core| {
            core.complete_displays(now, |_| {});
            next = core.ends.earliest();
        });
        assert_eq!(heap, reference);
        assert_eq!(next, Some(SimTime::from_secs(12)), "the earliest live end");
    }

    /// Over interleaved sends and removals, the in-flight table lands the
    /// due objects in the order they were sent (not the order they land
    /// in), a removal of an object not in flight changes nothing, and the
    /// earliest landing skips objects already landed or removed.
    #[test]
    fn in_flight_lands_in_send_order() {
        let s = SimTime::from_secs;
        let mut f = InFlight::new(8);
        f.insert(ObjectId(5), s(30));
        f.insert(ObjectId(2), s(10));
        f.insert(ObjectId(7), s(20));
        let before = (f.at.clone(), f.ids.clone());
        f.remove(ObjectId(3));
        assert_eq!((f.at.clone(), f.ids.clone()), before, "3 is not in flight");
        assert_eq!(f.earliest(), Some(s(10)));
        f.remove(ObjectId(2));
        assert_eq!((f.get(ObjectId(2)), f.earliest()), (None, Some(s(20))));
        f.insert(ObjectId(1), s(15));
        f.insert(ObjectId(2), s(25));
        let mut landed = Vec::new();
        f.land(s(25), |o| landed.push(o.0));
        assert_eq!(landed, [7, 1, 2], "send order");
        assert_eq!(f.earliest(), Some(s(30)), "landed objects are gone");
        let before = (f.at.clone(), f.ids.clone());
        f.remove(ObjectId(7));
        assert_eq!((f.at.clone(), f.ids.clone()), before, "7 has landed");
        f.land(s(29), |o| landed.push(o.0));
        assert_eq!((landed.len(), f.get(ObjectId(5))), (3, Some(s(30))));
        f.land(s(30), |o| landed.push(o.0));
        assert_eq!((landed, f.earliest()), (vec![7, 1, 2, 5], None));
    }

    #[test]
    fn zero_armed_run_attaches_no_crash_section() {
        for vdr in [false, true] {
            let report = run(small(vdr, 4));
            assert!(
                report.crash.is_none(),
                "vdr={vdr}: no plane, no crash section"
            );
        }
    }
}
