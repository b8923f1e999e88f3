//! The typed event journal: one `Event` variant per observable state
//! transition in the simulation stack.
//!
//! Events are split into a *control plane* (admission and display
//! lifecycle, emitted by the server models), a *data plane* (per-fragment
//! read bookings and handovers, emitted by the scheduling core — these
//! are what the trace exporter expands into per-(disk, interval) read
//! occupancy), and a *fault plane* (availability transitions, outage
//! windows and rebuild progress, emitted by the disk and fault layers).
//!
//! All fields are raw integers: the journal sits below `ss-types` in the
//! dependency graph so every crate can emit without a type cycle. Times
//! in event payloads are **interval indices** unless a field is suffixed
//! `_us`; the ambient record timestamp (simulation microseconds, set via
//! [`crate::set_clock`]) is attached by the recorder.

use serde::Serialize;

/// A single journal entry. See the module docs for the field
/// conventions; [`Event::write_jsonl`] renders the JSONL line the
/// line-oriented sinks write, byte-deterministic by construction
/// (integers, booleans and declaration-order keys only).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Event {
    // --- control plane: admission lifecycle -------------------------
    /// A display was admitted: `degree` fragments of `object` are booked
    /// for `subobjects` intervals each, delivery starting at interval
    /// `delivery_start` and ending at `end_interval`.
    /// `reconstructed` counts intervals served via parity
    /// reconstruction (degraded admission); `buffer` is the
    /// time-fragmentation buffer cost in fragments.
    AdmitAccept {
        /// Catalog id of the admitted object.
        object: u32,
        /// Interval the admission decision was taken at.
        interval: u64,
        /// First virtual disk of the staggered layout.
        start_disk: u32,
        /// Number of fragments read in parallel (the granted degree).
        degree: u32,
        /// Intervals each fragment is read for.
        subobjects: u64,
        /// Interval display (delivery) begins.
        delivery_start: u64,
        /// Interval the display ends.
        end_interval: u64,
        /// Buffered fragments paid for time-fragmented delivery.
        buffer: u64,
        /// Intervals covered by parity reconstruction instead of a
        /// direct read.
        reconstructed: u64,
    },
    /// An admission attempt found no feasible slot this interval: one
    /// per planned rejection. A striping waiter asleep until its plan
    /// can pass is not planned, so it emits none.
    AdmitReject {
        /// Catalog id of the rejected object.
        object: u32,
        /// Interval the attempt was made at.
        interval: u64,
    },
    /// A rejected request entered the failure-aware backoff queue and
    /// will retry at `next_attempt`.
    AdmitRetry {
        /// Catalog id of the retried object.
        object: u32,
        /// Interval the failed attempt was made at.
        interval: u64,
        /// Interval of the next scheduled attempt.
        next_attempt: u64,
    },
    /// A waiter exhausted its retries and parked until the next fault
    /// transition.
    AdmitPark {
        /// Catalog id of the parked object.
        object: u32,
        /// Interval the waiter parked at.
        interval: u64,
    },
    /// An arrival joined an in-flight shared stream instead of opening a
    /// private one. `lag` is how many intervals behind the stream's
    /// delivery start the join happened (0 = pure batching); a positive
    /// lag is replayed from the prefix cache while `buffer` catch-up
    /// fragments hold the live stream.
    SharedJoin {
        /// Catalog id of the joined stream's object.
        object: u32,
        /// Interval the join was decided at.
        interval: u64,
        /// Intervals behind the shared stream's delivery start.
        lag: u64,
        /// Catch-up buffer fragments charged for the join.
        buffer: u64,
    },
    /// The prefix cache admitted an object's leading intervals.
    CacheAdmit {
        /// Catalog id of the cached object.
        object: u32,
        /// Resident cost in buffer fragments.
        cost: u64,
    },
    /// The prefix cache evicted an object to make room.
    CacheEvict {
        /// Catalog id of the evicted object.
        object: u32,
    },
    /// A display (private, shared join, or VDR cluster start) began
    /// delivery after waiting `wait_us` simulation microseconds from
    /// arrival to delivery start — the per-stream startup-latency sample
    /// the QoS ledger folds into SLO evaluation.
    Startup {
        /// Catalog id of the started object.
        object: u32,
        /// Interval the start was decided at.
        interval: u64,
        /// Arrival-to-delivery-start wait in simulation microseconds.
        wait_us: u64,
        /// True when the start falls inside the measurement window.
        measured: bool,
    },

    // --- data plane: fragment read bookings -------------------------
    /// Fragment `frag` of `object` was booked on virtual disk `vdisk`:
    /// it reads one subobject per interval over `[base, base + subobjects)`.
    ReadSpan {
        /// Catalog id of the object being read.
        object: u32,
        /// Fragment index within the object (column of the stripe).
        frag: u32,
        /// Virtual disk the fragment is booked on.
        vdisk: u32,
        /// First interval of the read span.
        base: u64,
        /// Length of the span in intervals (subobjects read).
        subobjects: u64,
    },
    /// A coalescing or rescue handover moved the tail of a fragment's
    /// read span: subobjects `>= handover` now read from `new_vdisk` at
    /// interval `new_base + s` instead of `old_vdisk` at `old_base + s`.
    ReadMove {
        /// Catalog id of the object being read.
        object: u32,
        /// Fragment index within the object.
        frag: u32,
        /// Virtual disk the span is leaving.
        old_vdisk: u32,
        /// Virtual disk the span tail lands on.
        new_vdisk: u32,
        /// Old span base interval.
        old_base: u64,
        /// New span base interval (tail reads at `new_base + s`).
        new_base: u64,
        /// First subobject index served from the new disk.
        handover: u64,
    },
    /// Degraded admission planned `reads` parity reconstructions using
    /// `companions` surviving group members per lost interval.
    ParityPlan {
        /// Catalog id of the degraded admission's object.
        object: u32,
        /// Interval the plan was made at.
        interval: u64,
        /// Lost reads covered by reconstruction.
        reads: u64,
        /// Surviving companion fragments read per reconstruction.
        companions: u32,
    },

    // --- control plane: display lifecycle ---------------------------
    /// A display left the active set at `interval`; `measured` is true
    /// when it completed inside the measurement window.
    DisplayEnd {
        /// Catalog id of the completed object.
        object: u32,
        /// Interval the display ended at.
        interval: u64,
        /// True when counted by the measurement window.
        measured: bool,
    },
    /// A read was lost to an outage and could not be rescued: the
    /// viewer sees a hiccup for this (fragment, subobject) cell.
    Hiccup {
        /// Catalog id of the hiccuping object.
        object: u32,
        /// Fragment whose read was lost.
        frag: u32,
        /// Subobject index that was due.
        subobject: u64,
        /// Interval the loss occurred at.
        interval: u64,
        /// Physical disk that was down.
        disk: u32,
        /// Dependent shared viewers starved alongside the primary (0
        /// for a private stream): the report charges `1 + viewers`
        /// hiccup intervals for this loss.
        viewers: u64,
    },
    /// A display accumulated too many hiccups and was dropped.
    DisplayDrop {
        /// Catalog id of the dropped object.
        object: u32,
        /// Interval the drop was decided at.
        interval: u64,
        /// Hiccup intervals absorbed before the drop.
        hiccups: u64,
    },
    /// A rescue relocated a fragment's remaining reads off a failed
    /// disk (successful `ReadMove` follows with the span arithmetic).
    Rescue {
        /// Catalog id of the rescued object.
        object: u32,
        /// Fragment that was relocated.
        frag: u32,
        /// Interval the rescue was applied at.
        interval: u64,
    },
    /// Dynamic coalescing (Algorithm 2) moved a fragment to free
    /// `saving` buffered fragments.
    Coalesce {
        /// Catalog id of the coalesced object.
        object: u32,
        /// Fragment that was handed over.
        frag: u32,
        /// Buffer fragments released by the move.
        saving: u64,
    },

    // --- fault plane -------------------------------------------------
    /// A fault timeline finished compiling with `events` transitions.
    FaultTimeline {
        /// Total fault transitions in the compiled timeline.
        events: u64,
    },
    /// A disk failed (left service).
    DiskFail {
        /// Physical disk id.
        disk: u32,
    },
    /// A disk re-entered service.
    DiskRepair {
        /// Physical disk id.
        disk: u32,
    },
    /// A disk entered its degraded-bandwidth window.
    DiskSlowStart {
        /// Physical disk id.
        disk: u32,
    },
    /// A disk left its degraded-bandwidth window.
    DiskSlowEnd {
        /// Physical disk id.
        disk: u32,
    },
    /// The admission planner registered an outage window for a disk.
    OutageAdded {
        /// Physical disk id the outage covers.
        disk: u32,
        /// First interval of the outage.
        from: u64,
        /// First interval after the outage (`u64::MAX` = open-ended).
        until: u64,
    },
    /// A failed disk's fragments were queued for hot-spare rebuild.
    RebuildQueued {
        /// Physical disk id being rebuilt.
        disk: u32,
        /// Fragments to drain onto the spare.
        fragments: u64,
        /// Interval the drain completes at.
        done: u64,
    },
    /// A rebuild drained its spare; `early` is true when this completed
    /// ahead of the scheduled repair and re-admitted the disk.
    RebuildDone {
        /// Physical disk id that finished rebuilding.
        disk: u32,
        /// True when the disk re-entered service early.
        early: bool,
    },

    // --- crash plane --------------------------------------------------
    /// A disk's controller lost power mid-transaction: the journal is
    /// cut at a deterministic phase and recovery runs immediately.
    PowerLoss {
        /// Physical disk (striping) or cluster (VDR) that lost power.
        disk: u32,
    },
    /// A write was torn in place, planting a latent error the scrub (or
    /// a later recovery) must find.
    TornWrite {
        /// Physical disk (striping) or cluster (VDR) with the torn slot.
        disk: u32,
    },
    /// Journal recovery finished on a disk: `replayed` committed
    /// transactions were reapplied, `discarded` uncommitted ones rolled
    /// back, `orphans` data extents swept; `clean` is the post-recovery
    /// invariant verdict (bitmap ≡ extent index ≡ free index).
    CrashRecovery {
        /// Physical disk (striping) or cluster (VDR) that recovered.
        disk: u32,
        /// Committed transactions replayed.
        replayed: u64,
        /// Uncommitted transactions rolled back.
        discarded: u64,
        /// Orphaned extents swept.
        orphans: u64,
        /// True when the reconciliation invariant held afterwards.
        clean: bool,
    },
    /// The scrub daemon verified `fragments` allocated fragments on a
    /// disk, finding `found` latent errors.
    ScrubChunk {
        /// Physical disk (striping) or cluster (VDR) being scrubbed.
        disk: u32,
        /// Fragments verified in this chunk.
        fragments: u64,
        /// Latent errors detected in this chunk.
        found: u64,
    },
    /// A latent error was repaired (`parity` true = in-place parity
    /// reconstruction; false = evict-and-refetch / replica resync).
    ScrubRepair {
        /// Physical disk (striping) or cluster (VDR) repaired.
        disk: u32,
        /// Catalog id of the object whose slot was repaired.
        object: u32,
        /// True when parity reconstructed the slot in place.
        parity: bool,
    },

    // --- distributed plane -------------------------------------------
    /// The front-end router assigned a display a home node.
    RouteAssign {
        /// Catalog id of the routed object.
        object: u32,
        /// Home node chosen for the display.
        node: u32,
        /// Interval the routing decision was made at.
        interval: u64,
    },
    /// A node outage was expanded into per-disk failures on the fault
    /// timeline (one event per outage window at compile time).
    NodeOutageCompiled {
        /// The failing node.
        node: u32,
        /// Number of correlated disk failures the outage compiled into.
        disks: u32,
    },
    /// An interconnect booking committed `fragments_per_interval` link
    /// fragments on `node`'s ingress over `[from, until)` — the
    /// per-node link-utilization counter source for the Perfetto
    /// exporter and health rollups.
    LinkBook {
        /// Home node whose ingress link was booked.
        node: u32,
        /// First interval of the booked span.
        from: u64,
        /// First interval after the booked span.
        until: u64,
        /// Link fragments booked per interval across the span.
        fragments: u64,
    },

    // --- VDR cluster plane -------------------------------------------
    /// A VDR display started on `cluster` (occupying all its disks).
    ClusterDisplayStart {
        /// Catalog id of the displayed object.
        object: u32,
        /// Cluster serving the display.
        cluster: u32,
        /// Interval the display starts at.
        interval: u64,
        /// Interval the display ends at.
        end_interval: u64,
    },
    /// A VDR inter-cluster (or tertiary) copy started onto `cluster`,
    /// finishing at `until_us` simulation microseconds.
    ClusterCopyStart {
        /// Catalog id of the object being copied.
        object: u32,
        /// Target cluster receiving the replica.
        cluster: u32,
        /// Simulation time the copy completes, in microseconds.
        until_us: u64,
    },
    /// A VDR display was relocated from a failed cluster to a survivor
    /// holding a replica.
    ClusterRescue {
        /// Catalog id of the rescued object.
        object: u32,
        /// Cluster that failed.
        from_cluster: u32,
        /// Cluster that took the display over.
        to_cluster: u32,
    },

    // --- SLO plane -----------------------------------------------------
    /// The SLO evaluator flagged a breach: objective `slo` exceeded its
    /// error budget over the window `[from, until)` intervals with the
    /// given burn rates (hundredths of the budget rate; 100 = burning
    /// exactly at budget). Appended to the journal by the offline
    /// evaluator, never by the live models.
    SloBreach {
        /// Index of the breached objective in the evaluated spec list.
        slo: u32,
        /// First interval of the breaching window.
        from: u64,
        /// First interval after the breaching window.
        until: u64,
        /// Fast-window burn rate in hundredths (100 = at budget).
        fast_burn: u64,
        /// Slow-window burn rate in hundredths (100 = at budget).
        slow_burn: u64,
    },

    // --- engine -------------------------------------------------------
    /// The run reached its deadline tick.
    EngineStop {
        /// Interval ticks executed over the whole run; boundaries the
        /// clock skipped as quiescent are not counted.
        events: u64,
    },
}

impl Event {
    /// Short stable kind tag, used as the JSONL `"k"` field and for
    /// reconciliation counting in tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::AdmitAccept { .. } => "admit_accept",
            Event::AdmitReject { .. } => "admit_reject",
            Event::AdmitRetry { .. } => "admit_retry",
            Event::AdmitPark { .. } => "admit_park",
            Event::SharedJoin { .. } => "shared_join",
            Event::CacheAdmit { .. } => "cache_admit",
            Event::CacheEvict { .. } => "cache_evict",
            Event::Startup { .. } => "startup",
            Event::ReadSpan { .. } => "read_span",
            Event::ReadMove { .. } => "read_move",
            Event::ParityPlan { .. } => "parity_plan",
            Event::DisplayEnd { .. } => "display_end",
            Event::Hiccup { .. } => "hiccup",
            Event::DisplayDrop { .. } => "display_drop",
            Event::Rescue { .. } => "rescue",
            Event::Coalesce { .. } => "coalesce",
            Event::FaultTimeline { .. } => "fault_timeline",
            Event::DiskFail { .. } => "disk_fail",
            Event::DiskRepair { .. } => "disk_repair",
            Event::DiskSlowStart { .. } => "disk_slow_start",
            Event::DiskSlowEnd { .. } => "disk_slow_end",
            Event::OutageAdded { .. } => "outage_added",
            Event::RebuildQueued { .. } => "rebuild_queued",
            Event::RebuildDone { .. } => "rebuild_done",
            Event::PowerLoss { .. } => "power_loss",
            Event::TornWrite { .. } => "torn_write",
            Event::CrashRecovery { .. } => "crash_recovery",
            Event::ScrubChunk { .. } => "scrub_chunk",
            Event::ScrubRepair { .. } => "scrub_repair",
            Event::RouteAssign { .. } => "route_assign",
            Event::NodeOutageCompiled { .. } => "node_outage_compiled",
            Event::LinkBook { .. } => "link_book",
            Event::SloBreach { .. } => "slo_breach",
            Event::ClusterDisplayStart { .. } => "cluster_display_start",
            Event::ClusterCopyStart { .. } => "cluster_copy_start",
            Event::ClusterRescue { .. } => "cluster_rescue",
            Event::EngineStop { .. } => "engine_stop",
        }
    }

    /// Renders the one-line JSON journal record for this event stamped
    /// at simulation time `at` (microseconds), without the trailing
    /// newline: `"t"` and `"k"` (the [`Event::kind`]), then the
    /// variant's fields in declaration order. Every field is an integer
    /// or a boolean, so equal events render to equal bytes.
    pub fn write_jsonl(&self, at: u64, out: &mut String) {
        use serde::Value;
        use std::fmt::Write;
        write!(out, "{{\"t\":{at},\"k\":\"{}\"", self.kind()).expect("write to String");
        // A struct variant serializes as `{name: {field: value, ...}}`.
        let Value::Map(mut variant) = self.to_value() else {
            unreachable!("an enum variant serializes as a map")
        };
        let Some((_, Value::Map(fields))) = variant.pop() else {
            unreachable!("every event variant has named fields")
        };
        for (name, value) in fields {
            match value {
                Value::U64(n) => write!(out, ",\"{name}\":{n}"),
                Value::Bool(b) => write!(out, ",\"{name}\":{b}"),
                other => unreachable!("event field `{name}` is {other:?}"),
            }
            .expect("write to String");
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_stable_and_tagged() {
        let ev = Event::ReadSpan {
            object: 7,
            frag: 2,
            vdisk: 11,
            base: 40,
            subobjects: 12,
        };
        let line = |ev: &Event| {
            let mut s = String::new();
            ev.write_jsonl(123, &mut s);
            s
        };
        assert_eq!(
            line(&ev),
            "{\"t\":123,\"k\":\"read_span\",\"object\":7,\"frag\":2,\"vdisk\":11,\
             \"base\":40,\"subobjects\":12}"
        );
        assert_eq!(ev.kind(), "read_span");
        // Equal events render to equal bytes.
        assert_eq!(line(&ev), line(&ev.clone()));
    }
}
