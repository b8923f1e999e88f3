//! Run reports: the measurements Figure 8 and Table 4 are built from.

use serde::{Deserialize, Serialize};
use ss_sim::{Counter, Histogram, Tally, TimeWeighted};
use ss_types::{SimDuration, SimTime};

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scheme label ("striping" / "vdr").
    pub scheme: String,
    /// Number of display stations.
    pub stations: u32,
    /// Popularity description (e.g. "geom(20)").
    pub popularity: String,
    /// RNG seed used.
    pub seed: u64,
    /// Displays completed during the measurement window.
    pub displays_completed: u64,
    /// The headline number of Figure 8: completed displays per simulated
    /// hour.
    pub displays_per_hour: f64,
    /// Mean latency from request issue to display start, seconds.
    pub mean_latency_s: f64,
    /// Median latency, seconds (histogram estimate).
    pub p50_latency_s: f64,
    /// 95th-percentile latency, seconds (histogram estimate).
    pub p95_latency_s: f64,
    /// Max observed latency, seconds.
    pub max_latency_s: f64,
    /// Mean fraction of disk (or cluster) capacity committed.
    pub disk_utilization: f64,
    /// Tertiary device utilisation.
    pub tertiary_utilization: f64,
    /// Requests that had to touch the tertiary device.
    pub tertiary_fetches: u64,
    /// Distinct objects disk resident at the end of the run.
    pub unique_residents: u64,
    /// Mean number of concurrently active displays.
    pub mean_active_displays: f64,
    /// High-water mark of fragment-sized delivery buffers held by
    /// time-fragmented displays (0 under contiguous admission; §3.2.1).
    pub peak_buffer_fragments: u64,
    /// Dynamic-coalescing handovers performed (fragment migrations onto
    /// freed disks; §3.2.1 / Algorithm 2).
    pub coalesces: u64,
    /// Simulated seconds measured (after warm-up).
    pub measured_seconds: f64,
    /// Degraded-mode statistics. `Some` exactly when the run injected
    /// faults; omitted from the serialized report otherwise, so fault-free
    /// reports stay byte-identical to the pre-fault-injection goldens.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub degraded: Option<DegradedStats>,
    /// Parity group size the run was configured with (reports are
    /// self-describing artifacts; omitted — and the report byte-identical
    /// to pre-parity goldens — when parity is off).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parity_group: Option<u32>,
    /// Hot-spare rebuild rate (fragments per interval) the run was
    /// configured with; omitted when rebuild is off.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rebuild_rate: Option<u64>,
    /// Stream-sharing statistics. `Some` exactly when the run was
    /// configured with `sharing`; omitted otherwise, so zero-sharing
    /// reports stay byte-identical to the pre-sharing goldens.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sharing: Option<SharingStats>,
    /// Distributed-farm statistics. `Some` exactly when the run was
    /// configured with more than one node or any node outage; omitted
    /// otherwise — in particular a 1-node infinite-interconnect run
    /// serializes byte-identically to the single-box run (the
    /// equivalence `distributed_equivalence` pins).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub distributed: Option<DistributedStats>,
    /// Crash-consistency statistics: journaled metadata, power-loss /
    /// torn-write recovery, and the scrub daemon. `Some` exactly when a
    /// crash event fired or a scrub was configured; omitted otherwise,
    /// so crash-free runs stay byte-identical to the existing goldens.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub crash: Option<CrashStats>,
}

/// How the crash-consistent storage plane performed: the journal /
/// recovery / scrub section of a [`RunReport`]. Whole-run numbers (they
/// survive the warm-up reset, like `peak_buffer_fragments`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrashStats {
    /// Power-loss events injected.
    pub power_loss_events: u64,
    /// Torn-write events injected (each plants one latent error).
    pub torn_write_events: u64,
    /// Metadata transactions journaled (allocations, frees, rebuild
    /// rewrites) across all disks.
    pub txns_journaled: u64,
    /// Committed transactions replayed during recovery.
    pub txns_replayed: u64,
    /// Uncommitted transactions rolled back during recovery.
    pub txns_discarded: u64,
    /// Recovery passes run (one per power-loss event).
    pub recoveries: u64,
    /// Recovery passes whose post-recovery invariant check (bitmap ≡
    /// extent index ≡ free index) came back clean.
    pub recoveries_clean: u64,
    /// Objects whose allocation was rolled back and had to be refetched
    /// from tertiary (striping) or re-replicated (VDR).
    pub objects_refetched: u64,
    /// Orphaned data extents swept by recovery (data written, commit
    /// record lost).
    pub orphans_swept: u64,
    /// Latent errors planted (torn writes plus rolled-back rewrites).
    pub latent_injected: u64,
    /// Latent errors the scrub daemon found.
    pub latent_found: u64,
    /// Latent errors repaired (parity reconstruction in place, or
    /// evict-and-refetch without parity).
    pub latent_repaired: u64,
    /// Σ dwell time of found latent errors (injection → detection),
    /// simulated seconds.
    pub latent_dwell_s: f64,
    /// Scrub chunks issued (each books verification bandwidth for one
    /// interval on one disk).
    pub scrub_chunks: u64,
    /// Complete scrub passes over the whole farm.
    pub scrub_passes: u64,
    /// Σ fragments verified by the scrub.
    pub scrub_fragment_intervals: u64,
    /// Virtual-disk intervals the scrub stole from normal service (its
    /// interference with foreground admissions; striping only — the VDR
    /// scrub is a metadata-plane walk).
    pub scrub_interference_intervals: u64,
    /// Configured scrub rate (fragments per interval; self-description,
    /// 0 when no scrub was configured).
    pub scrub_rate: u64,
}

/// How the distributed tier performed: the node-routing and interconnect
/// section of a [`RunReport`]. Whole-run numbers (they survive the
/// warm-up reset, like `peak_buffer_fragments`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DistributedStats {
    /// Number of storage nodes (self-description).
    pub nodes: u32,
    /// Disks owned by each node (self-description).
    pub disks_per_node: u32,
    /// Displays routed to each node as their home, in node order.
    pub displays_routed: Vec<u64>,
    /// Σ fragments × intervals that crossed the interconnect (remote
    /// reads booked on home-node links).
    pub remote_fragment_intervals: u64,
    /// Highest single-link single-interval load booked, fragments.
    pub peak_link_fragments: u64,
    /// Admissions refused because a link or the switch was full.
    pub interconnect_rejections: u64,
    /// Σ extra buffer fragments billed for interconnect-latency
    /// prefetching of remote reads.
    pub latency_buffer_fragments: u64,
    /// Node outage windows compiled into the fault timeline.
    pub node_outages: u32,
}

/// How the stream-sharing layer performed: the multicast-batching and
/// prefix-cache section of a [`RunReport`]. Whole-run numbers (like
/// `peak_buffer_fragments`, they survive the warm-up reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SharingStats {
    /// Disk streams opened (each books its reads exactly once,
    /// regardless of how many viewers it fans out to).
    pub streams_opened: u64,
    /// Viewers that joined an existing stream instead of opening one.
    pub viewers_joined: u64,
    /// Joins at lag 0 (same delivery start; pure batching, no catch-up
    /// buffer).
    pub batched_joins: u64,
    /// Joins at lag > 0, served from the prefix cache while the viewer
    /// catches up to the shared stream.
    pub patched_joins: u64,
    /// Prefix-cache lookups that found the prefix resident.
    pub cache_hits: u64,
    /// Prefix-cache lookups that missed (the arrival opened or queued
    /// for a private stream instead).
    pub cache_misses: u64,
    /// Objects admitted into the prefix cache.
    pub cache_insertions: u64,
    /// Objects evicted from the prefix cache.
    pub cache_evictions: u64,
    /// High-water mark of catch-up buffers held by patched joiners
    /// (fragments; on top of `peak_buffer_fragments`'s delivery buffers).
    pub peak_catchup_fragments: u64,
    /// Configured prefix-cache budget, fragments (self-description).
    pub cache_budget_fragments: u64,
    /// Configured prefix length, intervals (self-description).
    pub prefix_intervals: u64,
    /// Configured batching window, intervals (self-description).
    pub batch_window: u64,
}

/// What went wrong and how the server coped: the degraded-mode section of
/// a [`RunReport`]. All numbers are whole-run (faults during warm-up are
/// counted too — an outage straddling the warm-up boundary is still one
/// outage), matching `peak_buffer_fragments`'s convention.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradedStats {
    /// Disk failures injected.
    pub faults_injected: u64,
    /// Repairs completed.
    pub repairs: u64,
    /// Transient slow-disk episodes started.
    pub slow_episodes: u64,
    /// Fragment handovers performed by the rescue path (striping) or
    /// replica fallbacks (VDR) — each moved in-flight work off a failed
    /// disk without the viewer noticing.
    pub rescues: u64,
    /// Distinct streams rescued at least once.
    pub streams_rescued: u64,
    /// Σ over rescues of the buffer fragments the rescued stream keeps
    /// holding afterwards (the price of surviving the outage).
    pub rescue_buffer_overhead: u64,
    /// Distinct streams that suffered at least one hiccup.
    pub hiccup_streams: u64,
    /// Delivery intervals lost to hiccups, across all streams.
    pub hiccup_intervals: u64,
    /// The same, in simulated seconds.
    pub hiccup_seconds: f64,
    /// Streams dropped after exceeding the plan's hiccup budget.
    pub streams_dropped: u64,
    /// Σ per-disk downtime, simulated seconds.
    pub disk_downtime_s: f64,
    /// Largest single-disk downtime, simulated seconds.
    pub max_disk_downtime_s: f64,
    /// Σ per-disk slow-episode time, simulated seconds.
    pub slow_seconds: f64,
    /// Parity-reconstruction, backoff-queue, and hot-spare-rebuild
    /// counters. `None` until any self-healing machinery engages, so
    /// parity-off reports serialize byte-identically to the pre-parity
    /// goldens (the vendored serde derive omits only `None` fields).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub self_heal: Option<SelfHealStats>,
}

impl DegradedStats {
    /// The self-healing section, created on first touch.
    pub fn self_heal_mut(&mut self) -> &mut SelfHealStats {
        self.self_heal.get_or_insert_with(Default::default)
    }
}

/// How the self-healing pipeline performed: the parity / backoff / rebuild
/// section of [`DegradedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SelfHealStats {
    /// Displays admitted through the degraded (parity-reconstruction)
    /// path while a disk was down.
    pub degraded_admissions: u64,
    /// (fragment, interval) reads served by parity-group reconstruction
    /// instead of a failed disk.
    pub reconstructed_reads: u64,
    /// Companion-disk intervals booked to fetch parity for reconstruction
    /// (the bandwidth overhead of degraded service).
    pub parity_overhead_intervals: u64,
    /// Admission re-attempts scheduled by the outage backoff queue.
    pub backoff_retries: u64,
    /// Requests that exhausted their retry budget and parked until the
    /// next fault transition.
    pub backoff_exhausted: u64,
    /// Hot-spare rebuilds completed (the disk re-entered service before
    /// its scheduled repair).
    pub rebuilds_completed: u64,
    /// Σ rebuild drain time, simulated seconds.
    pub rebuild_seconds: f64,
    /// Virtual-disk intervals the rebuild drain stole from normal service
    /// (its interference with foreground admissions).
    pub rebuild_interference_intervals: u64,
}

/// The statistics a server accumulates while running; converted into a
/// [`RunReport`] at the end.
#[derive(Debug)]
pub struct MetricsCollector {
    /// Completed displays (measurement window only).
    pub completions: Counter,
    /// Request-issue → display-start latency, seconds.
    pub latency: Tally,
    /// Latency distribution (seconds; covers 0..86400 s, i.e. a full
    /// simulated day — far beyond any sane startup delay).
    pub latency_hist: Histogram,
    /// Committed-capacity fraction over time.
    pub utilization: TimeWeighted,
    /// Concurrently active displays over time.
    pub active: TimeWeighted,
    /// Requests that required a tertiary fetch.
    pub tertiary_fetches: u64,
    /// Peak delivery-buffer occupancy (fragments).
    pub peak_buffer_fragments: u64,
    /// Dynamic-coalescing handovers performed.
    pub coalesces: u64,
    /// Interval boundaries the event-driven scheduler proved quiescent and
    /// never ticked (their metric contributions were replayed instead).
    /// Whole-run diagnostic: like `peak_buffer_fragments` it survives the
    /// warm-up reset, and it is deliberately absent from [`RunReport`] so
    /// dense and sparse runs stay byte-identical.
    pub ticks_skipped: u64,
    /// Degraded-mode statistics, allocated only when the run injects
    /// faults. Whole-run numbers: they survive the warm-up reset.
    pub degraded: Option<DegradedStats>,
    /// Stream-sharing statistics, allocated only when sharing is
    /// configured. Whole-run numbers: they survive the warm-up reset.
    pub sharing: Option<SharingStats>,
    measure_start: SimTime,
    in_measurement: bool,
}

impl MetricsCollector {
    /// A collector that starts in the warm-up phase.
    pub fn new() -> Self {
        MetricsCollector {
            completions: Counter::new(SimTime::ZERO),
            latency: Tally::new(),
            latency_hist: Histogram::new(86_400.0, 86_400),
            utilization: TimeWeighted::new(SimTime::ZERO, 0.0),
            active: TimeWeighted::new(SimTime::ZERO, 0.0),
            tertiary_fetches: 0,
            peak_buffer_fragments: 0,
            coalesces: 0,
            ticks_skipped: 0,
            degraded: None,
            sharing: None,
            measure_start: SimTime::ZERO,
            in_measurement: false,
        }
    }

    /// The degraded-mode stats, allocating them on first use. Models call
    /// this only on fault paths, so a fault-free run keeps `None` and its
    /// report serializes without a degraded section.
    pub fn degraded_mut(&mut self) -> &mut DegradedStats {
        self.degraded.get_or_insert_with(DegradedStats::default)
    }

    /// The stream-sharing stats, allocated on first use. Models call this
    /// only when `sharing` is configured, so an unshared run keeps `None`
    /// and its report serializes without a sharing section.
    pub fn sharing_mut(&mut self) -> &mut SharingStats {
        self.sharing.get_or_insert_with(SharingStats::default)
    }

    /// Ends the warm-up: clears counters and starts the measurement
    /// window at `now`.
    pub fn start_measurement(&mut self, now: SimTime) {
        self.completions.reset(now);
        self.latency = Tally::new();
        self.latency_hist = Histogram::new(86_400.0, 86_400);
        self.utilization.reset(now);
        self.active.reset(now);
        self.tertiary_fetches = 0;
        // The buffer peak is an architectural sizing number, not a rate:
        // it deliberately survives the warm-up reset.
        self.measure_start = now;
        self.in_measurement = true;
    }

    /// True once the measurement window is active.
    pub fn measuring(&self) -> bool {
        self.in_measurement
    }

    /// Records a completed display.
    pub fn record_completion(&mut self) {
        self.completions.incr();
    }

    /// Records a request's startup latency.
    pub fn record_latency(&mut self, waited: SimDuration) {
        let secs = waited.as_secs_f64();
        self.latency.record(secs);
        self.latency_hist.record(secs.min(86_399.0));
    }

    /// Records a tertiary fetch.
    pub fn record_tertiary_fetch(&mut self) {
        if self.in_measurement {
            self.tertiary_fetches += 1;
        }
    }

    /// One interval-boundary sample of the two time-weighted series both
    /// server models maintain (committed capacity and concurrently
    /// active displays).
    pub fn sample_boundary(&mut self, at: SimTime, active: f64, utilization: f64) {
        self.active.set(at, active);
        self.utilization.set(at, utilization);
    }

    /// Builds the final report at `now`.
    #[allow(clippy::too_many_arguments)]
    pub fn report(
        &self,
        now: SimTime,
        scheme: &str,
        stations: u32,
        popularity: String,
        seed: u64,
        tertiary_utilization: f64,
        unique_residents: u64,
    ) -> RunReport {
        RunReport {
            scheme: scheme.to_string(),
            stations,
            popularity,
            seed,
            displays_completed: self.completions.count(),
            displays_per_hour: self.completions.per_hour(now),
            mean_latency_s: self.latency.mean(),
            p50_latency_s: self.latency_hist.quantile(0.5).unwrap_or(0.0),
            p95_latency_s: self.latency_hist.quantile(0.95).unwrap_or(0.0),
            max_latency_s: self.latency.max().unwrap_or(0.0),
            disk_utilization: self.utilization.mean(now),
            tertiary_utilization,
            tertiary_fetches: self.tertiary_fetches,
            unique_residents,
            mean_active_displays: self.active.mean(now),
            peak_buffer_fragments: self.peak_buffer_fragments,
            coalesces: self.coalesces,
            measured_seconds: now.duration_since(self.measure_start).as_secs_f64(),
            degraded: self.degraded.clone(),
            parity_group: None,
            rebuild_rate: None,
            sharing: self.sharing,
            distributed: None,
            crash: None,
        }
    }
}

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// Formats a slice of reports as an aligned text table (one row per run).
pub fn format_table(reports: &[RunReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>8} {:>12} {:>12} {:>10} {:>10} {:>9} {:>10}\n",
        "scheme",
        "stations",
        "popularity",
        "disp/hour",
        "latency_s",
        "disk_util",
        "residents",
        "t_fetches"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<10} {:>8} {:>12} {:>12.1} {:>10.1} {:>10.3} {:>9} {:>10}\n",
            r.scheme,
            r.stations,
            r.popularity,
            r.displays_per_hour,
            r.mean_latency_s,
            r.disk_utilization,
            r.unique_residents,
            r.tertiary_fetches,
        ));
    }
    out
}

/// Formats the degraded-mode sections of `reports` as an aligned table
/// (runs without a degraded section are skipped).
pub fn format_degraded(reports: &[RunReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>8} {:>12} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "scheme",
        "stations",
        "popularity",
        "faults",
        "rescues",
        "hiccups",
        "hic_s",
        "dropped",
        "ovh_frag",
        "downtime_s"
    ));
    for r in reports {
        let Some(d) = &r.degraded else { continue };
        out.push_str(&format!(
            "{:<10} {:>8} {:>12} {:>7} {:>8} {:>8} {:>8.1} {:>8} {:>8} {:>10.1}\n",
            r.scheme,
            r.stations,
            r.popularity,
            d.faults_injected,
            d.rescues,
            d.hiccup_intervals,
            d.hiccup_seconds,
            d.streams_dropped,
            d.rescue_buffer_overhead,
            d.disk_downtime_s,
        ));
    }
    out
}

/// Serialises reports as CSV.
pub fn to_csv(reports: &[RunReport]) -> String {
    let mut out = String::from(
        "scheme,stations,popularity,seed,displays_completed,displays_per_hour,\
         mean_latency_s,p50_latency_s,p95_latency_s,max_latency_s,\
         disk_utilization,tertiary_utilization,\
         tertiary_fetches,unique_residents,mean_active_displays,\
         peak_buffer_fragments,coalesces,measured_seconds\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.6},{:.6},{},{},{:.4},{},{},{:.1}\n",
            r.scheme,
            r.stations,
            r.popularity,
            r.seed,
            r.displays_completed,
            r.displays_per_hour,
            r.mean_latency_s,
            r.p50_latency_s,
            r.p95_latency_s,
            r.max_latency_s,
            r.disk_utilization,
            r.tertiary_utilization,
            r.tertiary_fetches,
            r.unique_residents,
            r.mean_active_displays,
            r.peak_buffer_fragments,
            r.coalesces,
            r.measured_seconds,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn collector_measures_only_after_warmup() {
        let mut m = MetricsCollector::new();
        m.record_completion();
        m.record_completion();
        m.record_tertiary_fetch(); // ignored during warm-up
        m.start_measurement(t(3600));
        assert_eq!(m.completions.count(), 0);
        assert_eq!(m.tertiary_fetches, 0);
        for _ in 0..100 {
            m.record_completion();
        }
        m.record_tertiary_fetch();
        let r = m.report(t(7200), "striping", 16, "geom(10)".into(), 7, 0.5, 42);
        assert_eq!(r.displays_completed, 100);
        assert_eq!(r.displays_per_hour, 100.0);
        assert_eq!(r.tertiary_fetches, 1);
        assert_eq!(r.unique_residents, 42);
        assert_eq!(r.measured_seconds, 3600.0);
    }

    #[test]
    fn latency_statistics() {
        let mut m = MetricsCollector::new();
        m.start_measurement(t(0));
        m.record_latency(SimDuration::from_secs(1));
        m.record_latency(SimDuration::from_secs(3));
        let r = m.report(t(10), "vdr", 1, "uniform".into(), 0, 0.0, 0);
        assert_eq!(r.mean_latency_s, 2.0);
        assert_eq!(r.max_latency_s, 3.0);
        assert!(r.p50_latency_s >= 1.0 && r.p50_latency_s <= 3.1);
        assert!(r.p95_latency_s >= r.p50_latency_s);
    }

    #[test]
    fn table_and_csv_render() {
        let mut m = MetricsCollector::new();
        m.start_measurement(t(0));
        m.record_completion();
        let r = m.report(t(3600), "striping", 8, "geom(20)".into(), 3, 0.1, 5);
        let table = format_table(std::slice::from_ref(&r));
        assert!(table.contains("striping"));
        assert!(table.contains("geom(20)"));
        let csv = to_csv(&[r]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("striping,8,geom(20),3,1,"));
    }

    #[test]
    fn degraded_section_is_omitted_from_json_when_absent() {
        let mut m = MetricsCollector::new();
        m.start_measurement(t(0));
        let clean = m.report(t(3600), "striping", 8, "geom(20)".into(), 3, 0.1, 5);
        let json = serde_json::to_string(&clean).unwrap();
        assert!(
            !json.contains("degraded"),
            "fault-free report must serialize without a degraded key: {json}"
        );
        // Round-trips back to None.
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.degraded, None);
        assert_eq!(back, clean);

        m.degraded_mut().faults_injected = 2;
        m.degraded_mut().hiccup_intervals = 7;
        let faulty = m.report(t(3600), "striping", 8, "geom(20)".into(), 3, 0.1, 5);
        let json = serde_json::to_string(&faulty).unwrap();
        assert!(json.contains("degraded"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.degraded.as_ref().unwrap().faults_injected, 2);
        assert_eq!(back, faulty);
    }

    #[test]
    fn sharing_section_is_omitted_from_json_when_absent() {
        let mut m = MetricsCollector::new();
        m.start_measurement(t(0));
        let unshared = m.report(t(3600), "striping", 8, "geom(20)".into(), 3, 0.1, 5);
        let json = serde_json::to_string(&unshared).unwrap();
        assert!(
            !json.contains("sharing"),
            "unshared report must serialize without a sharing key: {json}"
        );
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, unshared);

        m.sharing_mut().streams_opened = 3;
        m.sharing_mut().viewers_joined = 12;
        let shared = m.report(t(3600), "striping", 8, "geom(20)".into(), 3, 0.1, 5);
        let json = serde_json::to_string(&shared).unwrap();
        assert!(json.contains("sharing"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sharing.unwrap().viewers_joined, 12);
        assert_eq!(back, shared);
    }

    #[test]
    fn distributed_section_is_omitted_from_json_when_absent() {
        let mut m = MetricsCollector::new();
        m.start_measurement(t(0));
        let single = m.report(t(3600), "striping", 8, "geom(20)".into(), 3, 0.1, 5);
        let json = serde_json::to_string(&single).unwrap();
        assert!(
            !json.contains("distributed"),
            "single-box report must serialize without a distributed key: {json}"
        );
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, single);

        let mut multi = single.clone();
        multi.distributed = Some(DistributedStats {
            nodes: 4,
            disks_per_node: 5,
            displays_routed: vec![3, 2, 2, 1],
            remote_fragment_intervals: 40,
            ..DistributedStats::default()
        });
        let json = serde_json::to_string(&multi).unwrap();
        assert!(json.contains("distributed"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.distributed.as_ref().unwrap().nodes, 4);
        assert_eq!(back, multi);
    }

    #[test]
    fn crash_section_is_omitted_from_json_when_absent() {
        let mut m = MetricsCollector::new();
        m.start_measurement(t(0));
        let clean = m.report(t(3600), "striping", 8, "geom(20)".into(), 3, 0.1, 5);
        let json = serde_json::to_string(&clean).unwrap();
        assert!(
            !json.contains("crash"),
            "crash-free report must serialize without a crash key: {json}"
        );
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, clean);

        let mut crashed = clean;
        crashed.crash = Some(CrashStats {
            power_loss_events: 2,
            recoveries: 2,
            recoveries_clean: 2,
            ..CrashStats::default()
        });
        let json = serde_json::to_string(&crashed).unwrap();
        assert!(json.contains("crash"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.crash.as_ref().unwrap().recoveries_clean, 2);
        assert_eq!(back, crashed);
    }

    #[test]
    fn degraded_renderers_cover_present_and_absent_sections() {
        let mut m = MetricsCollector::new();
        m.start_measurement(t(0));
        let clean = m.report(t(3600), "vdr", 4, "geom(10)".into(), 1, 0.0, 0);
        m.degraded_mut().faults_injected = 1;
        m.degraded_mut().rescues = 3;
        let faulty = m.report(t(3600), "striping", 4, "geom(10)".into(), 1, 0.0, 0);
        let table = format_degraded(&[clean, faulty]);
        // Header plus exactly one data row (the clean report is skipped).
        assert_eq!(table.lines().count(), 2);
        assert!(table.lines().nth(1).unwrap().starts_with("striping"));
    }
}
