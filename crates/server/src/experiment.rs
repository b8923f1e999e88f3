//! Experiment harness: the parameter sweeps behind Figure 8, Table 4 and
//! the ablations, with a multi-threaded runner and CSV/JSON emission.

use crate::config::{MediaMix, Scheme, ServerConfig};
use crate::metrics::RunReport;
use crate::vdr::vdr_config_for;
use crate::{run, MaterializeMode};
use serde::{Deserialize, Serialize};
use ss_core::admission::AdmissionPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The station counts of the Figure 8 x-axis.
pub const FIG8_STATIONS: [u32; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The three popularity means of §4.1.
pub const FIG8_MEANS: [f64; 3] = [10.0, 20.0, 43.5];

/// The Table 4 station counts.
pub const TABLE4_STATIONS: [u32; 4] = [16, 64, 128, 256];

/// How a [`run_batch_stats`] call actually executed — the measured
/// facts, not the request (`threads` asks; the batch may need fewer
/// strands than asked when it has fewer jobs).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchStats {
    /// Strands that actually drained the claim queue: the calling thread
    /// plus the threads spawned for this batch.
    pub threads_used: usize,
}

/// Runs a batch of configurations across `threads` strands, preserving
/// input order in the output.
/// See [`run_batch_stats`] for the variant that also reports how the
/// batch executed.
///
/// # Panics
///
/// If any job panics, the remaining jobs still run; afterwards this
/// function panics with the index and message of every failed job
/// (rather than a bare "worker panicked" that hides which configuration
/// went down).
pub fn run_batch(configs: Vec<ServerConfig>, threads: usize) -> Vec<RunReport> {
    run_batch_stats(configs, threads).0
}

/// [`run_batch`] plus execution stats (the true strand count, for the
/// perf baseline's thread-count reporting).
///
/// Execution model: the jobs are claimed lock-free through a single
/// atomic cursor by `threads` strands — the calling thread plus
/// `threads - 1` scoped threads spawned for this call. `threads == 1`
/// (or a single job) spawns nothing and runs every job inline on the
/// caller. A batch is one call per grid, so one spawn/join per strand is
/// noise against seconds of simulation. Each strand keeps
/// `(index, report)` pairs local, and the results are scattered into
/// their input slots afterwards, so no mutex guards either the queue or
/// the result vector.
///
/// Jobs are claimed longest-estimated-first (stations × measured
/// duration as the cost proxy) so a grid's heavyweight cells start
/// immediately instead of landing on whichever strand drains the tail,
/// which shortens the critical path of the whole batch. Claim order is
/// a scheduling detail only: output order always equals input order,
/// byte-for-byte identical at any thread count (each job is an
/// independent deterministic simulation).
pub fn run_batch_stats(configs: Vec<ServerConfig>, threads: usize) -> (Vec<RunReport>, BatchStats) {
    assert!(threads >= 1);
    let n = configs.len();
    let strands = threads.min(n).max(1);
    let mut order: Vec<usize> = (0..n).collect();
    let cost = |c: &ServerConfig| u128::from(c.stations) * u128::from(c.measure.as_micros());
    order.sort_by_key(|&i| std::cmp::Reverse(cost(&configs[i])));
    let run_job = |idx: usize| -> (usize, Result<RunReport, String>) {
        // A panicking job must not take the whole batch down silently:
        // catch it here so the strand keeps draining the queue and the
        // panic is reported below with the job that caused it.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&configs[idx]).expect("experiment config must be valid")
        }))
        .map_err(|payload| panic_message(&*payload));
        (idx, outcome)
    };
    let mut per_strand: Vec<Vec<(usize, Result<RunReport, String>)>> = vec![Vec::new(); strands];
    // `Relaxed` suffices: the cursor publishes no data, and the scope's
    // joins order every strand's pushes before the scatter below.
    let cursor = AtomicUsize::new(0);
    let drain = |local: &mut Vec<(usize, Result<RunReport, String>)>| {
        while let Some(&idx) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            local.push(run_job(idx));
        }
    };
    let drain = &drain;
    std::thread::scope(|s| {
        let (own, lent) = per_strand.split_first_mut().expect("at least one strand");
        for local in lent {
            s.spawn(move || drain(local));
        }
        drain(own);
    });
    let mut results: Vec<Option<RunReport>> = vec![None; n];
    let mut failures: Vec<(usize, String)> = Vec::new();
    for (idx, outcome) in per_strand.drain(..).flatten() {
        match outcome {
            Ok(report) => results[idx] = Some(report),
            Err(msg) => failures.push((idx, msg)),
        }
    }
    if !failures.is_empty() {
        failures.sort_by_key(|&(idx, _)| idx);
        let detail: Vec<String> = failures
            .iter()
            .map(|(idx, msg)| format!("  job {idx}: {msg}"))
            .collect();
        panic!(
            "{} of {n} batch jobs panicked:\n{}",
            failures.len(),
            detail.join("\n")
        );
    }
    let reports = results
        .into_iter()
        .map(|r| r.expect("every job filled"))
        .collect();
    (
        reports,
        BatchStats {
            threads_used: strands,
        },
    )
}

/// Best-effort rendering of a panic payload (the `&str`/`String` cases
/// cover everything `panic!` and `expect` produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Generates the full Figure 8 grid: both schemes × three distributions ×
/// the nine station counts.
pub fn fig8_configs(seed: u64) -> Vec<ServerConfig> {
    let mut out = Vec::new();
    for &mean in &FIG8_MEANS {
        for &stations in &FIG8_STATIONS {
            out.push(ServerConfig::paper_striping(stations, mean, seed));
            out.push(ServerConfig::paper_vdr(stations, mean, seed));
        }
    }
    out
}

/// One row of Table 4: percentage improvement of striping over VDR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Number of display stations.
    pub stations: u32,
    /// Improvement (%) per distribution mean, ordered as [`FIG8_MEANS`].
    pub improvement_pct: Vec<f64>,
}

/// Computes Table 4 from a set of Figure 8 reports: for each (stations,
/// mean) cell, `100 × (striping − vdr) / vdr` throughput.
pub fn table4(reports: &[RunReport]) -> Vec<Table4Row> {
    let find = |scheme: &str, stations: u32, mean: f64| -> Option<&RunReport> {
        let tag = ss_workload::Popularity::TruncatedGeometric { mean }.tag();
        reports
            .iter()
            .find(|r| r.scheme == scheme && r.stations == stations && r.popularity == tag)
    };
    TABLE4_STATIONS
        .iter()
        .map(|&stations| {
            let improvement_pct = FIG8_MEANS
                .iter()
                .map(|&mean| {
                    let s = find("striping", stations, mean);
                    let v = find("vdr", stations, mean);
                    match (s, v) {
                        (Some(s), Some(v)) if v.displays_per_hour > 0.0 => {
                            100.0 * (s.displays_per_hour - v.displays_per_hour)
                                / v.displays_per_hour
                        }
                        _ => f64::NAN,
                    }
                })
                .collect();
            Table4Row {
                stations,
                improvement_pct,
            }
        })
        .collect()
}

/// Formats Table 4 in the paper's shape.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    out.push_str("# Display |            Distribution of Access\n");
    out.push_str("Stations  | 10 (highly skewed) | 20 (skewed) | 43.5 (uniform)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<9} | {:>17.2}% | {:>10.2}% | {:>13.2}%\n",
            r.stations, r.improvement_pct[0], r.improvement_pct[1], r.improvement_pct[2]
        ));
    }
    out
}

/// Stride-sweep ablation configs (§3.2.2): staggered striping at the given
/// strides, identical workload otherwise.
pub fn stride_sweep_configs(
    strides: &[u32],
    stations: u32,
    mean: f64,
    seed: u64,
) -> Vec<ServerConfig> {
    strides
        .iter()
        .map(|&k| {
            let mut c = ServerConfig::paper_striping(stations, mean, seed);
            c.scheme = Scheme::Striping {
                stride: k,
                policy: AdmissionPolicy::Contiguous,
                cluster_round: None,
            };
            c
        })
        .collect()
}

/// Materialization-mode ablation: pipelined vs full-before-display, on the
/// striping scheme with a cold (non-preloaded) cache to force fetches.
pub fn materialize_ablation_configs(stations: u32, mean: f64, seed: u64) -> Vec<ServerConfig> {
    [MaterializeMode::Pipelined, MaterializeMode::AfterFull]
        .into_iter()
        .map(|m| {
            let mut c = ServerConfig::paper_striping(stations, mean, seed);
            c.materialize = m;
            c.preload = false;
            c
        })
        .collect()
}

/// Admission-policy ablation: contiguous vs time-fragmented admission
/// under a mixed-media workload is exercised separately (see the bench
/// binaries); this helper just flips the policy on the paper workload.
pub fn admission_ablation_configs(stations: u32, mean: f64, seed: u64) -> Vec<ServerConfig> {
    [
        AdmissionPolicy::Contiguous,
        AdmissionPolicy::Fragmented {
            max_buffer_fragments: 64,
            max_delay_intervals: 16,
        },
    ]
    .into_iter()
    .map(|policy| {
        let mut c = ServerConfig::paper_striping(stations, mean, seed);
        c.scheme = Scheme::Striping {
            stride: 5,
            policy,
            cluster_round: None,
        };
        c
    })
    .collect()
}

/// Mixed-media comparison (§3.1/§3.2): the same heterogeneous database
/// (120 mbps and 60 mbps video, the paper's Y/Z example) served three
/// ways:
///
/// 1. staggered striping (stride 1, exact `M_X` per display) with
///    **time-fragmented admission** (Algorithm 1) — the paper's full
///    proposal;
/// 2. the same layout with contiguous-only admission — demonstrating the
///    §3.2.1 *time fragmentation* penalty (free disks exist but are not
///    adjacent, so high-degree displays starve);
/// 3. the §3.1 naive fixed-cluster layout sized for the highest-bandwidth
///    media type (6-disk clusters), which wastes half of every cluster
///    serving a 60 mbps object.
pub fn mixed_media_configs(stations: u32, seed: u64) -> Vec<ServerConfig> {
    let base = |scheme: Scheme| {
        let mut c = ServerConfig::paper_striping(stations, 20.0, seed);
        c.mix = Some(MediaMix::section31_example(100, 3000));
        c.objects = 200; // informational; catalog comes from the mix
        c.scheme = scheme;
        c
    };
    vec![
        base(Scheme::Striping {
            stride: 1,
            policy: AdmissionPolicy::Fragmented {
                max_buffer_fragments: 64,
                // A granted disk idles between the grant and its aligned
                // read start, so the delay cap trades admission
                // flexibility against pre-reservation waste; one quarter
                // of a rotation captures nearly all of the benefit when
                // objects are long relative to the rotation period.
                max_delay_intervals: 16,
            },
            cluster_round: None,
        }),
        base(Scheme::Striping {
            stride: 1,
            policy: AdmissionPolicy::Contiguous,
            cluster_round: None,
        }),
        base(Scheme::Striping {
            stride: 6,
            policy: AdmissionPolicy::Contiguous,
            cluster_round: Some(6),
        }),
    ]
}

/// Queue-policy ablation (§5 future work): the mixed-media staggered
/// workload under FCFS, smallest-first and largest-first queueing.
pub fn queue_policy_configs(stations: u32, seed: u64) -> Vec<ServerConfig> {
    use crate::config::QueuePolicy;
    [
        QueuePolicy::Fcfs,
        QueuePolicy::SmallestFirst,
        QueuePolicy::LargestFirst,
    ]
    .into_iter()
    .map(|q| {
        let mut c = mixed_media_configs(stations, seed).remove(0);
        c.queue = q;
        c
    })
    .collect()
}

/// Fragment-size ablation (§3.1): the same database and workload with
/// one- and two-cylinder fragments. Larger fragments raise the effective
/// disk bandwidth (≈20 → ≈20.8 mbps on the Table 3 drive) but double the
/// time interval, and with it every queueing quantum and worst-case
/// startup delay. Object size is held constant by halving the subobject
/// count.
pub fn fragment_size_ablation_configs(stations: u32, mean: f64, seed: u64) -> Vec<ServerConfig> {
    [1u32, 2]
        .into_iter()
        .map(|cpf| {
            let mut c = ServerConfig::paper_striping(stations, mean, seed);
            c.cylinders_per_fragment = cpf;
            c.subobjects = 3000 / cpf;
            c
        })
        .collect()
}

/// A small-scale analogue of the paper's grid for fast smoke runs and
/// tests: shrinks the farm and database while keeping the structural
/// ratios (database ≈ 2.5 × farm capacity, R clusters, M = 5).
pub fn small_grid_configs(stations: &[u32], mean: f64, seed: u64) -> Vec<ServerConfig> {
    let mut out = Vec::new();
    for &n in stations {
        let mut s = ServerConfig::small_test(n, seed);
        s.popularity = ss_workload::Popularity::TruncatedGeometric { mean };
        s.objects = 150; // farm holds 60 (20×3000/(40×5×5))... recompute below
                         // Farm capacity: 20 disks × 3000 cyl / (40 subobj × 5 frags) = 300;
                         // use 750 objects for a 2.5× overcommit.
        s.objects = 750;
        out.push(s.clone());
        let mut v = s;
        v.scheme = Scheme::Vdr {
            vdr: vdr_config_for(&v),
        };
        v.materialize = MaterializeMode::AfterFull;
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_grid_has_54_cells() {
        let cfgs = fig8_configs(1);
        assert_eq!(cfgs.len(), 2 * 3 * 9);
        assert!(cfgs.iter().all(|c| c.validate().is_ok()));
    }

    #[test]
    fn batch_runner_preserves_order_and_parallelism() {
        let cfgs = vec![
            ServerConfig::small_test(1, 1),
            ServerConfig::small_test(2, 1),
            ServerConfig::small_test(4, 1),
        ];
        let seq = run_batch(cfgs.clone(), 1);
        let par = run_batch(cfgs, 3);
        assert_eq!(seq, par);
        assert_eq!(seq[0].stations, 1);
        assert_eq!(seq[2].stations, 4);
    }

    #[test]
    fn batch_runner_output_order_is_input_order_despite_claim_order() {
        // Input deliberately ascending by cost, so the longest-first
        // claim order (4, 2, 1 stations) is the exact reverse of the
        // input order. The output must still follow the input.
        let cfgs = vec![
            ServerConfig::small_test(1, 3),
            ServerConfig::small_test(2, 3),
            ServerConfig::small_test(4, 3),
        ];
        for threads in [1, 2, 4] {
            let reports = run_batch(cfgs.clone(), threads);
            let stations: Vec<u32> = reports.iter().map(|r| r.stations).collect();
            assert_eq!(stations, vec![1, 2, 4]);
        }
    }

    #[test]
    fn batch_runner_reports_which_job_panicked() {
        // Job 1 is invalid (zero stations), so its worker panics inside
        // `run`. The batch must finish the valid jobs and then surface
        // the failing index and message instead of a bare join error.
        let mut bad = ServerConfig::small_test(2, 1);
        bad.stations = 0;
        let cfgs = vec![
            ServerConfig::small_test(1, 1),
            bad,
            ServerConfig::small_test(2, 1),
        ];
        let caught = std::panic::catch_unwind(|| run_batch(cfgs, 2))
            .expect_err("batch with an invalid job must panic");
        let msg = panic_message(&*caught);
        assert!(msg.contains("1 of 3 batch jobs panicked"), "got: {msg}");
        assert!(msg.contains("job 1:"), "got: {msg}");
        assert!(
            msg.contains("experiment config must be valid"),
            "got: {msg}"
        );
    }

    #[test]
    fn two_thread_batch_is_byte_identical_to_one_thread() {
        // The ISSUE-level regression: the same batch at 2 threads must
        // return reports in input order whose serialized JSON is
        // byte-for-byte the 1-thread batch's.
        let cfgs = vec![
            ServerConfig::small_test(2, 11),
            ServerConfig::small_test(3, 12),
            ServerConfig::small_test(1, 13),
            ServerConfig::small_vdr_test(2, 14),
        ];
        let (one, s1) = run_batch_stats(cfgs.clone(), 1);
        let (two, s2) = run_batch_stats(cfgs, 2);
        assert_eq!(s1.threads_used, 1);
        assert_eq!(s2.threads_used, 2);
        let bytes = |rs: &[RunReport]| serde_json::to_string_pretty(rs).expect("reports serialize");
        assert_eq!(bytes(&one), bytes(&two));
    }

    #[test]
    fn strand_count_is_capped_by_job_count() {
        let cfgs = vec![ServerConfig::small_test(1, 31)];
        let (_, stats) = run_batch_stats(cfgs, 8);
        assert_eq!(stats.threads_used, 1, "one job needs one strand");
    }

    #[test]
    fn table4_math() {
        let mk = |scheme: &str, stations: u32, mean: f64, rate: f64| RunReport {
            scheme: scheme.into(),
            stations,
            popularity: ss_workload::Popularity::TruncatedGeometric { mean }.tag(),
            seed: 0,
            displays_completed: 0,
            displays_per_hour: rate,
            mean_latency_s: 0.0,
            p50_latency_s: 0.0,
            p95_latency_s: 0.0,
            max_latency_s: 0.0,
            disk_utilization: 0.0,
            tertiary_utilization: 0.0,
            tertiary_fetches: 0,
            unique_residents: 0,
            mean_active_displays: 0.0,
            peak_buffer_fragments: 0,
            coalesces: 0,
            measured_seconds: 0.0,
            degraded: None,
            parity_group: None,
            rebuild_rate: None,
            sharing: None,
            distributed: None,
            crash: None,
        };
        let mut reports = Vec::new();
        for &n in &TABLE4_STATIONS {
            for &m in &FIG8_MEANS {
                reports.push(mk("striping", n, m, 200.0));
                reports.push(mk("vdr", n, m, 100.0));
            }
        }
        let rows = table4(&reports);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            for &pct in &r.improvement_pct {
                assert!((pct - 100.0).abs() < 1e-9);
            }
        }
        let txt = format_table4(&rows);
        assert!(txt.contains("100.00%"));
        assert!(txt.contains("256"));
    }

    #[test]
    fn mixed_media_staggered_beats_naive_clusters() {
        // Shrunken farm, saturating load: the naive 6-disk-cluster layout
        // wastes 3 of 6 disks on every 60 mbps display, so staggered
        // striping must sustain clearly more displays per hour.
        // Objects must be long relative to the rotation period (as in the
        // paper: 3000 subobjects vs 1000 disks), otherwise the admission
        // economics are distorted by startup effects.
        let mut cfgs = mixed_media_configs(48, 7);
        for c in &mut cfgs {
            c.disks = 60;
            c.mix = Some(crate::config::MediaMix::section31_example(20, 200));
            c.popularity = ss_workload::Popularity::Uniform;
            c.warmup = ss_types::SimDuration::from_secs(1200);
            c.measure = ss_types::SimDuration::from_secs(2 * 3600);
            c.validate().unwrap();
        }
        let r = run_batch(cfgs, 3);
        let (fragmented, contiguous, naive) = (&r[0], &r[1], &r[2]);
        // Time-fragmented admission must beat the naive clusters (it uses
        // exactly M_X disks per display and scavenges non-adjacent free
        // disks)...
        assert!(
            fragmented.displays_per_hour > 1.05 * naive.displays_per_hour,
            "fragmented {} vs naive {}",
            fragmented.displays_per_hour,
            naive.displays_per_hour
        );
        // ...and must beat contiguous-only admission, which suffers the
        // §3.2.1 time-fragmentation starvation under a media mix.
        assert!(
            fragmented.displays_per_hour >= contiguous.displays_per_hour,
            "fragmented {} vs contiguous {}",
            fragmented.displays_per_hour,
            contiguous.displays_per_hour
        );
    }

    #[test]
    fn two_cylinder_fragments_change_the_derived_quantities() {
        let cfgs = fragment_size_ablation_configs(4, 20.0, 1);
        let (one, two) = (&cfgs[0], &cfgs[1]);
        // Effective bandwidth rises with fragment size ...
        assert!(two.b_disk() > one.b_disk());
        // ... the interval roughly doubles ...
        let ratio = two.interval().as_secs_f64() / one.interval().as_secs_f64();
        assert!((1.85..2.0).contains(&ratio), "interval ratio {ratio}");
        // ... the object size is unchanged ...
        assert_eq!(one.object_size(), two.object_size());
        // ... and the degree of declustering stays at 5 (20.8 mbps is
        // still below 25).
        assert_eq!(one.degree(), 5);
        assert_eq!(two.degree(), 5);
    }

    #[test]
    fn ablation_config_builders_validate() {
        for c in stride_sweep_configs(&[1, 2, 5, 1000], 16, 20.0, 1) {
            c.validate().unwrap();
        }
        for c in materialize_ablation_configs(16, 20.0, 1) {
            c.validate().unwrap();
        }
        for c in admission_ablation_configs(16, 20.0, 1) {
            c.validate().unwrap();
        }
        for c in mixed_media_configs(16, 1) {
            c.validate().unwrap();
        }
        for c in fragment_size_ablation_configs(16, 20.0, 1) {
            c.validate().unwrap();
        }
        for c in queue_policy_configs(16, 1) {
            c.validate().unwrap();
        }
        for c in small_grid_configs(&[1, 4], 20.0, 1) {
            c.validate().unwrap();
        }
    }
}
