//! Per-interval metrics registry: named counters plus two time-series
//! products the paper's evaluation is built around — per-interval scalar
//! series (active displays, queue depth, utilization, wasted-bandwidth
//! fraction) and a per-disk utilization heatmap.
//!
//! The registry is deliberately dumb storage: the server models feed it
//! one row per interval boundary (executed *and* replayed — sparse
//! ticking skips quiescent boundaries, so the models re-materialize the
//! skipped samples), and the CSV renderers emit byte-deterministic
//! artifacts for the bench harness.

use std::collections::{BTreeMap, BTreeSet};

/// Farm geometry the registry needs to shape its heatmap rows.
#[derive(Debug, Clone, Copy)]
pub struct RegistrySpec {
    /// Physical disks in the farm (heatmap row width).
    pub disks: u32,
    /// Interval length in simulation microseconds.
    pub interval_us: u64,
    /// Maximum heatmap rows retained; later rows are counted as
    /// dropped, never silently discarded.
    pub max_heatmap_rows: usize,
}

impl Default for RegistrySpec {
    fn default() -> Self {
        Self {
            disks: 0,
            interval_us: 0,
            max_heatmap_rows: 1 << 20,
        }
    }
}

/// One run of consecutive identical heatmap rows: the `count`
/// boundaries starting at `start` all carried `row`. Farm occupancy
/// changes far less often than once per interval (a saturated farm is
/// all-busy for thousands of boundaries in a row), so run-length
/// storage turns the dominant capture cost — one disks-wide vector per
/// boundary — into a comparison against the open run.
#[derive(Debug)]
struct HeatRun {
    start: u64,
    count: u64,
    row: Vec<f32>,
}

/// The registry proper. See the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    spec: RegistrySpec,
    counters: BTreeMap<&'static str, u64>,
    series: BTreeMap<&'static str, Vec<(u64, f64)>>,
    heatmap: Vec<HeatRun>,
    heatmap_rows: usize,
    heatmap_dropped: u64,
    /// Reusable fill buffer for [`Registry::heatmap_row_with`].
    heat_scratch: Vec<f32>,
}

impl Registry {
    /// New registry for a farm of `spec.disks` disks.
    pub fn new(spec: RegistrySpec) -> Self {
        Self {
            spec,
            ..Self::default()
        }
    }

    /// The geometry this registry was created with.
    pub fn spec(&self) -> RegistrySpec {
        self.spec
    }

    /// Add `n` to counter `name` (created at zero on first use).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Append one `(interval, value)` sample to time series `name`.
    /// Samples are expected in nondecreasing interval order.
    pub fn series_point(&mut self, name: &'static str, interval: u64, v: f64) {
        self.series.entry(name).or_default().push((interval, v));
    }

    /// The samples of series `name`, in feed order.
    pub fn series(&self, name: &str) -> &[(u64, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Append one per-disk utilization row (`row[d]` in `[0, 1]`) for
    /// `interval`. Rows beyond `max_heatmap_rows` are dropped and
    /// counted.
    pub fn heatmap_row(&mut self, interval: u64, row: Vec<f32>) {
        self.accept_heat_row(interval, &row);
    }

    /// Like [`Registry::heatmap_row`], but `fill` writes the row into a
    /// buffer the registry reuses across calls — the per-boundary hot
    /// path, which avoids one disks-wide allocation per interval.
    pub fn heatmap_row_with(&mut self, interval: u64, fill: impl FnOnce(&mut Vec<f32>)) {
        let mut buf = std::mem::take(&mut self.heat_scratch);
        buf.clear();
        fill(&mut buf);
        self.accept_heat_row(interval, &buf);
        self.heat_scratch = buf;
    }

    fn accept_heat_row(&mut self, interval: u64, row: &[f32]) {
        if self.heatmap_rows >= self.spec.max_heatmap_rows {
            self.heatmap_dropped += 1;
            return;
        }
        self.heatmap_rows += 1;
        if let Some(last) = self.heatmap.last_mut() {
            if last.start + last.count == interval && last.row == row {
                last.count += 1;
                return;
            }
        }
        self.heatmap.push(HeatRun {
            start: interval,
            count: 1,
            row: row.to_vec(),
        });
    }

    /// Heatmap rows accepted so far (before run-length dedup).
    pub fn heatmap_len(&self) -> usize {
        self.heatmap_rows
    }

    /// Distinct runs the accepted rows collapsed into.
    pub fn heatmap_runs(&self) -> usize {
        self.heatmap.len()
    }

    /// Heatmap rows dropped by the retention cap.
    pub fn heatmap_dropped(&self) -> u64 {
        self.heatmap_dropped
    }

    /// Renders the scalar time series as CSV: one row per interval,
    /// one column per series (alphabetical), empty cells where a series
    /// has no sample for that interval.
    pub fn series_csv(&self) -> String {
        let mut out = String::from("interval");
        for name in self.series.keys() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        let intervals: BTreeSet<u64> = self
            .series
            .values()
            .flat_map(|s| s.iter().map(|&(t, _)| t))
            .collect();
        // Per-series cursors: samples arrive in nondecreasing interval
        // order, so one forward pass covers the union.
        let mut cursors: Vec<(usize, &Vec<(u64, f64)>)> =
            self.series.values().map(|s| (0usize, s)).collect();
        use std::fmt::Write;
        for t in intervals {
            write!(out, "{t}").expect("write to String");
            for (pos, samples) in cursors.iter_mut() {
                out.push(',');
                while *pos < samples.len() && samples[*pos].0 < t {
                    *pos += 1;
                }
                if *pos < samples.len() && samples[*pos].0 == t {
                    write!(out, "{}", samples[*pos].1).expect("write to String");
                    *pos += 1;
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the per-disk utilization heatmap as CSV
    /// (`interval,d0,...,dN`).
    pub fn heatmap_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("interval");
        for d in 0..self.spec.disks {
            write!(out, ",d{d}").expect("write to String");
        }
        out.push('\n');
        for run in &self.heatmap {
            for i in 0..run.count {
                write!(out, "{}", run.start + i).expect("write to String");
                for v in &run.row {
                    write!(out, ",{v}").expect("write to String");
                }
                out.push('\n');
            }
        }
        out
    }

    /// Renders the counters as `name,value` CSV (alphabetical).
    pub fn counters_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("counter,value\n");
        for (name, v) in &self.counters {
            writeln!(out, "{name},{v}").expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_csv_aligns_on_interval() {
        let mut r = Registry::new(RegistrySpec {
            disks: 2,
            interval_us: 1_000,
            max_heatmap_rows: 2,
        });
        r.series_point("active", 0, 1.0);
        r.series_point("active", 1, 2.0);
        r.series_point("util", 1, 0.5);
        assert_eq!(r.series_csv(), "interval,active,util\n0,1,\n1,2,0.5\n");
    }

    #[test]
    fn heatmap_cap_counts_drops() {
        let mut r = Registry::new(RegistrySpec {
            disks: 2,
            interval_us: 1_000,
            max_heatmap_rows: 2,
        });
        for t in 0..4 {
            r.heatmap_row(t, vec![1.0, 0.0]);
        }
        assert_eq!(r.heatmap_len(), 2);
        assert_eq!(r.heatmap_dropped(), 2);
        assert_eq!(r.heatmap_csv(), "interval,d0,d1\n0,1,0\n1,1,0\n");
    }

    #[test]
    fn heatmap_dedups_identical_consecutive_rows() {
        let mut r = Registry::new(RegistrySpec {
            disks: 2,
            interval_us: 1_000,
            ..RegistrySpec::default()
        });
        r.heatmap_row(0, vec![1.0, 1.0]);
        r.heatmap_row_with(1, |buf| buf.extend_from_slice(&[1.0, 1.0]));
        r.heatmap_row_with(2, |buf| buf.extend_from_slice(&[0.0, 1.0]));
        // A gap breaks the run even when the row matches.
        r.heatmap_row(4, vec![0.0, 1.0]);
        assert_eq!(r.heatmap_len(), 4);
        assert_eq!(r.heatmap_runs(), 3);
        assert_eq!(
            r.heatmap_csv(),
            "interval,d0,d1\n0,1,1\n1,1,1\n2,0,1\n4,0,1\n"
        );
    }
}
