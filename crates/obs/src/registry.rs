//! Per-interval metrics registry: named counters plus two time-series
//! products the paper's evaluation is built around — per-interval scalar
//! series (active displays, queue depth, utilization, wasted-bandwidth
//! fraction) and a per-disk utilization heatmap.
//!
//! The registry is deliberately dumb storage: the server models feed it
//! one row per interval boundary (executed *and* replayed — sparse
//! ticking skips quiescent boundaries, so the models re-materialize the
//! skipped samples, and repeat a heat row that cannot have changed
//! rather than fill it), and the CSV renderers emit byte-deterministic
//! artifacts for the bench harness.

use std::collections::BTreeMap;

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

/// One run of consecutive heatmap rows that share one frame row:
/// boundary `start + i` carried `row` rotated right by `offsets[i]`
/// disks. A scheme keeps its occupancy in its own frame (striping's
/// virtual disks shift right by `k` every interval), and that occupancy
/// changes far less often than once per interval, so a run costs one
/// disks-wide row per change plus one offset per boundary.
#[derive(Debug)]
struct HeatRun {
    start: u64,
    row: Vec<f32>,
    offsets: Vec<u32>,
}

impl HeatRun {
    /// The interval after the run's last boundary.
    fn end(&self) -> u64 {
        self.start + self.offsets.len() as u64
    }
}

/// One interval boundary's scalar series samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesRow {
    /// The boundary's interval index.
    pub interval: u64,
    /// Viewers watching.
    pub active_displays: f64,
    /// Requests waiting for admission.
    pub queue_depth: f64,
    /// Fraction of farm capacity committed.
    pub utilization: f64,
    /// Fraction of farm capacity committed but not delivering display
    /// data.
    pub wasted_fraction: f64,
}

/// The registry proper. See the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    spec: RegistrySpec,
    counters: BTreeMap<&'static str, u64>,
    series: Vec<SeriesRow>,
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

    /// Appends one boundary's series row. Boundaries arrive once each, in
    /// increasing interval order.
    pub fn series_row(&mut self, row: SeriesRow) {
        debug_assert!(
            self.series
                .last()
                .is_none_or(|last| last.interval < row.interval),
            "series row for interval {} out of order",
            row.interval
        );
        self.series.push(row);
    }

    /// The series rows, one per boundary, in interval order.
    pub fn series(&self) -> &[SeriesRow] {
        &self.series
    }

    /// Appends boundary `interval`'s per-disk utilization row (cells in
    /// `[0, 1]`). `fill` writes the row, in the frame its scheme keeps
    /// occupancy in, into an empty buffer the registry reuses, and
    /// returns the frame's rotation `offset` at `interval`: physical
    /// disk `p` reads frame cell `(p − offset) mod D`. A frame row equal
    /// to the open run's, at the interval after it, extends that run.
    /// Rows beyond `max_heatmap_rows` are dropped and counted, and their
    /// `fill` is never called.
    pub fn heatmap_row_with(&mut self, interval: u64, fill: impl FnOnce(&mut Vec<f32>) -> u32) {
        if self.heatmap_rows >= self.spec.max_heatmap_rows {
            self.heatmap_dropped += 1;
            return;
        }
        let mut row = std::mem::take(&mut self.heat_scratch);
        row.clear();
        let offset = fill(&mut row);
        debug_assert!(
            self.spec.disks == 0 || row.len() == self.spec.disks as usize,
            "a heat row of {} cells on a farm of {} disks",
            row.len(),
            self.spec.disks
        );
        debug_assert!(
            (offset as usize) < row.len().max(1),
            "offset {offset} past a row of {} cells",
            row.len()
        );
        self.heatmap_rows += 1;
        match self.heatmap.last_mut() {
            Some(last) if last.end() == interval && last.row == row => {
                last.offsets.push(offset);
                self.heat_scratch = row;
            }
            _ => self.heatmap.push(HeatRun {
                start: interval,
                row,
                offsets: vec![offset],
            }),
        }
    }

    /// Records boundary `interval` as the open run's frame row at
    /// `offset`, in O(1): the caller vouches that the frame row has not
    /// changed since `interval − 1`. Returns false, recording nothing,
    /// when the open run does not end at `interval − 1`; the caller then
    /// fills the row. At the row cap the boundary is dropped and counted,
    /// and the call returns true.
    pub fn heatmap_repeat(&mut self, interval: u64, offset: u32) -> bool {
        if self.heatmap_rows >= self.spec.max_heatmap_rows {
            self.heatmap_dropped += 1;
            return true;
        }
        match self.heatmap.last_mut() {
            Some(last) if last.end() == interval => {
                debug_assert!(
                    (offset as usize) < last.row.len().max(1),
                    "offset {offset} past a row of {} cells",
                    last.row.len()
                );
                last.offsets.push(offset);
                self.heatmap_rows += 1;
                true
            }
            _ => false,
        }
    }

    /// Heatmap rows accepted so far (before run-length dedup).
    pub fn heatmap_len(&self) -> usize {
        self.heatmap_rows
    }

    /// Heatmap rows dropped by the retention cap.
    pub fn heatmap_dropped(&self) -> u64 {
        self.heatmap_dropped
    }

    /// Renders the scalar time series as CSV: one line per boundary,
    /// one column per series (alphabetical).
    pub fn series_csv(&self) -> String {
        use std::fmt::Write;
        let mut out =
            String::from("interval,active_displays,queue_depth,utilization,wasted_fraction\n");
        for r in &self.series {
            let (t, a, q) = (r.interval, r.active_displays, r.queue_depth);
            let (u, w) = (r.utilization, r.wasted_fraction);
            writeln!(out, "{t},{a},{q},{u},{w}").expect("write to String");
        }
        out
    }

    /// Renders the per-disk utilization heatmap as CSV
    /// (`interval,d0,...,dN`): each boundary's frame row, rotated right
    /// by its offset, as the slice from `D − offset` on followed by the
    /// slice before it.
    pub fn heatmap_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("interval");
        for d in 0..self.spec.disks {
            write!(out, ",d{d}").expect("write to String");
        }
        out.push('\n');
        for run in &self.heatmap {
            for (t, &offset) in (run.start..).zip(&run.offsets) {
                write!(out, "{t}").expect("write to String");
                let (head, tail) = run.row.split_at(run.row.len() - offset as usize);
                for v in tail.iter().chain(head) {
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
    fn series_csv_renders_one_line_per_boundary() {
        let mut r = registry(2, 2);
        let row = |interval, active_displays| SeriesRow {
            interval,
            active_displays,
            queue_depth: 3.0,
            utilization: 0.5,
            wasted_fraction: 0.125,
        };
        r.series_row(row(0, 1.0));
        r.series_row(row(2, 2.0));
        assert_eq!(r.series().len(), 2);
        assert_eq!(
            r.series_csv(),
            "interval,active_displays,queue_depth,utilization,wasted_fraction\n\
             0,1,3,0.5,0.125\n\
             2,2,3,0.5,0.125\n"
        );
    }

    fn registry(disks: u32, max_heatmap_rows: usize) -> Registry {
        Registry::new(RegistrySpec {
            disks,
            interval_us: 1_000,
            max_heatmap_rows,
        })
    }

    /// Fills `row` as the frame row at `offset`.
    fn frame(row: &[f32], offset: u32) -> impl FnOnce(&mut Vec<f32>) -> u32 + '_ {
        move |buf| {
            buf.extend_from_slice(row);
            offset
        }
    }

    #[test]
    fn an_offset_row_renders_as_its_rotation() {
        let mut r = registry(4, 8);
        let row = [0.25, 0.5, 0.75, 1.0];
        r.heatmap_row_with(0, frame(&row, 0));
        // Physical disk p reads frame cell (p - offset) mod D.
        assert!(r.heatmap_repeat(1, 1));
        assert!(r.heatmap_repeat(2, 3));
        assert_eq!(r.heatmap.len(), 1);
        assert_eq!(
            r.heatmap_csv(),
            "interval,d0,d1,d2,d3\n\
             0,0.25,0.5,0.75,1\n\
             1,1,0.25,0.5,0.75\n\
             2,0.5,0.75,1,0.25\n"
        );
    }

    #[test]
    fn a_repeat_after_a_gap_records_nothing() {
        let mut r = registry(2, 8);
        assert!(!r.heatmap_repeat(0, 0), "no open run to extend");
        r.heatmap_row_with(0, frame(&[1.0, 0.0], 0));
        assert!(!r.heatmap_repeat(2, 1), "interval 1 was never recorded");
        assert_eq!(
            (r.heatmap_len(), r.heatmap.len(), r.heatmap_dropped()),
            (1, 1, 0)
        );
        assert_eq!(r.heatmap_csv(), "interval,d0,d1\n0,1,0\n");
    }

    #[test]
    fn heatmap_cap_counts_drops() {
        let mut r = registry(2, 2);
        for t in 0..3 {
            r.heatmap_row_with(t, frame(&[1.0, 0.0], 0));
        }
        // At the cap a repeat is a drop too, whether or not a fill
        // would have been.
        assert!(r.heatmap_repeat(3, 1));
        r.heatmap_row_with(4, |_| unreachable!("a dropped row is never filled"));
        assert_eq!(r.heatmap_len(), 2);
        assert_eq!(r.heatmap_dropped(), 3);
        assert_eq!(r.heatmap_csv(), "interval,d0,d1\n0,1,0\n1,1,0\n");
    }

    #[test]
    fn a_changed_frame_row_opens_a_new_run() {
        let mut r = registry(2, 8);
        r.heatmap_row_with(0, frame(&[1.0, 1.0], 0));
        r.heatmap_row_with(1, frame(&[1.0, 1.0], 1));
        r.heatmap_row_with(2, frame(&[0.0, 1.0], 1));
        assert!(r.heatmap_repeat(3, 0));
        // A gap breaks the run even when the row matches.
        r.heatmap_row_with(5, frame(&[0.0, 1.0], 0));
        assert_eq!(r.heatmap_len(), 5);
        assert_eq!(r.heatmap.len(), 3);
        assert_eq!(
            r.heatmap_csv(),
            "interval,d0,d1\n0,1,1\n1,1,1\n2,1,0\n3,0,1\n5,0,1\n"
        );
    }
}
