//! The harness layer the per-plane grid bins share.
//!
//! Every grid compares an armed run against its own unarmed twin on the
//! same farm, the paper's matched-comparison method (Fig. 8, Table 4).
//! This module holds what each of them needs for that, once:
//!
//! * [`run_cells`] — a cells × arms runner: every arm of every cell,
//!   the unarmed baselines included, goes through one `run_batch` call,
//!   and arm 0 of each cell is the baseline its other arms are read
//!   against;
//! * [`pct_of`] / [`ratio_of`] — the one zero-baseline rule for the
//!   ratios, and [`success_pct`] for pooled success counts;
//! * [`write_json`] / [`write_csv`] — the artifact writers, the CSV
//!   header taken from the same `Serialize` row as the values;
//! * [`Bound::gate`] — the CI floor/ceiling check, with [`perf_strict`]
//!   the one reader of `CI_PERF_STRICT`.

use crate::HarnessOpts;
use serde::{Serialize, Value};
use ss_server::experiment::run_batch;
use ss_server::{RunReport, ServerConfig};

/// Runs every arm of every cell through one [`run_batch`] call across
/// `threads` strands and returns the reports in cells × arms order,
/// whatever the thread count. Arm 0 of each cell is its unarmed
/// baseline; cells may carry different numbers of arms.
pub fn run_cells(cells: Vec<Vec<ServerConfig>>, threads: usize) -> Vec<Vec<RunReport>> {
    let arms: Vec<usize> = cells.iter().map(Vec::len).collect();
    let mut reports = run_batch(cells.into_iter().flatten().collect(), threads).into_iter();
    arms.into_iter()
        .map(|n| reports.by_ref().take(n).collect())
        .collect()
}

/// `x / base`. A baseline with no throughput has nothing to compare
/// against, so the ratio is undefined: NaN, which the JSON artifacts
/// write as `null` and [`Bound::gate`] counts as a miss.
pub fn ratio_of(x: f64, base: f64) -> f64 {
    if base > 0.0 {
        x / base
    } else {
        f64::NAN
    }
}

/// `x` as a percentage of `base`, under [`ratio_of`]'s zero-baseline
/// rule — every grid's retention column.
pub fn pct_of(x: f64, base: f64) -> f64 {
    ratio_of(100.0 * x, base)
}

/// `done` as a percentage of `of`: 100 when there was nothing to do, so
/// a run with no journal recovery reads as a vacuous success and a
/// success floor reads uniformly over a grid.
pub fn success_pct(done: u64, of: u64) -> f64 {
    if of == 0 {
        100.0
    } else {
        100.0 * done as f64 / of as f64
    }
}

/// Writes `report` as pretty JSON to `<out>/<name>` and echoes it on
/// stdout.
pub fn write_json(opts: &HarnessOpts, name: &str, report: &impl Serialize) {
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    opts.write_artifact(name, &format!("{json}\n"));
    println!("{json}");
}

/// Writes `rows` as CSV to `<out>/<name>`. The header is the row
/// struct's field names in declaration order; floats print to 3
/// decimals (percentages, the `_pct` columns, to 2) and `None` as an
/// empty cell.
///
/// # Panics
///
/// If a row does not serialize as a struct of scalars.
pub fn write_csv<T: Serialize>(opts: &HarnessOpts, name: &str, rows: &[T]) {
    opts.write_artifact(name, &csv(rows));
}

/// The CSV text [`write_csv`] writes.
fn csv<T: Serialize>(rows: &[T]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let Value::Map(fields) = row.to_value() else {
            panic!("a CSV row serializes as a struct");
        };
        if i == 0 {
            let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            out.push_str(&names.join(","));
            out.push('\n');
        }
        let cells: Vec<String> = fields
            .iter()
            .map(|(k, v)| match v {
                Value::Null => String::new(),
                Value::Bool(b) => b.to_string(),
                Value::U64(n) => n.to_string(),
                Value::I64(n) => n.to_string(),
                Value::F64(x) if k.ends_with("_pct") => format!("{x:.2}"),
                Value::F64(x) => format!("{x:.3}"),
                Value::Str(s) => s.clone(),
                Value::Seq(_) | Value::Map(_) => panic!("CSV column `{k}` is not a scalar"),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// The side of its threshold a gated headline must stay on.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// The headline must be at least this.
    Floor(f64),
    /// The headline must be at most this.
    Ceiling(f64),
}

impl Bound {
    /// Checks the CI headline `what = value` against this bound, reports
    /// the verdict on stderr, and returns whether the run may still pass.
    /// A non-finite value is a miss: NaN compares false against every
    /// threshold, so a bare `value < floor` test would wave it through.
    /// Without `strict` a miss is downgraded to a warning; callers pass
    /// [`perf_strict`] for the perf gates and `true` for correctness
    /// gates, which nothing downgrades.
    pub fn gate(self, what: &str, value: f64, strict: bool) -> bool {
        let (held, rule) = match self {
            Bound::Floor(t) => (value >= t, format!("floor {t}")),
            Bound::Ceiling(t) => (value <= t, format!("ceiling {t}")),
        };
        if held && value.is_finite() {
            eprintln!("gate ok: {what} = {value:.2} ({rule})");
            true
        } else if strict {
            eprintln!("gate FAIL: {what} = {value:.2} misses its {rule}");
            false
        } else {
            eprintln!("gate WARNING: {what} = {value:.2} misses its {rule} (CI_PERF_STRICT=0)");
            true
        }
    }
}

/// Whether a perf gate's miss fails the run: `CI_PERF_STRICT=0`
/// downgrades it to a warning on noisy shared runners. The one reader of
/// the variable.
pub fn perf_strict() -> bool {
    std::env::var("CI_PERF_STRICT").map_or(true, |v| v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_zero_pairs_with_its_own_cell_at_any_thread_count() {
        // `stations` tells the cells apart, the scheme the arms.
        let cfg = |stations, vdr| {
            let mut c = if vdr {
                ServerConfig::small_vdr_test(stations, 7)
            } else {
                ServerConfig::small_test(stations, 7)
            };
            c.measure = ss_types::SimDuration::from_secs(120);
            c
        };
        let cells = || vec![vec![cfg(1, false), cfg(1, true)], vec![cfg(2, false)]];
        let serial = run_cells(cells(), 1);
        assert_eq!(serial.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1]);
        for (i, runs) in serial.iter().enumerate() {
            assert!(runs.iter().all(|r| r.stations == i as u32 + 1), "cell {i}");
            assert_eq!(runs[0].scheme, "striping", "arm 0 is the baseline");
        }
        assert_eq!(serial[0][1].scheme, "vdr");
        assert_eq!(run_cells(cells(), 3), serial);
    }

    #[test]
    fn zero_baselines_make_ratios_undefined() {
        assert_eq!((pct_of(45.0, 50.0), ratio_of(7.0, 2.0)), (90.0, 3.5));
        assert!(pct_of(0.0, 0.0).is_nan() && ratio_of(3.0, 0.0).is_nan());
        assert_eq!((success_pct(0, 0), success_pct(3, 4)), (100.0, 75.0));
    }

    #[derive(Serialize)]
    struct Row {
        scheme: &'static str,
        crash: bool,
        displays_per_hour: f64,
        retention_pct: f64,
        parity_group: Option<u32>,
    }

    #[test]
    fn csv_header_follows_the_row_struct() {
        let row = |scheme, crash, displays_per_hour, retention_pct, parity_group| Row {
            scheme,
            crash,
            displays_per_hour,
            retention_pct,
            parity_group,
        };
        let rows = [
            row("striping", false, 488.0, 98.387, Some(5)),
            row("vdr", true, 1.0 / 3.0, f64::NAN, None),
        ];
        assert_eq!(
            csv(&rows),
            "scheme,crash,displays_per_hour,retention_pct,parity_group\n\
             striping,false,488.000,98.39,5\n\
             vdr,true,0.333,NaN,\n"
        );
    }

    #[test]
    fn gates_hold_their_bounds_and_never_pass_nan() {
        assert!(Bound::Floor(80.0).gate("floor", 80.0, true));
        assert!(!Bound::Floor(80.0).gate("floor", 79.9, true));
        assert!(Bound::Ceiling(10.0).gate("ceiling", 10.0, true));
        assert!(!Bound::Ceiling(10.0).gate("ceiling", 10.1, true));
        assert!(!Bound::Floor(70.0).gate("nan floor", f64::NAN, true));
        assert!(!Bound::Ceiling(10.0).gate("nan ceiling", f64::NAN, true));
        assert!(!Bound::Floor(2.0).gate("inf floor", f64::INFINITY, true));
        // Without `strict` (CI_PERF_STRICT=0) a miss only warns.
        assert!(Bound::Floor(2.0).gate("floor", 1.0, false));
        assert!(Bound::Ceiling(10.0).gate("nan ceiling", f64::NAN, false));
    }
}
