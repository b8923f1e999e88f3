//! The metric definitions from `BENCHMARK.json`, and `--compare A B`:
//! for each workload and end-to-end metric, the medians and quartile
//! spreads of both sides and a verdict by the rule the benchmark's
//! bounds define.

use crate::stats::{iqr, median};
use serde_json::Value;
use std::fmt::Write as _;

/// The benchmark definition, compiled in so the binary and the file can
/// never disagree about names, units, directions or bounds.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the binary uses.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn str_field(m: &[(String, Value)], k: &str) -> Result<String, String> {
    match serde::field(m, k) {
        Some(Value::Str(s)) => Ok(s.clone()),
        other => Err(format!("`{k}` should be a string, got {other:?}")),
    }
}

/// Field `key` of a JSON object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map("object").ok().and_then(|m| serde::field(m, key))
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn metric_defs(top: &[(String, Value)], key: &str) -> Result<Vec<MetricDef>, String> {
    let list = serde::field(top, key).ok_or_else(|| format!("no `{key}`"))?;
    list.as_seq(key)
        .map_err(|e| e.0)?
        .iter()
        .map(|m| {
            let m = m.as_map(key).map_err(|e| e.0)?;
            let better = match str_field(m, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("`better` is \"{other}\"")),
            };
            Ok(MetricDef {
                name: str_field(m, "name")?,
                unit: str_field(m, "unit")?,
                better,
                bound: serde::field(m, "bound").and_then(num),
            })
        })
        .collect()
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.0)?;
    let top = v.as_map("BENCHMARK.json").map_err(|e| e.0)?;
    let workloads = serde::field(top, "workloads")
        .ok_or("no `workloads`")?
        .as_seq("workloads")
        .map_err(|e| e.0)?
        .iter()
        .map(|w| str_field(w.as_map("workload").map_err(|e| e.0)?, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        workloads,
        end_to_end: metric_defs(top, "end_to_end")?,
        per_layer: metric_defs(top, "per_layer")?,
    })
}

/// The compiled-in `BENCHMARK.json`.
pub fn spec() -> Spec {
    parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

fn beats(x: f64, y: f64, better: Better) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// The verdict on samples `b` (the change) against samples `a` (the
/// baseline), paired in order:
///
/// * improved — at least ten pairs, `b` wins at least nine tenths of
///   them (ties count for neither side), and the medians differ in `b`'s
///   favour by more than `a`'s interquartile range;
/// * unresolved — `a`'s own spread is wider than the bound, unless every
///   `b` beats every `a`;
/// * regressed — `b`'s median is worse than `a`'s by more than the bound;
/// * unchanged — otherwise.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| beats(**y, **x, better))
        .count();
    if pairs >= 10 && wins * 10 >= 9 * pairs && beats(mb, ma, better) && (mb - ma).abs() > iqr(a) {
        return Verdict::Improved;
    }
    let spread = if ma == 0.0 { 0.0 } else { iqr(a) / ma.abs() };
    let dominates = b.iter().all(|y| a.iter().all(|x| beats(*y, *x, better)));
    if spread > bound && !dominates {
        return Verdict::Unresolved;
    }
    if worse_by(ma, mb, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Samples of `metric` on `workload`, pooled over every set of a results
/// file (`{"sets": [...]}`).
fn pooled(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Value::Seq(sets)) = get(results, "sets") else {
        return Vec::new();
    };
    sets.iter()
        .filter_map(|set| {
            let samples = get(get(get(set, "workloads")?, workload)?, "samples")?;
            match get(samples, metric)? {
                Value::Seq(xs) => Some(xs.iter().filter_map(num)),
                _ => None,
            }
        })
        .flatten()
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {}", e.0))
}

/// `--compare A B`: prints the verdict table, and returns it together
/// with a results file holding both sides' sets (so comparing two sets of
/// one commit yields a two-set baseline). `Ok(false)` when any pair
/// regressed.
pub fn run(a_path: &str, b_path: &str) -> Result<(bool, Value), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = spec();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<10} {:<18} {:>14} {:>11} {:>3}  {:>14} {:>11} {:>3}  {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A IQR", "n", "B median", "B IQR", "n", "change", "bound"
    );
    let mut rows = Vec::new();
    let mut ok = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (xs, ys) = (pooled(&a, w, &m.name), pooled(&b, w, &m.name));
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&xs, &ys, m.better, bound);
            ok &= v != Verdict::Regressed;
            let (ma, mb) = (median(&xs).unwrap_or(0.0), median(&ys).unwrap_or(0.0));
            let change = if ma == 0.0 {
                0.0
            } else {
                100.0 * (mb - ma) / ma
            };
            let _ = writeln!(
                table,
                "{w:<10} {:<18} {ma:>14.6} {:>11.6} {:>3}  {mb:>14.6} {:>11.6} {:>3}  {change:>+7.2}% {:>5.1}%  {}",
                m.name,
                iqr(&xs),
                xs.len(),
                iqr(&ys),
                ys.len(),
                100.0 * bound,
                v.label()
            );
            rows.push(Value::Map(vec![
                ("workload".into(), Value::Str(w.clone())),
                ("metric".into(), Value::Str(m.name.clone())),
                ("unit".into(), Value::Str(m.unit.clone())),
                ("a_median".into(), Value::F64(ma)),
                ("a_iqr".into(), Value::F64(iqr(&xs))),
                ("a_n".into(), Value::U64(xs.len() as u64)),
                ("b_median".into(), Value::F64(mb)),
                ("b_iqr".into(), Value::F64(iqr(&ys))),
                ("b_n".into(), Value::U64(ys.len() as u64)),
                ("change_pct".into(), Value::F64(change)),
                ("bound_pct".into(), Value::F64(100.0 * bound)),
                ("verdict".into(), Value::Str(v.label().into())),
            ]));
        }
    }
    if rows.is_empty() {
        return Err(format!("{a_path} and {b_path} share no workload"));
    }
    print!("{table}");
    let sets = |v: &Value| match get(v, "sets") {
        Some(Value::Seq(s)) => s.clone(),
        _ => Vec::new(),
    };
    let merged = Value::Map(vec![
        ("sets".into(), Value::Seq([sets(&a), sets(&b)].concat())),
        ("verdicts".into(), Value::Seq(rows)),
    ]);
    Ok((ok, merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_with_bounded_end_to_end_metrics() {
        let s = spec();
        assert_eq!(s.workloads, ["fig8", "farm_100k", "degraded", "obs"]);
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time carries the largest bound"
        );
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn every_layer_metric_is_declared_and_mapped() {
        let declared: Vec<String> = spec().per_layer.into_iter().map(|m| m.name).collect();
        let mapped: Vec<String> = crate::layers::LAYER_MAP
            .iter()
            .map(|(n, _, _)| n.to_string())
            .collect();
        assert_eq!(declared, mapped);
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        // Same distribution: unchanged.
        assert_eq!(
            verdict(&base, &base, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 5% slower, inside a 10% bound: unchanged.
        let slower: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 20% slower: regressed.
        let much_slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&base, &much_slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // 20% faster on every pair: improved; higher-is-better mirrors it.
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
        // Faster, but with fewer than ten pairs: no gain can be claimed.
        assert_eq!(
            verdict(&base[..5], &faster[..5], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Exact metrics: any change is a regression or (with ten pairs) a gain.
        let exact = [100.0; 10];
        assert_eq!(
            verdict(&exact, &exact, Better::Higher, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&exact, &[99.0; 10], Better::Higher, 0.0),
            Verdict::Regressed
        );
        // Baseline spread wider than the bound: unresolved, unless every
        // run of the change beats every run of the baseline.
        let noisy = [5.0, 10.0, 15.0, 20.0, 5.0, 10.0, 15.0, 20.0];
        let same_noise = [6.0, 9.0, 16.0, 19.0, 6.0, 9.0, 16.0, 19.0];
        assert_eq!(
            verdict(&noisy, &same_noise, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[1.0; 8], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[], &base, Better::Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn samples_pool_across_sets() {
        let results: Value = serde_json::from_str(
            r#"{"sets": [
                {"workloads": {"fig8": {"samples": {"wall_s": [1.0, 2.0]}}}},
                {"workloads": {"fig8": {"samples": {"wall_s": [3.0]}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(pooled(&results, "fig8", "wall_s"), [1.0, 2.0, 3.0]);
        assert!(pooled(&results, "obs", "wall_s").is_empty());
    }
}
