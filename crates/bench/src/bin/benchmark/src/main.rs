//! The repository benchmark: four closed-loop workloads measured end to
//! end (host wall time, set-up time, peak memory, and the simulated
//! throughput and startup latency the paper reports) and, with `--trace`,
//! layer by layer.
//!
//! ```text
//! benchmark [--seed N] [--reps R] [--trace] [--quick]       every workload
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --compare A.json B.json
//! ```
//!
//! Every repetition of a workload runs in a fresh child process (this
//! binary re-executed), so each gets a cold allocator and its own peak
//! resident set. Repetitions interleave round-robin across workloads.
//! With `--workload` the run prints one JSON object as its last line of
//! standard output: the median of every end-to-end metric, or with
//! `--trace 1` every per-layer metric. Without it the run prints a table
//! and writes `bench-out/benchmark/results.json`. See `README.md`.

mod compare;
mod layers;
mod spans;
mod stats;
mod workload;

use compare::get;
use serde::Serialize as _;
use serde_json::Value;
use spans::Span;
use stats::{iqr, median};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::Workload;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--reps R] [--seconds S] \
                     [--trace [0|1]] [--quick] | --compare A.json B.json";

/// Digests of every workload's reports at the pinned seed.
const PINNED_JSON: &str = include_str!("../pinned.json");
const PINNED_SEED: u64 = 1994;

/// Where runs write their artifacts, relative to the working directory.
const OUT_DIR: &str = "bench-out/benchmark";

/// A child's spans must be covered by their children to within this
/// share.
const COVERAGE_TOLERANCE: f64 = 0.02;

/// Fewest repetitions a timed run makes, so they can be checked against
/// each other.
const MIN_REPS: usize = 2;

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildKind {
    Rep,
    Layers,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
    child: Option<ChildKind>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: PINNED_SEED,
            reps: 5,
            seconds: None,
            trace: false,
            quick: false,
            compare: None,
            child: None,
        }
    }
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{a} takes {what}; {USAGE}"))
        };
        match a.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                out.seed = value("an integer")?
                    .parse()
                    .map_err(|_| format!("--seed takes an integer; {USAGE}"))?;
            }
            "--reps" => {
                out.reps = value("an integer")?
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or_else(|| format!("--reps takes an integer of at least 1; {USAGE}"))?;
            }
            "--seconds" => {
                out.seconds = Some(
                    value("a number")?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds takes a positive number; {USAGE}"))?,
                );
            }
            // Bare `--trace`, or `--trace 0|1` as benchmark runners pass it.
            "--trace" => {
                out.trace = args.peek().map(String::as_str) != Some("0");
                if matches!(args.peek().map(String::as_str), Some("0" | "1")) {
                    args.next();
                }
            }
            "--quick" => out.quick = true,
            "--compare" => {
                let a = value("two result files")?;
                let b = value("two result files")?;
                out.compare = Some((a, b));
            }
            "--child" => {
                out.child = Some(match value("a kind")?.as_str() {
                    "rep" => ChildKind::Rep,
                    "layers" => ChildKind::Layers,
                    other => return Err(format!("unknown child kind {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}; {USAGE}")),
        }
    }
    if out.child.is_some() && out.workload.is_none() {
        return Err("--child needs --workload".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.child, &args.compare) {
        (Some(kind), _) => run_child(kind, &args),
        (None, Some((a, b))) => run_compare(a, b),
        (None, None) => run_benchmark(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one rep or one traced pass and prints it as a JSON line.
fn run_child(kind: ChildKind, args: &Args) -> Result<bool, String> {
    let w = args.workload.expect("checked by parse_args");
    let json = match kind {
        ChildKind::Rep => workload::run_rep(w, args.seed, args.quick)?.to_json(),
        ChildKind::Layers => layers::run_layers(w, args.seed, args.quick)?.to_json(),
    };
    println!("{}", serde_json::to_string(&json).expect("JSON renders"));
    Ok(true)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let (ok, merged) = compare::run(a, b)?;
    write_artifact("compare.json", &merged)?;
    Ok(ok)
}

/// Re-executes this binary as a child and parses the JSON line it
/// prints last. Waits for the child to exit.
fn spawn(kind: &str, w: Workload, seed: u64, quick: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed = seed.to_string();
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", w.name(), "--seed", &seed]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} {kind} child failed: {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line)
        .map_err(|e| format!("{} {kind} child printed {line:?}: {e}", w.name()))
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(compare::num)
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    match get(v, key)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn pinned_digest(w: Workload, quick: bool) -> String {
    let pinned: Value = serde_json::from_str(PINNED_JSON).expect("pinned.json is JSON");
    get(&pinned, if quick { "quick" } else { "full" })
        .and_then(|m| get_str(m, w.name()))
        .expect("pinned.json pins every workload")
}

/// Everything measured for one workload in this run.
struct Tally {
    w: Workload,
    cells: u64,
    attempted: u64,
    failed: u64,
    reps: Vec<Value>,
    rep_s: Vec<f64>,
    digest: Option<String>,
    layers: Option<Value>,
    spans: Vec<Span>,
}

impl Tally {
    fn new(w: Workload, seed: u64, quick: bool) -> Tally {
        Tally {
            w,
            cells: w.cells(seed, quick).len() as u64,
            attempted: 0,
            failed: 0,
            reps: Vec::new(),
            rep_s: Vec::new(),
            digest: None,
            layers: None,
            spans: Vec::new(),
        }
    }

    fn fail(&mut self, cells: u64, why: &str) {
        eprintln!("FAILED {}: {why}", self.w.name());
        self.failed += cells;
    }

    /// Counts each broken cell check a child reported as a failed cell.
    fn check_violations(&mut self, out: &Value) -> bool {
        let Some(Value::Seq(v)) = get(out, "violations") else {
            return true;
        };
        for x in v {
            self.fail(1, &format!("{x:?}"));
        }
        v.is_empty()
    }

    /// One quick rep at the pinned seed against its pinned digest, so a
    /// run at any seed still checks the program's output against known
    /// good values.
    fn gate(&mut self) {
        let cells = self.w.cells(PINNED_SEED, true).len() as u64;
        self.attempted += cells;
        let pinned = pinned_digest(self.w, true);
        match spawn("rep", self.w, PINNED_SEED, true) {
            Err(e) => self.fail(cells, &e),
            Ok(rep) => {
                let digest = get_str(&rep, "digest").unwrap_or_default();
                if digest != pinned {
                    self.fail(
                        cells,
                        &format!("quick reports digest {digest}, pinned {pinned}"),
                    );
                }
                self.check_violations(&rep);
            }
        }
    }

    /// Checks a pass's report digest against the first one seen (and the
    /// pinned one at the pinned seed); false on a mismatch.
    fn agree(&mut self, what: &str, digest: String, pinned: Option<&str>) -> bool {
        let reference = self.digest.get_or_insert_with(|| digest.clone()).clone();
        let why = if digest != reference {
            format!("{what} reports digest {digest}, earlier passes {reference}")
        } else if pinned.is_some_and(|p| p != digest) {
            format!(
                "{what} reports digest {digest}, pinned {}",
                pinned.unwrap_or_default()
            )
        } else {
            return true;
        };
        self.fail(self.cells, &why);
        false
    }

    fn record_rep(&mut self, rep: Result<Value, String>, pinned: Option<&str>, secs: f64) {
        self.attempted += self.cells;
        let rep = match rep {
            Ok(r) => r,
            Err(e) => return self.fail(self.cells, &e),
        };
        let digest = get_str(&rep, "digest").unwrap_or_default();
        if self.agree("rep", digest, pinned) {
            self.check_violations(&rep);
            self.rep_s.push(secs);
            self.reps.push(rep);
        }
    }

    fn samples(&self, metric: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter_map(|r| get_f64(r, metric))
            .collect()
    }

    fn record_layers(&mut self, pass: Result<Value, String>) {
        self.attempted += self.cells;
        let pass = match pass {
            Ok(p) => p,
            Err(e) => return self.fail(self.cells, &e),
        };
        if let Some(Value::Map(digests)) = get(&pass, "digests") {
            for (what, d) in digests {
                let d = match d {
                    Value::Str(d) => d.clone(),
                    _ => String::new(),
                };
                if !self.agree(&format!("traced pass ({what})"), d, None) {
                    return;
                }
            }
        }
        if !self.check_violations(&pass) {
            return;
        }
        let checked = get(&pass, "spans")
            .ok_or_else(|| "traced pass returned no spans".to_string())
            .and_then(spans::from_json)
            .and_then(|s| spans::check_coverage(&s, COVERAGE_TOLERANCE).map(|()| s));
        match checked {
            Ok(spans) => {
                self.spans = spans;
                self.layers = Some(pass);
            }
            Err(e) => self.fail(self.cells, &format!("span self-check: {e}")),
        }
    }

    /// The per-layer metrics of the traced pass, with the trace overhead
    /// measured against the untraced median.
    fn layer_metrics(&self) -> Vec<(String, f64)> {
        let Some(pass) = &self.layers else {
            return Vec::new();
        };
        let mut out: Vec<(String, f64)> = match get(pass, "metrics") {
            Some(Value::Map(m)) => m
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::F64(x) => Some((k.clone(), *x)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        let traced = get_f64(pass, "traced_wall_s").unwrap_or(0.0);
        if let Some(untraced) = median(&self.samples("wall_s")) {
            out.push((
                "trace_overhead_pct".into(),
                100.0 * (traced - untraced) / untraced,
            ));
        }
        out
    }
}

/// The workloads, reps, traced passes and checks of one run.
fn run_benchmark(args: &Args) -> Result<bool, String> {
    let spec = compare::spec();
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut tallies: Vec<Tally> = workloads
        .iter()
        .map(|&w| Tally::new(w, args.seed, args.quick))
        .collect();
    let cores = workload::cores_available();
    eprintln!(
        "benchmark: seed {}, {} mode, {cores} cores available",
        args.seed,
        if args.quick { "quick" } else { "full" }
    );

    if args.seconds.is_some() && !args.quick && args.seed != PINNED_SEED {
        for t in &mut tallies {
            t.gate();
        }
    }
    let pinned: Vec<Option<String>> = workloads
        .iter()
        .map(|&w| (args.seed == PINNED_SEED).then(|| pinned_digest(w, args.quick)))
        .collect();
    let start = Instant::now();
    for rep in 0.. {
        let done = match args.seconds {
            None => rep >= args.reps,
            Some(budget) => {
                let spent: f64 = tallies.iter().flat_map(|t| &t.rep_s).sum();
                let per_rep = if rep == 0 { 0.0 } else { spent / rep as f64 };
                rep >= MIN_REPS && start.elapsed().as_secs_f64() + per_rep > budget
            }
        };
        if done {
            break;
        }
        for (t, pin) in tallies.iter_mut().zip(&pinned) {
            let t0 = Instant::now();
            let rep = spawn("rep", t.w, args.seed, args.quick);
            t.record_rep(rep, pin.as_deref(), t0.elapsed().as_secs_f64());
        }
    }
    if args.trace {
        for t in &mut tallies {
            let pass = spawn("layers", t.w, args.seed, args.quick);
            t.record_layers(pass);
        }
    }

    for t in &tallies {
        eprint!("{}", render_table(t, &spec, args));
    }
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    eprintln!(
        "failed runs: {failed} of {attempted} cell runs ({:.2}%)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    if args.trace {
        write_traces(&tallies, args, cores)?;
    }
    if args.workload.is_none() {
        let name = if args.quick {
            "results.quick.json"
        } else {
            "results.json"
        };
        write_artifact(name, &results_json(&tallies, &spec, args, cores))?;
        return Ok(failed == 0);
    }

    // One workload: the last line of standard output is the result.
    let t = &tallies[0];
    let metrics: Vec<(String, Value)> = if args.trace {
        let measured = t.layer_metrics();
        spec.per_layer
            .iter()
            .filter_map(|m| {
                let v = measured.iter().find(|(k, _)| *k == m.name)?.1;
                Some((m.name.clone(), metric_value(v, &m.unit)))
            })
            .collect()
    } else {
        spec.end_to_end
            .iter()
            .filter_map(|m| {
                let v = median(&t.samples(&m.name))?;
                Some((m.name.clone(), metric_value(v, &m.unit)))
            })
            .collect()
    };
    let wanted = if args.trace {
        spec.per_layer.len()
    } else {
        spec.end_to_end.len()
    };
    let complete = metrics.len() == wanted;
    let correct = failed == 0 && complete;
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("JSON renders"));
    Ok(correct)
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Map(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn render_table(t: &Tally, spec: &compare::Spec, args: &Args) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n{} — {} cells × {} reps, seed {}{}",
        t.w.name(),
        t.cells,
        t.reps.len(),
        args.seed,
        t.digest
            .as_ref()
            .map_or(String::new(), |d| format!(", digest {d}"))
    );
    let _ = writeln!(
        out,
        "  {:<44} {:<10} {:>16} {:>14}",
        "metric", "unit", "median", "IQR"
    );
    for m in &spec.end_to_end {
        let xs = t.samples(&m.name);
        if let Some(med) = median(&xs) {
            let _ = writeln!(
                out,
                "  {:<44} {:<10} {med:>16.6} {:>14.6}",
                m.name,
                m.unit,
                iqr(&xs)
            );
        }
    }
    for (name, v) in t.layer_metrics() {
        let unit = spec
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit.as_str());
        let _ = writeln!(out, "  {name:<44} {unit:<10} {v:>16.6}");
    }
    out
}

/// One results set: per workload, every rep's end-to-end samples and
/// (when traced) the per-layer metrics. `--compare` reads these.
fn results_json(tallies: &[Tally], spec: &compare::Spec, args: &Args, cores: usize) -> Value {
    let workloads = tallies
        .iter()
        .map(|t| {
            let samples = spec
                .end_to_end
                .iter()
                .map(|m| (m.name.clone(), t.samples(&m.name).to_value()))
                .collect();
            let layers = t
                .layer_metrics()
                .into_iter()
                .map(|(k, v)| (k, Value::F64(v)))
                .collect();
            let fields = vec![
                ("cells".into(), Value::U64(t.cells)),
                ("digest".into(), t.digest.clone().to_value()),
                ("attempted".into(), Value::U64(t.attempted)),
                ("failed".into(), Value::U64(t.failed)),
                ("samples".into(), Value::Map(samples)),
                ("layers".into(), Value::Map(layers)),
            ];
            (t.w.name().to_string(), Value::Map(fields))
        })
        .collect();
    let set = Value::Map(vec![
        ("seed".into(), Value::U64(args.seed)),
        ("quick".into(), Value::Bool(args.quick)),
        (
            "reps".into(),
            Value::U64(tallies.first().map_or(0, |t| t.reps.len() as u64)),
        ),
        ("cores_available".into(), Value::U64(cores as u64)),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    Value::Map(vec![("sets".into(), Value::Seq(vec![set]))])
}

/// `spans.json` (Chrome trace, one process per workload) and
/// `layers.json` (metrics with the end-to-end metric each should move,
/// self time per span name, tick and event counts).
fn write_traces(tallies: &[Tally], args: &Args, cores: usize) -> Result<(), String> {
    let mut tracks = Vec::new();
    let mut per_workload = Vec::new();
    for t in tallies {
        let Some(pass) = &t.layers else { continue };
        let self_rows = spans::self_times(&t.spans)
            .into_iter()
            .map(|(name, count, total, own)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(name)),
                    ("count".into(), Value::U64(count)),
                    ("total_s".into(), Value::F64(total as f64 / 1e9)),
                    ("self_s".into(), Value::F64(own as f64 / 1e9)),
                ])
            })
            .collect();
        let measured = t.layer_metrics();
        let metrics = layers::LAYER_MAP
            .iter()
            .filter_map(|(name, moves, on)| {
                let v = measured.iter().find(|(k, _)| k == name)?.1;
                Some((
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(v)),
                        ("moves".into(), Value::Str(moves.to_string())),
                        ("on".into(), Value::Str(on.to_string())),
                    ]),
                ))
            })
            .collect();
        let field = |k: &str| get(pass, k).cloned().unwrap_or(Value::Null);
        per_workload.push((
            t.w.name().to_string(),
            Value::Map(vec![
                ("metrics".into(), Value::Map(metrics)),
                ("spans".into(), Value::Seq(self_rows)),
                ("ticks".into(), field("ticks")),
                ("events".into(), field("events")),
            ]),
        ));
        tracks.push((t.w.name().to_string(), t.spans.clone()));
    }
    write_artifact("spans.json", &spans::chrome_trace(&tracks))?;
    let layers = Value::Map(vec![
        ("seed".into(), Value::U64(args.seed)),
        ("quick".into(), Value::Bool(args.quick)),
        ("cores_available".into(), Value::U64(cores as u64)),
        ("workloads".into(), Value::Map(per_workload)),
    ]);
    write_artifact("layers.json", &layers)
}

fn write_artifact(name: &str, v: &Value) -> Result<(), String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = dir.join(name);
    let json = serde_json::to_string_pretty(v).expect("JSON renders");
    std::fs::write(&path, json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, Args::default());
        assert_eq!((a.seed, a.reps, a.trace, a.quick), (1994, 5, false, false));
    }

    #[test]
    fn timed_single_workload_form_parses() {
        let a = parse(&[
            "--workload",
            "farm_100k",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Farm100k));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), true));
        let a = parse(&["--workload", "obs", "--trace", "0", "--quick"]).unwrap();
        assert!(!a.trace && a.quick);
    }

    #[test]
    fn bare_trace_and_compare_parse() {
        let a = parse(&["--trace", "--reps", "3"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.reps, 3);
        let a = parse(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(a.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "fig9"][..],
            &["--workload"],
            &["--seed", "x"],
            &["--reps", "0"],
            &["--seconds", "-1"],
            &["--seconds", "inf"],
            &["--compare", "a.json"],
            &["--child", "rep"],
            &["--child", "other", "--workload", "obs"],
            &["--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn every_workload_has_pinned_digests() {
        for w in Workload::ALL {
            for quick in [false, true] {
                let d = pinned_digest(w, quick);
                assert_eq!(d.len(), 16, "{} quick={quick}", w.name());
            }
        }
    }
}
