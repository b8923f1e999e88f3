//! # ss-bench
//!
//! Benchmark harnesses regenerating every table and figure of the paper,
//! plus the perf-gate baseline. Engine timing, end to end and per layer,
//! is the repository benchmark's, a package of its own under
//! `src/bin/benchmark/`.
//!
//! Each `[[bin]]` target regenerates one artifact (run with
//! `cargo run --release -p ss-bench --bin <name>`):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig8` | Figure 8 (a,b,c): throughput vs stations, striping vs VDR |
//! | `table4` | Table 4: % improvement of striping over VDR |
//! | `fragment_size` | §3.1 numbers: effective bandwidth / waste / startup latency vs fragment size |
//! | `stride_sweep` | §3.2.2: stride ablation (k = 1 … D) |
//! | `timing_model` | Figure 2 quantities: T_switch masking and buffer sizing |
//! | `coalescing` | Figure 6: fragmented delivery + dynamic coalescing trace |
//! | `low_bandwidth` | Figure 7 / §3.2.3: pairing schedule and rounding waste |
//! | `mixed_media` | staggered vs simple striping under a media mix |
//! | `queue_policy` | §5: FCFS-with-skips vs smallest/largest-degree-first queueing |
//! | `ablation_materialize` | pipelined vs full materialization |
//! | `ablation_fragmentation` | contiguous vs time-fragmented admission |
//! | `fault_grid` | Figure 8 under 0/1/2 concurrent disk failures, with degraded-mode statistics |
//! | `crash_grid` | power-loss/torn-write recovery and scrub interference, both schemes |
//! | `node_grid` | node-outage retention with the farm split 1/2/4/8 ways |
//! | `sharing_capacity` | concurrent-display capacity with multicast batching + prefix caching |
//! | `perf_baseline` | `BENCH_engine.json`: Figure-8 grid wall-clocks and the perf regression gates |
//! | `trace_dump` | the event journal as JSONL, Perfetto JSON, or metric CSVs |
//! | `ops_report` | the SLO/QoS dashboard over a faulted replay |
//!
//! This library hosts the harness code the binaries share: CLI parsing
//! and output handling here, and the grid runner, artifact writers,
//! baseline merge and CI gates in [`grid`].

pub mod grid;

use ss_server::ServerConfig;
use std::io::Write as _;
use std::path::PathBuf;

/// Common harness options parsed from the command line: `--seed N`,
/// `--out DIR`, `--quick` (shrunken configuration for smoke-testing),
/// `--threads N`.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// RNG seed for the runs.
    pub seed: u64,
    /// Directory to drop CSV/JSON artifacts into (default: `bench-out`).
    pub out: PathBuf,
    /// Run a reduced-size configuration (CI smoke mode).
    pub quick: bool,
    /// Worker threads for batch runs.
    pub threads: usize,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            seed: 1994,
            out: PathBuf::from("bench-out"),
            quick: false,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

const USAGE: &str = "usage: [--seed N] [--out DIR] [--quick] [--threads N]";

/// Prints a usage error and exits with status 2.
fn usage_exit(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

impl HarnessOpts {
    /// Parses `std::env::args`, exiting with a usage message on bad
    /// input. Validation (e.g. `--threads >= 1`) happens here rather
    /// than as a downstream assertion so the operator sees a usage
    /// error, not a panic backtrace.
    pub fn from_args() -> Self {
        Self::from_args_with(|_, _| Ok(false))
    }

    /// [`Self::from_args`] with the binary's own flags layered on
    /// through [`Self::parse_with`].
    pub fn from_args_with(
        extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Self {
        Self::parse_with(std::env::args().skip(1), extra).unwrap_or_else(|msg| usage_exit(msg))
    }

    /// Parses an argument iterator (excluding `argv[0]`); returns a usage
    /// error string on bad input.
    pub fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut opts = HarnessOpts::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("--seed takes an integer; {USAGE}"))?;
                }
                "--out" => {
                    opts.out = PathBuf::from(
                        args.next()
                            .ok_or_else(|| format!("--out takes a path; {USAGE}"))?,
                    );
                }
                "--quick" => opts.quick = true,
                "--threads" => {
                    opts.threads = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("--threads takes an integer; {USAGE}"))?;
                    if opts.threads < 1 {
                        return Err(format!("--threads must be at least 1; {USAGE}"));
                    }
                }
                other => return Err(format!("unknown argument {other}; {USAGE}")),
            }
        }
        Ok(opts)
    }

    /// Parses an argument iterator like [`Self::parse_from`], but first
    /// offers every argument to `extra` along with the arguments after
    /// it: `extra` returns `true` to claim the flag, pulling the flag's
    /// value off the iterator if it takes one ([`flag_value`]), and
    /// `false` to leave it to the common set. This is how binaries layer
    /// their own flags over the common set without re-implementing the
    /// harness parsing.
    pub fn parse_with<I>(
        args: I,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut args = args.into_iter().map(Into::into);
        let mut rest = Vec::new();
        while let Some(a) = args.next() {
            if !extra(&a, &mut args)? {
                rest.push(a);
            }
        }
        Self::parse_from(rest)
    }

    /// Writes `contents` to `<out>/<name>`, creating the directory, and
    /// echoes the path.
    pub fn write_artifact(&self, name: &str, contents: &str) {
        std::fs::create_dir_all(&self.out).expect("create output directory");
        let path = self.out.join(name);
        let mut f = std::fs::File::create(&path).expect("create artifact");
        f.write_all(contents.as_bytes()).expect("write artifact");
        println!("wrote {}", path.display());
    }
}

/// The value of the flag `name` when `arg` is that flag, spelled
/// `name V` (taking the next argument) or `name=V`; `Ok(None)` when
/// `arg` is another flag. A missing value is the usage error
/// "`name` takes `takes`; `usage`".
pub fn flag_value(
    arg: &str,
    name: &str,
    takes: &str,
    usage: &str,
    rest: &mut dyn Iterator<Item = String>,
) -> Result<Option<String>, String> {
    if arg == name {
        return rest
            .next()
            .map(Some)
            .ok_or_else(|| format!("{name} takes {takes}; {usage}"));
    }
    Ok(arg
        .strip_prefix(name)
        .and_then(|v| v.strip_prefix('='))
        .map(str::to_string))
}

/// Loads the serialized [`ServerConfig`] a `--config PATH` flag names
/// (the JSON shape the test goldens use), exiting with status 2 when it
/// cannot be read or parsed.
pub fn load_config(path: &str) -> ServerConfig {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_exit(format!("cannot read {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| usage_exit(format!("cannot parse {path} as a ServerConfig: {e}")))
}

/// Options for the `fault_grid` harness: the common set plus the
/// self-healing knobs (`--parity[=G]`, `--rebuild[=R]`), the
/// rebuild-rate sweep (`--rebuild-sweep`), and stream sharing
/// (`--sharing[=W]`).
#[derive(Debug, Clone)]
pub struct FaultGridOpts {
    /// The common harness options.
    pub harness: HarnessOpts,
    /// Parity group size to arm on striping cells (`--parity[=G]`,
    /// default group 5).
    pub parity: Option<u32>,
    /// Hot-spare drain rate to arm on every cell (`--rebuild[=R]`,
    /// default 8 fragments per interval).
    pub rebuild: Option<u64>,
    /// Sweep the rebuild rate over the 1-failure striping cells.
    pub sweep: bool,
    /// Batching window (intervals) to arm stream sharing with on every
    /// cell (`--sharing[=W]`, default window 4): failure rows then
    /// measure one rescue covering a whole shared stream's viewers
    /// instead of one rescue per viewer.
    pub sharing: Option<u64>,
    /// Storage nodes to split each cell's farm across (`--nodes=N`).
    /// With `N > 1` the grid's failure axis injects whole-node outages
    /// (correlated failure of every disk the node owns) instead of
    /// single-disk failures, and the CSV's trailing columns report the
    /// interconnect counters.
    pub nodes: Option<u32>,
    /// Arm the crash plane on every cell (`--crash`): stochastic power
    /// losses and torn writes over the measurement window, recovered by
    /// journaled metadata replay.
    pub crash: bool,
    /// Scrub-daemon verification rate to arm on every cell
    /// (`--scrub[=RATE]`, default 2 fragments per interval — a 10%
    /// bandwidth tithe on the 20-disk quick farm).
    pub scrub: Option<u64>,
    /// Non-fatal diagnostics raised during parsing; `from_args` prints
    /// them to stderr.
    pub warnings: Vec<String>,
}

const FAULT_GRID_USAGE: &str =
    "usage: fault_grid [--parity[=G]] [--rebuild[=R]] [--rebuild-sweep] [--sharing[=W]] \
     [--nodes=N] [--crash] [--scrub[=RATE]] [--seed N] [--out DIR] [--quick] [--threads N]";

/// Parses one `fault_grid` knob spelled `spec` (`--flag=META`): `--flag`
/// alone yields `bare` when the knob has a default, `--flag=V` parses
/// `V`. `Ok(None)` when `arg` is another flag; `takes` names the value
/// in the parse error.
fn knob<T: std::str::FromStr>(
    arg: &str,
    spec: &str,
    bare: Option<T>,
    takes: &str,
) -> Result<Option<T>, String> {
    let flag = &spec[..spec.find('=').expect("knob spec is --flag=META")];
    if arg == flag && bare.is_some() {
        return Ok(bare);
    }
    match arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{spec} takes {takes}, got {v:?}; {FAULT_GRID_USAGE}")),
        None => Ok(None),
    }
}

impl FaultGridOpts {
    /// Parses `std::env::args`, printing warnings and exiting with a
    /// usage message on bad input.
    pub fn from_args() -> Self {
        let opts = Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|msg| usage_exit(msg));
        for w in &opts.warnings {
            eprintln!("{w}");
        }
        opts
    }

    /// Parses an argument iterator (excluding `argv[0]`); returns a usage
    /// error string on bad input. A `--rebuild-sweep` without `--rebuild`
    /// is accepted but flagged in `warnings`: the main grid then runs
    /// with the hot-spare rebuild disarmed, which is easy to mistake for
    /// a sweep over the whole grid.
    pub fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let (mut parity, mut rebuild, mut sharing, mut nodes, mut scrub) =
            (None, None, None, None, None);
        let (mut sweep, mut crash) = (false, false);
        let harness = HarnessOpts::parse_with(args, |a, _| {
            if let Some(v) = knob(a, "--parity=G", Some(5), "a group size")? {
                parity = Some(v);
            } else if let Some(v) = knob(a, "--rebuild=R", Some(8), "a drain rate")? {
                rebuild = Some(v);
            } else if a == "--rebuild-sweep" {
                sweep = true;
            } else if let Some(v) = knob(a, "--sharing=W", Some(4), "a batch window")? {
                sharing = Some(v);
            } else if let Some(v) = knob(a, "--nodes=N", None, "a node count")? {
                nodes = Some(v);
            } else if a == "--crash" {
                crash = true;
            } else if let Some(v) = knob(a, "--scrub=RATE", Some(2), "a verification rate")? {
                scrub = Some(v);
            } else {
                return Ok(false);
            }
            Ok(true)
        })?;
        for (zero, spec, needs) in [
            (
                parity == Some(0),
                "--parity=G",
                "a group of at least one data fragment",
            ),
            (
                rebuild == Some(0),
                "--rebuild=R",
                "a drain rate of at least one fragment per interval",
            ),
            (
                sharing == Some(0),
                "--sharing=W",
                "a batch window of at least one interval",
            ),
            (nodes == Some(0), "--nodes=N", "at least one node"),
            (
                scrub == Some(0),
                "--scrub=RATE",
                "at least one fragment per interval",
            ),
        ] {
            if zero {
                return Err(format!("{spec} needs {needs}; {FAULT_GRID_USAGE}"));
            }
        }
        let mut warnings = Vec::new();
        if sweep && rebuild.is_none() {
            warnings.push(
                "warning: --rebuild-sweep without --rebuild: the main grid runs with the \
                 hot-spare rebuild disarmed; only the sweep's own cells rebuild"
                    .to_string(),
            );
        }
        Ok(FaultGridOpts {
            harness,
            parity,
            rebuild,
            sweep,
            sharing,
            nodes,
            crash,
            scrub,
            warnings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = HarnessOpts::default();
        assert_eq!(o.seed, 1994);
        assert!(!o.quick);
        assert!(o.threads >= 1);
    }

    #[test]
    fn parse_rejects_zero_threads_at_parse_time() {
        let err = HarnessOpts::parse_from(["--threads", "0"]).unwrap_err();
        assert!(err.contains("--threads must be at least 1"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn parse_accepts_valid_options() {
        let o = HarnessOpts::parse_from(["--seed", "7", "--quick", "--threads", "3"]).unwrap();
        assert_eq!(o.seed, 7);
        assert!(o.quick);
        assert_eq!(o.threads, 3);
    }

    #[test]
    fn parse_rejects_unknown_flag() {
        assert!(HarnessOpts::parse_from(["--bogus"]).is_err());
        assert!(HarnessOpts::parse_from(["--seed", "notanumber"]).is_err());
    }

    #[test]
    fn fault_grid_defaults_and_explicit_values() {
        let o = FaultGridOpts::parse_from(["--parity", "--rebuild", "--seed", "3"]).unwrap();
        assert_eq!(o.parity, Some(5));
        assert_eq!(o.rebuild, Some(8));
        assert!(!o.sweep);
        assert_eq!(o.harness.seed, 3);
        assert!(o.warnings.is_empty());
        let o = FaultGridOpts::parse_from(["--parity=4", "--rebuild=16"]).unwrap();
        assert_eq!(o.parity, Some(4));
        assert_eq!(o.rebuild, Some(16));
    }

    #[test]
    fn fault_grid_sharing_flag() {
        let o = FaultGridOpts::parse_from(["--parity"]).unwrap();
        assert_eq!(o.sharing, None, "sharing stays off unless asked");
        let o = FaultGridOpts::parse_from(["--sharing"]).unwrap();
        assert_eq!(o.sharing, Some(4));
        let o = FaultGridOpts::parse_from(["--sharing=12", "--quick"]).unwrap();
        assert_eq!(o.sharing, Some(12));
        assert!(o.harness.quick);
        let err = FaultGridOpts::parse_from(["--sharing=0"]).unwrap_err();
        assert!(err.contains("at least one interval"), "{err}");
        let err = FaultGridOpts::parse_from(["--sharing=wide"]).unwrap_err();
        assert!(err.contains("--sharing=W takes a batch window"), "{err}");
    }

    #[test]
    fn fault_grid_nodes_flag() {
        let o = FaultGridOpts::parse_from(["--parity"]).unwrap();
        assert_eq!(o.nodes, None, "single-box grid unless asked");
        let o = FaultGridOpts::parse_from(["--nodes=4", "--quick"]).unwrap();
        assert_eq!(o.nodes, Some(4));
        assert!(o.harness.quick);
        let o = FaultGridOpts::parse_from(["--nodes=1"]).unwrap();
        assert_eq!(o.nodes, Some(1), "N = 1 is the explicit single-box split");
        let err = FaultGridOpts::parse_from(["--nodes=0"]).unwrap_err();
        assert!(err.contains("at least one node"), "{err}");
        let err = FaultGridOpts::parse_from(["--nodes=many"]).unwrap_err();
        assert!(err.contains("--nodes=N takes a node count"), "{err}");
    }

    #[test]
    fn fault_grid_crash_and_scrub_flags() {
        let o = FaultGridOpts::parse_from(["--parity"]).unwrap();
        assert!(!o.crash, "crash plane stays off unless asked");
        assert_eq!(o.scrub, None, "scrub stays off unless asked");
        let o = FaultGridOpts::parse_from(["--crash"]).unwrap();
        assert!(o.crash);
        let o = FaultGridOpts::parse_from(["--scrub"]).unwrap();
        assert_eq!(o.scrub, Some(2));
        let o = FaultGridOpts::parse_from(["--crash", "--scrub=50", "--quick"]).unwrap();
        assert!(o.crash);
        assert_eq!(o.scrub, Some(50));
        assert!(o.harness.quick);
        let err = FaultGridOpts::parse_from(["--scrub=0"]).unwrap_err();
        assert!(err.contains("at least one fragment per interval"), "{err}");
        let err = FaultGridOpts::parse_from(["--scrub=fast"]).unwrap_err();
        assert!(
            err.contains("--scrub=RATE takes a verification rate"),
            "{err}"
        );
    }

    #[test]
    fn fault_grid_rejects_degenerate_knobs() {
        let err = FaultGridOpts::parse_from(["--parity=0"]).unwrap_err();
        assert!(err.contains("at least one data fragment"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = FaultGridOpts::parse_from(["--rebuild=0"]).unwrap_err();
        assert!(err.contains("at least one fragment per interval"), "{err}");
        let err = FaultGridOpts::parse_from(["--parity=huge"]).unwrap_err();
        assert!(err.contains("--parity=G takes a group size"), "{err}");
        let err = FaultGridOpts::parse_from(["--rebuild=x"]).unwrap_err();
        assert!(err.contains("--rebuild=R takes a drain rate"), "{err}");
    }

    #[test]
    fn fault_grid_warns_on_sweep_without_rebuild() {
        let o = FaultGridOpts::parse_from(["--rebuild-sweep"]).unwrap();
        assert!(o.sweep);
        assert_eq!(o.warnings.len(), 1);
        assert!(o.warnings[0].contains("--rebuild-sweep without --rebuild"));
        // Arming the rebuild silences it.
        let o = FaultGridOpts::parse_from(["--rebuild-sweep", "--rebuild"]).unwrap();
        assert!(o.warnings.is_empty());
    }

    #[test]
    fn fault_grid_still_rejects_unknown_and_bad_common_flags() {
        assert!(FaultGridOpts::parse_from(["--bogus"]).is_err());
        assert!(FaultGridOpts::parse_from(["--threads", "0"]).is_err());
        let o = FaultGridOpts::parse_from(["--quick", "--parity=6"]).unwrap();
        assert!(o.harness.quick);
        assert_eq!(o.parity, Some(6));
    }

    #[test]
    fn artifacts_are_written() {
        let dir = std::env::temp_dir().join(format!("ss-bench-test-{}", std::process::id()));
        let opts = HarnessOpts {
            out: dir.clone(),
            ..HarnessOpts::default()
        };
        opts.write_artifact("x.csv", "a,b\n1,2\n");
        let read = std::fs::read_to_string(dir.join("x.csv")).unwrap();
        assert_eq!(read, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }
}
