//! # ss-server
//!
//! The end-to-end simulated multimedia server: the §4.1 simulation model
//! with its four modules — Display Stations, Centralized Scheduler (Object
//! Manager + Disk Manager + Tertiary Manager), Disks, and Tertiary Storage
//! — built on the substrates (`ss-sim`, `ss-disk`, `ss-tertiary`,
//! `ss-workload`) and the two placement/scheduling engines (`ss-core`
//! striping, `ss-vdr` virtual data replication).
//!
//! * [`config`] — [`config::ServerConfig`]: every knob of Table 3 plus the
//!   scheme selection and measurement window.
//! * [`striping`] — the striping server (simple striping is stride
//!   `k = M`; staggered striping is any other stride; both run here).
//! * [`vdr`] — the virtual-data-replication baseline server.
//! * [`metrics`] — [`metrics::RunReport`]: throughput (displays/hour),
//!   latency statistics, device utilisations, residency statistics.
//! * [`analysis`] — closed-form throughput bounds (§5's "analytical
//!   results" wish), validated against the simulators in tests.
//! * [`experiment`] — parameter sweeps that regenerate Figure 8 and
//!   Table 4 (and the ablations), with CSV/JSON emission and a batch
//!   runner that spreads whole runs across threads (each run itself is
//!   serial).
//! * [`router`] — the distributed tier's front-end admission router:
//!   home-node selection (least-loaded / locality-affinity) over the
//!   node topology, armed by `distributed`.
//! * [`storage`] — the crash-consistent storage plane: journaled
//!   per-disk metadata, power-loss / torn-write recovery, and the
//!   bandwidth-charged scrub daemon, armed by `faults.crash` / `scrub`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod config;
pub mod experiment;
pub mod metrics;
pub mod router;
pub mod storage;
pub mod striping;
pub mod vdr;

pub use config::{
    DistributedConfig, MaterializeMode, ParityConfig, RebuildConfig, Scheme, ScrubConfig,
    ServerConfig,
};
pub use metrics::RunReport;
pub use striping::StripingServer;
pub use vdr::VdrServer;

/// Runs one simulation to completion under `config`, returning its report.
pub fn run(config: &ServerConfig) -> ss_types::Result<RunReport> {
    config.validate()?;
    match config.scheme {
        Scheme::Striping { .. } => Ok(StripingServer::new(config.clone())?.run()),
        Scheme::Vdr { .. } => Ok(VdrServer::new(config.clone())?.run()),
    }
}
