//! # ss-sim
//!
//! The deterministic substrate of the simulation, standing in for the
//! CSIM simulation language the paper used. The interval clock itself
//! lives with the server kernel (`ss_server::kernel::Server`): every
//! display is scheduled in fixed-length intervals (§3.2.1), so the only
//! event is the next interval tick.
//!
//! * [`rng`] — a splittable, seedable random-number generator
//!   ([`rng::DeterministicRng`], xoshiro256++) whose streams are derived
//!   from string labels, so adding a consumer never perturbs other streams.
//! * [`dist`] — the random distributions the paper's workload needs, most
//!   importantly the truncated geometric popularity distribution of §4.1,
//!   backed by a Walker alias table for O(1) sampling.
//! * [`stats`] — counters, running-mean tallies, time-weighted averages and
//!   histograms used to build the experiment reports.
//! * [`faults`] — deterministic disk fault injection: a seed-driven
//!   [`faults::FaultPlan`] compiled to a concrete, sorted
//!   [`faults::FaultTimeline`] before the run starts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod faults;
pub mod rng;
pub mod stats;

pub use dist::{AliasTable, Exponential, TruncatedGeometric, Zipf};
pub use faults::{
    CrashEvent, CrashFaults, CrashKind, CrashPlanEvent, FaultEvent, FaultKind, FaultPlan,
    FaultTimeline, StochasticFaults,
};
pub use rng::DeterministicRng;
pub use stats::{Counter, Histogram, Tally, TimeWeighted};
