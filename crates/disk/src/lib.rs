//! # ss-disk
//!
//! The magnetic-disk substrate: geometry, head-movement timing, the paper's
//! effective-bandwidth model, per-drive availability and rebuild, and the
//! journaled slot metadata the storage plane keeps for each drive.
//!
//! Two calibrated parameter sets ship with the crate:
//!
//! * [`DiskParams::sabre_1_2gb`] — the IMPRIMIS Sabre drive of §3.1
//!   (1635 cylinders × 756 000 B, 24.19 mbps peak, 4/15/35 ms seeks,
//!   8.33/16.83 ms latency). The §3.1 worked numbers (250 ms cylinder read,
//!   301.83 ms service time, 17.2 % wasted bandwidth, ...) are asserted in
//!   this crate's tests.
//! * [`DiskParams::table3`] — the simulation disk of Table 3
//!   (3000 cylinders × 1.512 MB, 20 mbps effective bandwidth). The paper
//!   gives the *effective* rate; the peak transfer rate is back-derived so
//!   that one-cylinder fragments yield exactly 20 mbps effective.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod availability;
mod metadata;
mod params;
mod rebuild;
mod timing;

pub use availability::AvailabilityMask;
pub use metadata::{DiskMetadata, LatentError, RecoveryReport, TxnOp};
pub use params::DiskParams;
pub use rebuild::{RebuildJob, RebuildScheduler};
pub use timing::{min_buffer_memory, SeekModel, ServiceTiming};
