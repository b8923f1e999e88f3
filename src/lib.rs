//! # staggered-striping
//!
//! A full reproduction of *"Staggered Striping in Multimedia Information
//! Systems"* (Berson, Ghandeharizadeh, Muntz, Ju — SIGMOD 1994) as a Rust
//! workspace: the staggered-striping placement and scheduling scheme, every
//! substrate it depends on (seeded randomness, statistics and fault plans,
//! disk and tertiary device models, workload generators), the virtual-data-
//! replication baseline it is compared against, and the simulation harness
//! that regenerates every table and figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates and offers
//! a [`prelude`] for applications.
//!
//! ## Quick start
//!
//! ```
//! use staggered_striping::prelude::*;
//!
//! // A 12-disk farm, stride 1, 1.512 MB fragments, 20 mbps disks.
//! let frame = VirtualFrame::new(12, 1);
//! let mut scheduler = IntervalScheduler::new(frame);
//!
//! // Place a 60 mbps object (M = 3) of 24 subobjects starting on disk 4.
//! let layout = StripingLayout::new(ObjectId(0), 4, 3, 24, 12, 1);
//! assert_eq!(layout.fragment_disk(0, 0), DiskId(4));
//!
//! // Admit a display of it at interval 0.
//! let grant = scheduler
//!     .try_admit(0, ObjectId(0), 4, 3, 24, AdmissionPolicy::Contiguous)
//!     .unwrap();
//! assert_eq!(grant.delivery_start, 0);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | units (time, bytes, bandwidth), ids, errors |
//! | [`sim`] | seeded RNG streams, distributions, statistics, fault plans |
//! | [`disk`] | disk geometry/timing model, effective bandwidth (§3.1) |
//! | [`tertiary`] | tertiary device and materialization model (§3.2.4) |
//! | [`workload`] | display stations and popularity models (§4.1) |
//! | [`core`] | placement, virtual frame, admission, Algorithms 1–2, low-bandwidth pairing, VCR (§3) |
//! | [`vdr`] | virtual-data-replication baseline (§2, \[GS93\]) |
//! | [`server`] | end-to-end simulated server + experiment harness (§4) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ss_core as core;
pub use ss_disk as disk;
pub use ss_obs as obs;
pub use ss_server as server;
pub use ss_sim as sim;
pub use ss_tertiary as tertiary;
pub use ss_types as types;
pub use ss_vdr as vdr;
pub use ss_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use ss_core::admission::{AdmissionGrant, AdmissionPolicy, IntervalScheduler};
    pub use ss_core::frame::VirtualFrame;
    pub use ss_core::media::{MediaType, ObjectCatalog, ObjectSpec};
    pub use ss_core::placement::{PlacementMap, StripingConfig, StripingLayout};
    pub use ss_disk::{AvailabilityMask, DiskParams};
    pub use ss_server::{
        config::{
            DistributedConfig, MaterializeMode, NodeOutage, ParityConfig, RebuildConfig, Scheme,
            ScrubConfig, ServerConfig, SharingConfig,
        },
        metrics::{
            CrashStats, DegradedStats, DistributedStats, RunReport, SelfHealStats, SharingStats,
        },
        StripingServer, VdrServer,
    };
    pub use ss_sim::{
        CrashFaults, CrashKind, CrashPlanEvent, DeterministicRng, FaultEvent, FaultKind, FaultPlan,
        StochasticFaults,
    };
    pub use ss_tertiary::{TapeLayout, TertiaryDevice, TertiaryParams};
    pub use ss_types::{
        Bandwidth, Bytes, ClusterId, DiskId, Error, NodeId, NodeTopology, ObjectId, RequestId,
        Result, SimDuration, SimTime, StationId,
    };
    pub use ss_vdr::{ClusterFarm, VdrConfig};
    pub use ss_workload::{Popularity, StationPool};
}
