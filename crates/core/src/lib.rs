//! # ss-core
//!
//! The paper's primary contribution: **staggered striping** — data placement
//! and interval scheduling that guarantee hiccup-free display of multimedia
//! objects across a farm of low-bandwidth disks.
//!
//! ## Module map
//!
//! * [`media`] — media types, object specifications, and the derived
//!   quantities of Table 1 (degree of declustering `M_X`, subobject size,
//!   display time).
//! * [`placement`] — [`placement::StripingLayout`] maps every fragment
//!   `X_{i.j}` of every object to a disk using the staggered rule
//!   `disk(X_{i.j}) = (start + i·k + j) mod D`; simple striping is the
//!   special case `k = M`, and the degenerate `k = D` reproduces the
//!   single-cluster assignment of virtual data replication.
//!   [`placement::PlacementMap`] counts each disk's used cylinders so
//!   placements respect storage capacity.
//! * [`frame`] — the rotating **virtual disk** coordinate frame of §3.2.1:
//!   virtual disk `v` at interval `t` is physical disk `(v + k·t) mod D`,
//!   under which an active display occupies a *fixed* set of `M` virtual
//!   disks.
//! * [`stride`] — the §3.2.2 analysis: the GCD data-skew rule, the number
//!   of distinct disks an object touches, and worst-case startup latency.
//! * [`admission`] — interval-granularity admission control over the
//!   virtual frame: contiguous admission, and **time-fragmented** admission
//!   (§3.2.1) that assembles a display from non-adjacent free disks at the
//!   cost of buffer memory.
//! * [`buffers`] — accounting for the extra buffer memory fragmented
//!   delivery costs (the price §3.2.1 pays to defeat time fragmentation).
//! * [`interconnect`] — per-interval link/switch bookkeeping for a
//!   distributed farm: fragments read from a non-home node charge
//!   interconnect capacity the way reconstruction reads charge disk
//!   intervals.
//! * [`cache`] — the stream-sharing prefix cache: leading intervals of
//!   hot objects kept buffer-resident under a deterministic
//!   popularity-tagged LFU policy, so late joiners of a shared stream
//!   start hiccup-free from memory.
//! * [`coalesce`] — system-side dynamic coalescing: handing a lagging
//!   fragment over to a freed, closer disk to reclaim that memory.
//! * [`algorithms`] — faithful, executable transcriptions of the paper's
//!   Algorithm 1 (`simple_combined_algorithm`) and Algorithm 2
//!   (`write_thread` with dynamic coalescing), validated against the
//!   Figure 6 timeline.
//! * [`schedule`] — materialises a grant into the full per-interval
//!   read/output timeline and machine-checks hiccup-freedom.
//! * [`low_bandwidth`] — §3.2.3: pairing objects with
//!   `B_display ≤ B_disk/2` on logical half-bandwidth disks (the Figure 7
//!   timetable).
//! * [`materialize`] — §3.2.4: fragment-ordered materialization write
//!   plans that keep the tertiary device streaming (zero repositions).
//! * [`vcr`] — §3.2.5: rewind, fast-forward, and fast-forward-with-scan
//!   via replica objects.
//! * [`render`] — ASCII reproductions of the paper's layout figures
//!   (Figures 1, 3, 4, 5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod algorithms;
pub mod buffers;
pub mod cache;
pub mod coalesce;
pub mod frame;
pub mod interconnect;
pub mod low_bandwidth;
pub mod materialize;
pub mod media;
pub mod placement;
pub mod render;
pub mod schedule;
pub mod stride;
pub mod vcr;

pub use admission::{AdmissionGrant, AdmissionPolicy, IntervalScheduler, Outage};
pub use cache::{CacheStats, PrefixCache};
pub use coalesce::{ActiveFragmentedDisplay, CoalescePlan, LostRead};
pub use frame::VirtualFrame;
pub use interconnect::InterconnectLedger;
pub use media::{MediaType, ObjectCatalog, ObjectSpec};
pub use placement::{StripingConfig, StripingLayout};
