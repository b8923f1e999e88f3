//! # ss-obs — zero-cost-when-disabled observability
//!
//! A structured event journal, per-interval metrics registry and trace
//! exporter for the staggered-striping simulation stack. The layer is
//! designed around one invariant: **with no recorder installed, the
//! simulation is bit-for-bit identical to a build without this crate.**
//! Every instrumentation site goes through the [`obs!`] macro, which
//! checks a single thread-local flag and only *then* constructs the
//! event — no allocation, formatting or locking on the disabled path —
//! and the layer never feeds anything back into the model: it is
//! strictly write-only from the simulation's point of view.
//!
//! Installation is **per thread**: the experiment runner executes grid
//! cells on a pool of worker threads, and a thread-local sink means
//! concurrent runs can never interleave their journals. A typical
//! session:
//!
//! ```
//! use ss_obs::{Event, Registry, RegistrySpec, VecRecorder};
//!
//! let rec = VecRecorder::new();
//! let journal = rec.handle();
//! ss_obs::install(Box::new(rec), Registry::new(RegistrySpec::default()));
//! ss_obs::set_clock(42);
//! ss_obs::obs!(Event::DiskFail { disk: 3 });
//! let (_, registry) = ss_obs::uninstall().expect("installed above");
//! let mut jsonl = String::new();
//! for (at, ev) in journal.lock().unwrap().iter() {
//!     ev.write_jsonl(*at, &mut jsonl);
//!     jsonl.push('\n');
//! }
//! assert_eq!(jsonl, "{\"t\":42,\"k\":\"disk_fail\",\"disk\":3}\n");
//! assert_eq!(registry.counter("nonexistent"), 0);
//! ```
//!
//! The three parts:
//!
//! * [`Event`] + [`Recorder`] — the typed journal (see `event.rs` for
//!   the taxonomy), its in-memory sink and its JSONL rendering.
//! * [`Registry`] — counters and the per-interval series/heatmap CSVs.
//! * [`perfetto`] — expansion of the data-plane journal into
//!   per-(disk, interval) reads and Chrome/Perfetto trace JSON.
//!
//! On top of the journal sit three offline analysis layers (nothing the
//! live models ever call):
//!
//! * [`qos`] — the per-display QoS ledger folded from a capture.
//! * [`slo`] — declarative SLO specs evaluated over deterministic
//!   sliding windows with fast/slow burn-rate alerting.
//! * [`health`] — per-disk/per-node health rollups and the incident
//!   timeline correlating SLO breaches with overlapping fault spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod health;
pub mod perfetto;
pub mod qos;
pub mod recorder;
pub mod registry;
pub mod slo;

pub use event::Event;
pub use health::{Cause, DiskHealth, HealthBoard, HealthSpan, HealthState, Incident};
pub use perfetto::{booked_reads, expand_reads, perfetto_trace, DiskRead, Expansion, TraceMeta};
pub use qos::{DisplayRecord, QosLedger, QosTotals, StartKind};
pub use recorder::{Recorder, Shared, VecRecorder};
pub use registry::{Registry, RegistrySpec, SeriesRow};
pub use slo::{evaluate, Alert, SloKind, SloOutcome, SloReport, SloSpec};

use std::cell::{Cell, RefCell};

struct State {
    recorder: Box<dyn Recorder>,
    registry: Registry,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static NOW_US: Cell<u64> = const { Cell::new(0) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// True when a recorder is installed on this thread. The [`obs!`] macro
/// reads this before constructing an event; callers can use it to gate
/// more expensive derived telemetry.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Installs `recorder` + `registry` as this thread's sink, replacing
/// (and dropping) any previous installation.
pub fn install(recorder: Box<dyn Recorder>, registry: Registry) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State { recorder, registry });
    });
    ENABLED.with(|e| e.set(true));
}

/// Removes and returns this thread's sink, disabling all sites.
/// Returns `None` if nothing was installed.
pub fn uninstall() -> Option<(Box<dyn Recorder>, Registry)> {
    ENABLED.with(|e| e.set(false));
    STATE
        .with(|s| s.borrow_mut().take())
        .map(|st| (st.recorder, st.registry))
}

/// Sets the ambient simulation clock (microseconds) stamped onto
/// subsequently recorded events. The server models call this at the top
/// of every tick; cheap enough to call unconditionally.
#[inline]
pub fn set_clock(at_us: u64) {
    NOW_US.with(|n| n.set(at_us));
}

/// The ambient simulation clock last set by [`set_clock`].
#[inline]
pub fn now() -> u64 {
    NOW_US.with(|n| n.get())
}

/// Records `ev` at the ambient clock. Prefer the [`obs!`] macro, which
/// skips event construction entirely when disabled. A re-entrant call
/// (from inside a recorder) is a silent no-op.
pub fn record(ev: Event) {
    let at = now();
    STATE.with(|s| {
        if let Ok(mut st) = s.try_borrow_mut() {
            if let Some(st) = st.as_mut() {
                st.recorder.record(at, &ev);
            }
        }
    });
}

/// Runs `f` against this thread's registry, if one is installed.
/// Returns `None` when disabled — derived-metric call sites use this to
/// skip their computation entirely.
pub fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> Option<R> {
    STATE.with(|s| {
        if let Ok(mut st) = s.try_borrow_mut() {
            st.as_mut().map(|st| f(&mut st.registry))
        } else {
            None
        }
    })
}

/// Records an event iff a recorder is installed on this thread. The
/// event expression is **not evaluated** on the disabled path, so sites
/// may freely compute derived fields inside the macro call.
#[macro_export]
macro_rules! obs {
    ($ev:expr) => {
        if $crate::enabled() {
            $crate::record($ev);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!enabled());
        obs!(Event::DiskFail { disk: 1 });
        assert!(uninstall().is_none());
        assert!(with_registry(|_| ()).is_none());
    }

    #[test]
    fn install_capture_uninstall_roundtrip() {
        let rec = VecRecorder::new();
        let handle = rec.handle();
        install(Box::new(rec), Registry::new(RegistrySpec::default()));
        assert!(enabled());
        set_clock(7);
        obs!(Event::DiskFail { disk: 2 });
        set_clock(9);
        obs!(Event::DiskRepair { disk: 2 });
        with_registry(|r| r.count("faults", 1));
        let (_, registry) = uninstall().expect("installed");
        assert!(!enabled());
        assert_eq!(registry.counter("faults"), 1);
        let events = handle.lock().unwrap();
        assert_eq!(
            *events,
            vec![
                (7, Event::DiskFail { disk: 2 }),
                (9, Event::DiskRepair { disk: 2 }),
            ]
        );
    }
}
