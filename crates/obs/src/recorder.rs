//! Journal sinks: the [`Recorder`] trait plus the stock
//! implementation, an unbounded in-memory journal for exports and tests.
//!
//! Recorders are installed per thread (see [`crate::install`]); the
//! `obs!` macro never constructs an event unless a recorder is live, so
//! an uninstalled thread pays a single thread-local flag read per site.

use std::any::Any;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// A sink for journal events. `at` is the ambient simulation clock in
/// microseconds at the time of the record (see [`crate::set_clock`]).
pub trait Recorder: Any {
    /// Consume one event.
    fn record(&mut self, at: u64, ev: &Event);
    /// Upcast for post-run retrieval via [`crate::uninstall`].
    fn as_any(&self) -> &dyn Any;
}

/// Shared handle to data accumulated by a recorder, retrievable after
/// the run from outside the install/uninstall scope.
pub type Shared<T> = Arc<Mutex<T>>;

/// Unbounded in-memory journal. The export pipeline and the property
/// tests consume its event vector directly.
#[derive(Debug, Default)]
pub struct VecRecorder {
    events: Shared<Vec<(u64, Event)>>,
}

impl VecRecorder {
    /// New empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clonable handle to the accumulated `(at_us, event)` pairs.
    pub fn handle(&self) -> Shared<Vec<(u64, Event)>> {
        Arc::clone(&self.events)
    }
}

impl Recorder for VecRecorder {
    fn record(&mut self, at: u64, ev: &Event) {
        self.events
            .lock()
            .expect("journal poisoned")
            .push((at, ev.clone()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}
