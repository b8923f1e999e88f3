//! Journal sinks: the [`Recorder`] trait plus the stock
//! implementations — a no-op default, an unbounded in-memory journal
//! for exports/tests, and a streaming JSONL sink.
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

/// The no-op default: swallows every event. Installing it exercises the
/// enabled path without retaining anything (useful for overhead
/// measurement).
#[derive(Debug, Default, Clone, Copy)]
pub struct NopRecorder;

impl Recorder for NopRecorder {
    fn record(&mut self, _at: u64, _ev: &Event) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
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

/// Streaming JSONL sink: renders each event to one JSON line as it is
/// recorded. Rendering is byte-deterministic (fixed key order, integer
/// values), so same-seed runs produce byte-identical journals.
#[derive(Debug, Default)]
pub struct JsonlRecorder {
    out: Shared<String>,
    lines: u64,
}

impl JsonlRecorder {
    /// New sink with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clonable handle to the accumulated JSONL text.
    pub fn handle(&self) -> Shared<String> {
        Arc::clone(&self.out)
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, at: u64, ev: &Event) {
        let mut out = self.out.lock().expect("journal poisoned");
        ev.write_jsonl(at, &mut out);
        out.push('\n');
        self.lines += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(disk: u32) -> Event {
        Event::DiskFail { disk }
    }

    #[test]
    fn jsonl_appends_lines() {
        let mut r = JsonlRecorder::new();
        let h = r.handle();
        r.record(5, &ev(1));
        r.record(9, &ev(2));
        assert_eq!(r.lines(), 2);
        let text = h.lock().unwrap().clone();
        assert_eq!(
            text,
            "{\"t\":5,\"k\":\"disk_fail\",\"disk\":1}\n{\"t\":9,\"k\":\"disk_fail\",\"disk\":2}\n"
        );
    }
}
