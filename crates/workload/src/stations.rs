//! Display stations: the closed-loop request driver of §4.1, plus an
//! open-system (Poisson) alternative for ablations.

use crate::popularity::PopularitySampler;
use serde::{Deserialize, Serialize};
use ss_sim::{DeterministicRng, Exponential};
use ss_types::{ObjectId, RequestId, SimDuration, SimTime, StationId};

/// What a station is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StationState {
    /// Thinking (only with a non-zero think time).
    Thinking,
    /// Has issued a request that the server has not yet started displaying.
    Waiting {
        /// The outstanding request.
        request: RequestId,
        /// The referenced object.
        object: ObjectId,
        /// When the request was issued.
        issued: SimTime,
    },
    /// Watching a display.
    Displaying {
        /// The request being serviced.
        request: RequestId,
        /// The object on screen.
        object: ObjectId,
    },
}

/// A pool of closed-loop display stations.
///
/// Protocol per station: issue a request (drawn from the popularity
/// sampler) → wait until the server completes the display → think (zero in
/// the paper) → repeat. The pool hands the server fully-formed requests
/// and records per-request latency observations.
#[derive(Debug)]
pub struct StationPool {
    states: Vec<StationState>,
    sampler: PopularitySampler,
    think_time: SimDuration,
    rng: DeterministicRng,
    next_request: u64,
    /// Per-station think expiry: the earliest time the station is willing
    /// to issue its next request (last completion + think time;
    /// `SimTime::ZERO` until the first completion). The server issues no
    /// request for a station before it, and wakes at it.
    ready_from: Vec<SimTime>,
}

impl StationPool {
    /// Creates `n` stations drawing from `sampler`, with the given think
    /// time (zero in the paper's experiments) and a dedicated RNG stream.
    pub fn new(
        n: u32,
        sampler: PopularitySampler,
        think_time: SimDuration,
        rng: DeterministicRng,
    ) -> Self {
        StationPool {
            states: vec![StationState::Thinking; n as usize],
            sampler,
            think_time,
            rng,
            next_request: 0,
            ready_from: vec![SimTime::ZERO; n as usize],
        }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True iff the pool has no stations.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The current state of `station`.
    pub fn state(&self, station: StationId) -> StationState {
        self.states[station.index()]
    }

    /// Issues the next request for `station` at time `now` (the station
    /// must be thinking). Returns the request id and referenced object.
    pub fn issue(&mut self, station: StationId, now: SimTime) -> (RequestId, ObjectId) {
        assert!(
            matches!(self.states[station.index()], StationState::Thinking),
            "{station} is not ready to issue"
        );
        let request = RequestId(self.next_request);
        self.next_request += 1;
        let object = self.sampler.sample(&mut self.rng);
        self.states[station.index()] = StationState::Waiting {
            request,
            object,
            issued: now,
        };
        (request, object)
    }

    /// Marks the station's outstanding request as now displaying; returns
    /// the time it waited.
    pub fn start_display(&mut self, station: StationId, now: SimTime) -> SimDuration {
        match self.states[station.index()] {
            StationState::Waiting {
                request,
                object,
                issued,
            } => {
                self.states[station.index()] = StationState::Displaying { request, object };
                now.duration_since(issued)
            }
            other => panic!("{station} cannot start display from {other:?}"),
        }
    }

    /// Marks the display complete; the station re-enters thinking.
    pub fn complete(&mut self, station: StationId) -> RequestId {
        match self.states[station.index()] {
            StationState::Displaying { request, .. } => {
                self.states[station.index()] = StationState::Thinking;
                request
            }
            other => panic!("{station} cannot complete from {other:?}"),
        }
    }

    /// Marks the display complete at time `now`, recording the station's
    /// think expiry (`now` + think time) for [`Self::ready_from`].
    pub fn complete_at(&mut self, station: StationId, now: SimTime) -> RequestId {
        let request = self.complete(station);
        self.ready_from[station.index()] = now + self.think_time;
        request
    }

    /// The station's think expiry: earliest time it will issue its next
    /// request after its last [`Self::complete_at`]. Meaningful only while
    /// the station is [`StationState::Thinking`].
    pub fn ready_from(&self, station: StationId) -> SimTime {
        self.ready_from[station.index()]
    }
}

/// Poisson (open-system) arrivals for the ablation experiments: requests
/// arrive at rate λ regardless of completions.
#[derive(Debug)]
pub struct OpenArrivals {
    interarrival: Exponential,
    sampler: PopularitySampler,
    rng: DeterministicRng,
    next_at: SimTime,
    next_request: u64,
}

impl OpenArrivals {
    /// Arrivals at `rate_per_hour`, starting at time zero.
    pub fn new(rate_per_hour: f64, sampler: PopularitySampler, rng: DeterministicRng) -> Self {
        OpenArrivals {
            interarrival: Exponential::new(rate_per_hour / 3600.0),
            sampler,
            rng,
            next_at: SimTime::ZERO,
            next_request: 0,
        }
    }

    /// Draws the next arrival: `(time, request, object)`. Times are
    /// strictly increasing. (Not an `Iterator`: the stream is infinite
    /// and the tuple shape is deliberate.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> (SimTime, RequestId, ObjectId) {
        let gap = self.interarrival.sample(&mut self.rng);
        self.next_at += SimDuration::from_secs_f64(gap);
        let request = RequestId(self.next_request);
        self.next_request += 1;
        let object = self.sampler.sample(&mut self.rng);
        (self.next_at, request, object)
    }
}

/// A fixed, pre-recorded request trace: `(time, object)` pairs replayed
/// verbatim. The reproducible-regression counterpart of [`OpenArrivals`] —
/// capture a workload once, replay it against any scheme or configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceArrivals {
    events: Vec<(SimTime, ObjectId)>,
    cursor: usize,
}

impl TraceArrivals {
    /// Builds a trace; events must be sorted by time (non-decreasing).
    pub fn new(events: Vec<(SimTime, ObjectId)>) -> ss_types::Result<Self> {
        for pair in events.windows(2) {
            if pair[1].0 < pair[0].0 {
                return Err(ss_types::Error::InvalidConfig {
                    reason: format!("trace not sorted: {} after {}", pair[1].0, pair[0].0),
                });
            }
        }
        Ok(TraceArrivals { events, cursor: 0 })
    }

    /// Records a trace by sampling `n` Poisson arrivals from an
    /// [`OpenArrivals`] stream (capture once, replay anywhere).
    pub fn record(mut stream: OpenArrivals, n: usize) -> Self {
        let events = (0..n)
            .map(|_| {
                let (t, _, obj) = stream.next();
                (t, obj)
            })
            .collect();
        TraceArrivals { events, cursor: 0 }
    }

    /// Total events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Pops the next event if its timestamp is `<= now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, ObjectId)> {
        let &(t, obj) = self.events.get(self.cursor)?;
        if t <= now {
            self.cursor += 1;
            Some((t, obj))
        } else {
            None
        }
    }

    /// Timestamp of the next unreplayed event, if any — the wakeup horizon
    /// for event-driven consumers.
    pub fn peek_next_at(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|&(t, _)| t)
    }

    /// Restarts the replay from the beginning.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;

    fn pool(n: u32) -> StationPool {
        StationPool::new(
            n,
            Popularity::Uniform.sampler(10),
            SimDuration::ZERO,
            DeterministicRng::seed_from_u64(5),
        )
    }

    #[test]
    fn station_lifecycle() {
        let mut p = pool(2);
        assert_eq!(p.len(), 2);
        let (r0, _obj) = p.issue(StationId(0), SimTime::ZERO);
        assert_eq!(r0, RequestId(0));
        assert!(matches!(
            p.state(StationId(0)),
            StationState::Waiting { .. }
        ));
        let waited = p.start_display(StationId(0), SimTime::from_secs(7));
        assert_eq!(waited, SimDuration::from_secs(7));
        assert!(matches!(
            p.state(StationId(0)),
            StationState::Displaying { .. }
        ));
        let done = p.complete(StationId(0));
        assert_eq!(done, r0);
        assert_eq!(p.state(StationId(0)), StationState::Thinking);
        // Request ids are global and monotone.
        let (r1, _) = p.issue(StationId(1), SimTime::ZERO);
        assert_eq!(r1, RequestId(1));
    }

    #[test]
    fn complete_at_tracks_think_expiry() {
        let mut p = StationPool::new(
            1,
            Popularity::Uniform.sampler(10),
            SimDuration::from_secs(30),
            DeterministicRng::seed_from_u64(5),
        );
        assert_eq!(p.ready_from(StationId(0)), SimTime::ZERO);
        p.issue(StationId(0), SimTime::ZERO);
        p.start_display(StationId(0), SimTime::from_secs(2));
        p.complete_at(StationId(0), SimTime::from_secs(100));
        assert_eq!(p.ready_from(StationId(0)), SimTime::from_secs(130));
        // `complete_at` delegates to `complete`: the station thinks again.
        assert_eq!(p.state(StationId(0)), StationState::Thinking);
    }

    #[test]
    fn trace_peek_tracks_cursor() {
        let events = vec![
            (SimTime::from_secs(1), ObjectId(3)),
            (SimTime::from_secs(5), ObjectId(1)),
        ];
        let mut tr = TraceArrivals::new(events).unwrap();
        assert_eq!(tr.peek_next_at(), Some(SimTime::from_secs(1)));
        tr.pop_due(SimTime::from_secs(1));
        assert_eq!(tr.peek_next_at(), Some(SimTime::from_secs(5)));
        tr.pop_due(SimTime::from_secs(5));
        assert_eq!(tr.peek_next_at(), None);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn double_issue_panics() {
        let mut p = pool(1);
        p.issue(StationId(0), SimTime::ZERO);
        p.issue(StationId(0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot complete")]
    fn complete_without_display_panics() {
        let mut p = pool(1);
        p.issue(StationId(0), SimTime::ZERO);
        p.complete(StationId(0));
    }

    #[test]
    fn trace_replay_is_ordered_and_rewindable() {
        let events = vec![
            (SimTime::from_secs(1), ObjectId(3)),
            (SimTime::from_secs(5), ObjectId(1)),
            (SimTime::from_secs(5), ObjectId(2)),
            (SimTime::from_secs(9), ObjectId(3)),
        ];
        let mut tr = TraceArrivals::new(events).unwrap();
        assert_eq!(tr.len(), 4);
        assert!(tr.pop_due(SimTime::ZERO).is_none());
        assert_eq!(
            tr.pop_due(SimTime::from_secs(5)),
            Some((SimTime::from_secs(1), ObjectId(3)))
        );
        assert_eq!(
            tr.pop_due(SimTime::from_secs(5)),
            Some((SimTime::from_secs(5), ObjectId(1)))
        );
        assert_eq!(
            tr.pop_due(SimTime::from_secs(5)),
            Some((SimTime::from_secs(5), ObjectId(2)))
        );
        assert!(tr.pop_due(SimTime::from_secs(5)).is_none());
        assert_eq!(tr.remaining(), 1);
        tr.rewind();
        assert_eq!(tr.remaining(), 4);
    }

    #[test]
    fn unsorted_trace_is_rejected() {
        let events = vec![
            (SimTime::from_secs(5), ObjectId(0)),
            (SimTime::from_secs(1), ObjectId(0)),
        ];
        assert!(TraceArrivals::new(events).is_err());
    }

    #[test]
    fn recorded_trace_replays_the_stream() {
        let mk = || {
            OpenArrivals::new(
                600.0,
                Popularity::Uniform.sampler(10),
                DeterministicRng::seed_from_u64(4),
            )
        };
        let tr = TraceArrivals::record(mk(), 50);
        assert_eq!(tr.len(), 50);
        // Replaying matches re-sampling the identical stream.
        let mut stream = mk();
        let mut tr2 = tr.clone();
        for _ in 0..50 {
            let (t, _, obj) = stream.next();
            assert_eq!(tr2.pop_due(t), Some((t, obj)));
        }
    }

    #[test]
    fn open_arrivals_are_increasing_and_near_rate() {
        let mut arr = OpenArrivals::new(
            3600.0, // one per second
            Popularity::Uniform.sampler(10),
            DeterministicRng::seed_from_u64(7),
        );
        let mut last = SimTime::ZERO;
        let mut times = Vec::new();
        for _ in 0..2000 {
            let (t, _, obj) = arr.next();
            assert!(t > last);
            assert!(obj.index() < 10);
            last = t;
            times.push(t);
        }
        // 2000 arrivals at 1/s should take ≈ 2000 s.
        let total = times.last().unwrap().as_secs_f64();
        assert!((1860.0..2140.0).contains(&total), "total {total}");
    }
}
