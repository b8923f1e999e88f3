//! The single-server FIFO tertiary device queue.

use crate::TertiaryParams;
use ss_types::{Bandwidth, Bytes, ObjectId, SimDuration, SimTime};

/// The computed timeline of one materialization job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSchedule {
    /// The object being materialized.
    pub object: ObjectId,
    /// When the device begins working on the job (after queueing and the
    /// initial access delay).
    pub start: SimTime,
    /// The earliest instant a display of the object may begin without ever
    /// starving (pipelined consumption; see
    /// [`TertiaryParams::pipelined_start_offset`]).
    pub earliest_display: SimTime,
    /// When the object is fully disk resident.
    pub done: SimTime,
}

/// The tertiary storage device: one server, FIFO queue, deterministic
/// service times derived from [`TertiaryParams`].
///
/// The device is modelled analytically: a job submitted at time `t` starts
/// at `max(t, busy_until)` and holds the device for `initial_access +
/// materialize_duration`. This is exact for a FIFO single server and avoids
/// simulating individual tape blocks.
#[derive(Debug, Clone)]
pub struct TertiaryDevice {
    params: TertiaryParams,
    busy_until: SimTime,
    busy_time: SimDuration,
}

impl TertiaryDevice {
    /// A new, idle device.
    pub fn new(params: TertiaryParams) -> Self {
        params.validate().expect("invalid tertiary parameters");
        TertiaryDevice {
            params,
            busy_until: SimTime::ZERO,
            busy_time: SimDuration::ZERO,
        }
    }

    /// The device parameters.
    pub fn params(&self) -> &TertiaryParams {
        &self.params
    }

    /// Submits a materialization job at `now` for an object of `size`
    /// bytes in `subobjects` pieces displayed at `display` bandwidth.
    /// Returns the job's full timeline and advances the device state.
    pub fn submit(
        &mut self,
        now: SimTime,
        object: ObjectId,
        size: Bytes,
        subobjects: u64,
        display: Bandwidth,
    ) -> JobSchedule {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        } + self.params.initial_access;
        let duration = self.params.materialize_duration(size, subobjects);
        let done = start + duration;
        let earliest_display = start
            + self
                .params
                .pipelined_start_offset(size, subobjects, display);
        self.busy_until = done;
        self.busy_time += duration + self.params.initial_access;
        JobSchedule {
            object,
            start,
            earliest_display,
            done,
        }
    }

    /// The instant the device next becomes idle: a job submitted at
    /// `now` waits `busy_until − now` (if positive) before its access.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// The device's utilisation over `[0, now]` (may exceed 1.0 only in the
    /// sense that scheduled work extends past `now`; callers normally ask
    /// at or after `busy_until`).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let effective_busy = self
            .busy_time
            .min(now.saturating_duration_since(SimTime::ZERO));
        effective_busy.as_secs_f64() / now.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> TertiaryDevice {
        TertiaryDevice::new(TertiaryParams::table3())
    }

    const SIZE: Bytes = Bytes::new(5 * 3000 * 1_512_000);
    const SUBOBJECTS: u64 = 3000;
    const DISPLAY: Bandwidth = Bandwidth::mbps(100);

    #[test]
    fn idle_device_starts_immediately() {
        let mut d = device();
        let s = d.submit(
            SimTime::from_secs(10),
            ObjectId(1),
            SIZE,
            SUBOBJECTS,
            DISPLAY,
        );
        assert_eq!(s.start, SimTime::from_secs(10));
        assert!((s.done.as_secs_f64() - 4546.0).abs() < 0.1);
        assert!((s.earliest_display.as_secs_f64() - (10.0 + 2721.6)).abs() < 0.1);
    }

    #[test]
    fn jobs_queue_fifo() {
        let mut d = device();
        let a = d.submit(SimTime::ZERO, ObjectId(1), SIZE, SUBOBJECTS, DISPLAY);
        let b = d.submit(
            SimTime::from_secs(1),
            ObjectId(2),
            SIZE,
            SUBOBJECTS,
            DISPLAY,
        );
        assert_eq!(b.start, a.done);
        assert_eq!(b.done, a.done + SimDuration::from_secs_f64(4536.0));
    }

    #[test]
    fn busy_until_reflects_backlog() {
        let mut d = device();
        assert_eq!(d.busy_until(), SimTime::ZERO);
        d.submit(SimTime::ZERO, ObjectId(1), SIZE, SUBOBJECTS, DISPLAY);
        let delay = d
            .busy_until()
            .saturating_duration_since(SimTime::from_secs(100));
        assert!((delay.as_secs_f64() - 4436.0).abs() < 0.1);
    }

    #[test]
    fn display_never_starves_after_earliest_display() {
        // Invariant: at any t >= earliest_display, bytes produced >= bytes
        // consumed by a display that started at earliest_display.
        let mut d = device();
        let s = d.submit(SimTime::ZERO, ObjectId(1), SIZE, SUBOBJECTS, DISPLAY);
        let bt = d.params().bandwidth;
        for frac in [0.0, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let t = s.earliest_display + SimDuration::from_secs_f64(1814.4 * frac);
            let produced = bt.bytes_in(t.saturating_duration_since(s.start)).min(SIZE);
            let consumed = DISPLAY.bytes_in(t.saturating_duration_since(s.earliest_display));
            assert!(
                produced >= consumed,
                "at frac {frac}: produced {produced} < consumed {consumed}"
            );
        }
    }

    #[test]
    fn initial_access_delays_start() {
        let mut p = TertiaryParams::table3();
        p.initial_access = SimDuration::from_secs(30);
        let mut d = TertiaryDevice::new(p);
        let s = d.submit(SimTime::ZERO, ObjectId(1), SIZE, SUBOBJECTS, DISPLAY);
        assert_eq!(s.start, SimTime::from_secs(30));
    }

    #[test]
    fn utilization_saturates_under_backlog() {
        let mut d = device();
        for i in 0..3 {
            d.submit(SimTime::ZERO, ObjectId(i), SIZE, SUBOBJECTS, DISPLAY);
        }
        // At the end of the backlog the device was busy the whole time.
        let u = d.utilization(d.busy_until());
        assert!((u - 1.0).abs() < 1e-9, "utilization {u}");
        // Long after, utilisation decays.
        let later = d.busy_until() + SimDuration::from_secs(13608);
        assert!((d.utilization(later) - 0.5).abs() < 1e-6);
    }
}
