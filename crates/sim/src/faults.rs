//! Deterministic disk fault injection.
//!
//! A [`FaultPlan`] describes everything that goes wrong with the disk farm
//! during a run: scheduled fail/repair events, transient slow-disk
//! episodes, and (optionally) a stochastic failure process. Before the
//! simulation starts, the plan is **compiled** against the run's horizon
//! and master RNG into a flat, time-sorted [`FaultTimeline`] — from that
//! point on the run consumes a fixed event list, so two runs with the same
//! seed and plan see bit-for-bit identical faults no matter what else the
//! model does.
//!
//! The stochastic process draws from `rng.derive("faults")`, an independent
//! named stream, so enabling faults never perturbs the workload,
//! service-time, or think-time draws of an otherwise identical run — the
//! common-random-numbers property the experiment harness depends on.
//!
//! An empty plan ([`FaultPlan::none`], also the `Default`) compiles to an
//! empty timeline, and every fault-handling code path in the servers is
//! gated on the timeline being non-empty, which is what makes the
//! "zero-fault plan ≡ baseline, byte-for-byte" guarantee hold.

use crate::dist::Exponential;
use crate::rng::DeterministicRng;
use serde::{Deserialize, Serialize};
use ss_types::{Error, Result, SimDuration, SimTime};

/// What a single fault event does to its disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The disk fail-stops: no reads complete until the matching
    /// [`FaultKind::Repair`]. Media survive — after repair the disk serves
    /// the same fragments it held before (fail-stop with intact media).
    Fail,
    /// The disk returns to service.
    Repair,
    /// The disk enters a transient slow episode: it keeps serving
    /// already-planned reads, but planners avoid placing *new* reads on it.
    SlowStart,
    /// The slow episode ends.
    SlowEnd,
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The physical disk affected, `0..D`.
    pub disk: u32,
    /// When the event takes effect. Servers process fault events at the
    /// first time-interval boundary at or after this instant (sub-interval
    /// fault timing is below the model's resolution).
    pub at: SimTime,
    /// The transition.
    pub kind: FaultKind,
}

/// A seed-driven stochastic failure process, compiled to concrete events
/// before the run starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StochasticFaults {
    /// Mean time between failure episodes across the whole farm
    /// (exponentially distributed inter-arrival times).
    pub mean_time_between_failures: SimDuration,
    /// Mean episode duration (exponentially distributed).
    pub mean_time_to_repair: SimDuration,
    /// Probability that an episode is a transient slowdown
    /// ([`FaultKind::SlowStart`]/[`FaultKind::SlowEnd`]) rather than a hard
    /// failure. Must be in `[0, 1]`.
    #[serde(default)]
    pub slow_fraction: f64,
}

/// What a crash-plane event does to a disk's on-device metadata. Unlike
/// [`FaultKind`] transitions — which take a disk out of *service* — crash
/// events corrupt the disk's *metadata/media* state and leave service
/// untouched: a power loss truncates the in-flight journal transaction at
/// a deterministic cut point (recovery then replays or discards it per
/// its commit record), and a torn write plants a latent media error that
/// stays invisible until a scrub pass reads the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashKind {
    /// Power fails mid-write: the most recent journal transaction is cut
    /// at a salt-chosen phase and recovery runs immediately.
    PowerLoss,
    /// A sector write tears silently: one allocated slot (salt-chosen)
    /// carries a latent error until a scrub detects it.
    TornWrite,
}

/// One scheduled crash-plane event in a plan (salts are assigned at
/// compilation from the `crash` RNG stream, not specified here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPlanEvent {
    /// The physical disk affected, `0..D`.
    pub disk: u32,
    /// When the event fires (processed at the next interval boundary).
    pub at: SimTime,
    /// Power loss or torn write.
    pub kind: CrashKind,
}

/// The crash-plane half of a fault plan: scheduled power-loss/torn-write
/// events plus optional stochastic generators per kind. Compiled against
/// `rng.derive("crash")` — a fresh named stream, so arming the crash
/// plane never moves the faults/workload/backoff draws of an otherwise
/// identical run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrashFaults {
    /// Explicitly scheduled crash events (any order; compilation sorts).
    #[serde(default)]
    pub events: Vec<CrashPlanEvent>,
    /// Mean time between stochastic power losses across the farm
    /// (exponential inter-arrivals; `None` = none).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub power_loss_mtbf: Option<SimDuration>,
    /// Mean time between stochastic torn writes across the farm
    /// (exponential inter-arrivals; `None` = none).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub torn_write_mtbf: Option<SimDuration>,
}

impl CrashFaults {
    /// True when this crash plane can never produce an event.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.power_loss_mtbf.is_none() && self.torn_write_mtbf.is_none()
    }
}

/// One compiled crash event: a plan event (or stochastic draw) with its
/// deterministic salt attached. The salt picks the journal cut phase
/// (power loss) or the torn slot (torn write), so replaying the same
/// compiled timeline reproduces the same corruption bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The physical disk affected.
    pub disk: u32,
    /// When the event fires.
    pub at: SimTime,
    /// Power loss or torn write.
    pub kind: CrashKind,
    /// Deterministic salt drawn from the `crash` stream at compilation.
    pub salt: u64,
}

/// The full fault configuration of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Explicitly scheduled events (any order; compilation sorts them).
    #[serde(default)]
    pub events: Vec<FaultEvent>,
    /// Optional stochastic episode generator.
    #[serde(default)]
    pub stochastic: Option<StochasticFaults>,
    /// Drop a stream once its accumulated hiccup reaches this many time
    /// intervals (`None` = never drop; streams limp along with hiccups).
    #[serde(default)]
    pub drop_after_hiccup_intervals: Option<u64>,
    /// Optional crash plane: power-loss/torn-write events against the
    /// on-device metadata layer. Skip-if-None so zero-crash plans
    /// serialize byte-identically to plans that predate the field.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub crash: Option<CrashFaults>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when this plan can never produce a *service* fault event
    /// (fail/slow transitions). The crash plane is deliberately excluded:
    /// it is a separate metadata-level event stream with its own gate
    /// ([`FaultTimeline::crash_events`]), so arming it does not flip the
    /// servers' zero-fault fast path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.stochastic.is_none()
    }

    /// A plan with one hard failure window on one disk — the canonical
    /// fail-at/repair-at scenario used by the golden degraded-mode tests.
    pub fn fail_window(disk: u32, fail_at: SimTime, repair_at: SimTime) -> Self {
        FaultPlan {
            events: vec![
                FaultEvent {
                    disk,
                    at: fail_at,
                    kind: FaultKind::Fail,
                },
                FaultEvent {
                    disk,
                    at: repair_at,
                    kind: FaultKind::Repair,
                },
            ],
            ..FaultPlan::default()
        }
    }

    /// Validates the plan against a farm of `disks` drives.
    ///
    /// Structural rules, checked per disk with the same stable time order
    /// compilation uses: a window must close strictly after it opens
    /// (`repair > fail`, `slow_end > slow_start`), windows of the same
    /// kind on one disk must not overlap, a close event needs a matching
    /// open, and every disk id must be in range. A window left open is
    /// fine — compilation closes it at the horizon. Violations surface as
    /// [`Error::InvalidFaultPlan`] at construction instead of panicking
    /// debug asserts (or silent normalization) mid-run.
    pub fn validate(&self, disks: u32) -> Result<()> {
        for (i, ev) in self.events.iter().enumerate() {
            if ev.disk >= disks {
                return Err(Error::InvalidFaultPlan {
                    reason: format!(
                        "fault event {i} targets disk {} but the farm has {disks} disks",
                        ev.disk
                    ),
                });
            }
        }
        // Per-disk structural walk in compilation order (stable by time).
        let mut sorted: Vec<&FaultEvent> = self.events.iter().collect();
        sorted.sort_by_key(|ev| ev.at);
        let mut open_fail = vec![None::<SimTime>; disks as usize];
        let mut open_slow = vec![None::<SimTime>; disks as usize];
        for ev in sorted {
            let d = ev.disk as usize;
            let bad = |reason: String| Err(Error::InvalidFaultPlan { reason });
            match ev.kind {
                FaultKind::Fail => {
                    if let Some(since) = open_fail[d] {
                        return bad(format!(
                            "disk {}: overlapping failure windows (failed at {since:?}, \
                             failed again at {:?} before any repair)",
                            ev.disk, ev.at
                        ));
                    }
                    open_fail[d] = Some(ev.at);
                }
                FaultKind::Repair => match open_fail[d].take() {
                    None => {
                        return bad(format!(
                            "disk {}: repair at {:?} without a matching failure",
                            ev.disk, ev.at
                        ));
                    }
                    Some(since) if ev.at <= since => {
                        return bad(format!(
                            "disk {}: repair at {:?} does not come after the failure at \
                             {since:?} (empty or inverted window)",
                            ev.disk, ev.at
                        ));
                    }
                    Some(_) => {}
                },
                FaultKind::SlowStart => {
                    if let Some(since) = open_slow[d] {
                        return bad(format!(
                            "disk {}: overlapping slow episodes (slow since {since:?}, \
                             slowed again at {:?} before the episode ended)",
                            ev.disk, ev.at
                        ));
                    }
                    open_slow[d] = Some(ev.at);
                }
                FaultKind::SlowEnd => match open_slow[d].take() {
                    None => {
                        return bad(format!(
                            "disk {}: slow-episode end at {:?} without a matching start",
                            ev.disk, ev.at
                        ));
                    }
                    Some(since) if ev.at <= since => {
                        return bad(format!(
                            "disk {}: slow episode ending at {:?} does not come after its \
                             start at {since:?} (empty or inverted window)",
                            ev.disk, ev.at
                        ));
                    }
                    Some(_) => {}
                },
            }
        }
        if let Some(cf) = &self.crash {
            // A crash event must not land inside its own disk's scheduled
            // failure window: a fail-stopped disk has no in-flight writes
            // to tear and no power to lose. Build the closed (and still
            // open) windows from the already-validated event list.
            let mut windows: Vec<(u32, SimTime, Option<SimTime>)> = Vec::new();
            let mut sorted: Vec<&FaultEvent> = self.events.iter().collect();
            sorted.sort_by_key(|ev| ev.at);
            let mut open = vec![None::<usize>; disks as usize];
            for ev in sorted {
                match ev.kind {
                    FaultKind::Fail => {
                        open[ev.disk as usize] = Some(windows.len());
                        windows.push((ev.disk, ev.at, None));
                    }
                    FaultKind::Repair => {
                        if let Some(w) = open[ev.disk as usize].take() {
                            windows[w].2 = Some(ev.at);
                        }
                    }
                    FaultKind::SlowStart | FaultKind::SlowEnd => {}
                }
            }
            for (i, ev) in cf.events.iter().enumerate() {
                if ev.disk >= disks {
                    return Err(Error::InvalidFaultPlan {
                        reason: format!(
                            "crash event {i} targets disk {} but the farm has {disks} disks",
                            ev.disk
                        ),
                    });
                }
                if let Some((_, fail_at, repair_at)) =
                    windows.iter().find(|(d, fail_at, repair)| {
                        *d == ev.disk && ev.at >= *fail_at && repair.is_none_or(|r| ev.at < r)
                    })
                {
                    return Err(Error::InvalidFaultPlan {
                        reason: format!(
                            "crash event {i} ({:?}) at {:?} falls inside disk {}'s own \
                             failure window [{fail_at:?}, {repair_at:?}); a fail-stopped \
                             disk has no in-flight writes",
                            ev.kind, ev.at, ev.disk
                        ),
                    });
                }
            }
            if cf.power_loss_mtbf == Some(SimDuration::ZERO) {
                return Err(Error::InvalidConfig {
                    reason: "crash faults: power_loss_mtbf must be > 0".into(),
                });
            }
            if cf.torn_write_mtbf == Some(SimDuration::ZERO) {
                return Err(Error::InvalidConfig {
                    reason: "crash faults: torn_write_mtbf must be > 0".into(),
                });
            }
        }
        if let Some(st) = &self.stochastic {
            if st.mean_time_between_failures == SimDuration::ZERO {
                return Err(Error::InvalidConfig {
                    reason: "stochastic faults: mean_time_between_failures must be > 0".into(),
                });
            }
            if st.mean_time_to_repair == SimDuration::ZERO {
                return Err(Error::InvalidConfig {
                    reason: "stochastic faults: mean_time_to_repair must be > 0".into(),
                });
            }
            if !(0.0..=1.0).contains(&st.slow_fraction) {
                return Err(Error::InvalidConfig {
                    reason: format!(
                        "stochastic faults: slow_fraction {} outside [0, 1]",
                        st.slow_fraction
                    ),
                });
            }
        }
        Ok(())
    }

    /// Compiles the plan into a concrete, sorted, normalized timeline.
    ///
    /// Stochastic episodes are drawn from `rng.derive("faults")` up to
    /// `horizon`; an episode is skipped when its disk is already in an
    /// episode (no overlapping episodes on one disk). The merged schedule
    /// is then normalized statefully: redundant transitions (failing a
    /// disk that is already down, repairing one that is up, ...) are
    /// dropped, and every open window is closed with a synthetic end event
    /// at `horizon` so per-disk downtime accounting always balances.
    pub fn compile(&self, disks: u32, horizon: SimTime, rng: &DeterministicRng) -> FaultTimeline {
        if self.is_empty() {
            // No service faults — but the crash plane (if armed) still
            // compiles: it is gated separately and must fire even on an
            // otherwise fault-free run.
            return FaultTimeline {
                events: Vec::new(),
                drop_after_hiccup_intervals: self.drop_after_hiccup_intervals,
                crash_events: self.compile_crash(disks, horizon, rng),
            };
        }
        let mut raw: Vec<FaultEvent> = self.events.clone();
        if let Some(st) = &self.stochastic {
            let mut frng = rng.derive("faults");
            let arrivals = Exponential::new(1.0 / st.mean_time_between_failures.as_secs_f64());
            let repairs = Exponential::new(1.0 / st.mean_time_to_repair.as_secs_f64());
            // Per-disk "in an episode until" map for overlap suppression.
            let mut busy_until = vec![SimTime::ZERO; disks as usize];
            let mut t = 0.0_f64;
            loop {
                t += arrivals.sample(&mut frng);
                let at = SimTime::from_micros((t * 1e6).round() as u64);
                if at >= horizon {
                    break;
                }
                let disk = frng.next_below(u64::from(disks)) as u32;
                let len = SimDuration::from_secs_f64(repairs.sample(&mut frng).max(1e-6));
                let slow = st.slow_fraction > 0.0 && frng.bernoulli(st.slow_fraction);
                if busy_until[disk as usize] > at {
                    continue; // disk already mid-episode: skip, stay deterministic
                }
                let end = (at + len).min(horizon);
                busy_until[disk as usize] = end;
                let (start_kind, end_kind) = if slow {
                    (FaultKind::SlowStart, FaultKind::SlowEnd)
                } else {
                    (FaultKind::Fail, FaultKind::Repair)
                };
                raw.push(FaultEvent {
                    disk,
                    at,
                    kind: start_kind,
                });
                raw.push(FaultEvent {
                    disk,
                    at: end,
                    kind: end_kind,
                });
            }
        }
        // Stable sort: same-instant events keep their plan order.
        raw.sort_by_key(|ev| ev.at);
        // Stateful normalization.
        let mut down = vec![false; disks as usize];
        let mut slow = vec![false; disks as usize];
        let mut events = Vec::with_capacity(raw.len());
        for ev in raw {
            let d = ev.disk as usize;
            let effective = match ev.kind {
                FaultKind::Fail => !down[d],
                FaultKind::Repair => down[d],
                FaultKind::SlowStart => !slow[d],
                FaultKind::SlowEnd => slow[d],
            };
            if !effective {
                continue;
            }
            match ev.kind {
                FaultKind::Fail => down[d] = true,
                FaultKind::Repair => down[d] = false,
                FaultKind::SlowStart => slow[d] = true,
                FaultKind::SlowEnd => slow[d] = false,
            }
            events.push(ev);
        }
        // Close any window still open at the horizon.
        for (d, is_down) in down.iter().enumerate() {
            if *is_down {
                events.push(FaultEvent {
                    disk: d as u32,
                    at: horizon,
                    kind: FaultKind::Repair,
                });
            }
        }
        for (d, is_slow) in slow.iter().enumerate() {
            if *is_slow {
                events.push(FaultEvent {
                    disk: d as u32,
                    at: horizon,
                    kind: FaultKind::SlowEnd,
                });
            }
        }
        events.sort_by_key(|ev| ev.at);
        ss_obs::obs!(ss_obs::Event::FaultTimeline {
            events: events.len() as u64,
        });
        FaultTimeline {
            events,
            drop_after_hiccup_intervals: self.drop_after_hiccup_intervals,
            crash_events: self.compile_crash(disks, horizon, rng),
        }
    }

    /// Compiles the crash plane (if any) into a sorted, salted event list.
    ///
    /// Salts and stochastic draws come from `rng.derive("crash")` (with
    /// per-kind sub-streams `crash/power` and `crash/torn`), so arming the
    /// crash plane moves no existing stream, and the two stochastic
    /// generators never perturb each other.
    fn compile_crash(
        &self,
        disks: u32,
        horizon: SimTime,
        rng: &DeterministicRng,
    ) -> Vec<CrashEvent> {
        let Some(cf) = &self.crash else {
            return Vec::new();
        };
        let mut crng = rng.derive("crash");
        let mut raw: Vec<CrashEvent> = cf
            .events
            .iter()
            .map(|ev| CrashEvent {
                disk: ev.disk,
                at: ev.at,
                kind: ev.kind,
                salt: crng.next_u64_raw(),
            })
            .collect();
        let generators = [
            ("power", cf.power_loss_mtbf, CrashKind::PowerLoss),
            ("torn", cf.torn_write_mtbf, CrashKind::TornWrite),
        ];
        for (label, mtbf, kind) in generators {
            let Some(mtbf) = mtbf else { continue };
            let mut srng = crng.derive(label);
            let arrivals = Exponential::new(1.0 / mtbf.as_secs_f64());
            let mut t = 0.0_f64;
            loop {
                t += arrivals.sample(&mut srng);
                let at = SimTime::from_micros((t * 1e6).round() as u64);
                if at >= horizon {
                    break;
                }
                let disk = srng.next_below(u64::from(disks)) as u32;
                raw.push(CrashEvent {
                    disk,
                    at,
                    kind,
                    salt: srng.next_u64_raw(),
                });
            }
        }
        // Stable sort: same-instant events keep plan-then-power-then-torn
        // order.
        raw.sort_by_key(|ev| ev.at);
        raw
    }
}

/// A compiled fault schedule: sorted, normalized, ready for replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
    /// Copied from the plan for the server's drop policy.
    pub drop_after_hiccup_intervals: Option<u64>,
    /// The compiled crash plane: sorted power-loss/torn-write events with
    /// their deterministic salts. A separate plane from `events` so the
    /// zero-*service*-fault gate ([`Self::is_empty`]) stays untouched.
    crash_events: Vec<CrashEvent>,
}

impl FaultTimeline {
    /// All events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no fault will ever fire (the zero-fault gate).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The firing time of event `cursor` (the next unprocessed event for a
    /// model that has consumed `cursor` events), if any — models feed this
    /// into their wakeup horizon so sparse ticking never sleeps through a
    /// fault.
    pub fn next_at(&self, cursor: usize) -> Option<SimTime> {
        self.events.get(cursor).map(|ev| ev.at)
    }

    /// All compiled crash-plane events, in firing order.
    pub fn crash_events(&self) -> &[CrashEvent] {
        &self.crash_events
    }

    /// The firing time of crash event `cursor`, if any — the crash plane's
    /// wakeup-horizon hook, mirroring [`Self::next_at`].
    pub fn next_crash_at(&self, cursor: usize) -> Option<SimTime> {
        self.crash_events.get(cursor).map(|ev| ev.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour(h: u64) -> SimTime {
        SimTime::from_secs(h * 3600)
    }

    #[test]
    fn empty_plan_compiles_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let tl = plan.compile(10, hour(10), &DeterministicRng::seed_from_u64(1));
        assert!(tl.is_empty());
        assert_eq!(tl.next_at(0), None);
    }

    #[test]
    fn fail_window_round_trips() {
        let plan = FaultPlan::fail_window(3, hour(1), hour(2));
        plan.validate(10).unwrap();
        let tl = plan.compile(10, hour(10), &DeterministicRng::seed_from_u64(1));
        assert_eq!(tl.events().len(), 2);
        assert_eq!(tl.events()[0].kind, FaultKind::Fail);
        assert_eq!(tl.events()[1].kind, FaultKind::Repair);
        assert_eq!(tl.next_at(0), Some(hour(1)));
        assert_eq!(tl.next_at(1), Some(hour(2)));
        assert_eq!(tl.next_at(2), None);
    }

    #[test]
    fn validate_rejects_out_of_range_disk() {
        let plan = FaultPlan::fail_window(10, hour(1), hour(2));
        assert!(plan.validate(10).is_err());
        assert!(plan.validate(11).is_ok());
    }

    #[test]
    fn validate_rejects_inverted_and_empty_windows() {
        // repair <= fail: both the inverted and the zero-length window
        // must be rejected with the typed fault-plan error.
        for (fail_at, repair_at) in [(hour(2), hour(1)), (hour(1), hour(1))] {
            let plan = FaultPlan::fail_window(3, fail_at, repair_at);
            match plan.validate(10) {
                Err(Error::InvalidFaultPlan { .. }) => {}
                other => panic!("expected InvalidFaultPlan, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_overlapping_windows_on_same_disk() {
        let mut plan = FaultPlan::fail_window(3, hour(1), hour(4));
        plan.events
            .extend(FaultPlan::fail_window(3, hour(2), hour(3)).events);
        match plan.validate(10) {
            Err(Error::InvalidFaultPlan { .. }) => {}
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        // The same two windows on *different* disks are fine.
        let mut ok = FaultPlan::fail_window(3, hour(1), hour(4));
        ok.events
            .extend(FaultPlan::fail_window(7, hour(2), hour(3)).events);
        ok.validate(10).unwrap();
        // Back-to-back windows on one disk are fine too.
        let mut seq = FaultPlan::fail_window(3, hour(1), hour(2));
        seq.events
            .extend(FaultPlan::fail_window(3, hour(2), hour(3)).events);
        seq.validate(10).unwrap();
    }

    #[test]
    fn validate_rejects_unmatched_close_but_allows_open_window() {
        let close_only = FaultPlan {
            events: vec![FaultEvent {
                disk: 0,
                at: hour(1),
                kind: FaultKind::Repair,
            }],
            ..FaultPlan::default()
        };
        match close_only.validate(4) {
            Err(Error::InvalidFaultPlan { .. }) => {}
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        // An open failure window is legal: compilation closes it at the
        // horizon.
        let open = FaultPlan {
            events: vec![FaultEvent {
                disk: 0,
                at: hour(1),
                kind: FaultKind::Fail,
            }],
            ..FaultPlan::default()
        };
        open.validate(4).unwrap();
    }

    #[test]
    fn normalization_drops_redundant_transitions_and_closes_windows() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    disk: 0,
                    at: hour(1),
                    kind: FaultKind::Fail,
                },
                // Redundant: disk 0 is already down.
                FaultEvent {
                    disk: 0,
                    at: hour(2),
                    kind: FaultKind::Fail,
                },
                // Redundant: disk 1 is up.
                FaultEvent {
                    disk: 1,
                    at: hour(2),
                    kind: FaultKind::Repair,
                },
            ],
            ..FaultPlan::default()
        };
        let tl = plan.compile(2, hour(5), &DeterministicRng::seed_from_u64(1));
        // Fail at h1 + synthetic repair at the horizon.
        assert_eq!(tl.events().len(), 2);
        assert_eq!(tl.events()[0].kind, FaultKind::Fail);
        assert_eq!(
            tl.events()[1],
            FaultEvent {
                disk: 0,
                at: hour(5),
                kind: FaultKind::Repair,
            }
        );
    }

    #[test]
    fn stochastic_compilation_is_seed_deterministic() {
        let plan = FaultPlan {
            stochastic: Some(StochasticFaults {
                mean_time_between_failures: SimDuration::from_secs(1800),
                mean_time_to_repair: SimDuration::from_secs(600),
                slow_fraction: 0.25,
            }),
            ..FaultPlan::default()
        };
        plan.validate(20).unwrap();
        let a = plan.compile(20, hour(12), &DeterministicRng::seed_from_u64(7));
        let b = plan.compile(20, hour(12), &DeterministicRng::seed_from_u64(7));
        let c = plan.compile(20, hour(12), &DeterministicRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty(), "12 h at MTBF 30 min yields episodes");
        // Windows balance: every disk ends the horizon up and fast.
        let mut down = [false; 20];
        let mut slow = [false; 20];
        for ev in a.events() {
            let d = ev.disk as usize;
            match ev.kind {
                FaultKind::Fail => {
                    assert!(!down[d]);
                    down[d] = true;
                }
                FaultKind::Repair => {
                    assert!(down[d]);
                    down[d] = false;
                }
                FaultKind::SlowStart => {
                    assert!(!slow[d]);
                    slow[d] = true;
                }
                FaultKind::SlowEnd => {
                    assert!(slow[d]);
                    slow[d] = false;
                }
            }
        }
        assert!(down.iter().all(|&x| !x) && slow.iter().all(|&x| !x));
    }

    #[test]
    fn crash_plane_compiles_salted_and_seed_deterministic() {
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashFaults {
            events: vec![
                CrashPlanEvent {
                    disk: 3,
                    at: hour(2),
                    kind: CrashKind::PowerLoss,
                },
                CrashPlanEvent {
                    disk: 5,
                    at: hour(1),
                    kind: CrashKind::TornWrite,
                },
            ],
            power_loss_mtbf: Some(SimDuration::from_secs(4 * 3600)),
            torn_write_mtbf: Some(SimDuration::from_secs(3 * 3600)),
        });
        plan.validate(10).unwrap();
        // The plan is service-fault empty: crash events still compile.
        assert!(plan.is_empty());
        let a = plan.compile(10, hour(12), &DeterministicRng::seed_from_u64(7));
        let b = plan.compile(10, hour(12), &DeterministicRng::seed_from_u64(7));
        let c = plan.compile(10, hour(12), &DeterministicRng::seed_from_u64(8));
        assert!(a.is_empty(), "crash events never open the service gate");
        assert_eq!(a, b);
        assert_ne!(a.crash_events(), c.crash_events());
        assert!(a.crash_events().len() >= 4, "explicit + stochastic events");
        assert!(a.crash_events().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(a.next_crash_at(0), Some(a.crash_events()[0].at));
        assert_eq!(a.next_crash_at(a.crash_events().len()), None);
        // Both kinds present, and the explicit events kept their kinds.
        assert!(a
            .crash_events()
            .iter()
            .any(|ev| ev.kind == CrashKind::PowerLoss));
        assert!(a
            .crash_events()
            .iter()
            .any(|ev| ev.kind == CrashKind::TornWrite));
        assert!(a
            .crash_events()
            .iter()
            .any(|ev| ev.disk == 5 && ev.at == hour(1)));
    }

    #[test]
    fn crash_plane_never_moves_the_faults_stream() {
        // Same stochastic service-fault plan, with and without the crash
        // plane armed: the compiled service events must be identical
        // (crash draws come from the independent `crash` stream).
        let base = FaultPlan {
            stochastic: Some(StochasticFaults {
                mean_time_between_failures: SimDuration::from_secs(1800),
                mean_time_to_repair: SimDuration::from_secs(600),
                slow_fraction: 0.25,
            }),
            ..FaultPlan::default()
        };
        let mut crashed = base.clone();
        crashed.crash = Some(CrashFaults {
            events: vec![],
            power_loss_mtbf: Some(SimDuration::from_secs(3600)),
            torn_write_mtbf: None,
        });
        let rng = DeterministicRng::seed_from_u64(42);
        let plain = base.compile(20, hour(12), &rng);
        let armed = crashed.compile(20, hour(12), &rng);
        assert_eq!(plain.events(), armed.events());
        assert!(plain.crash_events().is_empty());
        assert!(!armed.crash_events().is_empty());
    }

    #[test]
    fn validate_rejects_bad_crash_events() {
        // Out-of-range disk.
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashFaults {
            events: vec![CrashPlanEvent {
                disk: 10,
                at: hour(1),
                kind: CrashKind::PowerLoss,
            }],
            ..CrashFaults::default()
        });
        match plan.validate(10) {
            Err(Error::InvalidFaultPlan { reason }) => {
                assert!(reason.contains("crash event"), "{reason}")
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        // A crash inside the disk's own failure window is rejected; the
        // same instant on another disk, or outside the window, is fine.
        let mut plan = FaultPlan::fail_window(3, hour(1), hour(4));
        plan.crash = Some(CrashFaults {
            events: vec![CrashPlanEvent {
                disk: 3,
                at: hour(2),
                kind: CrashKind::TornWrite,
            }],
            ..CrashFaults::default()
        });
        match plan.validate(10) {
            Err(Error::InvalidFaultPlan { reason }) => {
                assert!(reason.contains("failure window"), "{reason}")
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        plan.crash.as_mut().unwrap().events[0].disk = 4;
        plan.validate(10).unwrap();
        plan.crash.as_mut().unwrap().events[0].disk = 3;
        plan.crash.as_mut().unwrap().events[0].at = hour(5);
        plan.validate(10).unwrap();
        // An open failure window (no repair) covers everything after it.
        let mut open = FaultPlan {
            events: vec![FaultEvent {
                disk: 0,
                at: hour(1),
                kind: FaultKind::Fail,
            }],
            ..FaultPlan::default()
        };
        open.crash = Some(CrashFaults {
            events: vec![CrashPlanEvent {
                disk: 0,
                at: hour(9),
                kind: CrashKind::PowerLoss,
            }],
            ..CrashFaults::default()
        });
        assert!(open.validate(4).is_err());
        // Degenerate stochastic rates are rejected.
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashFaults {
            power_loss_mtbf: Some(SimDuration::ZERO),
            ..CrashFaults::default()
        });
        assert!(plan.validate(10).is_err());
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashFaults {
            torn_write_mtbf: Some(SimDuration::ZERO),
            ..CrashFaults::default()
        });
        assert!(plan.validate(10).is_err());
    }

    #[test]
    fn zero_crash_plan_serializes_without_crash_key() {
        // The skip-if-None gate: plans that predate the crash plane keep
        // their serialized bytes.
        let plan = FaultPlan::fail_window(3, hour(1), hour(2));
        let json = serde_json::to_string(&plan).expect("serialize plan");
        assert!(!json.contains("crash"), "{json}");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize plan");
        assert_eq!(back, plan);
    }

    #[test]
    fn stochastic_stream_is_independent_of_consumption_order() {
        // derive("faults") is position-independent, so compiling before or
        // after other draws from the master RNG yields the same timeline.
        let plan = FaultPlan {
            stochastic: Some(StochasticFaults {
                mean_time_between_failures: SimDuration::from_secs(3600),
                mean_time_to_repair: SimDuration::from_secs(300),
                slow_fraction: 0.0,
            }),
            ..FaultPlan::default()
        };
        let rng = DeterministicRng::seed_from_u64(42);
        let before = plan.compile(8, hour(24), &rng);
        let mut used = rng.clone();
        for _ in 0..1000 {
            used.next_u64_raw();
        }
        let after = plan.compile(8, hour(24), &used);
        assert_eq!(before, after);
    }
}
