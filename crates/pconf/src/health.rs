//! Device-level health supervision: the rung ladder a fleet supervisor
//! climbs as commit escalations, rollbacks, scrub quarantines, and
//! watchdog trips accumulate, plus the deadline watchdog itself.
//!
//! The commit ladder in [`crate::icap`] and the scrubber in
//! [`crate::scrub`] absorb *transient* faults and report what they
//! spent doing so. This module turns those reports into a judgement
//! about the device: a port that needs escalations every turn, rolls
//! commits back repeatedly, quarantines frames, or blows through its
//! deadline is degrading toward useless, and a serve fleet should stop
//! routing sessions at it before it takes them down.
//!
//! The watchdog's deadline *scales with the retry ladder*: a commit
//! that spent its time on honest retries and escalations earns a
//! proportionally larger allowance, so a slow-but-progressing commit
//! under a 10% fault rate never false-trips, while a wedged port —
//! burning real wall-clock time without progress — always does.

use crate::icap::CommitStats;
use crate::scrub::ScrubReport;
use std::time::Duration;

/// Health rung of one device, worst last. The ladder only climbs on
/// bad events; it steps down a single rung (Degraded → Healthy) after
/// a run of clean operations. Quarantined and Failed are terminal from
/// the supervisor's point of view — a fleet drains such a device
/// rather than waiting for it to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeviceHealth {
    /// Serving cleanly.
    Healthy,
    /// Needing escalations or occasional rollbacks, but progressing.
    Degraded,
    /// Repeated rollbacks, scrub quarantines, or a watchdog trip:
    /// stop routing new work here and drain.
    Quarantined,
    /// Definitively dead (repeated watchdog trips or rollback storms,
    /// or an explicit kill).
    Failed,
}

impl DeviceHealth {
    /// Stable wire name (metrics gauges, `devices` verb, `pfdbg top`).
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Degraded => "degraded",
            DeviceHealth::Quarantined => "quarantined",
            DeviceHealth::Failed => "failed",
        }
    }

    /// Numeric gauge encoding (0 = healthy … 3 = failed).
    pub fn score(self) -> u64 {
        match self {
            DeviceHealth::Healthy => 0,
            DeviceHealth::Degraded => 1,
            DeviceHealth::Quarantined => 2,
            DeviceHealth::Failed => 3,
        }
    }

    /// `true` once a fleet should drain the device (Quarantined or
    /// Failed).
    pub fn needs_drain(self) -> bool {
        self >= DeviceHealth::Quarantined
    }
}

/// One observed event on a device, fed to [`HealthLadder::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// A commit landed without entering the escalation ladder.
    CleanCommit,
    /// A commit landed but entered `levels` escalation levels.
    Escalation(u32),
    /// A commit failed and the turn rolled back.
    Rollback,
    /// A commit or scrub pass blew through its watchdog deadline.
    WatchdogTrip,
    /// A scrub pass found nothing to repair (or repaired everything).
    ScrubClean,
    /// A scrub pass quarantined `frames` stuck frames.
    ScrubQuarantine(usize),
}

/// Thresholds of one [`HealthLadder`]. All counters are cumulative
/// since the last downward step, except `recover_after_clean` which
/// counts *consecutive* clean operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Escalation levels (summed) before Healthy drops to Degraded.
    pub degrade_after_escalations: u32,
    /// Rollbacks before the device is Quarantined.
    pub quarantine_after_rollbacks: u32,
    /// Rollbacks before the device is Failed outright.
    pub fail_after_rollbacks: u32,
    /// Watchdog trips before the device is Failed (the first trip
    /// already Quarantines it).
    pub fail_after_trips: u32,
    /// Consecutive clean commits/scrubs before Degraded steps back
    /// down to Healthy.
    pub recover_after_clean: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degrade_after_escalations: 4,
            quarantine_after_rollbacks: 3,
            fail_after_rollbacks: 6,
            fail_after_trips: 2,
            recover_after_clean: 16,
        }
    }
}

/// A rung transition reported by [`HealthLadder::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Rung before the event.
    pub from: DeviceHealth,
    /// Rung after the event.
    pub to: DeviceHealth,
}

/// Per-device health state machine. Not thread-safe by itself — the
/// serve fleet guards each ladder with its device slot's lock.
#[derive(Debug, Clone)]
pub struct HealthLadder {
    policy: HealthPolicy,
    health: DeviceHealth,
    escalations: u32,
    rollbacks: u32,
    trips: u32,
    consecutive_clean: u32,
}

impl Default for HealthLadder {
    fn default() -> Self {
        Self::new(HealthPolicy::default())
    }
}

impl HealthLadder {
    /// A Healthy ladder under `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthLadder {
            policy,
            health: DeviceHealth::Healthy,
            escalations: 0,
            rollbacks: 0,
            trips: 0,
            consecutive_clean: 0,
        }
    }

    /// Current rung.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Lifetime watchdog trips observed.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Lifetime rollbacks observed.
    pub fn rollbacks(&self) -> u32 {
        self.rollbacks
    }

    /// Force the ladder onto a rung (explicit `fail`/`drain` verbs and
    /// device-mode kills bypass the thresholds). Returns the
    /// transition if the rung changed. Failed is terminal: the ladder
    /// never leaves it, even by force.
    pub fn force(&mut self, to: DeviceHealth) -> Option<HealthTransition> {
        if self.health == DeviceHealth::Failed || to == self.health {
            return None;
        }
        let from = self.health;
        self.health = to;
        Some(HealthTransition { from, to })
    }

    /// Feed one event; returns the transition if the rung changed.
    pub fn observe(&mut self, event: HealthEvent) -> Option<HealthTransition> {
        if self.health == DeviceHealth::Failed {
            return None;
        }
        let target = match event {
            HealthEvent::CleanCommit | HealthEvent::ScrubClean => {
                self.consecutive_clean += 1;
                if self.health == DeviceHealth::Degraded
                    && self.consecutive_clean >= self.policy.recover_after_clean
                {
                    // One rung down, counters reset: recovery must be
                    // re-earned from scratch after the next incident.
                    self.escalations = 0;
                    self.rollbacks = 0;
                    self.consecutive_clean = 0;
                    return self.force(DeviceHealth::Healthy);
                }
                return None;
            }
            HealthEvent::Escalation(levels) => {
                if levels == 0 {
                    return self.observe(HealthEvent::CleanCommit);
                }
                self.consecutive_clean = 0;
                self.escalations += levels;
                if self.escalations >= self.policy.degrade_after_escalations {
                    DeviceHealth::Degraded
                } else {
                    return None;
                }
            }
            HealthEvent::Rollback => {
                self.consecutive_clean = 0;
                self.rollbacks += 1;
                if self.rollbacks >= self.policy.fail_after_rollbacks {
                    DeviceHealth::Failed
                } else if self.rollbacks >= self.policy.quarantine_after_rollbacks {
                    DeviceHealth::Quarantined
                } else {
                    DeviceHealth::Degraded
                }
            }
            HealthEvent::WatchdogTrip => {
                self.consecutive_clean = 0;
                self.trips += 1;
                if self.trips >= self.policy.fail_after_trips {
                    DeviceHealth::Failed
                } else {
                    DeviceHealth::Quarantined
                }
            }
            HealthEvent::ScrubQuarantine(frames) => {
                if frames == 0 {
                    return self.observe(HealthEvent::ScrubClean);
                }
                self.consecutive_clean = 0;
                DeviceHealth::Quarantined
            }
        };
        if target > self.health {
            self.force(target)
        } else {
            None
        }
    }
}

/// Deadline budgets of the commit/scrub watchdog. The allowance for a
/// pass is its base budget plus a per-unit grant for every retry,
/// escalation, or repair the pass *reported doing* — work is evidence
/// of progress, so the deadline stretches with it, and only wall-clock
/// time spent without reported work trips the dog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Base wall-clock budget of one commit.
    pub commit_budget: Duration,
    /// Extra allowance per retry the commit reported.
    pub per_retry: Duration,
    /// Extra allowance per escalation level the commit entered.
    pub per_degradation: Duration,
    /// Base wall-clock budget of one scrub pass.
    pub scrub_budget: Duration,
    /// Extra allowance per upset frame the pass handled.
    pub per_repair: Duration,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            commit_budget: Duration::from_millis(250),
            per_retry: Duration::from_micros(250),
            per_degradation: Duration::from_millis(20),
            scrub_budget: Duration::from_millis(500),
            per_repair: Duration::from_millis(1),
        }
    }
}

/// Outcome of one watchdog assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogVerdict {
    /// `true` when the pass exceeded its scaled allowance.
    pub tripped: bool,
    /// Wall-clock time the pass actually took.
    pub elapsed: Duration,
    /// The allowance it was granted (budget + scaled ladder grants).
    pub allowed: Duration,
}

impl WatchdogPolicy {
    /// Allowance earned by a commit: base budget plus per-retry and
    /// per-escalation grants. Works for failed commits too —
    /// `commit_frames` reports stats in its `Err` as well.
    pub fn commit_allowance(&self, stats: &CommitStats) -> Duration {
        self.commit_budget
            + self.per_retry * stats.retries
            + self.per_degradation * stats.degradations
    }

    /// Judge one commit against its scaled deadline. `elapsed` is the
    /// *wall-clock* time measured around the commit — the modeled
    /// transfer/verify times in `stats` are device-time and play no
    /// role here.
    pub fn assess_commit(&self, stats: &CommitStats, elapsed: Duration) -> WatchdogVerdict {
        let allowed = self.commit_allowance(stats);
        WatchdogVerdict { tripped: elapsed > allowed, elapsed, allowed }
    }

    /// Allowance earned by a scrub pass: base budget plus a grant per
    /// upset frame it detected (repaired, still-failing, or newly
    /// quarantined — all three are reported work).
    pub fn scrub_allowance(&self, report: &ScrubReport) -> Duration {
        self.scrub_budget + self.per_repair * report.upset_frames as u32
    }

    /// Judge one scrub pass against its scaled deadline.
    pub fn assess_scrub(&self, report: &ScrubReport, elapsed: Duration) -> WatchdogVerdict {
        let allowed = self.scrub_allowance(report);
        WatchdogVerdict { tripped: elapsed > allowed, elapsed, allowed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icap::{commit_frames, CommitPolicy, IcapChannel, IcapError, MemoryIcap};
    use pfdbg_arch::{Bitstream, IcapModel};
    use pfdbg_util::BitVec;
    use std::time::Instant;

    fn stream(n_bits: usize, ones: &[usize]) -> Bitstream {
        let mut b = Bitstream::from_bits(BitVec::zeros(n_bits));
        for &i in ones {
            b.set(i, true);
        }
        b
    }

    #[test]
    fn ladder_degrades_on_accumulated_escalations() {
        let mut l = HealthLadder::default();
        assert_eq!(l.observe(HealthEvent::Escalation(2)), None);
        let t = l.observe(HealthEvent::Escalation(2)).expect("4 levels hit the threshold");
        assert_eq!((t.from, t.to), (DeviceHealth::Healthy, DeviceHealth::Degraded));
        assert_eq!(l.health(), DeviceHealth::Degraded);
    }

    #[test]
    fn ladder_quarantines_then_fails_on_rollback_storm() {
        let mut l = HealthLadder::default();
        l.observe(HealthEvent::Rollback);
        assert_eq!(l.health(), DeviceHealth::Degraded, "first rollback only degrades");
        l.observe(HealthEvent::Rollback);
        let t = l.observe(HealthEvent::Rollback).unwrap();
        assert_eq!(t.to, DeviceHealth::Quarantined);
        l.observe(HealthEvent::Rollback);
        l.observe(HealthEvent::Rollback);
        let t = l.observe(HealthEvent::Rollback).unwrap();
        assert_eq!(t.to, DeviceHealth::Failed);
        assert_eq!(l.observe(HealthEvent::CleanCommit), None, "Failed is terminal");
        assert_eq!(l.force(DeviceHealth::Healthy), None, "even by force");
    }

    #[test]
    fn first_watchdog_trip_quarantines_second_fails() {
        let mut l = HealthLadder::default();
        assert_eq!(l.observe(HealthEvent::WatchdogTrip).unwrap().to, DeviceHealth::Quarantined);
        assert_eq!(l.observe(HealthEvent::WatchdogTrip).unwrap().to, DeviceHealth::Failed);
    }

    #[test]
    fn scrub_quarantine_quarantines_and_clean_scrubs_recover_degraded() {
        let mut l =
            HealthLadder::new(HealthPolicy { recover_after_clean: 3, ..HealthPolicy::default() });
        assert_eq!(l.observe(HealthEvent::ScrubQuarantine(0)), None, "zero frames is clean");
        assert_eq!(
            l.observe(HealthEvent::ScrubQuarantine(2)).unwrap().to,
            DeviceHealth::Quarantined
        );

        let mut d = HealthLadder::new(HealthPolicy {
            degrade_after_escalations: 1,
            recover_after_clean: 3,
            ..HealthPolicy::default()
        });
        d.observe(HealthEvent::Escalation(1));
        assert_eq!(d.health(), DeviceHealth::Degraded);
        d.observe(HealthEvent::CleanCommit);
        d.observe(HealthEvent::ScrubClean);
        let t = d.observe(HealthEvent::CleanCommit).expect("3 consecutive cleans recover");
        assert_eq!((t.from, t.to), (DeviceHealth::Degraded, DeviceHealth::Healthy));
        // An escalation in the middle resets the clean streak.
        d.observe(HealthEvent::Escalation(1));
        d.observe(HealthEvent::CleanCommit);
        d.observe(HealthEvent::CleanCommit);
        d.observe(HealthEvent::Escalation(1));
        d.observe(HealthEvent::CleanCommit);
        d.observe(HealthEvent::CleanCommit);
        assert_eq!(d.health(), DeviceHealth::Degraded, "streak restarted after the escalation");
    }

    #[test]
    fn quarantined_does_not_recover() {
        let mut l =
            HealthLadder::new(HealthPolicy { recover_after_clean: 1, ..HealthPolicy::default() });
        l.observe(HealthEvent::WatchdogTrip);
        assert_eq!(l.health(), DeviceHealth::Quarantined);
        l.observe(HealthEvent::CleanCommit);
        assert_eq!(l.health(), DeviceHealth::Quarantined, "drain rungs never step down");
    }

    /// A port that fails ~10% of writes from a seeded generator —
    /// honest transient faults the retry ladder absorbs with modeled
    /// (not slept) backoff, so wall-clock elapsed stays tiny.
    struct Flaky10 {
        inner: MemoryIcap,
        state: u64,
    }

    impl Flaky10 {
        fn chance(&mut self) -> bool {
            // SplitMix64, same idiom as `icap::Backoff`: no rand dep.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)).is_multiple_of(10)
        }
    }

    impl IcapChannel for Flaky10 {
        fn frame_bits(&self) -> usize {
            self.inner.frame_bits()
        }
        fn n_bits(&self) -> usize {
            self.inner.n_bits()
        }
        fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
            if self.chance() {
                return Err(IcapError::WriteFailed);
            }
            self.inner.write_frame(frame, data)
        }
        fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
            self.inner.read_frame_into(frame, out)
        }
    }

    /// A permanently wedged port: every write burns real wall-clock
    /// time, then stalls. The watchdog exists for exactly this.
    struct Wedged {
        inner: MemoryIcap,
        sleep: Duration,
    }

    impl IcapChannel for Wedged {
        fn frame_bits(&self) -> usize {
            self.inner.frame_bits()
        }
        fn n_bits(&self) -> usize {
            self.inner.n_bits()
        }
        fn write_frame(&mut self, _frame: usize, _data: &[u64]) -> Result<(), IcapError> {
            std::thread::sleep(self.sleep);
            Err(IcapError::Stalled)
        }
        fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
            self.inner.read_frame_into(frame, out)
        }
    }

    /// Satellite guard: a slow-but-progressing commit at a 10% fault
    /// rate must NOT trip the watchdog — its retries stretch the
    /// deadline — while a wedged commit must.
    #[test]
    fn watchdog_spares_progressing_commits_and_trips_wedged_ones() {
        let icap = IcapModel::virtex5();
        let n_bits = 64 * 128;
        let frames: Vec<usize> = (0..64).collect();
        let target = stream(n_bits, &[5, 300, 7000]);
        let policy = WatchdogPolicy {
            commit_budget: Duration::from_millis(50),
            per_retry: Duration::from_micros(100),
            per_degradation: Duration::from_millis(5),
            ..WatchdogPolicy::default()
        };

        // Honest 10% faults: retries and escalations earn allowance,
        // and the modeled backoff costs no wall-clock time.
        let mut flaky = Flaky10 { inner: MemoryIcap::new(stream(n_bits, &[]), 128), state: 0x7EA };
        let t0 = Instant::now();
        let stats =
            commit_frames(&mut flaky, &icap, &target, &frames, &frames, &CommitPolicy::default())
                .expect("10% transient faults commit through the ladder");
        let verdict = policy.assess_commit(&stats, t0.elapsed());
        assert!(stats.retries > 0, "the run must actually have been slow: {stats:?}");
        assert!(
            !verdict.tripped,
            "progressing commit false-tripped: {:?} > {:?} with {} retries",
            verdict.elapsed, verdict.allowed, stats.retries
        );

        // Wedged: 5 ms of real wall time per write against a 100 µs
        // per-retry grant — the deadline cannot stretch fast enough.
        // Small device so the level-2 full-reconfig escalation doesn't
        // sleep the test for seconds.
        let wedged_target = stream(8 * 128, &[5, 300]);
        let mut wedged = Wedged {
            inner: MemoryIcap::new(stream(8 * 128, &[]), 128),
            sleep: Duration::from_millis(5),
        };
        let t0 = Instant::now();
        let (stats, _msg) = commit_frames(
            &mut wedged,
            &icap,
            &wedged_target,
            &[0, 1],
            &[0, 1],
            &CommitPolicy::default(),
        )
        .expect_err("a fully stalled port cannot commit");
        let verdict = policy.assess_commit(&stats, t0.elapsed());
        assert!(
            verdict.tripped,
            "wedged commit must trip: {:?} <= {:?}",
            verdict.elapsed, verdict.allowed
        );
    }

    #[test]
    fn scrub_allowance_scales_with_upsets() {
        let policy = WatchdogPolicy::default();
        let quiet = ScrubReport::default();
        let busy = ScrubReport { upset_frames: 40, ..ScrubReport::default() };
        assert!(policy.scrub_allowance(&busy) > policy.scrub_allowance(&quiet));
        let v = policy.assess_scrub(&quiet, policy.scrub_budget + Duration::from_millis(1));
        assert!(v.tripped);
        let v = policy.assess_scrub(&busy, policy.scrub_budget + Duration::from_millis(1));
        assert!(!v.tripped, "upset handling stretched the deadline");
    }
}
