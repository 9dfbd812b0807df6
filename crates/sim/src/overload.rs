//! Deterministic overload-control plane: bounded admission, load
//! shedding, circuit breaking, and brownout spillover.
//!
//! The paper's central tension is that the cloud controller is both the
//! performance win and the scalability hazard: Fig. 17/18 show it
//! saturating as swarms grow. An [`OverloadPolicy`] describes how the
//! stack should *degrade gracefully* at that point instead of queueing
//! without bound: admission queues get a bound and shed on overflow,
//! stale work is dropped before it wastes a server, a per-app circuit
//! breaker stops retry storms at the source, and shed cloud invocations
//! can spill over to on-device execution with a cheaper, less accurate
//! model (the paper's edge fallback, [`DEGRADED_SPEEDUP`] and
//! [`DEGRADED_ACCURACY_PENALTY_PCT`]). Experiments attach a policy via
//! `RunPlan::overload`.
//!
//! ## Determinism contract
//!
//! Unlike [`crate::faults`], the overload plane draws **no randomness at
//! all**: every decision is a pure function of queue lengths, counters,
//! and event times, so the plane needs no seed-chain lane. Two
//! consequences:
//!
//! 1. a run with an inert policy ([`OverloadPolicy::default`]) is
//!    **bit-for-bit identical** to a run that never heard of overload
//!    control — no extra RNG stream exists and no event is reordered;
//! 2. sweeping an overload knob (say the queue bound) never reshuffles
//!    the workload's own randomness, so saturation curves compare the
//!    *same* offered load under different control settings.
//!
//! The consumers live in their own crates — `faas::cluster` applies the
//! admission bounds and drives per-app [`CircuitBreaker`]s,
//! `core::engine` re-routes shed invocations when spillover is on, and
//! `net::fabric` applies [`NetBackpressure`] — but the vocabulary (and
//! the breaker state machine itself) is defined here so a policy can be
//! validated and threaded as one value.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Trace category used by circuit-breaker transitions
/// (`breaker/open`, `breaker/half_open`, `breaker/close`).
pub const BREAKER_TRACE_CAT: &str = "breaker";
/// Trace event name emitted when a breaker opens (fail-fast begins).
pub const EV_BREAKER_OPEN: &str = "open";
/// Trace event name emitted when a cooled-down breaker admits probes.
pub const EV_BREAKER_HALF_OPEN: &str = "half_open";
/// Trace event name emitted when a probe success closes the breaker.
pub const EV_BREAKER_CLOSE: &str = "close";
/// Trace event name for a shed task (emitted in the `task` category,
/// alongside `task/lost`).
pub const EV_SHED: &str = "shed";

/// Service-rate multiplier of the degraded on-device model relative to
/// the full on-device model: the fallback model is smaller and faster.
/// Brownout spillover and disconnected autonomy both run it.
pub const DEGRADED_SPEEDUP: f64 = 4.0;

/// Accuracy points lost per task run on the degraded model, accounted
/// so experiments can weigh goodput against quality.
pub const DEGRADED_ACCURACY_PENALTY_PCT: f64 = 15.0;

/// How long a transfer held by ingress backpressure waits before
/// re-offering itself to its first-hop link (deterministic, no RNG).
pub const INGRESS_RETRY_DELAY: SimDuration = SimDuration::from_millis(50);

/// A declarative description of every overload-control mechanism armed
/// for one run.
///
/// The default policy is **inert**: [`OverloadPolicy::is_active`] returns
/// `false` and every consumer skips its overload path entirely, leaving
/// the simulation byte-identical to one that never heard of overload
/// control.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::overload::OverloadPolicy;
/// use hivemind_sim::time::SimDuration;
///
/// let policy = OverloadPolicy::default()
///     .queue_bound(64)
///     .queue_deadline(SimDuration::from_secs(2))
///     .breaker(5, SimDuration::from_secs(1))
///     .spillover();
/// assert!(policy.is_active());
/// assert!(policy.validate().is_ok());
/// assert!(!OverloadPolicy::default().is_active());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverloadPolicy {
    /// Cluster admission bounds (queue bound, deadline).
    pub admission: AdmissionLimits,
    /// Per-app retry circuit breaker; `None` keeps retries unguarded.
    pub breaker: Option<BreakerConfig>,
    /// Brownout spillover: shed cloud invocations re-route to on-device
    /// execution with the degraded model ([`DEGRADED_SPEEDUP`],
    /// [`DEGRADED_ACCURACY_PENALTY_PCT`]) instead of being abandoned.
    pub spillover: bool,
    /// Network-ingress backpressure (bounded first-hop link queues).
    pub net: NetBackpressure,
}

impl OverloadPolicy {
    /// `true` if any knob deviates from the inert default.
    pub fn is_active(&self) -> bool {
        *self != OverloadPolicy::default()
    }

    /// Bounds the cluster admission queue: a submission arriving while
    /// `bound` invocations already wait is shed instead of enqueued.
    pub fn queue_bound(mut self, bound: u32) -> Self {
        self.admission.queue_bound = Some(bound);
        self
    }

    /// Sheds a queued invocation whose wait already exceeds `deadline`
    /// at the moment it would be placed (stale work wastes a server).
    pub fn queue_deadline(mut self, deadline: SimDuration) -> Self {
        self.admission.queue_deadline = Some(deadline);
        self
    }

    /// Arms the per-app circuit breaker: open after `open_after`
    /// consecutive faults, fail fast for `cooldown`, then admit half-open
    /// probes (see [`BreakerConfig`] for the probe count).
    pub fn breaker(mut self, open_after: u32, cooldown: SimDuration) -> Self {
        self.breaker = Some(BreakerConfig {
            open_after,
            cooldown,
            ..BreakerConfig::default()
        });
        self
    }

    /// Enables brownout spillover to the degraded on-device model.
    pub fn spillover(mut self) -> Self {
        self.spillover = true;
        self
    }

    /// Bounds each device's first-hop (ingress) link queue: a transfer
    /// finding `bound` transfers already in flight on its first hop is
    /// held at the source and re-offered [`INGRESS_RETRY_DELAY`] later,
    /// so backpressure
    /// propagates instead of buffering infinitely.
    pub fn net_ingress_bound(mut self, bound: u32) -> Self {
        self.net.ingress_bound = Some(bound);
        self
    }

    /// Checks every knob for internal consistency, naming the first
    /// problem found.
    pub fn validate(&self) -> Result<(), OverloadPolicyError> {
        if self.admission.queue_deadline == Some(SimDuration::ZERO) {
            return Err(OverloadPolicyError::ZeroQueueDeadline);
        }
        if let Some(b) = &self.breaker {
            if b.open_after == 0 {
                return Err(OverloadPolicyError::ZeroBreakerOpenAfter);
            }
            if b.half_open_probes == 0 {
                return Err(OverloadPolicyError::ZeroHalfOpenProbes);
            }
            if b.cooldown == SimDuration::ZERO {
                return Err(OverloadPolicyError::ZeroBreakerCooldown);
            }
        }
        if self.net.ingress_bound == Some(0) {
            return Err(OverloadPolicyError::ZeroIngressBound);
        }
        Ok(())
    }
}

/// Why an [`OverloadPolicy`] was rejected by [`OverloadPolicy::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicyError {
    /// `admission.queue_deadline == Some(0)`.
    ZeroQueueDeadline,
    /// `breaker.open_after == 0`.
    ZeroBreakerOpenAfter,
    /// `breaker.half_open_probes == 0`.
    ZeroHalfOpenProbes,
    /// `breaker.cooldown == 0`.
    ZeroBreakerCooldown,
    /// `net.ingress_bound == Some(0)`.
    ZeroIngressBound,
}

impl fmt::Display for OverloadPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OverloadPolicyError::ZeroQueueDeadline => "admission.queue_deadline must be positive",
            OverloadPolicyError::ZeroBreakerOpenAfter => "breaker.open_after must be at least 1",
            OverloadPolicyError::ZeroHalfOpenProbes => {
                "breaker.half_open_probes must be at least 1"
            }
            OverloadPolicyError::ZeroBreakerCooldown => "breaker.cooldown must be positive",
            OverloadPolicyError::ZeroIngressBound => "net.ingress_bound must be at least 1",
        })
    }
}

impl std::error::Error for OverloadPolicyError {}

/// Cluster admission bounds applied by `faas::cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionLimits {
    /// Maximum queued (admitted but unplaced) invocations. A submission
    /// arriving with the queue full is shed. `Some(0)` means no queueing
    /// at all: anything that cannot start immediately is shed.
    pub queue_bound: Option<u32>,
    /// Maximum time an invocation may wait in the admission queue; a
    /// queued invocation older than this at placement time is shed.
    pub queue_deadline: Option<SimDuration>,
}

/// Circuit-breaker knobs (per application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BreakerConfig {
    /// Consecutive faulted attempts that trip the breaker open.
    pub open_after: u32,
    /// Concurrent probe invocations admitted while half-open.
    pub half_open_probes: u32,
    /// How long an open breaker fails fast before admitting probes.
    pub cooldown: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            open_after: 5,
            half_open_probes: 1,
            cooldown: SimDuration::from_secs(1),
        }
    }
}

/// Network-ingress backpressure applied by `net::fabric`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetBackpressure {
    /// Maximum transfers in flight on a transfer's first-hop link before
    /// new sends are held at the source for [`INGRESS_RETRY_DELAY`].
    pub ingress_bound: Option<u32>,
}

/// What a [`CircuitBreaker`] decided about one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Breaker closed: admit normally.
    Admit,
    /// Breaker half-open: admit as a probe (report its outcome back).
    Probe,
    /// Breaker open (or probe slots exhausted): fail fast.
    Reject,
}

/// A state transition worth tracing, returned by breaker methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// Closed (or half-open) → open: fail-fast begins.
    Opened,
    /// Open → half-open: cool-down elapsed, probes admitted.
    HalfOpened,
    /// Half-open → closed: a probe succeeded, service restored.
    Closed,
}

/// Deterministic per-app circuit breaker.
///
/// Closed → (N consecutive faults) → Open → (cool-down) → HalfOpen →
/// (probe success) → Closed, or (probe fault) → Open again. Every
/// transition is a pure function of event times and counters — no RNG.
///
/// ```rust
/// use hivemind_sim::overload::{BreakerConfig, BreakerDecision, CircuitBreaker};
/// use hivemind_sim::time::{SimDuration, SimTime};
///
/// let cfg = BreakerConfig { open_after: 2, ..BreakerConfig::default() };
/// let mut b = CircuitBreaker::new(cfg);
/// let t = SimTime::ZERO;
/// b.record_failure(t, false);
/// assert_eq!(b.record_failure(t, false), Some(hivemind_sim::overload::BreakerEvent::Opened));
/// assert_eq!(b.admit(t), BreakerDecision::Reject);
/// let later = t + cfg.cooldown;
/// assert_eq!(b.admit(later), BreakerDecision::Probe);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive: u32,
    /// When the current open period began (valid while not Closed).
    opened_at: SimTime,
    /// When an open breaker may transition to half-open.
    open_until: SimTime,
    /// Probes admitted and not yet resolved (half-open only).
    probes_in_flight: u32,
    /// Times the breaker tripped open (re-opens from half-open included).
    opens: u32,
    /// Accumulated fail-fast time over closed open periods.
    open_time: SimDuration,
}

/// A circuit breaker's position in its state machine.
///
/// Public so the model-checking lane (`sim::mc`) and tests can compare
/// the implementation against its specification mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Normal service; a failure streak is being counted.
    Closed,
    /// Failing fast until the cool-down elapses.
    Open,
    /// Cool-down elapsed; probes decide whether to close or re-open.
    HalfOpen,
}

impl CircuitBreaker {
    /// A closed breaker with zeroed counters.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: SimTime::ZERO,
            open_until: SimTime::ZERO,
            probes_in_flight: 0,
            opens: 0,
            open_time: SimDuration::ZERO,
        }
    }

    /// Decides one admission at `now`. May transition open → half-open
    /// (the accompanying [`BreakerEvent::HalfOpened`] is returned so the
    /// caller can trace it).
    pub fn admit(&mut self, now: SimTime) -> BreakerDecision {
        self.admit_traced(now).0
    }

    /// Like [`Self::admit`], also reporting a half-open transition.
    pub fn admit_traced(&mut self, now: SimTime) -> (BreakerDecision, Option<BreakerEvent>) {
        match self.state {
            BreakerState::Closed => (BreakerDecision::Admit, None),
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probes_in_flight = 1;
                    (BreakerDecision::Probe, Some(BreakerEvent::HalfOpened))
                } else {
                    (BreakerDecision::Reject, None)
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_in_flight < self.cfg.half_open_probes {
                    self.probes_in_flight += 1;
                    (BreakerDecision::Probe, None)
                } else {
                    (BreakerDecision::Reject, None)
                }
            }
        }
    }

    /// Reports a successful attempt (a probe if admitted as one).
    ///
    /// The consecutive-failure streak is reset only while the breaker is
    /// closed (or when a probe success closes it): a stale invocation
    /// resolving *during* a cool-down — admitted before the breaker
    /// tripped, finishing while it fails fast — must not perturb the
    /// streak the next closed period starts from.
    pub fn record_success(&mut self, now: SimTime, probe: bool) -> Option<BreakerEvent> {
        if probe && self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.probes_in_flight = 0;
            self.consecutive = 0;
            self.open_time += now.saturating_since(self.opened_at);
            return Some(BreakerEvent::Closed);
        }
        if self.state == BreakerState::Closed {
            self.consecutive = 0;
        }
        None
    }

    /// Reports a faulted attempt (a probe if admitted as one).
    pub fn record_failure(&mut self, now: SimTime, probe: bool) -> Option<BreakerEvent> {
        if probe && self.state == BreakerState::HalfOpen {
            // Probe failed: re-open for another cool-down. The open
            // period is continuous, so `opened_at` keeps its first value.
            self.state = BreakerState::Open;
            self.probes_in_flight = 0;
            self.open_until = now + self.cfg.cooldown;
            self.opens += 1;
            return Some(BreakerEvent::Opened);
        }
        if self.state == BreakerState::Closed {
            self.consecutive += 1;
            if self.consecutive >= self.cfg.open_after {
                // The streak is preserved through the open window (it is
                // only cleared when the breaker actually closes again),
                // so a give-up resolving during the cool-down observably
                // cannot reset it.
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.open_until = now + self.cfg.cooldown;
                self.opens += 1;
                return Some(BreakerEvent::Opened);
            }
        }
        None
    }

    /// Releases a probe slot whose invocation vanished without ever
    /// resolving (e.g. lost to a server crash), so half-open admission
    /// doesn't wedge waiting for an answer that will never come.
    pub fn release_probe(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
        }
    }

    /// `true` while the breaker fails fast (open or half-open).
    pub fn is_open(&self) -> bool {
        self.state != BreakerState::Closed
    }

    /// The breaker's current position in its state machine.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The current consecutive-failure streak. Counts up while closed,
    /// is preserved verbatim through open/half-open windows, and resets
    /// to zero when the breaker closes.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive
    }

    /// The instant at which an open breaker starts admitting probes
    /// (meaningful while not closed).
    pub fn open_until(&self) -> SimTime {
        self.open_until
    }

    /// Probes admitted and not yet resolved (half-open only).
    pub fn probes_in_flight(&self) -> u32 {
        self.probes_in_flight
    }

    /// Times the breaker tripped open.
    pub fn opens(&self) -> u32 {
        self.opens
    }

    /// Total fail-fast time up to `now` (an open period still in
    /// progress counts up to `now`).
    pub fn total_open_time(&self, now: SimTime) -> SimDuration {
        if self.state == BreakerState::Closed {
            self.open_time
        } else {
            self.open_time + now.saturating_since(self.opened_at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_inert() {
        let policy = OverloadPolicy::default();
        assert!(!policy.is_active());
        assert!(policy.validate().is_ok());
    }

    #[test]
    fn builders_activate_their_layer() {
        let p = OverloadPolicy::default;
        let secs = SimDuration::from_secs;
        for policy in [
            p().queue_bound(8),
            p().queue_deadline(secs(1)),
            p().breaker(3, secs(1)),
            p().spillover(),
            p().net_ingress_bound(16),
        ] {
            assert!(policy.is_active(), "{policy:?}");
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        use OverloadPolicyError::*;
        let p = OverloadPolicy::default;
        let (zero, secs) = (SimDuration::ZERO, SimDuration::from_secs);
        let mut bad_probe = p().breaker(3, secs(1));
        bad_probe.breaker.as_mut().unwrap().half_open_probes = 0;
        for (policy, err) in [
            (p().queue_deadline(zero), ZeroQueueDeadline),
            (p().breaker(0, secs(1)), ZeroBreakerOpenAfter),
            (p().breaker(3, zero), ZeroBreakerCooldown),
            (bad_probe, ZeroHalfOpenProbes),
            (p().net_ingress_bound(0), ZeroIngressBound),
        ] {
            assert_eq!(policy.validate(), Err(err), "{policy:?}");
        }
        // A zero queue bound is legal: shed anything that cannot start.
        assert!(OverloadPolicy::default().queue_bound(0).validate().is_ok());
    }

    #[test]
    fn breaker_full_cycle() {
        let cfg = BreakerConfig {
            open_after: 3,
            half_open_probes: 2,
            cooldown: SimDuration::from_secs(1),
        };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::ZERO;
        // Two faults: still closed (a success in between resets the run).
        assert_eq!(b.record_failure(t0, false), None);
        assert_eq!(b.record_success(t0, false), None);
        assert_eq!(b.record_failure(t0, false), None);
        assert_eq!(b.record_failure(t0, false), None);
        // Third consecutive fault trips it.
        assert_eq!(b.record_failure(t0, false), Some(BreakerEvent::Opened));
        assert!(b.is_open());
        assert_eq!(b.opens(), 1);
        assert_eq!(b.admit(t0), BreakerDecision::Reject);
        // Cool-down elapses: half-open, two probe slots.
        let t1 = t0 + cfg.cooldown;
        assert_eq!(
            b.admit_traced(t1),
            (BreakerDecision::Probe, Some(BreakerEvent::HalfOpened))
        );
        assert_eq!(b.admit_traced(t1), (BreakerDecision::Probe, None));
        assert_eq!(b.admit(t1), BreakerDecision::Reject);
        // Probe success closes and accounts the open time.
        let t2 = t1 + SimDuration::from_millis(500);
        assert_eq!(b.record_success(t2, true), Some(BreakerEvent::Closed));
        assert!(!b.is_open());
        assert_eq!(b.total_open_time(t2), t2.saturating_since(t0));
    }

    #[test]
    fn failed_probe_reopens() {
        let cfg = BreakerConfig {
            open_after: 1,
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::ZERO;
        assert_eq!(b.record_failure(t0, false), Some(BreakerEvent::Opened));
        let t1 = t0 + cfg.cooldown;
        assert_eq!(b.admit(t1), BreakerDecision::Probe);
        assert_eq!(b.record_failure(t1, true), Some(BreakerEvent::Opened));
        assert_eq!(b.opens(), 2);
        assert_eq!(b.admit(t1), BreakerDecision::Reject);
        // Open time keeps accruing across the re-open.
        let t2 = t1 + cfg.cooldown;
        assert_eq!(b.total_open_time(t2), t2.saturating_since(t0));
    }

    #[test]
    fn open_time_counts_in_progress_period() {
        let cfg = BreakerConfig {
            open_after: 1,
            cooldown: SimDuration::from_secs(5),
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::ZERO + SimDuration::from_secs(10);
        b.record_failure(t0, false);
        let t1 = t0 + SimDuration::from_secs(2);
        assert_eq!(b.total_open_time(t1), SimDuration::from_secs(2));
    }

    /// Regression: an invocation that gives up *during* the cool-down
    /// (admitted before the trip, resolving while the breaker fails
    /// fast) must not reset the consecutive-failure streak, and a stale
    /// success in the same window must not either. The streak is only
    /// cleared when the breaker actually closes again.
    #[test]
    fn give_up_during_cooldown_does_not_reset_streak() {
        let cfg = BreakerConfig {
            open_after: 3,
            cooldown: SimDuration::from_secs(1),
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::ZERO;
        assert_eq!(b.record_failure(t0, false), None);
        assert_eq!(b.record_failure(t0, false), None);
        assert_eq!(b.record_failure(t0, false), Some(BreakerEvent::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.consecutive_failures(), 3, "streak survives the trip");
        let open_until = b.open_until();

        // A straggler invocation gives up mid-cool-down: no transition,
        // no streak reset, no cool-down extension.
        let mid = t0 + SimDuration::from_millis(500);
        assert_eq!(b.record_failure(mid, false), None);
        assert_eq!(b.consecutive_failures(), 3);
        assert_eq!(b.open_until(), open_until);
        // A stale *success* in the same window is equally inert.
        assert_eq!(b.record_success(mid, false), None);
        assert_eq!(b.consecutive_failures(), 3);
        assert_eq!(b.state(), BreakerState::Open);

        // The cool-down boundary is exact: 1 ns early still rejects.
        let just_before = t0 + (cfg.cooldown - SimDuration::from_nanos(1));
        assert_eq!(b.admit(just_before), BreakerDecision::Reject);
        assert_eq!(
            b.admit_traced(open_until),
            (BreakerDecision::Probe, Some(BreakerEvent::HalfOpened))
        );

        // Closing via the probe is what clears the streak: three fresh
        // give-ups are needed to re-open.
        assert_eq!(
            b.record_success(open_until, true),
            Some(BreakerEvent::Closed)
        );
        assert_eq!(b.consecutive_failures(), 0);
        let t2 = open_until + SimDuration::from_millis(1);
        assert_eq!(b.record_failure(t2, false), None);
        assert_eq!(b.record_failure(t2, false), None);
        assert_eq!(b.record_failure(t2, false), Some(BreakerEvent::Opened));
    }
}
