//! Explicit-state model checking for coordination protocols.
//!
//! The DES engine samples *one* schedule per seed; this module exhausts
//! *every* schedule of a small protocol instance instead (dslab-mp style).
//! A protocol is lifted behind the pure step-function interface
//! [`McModel`]: the checker snapshots state by cloning, enumerates every
//! enabled action, applies each to a fresh copy, and recurses — a
//! depth-bounded DFS over the full interleaving/fault-placement tree,
//! deduplicating revisited states by a stable 64-bit fingerprint.
//!
//! Safety invariants are evaluated at **every** reached state; the first
//! (shortest) violation is reported as a [`Schedule`] — a replayable list
//! of timed actions that any host can re-apply step by step to reproduce
//! the violation outside the checker.
//!
//! Everything here is deterministic: no RNG, no wall clock, no iteration
//! over hash maps (the `seen` set is only ever probed by key). Two runs of
//! [`check`] on the same model produce byte-identical reports, regardless
//! of thread count or platform.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::overload::{BreakerConfig, BreakerDecision, BreakerEvent, BreakerState};
use crate::time::SimTime;
use crate::trace::{ArgValue, TraceHandle};

/// A protocol lifted behind a pure step function, explorable by [`check`].
///
/// Implementations must be *deterministic*: `enabled` must list actions in
/// a stable order, and `apply` must be a pure function of the state and
/// the action (no RNG, no ambient time). `Clone` is the checker's snapshot
/// mechanism and `Hash` its state fingerprint — every field that can
/// influence future behaviour must feed both.
pub trait McModel: Clone + Hash {
    /// One enabled event: a message delivery, a timer fire, or a fault
    /// injection point.
    type Action: Clone + fmt::Debug;

    /// Appends every action enabled in the current state to `out`, in a
    /// deterministic order. An empty set marks a terminal state.
    fn enabled(&self, out: &mut Vec<Self::Action>);

    /// Applies one enabled action.
    fn apply(&mut self, action: &Self::Action);

    /// The safety invariant, evaluated at every reached state. `Err`
    /// carries the violation message shown in the counterexample.
    fn invariant(&self) -> Result<(), String>;

    /// The virtual instant the state has reached; recorded per step so a
    /// counterexample replays on the DES clock.
    fn now(&self) -> SimTime;

    /// Human-readable label for an action (schedule/trace rendering).
    fn describe(&self, action: &Self::Action) -> String {
        format!("{action:?}")
    }
}

/// FNV-1a 64-bit hasher: stable across platforms, Rust versions, and
/// processes, unlike `DefaultHasher` — state counts derived from
/// fingerprint dedup land in golden-pinned output, so the hash function
/// itself is part of the byte-determinism contract.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The stable fingerprint [`check`] dedupes states by.
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::default();
    value.hash(&mut h);
    h.finish()
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Maximum schedule length explored (DFS depth bound).
    pub max_depth: usize,
    /// Hard cap on distinct states visited (runaway-model backstop).
    pub max_states: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_depth: 40,
            max_states: 5_000_000,
        }
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McStats {
    /// Distinct states whose invariant was evaluated.
    pub states: u64,
    /// Transitions applied (including ones leading to deduped states).
    pub transitions: u64,
    /// Transitions that reached an already-explored state.
    pub deduped: u64,
    /// Deepest schedule reached.
    pub max_depth: usize,
    /// States with no enabled action within the depth bound.
    pub terminals: u64,
    /// `true` if the `max_states` cap — or, before any violation was
    /// found, the depth bound — truncated the search (the "zero
    /// violations" verdict is then only valid for the explored prefix).
    pub truncated: bool,
}

/// One step of a replayable counterexample schedule.
#[derive(Debug, Clone)]
pub struct ScheduleStep<A> {
    /// The virtual instant at which the action lands.
    pub at: SimTime,
    /// Rendered action label.
    pub label: String,
    /// The action itself, re-applicable through [`McModel::apply`].
    pub action: A,
}

/// A replayable schedule: the exact action sequence that drove the model
/// from its initial state to a violation.
#[derive(Debug, Clone, Default)]
pub struct Schedule<A> {
    /// Steps in application order; `at` is non-decreasing.
    pub steps: Vec<ScheduleStep<A>>,
}

impl<A> Schedule<A> {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the violation is in the initial state itself.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Emits the schedule as trace instants (category `"mc"`, one
    /// `"step"` event per action), so a counterexample can ride the
    /// standard `sim::trace` export pipeline next to DES events.
    pub fn emit_trace(&self, tracer: &TraceHandle) {
        for (i, step) in self.steps.iter().enumerate() {
            tracer.instant(
                "mc",
                "step",
                0,
                step.at,
                vec![
                    ("index", ArgValue::U64(i as u64)),
                    ("action", ArgValue::Str(step.label.clone())),
                ],
            );
        }
    }
}

impl<A> fmt::Display for Schedule<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {i:>3}. t={} {}", step.at, step.label)?;
        }
        Ok(())
    }
}

/// A safety violation plus the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct Violation<A> {
    /// The invariant's error message.
    pub message: String,
    /// Schedule length (depth at which the violation fired).
    pub depth: usize,
    /// The replayable schedule.
    pub schedule: Schedule<A>,
}

/// Result of one [`check`] run.
#[derive(Debug, Clone)]
pub struct McReport<A> {
    /// Exploration statistics.
    pub stats: McStats,
    /// The shortest violation found, if any.
    pub violation: Option<Violation<A>>,
}

impl<A> McReport<A> {
    /// `true` when the explored space satisfied every invariant.
    pub fn holds(&self) -> bool {
        self.violation.is_none()
    }
}

struct Dfs<'a, M: McModel> {
    cfg: &'a McConfig,
    /// fingerprint → shallowest depth at which the state was expanded. A
    /// state reached again at a *strictly shallower* depth is re-expanded
    /// (it has more remaining budget than before), which both preserves
    /// exhaustiveness under the depth bound and keeps reported
    /// counterexamples shortest-first.
    seen: HashMap<u64, usize>,
    stats: McStats,
    best: Option<Violation<M::Action>>,
    /// Current depth bound; shrinks below each found violation so only
    /// strictly shorter counterexamples are still pursued.
    bound: usize,
    path: Vec<ScheduleStep<M::Action>>,
    scratch: Vec<Vec<M::Action>>,
}

impl<M: McModel> Dfs<'_, M> {
    fn visit(&mut self, state: &M, depth: usize) {
        self.stats.states += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if let Err(message) = state.invariant() {
            let shorter = self.best.as_ref().is_none_or(|b| depth < b.depth);
            if shorter {
                self.best = Some(Violation {
                    message,
                    depth,
                    schedule: Schedule {
                        steps: self.path.clone(),
                    },
                });
                // Only strictly shorter counterexamples are interesting
                // from here on.
                self.bound = depth.saturating_sub(1);
            }
            return;
        }
        if self.stats.states >= self.cfg.max_states {
            self.stats.truncated = true;
            return;
        }
        let mut actions = self.scratch.pop().unwrap_or_default();
        actions.clear();
        state.enabled(&mut actions);
        if actions.is_empty() {
            self.stats.terminals += 1;
            self.scratch.push(actions);
            return;
        }
        if depth >= self.bound {
            // A non-terminal state was cut off by the depth bound. That
            // only forfeits exhaustiveness while no violation has been
            // found — once one has, the bound deliberately shrinks to
            // chase strictly shorter counterexamples.
            if self.best.is_none() {
                self.stats.truncated = true;
            }
            self.scratch.push(actions);
            return;
        }
        for action in &actions {
            if depth >= self.bound {
                break;
            }
            let mut next = state.clone();
            next.apply(action);
            self.stats.transitions += 1;
            let fp = fingerprint(&next);
            let nd = depth + 1;
            match self.seen.get(&fp) {
                Some(&d0) if d0 <= nd => {
                    self.stats.deduped += 1;
                    continue;
                }
                _ => {
                    self.seen.insert(fp, nd);
                }
            }
            self.path.push(ScheduleStep {
                at: next.now(),
                label: state.describe(action),
                action: action.clone(),
            });
            self.visit(&next, nd);
            self.path.pop();
        }
        self.scratch.push(actions);
    }
}

/// Exhaustively explores `root` up to `cfg.max_depth`, checking the
/// model's invariant at every reached state.
///
/// Returns statistics plus the shortest violation found (the search
/// continues after a violation with a tightened depth bound, so the
/// reported counterexample is minimal over the explored space).
pub fn check<M: McModel>(root: &M, cfg: &McConfig) -> McReport<M::Action> {
    let mut dfs = Dfs::<M> {
        cfg,
        seen: HashMap::new(),
        stats: McStats::default(),
        best: None,
        bound: cfg.max_depth,
        path: Vec::new(),
        scratch: Vec::new(),
    };
    dfs.seen.insert(fingerprint(root), 0);
    dfs.visit(root, 0);
    McReport {
        stats: dfs.stats,
        violation: dfs.best,
    }
}

/// Specification mirror of the circuit breaker's state machine.
///
/// The monitor replays the breaker *contract* — closed → open after
/// `open_after` consecutive give-ups, open → half-open only after the full
/// cool-down, half-open → closed only through a successful probe — and
/// compares every observed decision and event against it. A divergence is
/// a legality violation: the implementation (or a mutated variant) took a
/// transition the specification forbids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BreakerMonitor {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive: u32,
    open_until: SimTime,
    probes: u32,
}

impl BreakerMonitor {
    /// A monitor for a breaker starting closed with `cfg`.
    pub fn new(cfg: BreakerConfig) -> Self {
        BreakerMonitor {
            cfg,
            state: BreakerState::Closed,
            consecutive: 0,
            open_until: SimTime::ZERO,
            probes: 0,
        }
    }

    /// The state the specification says the breaker must be in.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Checks one admission decision (and its optional transition event)
    /// against the specification, advancing the mirror.
    pub fn on_admit(
        &mut self,
        now: SimTime,
        decision: BreakerDecision,
        event: Option<BreakerEvent>,
    ) -> Result<(), String> {
        let (want, want_ev) = match self.state {
            BreakerState::Closed => (BreakerDecision::Admit, None),
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probes = 1;
                    (BreakerDecision::Probe, Some(BreakerEvent::HalfOpened))
                } else {
                    (BreakerDecision::Reject, None)
                }
            }
            BreakerState::HalfOpen => {
                if self.probes < self.cfg.half_open_probes {
                    self.probes += 1;
                    (BreakerDecision::Probe, None)
                } else {
                    (BreakerDecision::Reject, None)
                }
            }
        };
        if decision != want || event != want_ev {
            return Err(format!(
                "breaker legality: admit at t={now} decided {decision:?} (event \
                 {event:?}) but the specification requires {want:?} (event {want_ev:?})"
            ));
        }
        Ok(())
    }

    /// Checks one reported attempt outcome against the specification.
    pub fn on_outcome(
        &mut self,
        now: SimTime,
        success: bool,
        probe: bool,
        event: Option<BreakerEvent>,
    ) -> Result<(), String> {
        let want_ev = if success {
            if probe && self.state == BreakerState::HalfOpen {
                self.state = BreakerState::Closed;
                self.probes = 0;
                self.consecutive = 0;
                Some(BreakerEvent::Closed)
            } else {
                // A non-probe outcome only touches the failure streak
                // while the breaker is closed; stale results resolving
                // during a cool-down must not perturb it.
                if self.state == BreakerState::Closed {
                    self.consecutive = 0;
                }
                None
            }
        } else if probe && self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open;
            self.probes = 0;
            self.open_until = now + self.cfg.cooldown;
            Some(BreakerEvent::Opened)
        } else if self.state == BreakerState::Closed {
            self.consecutive += 1;
            if self.consecutive >= self.cfg.open_after {
                self.state = BreakerState::Open;
                self.open_until = now + self.cfg.cooldown;
                Some(BreakerEvent::Opened)
            } else {
                None
            }
        } else {
            None
        };
        if event != want_ev {
            return Err(format!(
                "breaker legality: outcome (success={success}, probe={probe}) at t={now} \
                 produced event {event:?} but the specification requires {want_ev:?}"
            ));
        }
        Ok(())
    }

    /// Mirrors [`crate::overload::CircuitBreaker::release_probe`].
    pub fn on_release(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probes = self.probes.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::CircuitBreaker;
    use crate::time::SimDuration;

    /// A toy token-ring: `n` nodes pass a token; a faulty variant can
    /// duplicate it. Invariant: exactly one token.
    #[derive(Clone, Hash)]
    struct Ring {
        holder: u8,
        tokens: u8,
        n: u8,
        steps: u8,
        horizon: u8,
        buggy: bool,
    }

    #[derive(Clone, Debug)]
    enum RingAction {
        Pass,
        Dup,
    }

    impl McModel for Ring {
        type Action = RingAction;

        fn enabled(&self, out: &mut Vec<RingAction>) {
            if self.steps >= self.horizon {
                return;
            }
            out.push(RingAction::Pass);
            if self.buggy {
                out.push(RingAction::Dup);
            }
        }

        fn apply(&mut self, action: &RingAction) {
            self.steps += 1;
            match action {
                RingAction::Pass => self.holder = (self.holder + 1) % self.n,
                RingAction::Dup => self.tokens += 1,
            }
        }

        fn invariant(&self) -> Result<(), String> {
            if self.tokens == 1 {
                Ok(())
            } else {
                Err(format!("{} tokens in the ring", self.tokens))
            }
        }

        fn now(&self) -> SimTime {
            SimTime::from_secs(self.steps as u64)
        }
    }

    fn ring(buggy: bool) -> Ring {
        Ring {
            holder: 0,
            tokens: 1,
            n: 3,
            steps: 0,
            horizon: 6,
            buggy,
        }
    }

    #[test]
    fn correct_ring_explores_exhaustively_with_dedup() {
        let report = check(&ring(false), &McConfig::default());
        assert!(report.holds());
        // Pass-only ring: state = (holder, steps); 6 steps × deterministic
        // action = a single chain of 7 states, no dedup hits.
        assert_eq!(report.stats.states, 7);
        assert_eq!(report.stats.transitions, 6);
        assert_eq!(report.stats.max_depth, 6);
        assert_eq!(report.stats.terminals, 1);
        assert!(!report.stats.truncated);
    }

    #[test]
    fn buggy_ring_yields_minimal_counterexample() {
        let report = check(&ring(true), &McConfig::default());
        let v = report.violation.expect("duplication must be caught");
        // One Dup suffices: the minimal counterexample has depth 1 even
        // though DFS order tries Pass first.
        assert_eq!(v.depth, 1);
        assert_eq!(v.schedule.len(), 1);
        assert_eq!(v.message, "2 tokens in the ring");
        assert!(v.schedule.steps[0].label.contains("Dup"));
    }

    #[test]
    fn depth_bound_truncates_exploration() {
        let cfg = McConfig {
            max_depth: 2,
            ..McConfig::default()
        };
        let report = check(&ring(false), &cfg);
        assert!(report.holds());
        assert_eq!(report.stats.max_depth, 2);
        assert_eq!(report.stats.states, 3);
    }

    #[test]
    fn state_cap_marks_truncation() {
        let cfg = McConfig {
            max_depth: 6,
            max_states: 2,
        };
        let report = check(&ring(false), &cfg);
        assert!(report.stats.truncated);
    }

    #[test]
    fn fingerprints_are_stable() {
        // Pinned value: the FNV-1a fingerprint is part of the
        // byte-determinism contract (state counts land in goldens).
        assert_eq!(fingerprint(&42u64), fingerprint(&42u64));
        assert_ne!(fingerprint(&42u64), fingerprint(&43u64));
        // Published FNV-1a 64 test vectors: empty input = offset basis,
        // "a" = 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv64::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn monitor_tracks_faithful_breaker() {
        let cfg = BreakerConfig {
            open_after: 2,
            half_open_probes: 1,
            cooldown: SimDuration::from_secs(1),
        };
        let mut b = CircuitBreaker::new(cfg);
        let mut m = BreakerMonitor::new(cfg);
        let t0 = SimTime::ZERO;
        for _ in 0..2 {
            let (d, e) = b.admit_traced(t0);
            m.on_admit(t0, d, e).unwrap();
            let e = b.record_failure(t0, false);
            m.on_outcome(t0, false, false, e).unwrap();
        }
        assert_eq!(m.state(), BreakerState::Open);
        // Rejected while cooling down.
        let (d, e) = b.admit_traced(t0 + SimDuration::from_millis(500));
        m.on_admit(t0 + SimDuration::from_millis(500), d, e)
            .unwrap();
        assert_eq!(d, BreakerDecision::Reject);
        // Probe after the exact cool-down; success closes.
        let t1 = t0 + cfg.cooldown;
        let (d, e) = b.admit_traced(t1);
        m.on_admit(t1, d, e).unwrap();
        assert_eq!(d, BreakerDecision::Probe);
        let e = b.record_success(t1, true);
        m.on_outcome(t1, true, true, e).unwrap();
        assert_eq!(m.state(), BreakerState::Closed);
    }

    #[test]
    fn monitor_rejects_illegal_transition() {
        let cfg = BreakerConfig {
            open_after: 1,
            half_open_probes: 1,
            cooldown: SimDuration::from_secs(1),
        };
        let mut m = BreakerMonitor::new(cfg);
        m.on_outcome(SimTime::ZERO, false, false, Some(BreakerEvent::Opened))
            .unwrap();
        // An open breaker before cool-down must reject; claiming Admit is
        // the "skips half-open" bug shape.
        let err = m
            .on_admit(
                SimTime::from_secs(2),
                BreakerDecision::Admit,
                Some(BreakerEvent::Closed),
            )
            .unwrap_err();
        assert!(err.contains("breaker legality"), "{err}");
        assert!(err.contains("Probe"), "{err}");
    }
}
