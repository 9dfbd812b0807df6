//! The coordination protocols lifted into the model checker.
//!
//! `hivemind_sim::mc` provides the engine-agnostic checker; this module
//! provides the three protocol models it exhaustively explores — the
//! paper's riskiest coordination logic, behind the same step functions
//! the DES engine drives:
//!
//! * [`FailoverModel`] — heartbeat-based failure detection and geometric
//!   load repartitioning ([`SwarmController`]/`swarm::failover`),
//!   including primary-controller failover within the 3 s detection
//!   window. Invariants: the declared-failed set matches an independent
//!   specification mirror of the tracker, and live work assignments
//!   always tile the whole mission field (no area silently lost).
//! * [`RetryBreakerModel`] — the retry + circuit-breaker + give-up
//!   interaction (`sim::overload` + the cluster admission path).
//!   Invariants: every breaker decision/transition matches the
//!   [`BreakerMonitor`] specification, the admission queue stays within
//!   its bound, and tasks are conserved
//!   (`submitted = completed + shed + lost + in flight`).
//! * [`ExchangeModel`] — the parent→child data-exchange sessions
//!   ([`ExchangeSession`]) under message duplication, loss, reordering
//!   and store crashes. Invariant: exactly-once child execution.
//! * [`ShardModel`] — the sharded engine's conservative barrier/epoch
//!   exchange, driven through the real `sim::shard` partition, key
//!   order and k-way merge. Invariants: no shard consumes past what
//!   another shard can still send (lookahead safety), and the merged
//!   stream is in `(time, lane, seq)` order — independent of schedule
//!   and shard count.
//! * [`DisconnectModel`] — the disconnected-operation plane's buffer /
//!   replay / reconcile protocol (`swarm::disconnect` + the controller's
//!   reconnect reconciliation) under a partition/duplication adversary.
//!   Invariants: exactly-once replay (every buffered update delivered
//!   once, expired once, or still buffered) and no spurious failure
//!   declaration from partition silence.
//!
//! Each model has a canonical small instance (2 servers / 1 controller /
//! 3 tasks, per the reproduction roadmap) explored to zero violations,
//! plus a planted-bug mutant ([`SkipHalfOpenBreaker`], the no-dedup
//! exchange variant, the legacy orphan-dropping controller, the
//! `(shard, time)`-keyed merge, the eager-horizon shard, and the
//! disconnect plane's duplicate-accepting session and
//! grace-skipping heal) that must
//! yield a counterexample — proving the lane can actually find bugs.
//! Counterexamples replay deterministically, step by step in schedule
//! order, via [`replay_schedule`].

use std::hash::{Hash, Hasher};

use hivemind_faas::dataplane::{
    ExchangeEffect, ExchangeInput, ExchangeMsg, ExchangeSession, RetryDecision, RetryPolicy,
};
use hivemind_sim::mc::{BreakerMonitor, McModel, Schedule};
use hivemind_sim::overload::{
    BreakerConfig, BreakerDecision, BreakerEvent, BreakerState, CircuitBreaker,
};
use hivemind_sim::shard::{merge_keyed_into, EffectKey, ShardMap};
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_swarm::geometry::Rect;

use crate::controller::SwarmController;

fn hash_rect<H: Hasher>(r: &Rect, state: &mut H) {
    r.x0.to_bits().hash(state);
    r.y0.to_bits().hash(state);
    r.x1.to_bits().hash(state);
    r.y1.to_bits().hash(state);
}

// ---------------------------------------------------------------------------
// Protocol 1: controller failover within the 3 s detection window.
// ---------------------------------------------------------------------------

/// One enabled event in the failover protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverAction {
    /// Device's heartbeat for this round reaches the controller.
    Beat(u32),
    /// Device's heartbeat for this round is lost in flight.
    Drop(u32),
    /// The device crashes (fault injection point); it stops beating.
    Crash(u32),
    /// End of round: the controller (if up) runs its failure check.
    EndRound,
    /// The primary controller dies just before this round's check; the
    /// warm standby takes over after the 3 s detection window plus a
    /// 500 ms state re-sync.
    FailPrimary,
}

/// The failover protocol over a small device fleet, one heartbeat round
/// per virtual second.
///
/// Each round, every live and still-relevant device either beats or has
/// its beat dropped (message loss), and may crash outright (budgeted);
/// the round ends with the controller's failure check — skipped while a
/// primary failover is in progress, exactly as a dead primary hears
/// nothing. Alongside the real [`SwarmController`] the model advances an
/// independent specification mirror of the heartbeat tracker (reference
/// times, the takeover grace, the `> 3 s` latch) and requires the two to
/// agree at every state.
#[derive(Debug, Clone)]
pub struct FailoverModel {
    ctl: SwarmController,
    devices: u32,
    horizon: u32,
    round: u32,
    cursor: u32,
    crashed: Vec<bool>,
    crash_budget: u32,
    failover_budget: u32,
    /// Service resumes at this instant after a primary failover; checks
    /// before it are skipped and in-flight beats are lost.
    down_until: SimTime,
    /// Spec mirror: each device's tracker reference time (last delivered
    /// beat, the mission start, or the takeover grace).
    refs: Vec<SimTime>,
    /// Spec mirror: devices the specification says must be declared.
    mirror_declared: Vec<bool>,
}

impl FailoverModel {
    /// A fleet of `devices` over the unit field, explored for `horizon`
    /// rounds with the given fault budgets. `redistribute_orphans`
    /// selects the fixed controller (`true`) or the historical one that
    /// drops inherited strips when their holder dies (`false`).
    pub fn new(
        devices: u32,
        horizon: u32,
        crash_budget: u32,
        failover_budget: u32,
        redistribute_orphans: bool,
    ) -> FailoverModel {
        let field = Rect::new(0.0, 0.0, 30.0, 10.0);
        let ctl = SwarmController::new(field, devices);
        let ctl = if redistribute_orphans {
            ctl.with_orphan_redistribution()
        } else {
            ctl
        };
        FailoverModel {
            ctl,
            devices,
            horizon,
            round: 0,
            cursor: 0,
            crashed: vec![false; devices as usize],
            crash_budget,
            failover_budget,
            down_until: SimTime::ZERO,
            refs: vec![SimTime::ZERO; devices as usize],
            mirror_declared: vec![false; devices as usize],
        }
    }

    fn t_beat(&self, round: u32, device: u32) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(round as u64 * 1000 + 10 * (device as u64 + 1))
    }

    fn t_check(&self, round: u32) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(round as u64 * 1000 + 500)
    }

    fn is_down(&self, round: u32) -> bool {
        self.t_check(round) < self.down_until
    }

    /// Skips device slots that cannot act: crashed devices, declared
    /// devices (their beats no longer matter — declaration is latched),
    /// and every device of a round whose controller is down (beats to a
    /// dead primary are lost wholesale).
    fn normalize(&mut self) {
        if self.is_down(self.round) {
            self.cursor = self.devices;
            return;
        }
        while self.cursor < self.devices
            && (self.crashed[self.cursor as usize] || !self.ctl.is_alive(self.cursor))
        {
            self.cursor += 1;
        }
    }
}

impl Hash for FailoverModel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Constants of the run (devices, horizon, the field) are omitted;
        // everything that can influence future behaviour is included.
        self.round.hash(state);
        self.cursor.hash(state);
        self.crashed.hash(state);
        self.crash_budget.hash(state);
        self.failover_budget.hash(state);
        self.down_until.hash(state);
        self.refs.hash(state);
        self.mirror_declared.hash(state);
        self.ctl.primary().hash(state);
        for d in 0..self.devices {
            self.ctl.is_alive(d).hash(state);
            for r in self.ctl.assignment_of(d) {
                hash_rect(&r, state);
            }
        }
    }
}

impl McModel for FailoverModel {
    type Action = FailoverAction;

    fn enabled(&self, out: &mut Vec<FailoverAction>) {
        if self.round >= self.horizon {
            return;
        }
        if self.cursor < self.devices {
            let d = self.cursor;
            out.push(FailoverAction::Beat(d));
            out.push(FailoverAction::Drop(d));
            if self.crash_budget > 0 {
                out.push(FailoverAction::Crash(d));
            }
        } else {
            out.push(FailoverAction::EndRound);
            if self.failover_budget > 0 && !self.is_down(self.round) {
                out.push(FailoverAction::FailPrimary);
            }
        }
    }

    fn apply(&mut self, action: &FailoverAction) {
        match *action {
            FailoverAction::Beat(d) => {
                let t = self.t_beat(self.round, d);
                let _ = self.ctl.try_heartbeat(d, t);
                self.refs[d as usize] = t;
                self.cursor += 1;
            }
            FailoverAction::Drop(d) => {
                debug_assert!(!self.crashed[d as usize]);
                self.cursor += 1;
            }
            FailoverAction::Crash(d) => {
                self.crashed[d as usize] = true;
                self.crash_budget -= 1;
                self.cursor += 1;
            }
            FailoverAction::EndRound => {
                let t = self.t_check(self.round);
                if t >= self.down_until {
                    // Advance the specification mirror with the same
                    // latch rule the tracker uses, then let the real
                    // controller run its check.
                    for d in 0..self.devices as usize {
                        if t.saturating_since(self.refs[d]) > SimDuration::from_secs(3) {
                            self.mirror_declared[d] = true;
                        }
                    }
                    let _ = self.ctl.check_failures(t);
                }
                self.round += 1;
                self.cursor = 0;
            }
            FailoverAction::FailPrimary => {
                let t = self.t_check(self.round);
                let fo = self.ctl.fail_primary(t, SimDuration::from_millis(500));
                self.down_until = fo.resumed_at;
                self.failover_budget -= 1;
                // Mirror the takeover grace: beats lost during the outage
                // must not count as silence once the standby resumes.
                for d in 0..self.devices {
                    if self.ctl.is_alive(d) && self.refs[d as usize] < fo.resumed_at {
                        self.refs[d as usize] = fo.resumed_at;
                    }
                }
                self.round += 1;
                self.cursor = 0;
            }
        }
        self.normalize();
    }

    fn invariant(&self) -> Result<(), String> {
        // 1. Detection correctness: the controller's declared-failed set
        //    must equal the specification mirror's, in both directions
        //    (no missed detections past the 3 s window, no spurious ones
        //    — e.g. from beats lost during a primary outage).
        for d in 0..self.devices {
            let declared = !self.ctl.is_alive(d);
            let expected = self.mirror_declared[d as usize];
            if declared != expected {
                return Err(format!(
                    "failure detection: device {d} is {} but the 3 s-window \
                     specification says it must be {}",
                    if declared { "declared failed" } else { "alive" },
                    if expected { "declared failed" } else { "alive" },
                ));
            }
        }
        // 2. Work conservation: as long as anyone survives, the live
        //    assignments must tile the whole field — no region silently
        //    dropped across (chained) failovers.
        if self.ctl.alive_count() > 0 {
            let total: f64 = (0..self.devices)
                .filter(|&d| self.ctl.is_alive(d))
                .flat_map(|d| self.ctl.assignment_of(d))
                .map(|r| r.area())
                .sum();
            let field = self.ctl.field().area();
            if (total - field).abs() > 1e-6 {
                return Err(format!(
                    "task conservation: live assignments cover {total:.3} of a \
                     {field:.3} field — area was lost in a failover"
                ));
            }
        }
        Ok(())
    }

    fn now(&self) -> SimTime {
        if self.cursor < self.devices {
            self.t_beat(self.round, self.cursor)
        } else {
            self.t_check(self.round)
        }
    }

    fn describe(&self, action: &FailoverAction) -> String {
        match *action {
            FailoverAction::Beat(d) => format!("beat(device={d})"),
            FailoverAction::Drop(d) => format!("drop_beat(device={d})"),
            FailoverAction::Crash(d) => format!("crash(device={d})"),
            FailoverAction::EndRound => format!("check(round={})", self.round),
            FailoverAction::FailPrimary => format!("fail_primary(round={})", self.round),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol 2: retry + circuit breaker + give-up.
// ---------------------------------------------------------------------------

/// The breaker implementation under test, abstracted so the checker can
/// run the faithful [`CircuitBreaker`] and planted-bug mutants through
/// the identical admission protocol.
pub trait BreakerDriver: Clone + Hash {
    /// Decide one admission (see [`CircuitBreaker::admit_traced`]).
    fn admit(&mut self, now: SimTime) -> (BreakerDecision, Option<BreakerEvent>);
    /// Report one final attempt outcome.
    fn outcome(&mut self, now: SimTime, success: bool, probe: bool) -> Option<BreakerEvent>;
}

impl BreakerDriver for CircuitBreaker {
    fn admit(&mut self, now: SimTime) -> (BreakerDecision, Option<BreakerEvent>) {
        self.admit_traced(now)
    }

    fn outcome(&mut self, now: SimTime, success: bool, probe: bool) -> Option<BreakerEvent> {
        if success {
            self.record_success(now, probe)
        } else {
            self.record_failure(now, probe)
        }
    }
}

/// Planted-bug breaker: once the cool-down elapses it admits traffic
/// directly instead of going through half-open probing. The checker must
/// catch this as a [`BreakerMonitor`] legality violation — this mutant
/// exists to regression-test the lane's bug-finding power.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SkipHalfOpenBreaker(pub CircuitBreaker);

impl BreakerDriver for SkipHalfOpenBreaker {
    fn admit(&mut self, now: SimTime) -> (BreakerDecision, Option<BreakerEvent>) {
        if self.0.state() == BreakerState::Open && now >= self.0.open_until() {
            // BUG: skips the half-open probe phase entirely.
            return (BreakerDecision::Admit, None);
        }
        self.0.admit_traced(now)
    }

    fn outcome(&mut self, now: SimTime, success: bool, probe: bool) -> Option<BreakerEvent> {
        self.0.outcome(now, success, probe)
    }
}

/// Where one task is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TaskStatus {
    Fresh,
    Queued { probe: bool },
    Running { probe: bool, respawns: u32 },
    Completed,
    Shed,
    Lost,
}

/// One enabled event in the retry/breaker protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryAction {
    /// Virtual time advances by one breaker-cool-down quantum.
    Tick,
    /// Submit the next fresh task through breaker admission.
    Submit(usize),
    /// The running task's current attempt succeeds.
    Succeed(usize),
    /// The running task's current attempt faults (fault injection
    /// point); the retry policy decides what happens.
    Fail(usize),
}

/// Retry + circuit-breaker + give-up over a single-server admission
/// path: one task runs at a time, one may wait in the bounded queue, and
/// every fresh task passes breaker admission first. Only *final*
/// outcomes reach the breaker (a retried fault is invisible to it),
/// matching the cluster's reporting discipline. A [`BreakerMonitor`]
/// checks every decision and transition against the specification.
#[derive(Debug, Clone)]
pub struct RetryBreakerModel<B: BreakerDriver> {
    breaker: B,
    monitor: BreakerMonitor,
    /// First specification divergence, latched (the invariant reports it).
    divergence: Option<String>,
    tasks: Vec<TaskStatus>,
    retry: RetryPolicy,
    tick: u32,
    horizon_ticks: u32,
    queue_bound: usize,
    submitted: u32,
    completed: u32,
    shed: u32,
    lost: u32,
}

impl<B: BreakerDriver> RetryBreakerModel<B> {
    /// `tasks` tasks pushed through `breaker` (mirrored by a monitor
    /// with `cfg`) under `retry`, for `horizon_ticks` half-cool-down
    /// quanta.
    pub fn new(
        breaker: B,
        cfg: BreakerConfig,
        retry: RetryPolicy,
        tasks: usize,
        horizon_ticks: u32,
    ) -> RetryBreakerModel<B> {
        RetryBreakerModel {
            breaker,
            monitor: BreakerMonitor::new(cfg),
            divergence: None,
            tasks: vec![TaskStatus::Fresh; tasks],
            retry,
            tick: 0,
            horizon_ticks,
            queue_bound: 1,
            submitted: 0,
            completed: 0,
            shed: 0,
            lost: 0,
        }
    }

    fn queued(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t, TaskStatus::Queued { .. }))
            .count()
    }

    fn running(&self) -> Option<usize> {
        self.tasks
            .iter()
            .position(|t| matches!(t, TaskStatus::Running { .. }))
    }

    fn promote_queued(&mut self) {
        if self.running().is_some() {
            return;
        }
        if let Some(i) = self
            .tasks
            .iter()
            .position(|t| matches!(t, TaskStatus::Queued { .. }))
        {
            if let TaskStatus::Queued { probe } = self.tasks[i] {
                self.tasks[i] = TaskStatus::Running { probe, respawns: 0 };
            }
        }
    }

    fn finish(&mut self, i: usize, success: bool, probe: bool) {
        let now = self.now();
        let event = self.breaker.outcome(now, success, probe);
        if self.divergence.is_none() {
            if let Err(msg) = self.monitor.on_outcome(now, success, probe, event) {
                self.divergence = Some(msg);
            }
        }
        self.tasks[i] = if success {
            self.completed += 1;
            TaskStatus::Completed
        } else {
            self.lost += 1;
            TaskStatus::Lost
        };
        self.promote_queued();
    }
}

impl<B: BreakerDriver> Hash for RetryBreakerModel<B> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `retry`, `horizon_ticks` and `queue_bound` are run constants.
        self.breaker.hash(state);
        self.monitor.hash(state);
        self.divergence.hash(state);
        self.tasks.hash(state);
        self.tick.hash(state);
        self.submitted.hash(state);
        self.completed.hash(state);
        self.shed.hash(state);
        self.lost.hash(state);
    }
}

impl<B: BreakerDriver> McModel for RetryBreakerModel<B> {
    type Action = RetryAction;

    fn enabled(&self, out: &mut Vec<RetryAction>) {
        if let Some(i) = self.running() {
            out.push(RetryAction::Succeed(i));
            out.push(RetryAction::Fail(i));
        }
        // Symmetry reduction: tasks are interchangeable, so only the
        // lowest fresh one may be submitted next.
        if self.queued() < self.queue_bound {
            if let Some(i) = self.tasks.iter().position(|t| *t == TaskStatus::Fresh) {
                out.push(RetryAction::Submit(i));
            }
        }
        if self.tick < self.horizon_ticks {
            out.push(RetryAction::Tick);
        }
    }

    fn apply(&mut self, action: &RetryAction) {
        match *action {
            RetryAction::Tick => self.tick += 1,
            RetryAction::Submit(i) => {
                let now = self.now();
                self.submitted += 1;
                let (decision, event) = self.breaker.admit(now);
                if self.divergence.is_none() {
                    if let Err(msg) = self.monitor.on_admit(now, decision, event) {
                        self.divergence = Some(msg);
                    }
                }
                match decision {
                    BreakerDecision::Reject => {
                        self.shed += 1;
                        self.tasks[i] = TaskStatus::Shed;
                    }
                    BreakerDecision::Admit | BreakerDecision::Probe => {
                        let probe = decision == BreakerDecision::Probe;
                        self.tasks[i] = if self.running().is_some() {
                            TaskStatus::Queued { probe }
                        } else {
                            TaskStatus::Running { probe, respawns: 0 }
                        };
                    }
                }
            }
            RetryAction::Succeed(i) => {
                if let TaskStatus::Running { probe, .. } = self.tasks[i] {
                    self.finish(i, true, probe);
                }
            }
            RetryAction::Fail(i) => {
                if let TaskStatus::Running { probe, respawns } = self.tasks[i] {
                    match self.retry.on_fault(respawns) {
                        RetryDecision::Retry { .. } => {
                            // Retried in place; the breaker only hears
                            // about final outcomes.
                            self.tasks[i] = TaskStatus::Running {
                                probe,
                                respawns: respawns + 1,
                            };
                        }
                        RetryDecision::GiveUp => self.finish(i, false, probe),
                        RetryDecision::ForceSuccess => self.finish(i, true, probe),
                    }
                }
            }
        }
    }

    fn invariant(&self) -> Result<(), String> {
        if let Some(msg) = &self.divergence {
            return Err(msg.clone());
        }
        if self.queued() > self.queue_bound {
            return Err(format!(
                "admission queue bound: {} tasks queued, bound is {}",
                self.queued(),
                self.queue_bound
            ));
        }
        let in_flight = self
            .tasks
            .iter()
            .filter(|t| matches!(t, TaskStatus::Queued { .. } | TaskStatus::Running { .. }))
            .count() as u32;
        if self.submitted != self.completed + self.shed + self.lost + in_flight {
            return Err(format!(
                "task conservation: submitted {} != completed {} + shed {} + \
                 lost {} + in-flight {in_flight}",
                self.submitted, self.completed, self.shed, self.lost
            ));
        }
        Ok(())
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(self.tick as u64 * 500)
    }

    fn describe(&self, action: &RetryAction) -> String {
        match *action {
            RetryAction::Tick => format!("tick(to={})", self.tick + 1),
            RetryAction::Submit(i) => format!("submit(task={i})"),
            RetryAction::Succeed(i) => format!("succeed(task={i})"),
            RetryAction::Fail(i) => format!("fail(task={i})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol 3: the data-exchange paths.
// ---------------------------------------------------------------------------

/// One enabled event in the exchange protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeAction {
    /// Deliver the k-th in-flight message to its session.
    Deliver(usize),
    /// Duplicate the k-th in-flight message (budgeted).
    Duplicate(usize),
    /// Drop the k-th in-flight message (budgeted).
    DropMsg(usize),
    /// The session's parent retransmit timer fires.
    ParentTimer(usize),
    /// The session's child retransmit timer fires.
    ChildTimer(usize),
    /// The storage node on this server crashes (volatile sessions lose
    /// their stored object; budgeted).
    CrashStore(u8),
}

/// Concurrent [`ExchangeSession`]s over an adversarial network: the
/// checker owns delivery order and may duplicate or drop any in-flight
/// message and crash either server's store, within budgets. Invariant:
/// exactly-once child execution per session, whatever the environment
/// does.
#[derive(Debug, Clone)]
pub struct ExchangeModel {
    sessions: Vec<ExchangeSession>,
    /// Which server hosts each session's store.
    server_of: Vec<u8>,
    /// In-flight `(session, message)` pairs, kept sorted so the state
    /// fingerprint sees a canonical multiset — delivery-order
    /// permutations of the same network dedupe to one state.
    net: Vec<(u8, ExchangeMsg)>,
    dup_budget: u8,
    drop_budget: u8,
    crash_budget: u8,
    /// Monotonic step counter, used only for schedule timestamps — it is
    /// deliberately excluded from the hash (two states differing only in
    /// elapsed steps behave identically).
    steps: u32,
}

impl ExchangeModel {
    /// Starts one session per `(server, session)` placement entry; each
    /// emits its opening store + fetch sends into the network.
    pub fn new(
        placements: &[(u8, ExchangeSession)],
        dup_budget: u8,
        drop_budget: u8,
        crash_budget: u8,
    ) -> ExchangeModel {
        let mut model = ExchangeModel {
            sessions: Vec::new(),
            server_of: Vec::new(),
            net: Vec::new(),
            dup_budget,
            drop_budget,
            crash_budget,
            steps: 0,
        };
        let mut effects = Vec::new();
        for (server, session) in placements {
            let sid = model.sessions.len() as u8;
            model.server_of.push(*server);
            let mut session = session.clone();
            effects.clear();
            session.start(&mut effects);
            model.sessions.push(session);
            for e in &effects {
                if let ExchangeEffect::Send(m) = e {
                    model.send(sid, *m);
                }
            }
        }
        model
    }

    fn send(&mut self, sid: u8, msg: ExchangeMsg) {
        let entry = (sid, msg);
        let pos = self.net.partition_point(|m| *m <= entry);
        self.net.insert(pos, entry);
    }

    fn feed(&mut self, sid: usize, input: ExchangeInput) {
        let mut effects = Vec::new();
        self.sessions[sid].step(input, &mut effects);
        for e in effects {
            if let ExchangeEffect::Send(m) = e {
                self.send(sid as u8, m);
            }
        }
    }
}

impl Hash for ExchangeModel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `steps` is intentionally excluded (timestamps only).
        self.sessions.hash(state);
        self.server_of.hash(state);
        self.net.hash(state);
        self.dup_budget.hash(state);
        self.drop_budget.hash(state);
        self.crash_budget.hash(state);
    }
}

impl McModel for ExchangeModel {
    type Action = ExchangeAction;

    fn enabled(&self, out: &mut Vec<ExchangeAction>) {
        // Partial-order reduction: sessions share no state — each
        // session's messages, timers and flags are disjoint from every
        // other's — so session-local actions of different sessions
        // commute, and the (per-session) invariant cannot distinguish
        // their interleavings. Local actions are therefore explored only
        // for the lowest session that still has any; adversary actions
        // (duplicate/drop/crash, which consume the shared budgets) stay
        // unrestricted at every state. Every per-session reachable local
        // state is still reached, without the cross-session product.
        let local = |sid: usize, s: &ExchangeSession| {
            let pending = self.net.iter().any(|(m, _)| *m as usize == sid);
            let timers = !s.failed() && (!s.acked() || !s.delivered());
            pending || timers
        };
        if let Some((sid, s)) = self
            .sessions
            .iter()
            .enumerate()
            .find(|(sid, s)| local(*sid, s))
        {
            for (k, (m, _)) in self.net.iter().enumerate() {
                if *m as usize == sid {
                    out.push(ExchangeAction::Deliver(k));
                }
            }
            if !s.failed() && !s.acked() {
                out.push(ExchangeAction::ParentTimer(sid));
            }
            if !s.failed() && !s.delivered() {
                out.push(ExchangeAction::ChildTimer(sid));
            }
        }
        if self.dup_budget > 0 {
            for k in 0..self.net.len() {
                out.push(ExchangeAction::Duplicate(k));
            }
        }
        if self.drop_budget > 0 {
            for k in 0..self.net.len() {
                out.push(ExchangeAction::DropMsg(k));
            }
        }
        if self.crash_budget > 0 {
            let mut servers: Vec<u8> = self.server_of.clone();
            servers.sort_unstable();
            servers.dedup();
            for s in servers {
                out.push(ExchangeAction::CrashStore(s));
            }
        }
    }

    fn apply(&mut self, action: &ExchangeAction) {
        self.steps += 1;
        match *action {
            ExchangeAction::Deliver(k) => {
                let (sid, msg) = self.net.remove(k);
                self.feed(sid as usize, ExchangeInput::Deliver(msg));
            }
            ExchangeAction::Duplicate(k) => {
                self.dup_budget -= 1;
                let (sid, msg) = self.net[k];
                self.send(sid, msg);
            }
            ExchangeAction::DropMsg(k) => {
                self.drop_budget -= 1;
                self.net.remove(k);
            }
            ExchangeAction::ParentTimer(sid) => {
                self.feed(sid, ExchangeInput::ParentTimer);
            }
            ExchangeAction::ChildTimer(sid) => {
                self.feed(sid, ExchangeInput::ChildTimer);
            }
            ExchangeAction::CrashStore(server) => {
                self.crash_budget -= 1;
                for sid in 0..self.sessions.len() {
                    if self.server_of[sid] == server {
                        self.feed(sid, ExchangeInput::StoreCrash);
                    }
                }
            }
        }
    }

    fn invariant(&self) -> Result<(), String> {
        for (sid, s) in self.sessions.iter().enumerate() {
            if s.executed() > 1 {
                return Err(format!(
                    "double execution: session {sid} ran its child {} times",
                    s.executed()
                ));
            }
        }
        Ok(())
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(self.steps as u64 * 100)
    }

    fn describe(&self, action: &ExchangeAction) -> String {
        let net = |k: usize| {
            let (sid, msg) = self.net[k];
            format!("session {sid} {msg:?}")
        };
        match *action {
            ExchangeAction::Deliver(k) => format!("deliver({})", net(k)),
            ExchangeAction::Duplicate(k) => format!("duplicate({})", net(k)),
            ExchangeAction::DropMsg(k) => format!("drop({})", net(k)),
            ExchangeAction::ParentTimer(sid) => format!("parent_timer(session={sid})"),
            ExchangeAction::ChildTimer(sid) => format!("child_timer(session={sid})"),
            ExchangeAction::CrashStore(s) => format!("crash_store(server={s})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol 4: the sharded engine's barrier/merge exchange.
// ---------------------------------------------------------------------------

/// How a [`ShardModel`] merges per-shard epoch batches at a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeRule {
    /// The real protocol: the order-stable k-way merge on
    /// `(time, lane, seq)` keys ([`merge_keyed_into`]).
    ByKey,
    /// Planted bug: concatenate batches in shard order (effectively a
    /// `(shard, time)` key). Each batch is internally time-sorted, so
    /// the bug only shows when two shards interleave in time — exactly
    /// the case the order-stable merge exists for.
    ByShardTime,
}

/// One enabled event in the shard barrier/merge protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAction {
    /// A shard consumes its earliest pending event inside the epoch
    /// horizon (the checker owns which shard advances next).
    Consume(u32),
    /// No shard has a consumable event left: exchange boundary events
    /// and merge the epoch's batches into the global stream.
    Barrier,
}

/// The sharded DES engine's conservative barrier/merge protocol over a
/// small device fleet, driven through the *real* [`ShardMap`] partition,
/// [`EffectKey`] ordering and [`merge_keyed_into`] exchange from
/// `hivemind_sim::shard`.
///
/// Each epoch spans one conservative lookahead window `L` (the engine
/// derives it from the slowest cross-shard link — the WiFi hop). Within
/// the epoch the checker interleaves shard progress arbitrarily: any
/// shard with a pending event before the horizon may consume it, and a
/// consumed event with remaining hop budget emits a boundary event into
/// a *different* shard at `t + L` — which, under the conservative rule,
/// can never land inside the epoch that produced it. At the barrier the
/// per-shard batches merge into the global stream.
///
/// Invariants, checked at every reachable state:
///
/// * **lookahead safety** — no shard ever holds a pending event older
///   than its own consumption cursor; i.e. nothing arrives "in the
///   past" of a shard, for every interleaving the budgets allow.
/// * **merge order** — the merged global stream is strictly sorted by
///   `(time, lane, seq)`, which makes it independent of both the
///   schedule and the shard count (the single-shard stream is the same
///   sorted sequence of the same keys).
/// * **conservation** — every consumed event is either in a shard's
///   unmerged batch or in the merged stream; nothing is dropped or
///   duplicated by the exchange.
#[derive(Debug, Clone)]
pub struct ShardModel {
    map: ShardMap,
    /// Per-shard pending events (key, remaining hop budget), sorted.
    pending: Vec<Vec<(EffectKey, u8)>>,
    /// Per-shard current-epoch batch, in consumption order.
    out: Vec<Vec<EffectKey>>,
    /// Per-shard consumption cursor (last consumed key).
    cursor: Vec<Option<EffectKey>>,
    /// The merged global stream.
    merged: Vec<EffectKey>,
    epoch_start: SimTime,
    lookahead: SimDuration,
    /// Extra consumption horizon past the epoch end. `ZERO` is the
    /// conservative protocol; the eager mutant sets it to `L`,
    /// consuming events another shard can still front-run.
    slack: SimDuration,
    merge: MergeRule,
    consumed: u64,
}

impl ShardModel {
    /// A fleet of `devices` split into `shards`, with one initial event
    /// per device at `offsets_ms[d]` carrying `hops` boundary-emission
    /// budget, under a 5 ms lookahead (the testbed WiFi hop).
    pub fn new(
        devices: u32,
        shards: u32,
        offsets_ms: &[u64],
        hops: u8,
        merge: MergeRule,
        eager: bool,
    ) -> ShardModel {
        assert_eq!(offsets_ms.len(), devices as usize);
        let map = ShardMap::new(devices, shards);
        let lookahead = SimDuration::from_millis(5);
        let mut model = ShardModel {
            pending: vec![Vec::new(); map.shards() as usize],
            out: vec![Vec::new(); map.shards() as usize],
            cursor: vec![None; map.shards() as usize],
            merged: Vec::new(),
            epoch_start: SimTime::ZERO,
            lookahead,
            slack: if eager { lookahead } else { SimDuration::ZERO },
            merge,
            consumed: 0,
            map,
        };
        for (d, &ms) in offsets_ms.iter().enumerate() {
            let key = EffectKey::new(SimTime::ZERO + SimDuration::from_millis(ms), d as u32, 0);
            model.insert(key, hops);
        }
        model
    }

    fn insert(&mut self, key: EffectKey, hops: u8) {
        let s = self.map.shard_of(key.lane) as usize;
        let pos = self.pending[s].partition_point(|&(k, _)| k <= key);
        self.pending[s].insert(pos, (key, hops));
    }

    fn epoch_end(&self) -> SimTime {
        self.epoch_start + self.lookahead
    }

    /// The bound below which a shard may consume. Conservative protocol:
    /// the epoch end. Eager mutant: one lookahead past it.
    fn consume_bound(&self) -> SimTime {
        self.epoch_end() + self.slack
    }

    fn consumable(&self, s: usize) -> bool {
        self.pending[s]
            .first()
            .is_some_and(|&(k, _)| k.at < self.consume_bound())
    }

    /// The boundary event a consumed event emits: one lookahead later,
    /// on the device half a fleet ahead (a constant of the universe, so
    /// the key is a pure function of the emitting event — schedule- and
    /// shard-count-independent; for any shard count > 1 the target is a
    /// different shard), with a seq derived injectively from the emitter.
    fn emission(&self, key: EffectKey) -> EffectKey {
        let block = (self.map.devices() / 2).max(1);
        let target = (key.lane + block) % self.map.devices();
        EffectKey::new(
            key.at + self.lookahead,
            target,
            (key.lane as u64 + 1) * 1_000 + key.seq + 1,
        )
    }
}

impl Hash for ShardModel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The map, lookahead, slack and merge rule are run constants.
        self.pending.hash(state);
        self.out.hash(state);
        self.cursor.hash(state);
        self.merged.hash(state);
        self.epoch_start.hash(state);
        self.consumed.hash(state);
    }
}

impl McModel for ShardModel {
    type Action = ShardAction;

    fn enabled(&self, out: &mut Vec<ShardAction>) {
        let mut any = false;
        for s in 0..self.pending.len() {
            if self.consumable(s) {
                out.push(ShardAction::Consume(s as u32));
                any = true;
            }
        }
        if !any
            && (self.out.iter().any(|o| !o.is_empty())
                || self.pending.iter().any(|p| !p.is_empty()))
        {
            out.push(ShardAction::Barrier);
        }
    }

    fn apply(&mut self, action: &ShardAction) {
        match *action {
            ShardAction::Consume(s) => {
                let s = s as usize;
                if !self.consumable(s) {
                    return;
                }
                let (key, hops) = self.pending[s].remove(0);
                self.out[s].push(key);
                self.cursor[s] = Some(key);
                self.consumed += 1;
                if hops > 0 {
                    let next = self.emission(key);
                    self.insert(next, hops - 1);
                }
            }
            ShardAction::Barrier => {
                let batches: Vec<Vec<(EffectKey, ())>> = self
                    .out
                    .iter_mut()
                    .map(|o| o.drain(..).map(|k| (k, ())).collect())
                    .collect();
                match self.merge {
                    MergeRule::ByKey => {
                        let runs: Vec<&[(EffectKey, ())]> =
                            batches.iter().map(Vec::as_slice).collect();
                        let mut merged = Vec::new();
                        merge_keyed_into(&runs, &mut merged);
                        self.merged.extend(merged.into_iter().map(|(k, ())| k));
                    }
                    MergeRule::ByShardTime => {
                        // BUG: shard index outranks time.
                        for batch in batches {
                            self.merged.extend(batch.into_iter().map(|(k, ())| k));
                        }
                    }
                }
                // Next epoch starts at the earliest pending event (the
                // hub's next_wakeup), never before the current end.
                let next = self
                    .pending
                    .iter()
                    .filter_map(|p| p.first())
                    .map(|&(k, _)| k.at)
                    .min();
                if let Some(t) = next {
                    self.epoch_start = t.max(self.epoch_end());
                }
            }
        }
    }

    fn invariant(&self) -> Result<(), String> {
        // 1. Lookahead safety: nothing pending behind a shard's cursor.
        for (s, pending) in self.pending.iter().enumerate() {
            if let Some(cursor) = self.cursor[s] {
                if let Some(&(k, _)) = pending.iter().find(|&&(k, _)| k < cursor) {
                    return Err(format!(
                        "lookahead horizon: shard {s} holds a pending event at \
                         {:?} behind its cursor {:?} — it consumed past what \
                         another shard could still send",
                        k.at, cursor.at
                    ));
                }
            }
        }
        // 2. Merge order: the global stream is strictly key-sorted, so
        //    it cannot depend on the schedule or the shard count.
        if let Some(w) = self.merged.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "merge order: global stream has {:?}/lane {} before \
                 {:?}/lane {} — not the (time, lane, seq) order",
                w[0].at, w[0].lane, w[1].at, w[1].lane
            ));
        }
        // 3. Conservation across the exchange.
        let staged: u64 = self.out.iter().map(|o| o.len() as u64).sum();
        if self.consumed != self.merged.len() as u64 + staged {
            return Err(format!(
                "exchange conservation: consumed {} != merged {} + staged {staged}",
                self.consumed,
                self.merged.len()
            ));
        }
        Ok(())
    }

    fn now(&self) -> SimTime {
        self.epoch_start
    }

    fn describe(&self, action: &ShardAction) -> String {
        match *action {
            ShardAction::Consume(s) => match self.pending[s as usize].first() {
                Some(&(k, _)) => format!("consume(shard={s}, at={:?}, lane={})", k.at, k.lane),
                None => format!("consume(shard={s}, empty)"),
            },
            ShardAction::Barrier => format!("barrier(epoch_end={:?})", self.epoch_end()),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol 5: disconnected operation — buffer, replay, reconcile.
// ---------------------------------------------------------------------------

/// One enabled event in the disconnect protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectAction {
    /// One virtual second passes: connected, the device's beat reaches
    /// the controller; partitioned, the device buffers an update summary
    /// in its bounded ring instead.
    Tick,
    /// The adversary opens a wireless partition (budgeted).
    Partition,
    /// The partition heals: the controller reconciles (re-arms the stale
    /// heartbeat under the takeover-grace rule) and the device replays
    /// its buffered ring through the reconnect session.
    Heal,
    /// The adversary re-delivers the most recently replayed update
    /// (budgeted) — a network duplicate of a summary that already landed.
    DupReplay,
}

/// The disconnected-operation protocol over one always-live device and
/// its controller, under a partition/duplication adversary.
///
/// Each tick the device either beats the controller (connected) or
/// buffers an update in its bounded [`ReplayRing`]-shaped ring
/// (partitioned; the oldest entry is evicted and counted as expired when
/// the ring is full). A heal reconciles the controller — re-arming the
/// stale heartbeat exactly as [`SwarmController::reconcile_reconnect`]
/// does — and replays the ring through a watermark session that drops
/// duplicates. The device itself never crashes, so the two invariants
/// are sharp:
///
/// 1. **Exactly-once replay**: every update pushed is delivered once,
///    expired once, or still buffered — never double-counted, even when
///    the adversary re-delivers a replayed summary.
/// 2. **No spurious death**: a controller that heard silence only
///    because of a partition must never declare the device failed.
///
/// The `no_dedup` mutant accepts duplicate replays (breaking 1); the
/// `no_grace` mutant skips the heal-time re-arm (breaking 2). Both must
/// yield minimal counterexamples that replay through the DES engine.
///
/// [`ReplayRing`]: hivemind_swarm::disconnect::ReplayRing
#[derive(Debug, Clone)]
pub struct DisconnectModel {
    horizon: u32,
    cap: u32,
    tick: u32,
    /// Non-tick actions taken since the last tick — spreads same-tick
    /// actions over distinct virtual instants for DES replay.
    slot: u32,
    partitioned: bool,
    partition_budget: u32,
    dup_budget: u32,
    /// Device-side ring: pending update seqs, oldest first.
    buffered: Vec<u64>,
    /// Next update seq (== total updates pushed).
    next_seq: u64,
    /// Updates evicted by the ring bound.
    expired: u64,
    /// Updates the reconnect session accepted.
    delivered: u64,
    /// Duplicate replays the session rejected.
    duplicates: u64,
    /// Highest seq the session has accepted.
    watermark: Option<u64>,
    /// Controller view: tick of the device's last recorded beat.
    last_beat_tick: u32,
    /// Controller view: latched failure declaration.
    declared_failed: bool,
    /// Planted bug: the session accepts duplicate replays.
    no_dedup: bool,
    /// Planted bug: the heal skips the takeover-grace re-arm.
    no_grace: bool,
}

impl DisconnectModel {
    /// A single device explored for `horizon` ticks with a ring of
    /// `cap` entries and the given adversary budgets.
    pub fn new(
        horizon: u32,
        cap: u32,
        partition_budget: u32,
        dup_budget: u32,
        no_dedup: bool,
        no_grace: bool,
    ) -> DisconnectModel {
        DisconnectModel {
            horizon,
            cap,
            tick: 0,
            slot: 0,
            partitioned: false,
            partition_budget,
            dup_budget,
            buffered: Vec::new(),
            next_seq: 0,
            expired: 0,
            delivered: 0,
            duplicates: 0,
            watermark: None,
            last_beat_tick: 0,
            declared_failed: false,
            no_dedup,
            no_grace,
        }
    }

    /// Offers one replayed seq to the reconnect session.
    fn offer(&mut self, seq: u64) {
        let fresh = self.watermark.is_none_or(|w| seq > w);
        if fresh || self.no_dedup {
            self.delivered += 1;
            self.watermark = Some(self.watermark.map_or(seq, |w| w.max(seq)));
        } else {
            self.duplicates += 1;
        }
    }

    /// The controller's failure check: silence longer than the paper's
    /// 3 s heartbeat window latches a declaration.
    fn check(&mut self) {
        if self.tick.saturating_sub(self.last_beat_tick) > 3 {
            self.declared_failed = true;
        }
    }
}

impl Hash for DisconnectModel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Constants of the run (horizon, cap, the mutant flags) are
        // omitted; everything that can influence future behaviour is in.
        self.tick.hash(state);
        self.slot.hash(state);
        self.partitioned.hash(state);
        self.partition_budget.hash(state);
        self.dup_budget.hash(state);
        self.buffered.hash(state);
        self.next_seq.hash(state);
        self.expired.hash(state);
        self.delivered.hash(state);
        self.duplicates.hash(state);
        self.watermark.hash(state);
        self.last_beat_tick.hash(state);
        self.declared_failed.hash(state);
    }
}

impl McModel for DisconnectModel {
    type Action = DisconnectAction;

    fn enabled(&self, out: &mut Vec<DisconnectAction>) {
        if self.tick >= self.horizon {
            return;
        }
        out.push(DisconnectAction::Tick);
        if self.partitioned {
            out.push(DisconnectAction::Heal);
        } else {
            if self.partition_budget > 0 {
                out.push(DisconnectAction::Partition);
            }
            if self.dup_budget > 0 && self.watermark.is_some() {
                out.push(DisconnectAction::DupReplay);
            }
        }
    }

    fn apply(&mut self, action: &DisconnectAction) {
        match *action {
            DisconnectAction::Tick => {
                self.tick += 1;
                self.slot = 0;
                if self.partitioned {
                    // The lease expired; the device buffers a summary.
                    if self.buffered.len() as u32 == self.cap {
                        self.buffered.remove(0);
                        self.expired += 1;
                    }
                    self.buffered.push(self.next_seq);
                    self.next_seq += 1;
                    // The controller hears nothing and cannot reach the
                    // swarm, so its checks have no effect until heal.
                } else {
                    self.last_beat_tick = self.tick;
                    self.check();
                }
            }
            DisconnectAction::Partition => {
                self.partitioned = true;
                self.partition_budget -= 1;
                self.slot += 1;
            }
            DisconnectAction::Heal => {
                self.partitioned = false;
                self.slot += 1;
                // Reconnect reconciliation: re-arm the stale beat from
                // the heal instant (takeover grace) — unless the planted
                // bug skips it.
                if !self.no_grace {
                    self.last_beat_tick = self.last_beat_tick.max(self.tick);
                }
                // First post-heal failure check, before any new beat.
                self.check();
                // Replay the ring through the session, oldest first.
                for seq in std::mem::take(&mut self.buffered) {
                    self.offer(seq);
                }
            }
            DisconnectAction::DupReplay => {
                self.slot += 1;
                self.dup_budget -= 1;
                let seq = self.watermark.expect("enabled only past first replay");
                self.offer(seq);
            }
        }
    }

    fn invariant(&self) -> Result<(), String> {
        // 1. Exactly-once replay: conservation over the buffered stream.
        let accounted = self.delivered + self.expired + self.buffered.len() as u64;
        if self.next_seq != accounted {
            return Err(format!(
                "exactly-once replay: {} updates pushed but {} delivered + \
                 {} expired + {} still buffered",
                self.next_seq,
                self.delivered,
                self.expired,
                self.buffered.len()
            ));
        }
        // 2. No spurious death: the device beat every connected tick, so
        //    any declaration means partition silence was read as death.
        if self.declared_failed {
            return Err("spurious failure declaration: the device is live and only \
                 a partition silenced its beats"
                .to_string());
        }
        Ok(())
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(self.tick as u64 * 1000 + self.slot as u64 * 10)
    }

    fn describe(&self, action: &DisconnectAction) -> String {
        match *action {
            DisconnectAction::Tick => format!("tick({})", self.tick + 1),
            DisconnectAction::Partition => format!("partition(tick={})", self.tick),
            DisconnectAction::Heal => format!("heal(tick={})", self.tick),
            DisconnectAction::DupReplay => format!(
                "dup_replay(seq={})",
                self.watermark.expect("enabled only past first replay")
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Counterexample replay.
// ---------------------------------------------------------------------------

/// Replays a checker-emitted schedule: applies every step to `model` in
/// schedule order and checks the invariant after each one. Returns the
/// first `(step index, message)` invariant violation, which for a checker
/// counterexample must be the final step with the identical message —
/// byte-for-byte, independent of thread count, because both sides are
/// pure functions of the action sequence.
///
/// # Panics
///
/// Panics if the steps' `at` instants decrease: a [`Schedule`] is
/// non-decreasing in time, and replay never reorders it.
pub fn replay_schedule<M: McModel>(
    mut model: M,
    schedule: &Schedule<M::Action>,
) -> Option<(usize, String)> {
    if let Err(message) = model.invariant() {
        return Some((0, message));
    }
    for (index, pair) in schedule.steps.windows(2).enumerate() {
        assert!(
            pair[0].at <= pair[1].at,
            "schedule must be non-decreasing in time: step {} at {:?} follows step {} at {:?}",
            index + 1,
            pair[1].at,
            index,
            pair[0].at,
        );
    }
    for (index, step) in schedule.steps.iter().enumerate() {
        model.apply(&step.action);
        if let Err(message) = model.invariant() {
            return Some((index, message));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Canonical instances (2 servers / 1 controller / 3 tasks).
// ---------------------------------------------------------------------------

/// The failover protocol's canonical instance: 3 devices, 5 heartbeat
/// rounds, up to 2 device crashes and 1 primary failover, with orphan
/// redistribution on. Explores to zero violations.
pub fn failover_instance() -> FailoverModel {
    FailoverModel::new(3, 5, 2, 1, true)
}

/// The historical controller on the same instance: inherited strips die
/// with their holder, so chained failovers violate work conservation.
/// Kept as a real-bug demonstration — the checker found this one.
pub fn failover_legacy_instance() -> FailoverModel {
    FailoverModel::new(3, 5, 2, 0, false)
}

fn canonical_breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        open_after: 2,
        half_open_probes: 1,
        cooldown: SimDuration::from_secs(1),
    }
}

/// The retry/breaker protocol's canonical instance: 3 tasks, a breaker
/// tripping after 2 give-ups with a 1 s cool-down, and a bounded
/// 2-attempt retry policy. Explores to zero violations.
pub fn retry_breaker_instance() -> RetryBreakerModel<CircuitBreaker> {
    let cfg = canonical_breaker_cfg();
    RetryBreakerModel::new(
        CircuitBreaker::new(cfg),
        cfg,
        RetryPolicy::bounded(2, SimDuration::ZERO),
        3,
        4,
    )
}

/// The same instance with the planted [`SkipHalfOpenBreaker`] bug; the
/// checker must produce a legality counterexample.
pub fn retry_breaker_mutant() -> RetryBreakerModel<SkipHalfOpenBreaker> {
    let cfg = canonical_breaker_cfg();
    RetryBreakerModel::new(
        SkipHalfOpenBreaker(CircuitBreaker::new(cfg)),
        cfg,
        RetryPolicy::bounded(2, SimDuration::ZERO),
        3,
        4,
    )
}

fn exchange_placements(sessions: usize, dedup: bool) -> Vec<(u8, ExchangeSession)> {
    let retry = RetryPolicy::bounded(2, SimDuration::ZERO);
    let make = |durable: bool| {
        let s = ExchangeSession::new(retry.clone(), durable);
        if dedup {
            s
        } else {
            s.without_dedup()
        }
    };
    // Volatile sessions on server 0, one durable (CouchDB-backed) session
    // on server 1: 2 servers.
    let mut out = vec![(0, make(false)); sessions - 1];
    out.push((1, make(true)));
    out
}

/// The exchange protocol's canonical instance: 3 sessions on 2 servers,
/// one duplication, one drop and one store crash available to the
/// adversary. Explores to zero violations (several million states —
/// meant for release builds; debug-build tests use
/// [`exchange_smoke_instance`]).
pub fn exchange_instance() -> ExchangeModel {
    ExchangeModel::new(&exchange_placements(3, true), 1, 1, 1)
}

/// A smaller exchange instance — one volatile and one durable session,
/// same adversary budgets — cheap enough for debug builds and
/// `mc_sweep`'s default run while still exercising every protocol path.
pub fn exchange_smoke_instance() -> ExchangeModel {
    ExchangeModel::new(&exchange_placements(2, true), 1, 1, 1)
}

/// [`exchange_smoke_instance`] with response deduplication disabled; a
/// duplicated `FetchResp` must yield a double-execution counterexample.
pub fn exchange_mutant() -> ExchangeModel {
    ExchangeModel::new(&exchange_placements(2, false), 1, 1, 1)
}

/// The initial-event offsets of the shard protocol's canonical universe:
/// 6 devices whose events interleave in time *across* the three shard
/// blocks ({0, 4} ms, {2, 6} ms, {1, 5} ms), so a `(shard, time)` merge
/// is actually wrong and every epoch has real cross-shard concurrency.
const SHARD_OFFSETS_MS: [u64; 6] = [0, 4, 2, 6, 1, 5];

/// The shard protocol's canonical instance: 6 devices in 3 shards,
/// time-interleaved initial events, one boundary hop each, under the
/// conservative 5 ms lookahead. Explores to zero violations.
pub fn shard_merge_instance() -> ShardModel {
    ShardModel::new(6, 3, &SHARD_OFFSETS_MS, 1, MergeRule::ByKey, false)
}

/// The same universe on `shards` shards — the merged stream must be the
/// identical key sequence for every count (1 = the unsharded reference).
pub fn shard_merge_instance_on(shards: u32) -> ShardModel {
    ShardModel::new(6, shards, &SHARD_OFFSETS_MS, 1, MergeRule::ByKey, false)
}

/// Planted bug: the barrier concatenates batches in shard order — a
/// `(shard, time)` merge key. The checker must produce a merge-order
/// counterexample.
pub fn shard_merge_mutant() -> ShardModel {
    ShardModel::new(6, 3, &SHARD_OFFSETS_MS, 1, MergeRule::ByShardTime, false)
}

/// Planted bug: a shard that consumes one lookahead *past* the epoch
/// horizon, racing events other shards can still send. The checker must
/// produce a lookahead-safety counterexample.
pub fn shard_eager_mutant() -> ShardModel {
    ShardModel::new(6, 3, &SHARD_OFFSETS_MS, 1, MergeRule::ByKey, true)
}

/// The disconnect protocol's canonical instance: one device over 8
/// ticks with a 2-entry ring, up to 2 partitions and 1 duplicated
/// replay. Small enough to overflow the ring (exercising expiry) and to
/// chain two partition/heal cycles. Explores to zero violations.
pub fn disconnect_instance() -> DisconnectModel {
    DisconnectModel::new(8, 2, 2, 1, false, false)
}

/// Planted bug: the reconnect session accepts duplicate replays. The
/// checker must produce an exactly-once counterexample.
pub fn disconnect_no_dedup_mutant() -> DisconnectModel {
    DisconnectModel::new(8, 2, 2, 1, true, false)
}

/// Planted bug: the heal skips the takeover-grace re-arm, so the first
/// post-heal failure check reads partition silence as device death. The
/// checker must produce a spurious-declaration counterexample.
pub fn disconnect_no_grace_mutant() -> DisconnectModel {
    DisconnectModel::new(8, 2, 2, 1, false, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::mc::{check, McConfig, ScheduleStep};

    fn cfg(depth: usize) -> McConfig {
        McConfig {
            max_depth: depth,
            ..McConfig::default()
        }
    }

    #[test]
    fn failover_instance_holds_exhaustively() {
        let report = check(&failover_instance(), &cfg(24));
        assert!(
            report.holds(),
            "unexpected violation: {:?}",
            report
                .violation
                .map(|v| (v.message, v.schedule.to_string()))
        );
        assert!(!report.stats.truncated);
        assert!(report.stats.states > 1_000, "exploration is non-trivial");
    }

    #[test]
    fn legacy_orphan_drop_is_caught_and_replays() {
        let report = check(&failover_legacy_instance(), &cfg(24));
        let v = report.violation.expect("orphaned strips must be caught");
        assert!(v.message.contains("task conservation"), "{}", v.message);
        // The counterexample replays to the same violation at the same
        // (final) step.
        let replayed = replay_schedule(failover_legacy_instance(), &v.schedule);
        let (index, message) = replayed.expect("replay must reproduce the violation");
        assert_eq!(index, v.schedule.len() - 1);
        assert_eq!(message, v.message);
        // The fixed controller survives the exact same schedule. The
        // legacy counterexample's actions are valid on the fixed model
        // (same action vocabulary), so replay must come back clean.
        assert_eq!(replay_schedule(failover_instance(), &v.schedule), None);
    }

    #[test]
    fn retry_breaker_instance_holds_exhaustively() {
        let report = check(&retry_breaker_instance(), &cfg(24));
        assert!(
            report.holds(),
            "unexpected violation: {:?}",
            report
                .violation
                .map(|v| (v.message, v.schedule.to_string()))
        );
        assert!(!report.stats.truncated);
        assert!(report.stats.states > 100, "exploration is non-trivial");
    }

    #[test]
    fn skip_half_open_mutant_is_caught_and_replays() {
        let report = check(&retry_breaker_mutant(), &cfg(24));
        let v = report.violation.expect("skip-half-open must be caught");
        assert!(v.message.contains("breaker legality"), "{}", v.message);
        let (index, message) =
            replay_schedule(retry_breaker_mutant(), &v.schedule).expect("must reproduce");
        assert_eq!(index, v.schedule.len() - 1);
        assert_eq!(message, v.message);
        // The faithful breaker survives the same schedule.
        assert_eq!(replay_schedule(retry_breaker_instance(), &v.schedule), None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing in time")]
    fn replay_rejects_an_out_of_order_schedule() {
        let step = |secs| ScheduleStep {
            at: SimTime::from_secs(secs),
            label: "tick".to_string(),
            action: RetryAction::Tick,
        };
        let schedule = Schedule {
            steps: vec![step(2), step(1)],
        };
        replay_schedule(retry_breaker_instance(), &schedule);
    }

    #[test]
    fn exchange_smoke_instance_holds_exhaustively() {
        let report = check(&exchange_smoke_instance(), &cfg(28));
        assert!(
            report.holds(),
            "unexpected violation: {:?}",
            report
                .violation
                .map(|v| (v.message, v.schedule.to_string()))
        );
        assert!(!report.stats.truncated);
        assert!(report.stats.states > 100_000, "exploration is non-trivial");
    }

    #[test]
    #[ignore = "~10M states, ~30 s in release; mc_sweep --full explores it on every CI run"]
    fn exchange_instance_holds_exhaustively() {
        let report = check(
            &exchange_instance(),
            &McConfig {
                max_depth: 40,
                max_states: 30_000_000,
            },
        );
        assert!(
            report.holds(),
            "unexpected violation: {:?}",
            report
                .violation
                .map(|v| (v.message, v.schedule.to_string()))
        );
        assert!(!report.stats.truncated);
    }

    #[test]
    fn no_dedup_mutant_is_caught_and_replays() {
        let report = check(&exchange_mutant(), &cfg(14));
        let v = report.violation.expect("double execution must be caught");
        assert!(v.message.contains("double execution"), "{}", v.message);
        let (index, message) =
            replay_schedule(exchange_mutant(), &v.schedule).expect("must reproduce");
        assert_eq!(index, v.schedule.len() - 1);
        assert_eq!(message, v.message);
        assert_eq!(replay_schedule(exchange_instance(), &v.schedule), None);
    }

    #[test]
    fn shard_merge_instance_holds_exhaustively() {
        let report = check(&shard_merge_instance(), &cfg(16));
        assert!(
            report.holds(),
            "unexpected violation: {:?}",
            report
                .violation
                .map(|v| (v.message, v.schedule.to_string()))
        );
        assert!(!report.stats.truncated);
        // The conservative protocol is confluent by design: within a
        // shard the consume order is fixed, so dedup collapses the
        // interleavings to a per-shard progress vector. A few dozen
        // distinct states is the honest size of this space.
        assert!(
            report.stats.states > 30,
            "exploration is non-trivial ({} states)",
            report.stats.states
        );
    }

    #[test]
    fn shard_merged_stream_is_shard_count_invariant() {
        // Run each instance to termination deterministically (always the
        // first enabled action) and compare the merged key streams: the
        // checker proves every schedule yields a sorted stream of the
        // same multiset, so one schedule per count suffices here.
        let run = |mut m: ShardModel| -> Vec<EffectKey> {
            let mut actions = Vec::new();
            loop {
                actions.clear();
                m.enabled(&mut actions);
                match actions.first() {
                    Some(a) => m.apply(&a.clone()),
                    None => break,
                }
                m.invariant().expect("conservative protocol holds");
            }
            m.merged
        };
        let reference = run(shard_merge_instance_on(1));
        assert_eq!(reference.len(), 12, "6 initial events + 6 boundary hops");
        for shards in [2u32, 3, 4] {
            assert_eq!(
                reference,
                run(shard_merge_instance_on(shards)),
                "merged stream diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn shard_time_merge_mutant_is_caught_and_replays() {
        let report = check(&shard_merge_mutant(), &cfg(16));
        let v = report.violation.expect("shard-keyed merge must be caught");
        assert!(v.message.contains("merge order"), "{}", v.message);
        let (index, message) =
            replay_schedule(shard_merge_mutant(), &v.schedule).expect("must reproduce");
        assert_eq!(index, v.schedule.len() - 1);
        assert_eq!(message, v.message);
        // The order-stable merge survives the exact same schedule.
        assert_eq!(replay_schedule(shard_merge_instance(), &v.schedule), None);
    }

    #[test]
    fn shard_eager_horizon_mutant_is_caught_and_replays() {
        let report = check(&shard_eager_mutant(), &cfg(16));
        let v = report.violation.expect("eager horizon must be caught");
        assert!(v.message.contains("lookahead horizon"), "{}", v.message);
        let (index, message) =
            replay_schedule(shard_eager_mutant(), &v.schedule).expect("must reproduce");
        assert_eq!(index, v.schedule.len() - 1);
        assert_eq!(message, v.message);
        // The conservative protocol treats the eager consume as a no-op
        // (the event is simply not consumable yet) and survives.
        assert_eq!(replay_schedule(shard_merge_instance(), &v.schedule), None);
    }

    #[test]
    fn disconnect_instance_holds_exhaustively() {
        let report = check(&disconnect_instance(), &cfg(24));
        assert!(
            report.holds(),
            "unexpected violation: {:?}",
            report
                .violation
                .map(|v| (v.message, v.schedule.to_string()))
        );
        assert!(!report.stats.truncated);
        assert!(
            report.stats.states > 100,
            "exploration is non-trivial ({} states)",
            report.stats.states
        );
    }

    #[test]
    fn disconnect_no_dedup_mutant_is_caught_and_replays() {
        let report = check(&disconnect_no_dedup_mutant(), &cfg(24));
        let v = report.violation.expect("duplicate replay must be caught");
        assert!(v.message.contains("exactly-once replay"), "{}", v.message);
        let (index, message) =
            replay_schedule(disconnect_no_dedup_mutant(), &v.schedule).expect("must reproduce");
        assert_eq!(index, v.schedule.len() - 1);
        assert_eq!(message, v.message);
        // The deduplicating session survives the exact same schedule.
        assert_eq!(replay_schedule(disconnect_instance(), &v.schedule), None);
    }

    #[test]
    fn disconnect_no_grace_mutant_is_caught_and_replays() {
        let report = check(&disconnect_no_grace_mutant(), &cfg(24));
        let v = report.violation.expect("spurious death must be caught");
        assert!(v.message.contains("spurious failure"), "{}", v.message);
        let (index, message) =
            replay_schedule(disconnect_no_grace_mutant(), &v.schedule).expect("must reproduce");
        assert_eq!(index, v.schedule.len() - 1);
        assert_eq!(message, v.message);
        // The graced reconciliation survives the exact same schedule.
        assert_eq!(replay_schedule(disconnect_instance(), &v.schedule), None);
    }

    #[test]
    fn counterexamples_are_minimal() {
        // The mutant breaker needs 2 give-ups (3 actions each: submit,
        // fail→retry, fail→give-up), 2 ticks to clear the cool-down, and
        // the violating submit: depth 9 is the theoretical minimum.
        let v = check(&retry_breaker_mutant(), &cfg(24))
            .violation
            .expect("caught");
        assert_eq!(v.depth, 9, "schedule:\n{}", v.schedule);
        // The duplicated-response bug needs store delivery, fetch
        // delivery, the duplication, and both response deliveries.
        let v = check(&exchange_mutant(), &cfg(14))
            .violation
            .expect("caught");
        assert_eq!(v.depth, 5, "schedule:\n{}", v.schedule);
        // And the legacy orphan drop needs two crashes, the rounds that
        // detect the first one, and the check that detects the second.
        let v = check(&failover_legacy_instance(), &cfg(24))
            .violation
            .expect("caught");
        assert!(v.message.contains("task conservation"), "{}", v.message);
        assert!(v.depth <= 14, "schedule:\n{}", v.schedule);
        // The duplicate-replay bug needs a partition, one buffered tick,
        // the heal that replays it, and the duplicated delivery.
        let v = check(&disconnect_no_dedup_mutant(), &cfg(24))
            .violation
            .expect("caught");
        assert_eq!(v.depth, 4, "schedule:\n{}", v.schedule);
        // The grace-skipping heal needs a partition held past the 3 s
        // window (4 ticks) plus the heal whose check misfires.
        let v = check(&disconnect_no_grace_mutant(), &cfg(24))
            .violation
            .expect("caught");
        assert_eq!(v.depth, 6, "schedule:\n{}", v.schedule);
    }
}
