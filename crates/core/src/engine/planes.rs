//! The engine side of the three run-control planes (paper Sec. 4.6):
//! fault injection, overload control and disconnected operation.
//!
//! Everything the engine does for a plane lives here: the plane state
//! ([`Planes`]), the three ledgers the outcome reports, every way a task
//! ends outside a completed record ([`Ending`]), the fault
//! `injected → detected → recovered` triple, lease-based autonomy with
//! its replay rings, the plan check shared by [`Engine::new`] and
//! `RunPlan::validate`, and the outcome blocks read from the ledgers.

use hivemind_net::fabric::Transfer;
use hivemind_net::topology::Node;
use hivemind_sim::disconnect;
use hivemind_sim::faults::{self, FaultPlan};
use hivemind_sim::overload::{OverloadPolicy, DEGRADED_ACCURACY_PENALTY_PCT, DEGRADED_SPEEDUP};
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::{ArgValue, TraceHandle};
use hivemind_swarm::disconnect::{ReplayRing, ReplaySession};

use super::shard::{edge_service, Draw};
use super::{transfer_tag, Action, Engine, EngineConfig, TagPurpose};
use crate::dsl::PlacementSite;
use crate::experiment::{ConfigError, RunPlan};
use crate::metrics::{Outcome, ReconnectStats, RecoveryStats, ShedStats};

/// Engine-level fault bookkeeping that no lower layer can see on its own:
/// whole tasks lost to give-up retry policies or dropped at the partition
/// hold bound, device failures noted by the mission layer, and controller
/// failovers, plus the detection/recovery latencies behind the paper's
/// 3 s heartbeat window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultLedger {
    /// Tasks whose cloud invocation exhausted a give-up retry policy.
    pub tasks_lost: u64,
    /// Tasks whose upload, result upload or response the fabric
    /// tail-dropped at the partition hold bound (one per dropped task
    /// transfer; the fabric counts every drop as `transfers_dropped`).
    pub tasks_dropped: u64,
    /// Device failures applied (scripted or MTBF-drawn).
    pub device_failures: u32,
    /// Primary-controller failovers.
    pub controller_failovers: u32,
    /// Sum of fault-detection latencies, seconds.
    pub detection_secs_sum: f64,
    /// Sum of fault-recovery times (failure to restored service), seconds.
    pub recovery_secs_sum: f64,
    /// Number of detection/recovery samples in the sums.
    pub recovery_events: u32,
}

/// Engine-level overload bookkeeping: whole-task consequences of the
/// cluster's shed decisions, which only the engine can attribute (it owns
/// the task ↔ sub-invocation mapping and the spillover re-routing).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShedLedger {
    /// Tasks re-routed to degraded on-device execution after a shed.
    pub tasks_spilled: u64,
    /// Tasks abandoned because a sub-invocation was shed and no spillover
    /// was configured.
    pub tasks_shed: u64,
    /// Accuracy points lost across all spilled tasks (sum, not mean).
    pub accuracy_penalty_sum_pct: f64,
}

/// Engine-level disconnected-operation bookkeeping: what the disconnect
/// plane did while partitioned (lease expirations, degraded autonomous
/// executions, buffered summaries) and what the reconnect sessions
/// reconciled at heal (exactly-once replays, suppressed duplicates,
/// explicit expiries, staleness).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReconnectLedger {
    /// Reconnect reconciliation sessions run (one per healed partition).
    pub partitions: u32,
    /// Device lease expirations (one per device per merged partition
    /// window it went autonomous under).
    pub lease_expirations: u64,
    /// Cloud-bound tasks re-routed to degraded autonomous on-device
    /// execution because the device's lease had expired.
    pub tasks_degraded: u64,
    /// Update summaries buffered while disconnected.
    pub updates_buffered: u64,
    /// Buffered updates replayed exactly once at reconnect.
    pub updates_replayed: u64,
    /// Buffered updates evicted under the ring bound (explicit expiry,
    /// never silent growth).
    pub updates_expired: u64,
    /// Replay offers the session watermark rejected as duplicates.
    pub duplicates_dropped: u64,
    /// Stale heartbeats re-armed by reconnect reconciliation instead of
    /// being read as device deaths.
    pub devices_rearmed: u64,
    /// Sum over replayed updates of (heal − buffered-at), seconds.
    pub staleness_secs_sum: f64,
    /// Accuracy points lost across all degraded tasks (sum, not mean).
    pub accuracy_penalty_sum_pct: f64,
}

/// Checks the fault plan against the cluster size and the overload policy
/// on its own: the one plane check behind both `RunPlan::validate` and
/// [`Engine::new`].
pub(crate) fn check(
    faults: &FaultPlan,
    overload: &OverloadPolicy,
    servers: u32,
) -> Result<(), ConfigError> {
    faults
        .validate(servers)
        .map_err(ConfigError::InvalidFaultPlan)?;
    overload
        .validate()
        .map_err(ConfigError::InvalidOverloadPolicy)
}

/// How a task ends other than with a [`super::TaskRecord`], or leaves the
/// cloud path for degraded on-device execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Ending {
    /// A sub-invocation exhausted its retry budget: no response, no record.
    Lost,
    /// A sub-invocation was shed and no spillover is configured.
    Shed,
    /// A sub-invocation was shed; the task re-runs on its device with the
    /// degraded model.
    Spilled,
    /// The device's lease expired mid-partition; the task runs on the
    /// device with the degraded model.
    Degraded,
    /// The fabric tail-dropped one of the task's transfers at the
    /// partition hold bound.
    Dropped,
}

impl Ending {
    /// The `task/<kind>` trace instant; a drop has only the fabric's own
    /// `net/held.drop`.
    fn trace_name(self) -> Option<&'static str> {
        match self {
            Ending::Lost => Some("lost"),
            Ending::Shed => Some("shed"),
            Ending::Spilled => Some("spillover"),
            Ending::Degraded => Some("degraded"),
            Ending::Dropped => None,
        }
    }
}

/// The disconnect plane's per-device state, present only while the plane
/// is armed.
#[derive(Debug)]
struct Disconnect {
    /// Bounded rings of update summaries awaiting replay.
    rings: Vec<ReplayRing<u32>>,
    /// Exactly-once replay sessions: lifetime watermarks, so dedup is
    /// session-scoped across repeated partitions.
    sessions: Vec<ReplaySession>,
    /// Heal instant (seconds) of the merged partition window each device
    /// is currently autonomous under (`None` = lease held).
    autonomy_heal: Vec<Option<f64>>,
}

/// The run-control planes' engine state: their ledgers, plus the
/// disconnect plane's per-device rings when it is armed.
#[derive(Debug)]
pub(super) struct Planes {
    faults: FaultLedger,
    shed: ShedLedger,
    reconnect: ReconnectLedger,
    /// Armed when the disconnect policy is active *and* the fault plan
    /// schedules wireless partitions (there is nothing to survive
    /// otherwise). Never armed under the inert defaults, so the plane
    /// cannot perturb a byte of any existing run.
    disconnect: Option<Disconnect>,
}

impl Planes {
    /// The planes for `cfg`. A scheduled controller failover is known up
    /// front, so its ledger entry and trace instants are written here
    /// (the trace is sorted at finish time, so future-timestamped
    /// instants are fine).
    pub(super) fn new(cfg: &EngineConfig, tracer: &TraceHandle) -> Planes {
        let n = cfg.devices as usize;
        let armed = cfg.disconnect.is_active() && !cfg.faults.net.partitions.is_empty();
        let mut planes = Planes {
            faults: FaultLedger::default(),
            shed: ShedLedger::default(),
            reconnect: ReconnectLedger::default(),
            disconnect: armed.then(|| Disconnect {
                rings: vec![ReplayRing::new(disconnect::BUFFER_CAP); n],
                sessions: vec![ReplaySession::new(); n],
                autonomy_heal: vec![None; n],
            }),
        };
        if let Some(at) = cfg.faults.devices.controller_failover_at_secs {
            let detection = faults::DETECTION_WINDOW.as_secs_f64();
            let recovery = detection + faults::CONTROLLER_TAKEOVER.as_secs_f64();
            planes.faults.controller_failovers += 1;
            let instants = [at, at + detection, at + recovery];
            planes.note_failure(
                tracer,
                0,
                "controller_failover",
                instants,
                detection,
                recovery,
            );
        }
        planes
    }

    /// The armed disconnect plane's per-device state.
    fn disconnect(&mut self) -> &mut Disconnect {
        self.disconnect.as_mut().expect("disconnect plane armed")
    }

    /// Counts one failure's detection/recovery sample and emits its
    /// `fault/injected → detected → recovered` instants, tagged `kind`, at
    /// `instants` (seconds from run start).
    fn note_failure(
        &mut self,
        tracer: &TraceHandle,
        device: u32,
        kind: &'static str,
        instants: [f64; 3],
        detection: f64,
        recovery: f64,
    ) {
        self.faults.detection_secs_sum += detection;
        self.faults.recovery_secs_sum += recovery;
        self.faults.recovery_events += 1;
        if tracer.is_enabled() {
            let names = [
                faults::EV_INJECTED,
                faults::EV_DETECTED,
                faults::EV_RECOVERED,
            ];
            for (name, t) in names.into_iter().zip(instants) {
                tracer.instant(
                    faults::TRACE_CAT,
                    name,
                    device,
                    SimTime::ZERO + SimDuration::from_secs_f64(t),
                    vec![("kind", ArgValue::Str(kind.into()))],
                );
            }
        }
    }
}

impl Engine {
    /// Ends the task in progress slot `slot` — or sends it to degraded
    /// on-device execution — for a reason other than a completed record:
    /// counts the ending on its ledger, releases the slot of a task that
    /// is over, and emits the `task/<kind>` instant.
    pub(super) fn end_task(&mut self, at: SimTime, device: u32, slot: u32, ending: Ending) {
        let task = self.slot(slot).task;
        let penalty = DEGRADED_ACCURACY_PENALTY_PCT;
        match ending {
            Ending::Lost => self.planes.faults.tasks_lost += 1,
            Ending::Dropped => self.planes.faults.tasks_dropped += 1,
            Ending::Shed => self.planes.shed.tasks_shed += 1,
            Ending::Spilled => {
                self.planes.shed.tasks_spilled += 1;
                self.planes.shed.accuracy_penalty_sum_pct += penalty;
            }
            Ending::Degraded => {
                self.planes.reconnect.tasks_degraded += 1;
                self.planes.reconnect.accuracy_penalty_sum_pct += penalty;
            }
        }
        match ending {
            Ending::Spilled | Ending::Degraded => self.run_degraded(at, device, slot),
            Ending::Lost | Ending::Shed | Ending::Dropped => self.release(slot),
        }
        if let Some(name) = ending.trace_name() {
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    "task",
                    name,
                    device,
                    at,
                    vec![("task", ArgValue::U64(task as u64))],
                );
            }
        }
    }

    /// Sends one of the transfers of the task in progress slot `slot`; a
    /// transfer the fabric tail-drops at the partition hold bound ends
    /// the task.
    pub(super) fn send_task(&mut self, at: SimTime, slot: u32, transfer: Transfer) {
        if self.fabric.send(at, transfer).is_none() {
            let device = self.slot(slot).device;
            self.end_task(at, device, slot, Ending::Dropped);
        }
    }

    /// Runs the task in progress slot `slot` as a degraded on-device job:
    /// one hub-stream service draw stretched for the device and divided
    /// by [`DEGRADED_SPEEDUP`], charged to the device battery. The device
    /// FIFO belongs to the shard phase, which may already have advanced
    /// past `at`, so the job is resubmitted at the (shard-count-invariant)
    /// epoch boundary.
    fn run_degraded(&mut self, at: SimTime, device: u32, slot: u32) {
        let st = self.slot(slot);
        st.placement = PlacementSite::Edge;
        let app = st.app;
        self.rng_draws += 1;
        let service = edge_service(&mut self.rng, &self.ctx, app).mul_f64(1.0 / DEGRADED_SPEEDUP);
        let st = self.slot(slot);
        st.exec = st.exec.max(service);
        let task = st.task;
        self.shards.draw(device, Draw::Compute(service));
        self.shards.spill(at, device, task, slot, service);
    }

    /// Schedules one reconnect session per distinct heal instant when the
    /// disconnect plane is armed. Chained windows fold to their final
    /// heal, so a partition that "heals" straight into the next window
    /// reconciles once, at the true end — exactly when the fabric
    /// releases its held transfers.
    pub(super) fn arm_reconnects(&mut self) {
        if self.planes.disconnect.is_some() {
            for h in self.cfg.faults.net.heal_instants() {
                self.push_action(
                    SimTime::ZERO + SimDuration::from_secs_f64(h),
                    Action::Reconnect,
                );
            }
        }
    }

    /// When `at` falls inside a scheduled partition *and* the lease
    /// granted by the last pre-partition heartbeat ack has expired (the
    /// merged window has been open for at least one lease timeout),
    /// returns the window's heal instant in seconds. A pure function of
    /// the fault plan and the policy — no RNG, no per-shard state — so
    /// the autonomy decision is shard-count-invariant. During the first
    /// lease-timeout of a partition the device still trusts the cloud
    /// and its uplinks hold in the fabric, exactly as without the plane.
    pub(super) fn autonomous_at(&self, at: SimTime) -> Option<f64> {
        self.planes.disconnect.as_ref()?;
        let t = (at - SimTime::ZERO).as_secs_f64();
        let heal = self.cfg.faults.net.partition_until(t)?;
        let lease = faults::DETECTION_WINDOW.as_secs_f64();
        // The lease had expired by `at` iff the same merged window
        // already covered `at - lease`; a distinct earlier window means
        // the lease was renewed in the gap between them.
        match self.cfg.faults.net.partition_until(t - lease) {
            Some(h) if h == heal => Some(heal),
            _ => None,
        }
    }

    /// Marks `device` autonomous under the merged window healing at
    /// `heal`, counting one lease expiration per (device, window).
    pub(super) fn note_autonomous(&mut self, at: SimTime, device: u32, heal: f64) {
        let marked = &mut self.planes.disconnect().autonomy_heal[device as usize];
        if marked.replace(heal) == Some(heal) {
            return;
        }
        self.planes.reconnect.lease_expirations += 1;
        if self.tracer.is_enabled() {
            self.tracer.instant(
                disconnect::TRACE_CAT,
                disconnect::EV_AUTONOMOUS,
                device,
                at,
                vec![("heal_secs", ArgValue::Str(format!("{heal}")))],
            );
        }
    }

    /// Buffers one update summary for `task` in `device`'s replay ring.
    pub(super) fn buffer_update(&mut self, at: SimTime, device: u32, task: u32) {
        let seq = self.planes.disconnect().rings[device as usize].push(at, task);
        if self.tracer.is_enabled() {
            self.tracer.instant(
                disconnect::TRACE_CAT,
                disconnect::EV_BUFFERED,
                device,
                at,
                vec![
                    ("task", ArgValue::U64(task as u64)),
                    ("seq", ArgValue::U64(seq)),
                ],
            );
        }
    }

    /// Re-routes the cloud-bound task in progress slot `slot` to degraded
    /// autonomous on-device execution — the brownout spillover path — and
    /// buffers its update summary.
    pub(super) fn degrade_task(&mut self, at: SimTime, device: u32, slot: u32, heal: f64) {
        self.note_autonomous(at, device, heal);
        let task = self.slot(slot).task;
        self.buffer_update(at, device, task);
        self.end_task(at, device, slot, Ending::Degraded);
    }

    /// The heal-time reconciliation session: every device drains its
    /// replay ring through its lifetime [`ReplaySession`] watermark in
    /// device-id order (deterministic and shard-count-invariant). Each
    /// accepted summary costs one radio transmission and rides the
    /// fabric untagged — bandwidth and energy are charged, but no
    /// response path follows. Duplicate offers are suppressed, so every
    /// buffered update lands exactly once across repeated partitions.
    pub(super) fn reconcile_reconnect(&mut self, t: SimTime) {
        self.planes.reconnect.partitions += 1;
        if self.tracer.is_enabled() {
            self.tracer.instant(
                disconnect::TRACE_CAT,
                disconnect::EV_RECONNECT,
                0,
                t,
                vec![(
                    "partitions",
                    ArgValue::U64(self.planes.reconnect.partitions as u64),
                )],
            );
        }
        // Held out of `self` for the session, so the replay can send.
        let mut d = self
            .planes
            .disconnect
            .take()
            .expect("disconnect plane armed");
        for device in 0..self.cfg.devices {
            d.autonomy_heal[device as usize] = None;
            for u in d.rings[device as usize].drain() {
                if !d.sessions[device as usize].offer(u.seq) {
                    continue;
                }
                self.planes.reconnect.staleness_secs_sum += (t - u.at).as_secs_f64();
                self.shards
                    .draw(device, Draw::Radio(disconnect::SUMMARY_BYTES));
                let server = self.pick_server();
                self.fabric.send(
                    t,
                    Transfer {
                        src: Node::Device(device),
                        dst: Node::Server(server),
                        bytes: disconnect::SUMMARY_BYTES,
                        tag: transfer_tag(u.seq, TagPurpose::ReplaySummary),
                    },
                );
                if self.tracer.is_enabled() {
                    self.tracer.instant(
                        disconnect::TRACE_CAT,
                        disconnect::EV_REPLAYED,
                        device,
                        t,
                        vec![
                            ("task", ArgValue::U64(u.item as u64)),
                            ("seq", ArgValue::U64(u.seq)),
                        ],
                    );
                }
            }
        }
        self.planes.disconnect = Some(d);
    }

    /// Engine-level fault bookkeeping (lost and dropped tasks, device
    /// failures, controller failovers, detection/recovery latency sums).
    pub fn fault_ledger(&self) -> FaultLedger {
        self.planes.faults
    }

    /// Engine-level overload bookkeeping (spilled and shed tasks,
    /// accumulated accuracy penalty).
    pub fn shed_ledger(&self) -> ShedLedger {
        self.planes.shed
    }

    /// Engine-level disconnected-operation bookkeeping. The replay
    /// counters are read live from the per-device rings and sessions, so
    /// the conservation identity
    /// `buffered == replayed + expired + still-buffered` holds by
    /// construction at every instant.
    pub fn reconnect_ledger(&self) -> ReconnectLedger {
        let mut l = self.planes.reconnect;
        if let Some(d) = &self.planes.disconnect {
            l.updates_buffered = d.rings.iter().map(|r| r.pushed()).sum();
            l.updates_expired = d.rings.iter().map(|r| r.expired()).sum();
            l.updates_replayed = d.sessions.iter().map(|s| s.delivered()).sum();
            l.duplicates_dropped = d.sessions.iter().map(|s| s.duplicates()).sum();
        }
        l
    }

    /// Whether the disconnect plane is armed for this run: an active
    /// policy plus at least one scheduled partition window.
    pub fn disconnect_armed(&self) -> bool {
        self.planes.disconnect.is_some()
    }

    /// Records heartbeat re-arms applied by the mission layer's reconnect
    /// reconciliation (the controller side of the heal protocol).
    pub fn note_reconnect_rearm(&mut self, devices: u32) {
        self.planes.reconnect.devices_rearmed += devices as u64;
    }

    /// Records a device failure applied by the mission layer at `at_secs`:
    /// the controller declares it dead after the heartbeat-silence window,
    /// and it counts as recovered at `recovered_secs`, when its area is
    /// fully re-covered by the heirs.
    pub fn note_device_failure(&mut self, device: u32, at_secs: f64, recovered_secs: f64) {
        let detection = faults::DETECTION_WINDOW.as_secs_f64();
        let recovery = SimDuration::from_secs_f64(recovered_secs - at_secs).as_secs_f64();
        let instants = [at_secs, at_secs + detection, recovered_secs];
        self.planes.faults.device_failures += 1;
        let tracer = &self.tracer;
        self.planes.note_failure(
            tracer,
            device,
            "device_failed",
            instants,
            detection,
            recovery,
        );
    }
}

/// Fills the outcome's plane blocks from `engine`'s ledgers. Each block
/// exists only when its plane is active, so inert configurations
/// serialize byte-identically to plane-less outputs. `completed` is the
/// record count (at least 1), `end` the run's last instant.
pub(crate) fn report(
    engine: &Engine,
    plan: &RunPlan,
    outcome: &mut Outcome,
    slo_violations: u64,
    completed: f64,
    end: SimTime,
) {
    // The mean of `count` samples summing to `sum`; 0 with no samples.
    let mean = |sum: f64, count: u64| if count > 0 { sum / count as f64 } else { 0.0 };
    let net = engine.fabric().fault_stats();
    let cluster = engine.cluster();
    if plan.faults.is_active() {
        let ledger = engine.fault_ledger();
        let crashes = cluster.map(|c| c.crash_stats()).unwrap_or_default();
        let events = ledger.recovery_events as u64;
        outcome.recovery = Some(RecoveryStats {
            packets_lost: net.packets_lost,
            transfers_held: net.transfers_held,
            server_crashes: crashes.server_crashes,
            invocations_lost: crashes.invocations_lost,
            invocations_rescheduled: crashes.invocations_rescheduled,
            tasks_retried: outcome.faults_recovered,
            tasks_lost: ledger.tasks_lost,
            device_failures: ledger.device_failures,
            controller_failovers: ledger.controller_failovers,
            mean_detection_secs: mean(ledger.detection_secs_sum, events),
            mean_recovery_secs: mean(ledger.recovery_secs_sum, events),
            slo_violations,
            slo_violation_fraction: match plan.faults.slo {
                Some(_) => slo_violations as f64 / completed,
                None => 0.0,
            },
        });
    }
    if plan.overload.is_active() {
        let oc = cluster.map(|c| c.overload_counters()).unwrap_or_default();
        let ledger = engine.shed_ledger();
        outcome.shed = Some(ShedStats {
            invocations_shed: oc.shed_total(),
            shed_queue_full: oc.shed_queue_full,
            shed_deadline: oc.shed_deadline,
            shed_breaker: oc.shed_breaker,
            breaker_opens: oc.breaker_opens,
            breaker_open_secs: cluster.map_or(0.0, |c| c.breaker_open_time(end).as_secs_f64()),
            tasks_spilled: ledger.tasks_spilled,
            tasks_shed: ledger.tasks_shed,
            mean_accuracy_penalty_pct: ledger.accuracy_penalty_sum_pct / completed,
            net_holds: engine.fabric().backpressure_holds(),
        });
    }
    if plan.disconnect.is_active() {
        let ledger = engine.reconnect_ledger();
        outcome.reconnect = Some(ReconnectStats {
            partitions: ledger.partitions,
            lease_expirations: ledger.lease_expirations,
            tasks_degraded: ledger.tasks_degraded,
            updates_buffered: ledger.updates_buffered,
            updates_replayed: ledger.updates_replayed,
            updates_expired: ledger.updates_expired,
            duplicates_dropped: ledger.duplicates_dropped,
            devices_rearmed: ledger.devices_rearmed,
            mean_staleness_secs: mean(ledger.staleness_secs_sum, ledger.updates_replayed),
            mean_accuracy_penalty_pct: mean(ledger.accuracy_penalty_sum_pct, ledger.tasks_degraded),
            held_high_water: net.held_high_water,
            transfers_dropped: net.transfers_dropped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use hivemind_apps::suite::App;
    use hivemind_sim::disconnect::DisconnectPolicy;

    #[test]
    fn lease_expires_one_timeout_into_each_partition() {
        let mut cfg = EngineConfig::testbed(Platform::HiveMind);
        cfg.faults = FaultPlan::default()
            .partition(5.0, 15.0)
            .partition(16.0, 30.0);
        cfg.disconnect = DisconnectPolicy::default().autonomous();
        let engine = Engine::new(cfg);
        let at = |ms: u64| engine.autonomous_at(SimTime::ZERO + SimDuration::from_millis(ms));
        // Connected, then the first 3 s of a partition: the lease holds.
        assert_eq!(at(4_000), None);
        assert_eq!(at(7_999), None);
        // Expired from one lease timeout in until the heal.
        assert_eq!(at(8_000), Some(15.0));
        assert_eq!(at(14_999), Some(15.0));
        // The 1 s gap renews the lease, so the second window starts over.
        assert_eq!(at(15_500), None);
        assert_eq!(at(18_999), None);
        assert_eq!(at(19_000), Some(30.0));
    }

    /// A small `chaos_planes`: every plane armed, two partitions with a
    /// transfer hold bound low enough to tail-drop held uploads.
    #[test]
    fn live_slots_are_the_unresolved_tasks() {
        let mut cfg = EngineConfig::testbed(Platform::HiveMind);
        cfg.devices = 32;
        cfg.servers = 4;
        cfg.faults = FaultPlan::default()
            .packet_loss(0.02)
            .function_fault_rate(0.05)
            .retry(faults::RetryPolicy::bounded(
                4,
                SimDuration::from_millis(50),
            ))
            .server_crash(0, 8.0, 4.0)
            .partition(10.0, 20.0)
            .partition(30.0, 40.0)
            .partition_hold_bound(32);
        cfg.overload = OverloadPolicy::default()
            .queue_bound(16)
            .queue_deadline(SimDuration::from_secs(2))
            .breaker(3, SimDuration::from_secs(2))
            .spillover()
            .net_ingress_bound(16);
        cfg.disconnect = DisconnectPolicy::default().autonomous();
        let mut engine = Engine::new(cfg);
        for k in 0..4 * 50u64 {
            for dev in 0..32 {
                let at = SimTime::ZERO
                    + SimDuration::from_millis(250 * k)
                    + SimDuration::from_micros(7_001 * dev);
                engine.submit_task(at, dev as u32, App::FaceRecognition, 0);
            }
        }
        let completed = engine.run_to_completion().len() as u64;
        let submitted = engine.submitted() as u64;
        let faults = engine.fault_ledger();
        let shed = engine.shed_ledger().tasks_shed;
        let live = (engine.progress.len() - engine.free.len()) as u64;
        // Every task resolves exactly once: completed, lost, shed, or
        // ended by a tail-dropped transfer, one per fabric drop.
        assert_eq!(
            submitted,
            completed + faults.tasks_lost + shed + faults.tasks_dropped
        );
        let dropped = engine.fabric().fault_stats().transfers_dropped;
        assert_eq!(
            (submitted, live, faults.tasks_dropped, dropped),
            (6_400, 0, 852, 852)
        );
    }
}
