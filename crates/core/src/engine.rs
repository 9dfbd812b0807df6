//! The execution engine: swarm + network + cloud as one simulation.
//!
//! The engine owns the network [`Fabric`], the serverless [`Cluster`] (or
//! the IaaS [`FixedPool`]), one on-device [`FifoServer`]
//! per edge device, and the device battery models, and routes events
//! between them in global time order. Experiment harnesses inject *tasks*
//! (one sensor frame batch to process) and receive [`TaskRecord`]s with
//! the same latency decomposition the paper reports: network, management,
//! instantiation, data I/O, execution.
//!
//! ## Task pipelines
//!
//! Cloud-placed task (centralized platforms; heavy apps under HiveMind):
//!
//! ```text
//! capture → [hybrid: on-device filter tier] → device RPC send
//!         → wireless/ToR transfer → server RPC recv → FaaS control path
//!         → container (cold/warm) → data-in → exec → data-out
//!         → server RPC send → downlink transfer → device RPC recv → done
//! ```
//!
//! Edge-placed task (distributed platforms; light apps under HiveMind):
//!
//! ```text
//! capture → on-device FIFO queue → exec (slowdown × cloud time)
//!         → result upload → done at cloud
//! ```
//!
//! ## Sharded execution
//!
//! Device-local work (capture, the hybrid filter tier, on-device FIFO
//! execution, battery accounting, and the RPC-send cost draws) is
//! partitioned into [`ShardMap`] blocks — contiguous device ranges, one
//! spatial swarm region each — and advanced one *epoch* at a time under
//! conservative lookahead derived from the slowest cross-shard link
//! (the wireless hop: no device-side event can influence another
//! device's hardware, or the shared cloud, in less virtual time than
//! one wireless propagation). Each epoch runs two phases:
//!
//! 1. **Shard phase** (parallel): every shard drains its own capture
//!    run and FIFO wake index up to the epoch boundary, drawing
//!    only from per-device RNG lanes (`forge.indexed_stream("device", d)`)
//!    and emitting boundary *effects* stamped `(time, device, seq)`.
//! 2. **Hub phase** (serial): the per-shard effect batches are folded,
//!    together with the previous epoch's not-yet-due leftovers, through
//!    one order-stable k-way merge ([`merge_keyed_into`]) per barrier —
//!    batched exchange, not per-event handoff — and applied interleaved,
//!    in global time order, with hub actions, network deliveries, and
//!    cloud completions. All hub randomness stays on the global
//!    `"engine"` stream.
//!
//! Because every shard-phase draw is keyed by device, every effect by a
//! shard-count-invariant `(time, device, seq)` key, and the epoch grid
//! by configuration alone, `HIVEMIND_SHARDS` (or
//! [`EngineConfig::shards`]) changes wall-clock time but never a single
//! output byte. The one hub→device feedback edge — overload spillover
//! resubmission — is deferred to the epoch boundary, which is itself
//! shard-count-invariant.
//!
//! ## Pipelined epochs
//!
//! Between two wireless hops a shard's device work depends on nothing the
//! hub does, so when no hub→device feedback is armed the shards run ahead
//! on a phase worker thread — epoch k+1's shard phase, up to one horizon
//! past epoch k's end — while the calling thread runs epoch k's hub. The
//! hub's battery draws are logged and applied at the barrier before the
//! shards' own, the epoch grid and the clock come from the shards'
//! pre-speculation state, and so the overlap moves no output byte either.

mod captures;
pub mod fifo;
mod worker;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hivemind_apps::suite::App;
use hivemind_faas::cluster::Cluster;
use hivemind_faas::iaas::FixedPool;
use hivemind_faas::types::{AppId, AppProfile, Invocation};
use hivemind_net::fabric::{Fabric, Transfer};
use hivemind_net::rpc::RpcProfile;
use hivemind_net::topology::{Node, Topology, TopologyParams};
use hivemind_sim::disconnect::{self, DisconnectPolicy};
use hivemind_sim::faults::{self, FaultPlan};
use hivemind_sim::overload::OverloadPolicy;
use hivemind_sim::rng::RngForge;
use hivemind_sim::shard::{merge_keyed_into, shards_from_env, EffectKey, ShardMap};
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::{ArgValue, Trace, TraceHandle};
use rand::rngs::SmallRng;

use crate::dsl::PlacementSite;
use crate::platform::Platform;
use crate::synthesis;
use captures::CaptureRun;
use fifo::FifoServer;
use hivemind_accel::fpga::{FpgaConfig, FpgaFabric, SoftRegisters};

use hivemind_swarm::device::DeviceProfile;
use hivemind_swarm::disconnect::{ReplayRing, ReplaySession};
use hivemind_swarm::{Battery, BatteryBlock};
use worker::PhaseWorker;

/// Epoch length used when nothing couples the hub back into the shard
/// phase inside an epoch (the dataflow is feed-forward): batching many
/// lookahead windows per barrier amortizes per-epoch synchronization
/// without affecting a single output byte. When spillover re-routing is
/// armed, or a caller is waiting on the next record, epochs shrink to
/// the true lookahead so feedback lands (and records surface) within
/// one wireless hop of their causal time.
const EPOCH_FLOOR: SimDuration = SimDuration::from_millis(250);

/// Shard events an epoch must have processed before the next epoch's
/// shard phase is moved onto the phase worker. Handing the shards over
/// and back (waking the parked worker, then parking the caller at the
/// barrier) costs ~20 µs per epoch on a 2-vCPU x86 VM; sparse engines —
/// the testbed's 16 devices see a handful of events per 250 ms epoch —
/// would pay that for almost nothing to overlap (without this floor the
/// one-thread `fig_grid` sweep, `runner.wall_1thread_s` in hivebench,
/// ran 2.3 s → 4.1–4.9 s on that VM).
const OVERLAP_MIN_EVENTS: u64 = 64;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Platform configuration.
    pub platform: Platform,
    /// Number of edge devices.
    pub devices: u32,
    /// Number of backend servers.
    pub servers: u32,
    /// Cores per server.
    pub cores_per_server: u32,
    /// Root random seed.
    pub seed: u64,
    /// Injected function fault probability.
    pub fault_rate: f64,
    /// Enable intra-task parallelism (fan each task into k functions).
    pub intra_task: bool,
    /// Device class profile.
    pub device_profile: DeviceProfile,
    /// Scales every app's sensor payload (resolution sweeps); 1.0 =
    /// paper default.
    pub input_scale: f64,
    /// Overrides the IaaS fixed-pool size (Fig. 5b provisions for average
    /// vs worst-case load); `None` = the platform's equal-cost default.
    pub iaas_workers: Option<u32>,
    /// Collect a structured event trace of the run (task lifecycle spans,
    /// scheduler decisions, container starts, queue-depth timelines).
    /// Off by default: tracing draws no randomness and perturbs nothing,
    /// but buffering events costs memory on long runs.
    pub trace: bool,
    /// The fault-injection plan. The inert default perturbs nothing; an
    /// active plan arms the network fault pass, schedules server crashes,
    /// overrides the function failure process/retry policy, and stalls
    /// cluster admission across a controller failover window.
    pub faults: FaultPlan,
    /// The overload-control policy. The inert default perturbs nothing;
    /// an active policy bounds the cluster admission queue, arms per-app
    /// circuit breakers, spills shed work to degraded on-device
    /// execution, and bounds link-ingress queues — all without RNG.
    pub overload: OverloadPolicy,
    /// The disconnected-operation policy. The inert default perturbs
    /// nothing; an active policy — together with scheduled partition
    /// windows in [`EngineConfig::faults`] — lets a device whose cloud
    /// lease expired flip to degraded autonomous on-device execution
    /// (the brownout spillover path) and buffer update summaries in a
    /// bounded ring for exactly-once replay at reconnect.
    pub disconnect: DisconnectPolicy,
    /// Spatial shards the device-local event loop is split into. Each
    /// shard owns a contiguous device block (its FIFO queues, batteries,
    /// and per-device RNG lanes) and advances on its own core under
    /// conservative lookahead. `0` reads `HIVEMIND_SHARDS` (default 1);
    /// the count is clamped to the device count. Purely a parallelism
    /// knob: every output byte is identical for every value.
    pub shards: u32,
}

impl EngineConfig {
    /// Testbed defaults for `platform`: 16 drones, 12×40-core servers.
    pub fn testbed(platform: Platform) -> EngineConfig {
        EngineConfig {
            platform,
            devices: 16,
            servers: 12,
            cores_per_server: 40,
            seed: 1,
            fault_rate: 0.0,
            intra_task: false,
            device_profile: DeviceProfile::drone(),
            input_scale: 1.0,
            iaas_workers: None,
            trace: false,
            faults: FaultPlan::default(),
            overload: OverloadPolicy::default(),
            disconnect: DisconnectPolicy::default(),
            shards: 0,
        }
    }
}

/// Engine-level fault bookkeeping that no lower layer can see on its own:
/// whole tasks lost to give-up retry policies, device failures noted by
/// the mission layer, and controller failovers, plus the detection/recovery
/// latencies behind the paper's 3 s heartbeat window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultLedger {
    /// Tasks whose cloud invocation exhausted a give-up retry policy.
    pub tasks_lost: u64,
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

/// Completed-task record with the paper's latency decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Engine-assigned task id.
    pub task: u32,
    /// The benchmark app.
    pub app: App,
    /// Device that produced the sensor data.
    pub device: u32,
    /// Caller label (mission phase index, etc.).
    pub label: u32,
    /// Sensor capture time.
    pub capture: SimTime,
    /// Result availability time.
    pub done: SimTime,
    /// Where it executed.
    pub placement: PlacementSite,
    /// Wire + RPC-processing time (both directions).
    pub network: SimDuration,
    /// Management: control path, scheduling, queueing (cloud or device).
    pub management: SimDuration,
    /// Container instantiation.
    pub instantiation: SimDuration,
    /// Function data-plane I/O.
    pub data_io: SimDuration,
    /// Useful execution.
    pub exec: SimDuration,
    /// Whether the executing container was cold-started.
    pub cold_start: bool,
}

impl TaskRecord {
    /// End-to-end task latency.
    pub fn latency(&self) -> SimDuration {
        self.done - self.capture
    }
}

/// Hub-side actions (everything device-local lives in the shard phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    SubmitCloud {
        task: u32,
    },
    Response {
        task: u32,
        from_server: u32,
    },
    Finish {
        task: u32,
    },
    /// A scheduled partition healed: run the reconnect reconciliation
    /// session (replay every device's buffered updates exactly once).
    Reconnect,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagPurpose {
    Upload { task: u32 },
    Response { task: u32 },
    ResultUpload { task: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeJobKind {
    Exec,
    Filter,
    /// Degraded-model re-execution of a task whose cloud work was shed
    /// (brownout spillover).
    Spillover,
}

/// On-device job ids carry their task and kind arithmetically (kind in
/// the two low bits), so completions decode without a side table.
fn edge_job(task: u32, kind: EdgeJobKind) -> u64 {
    (task as u64) * 4
        + match kind {
            EdgeJobKind::Exec => 0,
            EdgeJobKind::Filter => 1,
            EdgeJobKind::Spillover => 2,
        }
}

fn decode_edge_job(job: u64) -> (u32, EdgeJobKind) {
    let kind = match job % 4 {
        0 => EdgeJobKind::Exec,
        2 => EdgeJobKind::Spillover,
        _ => EdgeJobKind::Filter,
    };
    ((job / 4) as u32, kind)
}

#[derive(Debug, Clone)]
struct TaskState {
    app: App,
    device: u32,
    label: u32,
    capture: SimTime,
    placement: PlacementSite,
    network: SimDuration,
    management: SimDuration,
    instantiation: SimDuration,
    data_io: SimDuration,
    exec: SimDuration,
    cold: bool,
    /// Outstanding cloud sub-invocations (intra-task parallelism).
    remaining: u32,
    /// Latest sub-completion time (the task finishes at the max).
    sub_done: SimTime,
    upload_bytes: u64,
    done: bool,
    /// A sub-invocation exhausted its retry budget; the task is lost and
    /// produces no [`TaskRecord`].
    failed: bool,
    /// A sub-invocation was shed by the overload plane; the task either
    /// spills over to the device or is abandoned.
    shed: bool,
}

/// A capture scheduled on a shard's [`CaptureRun`], which orders it by
/// `(at, task)`; task ids are unique, so the order is total.
#[derive(Debug, Clone, Copy)]
struct Capture {
    task: u32,
    device: u32,
    app: App,
    placement: PlacementSite,
}

/// Device-local context a FIFO job completion needs that the job id
/// cannot carry.
#[derive(Debug, Clone, Copy)]
enum EdgePending {
    Exec { bytes: u64, service: SimDuration },
    Filter { upload_bytes: u64 },
}

/// A boundary event a shard hands to the hub, applied at its
/// [`EffectKey`] instant in globally merged key order.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// Put `bytes` on the uplink toward a (hub-chosen) server, tagged as
    /// a task upload; carries the latency-breakdown contributions of the
    /// device-side leg that produced it.
    Uplink {
        task: u32,
        bytes: u64,
        network: SimDuration,
        management: SimDuration,
    },
    /// Like [`Effect::Uplink`] but for an edge-executed task's result
    /// (no cloud execution follows); `exec` is the on-device service
    /// time drawn at capture.
    ResultUplink {
        task: u32,
        bytes: u64,
        network: SimDuration,
        management: SimDuration,
        exec: SimDuration,
    },
    /// A spillover (degraded on-device) job finished; the result is
    /// already on the device, so the task completes with no uplink.
    FinishLocal { task: u32, queued: SimDuration },
    /// Queue-depth trace counter from the shard phase (the tracer is
    /// hub-owned, so shard-side emissions ride the effect stream and
    /// land in merge-key order).
    QueueDepth { depth: u64 },
}

/// One spatial shard: a contiguous device block with its own capture
/// run, FIFO wake index, and outbound effect batch.
///
/// Per-device hot state is struct-of-arrays: parallel vectors indexed by
/// the block offset `device - first_dev`, aligned with [`ShardMap`]'s
/// contiguous ranges, so the inner loop streams dense cache lines
/// instead of pointer-chasing one struct per device. The FIFO queues
/// (cold, pointer-heavy) live in their own array away from the battery /
/// RNG / sequence state the per-event path actually touches.
#[derive(Debug)]
struct Shard {
    first_dev: u32,
    /// Per-device FIFO compute queues, block-offset order.
    fifos: Vec<FifoServer>,
    /// Per-device batteries, one dense block.
    batteries: BatteryBlock,
    /// Per-device RNG lanes (`forge.indexed_stream("device", dev)`).
    rngs: Vec<SmallRng>,
    /// Per-device monotone effect counters — the `seq` leg of the
    /// shard-count-invariant `(time, device, seq)` merge key.
    eseqs: Vec<u64>,
    /// Scheduled captures in `(at, task)` order.
    captures: CaptureRun,
    /// Conservative wake index over this shard's FIFO queues (entries
    /// may be early, never late; equal keys are interchangeable).
    wake: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Lifetime push + pop count of `wake` (profiling breakdown).
    wake_ops: u64,
    /// Task → device-local context for in-flight FIFO jobs. Fixed-seed
    /// hashing: insert/remove churn must rehash at workload-determined
    /// instants or the steady-state allocation pin would be flaky.
    pending_jobs: hivemind_sim::hash::DetHashMap<u32, EdgePending>,
    /// RNG sampling calls made by this shard (profiling breakdown).
    rng_draws: u64,
    done_scratch: Vec<(SimTime, u64, SimDuration)>,
    /// Effects emitted this epoch, sorted by key at the barrier.
    out: Vec<(EffectKey, Effect)>,
    /// Latest device-local event time processed (feeds the engine clock:
    /// `now` tracks processed events, not epoch boundaries).
    cursor: SimTime,
    events: u64,
    /// Set while the shard runs ahead on the phase worker: its battery
    /// draws then go to `draws` (block offset, draw) and are applied at
    /// the barrier, after the hub's draws for the epoch it overlapped.
    away: bool,
    draws: Vec<(u32, Draw)>,
}

impl Shard {
    /// The earliest device-local instant at which anything happens.
    fn next_event(&self) -> Option<SimTime> {
        earliest(
            self.captures.peek().map(|(t, _)| t),
            self.wake.peek().map(|&Reverse((t, _))| t),
        )
    }

    /// Indexes device `device`'s FIFO head at `t`.
    fn push_wake(&mut self, t: SimTime, device: u32) {
        self.wake_ops += 1;
        self.wake.push(Reverse((t, device)));
    }

    /// Charges device `di`'s battery, or logs the draw while away.
    fn draw(&mut self, di: usize, draw: Draw) {
        if self.away {
            self.draws.push((di as u32, draw));
        } else {
            draw.apply(self.batteries.cell_mut(di));
        }
    }
}

/// One battery charge. Draws accumulate in floating point, so their
/// order is part of the output; see [`Shard::draw`] and `Engine::hub_draw`.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Radio(u64),
    Compute(SimDuration),
}

impl Draw {
    fn apply(self, battery: &mut Battery) {
        match self {
            Draw::Radio(bytes) => battery.draw_radio(bytes),
            Draw::Compute(d) => battery.draw_compute(d),
        }
    }
}

/// Per-phase cost breakdown of a run, for profiling harnesses
/// (`hivebench --trace 1`, `HIVEMIND_PROFILE=1`).
///
/// The operation counters (`queue_ops`, `rng_draws`, `merge_elems`,
/// `exchange_effects`) are exact and deterministic — they count the same
/// way on every machine and never feed back into scheduling. The
/// `*_ns` wall-clock timers are only accumulated while profiling is
/// enabled ([`Engine::enable_profiling`] or `HIVEMIND_PROFILE=1`) and
/// vary run to run.
///
/// On multi-core hosts the shard phase of the next epoch runs on a
/// phase worker while the hub runs (see the module docs), so `shard_ns`
/// and `hub_ns` overlap in time: their sum can exceed the run's wall
/// time, and the hub's share of the sum is no longer its share of it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Busy nanoseconds of the shard phase, on whichever thread it ran.
    pub shard_ns: u64,
    /// Wall nanoseconds inside the barrier merge/exchange.
    pub merge_ns: u64,
    /// Wall nanoseconds of the serial hub phase on the calling thread.
    pub hub_ns: u64,
    /// Pushes + pops across the hub action heap, each shard's capture
    /// run and each shard's wake heap (a capture's submission and its
    /// pop count one each).
    pub queue_ops: u64,
    /// Service/cost sampling calls drawn from RNG lanes (hub and shard).
    pub rng_draws: u64,
    /// Elements folded through the k-way exchange merge at barriers
    /// (zero when every barrier hits the buffer-swap fast path).
    pub merge_elems: u64,
    /// Effects handed across the shard → hub barrier.
    pub exchange_effects: u64,
    /// Barrier epochs that exchanged at least one effect.
    pub exchange_epochs: u64,
}

/// Read-only configuration the shard phase runs against (everything it
/// needs from [`EngineConfig`], plus the edge RPC profile). Fixed at
/// construction; the phase worker holds its own clone.
#[derive(Debug, Clone)]
struct ShardCtx {
    hybrid: bool,
    upload_fraction: f64,
    input_scale: f64,
    uplink_budget: f64,
    device_factor: f64,
    trace: bool,
    edge_rpc: RpcProfile,
}

/// The simulation engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    now: SimTime,
    fabric: Fabric,
    cluster: Option<Cluster>,
    pool: Option<FixedPool>,
    /// Spatial shards (contiguous device blocks with their hardware).
    shards: Vec<Shard>,
    map: ShardMap,
    /// Conservative cross-shard lookahead (the wireless hop).
    lookahead: SimDuration,
    /// Merged shard effects not yet applied, as one sorted run consumed
    /// through `pending_cursor` (effects may be future-dated past their
    /// epoch, e.g. `finish + send_cost`). Rebuilt once per barrier by
    /// folding the leftovers with the fresh per-shard batches.
    pending: Vec<(EffectKey, Effect)>,
    pending_cursor: usize,
    /// The merge target swapped with `pending` at each barrier; both
    /// buffers hold their high-water capacity, so the exchange is
    /// allocation-free in steady state.
    pending_scratch: Vec<(EffectKey, Effect)>,
    /// Hub actions keyed `(time, unique seq)`, so the action never
    /// decides the pop order.
    actions: BinaryHeap<Reverse<(SimTime, u64, Action)>>,
    /// Lifetime push + pop count of `actions` (profiling breakdown).
    action_ops: u64,
    seq: u64,
    tasks: Vec<TaskState>,
    /// Purpose of each in-flight transfer, indexed by its dense
    /// [`TransferId`](hivemind_net::fabric::TransferId) — a direct-mapped
    /// table instead of a hash map on the per-delivery path.
    tags: Vec<Option<TagPurpose>>,
    records: Vec<TaskRecord>,
    /// Reusable per-epoch buffers (the hot loop stays allocation-free).
    delivery_scratch: Vec<hivemind_net::fabric::Delivery>,
    completion_scratch: Vec<hivemind_faas::types::Completion>,
    /// Spillover jobs created by the hub phase, resubmitted to their
    /// device's FIFO at the epoch boundary (the one hub→device feedback
    /// edge; the boundary is shard-count-invariant, so the deferral is
    /// deterministic).
    spill_inbox: Vec<(SimTime, u32, u64, SimDuration)>,
    rng: SmallRng,
    next_server: u32,
    placements: HashMap<App, PlacementSite>,
    /// What the shard phase reads; `ctx.edge_rpc` is also the devices'
    /// receive side for the hub.
    ctx: ShardCtx,
    cloud_rpc: RpcProfile,
    /// The servers' FPGA boards, present on accelerated platforms. The
    /// model charges their reconfiguration costs at registration time and
    /// exposes the device for area/reconfiguration accounting.
    fpga: Option<FpgaFabric>,
    tracer: TraceHandle,
    ledger: FaultLedger,
    shed_ledger: ShedLedger,
    /// Armed when the disconnect policy is active *and* the fault plan
    /// schedules wireless partitions (there is nothing to survive
    /// otherwise). Never true under the inert defaults, so the plane
    /// cannot perturb a byte of any existing run.
    disconnect_armed: bool,
    /// Per-device bounded rings of update summaries awaiting replay
    /// (empty unless the disconnect plane is armed).
    rings: Vec<ReplayRing<u32>>,
    /// Per-device exactly-once replay sessions: lifetime watermarks, so
    /// dedup is session-scoped across repeated partitions.
    sessions: Vec<ReplaySession>,
    /// Heal instant (seconds) of the merged partition window each device
    /// is currently autonomous under (`None` = lease held).
    autonomy_heal: Vec<Option<f64>>,
    reconnect_ledger: ReconnectLedger,
    hub_events: u64,
    /// RNG sampling calls made by the hub (profiling breakdown).
    rng_draws: u64,
    /// Whether the per-phase wall-clock timers run (`HIVEMIND_PROFILE=1`
    /// or [`Engine::enable_profiling`]). Counters are always on.
    profile: bool,
    /// Accumulated phase timers and exchange counters.
    breakdown: PhaseBreakdown,
    /// Cores available to the shard phase (cached at construction).
    phase_budget: usize,
    /// Runs the next epoch's shard phase while the hub runs; spawned on
    /// the first overlapped epoch.
    worker: Option<PhaseWorker>,
    /// Hub battery draws made while the shards are on the worker.
    hub_draws: Vec<(u32, Draw)>,
    /// The shards' earliest event when they were handed to the worker,
    /// so `next_wakeup` — and with it the epoch grid — ignores how far
    /// they ran ahead.
    spec_next: Option<SimTime>,
    /// Shard events processed when the previous epoch's shard phase
    /// ended (the overlap floor compares against it).
    shard_events_mark: u64,
    /// Epochs whose hub ran alongside the next epoch's shard phase.
    overlapped_epochs: u64,
}

impl Engine {
    /// Builds an engine for `cfg`: constructs the topology, registers the
    /// benchmark suite on the cloud backend, and resolves per-app
    /// placements through the synthesis pass.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized configurations.
    pub fn new(cfg: EngineConfig) -> Engine {
        assert!(cfg.devices > 0 && cfg.servers > 0);
        assert!(cfg.input_scale > 0.0);
        if let Err(e) = cfg.faults.validate(cfg.devices, cfg.servers) {
            panic!("invalid fault plan: {e}");
        }
        if let Err(e) = cfg.overload.validate() {
            panic!("invalid overload policy: {e}");
        }
        if let Err(e) = cfg.disconnect.validate() {
            panic!("invalid disconnect policy: {e}");
        }
        let forge = RngForge::new(cfg.seed);
        let tracer = if cfg.trace {
            TraceHandle::enabled()
        } else {
            TraceHandle::disabled()
        };
        let mut topo_params = TopologyParams {
            devices: cfg.devices,
            servers: cfg.servers,
            ..TopologyParams::default()
        };
        // Bandwidth degradation is applied once at topology build time so
        // every wireless transfer slows uniformly; the hybrid uplink
        // budget below stays at the nominal rate (rate adaptation is
        // provisioned at design time — degradation is a fault the
        // application stack does not know about).
        if cfg.faults.net.bandwidth_factor != 1.0 {
            topo_params.wireless_bps *= cfg.faults.net.bandwidth_factor;
        }
        let topology = Topology::new(topo_params);
        let lookahead = topology.lookahead();
        let mut fabric = Fabric::new(topology);
        fabric.set_tracer(tracer.clone());
        if cfg.faults.net.per_transfer() {
            // The fault RNG lives on its own lane of the seed chain so
            // arming it never reshuffles the workload's randomness.
            fabric.set_faults(cfg.faults.net.clone(), forge.child("faults").stream("net"));
        }
        // Ingress backpressure needs no RNG lane at all: hold decisions
        // are pure functions of link occupancy at the offer instant.
        fabric.set_backpressure(cfg.overload.net);

        let mut cluster = cfg
            .platform
            .cluster_params(cfg.servers, cfg.cores_per_server, cfg.fault_rate)
            .map(|mut p| {
                if cfg.platform.is_hybrid() {
                    // Sec. 4.3: when a single scheduler would saturate,
                    // HiveMind shards the scheduler while keeping global
                    // visibility (shared-state cluster management).
                    p.scheduler_shards = cfg.devices.div_ceil(200).max(1);
                }
                // The per-user function-concurrency limit is raised for
                // large simulated swarms (providers allow this on request).
                p.max_concurrent = p.max_concurrent.max(cfg.devices * 2);
                if let Some(rate) = cfg.faults.functions.fault_rate {
                    p.fault_rate = rate;
                }
                p.retry = cfg.faults.functions.retry.clone();
                p.overload = cfg.overload.clone();
                let mut c = Cluster::new(p, forge.child("cluster"));
                c.set_tracer(tracer.clone());
                for crash in &cfg.faults.servers {
                    c.schedule_server_crash(
                        SimTime::ZERO + SimDuration::from_secs_f64(crash.at_secs),
                        crash.server,
                        SimDuration::from_secs_f64(crash.down_secs),
                    );
                }
                if let Some(at) = cfg.faults.devices.controller_failover_at_secs {
                    // The serverless control plane goes dark from the
                    // primary's death until the backup finishes taking
                    // over (3 s heartbeat detection + state re-sync).
                    let from = SimTime::ZERO + SimDuration::from_secs_f64(at);
                    let until = from
                        + faults::DETECTION_WINDOW
                        + SimDuration::from_secs_f64(cfg.faults.devices.controller_takeover_secs);
                    c.add_controller_outage(from, until);
                }
                c
            });
        let mut pool = if cfg.platform.uses_fixed_pool() {
            let mut params = cfg
                .platform
                .fixed_pool_params(cfg.servers * cfg.cores_per_server);
            if let Some(workers) = cfg.iaas_workers {
                params.workers = workers;
            }
            let mut p = FixedPool::new(params, forge.child("pool"));
            p.set_tracer(tracer.clone());
            Some(p)
        } else {
            None
        };

        // Register the suite (and intra-task split variants) on whichever
        // backend exists.
        for app in App::ALL {
            if let Some(c) = cluster.as_mut() {
                c.register_app(app.app_id(), scaled_profile(app, &cfg));
                if cfg.intra_task {
                    c.register_app(split_id(app), split_profile(app, &cfg));
                }
            }
            if let Some(p) = pool.as_mut() {
                p.register_app(app.app_id(), scaled_profile(app, &cfg));
            }
        }

        let placements = App::ALL
            .iter()
            .map(|&app| (app, synthesis::single_app_placement(app, cfg.platform)))
            .collect();

        // Accelerated platforms carry the FPGA fabric; buffer sizes are
        // "configured on a per-application basis, online, through partial
        // reconfiguration" (Sec. 4.5) — one soft reconfiguration per app.
        let fpga = if cfg.platform.network_accelerated() {
            let mut board = FpgaFabric::new(FpgaConfig::default());
            for app in App::ALL {
                let profile = app.cloud_profile();
                let _ = board.configure(SoftRegisters {
                    // Deeper queues for chatty small-payload apps, fewer
                    // larger buffers for bulk-frame apps.
                    queue_depth: if profile.input_bytes > 1_000_000 {
                        64
                    } else {
                        512
                    },
                    ..SoftRegisters::default()
                });
            }
            Some(board)
        } else {
            None
        };

        // The controller-failover window is known up front (the trace is
        // sorted at finish time, so future-timestamped instants are fine).
        let mut ledger = FaultLedger::default();
        if let Some(at) = cfg.faults.devices.controller_failover_at_secs {
            let detection = faults::DETECTION_WINDOW.as_secs_f64();
            let takeover = cfg.faults.devices.controller_takeover_secs;
            ledger.controller_failovers = 1;
            ledger.detection_secs_sum += detection;
            ledger.recovery_secs_sum += detection + takeover;
            ledger.recovery_events += 1;
            if tracer.is_enabled() {
                for (name, offset) in [
                    (faults::EV_INJECTED, 0.0),
                    (faults::EV_DETECTED, detection),
                    (faults::EV_RECOVERED, detection + takeover),
                ] {
                    tracer.instant(
                        faults::TRACE_CAT,
                        name,
                        0,
                        SimTime::ZERO + SimDuration::from_secs_f64(at + offset),
                        vec![("kind", ArgValue::Str("controller_failover".into()))],
                    );
                }
            }
        }

        let shard_count = if cfg.shards == 0 {
            shards_from_env()
        } else {
            cfg.shards
        };
        let map = ShardMap::new(cfg.devices, shard_count);
        let shards = (0..map.shards())
            .map(|s| {
                let range = map.range(s);
                let n = range.len();
                Shard {
                    first_dev: range.start,
                    fifos: (0..n)
                        .map(|_| FifoServer::new(cfg.device_profile.cores))
                        .collect(),
                    batteries: BatteryBlock::new(cfg.device_profile.battery, n),
                    // One RNG lane per device, keyed by the
                    // shard-count-invariant device id — re-sharding
                    // never reshuffles a single draw.
                    rngs: range
                        .map(|dev| forge.indexed_stream("device", dev as u64))
                        .collect(),
                    eseqs: vec![0; n],
                    captures: CaptureRun::new(),
                    wake: BinaryHeap::new(),
                    wake_ops: 0,
                    pending_jobs: hivemind_sim::hash::DetHashMap::default(),
                    rng_draws: 0,
                    done_scratch: Vec::new(),
                    out: Vec::new(),
                    cursor: SimTime::ZERO,
                    events: 0,
                    away: false,
                    draws: Vec::new(),
                }
            })
            .collect();

        let topo_params = hivemind_net::topology::TopologyParams {
            devices: cfg.devices,
            servers: cfg.servers,
            ..Default::default()
        };
        let devices_per_router = cfg.devices.div_ceil(topo_params.effective_routers()).max(1);
        // Per-task uplink byte budget for hybrid platforms (rate adaptation).
        let uplink_budget_bytes =
            0.7 * (topo_params.wireless_bps / 8.0) / devices_per_router as f64;
        let disconnect_armed = cfg.disconnect.is_active() && !cfg.faults.net.partitions.is_empty();
        let ctx = ShardCtx {
            hybrid: cfg.platform.is_hybrid(),
            upload_fraction: cfg.platform.upload_fraction(),
            input_scale: cfg.input_scale,
            uplink_budget: uplink_budget_bytes,
            device_factor: cfg.device_profile.compute_slowdown / 10.0,
            trace: tracer.is_enabled(),
            edge_rpc: RpcProfile::edge_software(),
        };
        let mut engine = Engine {
            shards,
            map,
            lookahead,
            pending: Vec::new(),
            pending_cursor: 0,
            pending_scratch: Vec::new(),
            fabric,
            cluster,
            pool,
            now: SimTime::ZERO,
            actions: BinaryHeap::new(),
            action_ops: 0,
            seq: 0,
            tasks: Vec::new(),
            tags: Vec::new(),
            records: Vec::new(),
            delivery_scratch: Vec::new(),
            completion_scratch: Vec::new(),
            spill_inbox: Vec::new(),
            rng: forge.stream("engine"),
            next_server: 0,
            placements,
            ctx,
            cloud_rpc: cfg.platform.cloud_rpc_profile(),
            fpga,
            tracer,
            ledger,
            shed_ledger: ShedLedger::default(),
            disconnect_armed,
            rings: if disconnect_armed {
                (0..cfg.devices)
                    .map(|_| ReplayRing::new(cfg.disconnect.buffer_cap))
                    .collect()
            } else {
                Vec::new()
            },
            sessions: if disconnect_armed {
                vec![ReplaySession::new(); cfg.devices as usize]
            } else {
                Vec::new()
            },
            autonomy_heal: if disconnect_armed {
                vec![None; cfg.devices as usize]
            } else {
                Vec::new()
            },
            reconnect_ledger: ReconnectLedger::default(),
            hub_events: 0,
            rng_draws: 0,
            profile: std::env::var_os("HIVEMIND_PROFILE").is_some_and(|v| v != "0"),
            breakdown: PhaseBreakdown::default(),
            phase_budget: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            worker: None,
            hub_draws: Vec::new(),
            spec_next: None,
            shard_events_mark: 0,
            overlapped_epochs: 0,
            cfg,
        };
        if engine.disconnect_armed {
            // One reconciliation session per distinct heal instant.
            // Chained windows fold to their final heal, so a partition
            // that "heals" straight into the next window reconciles once,
            // at the true end — exactly when the fabric releases its held
            // transfers.
            for h in engine.cfg.faults.net.heal_instants() {
                engine.push_action(
                    SimTime::ZERO + SimDuration::from_secs_f64(h),
                    Action::Reconnect,
                );
            }
        }
        engine
    }

    /// The engine's tracing handle (disabled unless
    /// [`EngineConfig::trace`] was set).
    pub fn tracer(&self) -> &TraceHandle {
        &self.tracer
    }

    /// Drains the collected trace, or `None` when tracing is disabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.tracer.finish()
    }

    /// The acceleration fabric, when this platform carries one.
    pub fn fpga(&self) -> Option<&FpgaFabric> {
        self.fpga.as_ref()
    }

    /// Whether this platform has any cloud execution backend (serverless
    /// cluster or reserved pool) to place tasks on.
    pub fn has_cloud_backend(&self) -> bool {
        self.cluster.is_some() || self.pool.is_some()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of spatial shards the device plane is split into.
    pub fn shard_count(&self) -> u32 {
        self.map.shards()
    }

    /// The conservative cross-shard lookahead (the wireless hop).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The resolved device→shard partition, for components that want to
    /// align their own spatial bookkeeping with the engine's (e.g. the
    /// swarm controller's per-shard region view).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Total simulation events processed so far (shard-phase actions and
    /// FIFO completions plus hub-phase actions, effects, deliveries, and
    /// cloud completions). A throughput denominator for benchmarks.
    pub fn events_processed(&self) -> u64 {
        self.hub_events + self.shards.iter().map(|s| s.events).sum::<u64>()
    }

    /// Turns on the per-phase wall-clock timers (equivalent to running
    /// with `HIVEMIND_PROFILE=1`). The operation counters in
    /// [`PhaseBreakdown`] accumulate regardless.
    pub fn enable_profiling(&mut self) {
        self.profile = true;
    }

    /// The per-phase cost breakdown accumulated so far. Timers are zero
    /// unless profiling is enabled; counters are always exact.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let mut b = self.breakdown;
        b.queue_ops = self.action_ops
            + self
                .shards
                .iter()
                .map(|s| s.captures.ops() + s.wake_ops)
                .sum::<u64>();
        b.rng_draws = self.rng_draws + self.shards.iter().map(|s| s.rng_draws).sum::<u64>();
        b
    }

    /// The resolved placement for an app on this platform.
    pub fn placement_of(&self, app: App) -> PlacementSite {
        self.placements[&app]
    }

    /// Overrides the placement of one app (missions pin obstacle
    /// avoidance to the edge on every platform).
    pub fn pin_placement(&mut self, app: App, site: PlacementSite) {
        self.placements.insert(app, site);
    }

    /// Injects a task: device `device` captured a frame batch for `app`
    /// at time `at` (which must not precede the current engine time).
    /// Returns the task id.
    ///
    /// Cost: a capture later than every one queued on its device's shard
    /// appends in O(1). Any other waits unsorted until that shard's next
    /// shard phase, which sorts the waiting captures and merges them into
    /// the queued ones: O(k log k) for k of them, plus O(queued) when
    /// they start before the last queued capture. Submitting a whole
    /// schedule up front, in any order, is therefore one sort per shard;
    /// submitting stragglers one at a time into a large backlog pays a
    /// linear merge per shard phase.
    pub fn submit_task(&mut self, at: SimTime, device: u32, app: App, label: u32) -> u32 {
        assert!(at >= self.now, "cannot submit into the past");
        assert!(device < self.cfg.devices, "device out of range");
        let placement = self.placements[&app];
        let id = self.tasks.len() as u32;
        self.tasks.push(TaskState {
            app,
            device,
            label,
            capture: at,
            placement,
            network: SimDuration::ZERO,
            management: SimDuration::ZERO,
            instantiation: SimDuration::ZERO,
            data_io: SimDuration::ZERO,
            exec: SimDuration::ZERO,
            cold: false,
            remaining: 0,
            sub_done: at,
            upload_bytes: 0,
            done: false,
            failed: false,
            shed: false,
        });
        if self.tracer.is_enabled() {
            self.tracer.instant(
                "task",
                "submit",
                device,
                at,
                vec![
                    ("task", ArgValue::U64(id as u64)),
                    ("app", ArgValue::Str(format!("{app:?}"))),
                    ("device", ArgValue::U64(device as u64)),
                ],
            );
        }
        let sh = &mut self.shards[self.map.shard_of(device) as usize];
        sh.captures.push(
            at,
            Capture {
                task: id,
                device,
                app,
                placement,
            },
        );
        id
    }

    fn push_action(&mut self, at: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.action_ops += 1;
        self.actions.push(Reverse((at, seq, action)));
    }

    /// Records the purpose of transfer `id` (ids are dense, so the table
    /// grows at most once per new transfer).
    fn set_tag(&mut self, id: u64, purpose: TagPurpose) {
        let i = id as usize;
        if self.tags.len() <= i {
            // Grow to a power of two so the table reallocates O(log n)
            // times over a run, not once per new transfer id.
            self.tags.resize((i + 1).next_power_of_two(), None);
        }
        self.tags[i] = Some(purpose);
    }

    /// Resolves a device id to its `(shard index, block offset)` pair.
    #[inline]
    fn locate(&self, device: u32) -> (usize, usize) {
        let s = self.map.shard_of(device) as usize;
        (s, (device - self.shards[s].first_dev) as usize)
    }

    /// The earliest instant at which anything will happen.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        [
            self.spec_next,
            self.pending.get(self.pending_cursor).map(|&(k, _)| k.at),
            self.fabric.next_wakeup(),
            self.cluster.as_ref().and_then(|c| c.next_wakeup()),
            self.pool.as_ref().and_then(|p| p.next_wakeup()),
        ]
        .into_iter()
        .chain(self.shards.iter().map(Shard::next_event))
        .fold(self.actions.peek().map(|&Reverse((t, ..))| t), earliest)
    }

    /// Runs until quiescent or `deadline`, returning completed records
    /// accumulated since the last call.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<TaskRecord> {
        self.advance_until(deadline);
        std::mem::take(&mut self.records)
    }

    /// Like [`Engine::run_until`], but appends the completed records into
    /// `out` instead of returning a fresh vector. Both `out` and the
    /// internal record buffer keep their capacity, so a warmed-up caller
    /// polling epoch after epoch never touches the allocator.
    pub fn run_until_into(&mut self, deadline: SimTime, out: &mut Vec<TaskRecord>) {
        self.advance_until(deadline);
        out.append(&mut self.records);
    }

    fn advance_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.next_wakeup() {
            if t > deadline {
                break;
            }
            debug_assert!(t >= self.now, "engine time went backwards");
            self.run_epoch(t, deadline, false);
        }
        if deadline > self.now && deadline < SimTime::MAX {
            self.now = deadline;
        }
    }

    /// Runs until every injected task has completed.
    pub fn run_to_completion(&mut self) -> Vec<TaskRecord> {
        self.run_until(SimTime::MAX)
    }

    /// Runs until at least one task completes (or the engine quiesces),
    /// returning the records produced. Used by missions whose next step
    /// depends on a result — e.g. a car waiting for an instruction panel
    /// to be OCR'd before it can move. Epochs shrink to the true
    /// lookahead here, so the caller resumes within one wireless hop of
    /// the completion.
    pub fn run_until_record(&mut self) -> Vec<TaskRecord> {
        while self.records.is_empty() {
            let Some(t) = self.next_wakeup() else {
                break;
            };
            self.run_epoch(t, SimTime::MAX, true);
        }
        std::mem::take(&mut self.records)
    }

    /// Advances one barrier epoch `[start, end]` where
    /// `end = min(start + horizon, deadline)`: the parallel shard phase,
    /// the order-stable effect merge, the serial hub phase, and the
    /// spillover drain. The epoch grid is a pure function of the
    /// configuration and the (shard-count-invariant) event stream, so
    /// sharding never moves the boundaries.
    ///
    /// When the epoch qualifies (see [`Engine::start_overlap`]) the
    /// shards run the next epoch's shard phase, up to one horizon past
    /// `end`, on the phase worker while this thread runs the hub; that
    /// epoch's own shard phase then runs only what is left.
    fn run_epoch(&mut self, start: SimTime, deadline: SimTime, stop_on_record: bool) {
        // Spillover and autonomous degraded execution both feed hub
        // decisions back into device FIFOs through `spill_inbox`; epochs
        // shrink to the true lookahead so the feedback lands within one
        // wireless hop of its causal time, and the shards may not run
        // ahead of it.
        let feedback =
            stop_on_record || self.cfg.overload.spillover.enabled || self.disconnect_armed;
        let horizon = if feedback {
            self.lookahead
        } else {
            self.lookahead.max(EPOCH_FLOOR)
        };
        let end = start.saturating_add(horizon).min(deadline);
        let mut lap = Lap::start(self.profile);
        self.spec_next = None;
        self.run_shard_phase(end);
        self.breakdown.shard_ns += lap.split();
        self.collect_effects();
        self.breakdown.merge_ns += lap.split();
        // The clock tracks the latest *processed* event, not the epoch
        // boundary: the boundary is only a processing bound, so leaving
        // `now` at the last event keeps post-run submissions (mission
        // barriers at the last record's time) legal, exactly as in the
        // unsharded engine. Read before the shards run ahead.
        let shard_latest = self
            .shards
            .iter()
            .map(|s| s.cursor)
            .fold(self.now, SimTime::max);
        let overlapped = !feedback && self.start_overlap(end.saturating_add(horizon).min(deadline));
        lap.split();
        self.run_hub_phase(end);
        self.breakdown.hub_ns += lap.split();
        if overlapped {
            self.finish_overlap();
        }
        self.drain_spillover(end);
        self.now = self.now.max(shard_latest);
    }

    /// Hands the shards to the phase worker to run ahead to `spec_end`
    /// while this thread runs the hub up to the current epoch's end.
    /// That is safe because the next epoch starts after this one's end,
    /// so `spec_end` never passes the next epoch's end, and the hub sends
    /// nothing to the shards but battery draws (logged, see
    /// [`Engine::hub_draw`]). Overlaps only when there is a core to spare
    /// and the epoch just finished had enough shard work to pay for the
    /// handoff ([`OVERLAP_MIN_EVENTS`]); returns whether it did.
    fn start_overlap(&mut self, spec_end: SimTime) -> bool {
        let events: u64 = self.shards.iter().map(|s| s.events).sum();
        let epoch_events = events - std::mem::replace(&mut self.shard_events_mark, events);
        let budget = self.phase_budget / crate::runner::outer_workers();
        if budget < 2 || epoch_events < OVERLAP_MIN_EVENTS {
            return false;
        }
        let next = self
            .shards
            .iter()
            .map(Shard::next_event)
            .fold(None, earliest);
        if next.is_none_or(|t| t > spec_end) {
            return false;
        }
        self.spec_next = next;
        let mut shards = std::mem::take(&mut self.shards);
        for sh in &mut shards {
            sh.away = true;
        }
        let ctx = &self.ctx;
        self.worker
            .get_or_insert_with(|| PhaseWorker::spawn(ctx.clone()))
            .start(shards, spec_end, budget - 1, self.profile);
        self.overlapped_epochs += 1;
        true
    }

    /// The barrier of an overlapped epoch: takes the shards back and
    /// applies the hub's logged battery draws, then the shards' — the
    /// order the serial engine charges them in (this epoch's hub before
    /// the next epoch's shard phase).
    fn finish_overlap(&mut self) {
        let (shards, busy_ns) = self.worker.as_mut().expect("worker started").finish();
        self.shards = shards;
        self.breakdown.shard_ns += busy_ns;
        for (device, draw) in self.hub_draws.drain(..) {
            let sh = &mut self.shards[self.map.shard_of(device) as usize];
            draw.apply(sh.batteries.cell_mut((device - sh.first_dev) as usize));
        }
        for sh in &mut self.shards {
            sh.away = false;
            for (di, draw) in sh.draws.drain(..) {
                draw.apply(sh.batteries.cell_mut(di as usize));
            }
        }
    }

    /// Charges a battery draw from the hub: in place, or into the hub
    /// log while the shards are on the phase worker.
    fn hub_draw(&mut self, device: u32, draw: Draw) {
        if self.shards.is_empty() {
            self.hub_draws.push((device, draw));
        } else {
            draw.apply(self.battery_mut(device));
        }
    }

    /// Phase A: every shard with work in the window advances
    /// independently (in parallel when cores and shards allow).
    fn run_shard_phase(&mut self, upto: SimTime) {
        let threads = self.phase_budget / crate::runner::outer_workers();
        advance_shards(&mut self.shards, &self.ctx, upto, threads);
    }

    /// Barrier: the batched cross-shard exchange. Every shard's (sorted)
    /// effect batch and the previous epoch's not-yet-due leftovers fold
    /// through one k-way merge into the next pending run — a single
    /// buffer swap per epoch instead of a per-event heap handoff. The
    /// result is the same unique `(time, device, seq)` order a global
    /// heap would produce, independent of the shard count.
    fn collect_effects(&mut self) {
        if self.shards.len() == 1 {
            let sh = &mut self.shards[0];
            if sh.out.is_empty() {
                return;
            }
            self.breakdown.exchange_epochs += 1;
            self.breakdown.exchange_effects += sh.out.len() as u64;
            if self.pending_cursor == self.pending.len() {
                // No leftovers: the fresh batch *is* the next pending
                // run; swap buffers and reuse the old one for emission.
                std::mem::swap(&mut self.pending, &mut sh.out);
            } else {
                self.pending_scratch.clear();
                merge_keyed_into(
                    &[&self.pending[self.pending_cursor..], &sh.out],
                    &mut self.pending_scratch,
                );
                std::mem::swap(&mut self.pending, &mut self.pending_scratch);
                self.breakdown.merge_elems += self.pending.len() as u64;
            }
            sh.out.clear();
            self.pending_cursor = 0;
            return;
        }
        let leftover = self.pending_cursor < self.pending.len();
        if !leftover && self.shards.iter().all(|s| s.out.is_empty()) {
            return;
        }
        self.breakdown.exchange_epochs += 1;
        self.breakdown.exchange_effects +=
            self.shards.iter().map(|s| s.out.len() as u64).sum::<u64>();
        self.pending_scratch.clear();
        {
            let mut runs: Vec<&[(EffectKey, Effect)]> = Vec::with_capacity(self.shards.len() + 1);
            runs.push(&self.pending[self.pending_cursor..]);
            for sh in &self.shards {
                runs.push(&sh.out);
            }
            merge_keyed_into(&runs, &mut self.pending_scratch);
        }
        std::mem::swap(&mut self.pending, &mut self.pending_scratch);
        self.breakdown.merge_elems += self.pending.len() as u64;
        self.pending_cursor = 0;
        for sh in &mut self.shards {
            sh.out.clear();
        }
    }

    /// Phase B: the serial hub loop — due effects, hub actions, network
    /// deliveries, and cloud completions, interleaved in global time
    /// order up to the epoch boundary.
    ///
    /// Before each step the fabric, then the cluster, run ahead through
    /// their internal events (intermediate hops, held-transfer releases,
    /// admission and data-plane stages). Each runs only strictly before
    /// the earliest instant any hub input can reach it — the next effect,
    /// action, pool completion, event of the other component, or the
    /// epoch boundary — and stops at its first hub-visible output, so
    /// same-instant ties keep the order effects, actions, deliveries,
    /// completions.
    fn run_hub_phase(&mut self, end: SimTime) {
        loop {
            let inputs = earliest(
                earliest(
                    self.pending.get(self.pending_cursor).map(|&(k, _)| k.at),
                    self.actions.peek().map(|&Reverse((t, ..))| t),
                ),
                self.pool.as_ref().and_then(|p| p.next_wakeup()),
            );
            let bound =
                |other: Option<SimTime>| earliest(inputs, other).map_or(end, |t| t.min(end));
            let cluster_next = self.cluster.as_ref().and_then(|c| c.next_wakeup());
            self.fabric.run_ahead(bound(cluster_next));
            let fabric_next = self.fabric.next_wakeup();
            if let Some(c) = self.cluster.as_mut() {
                c.run_ahead(bound(fabric_next));
            }
            let cluster_next = self.cluster.as_ref().and_then(|c| c.next_wakeup());
            let Some(t) = earliest(inputs, earliest(fabric_next, cluster_next)) else {
                break;
            };
            if t > end {
                break;
            }
            if t > self.now {
                self.now = t;
            }
            // 1. Due effects: a cursor walk over the sorted pending run,
            //    already in merge-key order.
            while let Some(&(key, effect)) = self.pending.get(self.pending_cursor) {
                if key.at > t {
                    break;
                }
                self.pending_cursor += 1;
                self.hub_events += 1;
                self.apply_effect(key, effect);
            }
            // 2. Hub actions due now.
            while self
                .actions
                .peek()
                .is_some_and(|&Reverse((at, ..))| at <= t)
            {
                let Reverse((at, _, action)) = self.actions.pop().expect("peeked");
                self.action_ops += 1;
                self.hub_events += 1;
                self.handle_action(at, action);
            }
            // 3. Network deliveries (through the reusable scratch buffer —
            //    the hot path allocates nothing in steady state).
            let mut deliveries = std::mem::take(&mut self.delivery_scratch);
            self.fabric.advance_into(t, &mut deliveries);
            for d in deliveries.drain(..) {
                self.hub_events += 1;
                self.handle_delivery(d);
            }
            self.delivery_scratch = deliveries;
            // 4. Cloud completions (cluster first, then pool — platforms
            //    carry at most one, but the order is part of the contract).
            let mut completions = std::mem::take(&mut self.completion_scratch);
            if let Some(cluster) = self.cluster.as_mut() {
                cluster.advance_into(t, &mut completions);
            }
            if let Some(pool) = self.pool.as_mut() {
                pool.advance_into(t, &mut completions);
            }
            for c in completions.drain(..) {
                self.hub_events += 1;
                self.handle_cloud_completion(
                    c.finished,
                    c.tag,
                    c.server,
                    c.breakdown,
                    c.cold_start,
                    c.outcome,
                );
            }
            self.completion_scratch = completions;
        }
    }

    /// Resubmits hub-phase spillover jobs to their device FIFOs at the
    /// epoch boundary, in hub (time) order.
    fn drain_spillover(&mut self, end: SimTime) {
        if self.spill_inbox.is_empty() {
            return;
        }
        let inbox = std::mem::take(&mut self.spill_inbox);
        for (orig, device, job, service) in inbox {
            let at = orig.max(end);
            self.hub_edge_submit(at, device, job, service);
        }
    }

    /// Shard-aware FIFO submission from the (serial) hub side.
    fn hub_edge_submit(&mut self, now: SimTime, device: u32, job: u64, service: SimDuration) {
        let sh = &mut self.shards[self.map.shard_of(device) as usize];
        let di = (device - sh.first_dev) as usize;
        let fifo = &mut sh.fifos[di];
        let prev = fifo.next_wakeup();
        fifo.submit(now, job, service);
        let new = fifo.next_wakeup();
        // Index only head changes — one live entry per device, not one
        // per job (which would go quadratic on overloaded devices).
        if new != prev {
            if let Some(t) = new {
                sh.push_wake(t, device);
            }
        }
        if self.tracer.is_enabled() {
            let depth = sh.fifos[di].load() as f64;
            self.tracer.counter("edge", "queue", device, now, depth);
        }
    }

    /// Applies one merged shard effect at its key instant.
    fn apply_effect(&mut self, key: EffectKey, effect: Effect) {
        let at = key.at;
        let device = key.lane;
        match effect {
            Effect::Uplink {
                task,
                bytes,
                network,
                management,
            } => {
                {
                    let st = &mut self.tasks[task as usize];
                    st.upload_bytes = bytes;
                    st.network += network;
                    st.management += management;
                }
                if let Some(heal) = self.autonomous_at(at) {
                    // The device's cloud lease expired mid-partition:
                    // degrade to autonomous on-device execution instead
                    // of holding the uplink for the rest of the window.
                    self.degrade_task(at, device, task, heal);
                    return;
                }
                self.hub_draw(device, Draw::Radio(bytes));
                let server = self.pick_server();
                let tag = self.fabric.send(
                    at,
                    Transfer {
                        src: Node::Device(device),
                        dst: Node::Server(server),
                        bytes,
                        tag: task as u64,
                    },
                );
                self.set_tag(tag.0, TagPurpose::Upload { task });
            }
            Effect::ResultUplink {
                task,
                bytes,
                network,
                management,
                exec,
            } => {
                {
                    let st = &mut self.tasks[task as usize];
                    st.network += network;
                    st.management += management;
                    st.exec = exec;
                }
                if let Some(heal) = self.autonomous_at(at) {
                    // The result is already computed at full fidelity on
                    // the device; finish locally and queue a summary for
                    // replay at heal instead of holding the upload.
                    self.note_autonomous(at, device, heal);
                    self.buffer_update(at, device, task);
                    self.finish_task(at, task);
                    return;
                }
                let server = self.pick_server();
                let tag = self.fabric.send(
                    at,
                    Transfer {
                        src: Node::Device(device),
                        dst: Node::Server(server),
                        bytes,
                        tag: task as u64,
                    },
                );
                self.set_tag(tag.0, TagPurpose::ResultUpload { task });
            }
            Effect::FinishLocal { task, queued } => {
                self.tasks[task as usize].management += queued;
                self.finish_task(at, task);
            }
            Effect::QueueDepth { depth } => {
                self.tracer
                    .counter("edge", "queue", device, at, depth as f64);
            }
        }
    }

    fn handle_action(&mut self, t: SimTime, action: Action) {
        match action {
            Action::SubmitCloud { task } => {
                let st = &self.tasks[task as usize];
                let app = st.app;
                let k = if self.cfg.intra_task {
                    app.intra_parallelism()
                } else {
                    1
                };
                self.tasks[task as usize].remaining = k;
                let app_id = if k > 1 { split_id(app) } else { app.app_id() };
                for i in 0..k {
                    let tag = (task as u64) * 16 + i as u64;
                    let inv = Invocation::root(app_id, tag);
                    if let Some(c) = self.cluster.as_mut() {
                        c.submit(t, inv);
                    } else if let Some(p) = self.pool.as_mut() {
                        p.submit(t, inv);
                    } else {
                        unreachable!("cloud placement requires a backend");
                    }
                }
            }
            Action::Response { task, from_server } => {
                let st = &self.tasks[task as usize];
                let bytes = st.app.cloud_profile().output_bytes;
                let device = st.device;
                let tag = self.fabric.send(
                    t,
                    Transfer {
                        src: Node::Server(from_server),
                        dst: Node::Device(device),
                        bytes,
                        tag: task as u64,
                    },
                );
                self.set_tag(tag.0, TagPurpose::Response { task });
            }
            Action::Finish { task } => self.finish_task(t, task),
            Action::Reconnect => self.reconcile_reconnect(t),
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
    fn autonomous_at(&self, at: SimTime) -> Option<f64> {
        if !self.disconnect_armed {
            return None;
        }
        let t = (at - SimTime::ZERO).as_secs_f64();
        let heal = self.cfg.faults.net.partition_until(t)?;
        let lease = self.cfg.disconnect.lease_timeout.as_secs_f64();
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
    fn note_autonomous(&mut self, at: SimTime, device: u32, heal: f64) {
        let slot = &mut self.autonomy_heal[device as usize];
        if *slot != Some(heal) {
            *slot = Some(heal);
            self.reconnect_ledger.lease_expirations += 1;
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
    }

    /// Buffers one update summary for `task` in `device`'s replay ring.
    fn buffer_update(&mut self, at: SimTime, device: u32, task: u32) {
        let seq = self.rings[device as usize].push(at, task);
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

    /// Re-routes a cloud-bound task to degraded autonomous on-device
    /// execution — the brownout spillover path with the disconnect
    /// policy's speedup/penalty — and buffers its update summary.
    fn degrade_task(&mut self, at: SimTime, device: u32, task: u32, heal: f64) {
        self.note_autonomous(at, device, heal);
        let app = self.tasks[task as usize].app;
        let policy = self.cfg.disconnect;
        let factor = self.cfg.device_profile.compute_slowdown / 10.0;
        self.rng_draws += 1;
        let service =
            edge_service_from(&mut self.rng, app, factor).mul_f64(1.0 / policy.degraded_speedup);
        {
            let st = &mut self.tasks[task as usize];
            st.placement = PlacementSite::Edge;
            st.exec = st.exec.max(service);
        }
        self.hub_draw(device, Draw::Compute(service));
        self.reconnect_ledger.tasks_degraded += 1;
        self.reconnect_ledger.accuracy_penalty_sum_pct += policy.accuracy_penalty_pct;
        self.buffer_update(at, device, task);
        if self.tracer.is_enabled() {
            self.tracer.instant(
                "task",
                "degraded",
                device,
                at,
                vec![("task", ArgValue::U64(task as u64))],
            );
        }
        // The device FIFO belongs to the shard phase; like overload
        // spillover, the job is resubmitted at the (shard-count-
        // invariant) epoch boundary.
        self.spill_inbox
            .push((at, device, edge_job(task, EdgeJobKind::Spillover), service));
    }

    /// The heal-time reconciliation session: every device drains its
    /// replay ring through its lifetime [`ReplaySession`] watermark in
    /// device-id order (deterministic and shard-count-invariant). Each
    /// accepted summary costs one radio transmission and rides the
    /// fabric untagged — bandwidth and energy are charged, but no
    /// response path follows. Duplicate offers are suppressed, so every
    /// buffered update lands exactly once across repeated partitions.
    fn reconcile_reconnect(&mut self, t: SimTime) {
        self.reconnect_ledger.partitions += 1;
        if self.tracer.is_enabled() {
            self.tracer.instant(
                disconnect::TRACE_CAT,
                disconnect::EV_RECONNECT,
                0,
                t,
                vec![(
                    "partitions",
                    ArgValue::U64(self.reconnect_ledger.partitions as u64),
                )],
            );
        }
        let summary_bytes = self.cfg.disconnect.summary_bytes;
        for device in 0..self.cfg.devices {
            self.autonomy_heal[device as usize] = None;
            if self.rings[device as usize].is_empty() {
                continue;
            }
            let updates: Vec<_> = self.rings[device as usize].drain().collect();
            for u in updates {
                if !self.sessions[device as usize].offer(u.seq) {
                    continue;
                }
                self.reconnect_ledger.staleness_secs_sum += (t - u.at).as_secs_f64();
                self.hub_draw(device, Draw::Radio(summary_bytes));
                let server = self.pick_server();
                let _ = self.fabric.send(
                    t,
                    Transfer {
                        src: Node::Device(device),
                        dst: Node::Server(server),
                        bytes: summary_bytes,
                        tag: u.seq,
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
    }

    fn pick_server(&mut self) -> u32 {
        let s = self.next_server % self.cfg.servers;
        self.next_server += 1;
        s
    }

    fn handle_delivery(&mut self, d: hivemind_net::fabric::Delivery) {
        let Some(purpose) = self.tags.get_mut(d.id.0 as usize).and_then(Option::take) else {
            return;
        };
        match purpose {
            TagPurpose::Upload { task } => {
                self.tasks[task as usize].network += d.latency();
                self.rng_draws += 1;
                let recv = self.cloud_rpc.recv_cost(&mut self.rng, d.bytes);
                self.tasks[task as usize].network += recv;
                self.push_action(d.delivered_at + recv, Action::SubmitCloud { task });
            }
            TagPurpose::Response { task } => {
                let device = {
                    let st = &mut self.tasks[task as usize];
                    st.network += d.latency();
                    st.device
                };
                self.rng_draws += 1;
                let recv = self.ctx.edge_rpc.recv_overhead.sample(&mut self.rng);
                self.tasks[task as usize].network += recv;
                self.hub_draw(device, Draw::Radio(d.bytes));
                self.push_action(d.delivered_at + recv, Action::Finish { task });
            }
            TagPurpose::ResultUpload { task } => {
                self.tasks[task as usize].network += d.latency();
                self.rng_draws += 1;
                let recv = self.cloud_rpc.recv_cost(&mut self.rng, d.bytes);
                self.tasks[task as usize].network += recv;
                self.push_action(d.delivered_at + recv, Action::Finish { task });
            }
        }
    }

    fn handle_cloud_completion(
        &mut self,
        finished: SimTime,
        tag: u64,
        server: u32,
        breakdown: hivemind_faas::types::LatencyBreakdown,
        cold: bool,
        outcome: hivemind_faas::types::Outcome,
    ) {
        let task = (tag / 16) as u32;
        let (output_bytes, sub_done, device, lost, shed, app) = {
            let st = &mut self.tasks[task as usize];
            // Aggregate sub-invocation contributions; the slowest defines
            // the completion time, the cost components take the max (they
            // overlap in wall-clock time), management accumulates.
            st.management += breakdown.queueing + breakdown.management;
            st.instantiation = st.instantiation.max(breakdown.instantiation);
            st.data_io = st.data_io.max(breakdown.data_io);
            st.exec = st.exec.max(breakdown.exec);
            st.cold |= cold;
            st.sub_done = st.sub_done.max(finished);
            if matches!(outcome, hivemind_faas::types::Outcome::Failed { .. }) {
                st.failed = true;
            }
            if matches!(outcome, hivemind_faas::types::Outcome::Shed { .. }) {
                st.shed = true;
            }
            st.remaining -= 1;
            if st.remaining != 0 {
                return;
            }
            if st.failed {
                // The retry policy gave up on (at least) one sub-invocation:
                // the task is lost — no response, no record.
                st.done = true;
            }
            (
                st.app.cloud_profile().output_bytes,
                st.sub_done,
                st.device,
                st.failed,
                st.shed,
                st.app,
            )
        };
        if lost {
            self.ledger.tasks_lost += 1;
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    "task",
                    "lost",
                    device,
                    sub_done,
                    vec![("task", ArgValue::U64(task as u64))],
                );
            }
            return;
        }
        if shed {
            // The overload plane refused (at least) one sub-invocation.
            // Brownout spillover re-routes the whole task to a degraded
            // on-device model; without spillover the task is shed outright.
            let spill = self.cfg.overload.spillover;
            if spill.enabled {
                let factor = self.cfg.device_profile.compute_slowdown / 10.0;
                self.rng_draws += 1;
                let service = edge_service_from(&mut self.rng, app, factor)
                    .mul_f64(1.0 / spill.degraded_speedup);
                {
                    let st = &mut self.tasks[task as usize];
                    st.placement = PlacementSite::Edge;
                    st.exec = st.exec.max(service);
                }
                self.hub_draw(device, Draw::Compute(service));
                self.shed_ledger.tasks_spilled += 1;
                self.shed_ledger.accuracy_penalty_sum_pct += spill.accuracy_penalty_pct;
                if self.tracer.is_enabled() {
                    self.tracer.instant(
                        "task",
                        "spillover",
                        device,
                        sub_done,
                        vec![("task", ArgValue::U64(task as u64))],
                    );
                }
                // The device FIFO belongs to the shard phase, which has
                // already advanced past `sub_done`; the job is resubmitted
                // at the (shard-count-invariant) epoch boundary.
                self.spill_inbox.push((
                    sub_done,
                    device,
                    edge_job(task, EdgeJobKind::Spillover),
                    service,
                ));
            } else {
                self.tasks[task as usize].done = true;
                self.shed_ledger.tasks_shed += 1;
                if self.tracer.is_enabled() {
                    self.tracer.instant(
                        "task",
                        "shed",
                        device,
                        sub_done,
                        vec![("task", ArgValue::U64(task as u64))],
                    );
                }
            }
            return;
        }
        self.rng_draws += 1;
        let send = self.cloud_rpc.send_cost(&mut self.rng, output_bytes);
        self.tasks[task as usize].network += send;
        self.push_action(
            sub_done + send,
            Action::Response {
                task,
                from_server: server,
            },
        );
    }

    fn finish_task(&mut self, t: SimTime, task: u32) {
        let st = &mut self.tasks[task as usize];
        debug_assert!(!st.done, "double finish for task {task}");
        st.done = true;
        let record = TaskRecord {
            task,
            app: st.app,
            device: st.device,
            label: st.label,
            capture: st.capture,
            done: t,
            placement: st.placement,
            network: st.network,
            management: st.management,
            instantiation: st.instantiation,
            data_io: st.data_io,
            exec: st.exec,
            cold_start: st.cold,
        };
        self.trace_task(&record);
        self.records.push(record);
    }

    /// Emits the task's overall span plus its Fig. 13 breakdown phases
    /// laid end to end from capture time, so per-phase durations in the
    /// trace sum exactly to the [`TaskRecord`] components (no-op when
    /// tracing is disabled).
    fn trace_task(&self, r: &TaskRecord) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.span(
            "task",
            "task",
            r.device,
            r.capture,
            r.done - r.capture,
            vec![
                ("task", ArgValue::U64(r.task as u64)),
                ("app", ArgValue::Str(format!("{:?}", r.app))),
                ("placement", ArgValue::Str(format!("{:?}", r.placement))),
                ("cold", ArgValue::Bool(r.cold_start)),
            ],
        );
        let mut at = r.capture;
        for (name, dur) in [
            ("network", r.network),
            ("management", r.management),
            ("instantiation", r.instantiation),
            ("data_io", r.data_io),
            ("exec", r.exec),
        ] {
            if dur > SimDuration::ZERO {
                self.tracer.span(
                    "task",
                    name,
                    r.device,
                    at,
                    dur,
                    vec![("task", ArgValue::U64(r.task as u64))],
                );
            }
            at = at.saturating_add(dur);
        }
    }

    /// Engine-level fault bookkeeping (lost tasks, device failures,
    /// controller failovers, detection/recovery latency sums).
    pub fn fault_ledger(&self) -> FaultLedger {
        self.ledger
    }

    /// Engine-level overload bookkeeping (spilled and shed tasks,
    /// accumulated accuracy penalty).
    pub fn shed_ledger(&self) -> ShedLedger {
        self.shed_ledger
    }

    /// Engine-level disconnected-operation bookkeeping. The replay
    /// counters are read live from the per-device rings and sessions, so
    /// the conservation identity
    /// `buffered == replayed + expired + still-buffered` holds by
    /// construction at every instant.
    pub fn reconnect_ledger(&self) -> ReconnectLedger {
        let mut l = self.reconnect_ledger;
        l.updates_buffered = self.rings.iter().map(|r| r.pushed()).sum();
        l.updates_expired = self.rings.iter().map(|r| r.expired()).sum();
        l.updates_replayed = self.sessions.iter().map(|s| s.delivered()).sum();
        l.duplicates_dropped = self.sessions.iter().map(|s| s.duplicates()).sum();
        l
    }

    /// Whether the disconnect plane is armed for this run: an active
    /// policy plus at least one scheduled partition window.
    pub fn disconnect_armed(&self) -> bool {
        self.disconnect_armed
    }

    /// Records heartbeat re-arms applied by the mission layer's reconnect
    /// reconciliation (the controller side of the heal protocol).
    pub fn note_reconnect_rearm(&mut self, devices: u32) {
        self.reconnect_ledger.devices_rearmed += devices as u64;
    }

    /// Records a device failure applied by the mission layer: `detection`
    /// is the heartbeat-silence window before the controller declared it
    /// dead, `recovery` the span from failure to the moment its area is
    /// fully re-covered by the heirs.
    pub fn note_device_failure(&mut self, detection: SimDuration, recovery: SimDuration) {
        self.ledger.device_failures += 1;
        self.ledger.detection_secs_sum += detection.as_secs_f64();
        self.ledger.recovery_secs_sum += recovery.as_secs_f64();
        self.ledger.recovery_events += 1;
    }

    /// Battery state of a device.
    pub fn battery(&self, device: u32) -> &Battery {
        let (s, di) = self.locate(device);
        self.shards[s].batteries.cell(di)
    }

    /// Mutable battery access (missions charge motion energy directly).
    pub fn battery_mut(&mut self, device: u32) -> &mut Battery {
        let (s, di) = self.locate(device);
        self.shards[s].batteries.cell_mut(di)
    }

    /// The network fabric (bandwidth accounting).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable fabric access (meter finalization).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The FaaS cluster, when this platform runs one.
    pub fn cluster(&self) -> Option<&Cluster> {
        self.cluster.as_ref()
    }

    /// The IaaS fixed pool, when this platform runs one.
    pub fn pool(&self) -> Option<&FixedPool> {
        self.pool.as_ref()
    }

    /// Concurrently active cloud functions over time, whichever backend
    /// is in use.
    pub fn active_series(&self) -> Option<&hivemind_sim::stats::TimeSeries> {
        self.cluster
            .as_ref()
            .map(|c| c.active_series())
            .or_else(|| self.pool.as_ref().map(|p| p.active_series()))
    }
}

/// The earlier of two optional instants (`None` means "never").
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Advances every shard with work by `upto` through [`shard_phase`],
/// fanning them out over up to `threads` scoped threads.
fn advance_shards(shards: &mut [Shard], ctx: &ShardCtx, upto: SimTime, threads: usize) {
    let mut active = 0usize;
    let mut only = 0usize;
    for (i, sh) in shards.iter().enumerate() {
        if sh.next_event().is_some_and(|t| t <= upto) {
            active += 1;
            only = i;
        }
    }
    if active == 0 {
        return;
    }
    if active == 1 {
        shard_phase(&mut shards[only], ctx, upto);
        return;
    }
    let threads = threads.clamp(1, shards.len());
    if threads <= 1 {
        for sh in shards {
            shard_phase(sh, ctx, upto);
        }
        return;
    }
    let chunk = shards.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for group in shards.chunks_mut(chunk) {
            scope.spawn(move || {
                for sh in group {
                    shard_phase(sh, ctx, upto);
                }
            });
        }
    });
}

/// Wall-clock splits for the profiling breakdown; every split reads zero
/// when profiling is off, and the clock is never read.
struct Lap(Option<std::time::Instant>);

impl Lap {
    fn start(on: bool) -> Lap {
        Lap(on.then(std::time::Instant::now))
    }

    /// Nanoseconds since the previous split (or the start).
    fn split(&mut self) -> u64 {
        let Some(last) = self.0 else {
            return 0;
        };
        let now = std::time::Instant::now();
        self.0 = Some(now);
        (now - last).as_nanos() as u64
    }
}

/// Advances one shard through `[.., upto]`: local captures and FIFO
/// completions in device-local time order, drawing only from per-device
/// RNG lanes and emitting boundary effects. Runs with no access to hub
/// state, so shards advance in parallel.
fn shard_phase(sh: &mut Shard, ctx: &ShardCtx, upto: SimTime) {
    while let Some(t) = sh.next_event() {
        if t > upto {
            break;
        }
        sh.cursor = sh.cursor.max(t);
        while let Some((at, c)) = sh.captures.pop_until(t) {
            sh.events += 1;
            shard_capture(sh, ctx, at, c);
        }
        drain_completions(sh, ctx, t);
    }
    // The hub merges batches by `(time, device, seq)`; emissions can be
    // future-dated (`finish + send`), so local order is not key order.
    // Keys are unique, so the unstable sort is order-deterministic and
    // avoids the stable sort's temporary buffer.
    sh.out.sort_unstable_by_key(|&(k, _)| k);
}

/// Stamps and queues one effect on the shard's outbound batch.
fn emit(sh: &mut Shard, device: u32, at: SimTime, effect: Effect) {
    let di = (device - sh.first_dev) as usize;
    let seq = sh.eseqs[di];
    sh.eseqs[di] += 1;
    sh.out.push((EffectKey::new(at, device, seq), effect));
}

/// Shard-side FIFO submission (mirrors the hub's head-change wake
/// indexing; the queue-depth counter rides the effect stream).
fn fifo_submit(
    sh: &mut Shard,
    ctx: &ShardCtx,
    now: SimTime,
    device: u32,
    job: u64,
    service: SimDuration,
) {
    let di = (device - sh.first_dev) as usize;
    let fifo = &mut sh.fifos[di];
    let prev = fifo.next_wakeup();
    fifo.submit(now, job, service);
    let new = fifo.next_wakeup();
    if new != prev {
        if let Some(t) = new {
            sh.push_wake(t, device);
        }
    }
    if ctx.trace {
        let depth = sh.fifos[di].load() as u64;
        emit(sh, device, now, Effect::QueueDepth { depth });
    }
}

fn shard_capture(sh: &mut Shard, ctx: &ShardCtx, at: SimTime, c: Capture) {
    let Capture {
        task,
        device,
        app,
        placement,
    } = c;
    let di = (device - sh.first_dev) as usize;
    match placement {
        PlacementSite::Edge => {
            sh.rng_draws += 1;
            let service = edge_service_from(&mut sh.rngs[di], app, ctx.device_factor);
            let bytes = app.cloud_profile().output_bytes.max(1);
            sh.draw(di, Draw::Compute(service));
            sh.pending_jobs
                .insert(task, EdgePending::Exec { bytes, service });
            fifo_submit(
                sh,
                ctx,
                at,
                device,
                edge_job(task, EdgeJobKind::Exec),
                service,
            );
        }
        PlacementSite::Cloud => {
            let mut upload =
                (scaled_input_bytes(app, ctx.input_scale) as f64) * ctx.upload_fraction;
            if ctx.hybrid {
                // The synthesized collect tier is rate-adaptive: it
                // never offers more than ~70% of the device's fair
                // share of the wireless medium, so HiveMind "does not
                // saturate the network links" even at 8 MB / 32 fps
                // (Sec. 5.6, Fig. 17a) — excess pixels are culled by
                // the on-device filter instead.
                upload = upload.min(ctx.uplink_budget);
            }
            let upload_bytes = (upload as u64).max(1);
            if ctx.hybrid {
                // The synthesized on-device filter tier runs first: a
                // cheap salience detector, far lighter than the full
                // model (bounded so it never dominates the device).
                sh.rng_draws += 1;
                let filter = edge_service_from(&mut sh.rngs[di], app, ctx.device_factor)
                    .mul_f64(0.02)
                    .min(SimDuration::from_millis(40));
                sh.draw(di, Draw::Compute(filter));
                sh.pending_jobs
                    .insert(task, EdgePending::Filter { upload_bytes });
                fifo_submit(
                    sh,
                    ctx,
                    at,
                    device,
                    edge_job(task, EdgeJobKind::Filter),
                    filter,
                );
            } else {
                sh.rng_draws += 1;
                let send = ctx.edge_rpc.send_cost(&mut sh.rngs[di], upload_bytes);
                emit(
                    sh,
                    device,
                    at + send,
                    Effect::Uplink {
                        task,
                        bytes: upload_bytes,
                        network: send,
                        management: SimDuration::ZERO,
                    },
                );
            }
        }
    }
}

/// Drains this shard's FIFO completions due by `t`, in global head-time
/// order (wake entries are exact head times or stale-early duplicates).
fn drain_completions(sh: &mut Shard, ctx: &ShardCtx, t: SimTime) {
    let mut done = std::mem::take(&mut sh.done_scratch);
    while let Some(&Reverse((et, dev))) = sh.wake.peek() {
        if et > t {
            break;
        }
        sh.wake.pop();
        sh.wake_ops += 1;
        let di = (dev - sh.first_dev) as usize;
        match sh.fifos[di].next_wakeup() {
            Some(actual) if actual <= t => {
                sh.fifos[di].advance_into(actual, &mut done);
                if let Some(next) = sh.fifos[di].next_wakeup() {
                    sh.push_wake(next, dev);
                }
                if ctx.trace {
                    let depth = sh.fifos[di].load() as u64;
                    emit(sh, dev, actual, Effect::QueueDepth { depth });
                }
                // Drain in place: `done` keeps its high-water capacity
                // across batches instead of reallocating per completion.
                for (finish, job, queued) in done.drain(..) {
                    sh.events += 1;
                    edge_completion(sh, ctx, dev, finish, job, queued);
                }
            }
            Some(actual) => sh.push_wake(actual, dev),
            None => {}
        }
    }
    sh.done_scratch = done;
}

fn edge_completion(
    sh: &mut Shard,
    ctx: &ShardCtx,
    dev: u32,
    finish: SimTime,
    job: u64,
    queued: SimDuration,
) {
    let (task, kind) = decode_edge_job(job);
    let di = (dev - sh.first_dev) as usize;
    match kind {
        EdgeJobKind::Exec => {
            let Some(EdgePending::Exec { bytes, service }) = sh.pending_jobs.remove(&task) else {
                unreachable!("exec completion without pending state");
            };
            sh.draw(di, Draw::Radio(bytes));
            sh.rng_draws += 1;
            let send = ctx.edge_rpc.send_cost(&mut sh.rngs[di], bytes);
            emit(
                sh,
                dev,
                finish + send,
                Effect::ResultUplink {
                    task,
                    bytes,
                    network: send,
                    management: queued,
                    exec: service,
                },
            );
        }
        EdgeJobKind::Filter => {
            let Some(EdgePending::Filter { upload_bytes }) = sh.pending_jobs.remove(&task) else {
                unreachable!("filter completion without pending state");
            };
            sh.rng_draws += 1;
            let send = ctx.edge_rpc.send_cost(&mut sh.rngs[di], upload_bytes);
            emit(
                sh,
                dev,
                finish + send,
                Effect::Uplink {
                    task,
                    bytes: upload_bytes,
                    network: send,
                    management: queued,
                },
            );
        }
        EdgeJobKind::Spillover => {
            // Degraded re-execution finished: the result is already on
            // the device, so the task completes with no downlink leg.
            emit(sh, dev, finish, Effect::FinishLocal { task, queued });
        }
    }
}

/// On-device service time: the app's edge slow-down is calibrated for
/// the drone's Cortex-A8; other device classes scale proportionally.
fn edge_service_from(rng: &mut SmallRng, app: App, device_factor: f64) -> SimDuration {
    let factor = (app.edge_slowdown() * device_factor).max(1.0);
    let cloud = app.cloud_profile().exec.sample(rng);
    cloud.mul_f64(factor)
}

fn scaled_input_bytes(app: App, input_scale: f64) -> u64 {
    ((app.cloud_profile().input_bytes as f64) * input_scale).max(1.0) as u64
}

fn scaled_profile(app: App, cfg: &EngineConfig) -> AppProfile {
    let base = app.cloud_profile();
    AppProfile {
        input_bytes: ((base.input_bytes as f64) * cfg.input_scale * cfg.platform.upload_fraction())
            as u64,
        ..base
    }
}

fn split_id(app: App) -> AppId {
    AppId(100 + app.app_id().0)
}

fn split_profile(app: App, cfg: &EngineConfig) -> AppProfile {
    let base = scaled_profile(app, cfg);
    let k = app.intra_parallelism().max(1) as f64;
    AppProfile {
        exec: base.exec.scaled(1.0 / k),
        input_bytes: ((base.input_bytes as f64) / k) as u64,
        output_bytes: ((base.output_bytes as f64) / k).max(1.0) as u64,
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(platform: Platform, app: App) -> TaskRecord {
        let mut engine = Engine::new(EngineConfig::testbed(platform));
        engine.submit_task(SimTime::ZERO, 0, app, 0);
        let records = engine.run_to_completion();
        assert_eq!(records.len(), 1);
        records.into_iter().next().unwrap()
    }

    #[test]
    fn centralized_task_round_trips() {
        let r = run_one(Platform::CentralizedFaaS, App::FaceRecognition);
        assert_eq!(r.placement, PlacementSite::Cloud);
        assert!(r.network > SimDuration::from_millis(10), "2 MB uplink");
        assert!(r.exec >= SimDuration::from_millis(100));
        assert!(r.instantiation > SimDuration::ZERO, "first call is cold");
        assert!(r.cold_start);
        let parts = r.network + r.management + r.instantiation + r.data_io + r.exec;
        assert!(
            parts <= r.latency() + SimDuration::from_millis(1),
            "breakdown must not exceed total: {parts} vs {}",
            r.latency()
        );
    }

    #[test]
    fn distributed_task_runs_on_device() {
        let r = run_one(Platform::DistributedEdge, App::FaceRecognition);
        assert_eq!(r.placement, PlacementSite::Edge);
        // 10× slower than the ~250 ms cloud median.
        assert!(r.exec > SimDuration::from_secs(1));
        assert_eq!(r.instantiation, SimDuration::ZERO);
    }

    #[test]
    fn hivemind_places_light_apps_at_edge_heavy_in_cloud() {
        let engine = Engine::new(EngineConfig::testbed(Platform::HiveMind));
        assert_eq!(
            engine.placement_of(App::WeatherAnalytics),
            PlacementSite::Edge
        );
        assert_eq!(
            engine.placement_of(App::DroneDetection),
            PlacementSite::Edge
        );
        assert_eq!(
            engine.placement_of(App::ObstacleAvoidance),
            PlacementSite::Edge
        );
        assert_eq!(
            engine.placement_of(App::FaceRecognition),
            PlacementSite::Cloud
        );
        assert_eq!(engine.placement_of(App::Slam), PlacementSite::Cloud);
    }

    #[test]
    fn hivemind_beats_centralized_on_heavy_apps() {
        let mut latencies = Vec::new();
        for platform in [Platform::CentralizedFaaS, Platform::HiveMind] {
            let mut engine = Engine::new(EngineConfig::testbed(platform));
            for i in 0..60u64 {
                for dev in 0..16 {
                    engine.submit_task(SimTime::from_secs(i), dev, App::TextRecognition, 0);
                }
            }
            let records = engine.run_to_completion();
            let mut s = hivemind_sim::stats::Summary::new();
            for r in &records {
                s.record_duration(r.latency());
            }
            latencies.push(s.median());
        }
        assert!(
            latencies[1] < latencies[0],
            "HiveMind {} should beat centralized {}",
            latencies[1],
            latencies[0]
        );
    }

    #[test]
    fn edge_queueing_explodes_for_heavy_distributed_apps() {
        let mut engine = Engine::new(EngineConfig::testbed(Platform::DistributedEdge));
        for i in 0..30u64 {
            engine.submit_task(SimTime::from_secs(i), 0, App::Slam, 0);
        }
        let records = engine.run_to_completion();
        let first = records.first().unwrap().latency();
        let last = records.last().unwrap().latency();
        assert!(
            last > first * 3,
            "queue must grow: first {first}, last {last}"
        );
    }

    #[test]
    fn intra_task_parallelism_cuts_latency() {
        let lat = |intra: bool| {
            let mut cfg = EngineConfig::testbed(Platform::CentralizedFaaS);
            cfg.intra_task = intra;
            let mut engine = Engine::new(cfg);
            for i in 0..20u64 {
                engine.submit_task(SimTime::from_secs(i), 0, App::Slam, 0);
            }
            let records = engine.run_to_completion();
            let mut s = hivemind_sim::stats::Summary::new();
            for r in &records {
                s.record_duration(r.latency());
            }
            s.median()
        };
        let serial = lat(false);
        let parallel = lat(true);
        assert!(
            parallel < serial * 0.75,
            "8-way SLAM split should cut latency: {serial} -> {parallel}"
        );
    }

    #[test]
    fn batteries_charge_radio_and_compute() {
        let mut engine = Engine::new(EngineConfig::testbed(Platform::CentralizedFaaS));
        engine.submit_task(SimTime::ZERO, 3, App::FaceRecognition, 0);
        let _ = engine.run_to_completion();
        assert!(engine.battery(3).consumed_j() > 0.0, "radio energy spent");
        assert_eq!(engine.battery(0).consumed_j(), 0.0);

        let mut engine = Engine::new(EngineConfig::testbed(Platform::DistributedEdge));
        engine.submit_task(SimTime::ZERO, 3, App::FaceRecognition, 0);
        let _ = engine.run_to_completion();
        let (_, compute, _, _) = engine.battery(3).energy_split();
        assert!(compute > 0.0, "on-board exec costs compute energy");
    }

    #[test]
    fn bandwidth_meter_sees_uploads() {
        let mut engine = Engine::new(EngineConfig::testbed(Platform::CentralizedFaaS));
        for dev in 0..16 {
            engine.submit_task(SimTime::ZERO, dev, App::FaceRecognition, 0);
        }
        let _ = engine.run_to_completion();
        // 16 × 2 MB uplink + small responses.
        assert!(engine.fabric().edge_bytes_total() >= 32_000_000.0);
    }

    #[test]
    fn hybrid_uploads_less_than_centralized() {
        let edge_bytes = |platform| {
            let mut engine = Engine::new(EngineConfig::testbed(platform));
            for dev in 0..16 {
                engine.submit_task(SimTime::ZERO, dev, App::FaceRecognition, 0);
            }
            let _ = engine.run_to_completion();
            engine.fabric().edge_bytes_total()
        };
        let centralized = edge_bytes(Platform::CentralizedFaaS);
        let hivemind = edge_bytes(Platform::HiveMind);
        assert!(
            hivemind < centralized * 0.7,
            "hybrid filtering must cut uplink bytes: {hivemind} vs {centralized}"
        );
    }

    #[test]
    fn input_scale_grows_network_share() {
        let net = |scale: f64| {
            let mut cfg = EngineConfig::testbed(Platform::CentralizedFaaS);
            cfg.input_scale = scale;
            let mut engine = Engine::new(cfg);
            engine.submit_task(SimTime::ZERO, 0, App::FaceRecognition, 0);
            engine.run_to_completion()[0].network
        };
        assert!(net(4.0) > net(1.0) * 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_device_panics() {
        let mut engine = Engine::new(EngineConfig::testbed(Platform::CentralizedFaaS));
        engine.submit_task(SimTime::ZERO, 99, App::Maze, 0);
    }

    #[test]
    fn multi_tenant_apps_share_the_cluster() {
        // "We evaluate one service at a time to eliminate interference,
        // however, the platform supports multi-tenancy" (Sec. 2.1).
        let mut engine = Engine::new(EngineConfig::testbed(Platform::CentralizedFaaS));
        for i in 0..20u64 {
            for (dev, app) in [
                (0u32, App::FaceRecognition),
                (1, App::WeatherAnalytics),
                (2, App::Slam),
            ] {
                engine.submit_task(SimTime::from_secs(i), dev, app, 0);
            }
        }
        let records = engine.run_to_completion();
        assert_eq!(records.len(), 60);
        let median = |app: App| {
            let mut s = hivemind_sim::stats::Summary::new();
            for r in records.iter().filter(|r| r.app == app) {
                s.record_duration(r.latency());
            }
            s.median()
        };
        // Per-app latencies keep their identity under co-tenancy.
        assert!(median(App::WeatherAnalytics) < median(App::FaceRecognition));
        assert!(median(App::FaceRecognition) < median(App::Slam));
    }

    #[test]
    fn worker_monitors_report_utilization() {
        let mut engine = Engine::new(EngineConfig::testbed(Platform::HiveMind));
        for dev in 0..16 {
            engine.submit_task(SimTime::ZERO, dev, App::Slam, 0);
        }
        // Advance partway: functions should be in flight.
        let _ = engine.run_until(SimTime::ZERO + SimDuration::from_millis(400));
        let cluster = engine.cluster().expect("HiveMind runs a cluster");
        let utils = cluster.server_utilizations();
        assert_eq!(utils.len(), 12);
        assert!(utils.iter().all(|&u| (0.0..=1.0).contains(&u)));
        assert!(
            utils.iter().sum::<f64>() > 0.0,
            "monitors observe the in-flight load"
        );
        let _ = engine.run_to_completion();
    }

    #[test]
    fn accelerated_platforms_carry_the_fpga() {
        let hm = Engine::new(EngineConfig::testbed(Platform::HiveMind));
        let board = hm.fpga().expect("HiveMind deploys the fabric");
        // Ten apps registered → ten soft reconfigurations, no hard ones.
        assert_eq!(board.reconfig_counts(), (0, 10));
        let cen = Engine::new(EngineConfig::testbed(Platform::CentralizedFaaS));
        assert!(cen.fpga().is_none(), "stock OpenWhisk has no FPGA");
    }

    #[test]
    fn iaas_pool_executes_tasks() {
        let r = run_one(Platform::CentralizedIaaS, App::WeatherAnalytics);
        assert_eq!(r.placement, PlacementSite::Cloud);
        assert_eq!(r.instantiation, SimDuration::ZERO, "reserved workers");
    }

    /// Runs a mixed workload (edge + cloud placements, multiple devices)
    /// and fingerprints everything byte-visible about the records.
    fn record_fingerprint(platform: Platform, shards: u32) -> Vec<(u32, u32, u64, u64, u64)> {
        let mut cfg = EngineConfig::testbed(platform);
        cfg.shards = shards;
        let mut engine = Engine::new(cfg);
        for i in 0..20u64 {
            for dev in 0..16 {
                let app = if dev % 2 == 0 {
                    App::FaceRecognition
                } else {
                    App::DroneDetection
                };
                engine.submit_task(SimTime::from_secs(i), dev, app, dev);
            }
        }
        let records = engine.run_to_completion();
        records
            .iter()
            .map(|r| {
                (
                    r.task,
                    r.device,
                    (r.done - SimTime::ZERO).as_nanos(),
                    r.network.as_nanos(),
                    r.exec.as_nanos(),
                )
            })
            .collect()
    }

    #[test]
    fn shard_count_never_changes_a_byte() {
        for platform in [
            Platform::CentralizedFaaS,
            Platform::DistributedEdge,
            Platform::HiveMind,
        ] {
            let one = record_fingerprint(platform, 1);
            assert!(!one.is_empty());
            for shards in [2u32, 3, 8, 16, 64] {
                assert_eq!(
                    one,
                    record_fingerprint(platform, shards),
                    "{platform:?} diverged at {shards} shards"
                );
            }
        }
    }

    /// Everything pipelined epochs must leave untouched.
    struct Observed {
        records: Vec<TaskRecord>,
        /// Per device: `consumed_j` and the energy split, as bits.
        batteries: Vec<(u64, [u64; 4])>,
        edge_bytes: u64,
        /// The exact counters (timers zeroed).
        counters: PhaseBreakdown,
        events: u64,
        now: SimTime,
    }

    /// Drives 256 devices, two captures per device per second at
    /// staggered phases, alternating an edge-placed and a cloud-placed
    /// app on every device (so each battery takes shard and hub draws),
    /// with `budget` cores for the shard phase. `chunked` feeds the
    /// arrivals in slices between `run_until` calls instead of all up
    /// front, each slice device-major (out of time order, so a shard's
    /// later devices submit captures earlier than its first device's
    /// queued ones) and reaching half a slice past its deadline, so the
    /// fold merges them into a run still holding the previous slice's
    /// leftovers. Returns what it observed and how many epochs
    /// overlapped.
    fn drive_pipelined(
        platform: Platform,
        shards: u32,
        budget: usize,
        chunked: bool,
    ) -> (Observed, u64) {
        const DEVICES: u32 = 256;
        let mut cfg = EngineConfig::testbed(platform);
        cfg.devices = DEVICES;
        cfg.servers = 64;
        cfg.shards = shards;
        let mut engine = Engine::new(cfg);
        engine.phase_budget = budget;
        let mut arrivals: Vec<(SimTime, u32, App)> = (0..16u64)
            .flat_map(|i| {
                (0..DEVICES).map(move |dev| {
                    let at = SimTime::ZERO
                        + SimDuration::from_millis(500 * i)
                        + SimDuration::from_micros(1_953 * dev as u64);
                    let app = if (i + dev as u64).is_multiple_of(2) {
                        App::FaceRecognition
                    } else {
                        App::DroneDetection
                    };
                    (at, dev, app)
                })
            })
            .collect();
        arrivals.sort_by_key(|&(at, dev, _)| (at, dev));
        let mut records = Vec::new();
        if chunked {
            let mut next = 0;
            for c in 1..=7u64 {
                let deadline = SimTime::ZERO + SimDuration::from_millis(1_300 * c);
                let reach = deadline + SimDuration::from_millis(650);
                let end = next + arrivals[next..].partition_point(|&(at, ..)| at < reach);
                let mut slice = arrivals[next..end].to_vec();
                slice.sort_by_key(|&(at, dev, _)| (dev, at));
                for (at, dev, app) in slice {
                    engine.submit_task(at, dev, app, c as u32);
                }
                next = end;
                records.extend(engine.run_until(deadline));
            }
            for &(at, dev, app) in &arrivals[next..] {
                engine.submit_task(at, dev, app, 0);
            }
        } else {
            for &(at, dev, app) in &arrivals {
                engine.submit_task(at, dev, app, 0);
            }
        }
        records.extend(engine.run_to_completion());
        let batteries = (0..DEVICES)
            .map(|d| {
                let b = engine.battery(d);
                let (m, c, r, i) = b.energy_split();
                (
                    b.consumed_j().to_bits(),
                    [m.to_bits(), c.to_bits(), r.to_bits(), i.to_bits()],
                )
            })
            .collect();
        let counters = PhaseBreakdown {
            shard_ns: 0,
            merge_ns: 0,
            hub_ns: 0,
            ..engine.phase_breakdown()
        };
        let observed = Observed {
            records,
            batteries,
            edge_bytes: engine.fabric().edge_bytes_total().to_bits(),
            counters,
            events: engine.events_processed(),
            now: engine.now(),
        };
        (observed, engine.overlapped_epochs)
    }

    #[test]
    fn pipelined_epochs_never_change_a_byte() {
        for platform in [
            Platform::HiveMind,
            Platform::DistributedEdge,
            Platform::CentralizedFaaS,
        ] {
            for shards in [1u32, 3] {
                for chunked in [false, true] {
                    let (serial, never) = drive_pipelined(platform, shards, 1, chunked);
                    assert_eq!(never, 0, "one core must run every epoch inline");
                    assert_eq!(serial.records.len(), 16 * 256);
                    // A budget no concurrent `Runner` test can divide
                    // below two cores per engine.
                    let (piped, overlapped) = drive_pipelined(platform, shards, 64, chunked);
                    assert!(
                        overlapped > 0,
                        "{platform:?} x{shards} chunked={chunked}: no epoch overlapped"
                    );
                    let run = format!("{platform:?} x{shards} chunked={chunked}");
                    assert_eq!(serial.counters, piped.counters, "{run}: counters");
                    assert_eq!(serial.edge_bytes, piped.edge_bytes, "{run}: edge bytes");
                    assert_eq!(serial.events, piped.events, "{run}: events");
                    assert_eq!(serial.now, piped.now, "{run}: clock");
                    assert!(serial.records == piped.records, "{run}: records");
                    assert!(serial.batteries == piped.batteries, "{run}: batteries");
                }
            }
        }
    }

    #[test]
    fn shard_count_is_clamped_to_devices() {
        let mut cfg = EngineConfig::testbed(Platform::HiveMind);
        cfg.shards = 1000;
        let engine = Engine::new(cfg);
        assert_eq!(engine.shard_count(), 16);
        assert_eq!(engine.lookahead(), SimDuration::from_millis(5));
    }

    #[test]
    fn events_counter_advances() {
        let mut engine = Engine::new(EngineConfig::testbed(Platform::HiveMind));
        assert_eq!(engine.events_processed(), 0);
        for dev in 0..16 {
            engine.submit_task(SimTime::ZERO, dev, App::DroneDetection, 0);
        }
        let records = engine.run_to_completion();
        assert_eq!(records.len(), 16);
        assert!(engine.events_processed() >= 32, "captures + completions");
    }
}
