//! The execution engine: swarm + network + cloud as one simulation.
//!
//! The engine owns the network [`Fabric`], the serverless [`Cluster`] (or
//! the IaaS [`FixedPool`]) and the device plane — one on-device
//! [`FifoServer`](hivemind_sim::fifo::FifoServer) and battery per edge
//! device — and routes events between them in global time order.
//! Experiment harnesses inject *tasks* (one sensor frame batch to process)
//! and receive [`TaskRecord`]s with the same latency decomposition the
//! paper reports: network, management, instantiation, data I/O, execution.
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
//! Device-local work runs one epoch at a time in the device plane
//! (`engine/shard.rs`, whose module docs describe the two phases); the
//! serial hub applies the effects it hands over and reaches it only
//! through its `Shards` API. Because every shard-phase draw is keyed by
//! device, every effect by a shard-count-invariant `(time, device, seq)`
//! key, and the epoch grid by configuration alone, `HIVEMIND_SHARDS` (or
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
//! hub's battery draws are logged while the shards are away and charged
//! at the barrier before the shards' own (logged on the worker), the
//! epoch grid and the clock come from the shards' pre-speculation state,
//! and so the overlap moves no output byte either.

mod captures;
pub(crate) mod planes;
mod shard;
mod worker;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hivemind_apps::suite::App;
use hivemind_faas::cluster::Cluster;
use hivemind_faas::iaas::FixedPool;
use hivemind_faas::types::{AppId, AppProfile, Completion, Invocation, Outcome};
use hivemind_net::fabric::{Fabric, Transfer};
use hivemind_net::rpc::RpcProfile;
use hivemind_net::topology::{Node, Topology, TopologyParams};
use hivemind_sim::disconnect::DisconnectPolicy;
use hivemind_sim::faults::{self, FaultPlan};
use hivemind_sim::overload::OverloadPolicy;
use hivemind_sim::rng::RngForge;
use hivemind_sim::shard::{available_cores, EffectKey};
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::{ArgValue, Trace, TraceHandle};
use rand::rngs::SmallRng;

use crate::dsl::PlacementSite;
use crate::platform::Platform;
use crate::synthesis;
use planes::{Ending, Planes};
pub use planes::{FaultLedger, ReconnectLedger, ShedLedger};
use shard::{result_bytes, upload_bytes, Capture, Draw, Effect, ShardCtx, Shards};

use hivemind_swarm::device::DeviceProfile;
use hivemind_swarm::Battery;
use worker::PhaseWorker;

/// Epoch length used when nothing couples the hub back into the shard
/// phase inside an epoch (the dataflow is feed-forward): batching many
/// lookahead windows per barrier amortizes per-epoch synchronization
/// without affecting a single output byte. When spillover re-routing is
/// armed, or a caller is waiting on the next record, epochs shrink to
/// the true lookahead so feedback lands (and records surface) within
/// one wireless hop of their causal time.
const EPOCH_FLOOR: SimDuration = SimDuration::from_millis(250);

/// Shard work ahead (captures and queued device jobs, see
/// [`Shards::due_by`]) that the next epoch's shard phase must have before
/// it is moved onto the phase worker. Handing the shards over and back (waking the parked
/// worker, then parking the caller at the barrier) costs ~20 µs per
/// epoch on a 2-vCPU x86 VM; sparse engines — the testbed's 16 devices
/// have a handful of frames due per 250 ms epoch — would pay that for
/// almost nothing to overlap (without this floor the
/// one-thread `fig_grid` sweep, `runner.wall_1thread_s` in hivebench,
/// ran 2.3 s → 4.1–4.9 s on that VM).
const OVERLAP_MIN_WORK: usize = 64;

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

/// Hub-side actions (everything device-local lives in the shard phase);
/// a task's actions name its progress slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    SubmitCloud {
        slot: u32,
    },
    Response {
        slot: u32,
        from_server: u32,
    },
    Finish {
        slot: u32,
    },
    /// A scheduled partition healed: run the reconnect reconciliation
    /// session (replay every device's buffered updates exactly once).
    Reconnect,
}

/// What a fabric transfer carries; the declaration order is its
/// [`transfer_tag`] code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagPurpose {
    Upload,
    Response,
    ResultUpload,
    /// A reconnect replay summary; the hub ignores its delivery.
    ReplaySummary,
}

/// Fabric transfer tags carry their task's progress slot (or a replay
/// sequence number) and purpose arithmetically (purpose in the two low
/// bits), so deliveries decode without a side table.
fn transfer_tag(id: u64, purpose: TagPurpose) -> u64 {
    id * 4 + purpose as u64
}

fn decode_transfer_tag(tag: u64) -> (u32, TagPurpose) {
    use TagPurpose::*;
    let purpose = [Upload, Response, ResultUpload, ReplaySummary][(tag % 4) as usize];
    ((tag / 4) as u32, purpose)
}

/// [`Progress::task`] of a slot on the free list.
const FREE: u32 = u32::MAX;

/// Everything the hub holds of a task, and only while it is in flight: a
/// slab entry taken at its first hub touch and freed when it resolves, so
/// the hub's task state is sized by in-flight work. The first touch is the
/// task's uplink effect, which brings the facts fixed at its birth; from
/// then on the hub names the task by its slot.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// The task id, or [`FREE`] while the slot is on the free list.
    task: u32,
    device: u32,
    label: u32,
    /// Outstanding cloud sub-invocations (intra-task parallelism).
    remaining: u32,
    app: App,
    /// Where it runs; a degraded task is moved to the edge.
    placement: PlacementSite,
    capture: SimTime,
    network: SimDuration,
    management: SimDuration,
    instantiation: SimDuration,
    data_io: SimDuration,
    exec: SimDuration,
    /// Latest sub-completion time (the task finishes at the max).
    sub_done: SimTime,
    cold: bool,
    /// How the task ends once its last sub-invocation returns, if a
    /// sub-invocation exhausted its retry budget ([`Ending::Lost`], which
    /// wins) or was shed by the overload plane ([`Ending::Shed`]).
    ending: Option<Ending>,
}

/// Per-phase cost breakdown of a run, for profiling harnesses
/// (`hivebench --trace 1`).
///
/// The operation counters (`queue_ops`, `rng_draws`, `merge_elems`,
/// `exchange_effects`) are exact and deterministic — they count the same
/// way on every machine and never feed back into scheduling. The
/// `*_ns` wall-clock timers are only accumulated while profiling is
/// enabled ([`Engine::enable_profiling`]) and vary run to run.
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

/// The simulation engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    now: SimTime,
    fabric: Fabric,
    cluster: Option<Cluster>,
    pool: Option<FixedPool>,
    /// The device plane: the spatial shards and their exchange.
    shards: Shards,
    /// Conservative cross-shard lookahead (the wireless hop).
    lookahead: SimDuration,
    /// Hub actions keyed `(time, unique seq)`, so the action never
    /// decides the pop order.
    actions: BinaryHeap<Reverse<(SimTime, u64, Action)>>,
    /// Lifetime push + pop count of `actions` (profiling breakdown).
    action_ops: u64,
    seq: u64,
    /// Tasks submitted so far: the next task id.
    submitted: u32,
    /// Tasks resolved so far (completed, lost, shed or dropped).
    resolved: u32,
    /// The progress slab: slots of in-flight tasks, recycled through
    /// `free`.
    progress: Vec<Progress>,
    free: Vec<u32>,
    /// Records completed in the current epoch, drained to the caller at
    /// its end.
    records: Vec<TaskRecord>,
    /// Reusable per-epoch buffers (the hot loop stays allocation-free).
    delivery_scratch: Vec<hivemind_net::fabric::Delivery>,
    completion_scratch: Vec<Completion>,
    rng: SmallRng,
    next_server: u32,
    /// Per-app placement, indexed by `App as usize`.
    placements: [PlacementSite; App::ALL.len()],
    /// What the shard phase reads; `ctx.edge_rpc` is also the devices'
    /// receive side for the hub.
    ctx: ShardCtx,
    cloud_rpc: RpcProfile,
    tracer: TraceHandle,
    /// The fault, overload and disconnect planes' state and ledgers.
    planes: Planes,
    hub_events: u64,
    /// RNG sampling calls made by the hub (profiling breakdown).
    rng_draws: u64,
    /// Whether the per-phase wall-clock timers run
    /// ([`Engine::enable_profiling`]). Counters are always on.
    profile: bool,
    /// Accumulated phase timers and exchange counters.
    breakdown: PhaseBreakdown,
    /// Cores available to the shard phase (cached at construction).
    phase_budget: usize,
    /// Runs the next epoch's shard phase while the hub runs; spawned on
    /// the first overlapped epoch.
    worker: Option<PhaseWorker>,
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
    /// Panics on zero-sized configurations and on a fault plan or
    /// overload policy `RunPlan::validate` would reject.
    pub fn new(cfg: EngineConfig) -> Engine {
        assert!(cfg.devices > 0 && cfg.servers > 0);
        assert!(cfg.input_scale > 0.0);
        if let Err(e) = planes::check(&cfg.faults, &cfg.overload, cfg.servers) {
            panic!("{e}");
        }
        let forge = RngForge::new(cfg.seed);
        let tracer = if cfg.trace {
            TraceHandle::enabled()
        } else {
            TraceHandle::disabled()
        };
        let topology = Topology::new(TopologyParams {
            devices: cfg.devices,
            servers: cfg.servers,
            ..TopologyParams::default()
        });
        let lookahead = topology.lookahead();
        // Per-task uplink byte budget for hybrid platforms (rate
        // adaptation): 70% of a device's fair share of its router's medium.
        let devices_per_router = cfg.devices.div_ceil(topology.routers()).max(1);
        let uplink_budget_bytes =
            0.7 * (topology.params().wireless_bps / 8.0) / devices_per_router as f64;
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
                    let until = from + faults::DETECTION_WINDOW + faults::CONTROLLER_TAKEOVER;
                    c.add_controller_outage(from, until);
                }
                c
            });
        let mut pool = if cfg.platform.uses_fixed_pool() {
            let workers = cfg.iaas_workers.unwrap_or_else(|| {
                cfg.platform
                    .fixed_pool_workers(cfg.servers * cfg.cores_per_server)
            });
            let mut p = FixedPool::new(workers, forge.child("pool"));
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
                if cfg.intra_task {
                    p.register_app(split_id(app), split_profile(app, &cfg));
                }
            }
        }

        let placements = App::ALL.map(|app| synthesis::single_app_placement(app, cfg.platform));

        let ctx = ShardCtx {
            hybrid: cfg.platform.is_hybrid(),
            upload_fraction: cfg.platform.upload_fraction(),
            input_scale: cfg.input_scale,
            uplink_budget: uplink_budget_bytes,
            device_factor: cfg.device_profile.compute_slowdown / 10.0,
            trace: tracer.is_enabled(),
            on_worker: false,
            edge_rpc: RpcProfile::edge_software(),
            profiles: App::ALL.map(App::cloud_profile),
        };
        let mut engine = Engine {
            shards: Shards::new(&cfg, &forge),
            lookahead,
            fabric,
            cluster,
            pool,
            now: SimTime::ZERO,
            actions: BinaryHeap::new(),
            action_ops: 0,
            seq: 0,
            submitted: 0,
            resolved: 0,
            progress: Vec::new(),
            free: Vec::new(),
            records: Vec::new(),
            delivery_scratch: Vec::new(),
            completion_scratch: Vec::new(),
            rng: forge.stream("engine"),
            next_server: 0,
            placements,
            ctx,
            cloud_rpc: cfg.platform.cloud_rpc_profile(),
            planes: Planes::new(&cfg, &tracer),
            tracer,
            hub_events: 0,
            rng_draws: 0,
            profile: false,
            breakdown: PhaseBreakdown::default(),
            phase_budget: available_cores(),
            worker: None,
            overlapped_epochs: 0,
            cfg,
        };
        engine.arm_reconnects();
        engine
    }

    /// Drains the collected trace, or `None` when tracing is disabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.tracer.finish()
    }

    /// Whether this platform has any cloud execution backend (serverless
    /// cluster or reserved pool) to place tasks on.
    pub fn has_cloud_backend(&self) -> bool {
        self.cluster.is_some() || self.pool.is_some()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of spatial shards the device plane is split into.
    pub fn shard_count(&self) -> u32 {
        self.shards.count()
    }

    /// The conservative cross-shard lookahead (the wireless hop).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Total simulation events processed so far (shard-phase actions and
    /// FIFO completions plus hub-phase actions, effects, deliveries, and
    /// cloud completions). A throughput denominator for benchmarks.
    pub fn events_processed(&self) -> u64 {
        self.hub_events + self.shards.counters().events
    }

    /// Turns on the per-phase wall-clock timers. The operation counters
    /// in [`PhaseBreakdown`] accumulate regardless.
    pub fn enable_profiling(&mut self) {
        self.profile = true;
    }

    /// The per-phase cost breakdown accumulated so far. Timers are zero
    /// unless profiling is enabled; counters are always exact.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let c = self.shards.counters();
        PhaseBreakdown {
            queue_ops: self.action_ops + c.queue_ops,
            rng_draws: self.rng_draws + c.rng_draws,
            ..self.breakdown
        }
    }

    /// Tasks submitted so far (task ids run `0..submitted()`).
    pub(crate) fn submitted(&self) -> u32 {
        self.submitted
    }

    /// The resolved placement for an app on this platform.
    pub fn placement_of(&self, app: App) -> PlacementSite {
        self.placements[app as usize]
    }

    /// Overrides the placement of one app (missions pin obstacle
    /// avoidance to the edge on every platform).
    pub fn pin_placement(&mut self, app: App, site: PlacementSite) {
        self.placements[app as usize] = site;
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
        let placement = self.placements[app as usize];
        let id = self.submitted;
        self.submitted += 1;
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
        let capture = Capture {
            task: id,
            device,
            label,
            app,
            placement,
        };
        self.shards.submit(at, capture);
        id
    }

    fn push_action(&mut self, at: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.action_ops += 1;
        self.actions.push(Reverse((at, seq, action)));
    }

    /// Takes a progress slot for a task at its first hub touch (its
    /// uplink effect), holding `fresh`, and returns the slot.
    fn touch(&mut self, fresh: Progress) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.progress[slot as usize] = fresh;
                slot
            }
            None => {
                self.progress.push(fresh);
                self.progress.len() as u32 - 1
            }
        }
    }

    /// The state of the in-flight task in `slot`.
    fn slot(&mut self, slot: u32) -> &mut Progress {
        let st = &mut self.progress[slot as usize];
        debug_assert!(st.task != FREE, "slot {slot} is not in flight");
        st
    }

    /// Returns a resolved task's progress slot to the free list.
    fn release(&mut self, slot: u32) {
        let st = &mut self.progress[slot as usize];
        debug_assert!(st.task != FREE, "slot {slot} released twice");
        st.task = FREE;
        self.free.push(slot);
        self.resolved += 1;
    }

    /// The earliest instant at which anything will happen.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        [
            self.shards.next_event(),
            self.shards.next_effect(),
            self.fabric.next_wakeup(),
            self.cluster.as_ref().and_then(|c| c.next_wakeup()),
            self.pool.as_ref().and_then(|p| p.next_wakeup()),
        ]
        .into_iter()
        .fold(self.actions.peek().map(|&Reverse((t, ..))| t), earliest)
    }

    /// Runs until quiescent or `deadline`, handing each record to `sink`
    /// at the end of the epoch that completed it, in completion order —
    /// the same stream [`Engine::run_to_completion`] returns, without the
    /// run ever holding it. The engine's per-epoch record buffer keeps its
    /// capacity, so a warmed-up caller polling epoch after epoch into a
    /// sink that does not allocate never touches the allocator.
    pub fn run_until_with(&mut self, deadline: SimTime, mut sink: impl FnMut(TaskRecord)) {
        self.drive(deadline, false, &mut sink);
    }

    /// Runs until every injected task has completed. The result is sized
    /// up front for every unresolved task, which is exact unless a plane
    /// ends some of them without a record.
    pub fn run_to_completion(&mut self) -> Vec<TaskRecord> {
        let unresolved = self.submitted - self.resolved;
        let mut out = Vec::with_capacity(unresolved as usize);
        self.run_until_with(SimTime::MAX, |r| out.push(r));
        out
    }

    /// Runs until at least one task completes (or the engine quiesces),
    /// returning the records produced. Used by missions whose next step
    /// depends on a result — e.g. a car waiting for an instruction panel
    /// to be OCR'd before it can move. Epochs shrink to the true
    /// lookahead here, so the caller resumes within one wireless hop of
    /// the completion.
    pub fn run_until_record(&mut self) -> Vec<TaskRecord> {
        let mut out = Vec::new();
        self.drive(SimTime::MAX, true, &mut |r| out.push(r));
        out
    }

    /// The one run loop: epochs until quiescent or `deadline` (or, with
    /// `stop_on_record`, until an epoch completes a task), draining each
    /// epoch's records into `sink`.
    fn drive(
        &mut self,
        deadline: SimTime,
        stop_on_record: bool,
        sink: &mut impl FnMut(TaskRecord),
    ) {
        while let Some(t) = self.next_wakeup() {
            if t > deadline {
                break;
            }
            debug_assert!(t >= self.now, "engine time went backwards");
            self.run_epoch(t, deadline, stop_on_record);
            let completed = !self.records.is_empty();
            self.records.drain(..).for_each(&mut *sink);
            if stop_on_record && completed {
                return;
            }
        }
        if deadline > self.now && deadline < SimTime::MAX {
            self.now = deadline;
        }
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
        let feedback = stop_on_record || self.cfg.overload.spillover || self.disconnect_armed();
        let horizon = if feedback {
            self.lookahead
        } else {
            self.lookahead.max(EPOCH_FLOOR)
        };
        let end = start.saturating_add(horizon).min(deadline);
        let mut lap = Lap::start(self.profile);
        let budget = self.phase_budget / crate::runner::outer_workers();
        self.shards.advance(&self.ctx, end, budget);
        self.breakdown.shard_ns += lap.split();
        self.shards.exchange(&mut self.breakdown);
        self.breakdown.merge_ns += lap.split();
        // The clock tracks the latest *processed* event, not the epoch
        // boundary: the boundary is only a processing bound, so leaving
        // `now` at the last event keeps post-run submissions (mission
        // barriers at the last record's time) legal, exactly as in the
        // unsharded engine. Read before the shards run ahead.
        let shard_latest = self.now.max(self.shards.latest_cursor());
        let spec_end = end.saturating_add(horizon).min(deadline);
        let overlapped = !feedback && self.start_overlap(spec_end, budget);
        lap.split();
        self.run_hub_phase(end);
        self.breakdown.hub_ns += lap.split();
        if overlapped {
            // The barrier: the shards come back (see `Shards::take_back`).
            let (shards, busy_ns) = self.worker.as_mut().expect("worker started").finish();
            self.shards.take_back(shards);
            self.breakdown.shard_ns += busy_ns;
        }
        self.shards.drain_spillover(end, &self.tracer);
        self.now = self.now.max(shard_latest);
    }

    /// Hands the shards to the phase worker to run ahead to `spec_end` on
    /// `budget - 1` threads while this thread runs the hub up to the
    /// current epoch's end. That is safe because the next epoch starts
    /// after this one's end, so `spec_end` never passes the next epoch's
    /// end, and the hub sends nothing to the shards but battery draws
    /// (logged, see [`Shards::draw`]). Overlaps only when there is a core
    /// to spare and enough shard work is due by `spec_end` to pay for the
    /// handoff ([`OVERLAP_MIN_WORK`]); returns whether it did. The work
    /// ahead, not the work just done, decides, so the first epoch of a
    /// wave of submissions overlaps too.
    fn start_overlap(&mut self, spec_end: SimTime, budget: usize) -> bool {
        if budget < 2
            || self.shards.due_by(spec_end) < OVERLAP_MIN_WORK
            || self.shards.next_event().is_none_or(|t| t > spec_end)
        {
            return false;
        }
        let shards = self.shards.send_away();
        let ctx = &self.ctx;
        self.worker
            .get_or_insert_with(|| PhaseWorker::spawn(ctx.clone()))
            .start(shards, spec_end, budget - 1, self.profile);
        self.overlapped_epochs += 1;
        true
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
                    self.shards.next_effect(),
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
            while let Some((key, effect)) = self.shards.pop_effect(t) {
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
                self.handle_cloud_completion(c);
            }
            self.completion_scratch = completions;
        }
    }

    /// Applies one merged shard effect at its key instant.
    fn apply_effect(&mut self, key: EffectKey, effect: Effect) {
        let at = key.at;
        let device = key.lane;
        match effect {
            Effect::Uplink {
                task,
                label,
                app,
                site,
                capture,
                network,
                management,
                exec,
            } => {
                // The task's first hub touch: nothing accumulated yet.
                let slot = self.touch(Progress {
                    task,
                    device,
                    label,
                    remaining: 0,
                    app,
                    placement: site,
                    capture,
                    network,
                    management,
                    instantiation: SimDuration::ZERO,
                    data_io: SimDuration::ZERO,
                    exec,
                    sub_done: capture,
                    cold: false,
                    ending: None,
                });
                let cloud = site == PlacementSite::Cloud;
                if let Some(heal) = self.autonomous_at(at) {
                    // The device's cloud lease expired mid-partition: a
                    // cloud task degrades to autonomous on-device
                    // execution, an edge task (its result already on the
                    // device) finishes locally and queues a summary for
                    // replay at heal; neither holds its upload.
                    if cloud {
                        self.degrade_task(at, device, slot, heal);
                    } else {
                        self.note_autonomous(at, device, heal);
                        self.buffer_update(at, device, task);
                        self.finish_task(at, slot);
                    }
                    return;
                }
                let (bytes, purpose) = if cloud {
                    let bytes = upload_bytes(&self.ctx, app);
                    self.shards.draw(device, Draw::Radio(bytes));
                    (bytes, TagPurpose::Upload)
                } else {
                    (result_bytes(&self.ctx, app), TagPurpose::ResultUpload)
                };
                let server = self.pick_server();
                self.send_task(
                    at,
                    slot,
                    Transfer {
                        src: Node::Device(device),
                        dst: Node::Server(server),
                        bytes,
                        tag: transfer_tag(slot as u64, purpose),
                    },
                );
            }
            Effect::FinishLocal { slot, queued } => {
                self.slot(slot).management += queued;
                self.finish_task(at, slot);
            }
            Effect::QueueDepth { depth } => {
                self.tracer
                    .counter("edge", "queue", device, at, depth as f64);
            }
        }
    }

    fn handle_action(&mut self, t: SimTime, action: Action) {
        match action {
            Action::SubmitCloud { slot } => {
                let app = self.slot(slot).app;
                let k = if self.cfg.intra_task {
                    app.intra_parallelism()
                } else {
                    1
                };
                self.slot(slot).remaining = k;
                let app_id = if k > 1 { split_id(app) } else { app.app_id() };
                for i in 0..k {
                    let tag = (slot as u64) * 16 + i as u64;
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
            Action::Response { slot, from_server } => {
                let st = *self.slot(slot);
                self.send_task(
                    t,
                    slot,
                    Transfer {
                        src: Node::Server(from_server),
                        dst: Node::Device(st.device),
                        bytes: self.ctx.profile(st.app).output_bytes,
                        tag: transfer_tag(slot as u64, TagPurpose::Response),
                    },
                );
            }
            Action::Finish { slot } => self.finish_task(t, slot),
            Action::Reconnect => self.reconcile_reconnect(t),
        }
    }

    fn pick_server(&mut self) -> u32 {
        let s = self.next_server % self.cfg.servers;
        self.next_server += 1;
        s
    }

    fn handle_delivery(&mut self, d: hivemind_net::fabric::Delivery) {
        let (slot, purpose) = decode_transfer_tag(d.tag);
        match purpose {
            TagPurpose::Upload | TagPurpose::ResultUpload => {
                self.slot(slot).network += d.latency();
                self.rng_draws += 1;
                let recv = self.cloud_rpc.recv_cost(&mut self.rng, d.bytes);
                self.slot(slot).network += recv;
                let action = if purpose == TagPurpose::Upload {
                    Action::SubmitCloud { slot }
                } else {
                    Action::Finish { slot }
                };
                self.push_action(d.delivered_at + recv, action);
            }
            TagPurpose::Response => {
                let device = {
                    let st = self.slot(slot);
                    st.network += d.latency();
                    st.device
                };
                self.rng_draws += 1;
                let recv = self.ctx.edge_rpc.recv_overhead.sample(&mut self.rng);
                self.slot(slot).network += recv;
                self.shards.draw(device, Draw::Radio(d.bytes));
                self.push_action(d.delivered_at + recv, Action::Finish { slot });
            }
            TagPurpose::ReplaySummary => {}
        }
    }

    fn handle_cloud_completion(&mut self, c: Completion) {
        let slot = (c.tag / 16) as u32;
        let b = c.breakdown;
        let (sub_done, device, app, ending) = {
            let st = self.slot(slot);
            // Aggregate sub-invocation contributions; the slowest defines
            // the completion time, the cost components take the max (they
            // overlap in wall-clock time), management accumulates.
            st.management += b.queueing + b.management;
            st.instantiation = st.instantiation.max(b.instantiation);
            st.data_io = st.data_io.max(b.data_io);
            st.exec = st.exec.max(b.exec);
            st.cold |= c.cold_start;
            st.sub_done = st.sub_done.max(c.finished);
            match c.outcome {
                Outcome::Failed { .. } => st.ending = Some(Ending::Lost),
                Outcome::Shed { .. } => _ = st.ending.get_or_insert(Ending::Shed),
                _ => {}
            }
            st.remaining -= 1;
            if st.remaining != 0 {
                return;
            }
            (st.sub_done, st.device, st.app, st.ending)
        };
        if let Some(ending) = ending {
            // A lost task gets no response and no record; brownout
            // spillover re-routes a shed one to a degraded on-device model.
            let ending = match ending {
                Ending::Shed if self.cfg.overload.spillover => Ending::Spilled,
                ending => ending,
            };
            self.end_task(sub_done, device, slot, ending);
            return;
        }
        let output_bytes = self.ctx.profile(app).output_bytes;
        self.rng_draws += 1;
        let send = self.cloud_rpc.send_cost(&mut self.rng, output_bytes);
        self.slot(slot).network += send;
        self.push_action(
            sub_done + send,
            Action::Response {
                slot,
                from_server: c.server,
            },
        );
    }

    fn finish_task(&mut self, t: SimTime, slot: u32) {
        let st = *self.slot(slot);
        self.release(slot);
        let record = TaskRecord {
            task: st.task,
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

    /// Battery state of a device.
    pub fn battery(&self, device: u32) -> &Battery {
        self.shards.battery(device)
    }

    /// Mutable battery access (missions charge motion energy directly).
    pub fn battery_mut(&mut self, device: u32) -> &mut Battery {
        self.shards.battery_mut(device)
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

    /// Moves out the series of concurrently active cloud functions,
    /// whichever backend is in use, leaving it empty on the engine.
    pub fn take_active_series(&mut self) -> Option<hivemind_sim::stats::TimeSeries> {
        match (self.cluster.as_mut(), self.pool.as_mut()) {
            (Some(c), _) => Some(c.take_active_series()),
            (None, Some(p)) => Some(p.take_active_series()),
            (None, None) => None,
        }
    }
}

/// The earlier of two optional instants (`None` means "never").
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
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
            let mut s = hivemind_sim::stats::DurationSummary::new();
            for r in &records {
                s.record(r.latency());
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
            let mut s = hivemind_sim::stats::DurationSummary::new();
            for r in &records {
                s.record(r.latency());
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
            let mut s = hivemind_sim::stats::DurationSummary::new();
            for r in records.iter().filter(|r| r.app == app) {
                s.record(r.latency());
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
        engine.run_until_with(SimTime::ZERO + SimDuration::from_millis(400), drop);
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
        /// Progress slots still taken after the run.
        live_slots: usize,
    }

    /// Drives 256 devices, two captures per device per second at
    /// staggered phases, alternating an edge-placed and a cloud-placed
    /// app on every device (so each battery takes shard and hub draws),
    /// with `budget` cores for the shard phase. `chunked` feeds the
    /// arrivals in slices between `run_until_with` calls instead of all up
    /// front, each slice device-major (out of time order, so a shard's
    /// later devices submit captures earlier than its first device's
    /// queued ones) and reaching half a slice past its deadline, so the
    /// fold merges them into a run still holding the previous slice's
    /// leftovers. `sink` drains the rest of the run through
    /// [`Engine::run_until_with`] instead of `run_to_completion`. Returns
    /// what it observed and how many epochs overlapped.
    fn drive_pipelined(
        platform: Platform,
        shards: u32,
        budget: usize,
        chunked: bool,
        sink: bool,
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
                engine.run_until_with(deadline, |r| records.push(r));
            }
            for &(at, dev, app) in &arrivals[next..] {
                engine.submit_task(at, dev, app, 0);
            }
        } else {
            for &(at, dev, app) in &arrivals {
                engine.submit_task(at, dev, app, 0);
            }
        }
        if sink {
            engine.run_until_with(SimTime::MAX, |r| records.push(r));
        } else {
            records.extend(engine.run_to_completion());
        }
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
            live_slots: engine.progress.len() - engine.free.len(),
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
                    let (serial, never) = drive_pipelined(platform, shards, 1, chunked, false);
                    assert_eq!(never, 0, "one core must run every epoch inline");
                    assert_eq!(serial.records.len(), 16 * 256);
                    // A budget no concurrent `Runner` test can divide
                    // below two cores per engine.
                    let (piped, overlapped) = drive_pipelined(platform, shards, 64, chunked, false);
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
    fn sink_streams_the_run_to_completion_records() {
        for shards in [1u32, 2] {
            for budget in [1usize, 64] {
                for chunked in [false, true] {
                    let run = format!("x{shards} budget {budget} chunked={chunked}");
                    let (vec, _) =
                        drive_pipelined(Platform::HiveMind, shards, budget, chunked, false);
                    let (sunk, _) =
                        drive_pipelined(Platform::HiveMind, shards, budget, chunked, true);
                    assert_eq!(sunk.records.len(), 16 * 256, "{run}: every task");
                    assert!(vec.records == sunk.records, "{run}: record stream");
                    assert_eq!(vec.counters, sunk.counters, "{run}: counters");
                    assert_eq!(vec.now, sunk.now, "{run}: clock");
                    // A plane-free run resolves every task it touched.
                    assert_eq!(sunk.live_slots, 0, "{run}: leaked progress slots");
                    assert_eq!(vec.live_slots, 0, "{run}: leaked progress slots");
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
