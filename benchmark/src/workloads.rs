//! The five workloads. Each generates its inputs from the seed, runs one
//! repetition through the public APIs of `core::engine`,
//! `core::experiment` and `core::runner`, times those calls from outside,
//! and checks what they return.

use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::time::{Duration, Instant};

use hivemind_apps::scenario::Scenario;
use hivemind_apps::suite::App;
use hivemind_core::engine::{Engine, EngineConfig, TaskRecord};
use hivemind_core::experiment::{ExperimentConfig, RunPlan, Workload as Job};
use hivemind_core::metrics::Outcome;
use hivemind_core::platform::Platform;
use hivemind_core::runner::Runner;
use hivemind_sim::disconnect::DisconnectPolicy;
use hivemind_sim::faults::{FaultPlan, RetryPolicy};
use hivemind_sim::overload::OverloadPolicy;
use hivemind_sim::rng::{replicate_seed, RngForge};
use hivemind_sim::time::{SimDuration, SimTime};
use rand::Rng;

use crate::trace::Spans;

/// A benchmark workload. The names are part of the benchmark's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The serverless offload path: `core::engine` on HiveMind, 2048 devices.
    CloudOffload,
    /// The same arrivals with every task on its device (`DistributedEdge`).
    EdgeLocal,
    /// Fault, overload and disconnect planes armed at once.
    ChaosPlanes,
    /// The fig17b 4096-device mission through `Experiment::run`.
    Mission4096,
    /// 640 single-app experiments through `Runner::run_configs`.
    FigGrid,
}

impl Workload {
    /// Every workload, in the order a round starts from.
    pub const ALL: [Workload; 5] = [
        Workload::CloudOffload,
        Workload::EdgeLocal,
        Workload::ChaosPlanes,
        Workload::Mission4096,
        Workload::FigGrid,
    ];

    /// The workload's name on the command line and in every output line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CloudOffload => "cloud_offload",
            Workload::EdgeLocal => "edge_local",
            Workload::ChaosPlanes => "chaos_planes",
            Workload::Mission4096 => "mission_4096",
            Workload::FigGrid => "fig_grid",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The host's core count. No workload runs more threads or shards.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Shards for `mission_4096`: the fig17b mission at up to four cores.
pub fn mission_shards() -> u32 {
    nproc().min(4)
}

/// One simulated task arrival: the only input an engine-driven workload
/// hands the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Capture time.
    pub at: SimTime,
    /// Capturing device.
    pub device: u32,
    /// The app the task runs.
    pub app: App,
}

const OFFLOAD_APPS: [App; 2] = [App::FaceRecognition, App::DroneDetection];
const CHAOS_APPS: [App; 1] = [App::FaceRecognition];

/// An engine-driven workload: a fleet on one platform and a fixed batch of
/// periodic arrivals, each device at a phase offset drawn from the seed.
#[derive(Debug, Clone, Copy)]
pub struct EngineShape {
    /// Platform configuration.
    pub platform: Platform,
    /// Edge devices.
    pub devices: u32,
    /// Backend servers.
    pub servers: u32,
    /// Tasks per device per simulated second.
    pub rate: u64,
    /// Simulated seconds of arrivals.
    pub secs: u64,
    /// Device `d` runs `apps[d % apps.len()]`.
    pub apps: &'static [App],
    /// Arms the fault, overload and disconnect planes.
    pub chaos: bool,
}

impl EngineShape {
    /// The `cloud_offload` shape at any fleet size: HiveMind, three servers
    /// per four devices, one task per device per second, face recognition
    /// and drone detection on alternate devices.
    pub fn offload(devices: u32, secs: u64) -> EngineShape {
        EngineShape {
            platform: Platform::HiveMind,
            devices,
            servers: devices * 3 / 4,
            rate: 1,
            secs,
            apps: &OFFLOAD_APPS,
            chaos: false,
        }
    }

    /// The shape of an engine-driven workload; `None` for the two that run
    /// through `core::experiment`.
    pub fn of(w: Workload, smoke: bool) -> Option<EngineShape> {
        let offload = if smoke {
            EngineShape::offload(32, 10)
        } else {
            EngineShape::offload(2048, 120)
        };
        match w {
            Workload::CloudOffload => Some(offload),
            Workload::EdgeLocal => Some(EngineShape {
                platform: Platform::DistributedEdge,
                ..offload
            }),
            Workload::ChaosPlanes => Some(EngineShape {
                platform: Platform::HiveMind,
                devices: if smoke { 4 } else { 256 },
                servers: 4,
                rate: 4,
                secs: 180,
                apps: &CHAOS_APPS,
                chaos: true,
            }),
            Workload::Mission4096 | Workload::FigGrid => None,
        }
    }

    /// Tasks the arrival batch holds.
    pub fn tasks(&self) -> u64 {
        self.devices as u64 * self.rate * self.secs
    }

    /// The arrival batch for `seed`, device by device.
    pub fn arrivals(&self, seed: u64) -> Vec<Arrival> {
        let period = 1_000_000_000 / self.rate;
        let mut rng = RngForge::new(seed).stream("hivebench/arrivals");
        let mut out = Vec::with_capacity(self.tasks() as usize);
        for device in 0..self.devices {
            let offset = rng.gen_range(0..period);
            let app = self.apps[device as usize % self.apps.len()];
            for k in 0..self.rate * self.secs {
                out.push(Arrival {
                    at: SimTime::from_nanos(offset + k * period),
                    device,
                    app,
                });
            }
        }
        out
    }

    /// The engine configuration for `seed` at `shards` shards.
    pub fn config(&self, seed: u64, shards: u32) -> EngineConfig {
        let mut cfg = EngineConfig::testbed(self.platform);
        cfg.devices = self.devices;
        cfg.servers = self.servers;
        cfg.seed = seed;
        cfg.shards = shards;
        if self.chaos {
            cfg.faults = FaultPlan::default()
                .packet_loss(0.02)
                .function_fault_rate(0.05)
                .retry(RetryPolicy::bounded(4, SimDuration::from_millis(50)))
                .server_crash(0, 30.0, 10.0)
                .partition(40.0, 70.0)
                .partition(100.0, 130.0)
                .partition_hold_bound(256);
            cfg.overload = OverloadPolicy::default()
                .queue_bound(16)
                .queue_deadline(SimDuration::from_secs(2))
                .breaker(3, SimDuration::from_secs(2))
                .spillover()
                .net_ingress_bound(16);
            cfg.disconnect = DisconnectPolicy::default().autonomous();
        }
        cfg
    }
}

/// An engine driven to completion, with its records and host times.
pub struct EngineRun {
    /// The engine after the run, for its ledgers and counters.
    pub engine: Engine,
    /// Completed tasks in the order the engine returned them.
    pub records: Vec<TaskRecord>,
    /// `Engine::new` plus every `submit_task`.
    pub setup: Duration,
    /// `run_to_completion`.
    pub run: Duration,
}

/// Builds an engine from `cfg`, submits `arrivals`, and runs it to
/// completion, recording a span around each public call.
pub fn run_engine(
    cfg: EngineConfig,
    arrivals: &[Arrival],
    profile: bool,
    spans: &mut Spans,
) -> EngineRun {
    let start = Instant::now();
    let span = spans.enter("setup");
    let mut engine = Engine::new(cfg);
    spans.exit(span);
    if profile {
        engine.enable_profiling();
    }
    let span = spans.enter("submit");
    for a in arrivals {
        engine.submit_task(a.at, a.device, a.app, 0);
    }
    spans.exit(span);
    let setup = start.elapsed();
    let span = spans.enter("run");
    let records = engine.run_to_completion();
    spans.exit(span);
    let run = start.elapsed() - setup;
    EngineRun {
        engine,
        records,
        setup,
        run,
    }
}

impl EngineRun {
    /// Checks that every submitted task resolved exactly once: completed,
    /// lost to a retry give-up, shed, or dropped at the partition hold
    /// bound. Returns the resolved count.
    pub fn check(&self, submitted: usize) -> Result<u64, String> {
        let mut seen = vec![false; submitted];
        for r in &self.records {
            let slot = seen
                .get_mut(r.task as usize)
                .ok_or_else(|| format!("record for unknown task {}", r.task))?;
            if std::mem::replace(slot, true) {
                return Err(format!("task {} completed twice", r.task));
            }
        }
        let completed = self.records.len() as u64;
        let lost = self.engine.fault_ledger().tasks_lost;
        let shed = self.engine.shed_ledger().tasks_shed;
        let dropped = self.engine.fabric().fault_stats().transfers_dropped;
        let resolved = completed + lost + shed + dropped;
        if resolved != submitted as u64 {
            return Err(format!(
                "conservation: submitted {submitted} != completed {completed} + lost {lost} \
                 + shed {shed} + dropped {dropped}"
            ));
        }
        Ok(resolved)
    }

    /// FNV-1a over the Debug form of the record stream.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.records {
            write!(h, "{r:?}").expect("hashing never fails");
        }
        h.finish()
    }

    /// Simulated time of the last completion, seconds.
    pub fn last_done_s(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.done.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

/// The fig17b point: the stationary-items mission on HiveMind with three
/// servers per four devices.
pub fn mission_config(seed: u64, smoke: bool, shards: u32) -> ExperimentConfig {
    let devices = if smoke { 16 } else { 4096 };
    ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .devices(devices)
        .servers((devices * 3 / 4).max(12))
        .seed(seed)
        .plan(RunPlan::new().shards(shards))
}

/// The platforms of the figure sweeps; `CentralizedIaaS` is the only
/// workload path through the IaaS `FixedPool`.
pub const GRID_PLATFORMS: [Platform; 4] = [
    Platform::CentralizedIaaS,
    Platform::CentralizedFaaS,
    Platform::DistributedEdge,
    Platform::HiveMind,
];

/// The fig04/05/11-shaped sweep: every app on every grid platform, on the
/// 16-drone testbed, under 16 seeds derived from `seed`.
pub fn grid_configs(seed: u64, smoke: bool) -> Vec<ExperimentConfig> {
    let (seeds, secs) = if smoke { (1, 5.0) } else { (16, 60.0) };
    let mut out = Vec::with_capacity(App::ALL.len() * GRID_PLATFORMS.len() * seeds as usize);
    for app in App::ALL {
        for platform in GRID_PLATFORMS {
            for i in 0..seeds {
                out.push(
                    ExperimentConfig::single_app(app)
                        .platform(platform)
                        .duration_secs(secs)
                        .seed(replicate_seed(seed, i))
                        .plan(RunPlan::new().shards(1)),
                );
            }
        }
    }
    out
}

/// The configurations an experiment-driven workload runs.
pub fn experiment_configs(w: Workload, seed: u64, smoke: bool) -> Vec<ExperimentConfig> {
    match w {
        Workload::Mission4096 => vec![mission_config(seed, smoke, mission_shards())],
        Workload::FigGrid => grid_configs(seed, smoke),
        _ => Vec::new(),
    }
}

/// The engine configuration an experiment builds, mirrored field by field
/// from its public configuration.
pub fn engine_config_of(cfg: &ExperimentConfig) -> EngineConfig {
    EngineConfig {
        platform: cfg.platform,
        devices: cfg.devices,
        servers: cfg.servers,
        cores_per_server: cfg.cores_per_server,
        seed: cfg.seed,
        fault_rate: cfg.fault_rate,
        intra_task: cfg.intra_task,
        device_profile: cfg.device_profile(),
        input_scale: cfg.input_scale,
        iaas_workers: cfg.iaas_workers,
        trace: cfg.plan.trace,
        faults: cfg.plan.faults.clone(),
        overload: cfg.plan.overload.clone(),
        disconnect: cfg.plan.disconnect,
        shards: cfg.plan.shards,
    }
}

/// The arrivals `Experiment::run` submits for a single-app configuration
/// without a load profile: one task per period per device, devices at
/// evenly spread phase offsets. Empty for missions.
pub fn single_app_arrivals(cfg: &ExperimentConfig) -> Vec<Arrival> {
    let Job::SingleApp { app, duration_secs } = cfg.workload else {
        return Vec::new();
    };
    let period = 1.0 / (app.tasks_per_sec() * cfg.rate_scale);
    let mut out = Vec::new();
    for device in 0..cfg.devices {
        let mut t = period * (device as f64 / cfg.devices as f64);
        while t < duration_secs {
            out.push(Arrival {
                at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                device,
                app,
            });
            t += period;
        }
    }
    out
}

/// Experiments run through the replicate runner, with their host time.
pub struct ExperimentRun {
    /// One outcome per configuration, in configuration order.
    pub outcomes: Vec<Outcome>,
    /// `Runner::run_configs`.
    pub wall: Duration,
}

/// Runs `configs` on `threads` runner threads. One configuration runs as
/// `Experiment::run` on the calling thread.
pub fn run_experiments(
    configs: &[ExperimentConfig],
    threads: u32,
    spans: &mut Spans,
) -> ExperimentRun {
    let start = Instant::now();
    let span = spans.enter("run");
    let outcomes = Runner::with_threads(threads as usize).run_configs(configs);
    spans.exit(span);
    ExperimentRun {
        outcomes,
        wall: start.elapsed(),
    }
}

/// Constructs, and drops, the engine of every configuration: the set-up
/// share of what `Experiment::run` does inside its own wall time.
pub fn engine_setup(configs: &[ExperimentConfig]) -> Duration {
    let start = Instant::now();
    for cfg in configs {
        black_box(Engine::new(engine_config_of(cfg)));
    }
    start.elapsed()
}

impl ExperimentRun {
    /// Checks every outcome: missions completed, and each single-app run
    /// resolved exactly the tasks it submitted. Returns the resolved count.
    pub fn check(&self, configs: &[ExperimentConfig]) -> Result<u64, String> {
        let mut resolved = 0;
        for (i, (cfg, o)) in configs.iter().zip(&self.outcomes).enumerate() {
            if !o.mission.completed {
                return Err(format!("experiment {i} did not complete"));
            }
            let done = o.tasks.len() as u64
                + o.recovery.map_or(0, |r| r.tasks_lost)
                + o.shed.map_or(0, |s| s.tasks_shed)
                + o.reconnect.map_or(0, |r| r.transfers_dropped);
            match cfg.workload {
                Job::SingleApp { .. } => {
                    let submitted = single_app_arrivals(cfg).len() as u64;
                    if done != submitted {
                        return Err(format!(
                            "experiment {i}: submitted {submitted} != resolved {done}"
                        ));
                    }
                }
                Job::Mission(_) if o.tasks.is_empty() => {
                    return Err(format!("mission {i} completed no task"));
                }
                Job::Mission(_) => {}
            }
            resolved += done;
        }
        Ok(resolved)
    }

    /// FNV-1a over every `Outcome::to_json()`, one line each.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for o in &self.outcomes {
            h.write_str(&o.to_json()).expect("hashing never fails");
            h.write_char('\n').expect("hashing never fails");
        }
        h.finish()
    }
}

/// One timed repetition of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rep {
    /// Host seconds from the first public call to the result.
    pub wall_s: f64,
    /// Host seconds spent constructing engines and submitting arrivals.
    pub setup_s: f64,
    /// Simulated tasks resolved: completed + lost + shed + dropped.
    pub tasks: u64,
    /// Digest of the workload's output.
    pub digest: u64,
}

/// Runs one checked repetition of `w`, untraced.
pub fn run_rep(w: Workload, seed: u64, smoke: bool) -> Result<Rep, String> {
    let mut spans = Spans::off();
    if let Some(shape) = EngineShape::of(w, smoke) {
        let arrivals = shape.arrivals(seed);
        let run = run_engine(shape.config(seed, 1), &arrivals, false, &mut spans);
        let tasks = run.check(arrivals.len())?;
        return Ok(Rep {
            wall_s: (run.setup + run.run).as_secs_f64(),
            setup_s: run.setup.as_secs_f64(),
            tasks,
            digest: run.digest(),
        });
    }
    let configs = experiment_configs(w, seed, smoke);
    let setup = engine_setup(&configs);
    let run = run_experiments(&configs, nproc(), &mut spans);
    let tasks = run.check(&configs)?;
    Ok(Rep {
        wall_s: run.wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        tasks,
        digest: run.digest(),
    })
}

/// 64-bit FNV-1a, fed through `fmt::Write` so Debug and JSON forms hash
/// without being materialized.
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_repeat_for_a_seed_and_differ_across_seeds() {
        let shape = EngineShape::of(Workload::CloudOffload, true).unwrap();
        assert_eq!(shape.arrivals(7), shape.arrivals(7));
        assert_ne!(shape.arrivals(7), shape.arrivals(8));
    }

    #[test]
    fn arrival_batches_hold_the_stated_sizes() {
        let size = |w| EngineShape::of(w, false).unwrap();
        assert_eq!(size(Workload::CloudOffload).tasks(), 245_760);
        assert_eq!(size(Workload::EdgeLocal).tasks(), 245_760);
        assert_eq!(size(Workload::ChaosPlanes).tasks(), 184_320);
        let chaos = size(Workload::ChaosPlanes);
        let arrivals = chaos.arrivals(3);
        assert_eq!(arrivals.len() as u64, chaos.tasks());
        let horizon = SimTime::from_secs(chaos.secs);
        assert!(arrivals.iter().all(|a| a.at < horizon && a.device < 256));
    }

    #[test]
    fn experiment_workloads_hold_the_stated_sizes() {
        let grid = grid_configs(1, false);
        assert_eq!(grid.len(), 640);
        let tasks: usize = grid.iter().map(|c| single_app_arrivals(c).len()).sum();
        // 9 apps at 1 task/s and the maze at 0.3 task/s, 16 drones, 60 s,
        // 4 platforms, 16 seeds.
        assert_eq!(tasks, (9 * 960 + 16 * 18) * 4 * 16);
        let mission = mission_config(1, false, 1);
        assert_eq!((mission.devices, mission.servers), (4096, 3072));
    }

    #[test]
    fn smoke_repetitions_pass_their_checks() {
        for w in Workload::ALL {
            let a = run_rep(w, 5, true).unwrap();
            let b = run_rep(w, 5, true).unwrap();
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert!(a.tasks > 0 && a.wall_s > 0.0 && a.setup_s > 0.0);
        }
    }
}
