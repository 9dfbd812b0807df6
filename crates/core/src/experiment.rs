//! The experiment harness every figure is generated from.
//!
//! An [`Experiment`] couples a workload — one of the S1–S10 single-app
//! benchmarks under a configurable load, or an end-to-end mission — with
//! a [`Platform`] and swarm/cluster sizing, runs it on the deterministic
//! engine, and returns an [`Outcome`] carrying the paper's metrics.
//!
//! # Examples
//!
//! A 120-second S1 benchmark on the centralized serverless platform
//! (Fig. 4's setup):
//!
//! ```rust
//! use hivemind_core::experiment::{Experiment, ExperimentConfig};
//! use hivemind_core::platform::Platform;
//! use hivemind_apps::suite::App;
//!
//! let mut outcome = Experiment::new(
//!     ExperimentConfig::single_app(App::WeatherAnalytics)
//!         .platform(Platform::CentralizedFaaS)
//!         .duration_secs(30.0)
//!         .seed(1),
//! )
//! .run();
//! assert!(outcome.tasks.len() > 100);
//! assert!(outcome.median_task_ms() > 1.0);
//! ```

use std::fmt;

use hivemind_apps::learning::RetrainMode;
use hivemind_apps::scenario::{Fleet, Scenario};
use hivemind_apps::suite::App;
use hivemind_sim::disconnect::DisconnectPolicy;
use hivemind_sim::faults::{FaultPlan, FaultPlanError};
use hivemind_sim::overload::OverloadPolicy;
use hivemind_sim::stats::Summary;
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_swarm::device::DeviceProfile;

use crate::engine::{Engine, EngineConfig, TaskRecord};
use crate::metrics::{
    BandwidthStats, BatteryStats, MissionOutcome, Outcome, ReconnectStats, RecoveryStats, ShedStats,
};
use crate::mission;
use crate::platform::Platform;

/// What the experiment runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// One benchmark app at steady (or profiled) load for a duration.
    SingleApp {
        /// The app.
        app: App,
        /// Workload duration in seconds (paper: 120 s per job).
        duration_secs: f64,
    },
    /// An end-to-end mission.
    Mission(Scenario),
}

/// The run-control planes of an experiment, gathered into one builder
/// with a single cross-checking [`RunPlan::validate`]: fault injection,
/// overload control, tracing, scripted device failures, and engine
/// sharding. Attach one to a configuration with
/// [`ExperimentConfig::plan`]:
///
/// ```rust
/// use hivemind_core::experiment::{ExperimentConfig, RunPlan};
/// use hivemind_apps::suite::App;
/// use hivemind_sim::faults::FaultPlan;
///
/// let cfg = ExperimentConfig::single_app(App::FaceRecognition).plan(
///     RunPlan::new()
///         .faults(FaultPlan::default().packet_loss(0.05))
///         .trace(true)
///         .shards(4),
/// );
/// assert!(cfg.validate().is_ok());
/// ```
///
/// Every plane is inert by default: a default `RunPlan` leaves every
/// output byte identical to a plan-less run.
#[derive(Debug, Clone, Default)]
pub struct RunPlan {
    /// The fault-injection plan (network loss/outages, server crashes,
    /// function failure process + retry policy, device MTBF, controller
    /// failover). The inert default leaves every metric byte-identical.
    pub faults: FaultPlan,
    /// The overload-control policy (bounded admission, load shedding,
    /// circuit breaking, brownout spillover, network backpressure). The
    /// inert default leaves every metric byte-identical; an active policy
    /// makes no RNG draws, so its decisions are pure functions of load.
    pub overload: OverloadPolicy,
    /// The disconnected-operation policy (lease-based autonomy, bounded
    /// update buffering, exactly-once reconnect replay). The inert
    /// default leaves every metric byte-identical; the plane only ever
    /// acts during partition windows scheduled in the fault plan.
    pub disconnect: DisconnectPolicy,
    /// Collect a structured event trace; the result lands in
    /// [`Outcome::trace`]. Tracing draws no randomness, so enabling it
    /// never changes any metric.
    pub trace: bool,
    /// Mid-mission device failures: `(seconds_from_start, device)`. The
    /// controller detects each via missed heartbeats and repartitions the
    /// failed device's remaining area among its live neighbours (Fig. 10).
    pub device_failures: Vec<(f64, u32)>,
    /// Spatial shards for the engine's device-local event loop; `0`
    /// (the default) reads `HIVEMIND_SHARDS`. Purely a parallelism knob:
    /// every output byte is identical for every value.
    pub shards: u32,
}

impl RunPlan {
    /// An inert plan: no faults, no overload control, no tracing, no
    /// scripted failures, sharding from the environment.
    pub fn new() -> RunPlan {
        RunPlan::default()
    }

    /// Attaches a fault-injection plan. All stochastic fault draws come
    /// from a dedicated lane of the seed chain, so the same seed compares
    /// the same workload under different disturbance levels.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attaches an overload-control policy. Unlike the fault plane, the
    /// overload plane draws no randomness at all — every shed, breaker,
    /// and backpressure decision is a pure function of queue lengths,
    /// counters, and event times.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Attaches a disconnected-operation policy. Like the overload
    /// plane, the disconnect plane's own decisions draw no randomness:
    /// autonomy flips are pure functions of the fault plan's partition
    /// windows and the lease timeout (degraded execution samples its
    /// service time from the same engine stream the spillover path uses).
    pub fn disconnect(mut self, policy: DisconnectPolicy) -> Self {
        self.disconnect = policy;
        self
    }

    /// Enables (or disables) structured event tracing for the run.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Kills a device `at_secs` into the mission (missions only).
    pub fn fail_device(mut self, at_secs: f64, device: u32) -> Self {
        self.device_failures.push((at_secs, device));
        self
    }

    /// Pins the engine's shard count (0 = read `HIVEMIND_SHARDS`).
    pub fn shards(mut self, n: u32) -> Self {
        self.shards = n;
        self
    }

    /// Whether any plane deviates from the inert default in a way that
    /// can change metrics (sharding and tracing never do).
    pub fn is_active(&self) -> bool {
        self.faults.is_active()
            || self.overload.is_active()
            || self.disconnect.is_active()
            || !self.device_failures.is_empty()
    }

    /// Cross-checks every plane against the workload it will run under:
    /// `fail_device` entries must target a device inside the fleet and
    /// fire within `horizon_secs`, the fault plan and overload policy
    /// must each be self-consistent, and a pinned shard count must not
    /// exceed the fleet (one shard owns at least one device).
    pub fn validate(
        &self,
        devices: u32,
        servers: u32,
        horizon_secs: f64,
    ) -> Result<(), ConfigError> {
        for &(at_secs, device) in &self.device_failures {
            if device >= devices {
                return Err(ConfigError::FailedDeviceOutOfRange {
                    device,
                    fleet: devices,
                });
            }
            if !(at_secs.is_finite() && at_secs >= 0.0) || at_secs > horizon_secs {
                return Err(ConfigError::FailureOutsideMission {
                    at_secs,
                    horizon_secs,
                });
            }
        }
        self.faults
            .validate(devices, servers)
            .map_err(ConfigError::InvalidFaultPlan)?;
        self.overload
            .validate()
            .map_err(ConfigError::InvalidOverloadPolicy)?;
        self.disconnect
            .validate()
            .map_err(ConfigError::InvalidDisconnectPolicy)?;
        if self.shards > devices {
            return Err(ConfigError::InvalidShardPlan {
                shards: self.shards,
                fleet: devices,
            });
        }
        Ok(())
    }
}

/// Full experiment configuration (builder-style).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The workload.
    pub workload: Workload,
    /// The platform.
    pub platform: Platform,
    /// Edge device count.
    pub devices: u32,
    /// Backend servers.
    pub servers: u32,
    /// Cores per server.
    pub cores_per_server: u32,
    /// Root seed.
    pub seed: u64,
    /// Sensor payload scale (1.0 = 2 MB frames).
    pub input_scale: f64,
    /// Task-rate scale (1.0 = the app's default; 2.0 doubles fps).
    pub rate_scale: f64,
    /// Injected function fault probability.
    pub fault_rate: f64,
    /// Enable intra-task parallelism.
    pub intra_task: bool,
    /// Optional load profile: `(seconds_from_start, active_devices)`
    /// steps; `None` = all devices active throughout.
    pub load_profile: Option<Vec<(f64, u32)>>,
    /// Continuous-learning mode for missions.
    pub retrain: RetrainMode,
    /// Override the IaaS pool size.
    pub iaas_workers: Option<u32>,
    /// The run-control planes: faults, overload, tracing, scripted
    /// device failures, sharding.
    pub plan: RunPlan,
}

/// Why an [`ExperimentConfig`] cannot be run.
///
/// Produced by [`ExperimentConfig::validate`] /
/// [`Experiment::try_new`]; [`Experiment::new`] panics with the same
/// message.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A `fail_device` entry targets a device outside the fleet.
    FailedDeviceOutOfRange {
        /// The offending device id.
        device: u32,
        /// Configured fleet size.
        fleet: u32,
    },
    /// A `fail_device` entry fires outside the mission (or workload)
    /// duration, so it could never take effect.
    FailureOutsideMission {
        /// The configured failure instant, seconds.
        at_secs: f64,
        /// The workload's time horizon, seconds.
        horizon_secs: f64,
    },
    /// The fault plan itself is inconsistent (bad probability, empty or
    /// non-finite window, overlapping partitions, out-of-range target…);
    /// the typed variant names the first problem precisely.
    InvalidFaultPlan(FaultPlanError),
    /// The overload policy is inconsistent (zero deadline, zero cooldown,
    /// out-of-range spillover model…); the string is the policy's own
    /// description of the first problem.
    InvalidOverloadPolicy(String),
    /// The disconnect policy is inconsistent (zero lease timeout, zero
    /// buffer, sub-unity speedup…); the string is the policy's own
    /// description of the first problem.
    InvalidDisconnectPolicy(String),
    /// The pinned shard count exceeds the fleet (a shard must own at
    /// least one device).
    InvalidShardPlan {
        /// The configured shard count.
        shards: u32,
        /// Configured fleet size.
        fleet: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::FailedDeviceOutOfRange { device, fleet } => {
                write!(
                    f,
                    "fail_device targets device {device} but the fleet has {fleet} devices"
                )
            }
            ConfigError::FailureOutsideMission {
                at_secs,
                horizon_secs,
            } => write!(
                f,
                "fail_device at {at_secs} s is outside the workload horizon of {horizon_secs} s"
            ),
            ConfigError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            ConfigError::InvalidOverloadPolicy(msg) => {
                write!(f, "invalid overload policy: {msg}")
            }
            ConfigError::InvalidDisconnectPolicy(msg) => {
                write!(f, "invalid disconnect policy: {msg}")
            }
            ConfigError::InvalidShardPlan { shards, fleet } => write!(
                f,
                "shard plan pins {shards} shards but the fleet has only {fleet} devices"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ExperimentConfig {
    /// A single-app benchmark with the paper's defaults (120 s, 16
    /// drones, 12×40-core cluster, centralized FaaS).
    pub fn single_app(app: App) -> ExperimentConfig {
        ExperimentConfig {
            workload: Workload::SingleApp {
                app,
                duration_secs: 120.0,
            },
            platform: Platform::CentralizedFaaS,
            devices: 16,
            servers: 12,
            cores_per_server: 40,
            seed: 1,
            input_scale: 1.0,
            rate_scale: 1.0,
            fault_rate: 0.0,
            intra_task: false,
            load_profile: None,
            retrain: RetrainMode::SwarmWide,
            iaas_workers: None,
            plan: RunPlan::default(),
        }
    }

    /// An end-to-end mission with the scenario's default fleet size.
    pub fn scenario(s: Scenario) -> ExperimentConfig {
        ExperimentConfig {
            workload: Workload::Mission(s),
            devices: s.default_devices(),
            ..ExperimentConfig::single_app(App::FaceRecognition)
        }
    }

    /// Sets the platform.
    pub fn platform(mut self, p: Platform) -> Self {
        self.platform = p;
        self
    }

    /// Sets the edge device count (drones, cars, sensors…).
    pub fn devices(mut self, n: u32) -> Self {
        self.devices = n;
        self
    }

    /// Sets the backend server count.
    pub fn servers(mut self, n: u32) -> Self {
        self.servers = n;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the single-app workload duration.
    ///
    /// # Panics
    ///
    /// Panics if the workload is a mission.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        match &mut self.workload {
            Workload::SingleApp { duration_secs, .. } => *duration_secs = secs,
            Workload::Mission(_) => panic!("missions run to completion, not a duration"),
        }
        self
    }

    /// Sets the single-app workload duration from a [`SimDuration`].
    ///
    /// Typed alternative to [`ExperimentConfig::duration_secs`].
    ///
    /// # Panics
    ///
    /// Panics if the workload is a mission.
    pub fn duration(self, d: SimDuration) -> Self {
        self.duration_secs(d.as_secs_f64())
    }

    /// Sets the payload scale.
    pub fn input_scale(mut self, s: f64) -> Self {
        self.input_scale = s;
        self
    }

    /// Sets the task-rate scale.
    pub fn rate_scale(mut self, s: f64) -> Self {
        self.rate_scale = s;
        self
    }

    /// Sets the fault-injection rate.
    pub fn fault_rate(mut self, r: f64) -> Self {
        self.fault_rate = r;
        self
    }

    /// Enables intra-task parallelism.
    pub fn intra_task(mut self, on: bool) -> Self {
        self.intra_task = on;
        self
    }

    /// Installs a load profile (Fig. 5b/5c's fluctuating load).
    pub fn load_profile(mut self, steps: Vec<(f64, u32)>) -> Self {
        self.load_profile = Some(steps);
        self
    }

    /// Sets the retraining mode for missions.
    pub fn retrain(mut self, mode: RetrainMode) -> Self {
        self.retrain = mode;
        self
    }

    /// Overrides the IaaS pool size.
    pub fn iaas_workers(mut self, workers: u32) -> Self {
        self.iaas_workers = Some(workers);
        self
    }

    /// Attaches the run-control planes (faults, overload, tracing,
    /// scripted device failures, sharding) in one validated bundle.
    pub fn plan(mut self, plan: RunPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The workload's time horizon in seconds (single-app duration, or
    /// the mission timeout).
    pub fn horizon_secs(&self) -> f64 {
        match self.workload {
            Workload::SingleApp { duration_secs, .. } => duration_secs,
            Workload::Mission(s) => s.mission_timeout().as_secs_f64(),
        }
    }

    /// Checks the configuration for inconsistencies that would make the
    /// run meaningless, by cross-checking the attached [`RunPlan`]
    /// against the workload (see [`RunPlan::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.plan
            .validate(self.devices, self.servers, self.horizon_secs())
    }

    /// The device profile implied by the workload's fleet.
    pub fn device_profile(&self) -> DeviceProfile {
        match self.workload {
            Workload::Mission(s) if s.fleet() == Fleet::Cars => DeviceProfile::car(),
            _ => DeviceProfile::drone(),
        }
    }

    pub(crate) fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            platform: self.platform,
            devices: self.devices,
            servers: self.servers,
            cores_per_server: self.cores_per_server,
            seed: self.seed,
            fault_rate: self.fault_rate,
            intra_task: self.intra_task,
            device_profile: self.device_profile(),
            input_scale: self.input_scale,
            iaas_workers: self.iaas_workers,
            trace: self.plan.trace,
            faults: self.plan.faults.clone(),
            overload: self.plan.overload.clone(),
            disconnect: self.plan.disconnect,
            shards: self.plan.shards,
        }
    }
}

/// How to account for device motion energy at assembly time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MotionPolicy {
    /// Devices fly/hover from t = 0 until their last result (at least
    /// `floor_secs`); used by the steady-load single-app benchmarks.
    UntilLastDone {
        /// Minimum airborne time, seconds.
        floor_secs: f64,
    },
    /// The mission already charged motion/idle energy explicitly.
    PreCharged,
}

/// A configured, runnable experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Wraps a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ExperimentConfig::validate`]); use [`Experiment::try_new`] to
    /// handle the error instead.
    pub fn new(config: ExperimentConfig) -> Experiment {
        match Experiment::try_new(config) {
            Ok(e) => e,
            Err(e) => panic!("invalid experiment config: {e}"),
        }
    }

    /// Validates and wraps a configuration, surfacing inconsistencies
    /// (out-of-range `fail_device` targets, failure times beyond the
    /// workload horizon, malformed fault plans) as a [`ConfigError`].
    pub fn try_new(config: ExperimentConfig) -> Result<Experiment, ConfigError> {
        config.validate()?;
        Ok(Experiment { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the experiment to completion.
    pub fn run(&self) -> Outcome {
        match self.config.workload {
            Workload::SingleApp { app, duration_secs } => self.run_single_app(app, duration_secs),
            Workload::Mission(s) => mission::run_mission(&self.config, s),
        }
    }

    fn active_devices_at(&self, t_secs: f64) -> u32 {
        match &self.config.load_profile {
            None => self.config.devices,
            Some(steps) => {
                let mut active = 0;
                for &(at, n) in steps {
                    if t_secs >= at {
                        active = n;
                    }
                }
                active.min(self.config.devices)
            }
        }
    }

    fn run_single_app(&self, app: App, duration_secs: f64) -> Outcome {
        let cfg = &self.config;
        let mut engine = Engine::new(cfg.engine_config());
        let rate = app.tasks_per_sec() * cfg.rate_scale;
        assert!(rate > 0.0, "task rate must be positive");
        let period = 1.0 / rate;

        // Deterministic arrivals with per-device phase offsets so devices
        // don't fire in lockstep.
        let mut n_tasks = 0u64;
        for dev in 0..cfg.devices {
            let offset = period * (dev as f64 / cfg.devices as f64);
            let mut t = offset;
            while t < duration_secs {
                if dev < self.active_devices_at(t) {
                    engine.submit_task(SimTime::ZERO + SimDuration::from_secs_f64(t), dev, app, 0);
                    n_tasks += 1;
                }
                t += period;
            }
        }
        assert!(n_tasks > 0, "workload produced no tasks");
        let records = engine.run_to_completion();
        self.assemble(
            engine,
            records,
            MotionPolicy::UntilLastDone {
                floor_secs: duration_secs,
            },
            MissionOutcome::default(),
        )
    }

    pub(crate) fn assemble(
        &self,
        mut engine: Engine,
        records: Vec<TaskRecord>,
        motion: MotionPolicy,
        mut mission: MissionOutcome,
    ) -> Outcome {
        let cfg = &self.config;
        let mut outcome = Outcome::default();
        // Per-device last completion, for hover-time accounting.
        let floor = match motion {
            MotionPolicy::UntilLastDone { floor_secs } => floor_secs,
            MotionPolicy::PreCharged => 0.0,
        };
        let mut last_done = vec![floor; cfg.devices as usize];
        let mut slo_violations = 0u64;
        for r in &records {
            outcome.tasks.record(r);
            if let Some(slo) = cfg.plan.faults.slo {
                if r.latency() > slo {
                    slo_violations += 1;
                }
            }
            let d = &mut last_done[r.device as usize];
            *d = d.max(r.done.as_secs_f64());
        }
        // Devices stay airborne (motion power) until their own results
        // land — waiting on slow backends costs battery (Fig. 1's IaaS
        // column). Missions account for motion themselves.
        if matches!(motion, MotionPolicy::UntilLastDone { .. }) {
            for dev in 0..cfg.devices {
                let airborne = SimDuration::from_secs_f64(last_done[dev as usize]);
                engine.battery_mut(dev).draw_motion(airborne);
            }
        }

        let mut battery = Summary::new();
        let mut depleted = 0;
        for dev in 0..cfg.devices {
            let b = engine.battery(dev);
            battery.record(b.consumed_percent());
            if b.is_depleted() {
                depleted += 1;
            }
        }
        outcome.battery = BatteryStats {
            mean_pct: battery.mean(),
            max_pct: battery.max(),
            depleted,
        };

        let end = records
            .iter()
            .map(|r| r.done)
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(SimTime::ZERO + SimDuration::from_secs_f64(floor));
        let (edge, _) = engine.fabric_mut().finish_meters(end);
        outcome.bandwidth = BandwidthStats {
            mean_mbps: edge.mean_rate() / 1e6,
            p99_mbps: edge.p99_rate() / 1e6,
            total_mb: edge.total() / 1e6,
        };

        if let Some(series) = engine.active_series() {
            outcome.active_tasks = series.clone();
        }
        if let Some(cluster) = engine.cluster() {
            outcome.container_stats = cluster.container_stats();
            outcome.stragglers_mitigated = cluster.stragglers_mitigated();
            outcome.faults_recovered = cluster.faults_recovered();
        }
        // Recovery metrics exist only for runs with an active fault plan,
        // so inert configurations serialize byte-identically to pre-fault
        // outputs.
        if cfg.plan.faults.is_active() {
            let net = engine.fabric().fault_stats();
            let ledger = engine.fault_ledger();
            let mut recovery = RecoveryStats {
                packets_lost: net.packets_lost,
                transfers_held: net.transfers_held,
                tasks_retried: outcome.faults_recovered,
                tasks_lost: ledger.tasks_lost,
                device_failures: ledger.device_failures,
                controller_failovers: ledger.controller_failovers,
                slo_violations,
                ..RecoveryStats::default()
            };
            if ledger.recovery_events > 0 {
                let n = ledger.recovery_events as f64;
                recovery.mean_detection_secs = ledger.detection_secs_sum / n;
                recovery.mean_recovery_secs = ledger.recovery_secs_sum / n;
            }
            if let Some(cluster) = engine.cluster() {
                let crashes = cluster.crash_stats();
                recovery.server_crashes = crashes.server_crashes;
                recovery.invocations_lost = crashes.invocations_lost;
                recovery.invocations_rescheduled = crashes.invocations_rescheduled;
            }
            if cfg.plan.faults.slo.is_some() {
                recovery.slo_violation_fraction =
                    slo_violations as f64 / (records.len().max(1)) as f64;
            }
            outcome.recovery = Some(recovery);
        }
        // Shed metrics likewise exist only for runs with an active
        // overload policy.
        if cfg.plan.overload.is_active() {
            let mut shed = ShedStats {
                net_holds: engine.fabric().backpressure_holds(),
                ..ShedStats::default()
            };
            if let Some(cluster) = engine.cluster() {
                let oc = cluster.overload_counters();
                shed.invocations_shed = oc.shed_total();
                shed.shed_queue_full = oc.shed_queue_full;
                shed.shed_deadline = oc.shed_deadline;
                shed.shed_breaker = oc.shed_breaker;
                shed.breaker_opens = oc.breaker_opens;
                shed.breaker_open_secs = cluster.breaker_open_time(end).as_secs_f64();
            }
            let ledger = engine.shed_ledger();
            shed.tasks_spilled = ledger.tasks_spilled;
            shed.tasks_shed = ledger.tasks_shed;
            shed.mean_accuracy_penalty_pct =
                ledger.accuracy_penalty_sum_pct / records.len().max(1) as f64;
            outcome.shed = Some(shed);
        }
        // Reconnect metrics likewise exist only for runs with an active
        // disconnect policy. The conservation identity
        // `buffered == replayed + expired + (still buffered at run end)`
        // holds by construction — the counters are read live from the
        // per-device rings and sessions.
        if cfg.plan.disconnect.is_active() {
            let ledger = engine.reconnect_ledger();
            let net = engine.fabric().fault_stats();
            let mut reconnect = ReconnectStats {
                partitions: ledger.partitions,
                lease_expirations: ledger.lease_expirations,
                tasks_degraded: ledger.tasks_degraded,
                updates_buffered: ledger.updates_buffered,
                updates_replayed: ledger.updates_replayed,
                updates_expired: ledger.updates_expired,
                duplicates_dropped: ledger.duplicates_dropped,
                devices_rearmed: ledger.devices_rearmed,
                held_high_water: net.held_high_water,
                transfers_dropped: net.transfers_dropped,
                ..ReconnectStats::default()
            };
            if ledger.updates_replayed > 0 {
                reconnect.mean_staleness_secs =
                    ledger.staleness_secs_sum / ledger.updates_replayed as f64;
            }
            if ledger.tasks_degraded > 0 {
                reconnect.mean_accuracy_penalty_pct =
                    ledger.accuracy_penalty_sum_pct / ledger.tasks_degraded as f64;
            }
            outcome.reconnect = Some(reconnect);
        }
        if mission.duration_secs == 0.0 {
            mission.duration_secs = end.as_secs_f64();
        }
        outcome.mission = mission;
        outcome.trace = engine.take_trace();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(app: App, platform: Platform) -> Outcome {
        Experiment::new(
            ExperimentConfig::single_app(app)
                .platform(platform)
                .duration_secs(20.0)
                .seed(3),
        )
        .run()
    }

    #[test]
    fn single_app_produces_expected_task_count() {
        let outcome = quick(App::WeatherAnalytics, Platform::CentralizedFaaS);
        // 16 devices × 1 task/s × 20 s.
        assert_eq!(outcome.tasks.len(), 320);
        assert!(outcome.mission.completed);
    }

    #[test]
    fn centralized_beats_distributed_for_heavy_apps() {
        let mut cen = quick(App::TextRecognition, Platform::CentralizedFaaS);
        let mut dist = quick(App::TextRecognition, Platform::DistributedEdge);
        assert!(
            cen.median_task_ms() < dist.median_task_ms(),
            "cloud must win S9: {} vs {}",
            cen.median_task_ms(),
            dist.median_task_ms()
        );
    }

    #[test]
    fn distributed_wins_obstacle_avoidance() {
        let mut cen = quick(App::ObstacleAvoidance, Platform::CentralizedFaaS);
        let mut dist = quick(App::ObstacleAvoidance, Platform::DistributedEdge);
        assert!(
            dist.median_task_ms() < cen.median_task_ms(),
            "S4 is better at the edge: {} vs {}",
            dist.median_task_ms(),
            cen.median_task_ms()
        );
    }

    #[test]
    fn hivemind_reduces_network_fraction() {
        let cen = quick(App::FaceRecognition, Platform::CentralizedFaaS);
        let hm = quick(App::FaceRecognition, Platform::HiveMind);
        assert!(
            hm.tasks.network_fraction() < cen.tasks.network_fraction(),
            "network share must drop: {} -> {}",
            cen.tasks.network_fraction(),
            hm.tasks.network_fraction()
        );
    }

    #[test]
    fn load_profile_limits_arrivals() {
        let outcome = Experiment::new(
            ExperimentConfig::single_app(App::WeatherAnalytics)
                .platform(Platform::CentralizedFaaS)
                .duration_secs(20.0)
                .load_profile(vec![(0.0, 2), (10.0, 4)])
                .seed(1),
        )
        .run();
        // 2 devices × 10 s + 4 devices × 10 s = 60 tasks.
        assert_eq!(outcome.tasks.len(), 60);
    }

    #[test]
    fn faults_are_recovered_not_lost() {
        let outcome = Experiment::new(
            ExperimentConfig::single_app(App::FaceRecognition)
                .platform(Platform::CentralizedFaaS)
                .duration_secs(20.0)
                .fault_rate(0.2)
                .seed(2),
        )
        .run();
        assert_eq!(outcome.tasks.len(), 320, "every task completes");
        assert!(outcome.faults_recovered > 20);
    }

    #[test]
    fn battery_and_bandwidth_populate() {
        let outcome = quick(App::FaceRecognition, Platform::CentralizedFaaS);
        assert!(outcome.battery.mean_pct > 0.0);
        assert!(outcome.bandwidth.total_mb > 500.0, "16 devices × 20 × 2 MB");
        assert!(outcome.bandwidth.mean_mbps > 0.0);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let mut a = quick(App::SoilAnalytics, Platform::HiveMind);
        let mut b = quick(App::SoilAnalytics, Platform::HiveMind);
        assert_eq!(a.tasks.len(), b.tasks.len());
        assert_eq!(a.median_task_ms(), b.median_task_ms());
        assert_eq!(a.p99_task_ms(), b.p99_task_ms());
    }

    #[test]
    fn inert_overload_policy_is_byte_identical() {
        let base = Experiment::new(
            ExperimentConfig::single_app(App::FaceRecognition)
                .duration_secs(15.0)
                .seed(7),
        )
        .run();
        let with_default = Experiment::new(
            ExperimentConfig::single_app(App::FaceRecognition)
                .duration_secs(15.0)
                .plan(RunPlan::new().overload(OverloadPolicy::default()))
                .seed(7),
        )
        .run();
        assert_eq!(base.to_json(), with_default.to_json());
        assert!(with_default.shed.is_none());
    }

    fn overloaded(policy: OverloadPolicy) -> Outcome {
        Experiment::new(
            ExperimentConfig::single_app(App::Slam)
                .platform(Platform::CentralizedFaaS)
                .servers(1)
                .duration_secs(20.0)
                .rate_scale(4.0)
                .plan(RunPlan::new().overload(policy))
                .seed(2),
        )
        .run()
    }

    #[test]
    fn bounded_queue_sheds_under_overload() {
        let outcome = overloaded(OverloadPolicy::default().queue_bound(8));
        let shed = outcome.shed.expect("active policy populates shed stats");
        assert!(shed.invocations_shed > 0, "saturated queue must shed");
        assert_eq!(shed.invocations_shed, shed.shed_queue_full);
        assert_eq!(shed.tasks_shed, shed.invocations_shed);
        assert_eq!(shed.tasks_spilled, 0);
        // Shed tasks produce no record.
        let total = outcome.tasks.len() as u64 + shed.tasks_shed;
        assert!(!outcome.tasks.is_empty() && total > outcome.tasks.len() as u64);
        assert!(outcome
            .to_json()
            .contains("\"shed\":{\"invocations_shed\":"));
    }

    #[test]
    fn spillover_completes_shed_tasks_on_device() {
        let bounded = overloaded(OverloadPolicy::default().queue_bound(8));
        let spilled = overloaded(OverloadPolicy::default().queue_bound(8).spillover());
        let stats = spilled.shed.expect("shed stats");
        assert!(stats.tasks_spilled > 0, "shed work must spill to devices");
        assert_eq!(stats.tasks_shed, 0, "spillover leaves no task abandoned");
        assert!(stats.mean_accuracy_penalty_pct > 0.0);
        assert!(
            spilled.tasks.len() > bounded.tasks.len(),
            "spillover recovers goodput: {} vs {}",
            spilled.tasks.len(),
            bounded.tasks.len()
        );
    }

    #[test]
    fn invalid_overload_policy_is_rejected() {
        let cfg = ExperimentConfig::single_app(App::FaceRecognition)
            .plan(RunPlan::new().overload(OverloadPolicy::default().per_app_limit(0)));
        match Experiment::try_new(cfg) {
            Err(ConfigError::InvalidOverloadPolicy(msg)) => {
                assert!(msg.contains("per_app_limit"), "{msg}");
            }
            other => panic!("expected InvalidOverloadPolicy, got {other:?}"),
        }
    }

    #[test]
    fn inert_disconnect_policy_is_byte_identical() {
        let base = Experiment::new(
            ExperimentConfig::single_app(App::FaceRecognition)
                .duration_secs(15.0)
                .seed(7),
        )
        .run();
        let with_default = Experiment::new(
            ExperimentConfig::single_app(App::FaceRecognition)
                .duration_secs(15.0)
                .plan(RunPlan::new().disconnect(DisconnectPolicy::default()))
                .seed(7),
        )
        .run();
        assert_eq!(base.to_json(), with_default.to_json());
        assert!(with_default.reconnect.is_none());
    }

    fn partitioned(policy: DisconnectPolicy) -> Outcome {
        Experiment::new(
            ExperimentConfig::single_app(App::FaceRecognition)
                .platform(Platform::CentralizedFaaS)
                .duration_secs(25.0)
                .plan(
                    RunPlan::new()
                        .faults(FaultPlan::default().partition(5.0, 15.0))
                        .disconnect(policy),
                )
                .seed(9),
        )
        .run()
    }

    #[test]
    fn partition_with_autonomy_degrades_and_replays() {
        let o = partitioned(DisconnectPolicy::default().autonomous());
        let r = o.reconnect.expect("armed plane populates reconnect stats");
        assert_eq!(r.partitions, 1);
        assert!(r.lease_expirations > 0, "leases expire inside the window");
        assert!(r.tasks_degraded > 0, "cut-off uplinks run on-device");
        assert!(r.updates_replayed > 0, "the heal replays the buffer");
        assert_eq!(
            r.updates_buffered,
            r.updates_replayed + r.updates_expired,
            "after the heal every buffered update was replayed or expired"
        );
        assert_eq!(r.duplicates_dropped, 0, "one heal, one session, no dups");
        assert!(r.mean_staleness_secs > 0.0, "replayed updates aged");
        assert!(r.mean_accuracy_penalty_pct > 0.0);
        assert_eq!(o.tasks.len(), 400, "no task is lost to the partition");
        assert!(o.to_json().contains("\"reconnect\":{\"partitions\":"));
    }

    #[test]
    fn lease_longer_than_partition_never_degrades() {
        // The device's lease outlives the whole outage, so it keeps
        // trusting the cloud and every transfer simply holds (the
        // baseline path) — the plane is armed but never fires.
        let o = partitioned(
            DisconnectPolicy::default()
                .autonomous()
                .lease_timeout(SimDuration::from_secs(30)),
        );
        let r = o.reconnect.expect("armed plane populates reconnect stats");
        assert_eq!(r.partitions, 1, "the heal still reconciles");
        assert_eq!(r.tasks_degraded, 0);
        assert_eq!(r.updates_replayed, 0);
        assert_eq!(o.tasks.len(), 400);
    }

    #[test]
    fn invalid_disconnect_policy_is_rejected() {
        let cfg = ExperimentConfig::single_app(App::FaceRecognition)
            .plan(RunPlan::new().disconnect(DisconnectPolicy::default().buffer_cap(0)));
        match Experiment::try_new(cfg) {
            Err(ConfigError::InvalidDisconnectPolicy(msg)) => {
                assert!(msg.contains("buffer_cap"), "{msg}");
            }
            other => panic!("expected InvalidDisconnectPolicy, got {other:?}"),
        }
    }

    #[test]
    fn plan_activity_and_validation() {
        // Tracing and sharding never change a metric, so they leave a
        // plan inert; every other plane makes it active.
        assert!(!RunPlan::new().trace(true).shards(2).is_active());
        let planes = [
            RunPlan::new().fail_device(20.0, 5),
            RunPlan::new().faults(FaultPlan::default().packet_loss(0.05)),
            RunPlan::new().overload(OverloadPolicy::default().per_app_limit(8)),
        ];
        assert!(planes.iter().all(RunPlan::is_active));
        let plan = RunPlan::new()
            .fail_device(20.0, 5)
            .faults(FaultPlan::default().packet_loss(0.05))
            .overload(OverloadPolicy::default().per_app_limit(8))
            .trace(true);
        assert!(plan.is_active());
        ExperimentConfig::single_app(App::FaceRecognition)
            .plan(plan)
            .validate()
            .expect("combined plan validates");
    }

    #[test]
    fn oversharded_plan_is_rejected() {
        let cfg = ExperimentConfig::single_app(App::FaceRecognition)
            .devices(4)
            .plan(RunPlan::new().shards(5));
        match Experiment::try_new(cfg) {
            Err(ConfigError::InvalidShardPlan {
                shards: 5,
                fleet: 4,
            }) => {}
            other => panic!("expected InvalidShardPlan, got {other:?}"),
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Experiment::new(
            ExperimentConfig::single_app(App::SoilAnalytics)
                .duration_secs(10.0)
                .seed(1),
        )
        .run();
        let mut b = Experiment::new(
            ExperimentConfig::single_app(App::SoilAnalytics)
                .duration_secs(10.0)
                .seed(2),
        )
        .run();
        assert_ne!(a.median_task_ms(), b.median_task_ms());
    }
}
