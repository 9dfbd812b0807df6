//! Unified, deterministic fault-injection plane.
//!
//! The paper's fault-tolerance story (Sec. 4.6, Fig. 5c, Fig. 10) spans
//! every layer of the stack: failed functions respawn, crashed servers
//! lose their in-flight invocations, silent drones are detected by missed
//! heartbeats and their area is repartitioned, and a backup controller
//! takes over when the primary dies. A [`FaultPlan`] describes all of
//! those disturbances — scheduled ones (a server crash at t=30 s) and
//! stochastic ones (5 % packet loss, exponential device MTBF) — in one
//! declarative value that experiments attach via
//! `ExperimentConfig::faults`.
//!
//! ## Determinism contract
//!
//! Every stochastic draw a fault makes comes from a *dedicated lane* of
//! the replicate's seed chain (`RngForge::child("faults")`), never from
//! the streams the fault-free simulation uses. Two consequences:
//!
//! 1. a run with an inert plan ([`FaultPlan::default`]) is **bit-for-bit
//!    identical** to a run with no plan at all — no fault RNG is even
//!    created, so no stream is perturbed;
//! 2. changing a fault knob (say the packet-loss rate) never reshuffles
//!    the workload's own randomness, so degradation curves compare the
//!    *same* task sample under different disturbance levels.
//!
//! The consumers live in their own crates — `net::fabric` applies
//! [`NetFaults`], `faas::cluster` applies [`ServerCrash`] schedules and
//! the [`RetryPolicy`], and `core::mission`/`core::controller` apply
//! [`DeviceFaults`] — but the vocabulary is defined here so a plan can be
//! validated and threaded as one value.

use std::fmt;

use crate::time::SimDuration;

/// Trace category used by every fault-plane event
/// (`fault/injected`, `fault/detected`, `fault/recovered`).
pub const TRACE_CAT: &str = "fault";
/// Trace event name emitted at the instant a fault strikes.
pub const EV_INJECTED: &str = "injected";
/// Trace event name emitted when the system *notices* the fault.
pub const EV_DETECTED: &str = "detected";
/// Trace event name emitted when service is restored.
pub const EV_RECOVERED: &str = "recovered";

/// The paper's heartbeat-based failure-detection window: a device (or the
/// primary controller) is declared dead after 3 s of missed heartbeats
/// (Sec. 4.6).
pub const DETECTION_WINDOW: SimDuration = SimDuration::from_secs(3);

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
///
/// Typed variants (instead of a bare string) let config gates match on
/// the exact defect — a NaN window versus an overlapping partition — and
/// keep the boundary conditions unit-testable one by one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A probability knob outside `[0, 1]` (or NaN).
    InvalidProbability {
        /// Which knob.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `net.bandwidth_factor` outside `(0, 1]` (or NaN).
    InvalidBandwidthFactor {
        /// The offending value.
        value: f64,
    },
    /// A fault window that is NaN/infinite, starts before `t = 0`, or is
    /// inverted/empty (`until <= from`).
    InvalidWindow {
        /// Which window family (`"partition"`, `"link outage"`).
        name: &'static str,
        /// Window start, seconds.
        from: f64,
        /// Window end, seconds.
        until: f64,
    },
    /// Two partition windows overlap; hold/heal accounting needs them
    /// disjoint (merge adjacent windows into one instead).
    OverlappingPartitions {
        /// End of the earlier window, seconds.
        first_until: f64,
        /// Start of the later window that begins before `first_until`.
        second_from: f64,
    },
    /// A per-device fault targets a device id beyond the fleet.
    DeviceOutOfRange {
        /// The offending id.
        device: u32,
        /// Fleet size.
        fleet: u32,
    },
    /// A server crash targets a server id beyond the cluster.
    ServerOutOfRange {
        /// The offending id.
        server: u32,
        /// Cluster size.
        cluster: u32,
    },
    /// A server crash with a negative/NaN instant or non-positive
    /// downtime.
    InvalidServerCrash {
        /// Crash instant, seconds.
        at: f64,
        /// Downtime, seconds.
        down: f64,
    },
    /// `retry.max_attempts == 0`.
    ZeroRetryAttempts,
    /// `retry.backoff_factor < 1` (or NaN).
    InvalidBackoffFactor {
        /// The offending value.
        value: f64,
    },
    /// A non-positive (or NaN) device MTBF.
    InvalidMtbf {
        /// The offending value.
        value: f64,
    },
    /// A negative (or NaN) controller-failover instant.
    InvalidControllerFailover {
        /// The offending value.
        value: f64,
    },
    /// A negative (or NaN) controller-takeover duration.
    InvalidTakeover {
        /// The offending value.
        value: f64,
    },
    /// `net.hold_bound == Some(0)`: a zero-capacity hold buffer would
    /// drop every held transfer.
    ZeroHoldBound,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::InvalidProbability { name, value } => {
                write!(f, "{name} must be a probability in [0, 1], got {value}")
            }
            FaultPlanError::InvalidBandwidthFactor { value } => {
                write!(f, "net.bandwidth_factor must be in (0, 1], got {value}")
            }
            FaultPlanError::InvalidWindow { name, from, until } => write!(
                f,
                "{name} window must satisfy 0 <= from < until, got [{from}, {until})"
            ),
            FaultPlanError::OverlappingPartitions {
                first_until,
                second_from,
            } => write!(
                f,
                "partitions overlap: a window starting at {second_from} s begins before \
                 an earlier window ends at {first_until} s (merge them instead)"
            ),
            FaultPlanError::DeviceOutOfRange { device, fleet } => write!(
                f,
                "link outage targets device {device} but the fleet has {fleet}"
            ),
            FaultPlanError::ServerOutOfRange { server, cluster } => write!(
                f,
                "server crash targets server {server} but the cluster has {cluster}"
            ),
            FaultPlanError::InvalidServerCrash { at, down } => write!(
                f,
                "server crash needs at_secs >= 0 and down_secs > 0, got at {at} down {down}"
            ),
            FaultPlanError::ZeroRetryAttempts => {
                write!(f, "retry.max_attempts must be at least 1")
            }
            FaultPlanError::InvalidBackoffFactor { value } => {
                write!(f, "retry.backoff_factor must be >= 1, got {value}")
            }
            FaultPlanError::InvalidMtbf { value } => {
                write!(f, "devices.mtbf_secs must be positive, got {value}")
            }
            FaultPlanError::InvalidControllerFailover { value } => write!(
                f,
                "devices.controller_failover_at_secs must be >= 0, got {value}"
            ),
            FaultPlanError::InvalidTakeover { value } => write!(
                f,
                "devices.controller_takeover_secs must be >= 0, got {value}"
            ),
            FaultPlanError::ZeroHoldBound => {
                write!(f, "net.hold_bound must be at least 1 when set")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative description of every disturbance injected into one run.
///
/// The default plan is **inert**: [`FaultPlan::is_active`] returns
/// `false` and every consumer skips its fault path entirely, leaving the
/// simulation byte-identical to one that never heard of faults.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::faults::FaultPlan;
///
/// let plan = FaultPlan::default()
///     .packet_loss(0.05)
///     .server_crash(2, 30.0, 15.0)
///     .function_fault_rate(0.10)
///     .device_mtbf(600.0);
/// assert!(plan.is_active());
/// assert!(plan.validate(16, 4).is_ok());
/// assert!(!FaultPlan::default().is_active());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Network-layer disturbances (loss, degradation, outages, partitions).
    pub net: NetFaults,
    /// Scheduled cloud-server crash/recover windows.
    pub servers: Vec<ServerCrash>,
    /// Function-level failure process and the retry policy that masks it.
    pub functions: FunctionFaults,
    /// Device-fleet and controller failures.
    pub devices: DeviceFaults,
    /// Optional end-to-end latency SLO; when set, the recovery metrics
    /// report the fraction of completed tasks that violated it.
    pub slo: Option<SimDuration>,
}

impl FaultPlan {
    /// `true` if any knob deviates from the inert default.
    pub fn is_active(&self) -> bool {
        self.net.is_active()
            || !self.servers.is_empty()
            || self.functions.is_active()
            || self.devices.is_active()
            || self.slo.is_some()
    }

    /// Sets the per-transfer wireless packet-loss probability.
    pub fn packet_loss(mut self, p: f64) -> Self {
        self.net.packet_loss = p;
        self
    }

    /// Scales wireless bandwidth by `factor` (e.g. `0.5` halves it).
    pub fn bandwidth_factor(mut self, factor: f64) -> Self {
        self.net.bandwidth_factor = factor;
        self
    }

    /// Takes one device's WiFi link down over `[from_secs, until_secs)`.
    pub fn link_outage(mut self, device: u32, from_secs: f64, until_secs: f64) -> Self {
        self.net.disconnects.push(LinkOutage {
            device,
            from_secs,
            until_secs,
        });
        self
    }

    /// Partitions the whole wireless segment over `[from_secs, until_secs)`.
    pub fn partition(mut self, from_secs: f64, until_secs: f64) -> Self {
        self.net.partitions.push(Partition {
            from_secs,
            until_secs,
        });
        self
    }

    /// Crashes cloud server `server` at `at_secs` for `down_secs` seconds.
    pub fn server_crash(mut self, server: u32, at_secs: f64, down_secs: f64) -> Self {
        self.servers.push(ServerCrash {
            server,
            at_secs,
            down_secs,
        });
        self
    }

    /// Sets the per-attempt function failure probability (overrides the
    /// platform's calibrated `fault_rate`).
    pub fn function_fault_rate(mut self, rate: f64) -> Self {
        self.functions.fault_rate = Some(rate);
        self
    }

    /// Replaces the function retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.functions.retry = policy;
        self
    }

    /// Enables stochastic device failures with the given mean time
    /// between failures (exponential, per device).
    pub fn device_mtbf(mut self, mtbf_secs: f64) -> Self {
        self.devices.mtbf_secs = Some(mtbf_secs);
        self
    }

    /// Kills the primary controller at `at_secs`; the backup takes over
    /// after the 3 s detection window plus the configured takeover time.
    pub fn controller_failover(mut self, at_secs: f64) -> Self {
        self.devices.controller_failover_at_secs = Some(at_secs);
        self
    }

    /// Bounds the fabric's partition hold buffer to `bound` transfers:
    /// when a hold would exceed it, the newest transfer is dropped and
    /// counted instead of growing the buffer silently.
    pub fn partition_hold_bound(mut self, bound: u32) -> Self {
        self.net.hold_bound = Some(bound);
        self
    }

    /// Sets the end-to-end latency SLO used for the violation fraction.
    pub fn slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Checks every knob against the fleet shape (`devices` drones,
    /// `servers` cloud servers). Returns the first problem found as a
    /// typed [`FaultPlanError`] (human-readable through `Display`).
    pub fn validate(&self, devices: u32, servers: u32) -> Result<(), FaultPlanError> {
        let prob = |name: &'static str, p: f64| -> Result<(), FaultPlanError> {
            // NaN fails the range check too (comparisons are false).
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultPlanError::InvalidProbability { name, value: p });
            }
            Ok(())
        };
        let window = |name: &'static str, from: f64, until: f64| -> Result<(), FaultPlanError> {
            if !(from.is_finite() && until.is_finite()) || from < 0.0 || until <= from {
                return Err(FaultPlanError::InvalidWindow { name, from, until });
            }
            Ok(())
        };
        prob("net.packet_loss", self.net.packet_loss)?;
        if !(self.net.bandwidth_factor > 0.0 && self.net.bandwidth_factor <= 1.0) {
            return Err(FaultPlanError::InvalidBandwidthFactor {
                value: self.net.bandwidth_factor,
            });
        }
        for o in &self.net.disconnects {
            if o.device >= devices {
                return Err(FaultPlanError::DeviceOutOfRange {
                    device: o.device,
                    fleet: devices,
                });
            }
            window("link outage", o.from_secs, o.until_secs)?;
        }
        for p in &self.net.partitions {
            window("partition", p.from_secs, p.until_secs)?;
        }
        // Partition windows must be pairwise disjoint: hold/heal (and the
        // disconnect plane's reconnect sessions) account per window, and
        // an overlap almost always means two schedules were concatenated
        // by mistake. Sorted by start, any overlap is adjacent.
        let mut starts: Vec<(f64, f64)> = self
            .net
            .partitions
            .iter()
            .map(|p| (p.from_secs, p.until_secs))
            .collect();
        starts.sort_by(|a, b| a.partial_cmp(b).expect("windows validated finite"));
        for pair in starts.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(FaultPlanError::OverlappingPartitions {
                    first_until: pair[0].1,
                    second_from: pair[1].0,
                });
            }
        }
        if self.net.hold_bound == Some(0) {
            return Err(FaultPlanError::ZeroHoldBound);
        }
        for c in &self.servers {
            if c.server >= servers {
                return Err(FaultPlanError::ServerOutOfRange {
                    server: c.server,
                    cluster: servers,
                });
            }
            let at_ok = c.at_secs.is_finite() && c.at_secs >= 0.0;
            let down_ok = c.down_secs.is_finite() && c.down_secs > 0.0;
            if !at_ok || !down_ok {
                return Err(FaultPlanError::InvalidServerCrash {
                    at: c.at_secs,
                    down: c.down_secs,
                });
            }
        }
        if let Some(r) = self.functions.fault_rate {
            prob("functions.fault_rate", r)?;
        }
        let rp = &self.functions.retry;
        if rp.max_attempts == 0 {
            return Err(FaultPlanError::ZeroRetryAttempts);
        }
        // NaN-safe: a NaN backoff factor must be rejected too.
        if rp.backoff_factor.is_nan() || rp.backoff_factor < 1.0 {
            return Err(FaultPlanError::InvalidBackoffFactor {
                value: rp.backoff_factor,
            });
        }
        if let Some(mtbf) = self.devices.mtbf_secs {
            // NaN-safe: a NaN MTBF must be rejected too.
            let ok = mtbf.is_finite() && mtbf > 0.0;
            if !ok {
                return Err(FaultPlanError::InvalidMtbf { value: mtbf });
            }
        }
        if let Some(at) = self.devices.controller_failover_at_secs {
            if !(at.is_finite() && at >= 0.0) {
                return Err(FaultPlanError::InvalidControllerFailover { value: at });
            }
        }
        let takeover = self.devices.controller_takeover_secs;
        if !(takeover.is_finite() && takeover >= 0.0) {
            return Err(FaultPlanError::InvalidTakeover { value: takeover });
        }
        Ok(())
    }
}

/// Network-layer disturbances applied by `net::fabric` to transfers that
/// cross the wireless segment (wired cloud links are assumed reliable,
/// matching the paper's testbed where only the WiFi uplink is lossy).
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaults {
    /// Per-transfer probability that a wireless transfer needs a
    /// retransmission round before it gets through.
    pub packet_loss: f64,
    /// Delay added per retransmission round (default 200 ms ≈ WiFi
    /// retransmit + backoff at the transport layer).
    pub retransmit: SimDuration,
    /// Multiplier on wireless bandwidth (1.0 = nominal). Applied when the
    /// topology is built, so it degrades every transfer uniformly.
    pub bandwidth_factor: f64,
    /// Per-device WiFi disconnect windows; transfers touching the device
    /// are held until the window closes (then retried).
    pub disconnects: Vec<LinkOutage>,
    /// Whole-segment partitions; every wireless transfer is held until
    /// the partition heals.
    pub partitions: Vec<Partition>,
    /// Upper bound on how many transfers the fabric may hold behind
    /// partition/outage windows at once. `None` (the default) keeps the
    /// historical unbounded-hold behaviour; `Some(n)` tail-drops the
    /// newest transfer once `n` are already held, counting each drop.
    pub hold_bound: Option<u32>,
}

impl Default for NetFaults {
    fn default() -> Self {
        NetFaults {
            packet_loss: 0.0,
            retransmit: SimDuration::from_millis(200),
            bandwidth_factor: 1.0,
            disconnects: Vec::new(),
            partitions: Vec::new(),
            hold_bound: None,
        }
    }
}

impl NetFaults {
    /// `true` if any network knob deviates from the inert default.
    pub fn is_active(&self) -> bool {
        self.packet_loss > 0.0
            || self.bandwidth_factor != 1.0
            || !self.disconnects.is_empty()
            || !self.partitions.is_empty()
            || self.hold_bound.is_some()
    }

    /// `true` if the fabric needs a per-transfer fault pass (loss or
    /// hold-back windows; pure bandwidth degradation is applied once at
    /// topology build time and needs no per-transfer work).
    pub fn per_transfer(&self) -> bool {
        self.packet_loss > 0.0 || !self.disconnects.is_empty() || !self.partitions.is_empty()
    }

    /// If a whole-segment partition covers instant `t_secs`, returns the
    /// heal instant (the latest `until` of any covering window — windows
    /// are validated disjoint, but chained coverage is still folded).
    ///
    /// This is the *pure* partition query the disconnect plane routes on:
    /// it inspects only the declarative plan, so hold-vs-degrade decisions
    /// stay byte-identical across shard and thread counts.
    pub fn partition_until(&self, t_secs: f64) -> Option<f64> {
        let mut release: Option<f64> = None;
        loop {
            let t = release.unwrap_or(t_secs);
            let next = self
                .partitions
                .iter()
                .filter(|p| t >= p.from_secs && t < p.until_secs)
                .map(|p| p.until_secs)
                .fold(None::<f64>, |acc, u| Some(acc.map_or(u, |a| a.max(u))));
            match next {
                Some(u) if Some(u) != release => release = Some(u),
                _ => return release,
            }
        }
    }

    /// Every distinct heal instant, ascending: each window's
    /// [`NetFaults::partition_until`] from its start, so chained windows
    /// fold to their final heal and report it once.
    pub fn heal_instants(&self) -> Vec<f64> {
        let mut heals: Vec<f64> = self
            .partitions
            .iter()
            .filter_map(|p| self.partition_until(p.from_secs))
            .collect();
        heals.sort_by(f64::total_cmp);
        heals.dedup();
        heals
    }
}

/// One device's WiFi link down over `[from_secs, until_secs)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOutage {
    /// Device whose uplink disconnects.
    pub device: u32,
    /// Window start, seconds from run start.
    pub from_secs: f64,
    /// Window end (reconnect), seconds from run start.
    pub until_secs: f64,
}

/// A whole-segment wireless partition over `[from_secs, until_secs)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Window start, seconds from run start.
    pub from_secs: f64,
    /// Window end (heal), seconds from run start.
    pub until_secs: f64,
}

/// A scheduled cloud-server crash: the server drops out at `at_secs`,
/// loses every in-flight invocation (they are rescheduled), and rejoins
/// the cluster `down_secs` later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCrash {
    /// Index of the server to crash.
    pub server: u32,
    /// Crash instant, seconds from run start.
    pub at_secs: f64,
    /// How long the server stays down.
    pub down_secs: f64,
}

/// Function-level failure process plus the policy that masks it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FunctionFaults {
    /// Per-attempt failure probability. `None` keeps the platform's
    /// calibrated fault rate; `Some(r)` overrides it.
    pub fault_rate: Option<f64>,
    /// Retry/timeout/backoff policy applied to every invocation.
    pub retry: RetryPolicy,
}

impl FunctionFaults {
    /// `true` if any function knob deviates from the inert default.
    pub fn is_active(&self) -> bool {
        self.fault_rate.is_some() || self.retry != RetryPolicy::default()
    }
}

/// Retry/timeout/exponential-backoff policy for failed function attempts.
///
/// The default reproduces the repo's historical behaviour exactly: up to
/// 6 attempts (5 respawns), no timeout, no backoff pause, and the final
/// attempt always succeeds ("OpenWhisk retries until the function
/// completes"). Any run using the default policy draws the same RNG
/// sequence as before this policy existed.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per invocation (first try + retries).
    pub max_attempts: u32,
    /// Kill an attempt whose execution would exceed this budget and
    /// retry it (`None` = attempts run to completion).
    pub timeout: Option<SimDuration>,
    /// Pause before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the pause after every retry (>= 1).
    pub backoff_factor: f64,
    /// Upper bound on the backoff pause.
    pub backoff_max: SimDuration,
    /// If `true`, an invocation whose final attempt also faults is
    /// reported as failed (`Outcome::Failed`) instead of being forced to
    /// succeed; the task that spawned it counts as lost.
    pub give_up: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            timeout: None,
            backoff_base: SimDuration::ZERO,
            backoff_factor: 2.0,
            backoff_max: SimDuration::from_secs(10),
            give_up: false,
        }
    }
}

impl RetryPolicy {
    /// A policy that retries at most `max_attempts` times and gives up
    /// afterwards, with exponential backoff starting at `backoff_base`.
    pub fn bounded(max_attempts: u32, backoff_base: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            backoff_base,
            give_up: true,
            ..Self::default()
        }
    }

    /// The pause to insert before retry number `retry` (0-based).
    ///
    /// Closed form with saturation: `min(base · factor^retry,
    /// backoff_max)`. The exponent is computed in `f64`, so a huge
    /// `backoff_factor` or retry count overflows to `+inf` and saturates
    /// cleanly at `backoff_max` instead of looping `retry` times. Retry 0
    /// returns the base unclamped, matching the historical loop.
    pub fn backoff(&self, retry: u32) -> SimDuration {
        if self.backoff_base == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        if retry == 0 {
            return self.backoff_base;
        }
        let scale = self.backoff_factor.powf(retry as f64);
        self.backoff_base.mul_f64(scale).min(self.backoff_max)
    }

    /// What the policy does about attempt failure number `respawns`
    /// (0-based count of respawns already performed).
    ///
    /// This is the pure decision kernel shared by the DES cluster loop
    /// and the model checker: given how many respawns happened so far, a
    /// faulted attempt either retries (with the matching backoff pause),
    /// gives up, or — for unbounded policies reproducing the historical
    /// "OpenWhisk retries until completion" semantics — forces the final
    /// attempt to succeed.
    pub fn on_fault(&self, respawns: u32) -> RetryDecision {
        if respawns + 1 < self.max_attempts {
            RetryDecision::Retry {
                backoff: self.backoff(respawns),
            }
        } else if self.give_up {
            RetryDecision::GiveUp
        } else {
            RetryDecision::ForceSuccess
        }
    }
}

/// Outcome of [`RetryPolicy::on_fault`] for one faulted attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryDecision {
    /// Respawn the attempt after pausing for `backoff`.
    Retry {
        /// Pause to insert before the respawn.
        backoff: SimDuration,
    },
    /// Attempts are exhausted and the policy is bounded: report failure.
    GiveUp,
    /// Attempts are exhausted but the policy is unbounded: the final
    /// attempt is forced to succeed (historical OpenWhisk semantics).
    ForceSuccess,
}

/// Device-fleet and controller failures.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceFaults {
    /// Mean time between failures per device (exponential). Failure
    /// times are drawn once per device from the dedicated fault lane and
    /// merged with the scripted `fail_device` schedule.
    pub mtbf_secs: Option<f64>,
    /// Kill the primary controller at this instant; the backup takes
    /// over after [`DETECTION_WINDOW`] plus `controller_takeover_secs`.
    pub controller_failover_at_secs: Option<f64>,
    /// Warm-standby takeover time once the failure is detected (state
    /// re-sync + scheduler restart).
    pub controller_takeover_secs: f64,
}

impl Default for DeviceFaults {
    fn default() -> Self {
        DeviceFaults {
            mtbf_secs: None,
            controller_failover_at_secs: None,
            controller_takeover_secs: 0.5,
        }
    }
}

impl DeviceFaults {
    /// `true` if any device knob deviates from the inert default.
    pub fn is_active(&self) -> bool {
        self.mtbf_secs.is_some() || self.controller_failover_at_secs.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(!plan.net.is_active());
        assert!(!plan.functions.is_active());
        assert!(!plan.devices.is_active());
        assert!(plan.validate(1, 1).is_ok());
    }

    #[test]
    fn builders_activate_their_layer() {
        assert!(FaultPlan::default().packet_loss(0.01).net.is_active());
        assert!(FaultPlan::default().bandwidth_factor(0.5).net.is_active());
        assert!(FaultPlan::default()
            .link_outage(0, 1.0, 2.0)
            .net
            .is_active());
        assert!(FaultPlan::default().partition(1.0, 2.0).net.is_active());
        assert!(FaultPlan::default()
            .function_fault_rate(0.1)
            .functions
            .is_active());
        assert!(FaultPlan::default()
            .retry(RetryPolicy::bounded(3, SimDuration::ZERO))
            .functions
            .is_active());
        assert!(FaultPlan::default().device_mtbf(100.0).devices.is_active());
        assert!(FaultPlan::default()
            .controller_failover(10.0)
            .devices
            .is_active());
        assert!(FaultPlan::default().server_crash(0, 1.0, 1.0).is_active());
        assert!(FaultPlan::default()
            .slo(SimDuration::from_secs(1))
            .is_active());
    }

    #[test]
    fn pure_bandwidth_degradation_needs_no_per_transfer_pass() {
        let plan = FaultPlan::default().bandwidth_factor(0.5);
        assert!(plan.net.is_active());
        assert!(!plan.net.per_transfer());
        assert!(FaultPlan::default().packet_loss(0.01).net.per_transfer());
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let fleet = |p: FaultPlan| p.validate(8, 4);
        assert!(fleet(FaultPlan::default().packet_loss(1.5)).is_err());
        assert!(fleet(FaultPlan::default().bandwidth_factor(0.0)).is_err());
        assert!(fleet(FaultPlan::default().link_outage(8, 1.0, 2.0)).is_err());
        assert!(fleet(FaultPlan::default().link_outage(0, 2.0, 1.0)).is_err());
        assert!(fleet(FaultPlan::default().partition(-1.0, 2.0)).is_err());
        assert!(fleet(FaultPlan::default().server_crash(4, 1.0, 1.0)).is_err());
        assert!(fleet(FaultPlan::default().server_crash(0, 1.0, 0.0)).is_err());
        assert!(fleet(FaultPlan::default().function_fault_rate(-0.1)).is_err());
        assert!(fleet(FaultPlan::default().device_mtbf(0.0)).is_err());
        assert!(fleet(FaultPlan::default().controller_failover(-1.0)).is_err());
        let mut bad_retry = FaultPlan::default();
        bad_retry.functions.retry.max_attempts = 0;
        assert!(fleet(bad_retry).is_err());
    }

    #[test]
    fn validate_rejects_degenerate_windows_with_typed_errors() {
        let fleet = |p: FaultPlan| p.validate(8, 4);
        // NaN start, NaN end, negative start, inverted, empty.
        for (from, until) in [
            (f64::NAN, 2.0),
            (1.0, f64::NAN),
            (f64::INFINITY, f64::INFINITY),
            (-0.5, 2.0),
            (3.0, 2.0),
            (2.0, 2.0),
        ] {
            // matches! rather than assert_eq: NaN payloads never compare
            // equal, but the variant and window family must be right.
            assert!(
                matches!(
                    fleet(FaultPlan::default().partition(from, until)),
                    Err(FaultPlanError::InvalidWindow {
                        name: "partition",
                        ..
                    })
                ),
                "partition [{from}, {until}) must be rejected"
            );
            assert!(
                matches!(
                    fleet(FaultPlan::default().link_outage(0, from, until)),
                    Err(FaultPlanError::InvalidWindow {
                        name: "link outage",
                        ..
                    })
                ),
                "link outage [{from}, {until}) must be rejected"
            );
        }
        // NaN comparisons are false, so a NaN window must not slip past
        // the ordering check either.
        assert!(fleet(FaultPlan::default().partition(f64::NAN, f64::NAN)).is_err());
    }

    #[test]
    fn validate_rejects_overlapping_partitions() {
        let fleet = |p: FaultPlan| p.validate(8, 4);
        // Strict overlap, in either declaration order.
        assert_eq!(
            fleet(FaultPlan::default().partition(1.0, 5.0).partition(4.0, 8.0)),
            Err(FaultPlanError::OverlappingPartitions {
                first_until: 5.0,
                second_from: 4.0,
            })
        );
        assert!(fleet(FaultPlan::default().partition(4.0, 8.0).partition(1.0, 5.0)).is_err());
        // Full containment.
        assert!(fleet(
            FaultPlan::default()
                .partition(1.0, 10.0)
                .partition(3.0, 4.0)
        )
        .is_err());
        // Back-to-back windows sharing a boundary instant are disjoint
        // (half-open intervals): accepted.
        assert!(fleet(FaultPlan::default().partition(1.0, 5.0).partition(5.0, 8.0)).is_ok());
        // Disjoint with a gap: accepted.
        assert!(fleet(
            FaultPlan::default()
                .partition(1.0, 2.0)
                .partition(30.0, 40.0)
        )
        .is_ok());
    }

    #[test]
    fn validate_rejects_nan_backoff_and_zero_hold_bound() {
        let fleet = |p: FaultPlan| p.validate(8, 4);
        let mut nan_backoff = FaultPlan::default();
        nan_backoff.functions.retry.backoff_factor = f64::NAN;
        assert!(matches!(
            fleet(nan_backoff),
            Err(FaultPlanError::InvalidBackoffFactor { value }) if value.is_nan()
        ));
        assert_eq!(
            fleet(FaultPlan::default().partition_hold_bound(0)),
            Err(FaultPlanError::ZeroHoldBound)
        );
        assert!(fleet(FaultPlan::default().partition_hold_bound(1)).is_ok());
        // A hold bound alone arms the net plane (the fabric must account
        // holds) but needs no per-transfer fault pass by itself.
        let plan = FaultPlan::default().partition_hold_bound(16);
        assert!(plan.net.is_active());
        assert!(!plan.net.per_transfer());
    }

    #[test]
    fn partition_until_folds_chained_windows() {
        let net = FaultPlan::default()
            .partition(10.0, 20.0)
            .partition(20.0, 25.0)
            .partition(40.0, 50.0)
            .net;
        assert_eq!(net.partition_until(5.0), None);
        // Covered by the first window; the chain extends through the
        // back-to-back second window.
        assert_eq!(net.partition_until(10.0), Some(25.0));
        assert_eq!(net.partition_until(19.9), Some(25.0));
        assert_eq!(net.partition_until(20.0), Some(25.0));
        // Heal instant itself is connected (half-open windows).
        assert_eq!(net.partition_until(25.0), None);
        assert_eq!(net.partition_until(45.0), Some(50.0));
        assert_eq!(NetFaults::default().partition_until(0.0), None);
        assert_eq!(net.heal_instants(), vec![25.0, 50.0]);
        assert!(NetFaults::default().heal_instants().is_empty());
    }

    #[test]
    fn default_retry_matches_legacy_respawn_limit() {
        let rp = RetryPolicy::default();
        // Legacy loop allowed `respawns < 5`, i.e. 6 total attempts.
        assert_eq!(rp.max_attempts, 6);
        assert!(!rp.give_up);
        assert_eq!(rp.timeout, None);
        assert_eq!(rp.backoff(0), SimDuration::ZERO);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let rp = RetryPolicy {
            backoff_base: SimDuration::from_millis(100),
            backoff_factor: 2.0,
            backoff_max: SimDuration::from_millis(500),
            ..RetryPolicy::default()
        };
        assert_eq!(rp.backoff(0), SimDuration::from_millis(100));
        assert_eq!(rp.backoff(1), SimDuration::from_millis(200));
        assert_eq!(rp.backoff(2), SimDuration::from_millis(400));
        assert_eq!(rp.backoff(3), SimDuration::from_millis(500));
        assert_eq!(rp.backoff(10), SimDuration::from_millis(500));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let rp = RetryPolicy {
            backoff_base: SimDuration::from_secs(1),
            backoff_factor: 1e300,
            backoff_max: SimDuration::from_secs(30),
            ..RetryPolicy::default()
        };
        // factor^retry overflows f64 to +inf: the pause must clamp at
        // backoff_max, not wrap or panic.
        assert_eq!(rp.backoff(1), SimDuration::from_secs(30));
        assert_eq!(rp.backoff(2), SimDuration::from_secs(30));
        assert_eq!(rp.backoff(u32::MAX), SimDuration::from_secs(30));
    }

    #[test]
    fn on_fault_mirrors_the_legacy_loop_conditions() {
        // Unbounded default: retries while respawns+1 < max_attempts,
        // then forces the final attempt to succeed.
        let rp = RetryPolicy::default();
        for respawns in 0..5 {
            assert_eq!(
                rp.on_fault(respawns),
                RetryDecision::Retry {
                    backoff: SimDuration::ZERO
                }
            );
        }
        assert_eq!(rp.on_fault(5), RetryDecision::ForceSuccess);
        assert_eq!(rp.on_fault(99), RetryDecision::ForceSuccess);

        // Bounded: same retry window, then a real give-up.
        let rp = RetryPolicy::bounded(3, SimDuration::from_millis(100));
        assert_eq!(
            rp.on_fault(0),
            RetryDecision::Retry {
                backoff: SimDuration::from_millis(100)
            }
        );
        assert_eq!(
            rp.on_fault(1),
            RetryDecision::Retry {
                backoff: SimDuration::from_millis(200)
            }
        );
        assert_eq!(rp.on_fault(2), RetryDecision::GiveUp);
    }

    #[test]
    fn backoff_with_unit_factor_stays_flat() {
        let rp = RetryPolicy {
            backoff_base: SimDuration::from_millis(250),
            backoff_factor: 1.0,
            backoff_max: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        for retry in [0, 1, 7, 1_000_000] {
            assert_eq!(rp.backoff(retry), SimDuration::from_millis(250));
        }
    }

    #[test]
    fn backoff_zero_retry_returns_base_unclamped() {
        // Historical quirk preserved by the closed form: the cap applies
        // from the first retry onward, never to the base pause itself.
        let rp = RetryPolicy {
            backoff_base: SimDuration::from_secs(60),
            backoff_factor: 2.0,
            backoff_max: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        assert_eq!(rp.backoff(0), SimDuration::from_secs(60));
        assert_eq!(rp.backoff(1), SimDuration::from_secs(10));
    }
}
