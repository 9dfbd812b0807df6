//! Experiment outcome records.
//!
//! Every figure reduces to the quantities collected here: task-latency
//! distributions with the paper's four-way breakdown, mission-level
//! results (duration, completion, detection quality), bandwidth, and
//! battery.

use hivemind_apps::learning::DetectionQuality;
use hivemind_sim::stats::{DurationSummary, TimeSeries};
use hivemind_sim::trace::Trace;

use crate::engine::TaskRecord;

/// Latency summaries split by the paper's breakdown categories.
#[derive(Debug, Clone, Default)]
pub struct BreakdownSummary {
    /// End-to-end task latency.
    pub total: DurationSummary,
    /// Network (wire + RPC processing).
    pub network: DurationSummary,
    /// Management (control path, scheduling, queueing).
    pub management: DurationSummary,
    /// Container instantiation.
    pub instantiation: DurationSummary,
    /// Data-plane I/O.
    pub data_io: DurationSummary,
    /// Execution.
    pub exec: DurationSummary,
}

impl BreakdownSummary {
    /// An empty breakdown with room for `n` tasks in every category.
    pub fn with_capacity(n: usize) -> Self {
        BreakdownSummary {
            total: DurationSummary::with_capacity(n),
            network: DurationSummary::with_capacity(n),
            management: DurationSummary::with_capacity(n),
            instantiation: DurationSummary::with_capacity(n),
            data_io: DurationSummary::with_capacity(n),
            exec: DurationSummary::with_capacity(n),
        }
    }

    /// Accumulates one task record.
    pub fn record(&mut self, r: &TaskRecord) {
        self.total.record(r.latency());
        self.network.record(r.network);
        self.management.record(r.management + r.instantiation);
        self.instantiation.record(r.instantiation);
        self.data_io.record(r.data_io);
        self.exec.record(r.exec);
    }

    /// Merges another breakdown into this one, category by category.
    ///
    /// Merging is order-independent up to sample order, so the quantile,
    /// mean, and extrema statistics of the result do not depend on the
    /// order replicates are merged in.
    pub fn merge(&mut self, other: &BreakdownSummary) {
        self.total.merge(&other.total);
        self.network.merge(&other.network);
        self.management.merge(&other.management);
        self.instantiation.merge(&other.instantiation);
        self.data_io.merge(&other.data_io);
        self.exec.merge(&other.exec);
    }

    /// Number of tasks recorded.
    pub fn len(&self) -> usize {
        self.total.len()
    }

    /// Whether any tasks were recorded.
    pub fn is_empty(&self) -> bool {
        self.total.is_empty()
    }

    /// Mean fraction of latency spent in the network (Fig. 3a's metric).
    pub fn network_fraction(&self) -> f64 {
        let t = self.total.mean();
        if t == 0.0 {
            0.0
        } else {
            self.network.mean() / t
        }
    }

    /// Mean fraction spent in management + instantiation.
    pub fn management_fraction(&self) -> f64 {
        let t = self.total.mean();
        if t == 0.0 {
            0.0
        } else {
            self.management.mean() / t
        }
    }

    /// Mean fraction spent in instantiation alone (Fig. 6b's metric).
    pub fn instantiation_fraction(&self) -> f64 {
        let t = self.total.mean();
        if t == 0.0 {
            0.0
        } else {
            self.instantiation.mean() / t
        }
    }
}

/// Bandwidth usage over the edge↔cloud boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandwidthStats {
    /// Mean rate, MB/s.
    pub mean_mbps: f64,
    /// 99th-percentile windowed rate, MB/s.
    pub p99_mbps: f64,
    /// Total volume, MB.
    pub total_mb: f64,
}

/// Battery consumption across the swarm at the end of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatteryStats {
    /// Mean consumed battery, percent of capacity.
    pub mean_pct: f64,
    /// Worst device, percent.
    pub max_pct: f64,
    /// Devices that fully depleted mid-mission.
    pub depleted: u32,
}

/// Fault-recovery metrics, populated only when the experiment ran with an
/// active [`FaultPlan`] (so fault-free outcomes serialize byte-identically
/// to pre-fault-plane builds).
///
/// [`FaultPlan`]: hivemind_sim::faults::FaultPlan
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Wireless retransmission rounds forced by packet loss.
    pub packets_lost: u64,
    /// Transfers held back by a partition.
    pub transfers_held: u64,
    /// Cloud servers that crashed.
    pub server_crashes: u32,
    /// In-flight invocations lost to server crashes.
    pub invocations_lost: u64,
    /// Lost invocations rescheduled onto surviving servers.
    pub invocations_rescheduled: u64,
    /// Tasks that completed only after one or more fault respawns.
    pub tasks_retried: u64,
    /// Tasks abandoned (give-up retry policy exhausted, or no path to
    /// completion remained).
    pub tasks_lost: u64,
    /// Devices that failed (scripted + stochastic MTBF).
    pub device_failures: u32,
    /// Primary-controller failovers.
    pub controller_failovers: u32,
    /// Mean time from fault injection to detection, seconds (heartbeat
    /// window for devices/controller, immediate for server crashes).
    pub mean_detection_secs: f64,
    /// Mean time from fault injection to restored service, seconds.
    pub mean_recovery_secs: f64,
    /// Completed tasks whose end-to-end latency exceeded the plan's SLO.
    pub slo_violations: u64,
    /// `slo_violations` over completed tasks (0 when no SLO was set).
    pub slo_violation_fraction: f64,
}

/// Overload-control metrics, populated only when the experiment ran with
/// an active [`OverloadPolicy`] (so unconfigured outcomes serialize
/// byte-identically to pre-overload-plane builds).
///
/// [`OverloadPolicy`]: hivemind_sim::overload::OverloadPolicy
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShedStats {
    /// Cloud invocations refused by the admission plane, total.
    pub invocations_shed: u64,
    /// …because the bounded admission queue was full on arrival.
    pub shed_queue_full: u64,
    /// …because they waited past the queueing deadline.
    pub shed_deadline: u64,
    /// …because the app's circuit breaker was open (fail fast).
    pub shed_breaker: u64,
    /// Circuit-breaker open transitions (including re-opens from failed
    /// half-open probes).
    pub breaker_opens: u32,
    /// Total wall-clock the breakers spent open, seconds.
    pub breaker_open_secs: f64,
    /// Shed tasks re-routed to degraded on-device execution (brownout
    /// spillover).
    pub tasks_spilled: u64,
    /// Tasks abandoned outright because their cloud work was shed and no
    /// spillover was configured.
    pub tasks_shed: u64,
    /// Mean accuracy penalty over *completed* tasks, percent: spilled
    /// tasks pay the policy's degraded-accuracy cost, everything else
    /// pays zero.
    pub mean_accuracy_penalty_pct: f64,
    /// Transfers held at a link ingress by network backpressure.
    pub net_holds: u64,
}

/// Disconnected-operation metrics, populated only when the experiment ran
/// with an active [`DisconnectPolicy`] (so unconfigured outcomes serialize
/// byte-identically to pre-disconnect-plane builds).
///
/// [`DisconnectPolicy`]: hivemind_sim::disconnect::DisconnectPolicy
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReconnectStats {
    /// Reconnect reconciliation sessions run (one per healed partition).
    pub partitions: u32,
    /// Device lease expirations (one per device per merged partition
    /// window it went autonomous under).
    pub lease_expirations: u64,
    /// Cloud-bound tasks re-routed to degraded autonomous on-device
    /// execution after a lease expiry.
    pub tasks_degraded: u64,
    /// Update summaries buffered while disconnected.
    pub updates_buffered: u64,
    /// Buffered updates replayed exactly once at reconnect.
    pub updates_replayed: u64,
    /// Buffered updates evicted under the replay-ring bound (explicit
    /// expiry, never silent growth).
    pub updates_expired: u64,
    /// Replay offers the session watermark rejected as duplicates.
    pub duplicates_dropped: u64,
    /// Stale heartbeats re-armed at reconciliation instead of being read
    /// as device deaths.
    pub devices_rearmed: u64,
    /// Mean staleness of replayed updates (heal − buffered-at), seconds.
    pub mean_staleness_secs: f64,
    /// Mean accuracy penalty over degraded tasks, percent.
    pub mean_accuracy_penalty_pct: f64,
    /// High-water mark of transfers simultaneously held by partition
    /// windows in the fabric.
    pub held_high_water: u64,
    /// Held transfers tail-dropped at the fabric's partition hold bound.
    pub transfers_dropped: u64,
}

/// Mission-level outcome (end-to-end scenarios).
#[derive(Debug, Clone, PartialEq)]
pub struct MissionOutcome {
    /// Whether the mission ran to completion (false = battery death or
    /// timeout left work unfinished).
    pub completed: bool,
    /// Wall-clock mission duration, seconds.
    pub duration_secs: f64,
    /// Targets found / counted (tennis balls, unique people, goals).
    pub targets_found: u32,
    /// Ground-truth target count.
    pub targets_total: u32,
    /// Detection quality when the scenario exercises recognition.
    pub detection: Option<DetectionQuality>,
}

impl Default for MissionOutcome {
    fn default() -> Self {
        MissionOutcome {
            completed: true,
            duration_secs: 0.0,
            targets_found: 0,
            targets_total: 0,
            detection: None,
        }
    }
}

/// Full outcome of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Task-latency summaries with breakdown.
    pub tasks: BreakdownSummary,
    /// Mission result (defaults for single-app runs: completed, duration
    /// = workload duration).
    pub mission: MissionOutcome,
    /// Edge↔cloud bandwidth.
    pub bandwidth: BandwidthStats,
    /// Swarm battery consumption.
    pub battery: BatteryStats,
    /// Concurrently active cloud functions over time (Fig. 5b/5c).
    pub active_tasks: TimeSeries,
    /// Container pool statistics `(warm_hits, cold_misses)`.
    pub container_stats: (u64, u64),
    /// Straggler respawns that won.
    pub stragglers_mitigated: u64,
    /// Functions that recovered from injected faults.
    pub faults_recovered: u64,
    /// Recovery metrics; `None` unless the run had an active fault plan.
    pub recovery: Option<RecoveryStats>,
    /// Overload-control metrics; `None` unless the run had an active
    /// overload policy.
    pub shed: Option<ShedStats>,
    /// Disconnected-operation metrics; `None` unless the run had an
    /// active disconnect policy.
    pub reconnect: Option<ReconnectStats>,
    /// Structured event trace, present when the experiment ran with
    /// [`crate::experiment::RunPlan::trace`] enabled. Excluded
    /// from [`Outcome::to_json`] — export it via
    /// [`Trace::to_jsonl`] / [`Trace::to_chrome_trace`].
    pub trace: Option<Trace>,
}

/// Appends `,"name":{"field":value,…}` for the named fields of `$s`, each
/// value in its `{:?}` form (integers as with `{}`, floats at their
/// shortest round-trip representation).
macro_rules! json_block {
    ($out:ident, $name:literal, $s:expr, $first:ident $(, $field:ident)* $(,)?) => {
        $out.push_str(&format!(
            concat!(",\"", $name, "\":{{\"", stringify!($first), "\":{:?}"),
            $s.$first
        ));
        $(
            $out.push_str(&format!(concat!(",\"", stringify!($field), "\":{:?}"), $s.$field));
        )*
        $out.push('}');
    };
}

impl Outcome {
    /// Median task latency in milliseconds (the paper's Fig. 4/11 axis).
    pub fn median_task_ms(&mut self) -> f64 {
        self.tasks.total.median() * 1e3
    }

    /// p99 task latency in milliseconds.
    pub fn p99_task_ms(&mut self) -> f64 {
        self.tasks.total.p99() * 1e3
    }

    /// Serializes the outcome to a deterministic JSON string.
    ///
    /// The environment has no serde, so this is hand-rolled: fixed key
    /// order, floats printed with their shortest round-trip
    /// representation (`{:?}`). Two outcomes serialize byte-identically
    /// iff their observable metrics are identical — the property the
    /// cross-thread-count determinism tests assert on.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"tasks\":");
        breakdown_json(&mut out, &self.tasks);
        out.push_str(",\"mission\":");
        mission_json(&mut out, &self.mission);
        json_block! { out, "bandwidth", self.bandwidth, mean_mbps, p99_mbps, total_mb }
        json_block! { out, "battery", self.battery, mean_pct, max_pct, depleted }
        out.push_str(&format!(
            ",\"container_stats\":[{},{}],\"stragglers_mitigated\":{},\"faults_recovered\":{}",
            self.container_stats.0,
            self.container_stats.1,
            self.stragglers_mitigated,
            self.faults_recovered
        ));
        // The plane blocks are emitted only for runs whose plane is
        // active, so plane-free output stays byte-identical to builds
        // that predate the planes.
        if let Some(r) = &self.recovery {
            json_block! {
                out, "recovery", r, packets_lost, transfers_held, server_crashes,
                invocations_lost, invocations_rescheduled, tasks_retried, tasks_lost,
                device_failures, controller_failovers, mean_detection_secs, mean_recovery_secs,
                slo_violations, slo_violation_fraction,
            }
        }
        if let Some(s) = &self.shed {
            json_block! {
                out, "shed", s, invocations_shed, shed_queue_full, shed_deadline, shed_breaker,
                breaker_opens, breaker_open_secs, tasks_spilled, tasks_shed,
                mean_accuracy_penalty_pct, net_holds,
            }
        }
        if let Some(r) = &self.reconnect {
            json_block! {
                out, "reconnect", r, partitions, lease_expirations, tasks_degraded,
                updates_buffered, updates_replayed, updates_expired, duplicates_dropped,
                devices_rearmed, mean_staleness_secs, mean_accuracy_penalty_pct,
                held_high_water, transfers_dropped,
            }
        }
        out.push('}');
        out
    }
}

/// Appends a summary's order statistics to `$out` as JSON (deterministic
/// regardless of sample insertion order). `$s` is a
/// [`DurationSummary`] or a [`hivemind_sim::stats::Summary`], which
/// answer these queries alike.
macro_rules! summary_json {
    ($out:expr, $s:expr) => {{
        let s = $s;
        let [median, p99] = s.quantiles([0.5, 0.99]);
        $out.push_str(&format!(
            "{{\"len\":{},\"mean\":{:?},\"median\":{:?},\"p99\":{:?},\"min\":{:?},\"max\":{:?}}}",
            s.len(),
            s.mean(),
            median,
            p99,
            s.min(),
            s.max()
        ));
    }};
}
pub(crate) use summary_json;

fn breakdown_json(out: &mut String, b: &BreakdownSummary) {
    out.push('{');
    for (i, (key, s)) in [
        ("total", &b.total),
        ("network", &b.network),
        ("management", &b.management),
        ("instantiation", &b.instantiation),
        ("data_io", &b.data_io),
        ("exec", &b.exec),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{key}\":"));
        summary_json!(out, s);
    }
    out.push('}');
}

fn mission_json(out: &mut String, m: &MissionOutcome) {
    out.push_str(&format!(
        "{{\"completed\":{},\"duration_secs\":{:?},\"targets_found\":{},\"targets_total\":{}",
        m.completed, m.duration_secs, m.targets_found, m.targets_total
    ));
    match &m.detection {
        None => out.push_str(",\"detection\":null}"),
        Some(q) => out.push_str(&format!(
            ",\"detection\":{{\"correct_pct\":{:?},\"false_negative_pct\":{:?},\"false_positive_pct\":{:?}}}}}",
            q.correct_pct, q.false_negative_pct, q.false_positive_pct
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::PlacementSite;
    use hivemind_apps::suite::App;
    use hivemind_sim::time::{SimDuration, SimTime};

    fn record(net_ms: u64, exec_ms: u64) -> TaskRecord {
        TaskRecord {
            task: 0,
            app: App::FaceRecognition,
            device: 0,
            label: 0,
            capture: SimTime::ZERO,
            done: SimTime::ZERO + SimDuration::from_millis(net_ms + exec_ms),
            placement: PlacementSite::Cloud,
            network: SimDuration::from_millis(net_ms),
            management: SimDuration::ZERO,
            instantiation: SimDuration::ZERO,
            data_io: SimDuration::ZERO,
            exec: SimDuration::from_millis(exec_ms),
            cold_start: false,
        }
    }

    #[test]
    fn breakdown_fractions() {
        let mut b = BreakdownSummary::default();
        b.record(&record(30, 70));
        b.record(&record(40, 60));
        assert_eq!(b.len(), 2);
        assert!((b.network_fraction() - 0.35).abs() < 1e-9);
        assert_eq!(b.management_fraction(), 0.0);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = BreakdownSummary::default();
        assert!(b.is_empty());
        assert_eq!(b.network_fraction(), 0.0);
        assert_eq!(b.instantiation_fraction(), 0.0);
    }

    #[test]
    fn outcome_latency_accessors() {
        let mut o = Outcome::default();
        o.tasks.record(&record(50, 50));
        assert!((o.median_task_ms() - 100.0).abs() < 1e-6);
        assert!((o.p99_task_ms() - 100.0).abs() < 1e-6);
    }
}
