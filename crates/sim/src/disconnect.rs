//! Disconnected-operation policy: lease-based autonomy during wireless
//! partitions, bounded update buffering, and exactly-once replay at heal.
//!
//! The fault plane's partitions (`sim::faults`) simply *hold* every
//! wireless transfer until the window closes — a partitioned fleet
//! silently stalls. A [`DisconnectPolicy`] arms the alternative the
//! paper's precursor UAV platform flags as the hard requirement for edge
//! swarms: devices detect cloud loss when the lease piggybacked on their
//! heartbeat acks expires, flip to autonomous degraded on-device
//! execution (the brownout spillover path from `sim::overload`), and
//! buffer beats/results/sensor summaries in a bounded ring. When the
//! partition heals, a reconnect session replays the buffer through the
//! engine's `(time, lane, seq)` effect order with session-scoped dedup,
//! so every buffered update lands exactly once, and the controller
//! re-arms stale heartbeats under the takeover-grace rules instead of
//! declaring the whole (merely silent) fleet dead.
//!
//! ## Determinism contract
//!
//! Like the overload plane, the disconnect plane draws **no randomness of
//! its own**: whether a device is autonomous is a pure function of the
//! fault plan's partition windows and the lease ([`DETECTION_WINDOW`]);
//! buffer contents and replay order are pure functions of the event
//! stream. The degraded execution it triggers samples service times from
//! the *same* hub lane the spillover path uses. The inert default
//! ([`DisconnectPolicy::default`]) is bit-for-bit invisible: no state is
//! allocated, no epoch boundary moves, no stream is perturbed.
//!
//! [`DETECTION_WINDOW`]: crate::faults::DETECTION_WINDOW

/// Trace category used by every disconnect-plane event.
pub const TRACE_CAT: &str = "disconnect";
/// Trace event name emitted when a device's lease expires and it flips
/// to autonomous operation.
pub const EV_AUTONOMOUS: &str = "autonomous";
/// Trace event name emitted when an update is buffered for replay.
pub const EV_BUFFERED: &str = "buffered";
/// Trace event name emitted at a heal instant when a reconnect
/// reconciliation session starts.
pub const EV_RECONNECT: &str = "reconnect";
/// Trace event name emitted per buffered update replayed at heal.
pub const EV_REPLAYED: &str = "replayed";

/// Capacity of each device's buffered-update ring. When full, the oldest
/// update is evicted and counted as explicitly expired — bounded memory,
/// no silent growth.
pub const BUFFER_CAP: u32 = 64;

/// Size of one replayed update summary on the wire at heal time
/// (compressed result metadata, not the raw sensor payload).
pub const SUMMARY_BYTES: u64 = 4096;

/// Disconnected-operation policy attached to a run.
///
/// The default policy is **inert**: [`DisconnectPolicy::is_active`]
/// returns `false` and every consumer skips the plane entirely, leaving
/// the simulation byte-identical to one that never heard of it. Arming
/// autonomy only changes behaviour while a partition from the run's
/// [`FaultPlan`](crate::faults::FaultPlan) covers the wireless segment.
/// A device trusts its last lease grant for [`DETECTION_WINDOW`], runs
/// the overload plane's degraded model ([`DEGRADED_SPEEDUP`]) once it
/// expires, and buffers up to [`BUFFER_CAP`] summaries of
/// [`SUMMARY_BYTES`] each.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::disconnect::DisconnectPolicy;
///
/// let policy = DisconnectPolicy::default().autonomous();
/// assert!(policy.is_active());
/// assert!(!DisconnectPolicy::default().is_active());
/// ```
///
/// [`DETECTION_WINDOW`]: crate::faults::DETECTION_WINDOW
/// [`DEGRADED_SPEEDUP`]: crate::overload::DEGRADED_SPEEDUP
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DisconnectPolicy {
    /// Master switch: when `true`, devices cut off by a partition execute
    /// their tasks on-device with the degraded model instead of stalling
    /// behind held transfers, and buffer result summaries for replay.
    pub autonomy: bool,
}

impl DisconnectPolicy {
    /// `true` if the plane is armed.
    pub fn is_active(&self) -> bool {
        self.autonomy
    }

    /// Arms lease-based autonomous operation during partitions.
    pub fn autonomous(mut self) -> Self {
        self.autonomy = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_inert() {
        assert!(!DisconnectPolicy::default().is_active());
        assert!(DisconnectPolicy::default().autonomous().is_active());
    }
}
