//! Remote memory access fabric for serverless data exchange.
//!
//! When a child function cannot be colocated with its parent, OpenWhisk's
//! default data path stores the parent's output in CouchDB and the child
//! fetches it through the controller — milliseconds per exchange. The
//! paper's fabric instead exposes the parent's output as a *virtualized
//! object*: the child issues reads that the FPGA resolves (address mapping
//! in hardware, dirty-data tracking via the cache-coherence protocol) and
//! serves over a RoCE-style protocol straight into host memory across the
//! UPI interconnect, with no OS involvement on either side.
//!
//! The model charges each object exchange a small fixed setup cost plus
//! bytes/bandwidth at near-interconnect speed, and supports bounded
//! concurrency per board (a fixed number of queue pairs).

use hivemind_sim::dist::Dist;
use hivemind_sim::time::{SimDuration, SimTime};
use rand::Rng;

/// Calibration for the remote-memory path.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteMemoryParams {
    /// One-time cost to resolve the virtualized object address and set up
    /// the RDMA transfer (hardware address mapping; ~2 µs median).
    pub setup: Dist,
    /// Effective transfer bandwidth, bytes/s. UPI + RoCE across the ToR
    /// sustains multiple GB/s; we default to 8 GB/s.
    pub bytes_per_sec: f64,
    /// Per-transfer interconnect/NIC serialization floor.
    pub floor: SimDuration,
    /// Maximum concurrent transfers a board serves before queueing.
    pub max_concurrent: u32,
}

impl Default for RemoteMemoryParams {
    fn default() -> Self {
        RemoteMemoryParams {
            setup: Dist::lognormal_median_sigma(2e-6, 0.25),
            bytes_per_sec: 8e9,
            floor: SimDuration::from_micros(1),
            max_concurrent: 8,
        }
    }
}

/// A remote-memory acceleration fabric instance (one per cluster in the
/// default deployment; per-server boards share the same model).
///
/// # Examples
///
/// ```rust
/// use hivemind_accel::remote_mem::{RemoteMemoryFabric, RemoteMemoryParams};
/// use hivemind_sim::rng::RngForge;
/// use hivemind_sim::time::SimTime;
///
/// let mut fabric = RemoteMemoryFabric::new(RemoteMemoryParams::default());
/// let mut rng = RngForge::new(1).stream("rm");
/// let latency = fabric.access(SimTime::ZERO, 1_000_000, &mut rng); // 1 MB object
/// // 1 MB at 8 GB/s = 125 µs, plus µs-scale setup.
/// assert!(latency.as_micros_f64() > 120.0 && latency.as_micros_f64() < 200.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteMemoryFabric {
    params: RemoteMemoryParams,
    /// Completion times of in-flight transfers (bounded by
    /// `max_concurrent`; earliest first).
    inflight: Vec<SimTime>,
    accesses: u64,
    bytes_served: u64,
}

impl RemoteMemoryFabric {
    /// Creates a fabric with the given calibration.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth or concurrency is zero.
    pub fn new(params: RemoteMemoryParams) -> Self {
        assert!(params.bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(params.max_concurrent > 0, "need at least one channel");
        RemoteMemoryFabric {
            params,
            inflight: Vec::new(),
            accesses: 0,
            bytes_served: 0,
        }
    }

    /// Performs a remote object access of `bytes` starting at `now`,
    /// returning its total latency (queueing for a free channel included).
    pub fn access<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        bytes: u64,
        rng: &mut R,
    ) -> SimDuration {
        // Retire completed transfers.
        self.inflight.retain(|&t| t > now);
        // If all channels are busy, wait for the earliest to free up.
        let start = if self.inflight.len() >= self.params.max_concurrent as usize {
            self.inflight.sort();
            let free_at = self.inflight[self.inflight.len() - self.params.max_concurrent as usize];
            free_at.max(now)
        } else {
            now
        };
        let wire = SimDuration::from_secs_f64(bytes as f64 / self.params.bytes_per_sec)
            .max(self.params.floor);
        let total = self.params.setup.sample(rng) + wire;
        let done = start + total;
        self.inflight.push(done);
        self.accesses += 1;
        self.bytes_served += bytes;
        done - now
    }

    /// Number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total bytes served.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::rng::RngForge;

    #[test]
    fn small_access_is_microseconds() {
        let mut f = RemoteMemoryFabric::new(RemoteMemoryParams::default());
        let mut rng = RngForge::new(2).stream("rm");
        let lat = f.access(SimTime::ZERO, 64, &mut rng);
        assert!(lat.as_micros_f64() < 10.0, "latency {lat}");
    }

    #[test]
    fn large_access_is_bandwidth_bound() {
        let mut f = RemoteMemoryFabric::new(RemoteMemoryParams::default());
        let mut rng = RngForge::new(3).stream("rm");
        let lat = f.access(SimTime::ZERO, 80_000_000, &mut rng); // 80 MB
        let secs = lat.as_secs_f64();
        assert!(
            (secs - 0.01).abs() < 0.002,
            "80 MB at 8 GB/s ≈ 10 ms, got {secs}"
        );
    }

    #[test]
    fn concurrency_limit_queues() {
        let mut f = RemoteMemoryFabric::new(RemoteMemoryParams {
            max_concurrent: 1,
            setup: Dist::constant(0.0),
            ..RemoteMemoryParams::default()
        });
        let mut rng = RngForge::new(4).stream("rm");
        let first = f.access(SimTime::ZERO, 8_000_000, &mut rng); // 1 ms
        let second = f.access(SimTime::ZERO, 8_000_000, &mut rng);
        assert!(second > first, "second waits for the single channel");
        assert!((second.as_secs_f64() - 2.0 * first.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn channels_free_over_time() {
        let mut f = RemoteMemoryFabric::new(RemoteMemoryParams {
            max_concurrent: 1,
            setup: Dist::constant(0.0),
            ..RemoteMemoryParams::default()
        });
        let mut rng = RngForge::new(5).stream("rm");
        let _ = f.access(SimTime::ZERO, 8_000_000, &mut rng);
        // One second later the channel is idle again.
        let later = f.access(SimTime::from_secs(1), 8_000_000, &mut rng);
        assert!((later.as_millis_f64() - 1.0).abs() < 0.1);
    }

    #[test]
    fn orders_of_magnitude_vs_couchdb() {
        // Sanity anchor for Fig. 6c: the remote-memory path must be
        // orders of magnitude below a millisecond-scale DB exchange.
        // Its unloaded mean for a 100 kB object: setup plus the bytes at
        // interconnect bandwidth (never below the serialization floor).
        let p = RemoteMemoryParams::default();
        let mean = p.setup.mean_secs() + (100_000.0 / p.bytes_per_sec).max(p.floor.as_secs_f64());
        assert!(mean < 1e-3 / 10.0);
    }

    #[test]
    fn accounting_tracks_usage() {
        let mut f = RemoteMemoryFabric::new(RemoteMemoryParams::default());
        let mut rng = RngForge::new(6).stream("rm");
        let _ = f.access(SimTime::ZERO, 100, &mut rng);
        let _ = f.access(SimTime::ZERO, 200, &mut rng);
        assert_eq!(f.accesses(), 2);
        assert_eq!(f.bytes_served(), 300);
    }
}
