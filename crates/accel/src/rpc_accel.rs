//! RPC stack offload.
//!
//! The paper offloads the entire RPC stack onto the FPGA and connects it to
//! the host CPU through the UPI memory interconnect (viewed as another NUMA
//! node), with zero-copy buffers shared between hardware and software. The
//! headline numbers (Sec. 4.5): **2.1 µs round-trip** between servers under
//! the same ToR switch and **12.4 Mrps per core** for 64 B RPCs.
//!
//! This module derives an accelerated [`RpcProfile`] from those constants;
//! the Fig. 13 ablations switch it on and off per platform.

use hivemind_net::rpc::RpcProfile;
use hivemind_sim::dist::Dist;

/// Measured round-trip time of the accelerated stack between two servers on
/// the same ToR (paper Sec. 4.5).
pub const ACCEL_RTT_SECS: f64 = 2.1e-6;

/// Measured single-core throughput for 64 B RPCs (paper Sec. 4.5).
pub const ACCEL_MRPS_PER_CORE: f64 = 12.4e6;

/// The host-side processing profile when the RPC stack runs on the FPGA.
///
/// The RTT budget covers both directions of wire time and both hosts'
/// processing; attributing the processing share symmetrically leaves
/// roughly half a microsecond per side. Per-byte marshalling cost is zero:
/// payloads move by zero-copy placement into hardware-visible buffers, and
/// bulk wire time is already charged by the network fabric.
///
/// # Examples
///
/// ```rust
/// use hivemind_accel::rpc_accel::accelerated_rpc_profile;
/// use hivemind_net::rpc::RpcProfile;
///
/// let fast = accelerated_rpc_profile();
/// let slow = RpcProfile::software();
/// // An order of magnitude (and more) below the software stack.
/// assert!(slow.mean_one_way_secs(64) / fast.mean_one_way_secs(64) > 10.0);
/// ```
pub fn accelerated_rpc_profile() -> RpcProfile {
    RpcProfile {
        send_overhead: Dist::lognormal_median_sigma(0.5e-6, 0.15),
        recv_overhead: Dist::lognormal_median_sigma(0.5e-6, 0.15),
        per_byte: 0.0,
        max_rps_per_core: Some(ACCEL_MRPS_PER_CORE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_rtt_matches_paper() {
        let p = accelerated_rpc_profile();
        // Both sides of a round trip: 4 host traversals ≈ 2 µs of the
        // 2.1 µs budget (the remainder is wire time modeled by the fabric).
        let four_sides = 2.0 * p.mean_one_way_secs(64);
        assert!(four_sides < ACCEL_RTT_SECS * 1.1, "host share {four_sides}");
    }

    #[test]
    fn accel_beats_software_by_an_order_of_magnitude() {
        let fast = accelerated_rpc_profile();
        let slow = hivemind_net::rpc::RpcProfile::software();
        let speedup = slow.mean_one_way_secs(64) / fast.mean_one_way_secs(64);
        assert!(speedup > 20.0, "speedup {speedup}");
    }

    #[test]
    fn zero_copy_means_no_per_byte_cost() {
        let p = accelerated_rpc_profile();
        let small = p.mean_one_way_secs(64);
        let large = p.mean_one_way_secs(10_000_000);
        assert_eq!(small, large);
    }
}
