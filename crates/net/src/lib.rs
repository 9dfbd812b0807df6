//! # hivemind-net
//!
//! Network substrate for the HiveMind reproduction: the wireless medium
//! between the swarm and the backend, the cluster's top-of-rack switch and
//! server NICs, and the cost model for RPC processing.
//!
//! The paper's testbed (Sec. 2.1): 12 servers with 10 GbE NICs behind a
//! 40 Gb/s ToR switch, talking to the swarm through two 867 Mb/s 802.11
//! routers. Congestion on the wireless links is what produces the latency
//! blow-up of Fig. 3b and the bandwidth ceilings of Figs. 14b/17; this
//! crate reproduces those phenomena with store-and-forward FIFO queueing on
//! every hop.
//!
//! * [`topology`] — node naming and the static link graph with paper-
//!   calibrated capacities.
//! * [`link`] — a single FIFO store-and-forward link.
//! * [`fabric`] — the multi-hop [`Fabric`] component that
//!   routes transfers hop by hop, queueing only where FIFO order can
//!   still change, and reports deliveries plus per-scope bandwidth
//!   accounting.
//! * [`rpc`] — per-message RPC processing costs (software stack vs the
//!   FPGA-offloaded stack modeled in `hivemind-accel`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod link;
pub mod rpc;
pub mod topology;

pub use fabric::{Delivery, Fabric, Transfer, TransferId};
pub use rpc::RpcProfile;
pub use topology::{Node, Topology};
