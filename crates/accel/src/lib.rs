//! # hivemind-accel
//!
//! Models of HiveMind's reconfigurable hardware acceleration fabric
//! (paper Secs. 4.4–4.5): an Arria 10 GX1150 FPGA coupled to the host Xeon
//! over the UPI memory interconnect, statically partitioned between
//!
//! * **remote memory access** — a RoCE-style RDMA protocol that lets a
//!   child serverless function read its parent's output directly from
//!   another server's memory, bypassing CouchDB and the OS network stack
//!   ([`remote_mem`]);
//! * **RPC offload** — the entire RPC stack in hardware, giving 2.1 µs
//!   round-trips between servers on the same ToR and 12.4 Mrps per core for
//!   64 B RPCs ([`rpc_accel`]).
//!
//! Everything here is a calibrated latency/throughput model — the fidelity
//! target is the *relative* cost difference between the accelerated and
//! software paths, which is what Figs. 12 and 13 measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remote_mem;
pub mod rpc_accel;

pub use remote_mem::RemoteMemoryFabric;
pub use rpc_accel::accelerated_rpc_profile;
