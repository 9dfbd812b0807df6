//! # hivemind-faas
//!
//! The serverless substrate of the HiveMind reproduction — an
//! OpenWhisk-shaped Function-as-a-Service cluster plus the statically
//! provisioned IaaS baseline the paper compares against.
//!
//! The modeled control path mirrors Sec. 2.3: an HTTP request hits an
//! NGINX front-end, the OpenWhisk Controller authenticates against
//! CouchDB, selects an Invoker via Kafka's publish–subscribe bus, and the
//! Invoker launches the function in a Docker container. The phenomena the
//! paper measures all fall out of this pipeline:
//!
//! * **instantiation overheads** (Fig. 6b) — cold vs warm container starts,
//!   keep-alive windows ([`container`]);
//! * **function communication** (Fig. 6c) — CouchDB vs direct RPC vs
//!   in-memory vs FPGA remote memory ([`dataplane`]);
//! * **elasticity & fault tolerance** (Fig. 5) — queueing on a bounded
//!   core pool, fault injection with automatic respawn ([`cluster`]);
//! * **scheduling** (Sec. 4.3) — the default OpenWhisk policy vs
//!   HiveMind's scheduler with parent–child colocation, long keep-alive,
//!   core pinning and node probation ([`scheduler`]);
//! * the **fixed/IaaS baseline** (Figs. 1, 5a, 5b) — a statically sized
//!   worker pool with no per-task instantiation but no elasticity either
//!   ([`iaas`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod container;
pub mod dataplane;
pub mod iaas;
mod idset;
pub mod scheduler;
pub mod types;

pub use cluster::{Cluster, ClusterParams};
pub use dataplane::{DataPlane, ExchangeProtocol};
pub use iaas::FixedPool;
pub use scheduler::SchedulerPolicy;
pub use types::{AppId, AppProfile, Completion, Invocation, LatencyBreakdown};
