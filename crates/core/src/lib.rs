//! # hivemind-core
//!
//! The HiveMind platform itself — the paper's contribution, built on the
//! substrates in the sibling crates:
//!
//! * [`dsl`] — the declarative programming model (Listings 1–3), reduced
//!   to what a run reads: tasks, their parent edges, and the `Place`
//!   directive that pins a task to the edge or the cloud.
//! * [`synthesis`] — program synthesis for task placement (Fig. 8):
//!   enumerate the *meaningful* cloud/edge execution models, generate the
//!   cross-tier communication bindings, profile each candidate, and pick
//!   the one satisfying the user's performance/power/cost constraints.
//! * [`platform`] — the evaluated system configurations: Centralized
//!   IaaS/FaaS, Distributed edge, HiveMind, and the Fig. 13 ablations.
//! * [`controller`] — the centralized controller: load balancing across
//!   devices, heartbeat-based failure handling with geometric load
//!   repartitioning, monitoring, and sharded-scheduler scalability.
//! * [`engine`] — the execution engine binding swarm, network, and
//!   serverless cluster into one deterministic simulation.
//! * [`experiment`] — the experiment harness every figure is generated
//!   from: single-app benchmarks (S1–S10) and end-to-end missions.
//! * [`runner`] — deterministic parallel replicate execution: fan a
//!   replicated experiment (or a config sweep) across threads with
//!   per-replicate seeds derived from the root seed, collecting outcomes
//!   in replicate order regardless of scheduling.
//! * [`adaptive`] — runtime task re-mapping when user goals are not met
//!   (Sec. 4.2).
//! * [`analytic`] — the fast queueing cross-model used to validate the
//!   simulator (Fig. 18).
//! * [`mc`] — the coordination protocols (failover, retry + circuit
//!   breaker, data exchange) lifted behind pure step functions and
//!   exhaustively model-checked under all fault schedules.
//! * [`metrics`] — outcome records: latency summaries and breakdowns,
//!   bandwidth, battery, detection quality.
//! * [`prelude`] — one-stop imports for experiment code: `use
//!   hivemind_core::prelude::*;` brings in the experiment, platform,
//!   outcome, runner, app, and time types without deep module paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analytic;
pub mod controller;
pub mod dsl;
pub mod engine;
pub mod experiment;
pub mod mc;
pub mod metrics;
pub mod mission;
pub mod platform;
pub mod prelude;
pub mod programs;
pub mod runner;
pub mod synthesis;

pub use experiment::{Experiment, ExperimentConfig};
pub use platform::Platform;
pub use runner::{RunSet, Runner};
