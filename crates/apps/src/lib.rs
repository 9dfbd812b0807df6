//! # hivemind-apps
//!
//! The paper's benchmark suite (Sec. 2.1): ten single-phase edge
//! applications **S1–S10** plus the multi-phase mission scenarios, with
//! two kinds of fidelity:
//!
//! * **Cost profiles** ([`suite`]) — calibrated service-time distributions
//!   and object sizes for each application, consumed by the serverless and
//!   edge execution models. These drive every latency/bandwidth/battery
//!   figure.
//! * **Real kernels** ([`kernels`]) — working implementations of the
//!   algorithmic hearts the missions run: an embedding matcher in
//!   FaceNet's style (S1/S5), union-find deduplication (S5), and
//!   template-matching OCR (S9, and the cars' Treasure Hunt instruction
//!   panels). The maze traversal (S6) reuses `hivemind_swarm::maze`'s
//!   Wall Follower.
//! * **Online learning** ([`learning`]) — a real logistic-regression
//!   detector whose accuracy grows with training data, reproducing the
//!   continuous-learning comparison of Fig. 15 (no retraining vs
//!   per-device vs swarm-wide).
//! * **Scenarios** ([`scenario`]) — the task-graph skeletons of
//!   Scenario A (stationary items), Scenario B (moving people), and the
//!   robotic-car Treasure Hunt and Maze missions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod learning;
pub mod scenario;
pub mod suite;

pub use scenario::Scenario;
pub use suite::App;
