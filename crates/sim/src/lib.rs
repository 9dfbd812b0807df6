//! # hivemind-sim
//!
//! Deterministic discrete-event simulation (DES) primitives underpinning the
//! HiveMind reproduction.
//!
//! The paper validates its scalability results with "a validated,
//! event-driven simulator … based on queueing network principles"
//! (Sec. 5.6). This crate is that simulator's foundation:
//!
//! * [`time`] — nanosecond-resolution virtual time ([`SimTime`],
//!   [`SimDuration`]) with no floating-point drift.
//! * [`rng`] — a forkable, named random-stream hierarchy so adding draws in
//!   one subsystem never perturbs another.
//! * [`dist`] — service-time distributions (constant, uniform, exponential,
//!   log-normal, bounded Pareto, empirical).
//! * [`stats`] — streaming summaries, percentile estimation, histograms,
//!   time series and bandwidth meters used by every experiment harness.
//! * [`hash`] — fixed-seed hashing ([`hash::DetHashMap`]) so hot maps with
//!   insert/remove churn rehash and resize at workload-determined (not
//!   process-seed-determined) instants.
//! * [`faults`] — the declarative fault-injection vocabulary
//!   ([`FaultPlan`], [`RetryPolicy`]) whose draws come from a dedicated
//!   seed-chain lane, so enabling faults never perturbs a fault-free run.
//! * [`disconnect`] — the declarative disconnected-operation vocabulary
//!   ([`DisconnectPolicy`]): lease-based autonomy during partitions,
//!   bounded update buffering, and exactly-once replay at heal — zero RNG
//!   of its own, inert by default.
//! * [`overload`] — the declarative overload-control vocabulary
//!   ([`OverloadPolicy`], [`CircuitBreaker`]): bounded admission, load
//!   shedding, circuit breaking, and brownout spillover, all decided
//!   without RNG so the plane is inert-by-default and byte-deterministic.
//! * [`trace`] — zero-cost-when-disabled structured tracing
//!   ([`TraceHandle`]) with JSONL and Chrome `trace_event` exporters, so a
//!   run can be replayed event by event in Perfetto.
//! * [`shard`] — spatial sharding primitives ([`ShardMap`], [`EffectKey`],
//!   order-stable merge) for the multi-core conservative-lookahead engine;
//!   `HIVEMIND_SHARDS` changes wall-clock time, never an output byte.
//!
//! Everything in this crate is pure computation: a run is a function of
//! `(model, seed)` and nothing else, which is what makes the reproduction's
//! figures replayable.
//!
//! ## Example
//!
//! ```rust
//! use std::cmp::Reverse;
//! use std::collections::BinaryHeap;
//!
//! use hivemind_sim::dist::Dist;
//! use hivemind_sim::rng::RngForge;
//! use hivemind_sim::time::SimTime;
//!
//! // A ten-event loop on a min-heap keyed `(time, unique seq)`: fire the
//! // earliest event, schedule the next after an exponential gap.
//! fn run(seed: u64) -> SimTime {
//!     let mut rng = RngForge::new(seed).stream("arrivals");
//!     let gap = Dist::exponential(0.001);
//!     let mut queue = BinaryHeap::new();
//!     queue.push(Reverse((SimTime::ZERO, 0u64)));
//!     let mut now = SimTime::ZERO;
//!     while let Some(Reverse((at, seq))) = queue.pop() {
//!         now = at;
//!         if seq < 9 {
//!             queue.push(Reverse((at + gap.sample(&mut rng), seq + 1)));
//!         }
//!     }
//!     now
//! }
//! // A run is a function of its seed.
//! assert_eq!(run(7), run(7));
//! assert!(run(7) > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disconnect;
pub mod dist;
pub mod faults;
pub mod hash;
pub mod mc;
pub mod overload;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod trace;

pub use disconnect::DisconnectPolicy;
pub use dist::Dist;
pub use faults::{FaultPlan, FaultPlanError, RetryDecision, RetryPolicy};
pub use mc::{McConfig, McModel, McReport};
pub use overload::{CircuitBreaker, OverloadPolicy};
pub use rng::RngForge;
pub use shard::{merge_keyed_into, EffectKey, ShardMap};
pub use stats::{DurationSummary, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceHandle};
