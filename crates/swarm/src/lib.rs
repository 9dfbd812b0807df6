//! # hivemind-swarm
//!
//! Edge devices and the physical world they operate in.
//!
//! The paper's two testbeds are a 16-drone swarm (Parrot AR. Drone 2.0:
//! 1 GHz Cortex-A8, 4 m/s, 8 fps × 2 MB camera frames with a
//! 6.7 m × 8.75 m footprint) and a 14-car rover swarm (Raspberry Pi,
//! slower but far less power-constrained). This crate models:
//!
//! * [`geometry`] — points, rectangles, field partitioning;
//! * [`field`] — mission worlds: static items (tennis balls), moving
//!   people (random-waypoint), with deterministic placement;
//! * [`route`] — boustrophedon coverage lanes (Scenario A's per-drone
//!   routes, Sec. 2.1);
//! * [`maze`] — seeded maze generation and the Wall Follower traversal
//!   algorithm used by the S6 benchmark and the cars' Maze scenario;
//! * [`device`] — device speed, camera and compute profiles, and the
//!   engine's per-shard battery blocks;
//! * [`battery`] — energy accounting (motion dominates, communication and
//!   on-board compute also drain, Sec. 5.2);
//! * [`failover`] — heartbeat tracking (1 s beat / 3 s timeout) and the
//!   geometric load repartitioning of Fig. 10;
//! * [`disconnect`] — bounded replay rings and the exactly-once
//!   reconnect session used by the disconnected-operation plane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod device;
pub mod disconnect;
pub mod failover;
pub mod field;
pub mod geometry;
pub mod maze;
pub mod route;

pub use battery::Battery;
pub use device::{BatteryBlock, DeviceKind};
pub use field::Field;
pub use geometry::{Point, Rect};
