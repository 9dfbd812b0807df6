//! Real algorithmic kernels behind the missions.
//!
//! The latency figures need only cost profiles, but the *semantic*
//! results — how many unique people were counted, what a sign says — come
//! from these working implementations:
//!
//! * [`embedding`] — a FaceNet-style identity embedding space where
//!   Euclidean distance encodes face similarity (S1, S5).
//! * [`dedup`] — union-find clustering over embeddings to count unique
//!   people (S5, Scenario B).
//! * [`ocr`] — template-matching OCR over a 5×7 bitmap font (S9, and the
//!   Treasure Hunt instruction panels).
//!
//! S6 (maze traversal) lives in [`hivemind_swarm::maze`].

pub mod dedup;
pub mod embedding;
pub mod ocr;
