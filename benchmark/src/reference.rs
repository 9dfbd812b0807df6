//! The reference kernel: fixed, DES-shaped work timed in the same process
//! right before every repetition, so that swings in host speed cancel out
//! of the reported times.
//!
//! On a shared host the simulator's speed drifts by 20% or more over
//! minutes, far beyond any useful regression bound. The kernel is a heap
//! event loop over a 32 MB state array with hash-map churn, the access
//! pattern of the engine's hub, and it slows down with the same
//! contention; it calls nothing outside this file, so no change to the
//! program under test can speed it up.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the quiet reference host (2 vCPUs, release
/// build). Times are reported as `measured × REFERENCE_HOST_S / kernel`:
/// seconds on that host at its quiet speed.
pub const REFERENCE_HOST_S: f64 = 0.26;

const STATE: usize = 1 << 20;
const EVENTS: u64 = 1 << 20;

/// Runs the kernel once and returns its wall time.
pub fn run() -> Duration {
    let start = Instant::now();
    let mut state = vec![[0u64; 4]; STATE];
    let mut heap = BinaryHeap::with_capacity(1 << 18);
    let mut pending: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut rng = 42u64;
    for i in 0..1u32 << 17 {
        heap.push(Reverse((xorshift(&mut rng) % 1_000_000, i)));
    }
    let mut now = 0;
    for k in 0..EVENTS {
        let Reverse((at, id)) = heap.pop().expect("every pop is followed by a push");
        now = at;
        let cell = &mut state[(id as usize).wrapping_mul(2_654_435_761) % STATE];
        cell[0] = cell[0].wrapping_add(at);
        cell[1] ^= k;
        match k % 4 {
            0 => {
                pending.insert(k, at);
            }
            1 => {
                pending.remove(&(k - 1));
            }
            _ => {}
        }
        let r = xorshift(&mut rng);
        heap.push(Reverse((now + r % 10_000, (r >> 32) as u32)));
    }
    black_box((&state, pending.len(), now));
    start.elapsed()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}
