//! Memory guard: once an engine has run its schedule, the heap it still
//! holds is a small constant, not proportional to the tasks it ran.
//!
//! Every caller submits its whole capture schedule before running, so
//! each shard's capture run starts out holding every capture (24 B
//! each). The run hands back consumed capacity after each shard phase,
//! so by the end of the schedule it is back near its floor. This is what
//! the peak-heap guard (`peak_heap.rs`) cannot see: its peak falls at
//! the start, where the whole schedule is live and the outcome's latency
//! buffers are charged in full.
//!
//! A counting global allocator tracks live heap bytes. An edge-local
//! engine at two shards takes a bulk schedule of 204,800 captures, runs
//! it to completion into a sink that drops every record, and must then
//! hold under [`HELD_BYTES`] more than it did before the submission.
//! Run with debug assertions (as CI does) this also checks the capture
//! run's pop order across every shrink.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hivemind_apps::suite::App;
use hivemind_core::engine::{Engine, EngineConfig};
use hivemind_core::platform::Platform;
use hivemind_sim::time::SimTime;

/// Tracks live bytes without changing behaviour.
struct CountingAlloc;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DEVICES: u32 = 512;
/// Captures per device, one a second.
const FRAMES: u64 = 400;

/// Heap bytes the engine may still hold after the schedule beyond what
/// it held before it. It holds 0.79 MB: each shard's capture run keeps
/// its 192 KiB floor, and the rest is sized by in-flight work and the
/// per-second series. The schedule itself is 4.9 MB of capture entries,
/// and a capture run that kept them all allocated held 6.7 MB here.
const HELD_BYTES: usize = 1 << 20;

#[test]
fn drained_engine_holds_no_per_task_heap() {
    let mut cfg = EngineConfig::testbed(Platform::DistributedEdge);
    cfg.devices = DEVICES;
    cfg.shards = 2;
    let mut engine = Engine::new(cfg);
    let before = LIVE.load(Ordering::Relaxed);
    for dev in 0..DEVICES {
        for s in 0..FRAMES {
            engine.submit_task(SimTime::from_secs(s), dev, App::ObstacleAvoidance, 0);
        }
    }
    let tasks = DEVICES as usize * FRAMES as usize;
    let submitted = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        submitted >= tasks * 24,
        "the schedule is held in full before the run: {submitted} B for {tasks} captures"
    );

    let mut done = 0usize;
    engine.run_until_with(SimTime::MAX, |_| done += 1);
    assert_eq!(done, tasks, "every capture completed");

    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert!(
        held < HELD_BYTES,
        "after {tasks} tasks the engine still holds {held} B more than before \
         its schedule (bound {HELD_BYTES})"
    );
}
