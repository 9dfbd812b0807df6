//! Memory guard: a mission's heap is sized by its in-flight work, not by
//! every task it ever ran.
//!
//! A counting global allocator tracks live heap bytes and their
//! high-water mark. A 256-device Scenario A mission on HiveMind (the
//! fig17b configuration: three servers per four devices) runs through
//! `Experiment::run` at one shard and again at two, and each run's peak
//! live heap, divided by the tasks it completed, must stay under
//! [`PEAK_BYTES_PER_TASK`].
//!
//! What a completed task may still cost at the peak: its capture entry
//! (24 B), since the whole schedule is submitted before the run and the
//! peak falls at its start, and one 4-byte sample per latency category
//! (24 B) in the outcome, whose exact quantiles need every sample and
//! whose buffers are presized. A shard's capture run hands consumed
//! capacity back as it runs, which this peak cannot see;
//! `drained_heap.rs` guards that. The engine's hub holds nothing for a
//! task that is not in flight. A per-task array kept for the whole run,
//! a retained record, or per-task progress state pushes the figure past
//! the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hivemind_apps::scenario::Scenario;
use hivemind_core::experiment::{Experiment, ExperimentConfig, RunPlan};
use hivemind_core::platform::Platform;

/// Tracks live bytes and their high-water mark without changing
/// behaviour.
struct CountingAlloc;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
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
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live heap bytes per completed task. The mission completes 30,976
/// tasks and peaks at 2.26 MB of live heap at one shard and 2.30 MB at
/// two (72 and 74 B per task, debug and release). It read 99 B per task
/// while the latency samples took 8 bytes each, 108 B while the
/// mission kept its flight plans and per-device batch lists through the
/// run, 169–170 B while the engine kept 20 B of birth facts and slot
/// index for every task and the active-function series a point per
/// change, and 345 B when the engine kept every
/// task's full state and the mission every record until assembly.
const PEAK_BYTES_PER_TASK: usize = 99;

#[test]
fn mission_peak_heap_is_bounded_per_task() {
    // One test, so the two runs never overlap on the shared counters.
    for shards in [1, 2] {
        let cfg = ExperimentConfig::scenario(Scenario::StationaryItems)
            .platform(Platform::HiveMind)
            .devices(256)
            .servers(192)
            .seed(1)
            .plan(RunPlan::new().shards(shards));
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let outcome = Experiment::new(cfg).run();
        let peak = PEAK.load(Ordering::Relaxed) - base;
        let tasks = outcome.tasks.len();
        assert!(tasks > 30_000, "the mission ran its frame batches: {tasks}");
        let per_task = peak / tasks;
        assert!(
            per_task < PEAK_BYTES_PER_TASK,
            "{shards} shard(s): peak live heap {peak} B over {tasks} tasks is \
             {per_task} B per task (bound {PEAK_BYTES_PER_TASK})"
        );
    }
}
