//! Allocation regression test: the engine's hot loop is allocation-free
//! in steady state, in debug and release builds alike.
//!
//! After a warm-up, every buffer a steady-state epoch touches holds its
//! capacity:
//! - each shard's capture run and its tail (a fold merges in place, into
//!   whichever of the two has the larger capacity). Above a floor of
//!   8,192 entries a buffer shrinks once its live entries fall below half
//!   of it, which here happens twice in the warm-up (at about 8 s and
//!   22 s), leaving the run at the floor, where it never shrinks again;
//! - the hub's progress slab and its free list (a task takes a recycled
//!   slot at its first hub touch and frees it when it resolves), and the
//!   per-epoch record buffer drained to the caller;
//! - the hub action heap and each shard's wake heap;
//! - the exchange scratch: the pending-effect run, its merge target and
//!   each shard's outbound effect batch;
//! - the per-epoch delivery, completion and FIFO completion buffers.
//!
//! A counting global allocator pins that property: a 3 s window (three
//! capture waves) of a mission-scale workload must perform **zero** heap
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use hivemind_apps::suite::App;
use hivemind_core::engine::{Engine, EngineConfig};
use hivemind_core::platform::Platform;
use hivemind_sim::time::{SimDuration, SimTime};

/// Counts allocations (and growth reallocations) without changing
/// behavior; frees are not counted — returning memory is always fine.
/// Only the thread that opted in via [`MEASURE`] is counted, plus, inside
/// the measured [`WINDOW`], the engine's phase worker thread (which runs
/// the next epoch's shard phase on multi-core hosts): the libtest harness
/// runs its own bookkeeping on other threads concurrently, and a stray
/// allocation there is not the engine's problem.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Set only while the measured window runs.
static WINDOW: AtomicBool = AtomicBool::new(false);

std::thread_local! {
    // `const`-initialized so reading it from inside the allocator is a
    // plain TLS load that can never itself allocate or recurse.
    static MEASURE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[inline]
fn counted() -> bool {
    // try_with: TLS may already be torn down during thread exit.
    MEASURE.try_with(std::cell::Cell::get).unwrap_or(false)
        // Every thread that can run inside the window was started by std,
        // so `current()` only clones its handle and never allocates.
        || (WINDOW.load(Ordering::Relaxed)
            && std::thread::current().name() == Some("hivemind-phase"))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tests share [`WINDOW`] and the phase worker's thread name, so
/// they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_epoch_allocates_nothing() {
    // Every device captures at the top of each second.
    mission_slice_allocates_nothing(SimDuration::ZERO);
}

/// Device `d` captures `d × 3.9 ms` into each second, so every epoch has
/// shard work and, on a multi-core host, the next epoch's shard phase
/// runs on the phase worker while the hub runs: the handoff over its
/// channel, the barrier and the worker's side must not allocate either.
#[test]
fn pipelined_epochs_allocate_nothing() {
    mission_slice_allocates_nothing(SimDuration::from_micros(3_906));
}

fn mission_slice_allocates_nothing(stagger: SimDuration) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    MEASURE.with(|m| m.set(true));
    let mut cfg = EngineConfig::testbed(Platform::HiveMind);
    cfg.devices = 256;
    cfg.servers = 192;
    cfg.shards = 1;
    let mut engine = Engine::new(cfg);
    // The fig17-style mission slice: every device captures once per
    // second for 40 s, half edge-placed, half cloud-placed.
    for i in 0..40u64 {
        for dev in 0..256 {
            let app = if dev % 2 == 0 {
                App::FaceRecognition
            } else {
                App::DroneDetection
            };
            let at = SimTime::from_secs(i) + stagger * dev as u64;
            engine.submit_task(at, dev, app, dev);
        }
    }
    // Warm-up: run most of the mission so every hot buffer has reached
    // its high-water capacity. History accumulators (invocation table,
    // time series, meters) legitimately double at geometrically spaced
    // instants, so the measured window below is placed where none of
    // those boundaries fall for this deterministic workload.
    let mut records = Vec::with_capacity(32_768);
    engine.run_until_with(SimTime::from_secs(26), |r| records.push(r));
    assert!(
        !records.is_empty(),
        "warm-up must complete tasks, or the measurement below is vacuous"
    );

    // Measure: three full capture waves (thousands of events through
    // every engine layer) of the steady mid-mission phase. The run is
    // deterministic, so a capacity boundary landing inside the window
    // would fail on every machine identically — that is the regression
    // signal, not flakiness. If a workload or scheduling change moves an
    // amortized growth boundary into this window, the count will be a
    // handful and the window should be re-tuned; a hot-path buffer
    // losing its capacity shows up as thousands.
    let before = ALLOCS.load(Ordering::Relaxed);
    WINDOW.store(true, Ordering::Relaxed);
    engine.run_until_with(SimTime::from_secs(26) + SimDuration::from_secs(3), |r| {
        records.push(r)
    });
    WINDOW.store(false, Ordering::Relaxed);
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "steady-state epochs allocated {during} times; a hot-path buffer lost its capacity"
    );

    // Sanity: the engine still finishes the mission correctly afterwards.
    let rest = engine.run_to_completion();
    assert!(records.len() + rest.len() >= 40 * 256 / 2);
}
