//! Pins the engine's exact operation counters ([`PhaseBreakdown`]) on a
//! small fixed HiveMind run at 1 and 2 shards.
//!
//! hivebench reports these counters as `engine.events`,
//! `engine.queue_ops`, `engine.rng_draws` and `engine.exchange_effects`,
//! and they are exact: the same on every machine and in every profile.
//! A change that drops or doubles a push or pop on the hub action heap,
//! a shard's capture run or a shard's wake heap moves `queue_ops` here.
//!
//! The constants were recorded on the calendar-queue engine these binary
//! heaps replaced, which counted one op per push and per pop as they do:
//!
//! | shards | events | queue_ops | rng_draws | exchange_effects |
//! |---|---|---|---|---|
//! | 1 | 17_920 | 20_480 | 10_240 | 2_560 |
//! | 2 | 17_920 | 20_480 | 10_240 | 2_560 |

use hivemind_apps::suite::App;
use hivemind_core::engine::{Engine, EngineConfig, PhaseBreakdown};
use hivemind_core::platform::Platform;
use hivemind_sim::time::{SimDuration, SimTime};

/// Runs 32 devices capturing every 250 ms for 20 s, half on an
/// edge-placed app (device FIFOs and the wake heap) and half on a
/// cloud-placed one (hub actions, fabric and cluster), and returns
/// `(events, breakdown)`.
fn counters(shards: u32) -> (u64, PhaseBreakdown) {
    let mut cfg = EngineConfig::testbed(Platform::HiveMind);
    cfg.devices = 32;
    cfg.servers = 24;
    cfg.shards = shards;
    let mut engine = Engine::new(cfg);
    for i in 0..80u64 {
        for dev in 0..32 {
            let app = if dev % 2 == 0 {
                App::FaceRecognition
            } else {
                App::DroneDetection
            };
            let at = SimTime::ZERO + SimDuration::from_millis(250 * i + dev as u64);
            engine.submit_task(at, dev, app, dev);
        }
    }
    let records = engine.run_to_completion();
    assert_eq!(records.len(), 80 * 32, "every task completes");
    (engine.events_processed(), engine.phase_breakdown())
}

#[test]
fn operation_counters_match_recorded_values() {
    for shards in [1u32, 2] {
        let (events, b) = counters(shards);
        assert_eq!(
            (events, b.queue_ops, b.rng_draws, b.exchange_effects),
            (17_920, 20_480, 10_240, 2_560),
            "exact counters moved at {shards} shards"
        );
    }
}
