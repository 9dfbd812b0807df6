//! Pins the engine's exact operation counters ([`PhaseBreakdown`]) on a
//! small fixed HiveMind run at 1 and 2 shards.
//!
//! hivebench reports these counters as `engine.events`,
//! `engine.queue_ops`, `engine.rng_draws`, `engine.merge_elems`,
//! `engine.exchange_effects` and `engine.exchange_epochs`, and they are
//! exact: the same on every machine and in every profile. A change that
//! drops or doubles a push or pop on the hub action heap, a shard's
//! capture run or a shard's wake heap moves `queue_ops` here.
//!
//! The first four constants were recorded on the calendar-queue engine
//! these binary heaps replaced, which counted one op per push and per
//! pop as they do:
//!
//! | shards | events | queue_ops | rng_draws | exchange_effects |
//! |---|---|---|---|---|
//! | 1 | 17_920 | 20_480 | 10_240 | 2_560 |
//! | 2 | 17_920 | 20_480 | 10_240 | 2_560 |
//!
//! The exchange counters were recorded on the barrier exchange that
//! swaps in a lone shard batch, merges only when two or more runs are
//! non-empty and counts no epoch that moved no effect:
//!
//! | run | shards | merge_elems | exchange_epochs |
//! |---|---|---|---|
//! | all 32 devices, to completion | 1 | 1_330 | 80 |
//! | all 32 devices, to completion | 2 | 2_617 | 80 |
//! | devices 0..16, record by record | 1 | 615 | 680 |
//! | devices 0..16, record by record | 2 | 615 | 680 |

use hivemind_apps::suite::App;
use hivemind_core::engine::{Engine, EngineConfig, PhaseBreakdown};
use hivemind_core::platform::Platform;
use hivemind_sim::time::{SimDuration, SimTime};

/// Runs devices `0..capturing` of 32 capturing every 250 ms for 20 s,
/// the even ones on an edge-placed app (device FIFOs and the wake heap)
/// and the odd ones on a cloud-placed one (hub actions, fabric and
/// cluster), and returns `(events, breakdown)`. The run goes to
/// completion in one call or, with `by_record`, one
/// [`Engine::run_until_record`] at a time, whose epochs shrink to the
/// wireless lookahead and so leave effects pending across barriers.
fn counters(shards: u32, capturing: u32, by_record: bool) -> (u64, PhaseBreakdown) {
    let mut cfg = EngineConfig::testbed(Platform::HiveMind);
    cfg.devices = 32;
    cfg.servers = 24;
    cfg.shards = shards;
    let mut engine = Engine::new(cfg);
    for i in 0..80u64 {
        for dev in 0..capturing {
            let app = if dev % 2 == 0 {
                App::FaceRecognition
            } else {
                App::DroneDetection
            };
            let at = SimTime::ZERO + SimDuration::from_millis(250 * i + dev as u64);
            engine.submit_task(at, dev, app, dev);
        }
    }
    let completed = if by_record {
        std::iter::from_fn(|| Some(engine.run_until_record()).filter(|r| !r.is_empty()))
            .map(|r| r.len())
            .sum()
    } else {
        engine.run_to_completion().len()
    };
    assert_eq!(completed, 80 * capturing as usize, "every task completes");
    (engine.events_processed(), engine.phase_breakdown())
}

#[test]
fn operation_counters_match_recorded_values() {
    for (shards, merge_elems) in [(1u32, 1_330), (2, 2_617)] {
        let (events, b) = counters(shards, 32, false);
        assert_eq!(
            (events, b.queue_ops, b.rng_draws, b.exchange_effects),
            (17_920, 20_480, 10_240, 2_560),
            "exact counters moved at {shards} shards"
        );
        assert_eq!(
            (b.merge_elems, b.exchange_epochs),
            (merge_elems, 80),
            "exchange counters moved at {shards} shards"
        );
    }
}

/// With only shard 0's devices capturing, every fresh run comes from one
/// shard, so a second shard adds no merge work and no epoch.
#[test]
fn one_shard_batches_swap_at_any_shard_count() {
    for shards in [1u32, 2] {
        let (events, b) = counters(shards, 16, true);
        assert_eq!(
            (events, b.exchange_effects),
            (8_960, 1_280),
            "exact counters moved at {shards} shards"
        );
        assert_eq!(
            (b.merge_elems, b.exchange_epochs),
            (615, 680),
            "exchange counters moved at {shards} shards"
        );
    }
}
