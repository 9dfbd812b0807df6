//! Regression tests for the sharded engine's determinism contract: the
//! shard count partitions the event loop spatially but must never change
//! an output byte. Every replicate derives its RNG lanes per device and
//! merges boundary events through the `(time, lane, seq)`-keyed barrier,
//! so `RunPlan::shards` (or `HIVEMIND_SHARDS`) is purely a parallelism
//! knob — like `HIVEMIND_THREADS`, which it composes with (shards split
//! one replicate, threads fan replicates out).

use hivemind_apps::scenario::Scenario;
use hivemind_apps::suite::App;
use hivemind_core::experiment::{Experiment, ExperimentConfig, RunPlan};
use hivemind_core::runner::Runner;
use hivemind_core::Platform;
use hivemind_sim::faults::FaultPlan;
use hivemind_sim::overload::OverloadPolicy;

fn sharded(cfg: &ExperimentConfig, shards: u32) -> String {
    Experiment::new(cfg.clone().plan(cfg.plan.clone().shards(shards)))
        .run()
        .to_json()
}

/// Mission scenario (the fullest code path: controller, batteries,
/// detection scoring): byte-identical Outcome JSON at 1, 2, and 8
/// shards.
#[test]
fn mission_outcome_identical_across_shard_counts() {
    let base = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .seed(11);
    let reference = sharded(&base, 1);
    for shards in [2u32, 8] {
        assert_eq!(
            reference,
            sharded(&base, shards),
            "{shards} shards diverged"
        );
    }
}

/// The shard × thread grid from the acceptance criteria: every
/// combination of `shards ∈ {1, 2, 8}` and `threads ∈ {1, 4}` yields the
/// same serialized RunSet.
#[test]
fn shard_thread_grid_yields_one_byte_stream() {
    let base = ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::HiveMind)
        .duration_secs(10.0)
        .seed(42);
    let reference = Runner::with_threads(1)
        .run_replicates(&base.clone().plan(RunPlan::new().shards(1)), 3)
        .to_json();
    for shards in [1u32, 2, 8] {
        for threads in [1usize, 4] {
            let cfg = base.clone().plan(RunPlan::new().shards(shards));
            let got = Runner::with_threads(threads)
                .run_replicates(&cfg, 3)
                .to_json();
            assert_eq!(
                reference, got,
                "diverged at {shards} shards x {threads} threads"
            );
        }
    }
}

/// Faults cross shard boundaries (packet loss re-rolls, device crashes,
/// a controller failover mid-mission) — all drawn from per-device lanes,
/// so the schedule is still shard-invariant.
#[test]
fn faulted_mission_is_shard_invariant() {
    let base = ExperimentConfig::scenario(Scenario::MovingPeople)
        .platform(Platform::HiveMind)
        .seed(5)
        .plan(
            RunPlan::new().faults(
                FaultPlan::default()
                    .packet_loss(0.05)
                    .device_mtbf(1200.0)
                    .controller_failover(60.0),
            ),
        );
    let reference = sharded(&base, 1);
    for shards in [2u32, 8] {
        assert_eq!(
            reference,
            sharded(&base, shards),
            "{shards} shards diverged"
        );
    }
}

/// Overload control active (bounded queues, breaker, spillover): the
/// admission decisions observe the same event order at any shard count.
#[test]
fn overloaded_run_is_shard_invariant() {
    let base = ExperimentConfig::single_app(App::DroneDetection)
        .platform(Platform::HiveMind)
        .duration_secs(20.0)
        .rate_scale(4.0)
        .seed(9)
        .plan(RunPlan::new().overload(OverloadPolicy::default().queue_bound(16).spillover()));
    let reference = sharded(&base, 1);
    for shards in [2u32, 8] {
        assert_eq!(
            reference,
            sharded(&base, shards),
            "{shards} shards diverged"
        );
    }
}

/// A shard count above the fleet size clamps to one device per shard
/// rather than erroring when it comes from the environment-style `0`
/// path; the pinned path validates instead (covered in the experiment
/// unit tests). Here: devices == shards is legal and byte-identical.
#[test]
fn one_device_per_shard_is_legal_and_identical() {
    let base = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .devices(8)
        .seed(3);
    assert_eq!(sharded(&base, 1), sharded(&base, 8));
}

/// `HIVEMIND_SHARDS` is honored when the plan leaves shards at 0
/// (isolated: no other test in this binary reads the environment —
/// they all pin the count through the plan).
#[test]
fn env_var_controls_shard_count() {
    let base = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .seed(13);
    let pinned = sharded(&base, 2);
    std::env::set_var("HIVEMIND_SHARDS", "2");
    let from_env = Experiment::new(base.clone()).run().to_json();
    std::env::remove_var("HIVEMIND_SHARDS");
    let unset = Experiment::new(base).run().to_json();
    assert_eq!(pinned, from_env);
    assert_eq!(pinned, unset);
}
