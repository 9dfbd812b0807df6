//! Disconnect-plane guarantees:
//!
//! 1. an all-defaults [`DisconnectPolicy`] is inert — byte-identical
//!    metrics to a config that never mentions the plane at all;
//! 2. a partitioned run with autonomy armed is byte-identical across
//!    `shards ∈ {1, 2, 8}` × `threads ∈ {1, 4}` — lease expiry, degraded
//!    execution, buffering and replay are all pure functions of the
//!    fault plan and the event stream;
//! 3. a mission under repeated partitions still completes with the
//!    plane armed, the controller re-arms every live device at each
//!    heal, and no buffered update is lost or double-delivered;
//! 4. the plane only ever *adds* the `reconnect` block to the Outcome
//!    JSON — every other byte matches the hold-only baseline when no
//!    lease expires.

use hivemind_core::prelude::*;
use hivemind_core::runner::RunSet;

fn partitioned(policy: DisconnectPolicy) -> ExperimentConfig {
    partitioned_over(policy, 5.0, 15.0)
}

fn partitioned_over(policy: DisconnectPolicy, from: f64, until: f64) -> ExperimentConfig {
    ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration(SimDuration::from_secs(25))
        .seed(17)
        .plan(
            RunPlan::new()
                .faults(FaultPlan::default().partition(from, until))
                .disconnect(policy),
        )
}

#[test]
fn default_disconnect_policy_is_inert() {
    let cfg = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .seed(11);
    let plain = Experiment::new(cfg.clone()).run();
    let planned =
        Experiment::new(cfg.plan(RunPlan::new().disconnect(DisconnectPolicy::default()))).run();
    assert!(planned.reconnect.is_none(), "inert plane reports nothing");
    assert_eq!(plain.to_json(), planned.to_json());
}

#[test]
fn partitioned_reconnect_is_identical_across_shards_and_threads() {
    let base = partitioned(DisconnectPolicy::default().autonomous());
    let dump =
        |set: &RunSet| -> Vec<String> { set.outcomes().iter().map(|o| o.to_json()).collect() };
    let reference = {
        let set = Runner::with_threads(1)
            .run_replicates(&base.clone().plan(base.plan.clone().shards(1)), 3);
        dump(&set)
    };
    // The reference run actually exercised the plane.
    let probe = Experiment::new(base.clone()).run();
    let r = probe.reconnect.expect("armed plane populates stats");
    assert!(r.tasks_degraded > 0 && r.updates_replayed > 0);
    for shards in [1u32, 2, 8] {
        for threads in [1usize, 4] {
            let cfg = base.clone().plan(base.plan.clone().shards(shards));
            let got = dump(&Runner::with_threads(threads).run_replicates(&cfg, 3));
            assert_eq!(
                reference, got,
                "diverged at {shards} shards x {threads} threads"
            );
        }
    }
}

#[test]
fn mission_survives_repeated_partitions() {
    let base = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .seed(11)
        .plan(
            RunPlan::new()
                .faults(
                    FaultPlan::default()
                        .partition(30.0, 60.0)
                        .partition(120.0, 150.0),
                )
                .disconnect(DisconnectPolicy::default().autonomous()),
        );
    let o = Experiment::new(base.clone()).run();
    assert!(o.mission.completed, "autonomy carries the mission");
    let r = o.reconnect.expect("armed plane populates stats");
    assert_eq!(r.partitions, 2, "one reconciliation per heal");
    assert!(
        r.devices_rearmed >= 32,
        "every live device re-arms at each heal, got {}",
        r.devices_rearmed
    );
    assert_eq!(
        r.updates_buffered,
        r.updates_replayed + r.updates_expired,
        "exactly-once: nothing still buffered after the final heal"
    );
    assert_eq!(r.duplicates_dropped, 0);
    // The same mission is shard-invariant with the plane armed.
    let reference = o.to_json();
    for shards in [2u32, 8] {
        let sharded = Experiment::new(base.clone().plan(base.plan.clone().shards(shards)))
            .run()
            .to_json();
        assert_eq!(reference, sharded, "{shards} shards diverged");
    }
}

#[test]
fn unexpired_lease_changes_only_the_reconnect_block() {
    // With the 3 s lease outliving a 2.5 s outage the device never
    // degrades, so the armed run must behave byte-for-byte like the
    // hold-only baseline except for reporting the (empty) reconnect
    // session.
    let hold_only = Experiment::new(partitioned_over(DisconnectPolicy::default(), 5.0, 7.5)).run();
    let armed = Experiment::new(partitioned_over(
        DisconnectPolicy::default().autonomous(),
        5.0,
        7.5,
    ))
    .run();
    assert!(hold_only.reconnect.is_none());
    let r = armed.reconnect.expect("armed plane populates stats");
    assert_eq!(r.tasks_degraded, 0);
    assert_eq!(r.updates_replayed, 0);
    let strip = |json: &str| -> String {
        let start = json
            .find(",\"reconnect\":{")
            .expect("reconnect block present");
        let rest = &json[start + 1..];
        let depth_end = rest.find('}').expect("block closes") + 1;
        format!("{}{}", &json[..start], &rest[depth_end..])
    };
    assert_eq!(hold_only.to_json(), strip(&armed.to_json()));
}
