//! Chaos sweep — graceful degradation under the unified fault plane.
//!
//! Reproduces the spirit of Fig. 5c (function failures masked by respawn)
//! and Fig. 10 (device failure absorbed by the swarm), but across the
//! whole fault vocabulary at once: a function-fault-rate × packet-loss
//! grid under a bounded give-up retry policy, plus mission rows with a
//! mid-mission controller failover and stochastic device MTBF failures.
//!
//! Every stochastic fault draw comes from the dedicated `"faults"` lane
//! of the seed chain, so each grid cell runs the *same* workload sample
//! under a different disturbance level — the curves are pure fault
//! response, not seed noise.
//!
//! The run ends with a fault cocktail (nonzero packet loss, one server
//! crash, one device MTBF failure) through the replicate runner, printed
//! as outcome JSON; the golden pins it across `HIVEMIND_THREADS` and
//! `HIVEMIND_SHARDS` values, so the fault plane stays byte-deterministic.

use hivemind_bench::{banner, runner, Table};
use hivemind_core::prelude::*;

/// Completed fraction of all issued tasks (completed + lost).
fn completion_pct(o: &Outcome) -> f64 {
    let completed = o.tasks.len() as u64;
    let lost = o.recovery.map(|r| r.tasks_lost).unwrap_or(0);
    100.0 * completed as f64 / (completed + lost).max(1) as f64
}

fn grid_config(fault_rate: f64, packet_loss: f64) -> ExperimentConfig {
    let mut plan = FaultPlan::default()
        // Bounded policy: 4 attempts, 50 ms exponential backoff, then
        // give up — unlike the paper's retry-forever default, this makes
        // task loss *possible*, which is what a degradation curve needs.
        .retry(RetryPolicy::bounded(4, SimDuration::from_millis(50)));
    if fault_rate > 0.0 {
        plan = plan.function_fault_rate(fault_rate);
    }
    if packet_loss > 0.0 {
        plan = plan.packet_loss(packet_loss);
    }
    ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration_secs(30.0)
        .seed(7)
        .plan(RunPlan::new().faults(plan))
}

fn sweep() {
    banner("Chaos sweep: task completion % under fault rate × packet loss");
    const RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
    const LOSSES: [f64; 3] = [0.0, 0.05, 0.10];
    let mut table = Table::new(["fault rate", "loss 0%", "loss 5%", "loss 10%"]);
    let mut at_10_5 = 100.0;
    for &rate in &RATES {
        let mut cells = vec![format!("{:.0}%", rate * 100.0)];
        for &loss in &LOSSES {
            let outcome = Experiment::new(grid_config(rate, loss)).run();
            let pct = completion_pct(&outcome);
            let retried = outcome.recovery.map(|r| r.tasks_retried).unwrap_or(0);
            if rate == 0.10 && loss == 0.05 {
                at_10_5 = pct;
            }
            cells.push(format!("{pct:.1}% ({retried} retried)"));
        }
        table.row(cells);
    }
    table.print();
    println!("(bounded retry: 4 attempts, 50 ms backoff, give up afterwards)");
    assert!(
        at_10_5 >= 95.0,
        "at 10% fault rate + 5% loss the retry policy must carry >= 95% \
         of tasks to completion, got {at_10_5:.1}%"
    );

    banner("Scenario A under swarm-level chaos (Fig. 10-style)");
    let base = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::HiveMind)
        .seed(11);
    let healthy = Experiment::new(base.clone()).run();
    let failover = Experiment::new(
        base.clone()
            .plan(RunPlan::new().faults(FaultPlan::default().controller_failover(60.0))),
    )
    .run();
    let mtbf = Experiment::new(
        base.clone()
            .plan(RunPlan::new().faults(FaultPlan::default().device_mtbf(900.0))),
    )
    .run();
    // A 30 s wireless partition with the disconnect plane armed: devices
    // ride out the outage on the degraded on-device model and replay
    // buffered summaries at heal (see partition_sweep for the full grid).
    let partition = Experiment::new(
        base.plan(
            RunPlan::new()
                .faults(
                    FaultPlan::default()
                        .partition_hold_bound(256)
                        .partition(60.0, 90.0),
                )
                .disconnect(DisconnectPolicy::default().autonomous()),
        ),
    )
    .run();
    let mut table = Table::new(["mission", "time (s)", "found", "completed", "failures"]);
    for (label, o) in [
        ("healthy", &healthy),
        ("controller failover @60s", &failover),
        ("device MTBF 900 s", &mtbf),
        ("30 s partition, autonomous", &partition),
    ] {
        let (devf, ctlf) = o
            .recovery
            .map(|r| (r.device_failures, r.controller_failovers))
            .unwrap_or((0, 0));
        table.row([
            label.to_string(),
            format!("{:.1}", o.mission.duration_secs),
            format!("{}/{}", o.mission.targets_found, o.mission.targets_total),
            o.mission.completed.to_string(),
            format!("{devf} dev, {ctlf} ctl"),
        ]);
    }
    table.print();
    println!("(the failover stalls cluster admission for the 3 s detection window + takeover;");
    println!(" MTBF failures are detected via heartbeats and absorbed by neighbours;");
    println!(" the partition is ridden out on-device and reconciled exactly once at heal)");
    assert!(
        failover.mission.completed
            && failover.mission.targets_found >= healthy.mission.targets_found,
        "a mid-mission controller failover must not lose targets: {} vs {}",
        failover.mission.targets_found,
        healthy.mission.targets_found
    );
    let reconnect = partition.reconnect.expect("armed plane populates stats");
    assert!(
        partition.mission.completed && reconnect.partitions == 1,
        "a partitioned mission with autonomy armed must still complete \
         (completed {}, partitions {})",
        partition.mission.completed,
        reconnect.partitions
    );
}

/// Prints the outcome JSON of a fault cocktail, recovery block included.
fn outcome_json() {
    // Nonzero loss + one scheduled server crash on the single-app side...
    let cluster_plan = FaultPlan::default()
        .packet_loss(0.05)
        .server_crash(1, 10.0, 10.0)
        .slo(SimDuration::from_secs(5));
    let cfg = ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration_secs(20.0)
        .seed(5)
        .plan(RunPlan::new().faults(cluster_plan));
    // ...through the replicate runner, so HIVEMIND_THREADS affects the
    // execution schedule but must not affect any byte of the output.
    let set = runner().run_replicates(&cfg, 3);
    for (seed, outcome) in set.seeds().iter().zip(set.outcomes()) {
        let r = outcome.recovery.expect("active plan yields recovery stats");
        assert_eq!(r.server_crashes, 1, "the scheduled crash fired");
        assert!(r.invocations_rescheduled >= r.invocations_lost);
        println!("seed {seed}: {}", outcome.to_json());
    }

    // ...and one device MTBF failure on the mission side (MTBF chosen so
    // this seed loses at least one drone inside the mission horizon).
    let mission = Experiment::new(
        ExperimentConfig::scenario(Scenario::StationaryItems)
            .platform(Platform::HiveMind)
            .seed(5)
            .plan(RunPlan::new().faults(FaultPlan::default().device_mtbf(3000.0))),
    )
    .run();
    let r = mission.recovery.expect("active plan yields recovery stats");
    assert!(r.device_failures >= 1, "MTBF must claim a device");
    assert!(r.mean_detection_secs >= 3.0, "heartbeat window is 3 s");
    println!("mission: {}", mission.to_json());
}

fn main() {
    hivemind_bench::cli::Cli::from_env();
    sweep();
    outcome_json();
}
