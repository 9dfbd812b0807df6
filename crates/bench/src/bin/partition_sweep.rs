//! Partition sweep — disconnected operation under wireless partitions.
//!
//! The fault plane's partitions hold every wireless transfer until the
//! window closes, and the bounded hold buffer tail-drops beyond its
//! high-water mark — so a swarm that merely *waits out* repeated
//! partitions loses work and, at mission level, loses sightings. The
//! disconnect plane instead lets each device detect cloud loss when its
//! heartbeat lease expires, execute tasks on-device with the degraded
//! model, and buffer result summaries for exactly-once replay at heal.
//!
//! This sweep plots both planes against each other across partition
//! length × partition count: task completion for the single-app grid,
//! then mission completion and result staleness for a Scenario A mission
//! under repeated 30 s partitions. The graceful-degradation gates assert
//! that lease-based autonomy carries >= 95% of the work where the
//! hold-only baseline visibly loses it.
//!
//! The run ends with one partition through the replicate runner, printed
//! as outcome JSON; the golden pins it across `HIVEMIND_THREADS` and
//! `HIVEMIND_SHARDS` values, so the disconnect plane stays
//! byte-deterministic.

use hivemind_bench::{banner, runner, Table};
use hivemind_core::prelude::*;

/// Repeated partitions: `count` windows of `len` seconds, 20 s apart,
/// over a bounded hold buffer (64 in-flight transfers, then tail-drop).
fn partitions(count: u32, len: f64) -> FaultPlan {
    let mut plan = FaultPlan::default().partition_hold_bound(64);
    for k in 0..count {
        let from = 20.0 + k as f64 * (len + 20.0);
        plan = plan.partition(from, from + len);
    }
    plan
}

fn cell(count: u32, len: f64, policy: DisconnectPolicy) -> Outcome {
    Experiment::new(
        ExperimentConfig::single_app(App::FaceRecognition)
            .platform(Platform::CentralizedFaaS)
            .duration_secs(360.0)
            .seed(7)
            .plan(
                RunPlan::new()
                    .faults(partitions(count, len))
                    .disconnect(policy),
            ),
    )
    .run()
}

/// Completed fraction of all submitted tasks (16 devices × 1 task/s).
fn completion_pct(o: &Outcome, duration_secs: f64) -> f64 {
    100.0 * o.tasks.len() as f64 / (16.0 * duration_secs)
}

fn sweep() {
    banner("Partition sweep: task completion % (hold-only -> autonomous)");
    const LENGTHS: [f64; 3] = [10.0, 30.0, 60.0];
    const COUNTS: [u32; 3] = [1, 2, 4];
    let mut table = Table::new(["partition len", "x1", "x2", "x4"]);
    let mut gate = (100.0, 0.0);
    for &len in &LENGTHS {
        let mut cells = vec![format!("{len:.0} s")];
        for &count in &COUNTS {
            let hold = cell(count, len, DisconnectPolicy::default());
            let auto = cell(count, len, DisconnectPolicy::default().autonomous());
            let hold_pct = completion_pct(&hold, 360.0);
            let auto_pct = completion_pct(&auto, 360.0);
            if len == 30.0 && count == 4 {
                gate = (hold_pct, auto_pct);
            }
            cells.push(format!("{hold_pct:.1}% -> {auto_pct:.1}%"));
        }
        table.row(cells);
    }
    table.print();
    println!("(hold buffer bound 64; autonomy: 3 s lease, degraded on-device model)");
    let (hold_pct, auto_pct) = gate;
    assert!(
        auto_pct >= 95.0,
        "autonomy must carry >= 95% of tasks through 4 x 30 s partitions, got {auto_pct:.1}%"
    );
    assert!(
        hold_pct < 95.0,
        "the hold-only baseline must visibly lose work at 4 x 30 s, got {hold_pct:.1}%"
    );

    banner("Scenario A mission under repeated 30 s partitions");
    // Mission batches are 16 MB camera streams, so transfers occupy the
    // fabric ~8x longer than the grid's 2 MB tasks: a 256-entry hold
    // buffer rides out the 3 s lease window but still overflows when the
    // hold-only baseline parks a full 30 s outage in it.
    let faults = || {
        FaultPlan::default()
            .partition_hold_bound(256)
            .partition(60.0, 90.0)
            .partition(120.0, 150.0)
    };
    let base = ExperimentConfig::scenario(Scenario::StationaryItems)
        .platform(Platform::CentralizedFaaS)
        .seed(11);
    let healthy = Experiment::new(base.clone()).run();
    let hold = Experiment::new(base.clone().plan(RunPlan::new().faults(faults()))).run();
    let auto = Experiment::new(
        base.plan(
            RunPlan::new()
                .faults(faults())
                .disconnect(DisconnectPolicy::default().autonomous()),
        ),
    )
    .run();
    let mut table = Table::new([
        "mission",
        "time (s)",
        "found",
        "completed",
        "tasks",
        "staleness (s)",
    ]);
    for (label, o) in [
        ("healthy", &healthy),
        ("hold-only", &hold),
        ("autonomous", &auto),
    ] {
        let staleness = o
            .reconnect
            .map(|r| format!("{:.1}", r.mean_staleness_secs))
            .unwrap_or_else(|| "-".into());
        table.row([
            label.to_string(),
            format!("{:.1}", o.mission.duration_secs),
            format!("{}/{}", o.mission.targets_found, o.mission.targets_total),
            o.mission.completed.to_string(),
            o.tasks.len().to_string(),
            staleness,
        ]);
    }
    table.print();
    println!("(dropped held uplinks lose sightings outright; autonomy recognizes on-device");
    println!(" during the outage and replays buffered summaries exactly once at each heal)");
    let r = auto.reconnect.expect("armed plane populates stats");
    assert!(
        auto.mission.completed && auto.tasks.len() as f64 >= 0.95 * healthy.tasks.len() as f64,
        "autonomy must complete >= 95% of the healthy mission's tasks: {} vs {}",
        auto.tasks.len(),
        healthy.tasks.len()
    );
    assert!(
        (hold.tasks.len() as f64) < 0.95 * healthy.tasks.len() as f64,
        "the hold-only baseline must lose the mission's work: {} vs {}",
        hold.tasks.len(),
        healthy.tasks.len()
    );
    assert!(
        auto.mission.targets_found >= hold.mission.targets_found,
        "degraded recognition must not find fewer targets than dropped uplinks: {} vs {}",
        auto.mission.targets_found,
        hold.mission.targets_found
    );
    assert_eq!(r.partitions, 2, "one reconciliation per heal");
    assert!(r.mean_staleness_secs > 0.0, "replayed summaries aged");
}

/// Prints the outcome JSON of one healed partition, reconnect block
/// included.
fn outcome_json() {
    // One 10 s partition mid-run, autonomy armed, through the replicate
    // runner: HIVEMIND_THREADS / HIVEMIND_SHARDS affect the execution
    // schedule but must not affect any byte of the output.
    let cfg = ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration_secs(25.0)
        .seed(5)
        .plan(
            RunPlan::new()
                .faults(
                    FaultPlan::default()
                        .partition_hold_bound(64)
                        .partition(5.0, 15.0),
                )
                .disconnect(DisconnectPolicy::default().autonomous()),
        );
    let set = runner().run_replicates(&cfg, 3);
    for (seed, outcome) in set.seeds().iter().zip(set.outcomes()) {
        let r = outcome.reconnect.expect("armed plane populates stats");
        assert_eq!(r.partitions, 1, "the scheduled heal fired");
        assert!(r.tasks_degraded > 0, "lease expiry flips to autonomy");
        assert!(r.updates_replayed > 0, "the heal replays the buffer");
        assert_eq!(
            r.updates_buffered,
            r.updates_replayed + r.updates_expired,
            "exactly-once conservation"
        );
        println!("seed {seed}: {}", outcome.to_json());
    }
}

fn main() {
    hivemind_bench::cli::Cli::from_env();
    sweep();
    outcome_json();
}
