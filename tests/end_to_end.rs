//! Cross-crate integration: full missions and benchmarks exercising the
//! whole stack (swarm world → network fabric → serverless cluster →
//! controller) through the public facade.

use hivemind::apps::scenario::Scenario;
use hivemind::apps::suite::App;
use hivemind::core::experiment::{Experiment, ExperimentConfig};
use hivemind::core::platform::Platform;

#[test]
fn every_platform_completes_scenario_a() {
    for platform in Platform::MAIN {
        let o = Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(platform)
                .seed(1),
        )
        .run();
        assert!(
            o.mission.completed,
            "{platform}: scenario A should finish at testbed scale"
        );
        assert!(
            o.mission.targets_found >= 11,
            "{platform}: found {}",
            o.mission.targets_found
        );
        assert!(o.mission.duration_secs > 30.0);
        assert!(!o.tasks.is_empty());
    }
}

#[test]
fn every_ablation_platform_runs_every_app() {
    for platform in Platform::ABLATIONS {
        let mut o = Experiment::new(
            ExperimentConfig::single_app(App::SoilAnalytics)
                .platform(platform)
                .duration_secs(10.0)
                .seed(2),
        )
        .run();
        assert_eq!(o.tasks.len(), 160, "{platform}");
        assert!(o.median_task_ms() > 0.0, "{platform}");
    }
}

/// The reserved IaaS pool runs intra-task splits too: each SLAM task
/// fans out into its split invocations, and every task still resolves.
#[test]
fn intra_task_splits_run_on_the_iaas_pool() {
    let run = |intra: bool| {
        Experiment::new(
            ExperimentConfig::single_app(App::Slam)
                .platform(Platform::CentralizedIaaS)
                .intra_task(intra),
        )
        .run()
    };
    let mut split = run(true);
    // 16 devices x 120 s x one task a second.
    assert_eq!(split.tasks.len(), 1_920);
    assert_eq!(split.tasks.len(), run(false).tasks.len());
    assert!(split.median_task_ms() > 0.0);
}

#[test]
fn outcomes_are_reproducible_across_runs() {
    let run = || {
        Experiment::new(
            ExperimentConfig::scenario(Scenario::MovingPeople)
                .platform(Platform::HiveMind)
                .seed(9),
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.mission.duration_secs, b.mission.duration_secs);
    assert_eq!(a.mission.targets_found, b.mission.targets_found);
    assert_eq!(a.bandwidth.total_mb, b.bandwidth.total_mb);
    assert_eq!(a.battery.mean_pct, b.battery.mean_pct);
    assert_eq!(a.tasks.len(), b.tasks.len());
}

#[test]
fn swarm_scaling_preserves_hivemind_mission_time() {
    let time_at = |devices: u32| {
        Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(Platform::HiveMind)
                .devices(devices)
                .seed(1),
        )
        .run()
        .mission
        .duration_secs
    };
    let small = time_at(16);
    let large = time_at(256);
    assert!(
        large < small * 3.0,
        "HiveMind must scale: 16 drones {small:.0}s vs 256 drones {large:.0}s"
    );
}

#[test]
fn centralized_collapses_at_scale_hivemind_does_not() {
    let run = |platform: Platform| {
        Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(platform)
                .devices(512)
                .seed(1),
        )
        .run()
    };
    let hm = run(Platform::HiveMind);
    let cen = run(Platform::CentralizedFaaS);
    assert!(hm.mission.completed, "HiveMind finishes at 512 drones");
    assert!(
        cen.mission.duration_secs > 4.0 * hm.mission.duration_secs,
        "centralized must hit its scalability wall: {:.0}s vs {:.0}s",
        cen.mission.duration_secs,
        hm.mission.duration_secs
    );
}

#[test]
fn car_fleet_missions_complete_on_hivemind() {
    for scenario in [Scenario::TreasureHunt, Scenario::CarMaze] {
        let o = Experiment::new(
            ExperimentConfig::scenario(scenario)
                .platform(Platform::HiveMind)
                .seed(3),
        )
        .run();
        assert!(o.mission.completed, "{scenario:?}");
        assert_eq!(o.mission.targets_found, 14, "{scenario:?}");
        assert!(
            o.battery.max_pct < 100.0,
            "cars are not power-constrained ({scenario:?})"
        );
    }
}

#[test]
fn fault_injection_never_loses_tasks() {
    for fault_rate in [0.05, 0.10, 0.20] {
        let o = Experiment::new(
            ExperimentConfig::single_app(App::FaceRecognition)
                .platform(Platform::CentralizedFaaS)
                .duration_secs(20.0)
                .fault_rate(fault_rate)
                .seed(4),
        )
        .run();
        assert_eq!(o.tasks.len(), 320, "rate {fault_rate}");
        assert!(o.faults_recovered > 0, "rate {fault_rate}");
    }
}

#[test]
fn active_task_series_tracks_load_profile() {
    let o = Experiment::new(
        ExperimentConfig::single_app(App::FaceRecognition)
            .platform(Platform::CentralizedFaaS)
            .duration_secs(90.0)
            .load_profile(vec![(0.0, 2), (30.0, 16), (60.0, 2)])
            .seed(5),
    )
    .run();
    use hivemind::sim::time::SimTime;
    let low = o
        .active_tasks
        .value_at(SimTime::from_secs(25))
        .unwrap_or(0.0);
    let high = o
        .active_tasks
        .value_at(SimTime::from_secs(55))
        .unwrap_or(0.0);
    assert!(
        high > low,
        "active functions must track the ramp: {low} -> {high}"
    );
}
