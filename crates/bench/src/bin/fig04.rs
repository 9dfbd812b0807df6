//! Fig. 4 — task-latency distributions for the ten single-tier jobs (a)
//! and job latencies for the two end-to-end scenarios (b), centralized
//! cloud vs distributed edge execution.

use hivemind_bench::report::{task_quantile_secs, Report};
use hivemind_bench::{banner, ms, repeats, Table, Workload};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 4a: task latency (ms), centralized cloud vs distributed edge");
    let mut table = Table::new([
        "app",
        "cloud p25",
        "cloud p50",
        "cloud p99",
        "edge p25",
        "edge p50",
        "edge p99",
    ]);
    let apps: Vec<Workload> = Workload::evaluation_set()
        .into_iter()
        .filter(|w| matches!(w, Workload::App(_)))
        .collect();
    let configs: Vec<ExperimentConfig> = apps
        .iter()
        .flat_map(|w| {
            [
                w.config(Platform::CentralizedFaaS, 1),
                w.config(Platform::DistributedEdge, 1),
            ]
        })
        .collect();
    let outcomes = report.run_configs(&configs);
    for (w, pair) in apps.iter().zip(outcomes.chunks_exact(2)) {
        let (cloud, edge) = (&pair[0], &pair[1]);
        table.row([
            w.label().to_string(),
            ms(task_quantile_secs(cloud, 0.25)),
            ms(task_quantile_secs(cloud, 0.5)),
            ms(task_quantile_secs(cloud, 0.99)),
            ms(task_quantile_secs(edge, 0.25)),
            ms(task_quantile_secs(edge, 0.5)),
            ms(task_quantile_secs(edge, 0.99)),
        ]);
    }
    table.print();
    println!("(paper: cloud wins for most jobs; S3/S7 comparable, S4 better at the edge)");

    banner("Figure 4b: job latency (s) for the end-to-end scenarios");
    let mut table = Table::new(["scenario", "platform", "median (s)", "max (s)", "completed"]);
    for scenario in [Scenario::StationaryItems, Scenario::MovingPeople] {
        for platform in [Platform::CentralizedFaaS, Platform::DistributedEdge] {
            let set = report.run_replicated(
                &ExperimentConfig::scenario(scenario)
                    .platform(platform)
                    .seed(1),
                repeats(),
            );
            let s = set.mission_durations();
            table.row([
                scenario.label().to_string(),
                platform.label().to_string(),
                format!("{:.1}", s.median()),
                format!("{:.1}", s.max()),
                set.all_completed().to_string(),
            ]);
        }
    }
    table.print();
    println!("(paper: on-board execution leaves Scenario B incomplete — drones run out of power)");
}
