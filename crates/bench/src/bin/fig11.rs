//! Fig. 11 — task latency across all single-tier tasks and job latency
//! for the multi-tier scenarios, with centralized cloud, distributed
//! edge, and HiveMind.

use hivemind_bench::report::{workload_cells, Report};
use hivemind_bench::{banner, Table, Workload};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 11: latency per platform (task ms for S1-S10; job s for scenarios)");
    let mut table = Table::new([
        "workload",
        "centralized p50",
        "centralized p99",
        "distributed p50",
        "distributed p99",
        "hivemind p50",
        "hivemind p99",
    ]);
    let platforms = [
        Platform::CentralizedFaaS,
        Platform::DistributedEdge,
        Platform::HiveMind,
    ];
    let workloads = Workload::evaluation_set();
    let configs: Vec<ExperimentConfig> = workloads
        .iter()
        .flat_map(|w| platforms.map(|p| w.config(p, 1)))
        .collect();
    let outcomes = report.run_configs(&configs);
    for (w, per_platform) in workloads.iter().zip(outcomes.chunks_exact(platforms.len())) {
        let mut row = vec![w.label().to_string()];
        for o in per_platform {
            row.extend(workload_cells(w, o));
        }
        table.row(row);
    }
    table.print();
    println!("(paper: HiveMind consistently better and less variable than both baselines)");
}
