//! Fig. 14 — consumed battery and network bandwidth across the three
//! platforms for all workloads.

use hivemind_bench::report::Report;
use hivemind_bench::{banner, Table, Workload};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 14a: consumed battery (%) per platform");
    let mut table = Table::new([
        "workload",
        "centralized mean",
        "centralized max",
        "distributed mean",
        "distributed max",
        "hivemind mean",
        "hivemind max",
    ]);
    let platforms = [
        Platform::CentralizedFaaS,
        Platform::DistributedEdge,
        Platform::HiveMind,
    ];
    let mut bandwidth_rows = Vec::new();
    let workloads = Workload::evaluation_set();
    let configs: Vec<ExperimentConfig> = workloads
        .iter()
        .flat_map(|w| platforms.map(|p| w.config(p, 4)))
        .collect();
    let outcomes = report.run_configs(&configs);
    for (w, per_platform) in workloads.iter().zip(outcomes.chunks_exact(platforms.len())) {
        let mut row = vec![w.label().to_string()];
        let mut bw_row = vec![w.label().to_string()];
        for o in per_platform {
            row.push(format!("{:.1}", o.battery.mean_pct));
            row.push(format!("{:.1}", o.battery.max_pct));
            bw_row.push(format!("{:.1}", o.bandwidth.mean_mbps));
            bw_row.push(format!("{:.1}", o.bandwidth.p99_mbps));
        }
        table.row(row);
        bandwidth_rows.push(bw_row);
    }
    table.print();
    println!("(paper: HiveMind below both baselines except S3/S4, where splitting does not pay)");

    banner("Figure 14b: network bandwidth (MB/s) per platform, mean and p99 windows");
    let mut table = Table::new([
        "workload",
        "centralized mean",
        "centralized p99",
        "distributed mean",
        "distributed p99",
        "hivemind mean",
        "hivemind p99",
    ]);
    for row in bandwidth_rows {
        table.row(row);
    }
    table.print();
    println!(
        "(paper: HiveMind uses more bandwidth than distributed but far less than centralized,"
    );
    println!(" with a smaller mean-to-tail gap — the source of its predictability)");
}
