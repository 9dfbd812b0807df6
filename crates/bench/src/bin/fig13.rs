//! Fig. 13 — incremental-benefit ablation: HiveMind against centralized
//! systems with network (and remote-memory) acceleration, distributed
//! systems with and without network acceleration, and HiveMind without
//! hardware acceleration.

use hivemind_bench::report::{workload_cells, Report};
use hivemind_bench::{banner, Table, Workload};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 13: ablating HiveMind's techniques (median / p99 task ms; job s for scenarios)");
    let mut headers = vec!["workload".to_string()];
    for p in Platform::ABLATIONS {
        headers.push(format!("{} p50", p.label()));
        headers.push(format!("{} p99", p.label()));
    }
    let mut table = Table::new(headers);
    let workloads = Workload::evaluation_set();
    let configs: Vec<ExperimentConfig> = workloads
        .iter()
        .flat_map(|w| Platform::ABLATIONS.map(|p| w.config(p, 3)))
        .collect();
    let outcomes = report.run_configs(&configs);
    for (w, per_platform) in workloads
        .iter()
        .zip(outcomes.chunks_exact(Platform::ABLATIONS.len()))
    {
        let mut row = vec![w.label().to_string()];
        for o in per_platform {
            row.extend(workload_cells(w, o));
        }
        table.row(row);
    }
    table.print();
    println!("(paper: no single technique suffices — centralized+accel still trails HiveMind,");
    println!(" the distributed system barely benefits from acceleration, and HiveMind-No Accel");
    println!(
        " keeps the hybrid-placement benefit but pays software networking/data-exchange costs)"
    );
}
