//! Fig. 12 — latency breakdown (network / management / data I/O /
//! execution) comparing fully centralized execution against HiveMind, to
//! attribute where HiveMind's gains come from.

use hivemind_bench::report::Report;
use hivemind_bench::{banner, ms, pct, Table, Workload};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 12: latency breakdown, Centralized Cloud vs HiveMind");
    let mut table = Table::new([
        "workload",
        "platform",
        "network",
        "management",
        "data I/O",
        "exec",
        "mean total (ms)",
    ]);
    let mut cen_net_frac = 0.0;
    let mut hm_net_frac = 0.0;
    let mut cen_total = 0.0;
    let mut hm_total = 0.0;
    let mut n = 0.0;
    let platforms = [Platform::CentralizedFaaS, Platform::HiveMind];
    let workloads = Workload::evaluation_set();
    let configs: Vec<ExperimentConfig> = workloads
        .iter()
        .flat_map(|w| {
            platforms.map(|platform| match w {
                Workload::App(app) => ExperimentConfig::single_app(*app)
                    .platform(platform)
                    .input_scale(2.0)
                    .seed(2),
                Workload::Scenario(_) => w.config(platform, 2),
            })
        })
        .collect();
    let outcomes = report.run_configs(&configs);
    for ((w, platform), o) in workloads
        .iter()
        .flat_map(|w| platforms.map(|p| (w, p)))
        .zip(&outcomes)
    {
        let total = o.tasks.total.mean().max(1e-12);
        let net = o.tasks.network.mean() / total;
        let mgmt = o.tasks.management.mean() / total;
        let io = o.tasks.data_io.mean() / total;
        let exec = o.tasks.exec.mean() / total;
        if platform == Platform::CentralizedFaaS {
            cen_net_frac += net;
            cen_total += total;
            n += 1.0;
        } else {
            hm_net_frac += net;
            hm_total += total;
        }
        table.row([
            w.label().to_string(),
            platform.label().to_string(),
            pct(net),
            pct(mgmt),
            pct(io),
            pct(exec),
            ms(total),
        ]);
    }
    table.print();
    println!();
    println!(
        "network share of latency: centralized {:.1}% -> hivemind {:.1}%  (paper: 33% -> 9.3%)",
        100.0 * cen_net_frac / n,
        100.0 * hm_net_frac / n
    );
    println!(
        "mean end-to-end improvement: {:.0}%  (paper: 56% on average, up to 2.85x)",
        100.0 * (1.0 - (hm_total / n) / (cen_total / n))
    );
}
