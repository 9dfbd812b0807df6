//! Fig. 3 — (a) latency breakdown into network / management / cloud
//! execution under all-cloud execution, median and 99th-percentile bars
//! for S1–S10 + the two scenarios; (b) network bandwidth and tail latency
//! for face recognition as drones and frame resolution increase.

use hivemind_bench::report::Report;
use hivemind_bench::{banner, ms, pct, single_app_duration_secs, Table, Workload};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 3a: latency breakdown under all-cloud (Centralized FaaS) execution");
    let mut table = Table::new([
        "workload",
        "network",
        "management",
        "execution",
        "median (ms)",
        "p99 (ms)",
    ]);
    let workloads = Workload::evaluation_set();
    let configs: Vec<ExperimentConfig> = workloads
        .iter()
        .map(|w| {
            let cfg = w.config(Platform::CentralizedFaaS, 1);
            match w {
                // The breakdown study ships the benchmark's sensor stream
                // at a 4 MB/s operating point (unsaturated but
                // network-visible, matching the paper's >=22% shares).
                Workload::App(_) => cfg.input_scale(2.0),
                Workload::Scenario(_) => cfg,
            }
        })
        .collect();
    for (w, o) in workloads.iter().zip(report.run_configs(&configs)) {
        let net = o.tasks.network_fraction();
        let mgmt = o.tasks.management_fraction();
        let exec = (1.0 - net - mgmt).max(0.0);
        table.row([
            w.label().to_string(),
            pct(net),
            pct(mgmt),
            pct(exec),
            ms(o.tasks.total.median()),
            ms(o.tasks.total.p99()),
        ]);
    }
    table.print();
    println!("(paper: networking >= 22% of median latency everywhere, 33% on average)");

    banner("Figure 3b: bandwidth + tail latency vs #drones, S1 at 8 fps per resolution");
    let mut table = Table::new(["frame", "drones", "bandwidth (MB/s)", "tail latency (ms)"]);
    // input_scale 1.0 = the default 2 MB batch; sweep 512 KB → 8 MB at
    // the full 8 fps offered load the paper uses for this experiment.
    let mut cells = Vec::new();
    let resolutions = [
        ("512KB", 0.25),
        ("1MB", 0.5),
        ("2MB", 1.0),
        ("4MB", 2.0),
        ("8MB", 4.0),
    ];
    for (label, scale) in resolutions {
        for drones in [2, 4, 8, 12, 16] {
            cells.push((label, scale, drones));
        }
    }
    let sweep: Vec<ExperimentConfig> = cells
        .iter()
        .map(|&(_, scale, drones)| {
            ExperimentConfig::single_app(App::FaceRecognition)
                .platform(Platform::CentralizedFaaS)
                .duration_secs(single_app_duration_secs().min(40.0))
                .devices(drones)
                .input_scale(scale)
                .rate_scale(8.0)
                .seed(1)
        })
        .collect();
    for (&(label, _, drones), o) in cells.iter().zip(report.run_configs(&sweep)) {
        table.row([
            label.to_string(),
            drones.to_string(),
            format!("{:.1}", o.bandwidth.mean_mbps),
            ms(o.tasks.total.p99()),
        ]);
    }
    table.print();
    println!(
        "(paper: latency low below ~4 drones even at max resolution, then the network saturates)"
    );
}
