//! Fig. 18 — simulator validation: tail-latency deviation between the
//! detailed event-driven simulator (playing the paper's real testbed) and
//! the fast queueing-network model (playing the paper's simulator), for
//! all workloads across the three platforms.

use hivemind_bench::report::Report;
use hivemind_bench::{banner, ms, single_app_duration_secs, Table};
use hivemind_core::analytic::{deviation_pct, QuickModel};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 18: DES vs analytic queueing model, tail (p99) latency deviation");
    let mut table = Table::new([
        "app",
        "platform",
        "DES p50 (ms)",
        "model p50 (ms)",
        "DES p99 (ms)",
        "model p99 (ms)",
        "p99 deviation",
    ]);
    let mut worst: f64 = 0.0;
    let mut mean_abs = 0.0;
    let mut n = 0.0;
    let platforms = [
        Platform::CentralizedFaaS,
        Platform::DistributedEdge,
        Platform::HiveMind,
    ];
    let cells: Vec<(App, Platform)> = App::ALL
        .iter()
        .flat_map(|&app| platforms.map(|p| (app, p)))
        .collect();
    let configs: Vec<ExperimentConfig> = cells
        .iter()
        .map(|&(app, platform)| {
            ExperimentConfig::single_app(app)
                .platform(platform)
                .duration_secs(single_app_duration_secs())
                .seed(8)
        })
        .collect();
    let des_outcomes = report.run_configs(&configs);
    for (&(app, platform), des) in cells.iter().zip(des_outcomes) {
        let mut qm = QuickModel::testbed(platform, app);
        qm.duration_secs = single_app_duration_secs();
        let model = qm.predict(8000, 8);
        let dev = deviation_pct(des.tasks.total.p99(), model.p99());
        worst = worst.max(dev.abs());
        mean_abs += dev.abs();
        n += 1.0;
        table.row([
            app.label().to_string(),
            platform.label().to_string(),
            ms(des.tasks.total.median()),
            ms(model.median()),
            ms(des.tasks.total.p99()),
            ms(model.p99()),
            format!("{dev:+.1}%"),
        ]);
    }
    table.print();
    println!();
    println!(
        "mean |deviation| = {:.1}%, worst = {:.1}%  (paper: < 5% everywhere)",
        mean_abs / n,
        worst
    );
}
