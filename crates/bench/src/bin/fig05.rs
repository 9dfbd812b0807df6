//! Fig. 5 — the opportunities of serverless for edge jobs:
//! (a) task latency with fixed vs serverless vs serverless + intra-task
//! parallelism, (b) latency for face recognition under fluctuating load
//! against average- and max-provisioned fixed deployments, and (c) active
//! tasks over time when a fraction of functions fail.

use hivemind_bench::report::Report;
use hivemind_bench::{banner, ms, single_app_duration_secs, Table, Workload};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 5a: fixed vs serverless vs serverless + intra-task (median ms)");
    let mut table = Table::new([
        "app",
        "fixed",
        "serverless",
        "serverless (intra)",
        "speedup",
    ]);
    let apps: Vec<Workload> = Workload::evaluation_set()
        .into_iter()
        .filter(|w| matches!(w, Workload::App(_)))
        .collect();
    let configs: Vec<ExperimentConfig> = apps
        .iter()
        .flat_map(|w| {
            let Workload::App(app) = w else {
                unreachable!()
            };
            [
                (Platform::CentralizedIaaS, false),
                (Platform::CentralizedFaaS, false),
                (Platform::CentralizedFaaS, true),
            ]
            .map(|(platform, intra)| {
                ExperimentConfig::single_app(*app)
                    .platform(platform)
                    .duration_secs(single_app_duration_secs())
                    .intra_task(intra)
                    .seed(2)
            })
        })
        .collect();
    let outcomes = report.run_configs(&configs);
    for (w, trio) in apps.iter().zip(outcomes.chunks_exact(3)) {
        let median = |o: &hivemind_core::metrics::Outcome| o.tasks.clone().total.median();
        let (fixed, faas, intra) = (median(&trio[0]), median(&trio[1]), median(&trio[2]));
        table.row([
            w.label().to_string(),
            ms(fixed),
            ms(faas),
            ms(intra),
            format!("{:.1}x", fixed / faas.max(1e-9)),
        ]);
    }
    table.print();
    println!("(paper: serverless ~an order of magnitude faster than the fixed allocation;");
    println!(" maze/weather/soil benefit least; S9/S10 gain dramatically from intra-task)");

    banner("Figure 5b: S1 latency under fluctuating load (median ms per 30 s window)");
    // Ramp: 1 → 4 → 10 → 16 → 6 → 1 active drones.
    let profile = vec![
        (0.0, 1u32),
        (30.0, 4),
        (60.0, 10),
        (90.0, 16),
        (120.0, 6),
        (150.0, 1),
    ];
    let total = 180.0;
    let deployment = |platform: Platform, workers: Option<u32>| {
        let mut cfg = ExperimentConfig::single_app(App::FaceRecognition)
            .platform(platform)
            .duration_secs(total)
            .load_profile(profile.clone())
            .rate_scale(2.0)
            .seed(3);
        if let Some(w) = workers {
            cfg = cfg.iaas_workers(w);
        }
        cfg
    };
    // Average load ≈ 6.3 drones × 2 tasks/s × 0.27 s ≈ 4 busy cores;
    // worst case ≈ 9. The three deployments are independent, so fan them
    // out instead of chaining the 180 s simulations.
    let deployments = report.run_configs(&[
        deployment(Platform::CentralizedFaaS, None),
        deployment(Platform::CentralizedIaaS, Some(4)),
        deployment(Platform::CentralizedIaaS, Some(16)),
    ]);
    let mut it = deployments.into_iter();
    let (serverless, avg, max) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
    let mut table2 = Table::new(["deployment", "median (ms)", "p99 (ms)", "tasks"]);
    for (label, o) in [
        ("serverless", serverless),
        ("fixed (avg prov, 4 workers)", avg),
        ("fixed (max prov, 16 workers)", max),
    ] {
        table2.row([
            label.to_string(),
            ms(o.tasks.total.median()),
            ms(o.tasks.total.p99()),
            o.tasks.len().to_string(),
        ]);
    }
    table2.print();
    println!("(paper: serverless tracks the load; the average-provisioned deployment saturates)");

    banner("Figure 5c: active tasks over time with injected function failures");
    let mut table = Table::new(["t (s)", "no faults", "5%", "10%", "20%"]);
    let fault_configs: Vec<ExperimentConfig> = [0.0, 0.05, 0.10, 0.20]
        .iter()
        .map(|&fr| {
            ExperimentConfig::single_app(App::FaceRecognition)
                .platform(Platform::CentralizedFaaS)
                .duration_secs(total)
                .load_profile(profile.clone())
                .rate_scale(2.0)
                .fault_rate(fr)
                .seed(4)
        })
        .collect();
    let runs = report.run_configs(&fault_configs);
    let mut t = 0.0;
    while t <= total {
        let mut cells = vec![format!("{t:.0}")];
        for o in &runs {
            let v = o
                .active_tasks
                .value_at(SimTime::ZERO + SimDuration::from_secs_f64(t))
                .unwrap_or(0.0);
            cells.push(format!("{v:.0}"));
        }
        table.row(cells);
        t += 15.0;
    }
    table.print();
    for (label, o) in ["0%", "5%", "10%", "20%"].iter().zip(&runs) {
        println!(
            "fault rate {label}: {} tasks completed, {} recovered from faults",
            o.tasks.len(),
            o.faults_recovered
        );
    }
    println!("(paper: even at 20% failures every task still completes via respawn)");
}
