//! Fig. 6 — the challenges of serverless for edge applications:
//! (a) performance variability on reserved vs serverless resources,
//! (b) the share of task latency spent on instantiation and data I/O,
//! (c) the impact of the data-sharing protocol (CouchDB / direct RPC /
//! in-memory / HiveMind's remote memory).

use hivemind_bench::report::{task_quantile_secs, Report};
use hivemind_bench::{banner, ms, pct, single_app_duration_secs, Table, Workload};
use hivemind_core::prelude::*;
use hivemind_faas::dataplane::{DataPlane, ExchangeProtocol};
use hivemind_sim::rng::RngForge;
use hivemind_sim::stats::DurationSummary;

fn main() {
    let report = Report::from_env();
    banner("Figure 6a: latency variability, reserved vs serverless (ms)");
    let mut table = Table::new([
        "app",
        "res p50",
        "res p99",
        "res p99/p50",
        "faas p50",
        "faas p99",
        "faas p99/p50",
    ]);
    let apps: Vec<Workload> = Workload::evaluation_set()
        .into_iter()
        .filter(|w| matches!(w, Workload::App(_)))
        .collect();
    // "Reserved" = a fixed pool generously provisioned so only inherent
    // exec-time variability remains; serverless adds instantiation and
    // data-plane variability on top.
    let configs: Vec<ExperimentConfig> = apps
        .iter()
        .flat_map(|w| {
            let hivemind_bench::Workload::App(app) = w else {
                unreachable!()
            };
            [
                ExperimentConfig::single_app(*app)
                    .platform(Platform::CentralizedIaaS)
                    .duration_secs(single_app_duration_secs())
                    .iaas_workers(64)
                    .seed(5),
                w.config(Platform::CentralizedFaaS, 5),
            ]
        })
        .collect();
    let outcomes = report.run_configs(&configs);
    for (w, pair) in apps.iter().zip(outcomes.chunks_exact(2)) {
        let (reserved, faas) = (&pair[0], &pair[1]);
        let quantiles = |o: &Outcome| (task_quantile_secs(o, 0.5), task_quantile_secs(o, 0.99));
        let ((r_p50, r_p99), (f_p50, f_p99)) = (quantiles(reserved), quantiles(faas));
        let (r_ratio, f_ratio) = (r_p99 / r_p50.max(1e-9), f_p99 / f_p50.max(1e-9));
        table.row([
            w.label().to_string(),
            ms(r_p50),
            ms(r_p99),
            format!("{r_ratio:.2}"),
            ms(f_p50),
            ms(f_p99),
            format!("{f_ratio:.2}"),
        ]);
    }
    table.print();
    println!("(paper: variability is consistently higher with serverless)");

    banner("Figure 6b: serverless latency breakdown — instantiation / data I/O / execution");
    let mut table = Table::new([
        "app",
        "instantiation",
        "data I/O",
        "execution",
        "cold starts",
    ]);
    let configs: Vec<ExperimentConfig> = apps
        .iter()
        .map(|w| w.config(Platform::CentralizedFaaS, 6))
        .collect();
    for (w, o) in apps.iter().zip(report.run_configs(&configs)) {
        let total = o.tasks.total.mean().max(1e-12);
        let inst = o.tasks.instantiation.mean() / total;
        let io = o.tasks.data_io.mean() / total;
        let exec = o.tasks.exec.mean() / total;
        let (warm, cold) = o.container_stats;
        table.row([
            w.label().to_string(),
            pct(inst),
            pct(io),
            pct(exec),
            format!("{cold}/{}", warm + cold),
        ]);
    }
    table.print();
    println!(
        "(paper: instantiation ~22% of median latency on average; >40% for weather, <20% for maze)"
    );

    banner("Figure 6c: data-sharing protocol latency for a 200 KB exchange at 16 exchanges/s (ms)");
    let mut table = Table::new(["protocol", "median", "p99"]);
    for (label, proto) in [
        ("CouchDB (OpenWhisk default)", ExchangeProtocol::CouchDb),
        ("Direct RPC", ExchangeProtocol::DirectRpc),
        ("In-memory (colocated)", ExchangeProtocol::InMemory),
        (
            "Remote memory (HiveMind FPGA)",
            ExchangeProtocol::RemoteMemory,
        ),
    ] {
        let mut plane = DataPlane::new();
        let mut rng = RngForge::new(7).stream("fig6c");
        let mut s = DurationSummary::new();
        for i in 0..2000u64 {
            let t = SimTime::ZERO + SimDuration::from_nanos(i * 62_500_000);
            s.record(plane.exchange(t, proto, 200_000, &mut rng));
        }
        table.row([label.to_string(), ms(s.median()), ms(s.p99())]);
    }
    table.print();
    println!("(paper: CouchDB slowest, RPC considerably faster, in-memory fastest)");
}
