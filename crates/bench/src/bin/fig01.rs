//! Fig. 1 — execution time and consumed battery for the end-to-end
//! "treasure hunt" scenario (locating tennis balls in a field) on a real
//! 16-drone swarm (top) and a simulated 1000-drone swarm (bottom), across
//! Centralized IaaS, Centralized FaaS, Distributed Edge, and HiveMind.

use hivemind_bench::report::Report;
use hivemind_bench::{banner, repeats, Table};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 1: treasure-hunt scenario, execution time + consumed battery");
    for devices in [16, 1000] {
        println!("--- {devices}-drone swarm ---");
        let mut table = Table::new([
            "platform",
            "exec time (s)",
            "battery mean (%)",
            "battery max (%)",
            "found",
            "completed",
        ]);
        for platform in Platform::MAIN {
            let n = if devices > 100 { 1 } else { repeats() };
            let set = report.run_replicated(
                &ExperimentConfig::scenario(Scenario::StationaryItems)
                    .platform(platform)
                    .devices(devices)
                    .seed(1),
                n,
            );
            let found = set
                .outcomes()
                .last()
                .expect("replicates")
                .mission
                .targets_found;
            table.row([
                platform.label().to_string(),
                format!("{:.1}", set.mission_durations().mean()),
                format!("{:.1}", set.mean_battery_pct()),
                format!("{:.1}", set.max_battery_pct()),
                format!("{found}/15"),
                set.all_completed().to_string(),
            ]);
        }
        table.print();
        println!();
    }
}
