//! Fig. 15 — decision quality without retraining, with per-device
//! retraining, and with swarm-wide retraining, for both end-to-end
//! scenarios.
//!
//! Two complementary reproductions:
//! 1. the *learning-dynamics* view: a real online logistic-regression
//!    detector trained under each policy (`hivemind_apps::learning`);
//! 2. the *in-mission* view: scenario runs where recognition quality
//!    (item-detection probability, embedding tightness for dedup) follows
//!    the retraining mode.

use hivemind_apps::learning::run_campaign;
use hivemind_bench::report::Report;
use hivemind_bench::{banner, repeats, runner, Table};
use hivemind_core::prelude::*;

fn main() {
    let report = Report::from_env();
    banner("Figure 15 (learning dynamics): online detector accuracy per retraining policy");
    let mut table = Table::new(["policy", "correct %", "false neg %", "false pos %"]);
    let campaigns = runner().map(&RetrainMode::ALL, |_, &mode| {
        run_campaign(mode, 16, 150, 6, 42)
    });
    for (mode, q) in RetrainMode::ALL.iter().zip(campaigns) {
        table.row([
            mode.label().to_string(),
            format!("{:.1}", q.correct_pct),
            format!("{:.1}", q.false_negative_pct),
            format!("{:.1}", q.false_positive_pct),
        ]);
    }
    table.print();

    banner("Figure 15 (in-mission): detection quality per scenario and retraining policy");
    let mut table = Table::new([
        "scenario",
        "policy",
        "correct %",
        "false neg %",
        "false pos %",
        "targets",
    ]);
    for scenario in [Scenario::StationaryItems, Scenario::MovingPeople] {
        for mode in RetrainMode::ALL {
            let n = repeats();
            let set = report.run_replicated(
                &ExperimentConfig::scenario(scenario)
                    .platform(Platform::HiveMind)
                    .retrain(mode)
                    .seed(1),
                n,
            );
            let (mut c, mut fneg, mut fpos) = (0.0, 0.0, 0.0);
            let mut found = 0;
            for o in set.outcomes() {
                let q = o
                    .mission
                    .detection
                    .as_ref()
                    .expect("scenarios score detection");
                c += q.correct_pct / n as f64;
                fneg += q.false_negative_pct / n as f64;
                fpos += q.false_positive_pct / n as f64;
                found = o.mission.targets_found;
            }
            table.row([
                scenario.label().to_string(),
                mode.label().to_string(),
                format!("{c:.1}"),
                format!("{fneg:.1}"),
                format!("{fpos:.1}"),
                format!("{found}/{}", scenario.target_count()),
            ]);
        }
    }
    table.print();
    println!("(paper: swarm-wide retraining quickly resolves remaining false results)");
}
