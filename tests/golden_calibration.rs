//! Golden calibration tests, part of the default suite (both together
//! take a few seconds, also in the debug profile). Run alone with:
//!
//! ```text
//! cargo test --release --test golden_calibration
//! ```
//!
//! These pin the reproduction's two headline calibration numbers to the
//! paper within an explicit tolerance band, so a regression in the
//! queueing model, the platform cost tables, or the runner's seed
//! derivation shows up as a hard failure rather than a silently drifted
//! figure.

use hivemind::apps::suite::App;
use hivemind::core::analytic::{deviation_pct, QuickModel};
use hivemind::core::experiment::ExperimentConfig;
use hivemind::core::platform::Platform;
use hivemind::core::runner::Runner;

const DURATION_SECS: f64 = 60.0;

/// Sec. 5.6 / Fig. 18: across every app × platform cell, the analytic
/// queueing model's p99 must stay within 5% of the detailed DES on
/// average (the paper reports < 5% everywhere on its testbed).
#[test]
fn analytic_model_tracks_des_within_five_percent() {
    let platforms = [
        Platform::CentralizedFaaS,
        Platform::DistributedEdge,
        Platform::HiveMind,
    ];
    let cells: Vec<(App, Platform)> = App::ALL
        .into_iter()
        .flat_map(|app| platforms.map(|p| (app, p)))
        .collect();
    let configs: Vec<ExperimentConfig> = cells
        .iter()
        .map(|&(app, platform)| {
            ExperimentConfig::single_app(app)
                .platform(platform)
                .duration_secs(DURATION_SECS)
                .seed(8)
        })
        .collect();
    let outcomes = Runner::from_env().run_configs(&configs);

    let mut mean_abs = 0.0;
    let mut worst: f64 = 0.0;
    for (&(app, platform), des) in cells.iter().zip(outcomes) {
        let mut qm = QuickModel::testbed(platform, app);
        qm.duration_secs = DURATION_SECS;
        let model = qm.predict(8000, 8);
        let dev = deviation_pct(des.tasks.total.p99(), model.p99()).abs();
        mean_abs += dev;
        worst = worst.max(dev);
    }
    mean_abs /= cells.len() as f64;

    assert!(
        mean_abs < 5.0,
        "mean |p99 deviation| {mean_abs:.2}% exceeds the paper's 5% bound"
    );
    // Individual cells may exceed the mean bound, but none should be
    // wildly off — that signals a broken cost table, not noise.
    assert!(
        worst < 15.0,
        "worst-cell |p99 deviation| {worst:.2}% signals a calibration break"
    );
}

/// Sec. 5.1 / Fig. 12: HiveMind's mean end-to-end latency improvement
/// over the centralized cloud sits in the paper's reported band
/// (56% on average, up to 2.85x on individual apps). Latencies are
/// pooled over replicates via the deterministic runner, so this number
/// is stable across machines and thread counts.
///
/// The two halves of the claim live in different load regimes:
/// - the *average* comes from mission-rate load (the regime the paper's
///   end-to-end numbers come from; centralized uplinks near saturation);
/// - the *up to 2.85x* factor is a per-app ratio at moderate load —
///   under saturation the ratio diverges and stops being comparable.
#[test]
fn hivemind_improvement_over_centralized_matches_paper() {
    let runner = Runner::from_env();
    let mean_total = |app: App, platform: Platform, rate_scale: f64| {
        runner
            .run_replicates(
                &ExperimentConfig::single_app(app)
                    .platform(platform)
                    .duration_secs(DURATION_SECS)
                    .input_scale(2.0)
                    .rate_scale(rate_scale)
                    .seed(2),
                2,
            )
            .merged_tasks()
            .total
            .mean()
    };

    let mut improvements = vec![];
    let mut best_speedup: f64 = 0.0;
    for app in App::ALL {
        let cen = mean_total(app, Platform::CentralizedFaaS, 4.0);
        let hm = mean_total(app, Platform::HiveMind, 4.0);
        improvements.push(1.0 - hm / cen);
        let cen_idle = mean_total(app, Platform::CentralizedFaaS, 1.0);
        let hm_idle = mean_total(app, Platform::HiveMind, 1.0);
        best_speedup = best_speedup.max(cen_idle / hm_idle);
        println!(
            "{:<6} improvement at mission rate {:>6.1}%, moderate-load speedup {:.2}x",
            app.label(),
            100.0 * (1.0 - hm / cen),
            cen_idle / hm_idle,
        );
    }
    let improvement = improvements.iter().sum::<f64>() / improvements.len() as f64;
    println!(
        "mean per-app improvement {:.1}% (paper ~56%), best speedup {best_speedup:.2}x (paper up to 2.85x)",
        improvement * 100.0
    );

    assert!(
        (0.40..0.70).contains(&improvement),
        "mean improvement {:.1}% outside the paper's ~56% band",
        improvement * 100.0
    );
    assert!(
        (1.8..5.0).contains(&best_speedup),
        "best per-app speedup {best_speedup:.2}x outside the paper's ~2.85x band"
    );
}
