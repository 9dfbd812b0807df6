//! Runtime task re-mapping (Sec. 4.2).
//!
//! "At runtime, HiveMind can change its task mapping if the user-provided
//! goals are not met. Changes to task placement currently only happen at
//! task granularity." This module implements that control loop for
//! single-app workloads: run a probe window under the synthesized
//! placement, compare the measured latency against the user's latency
//! goal (an argument here; the DSL carries no goals), and if it is
//! violated, flip the app's placement and run the remainder of the
//! workload under the new mapping.

use hivemind_apps::suite::App;
use hivemind_sim::stats::DurationSummary;
use hivemind_sim::time::SimTime;

use crate::dsl::PlacementSite;
use crate::engine::{Engine, TaskRecord};
use crate::experiment::ExperimentConfig;

/// Outcome of the adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Placement used during the probe window.
    pub initial_placement: PlacementSite,
    /// Placement after adaptation (equal to the initial one when the goal
    /// was already met).
    pub final_placement: PlacementSite,
    /// Whether a re-mapping occurred.
    pub remapped: bool,
    /// Median task latency measured in the probe window, seconds.
    pub probe_median_secs: f64,
    /// Median task latency after the decision point, seconds.
    pub steady_median_secs: f64,
    /// All task records across both windows.
    pub records: Vec<TaskRecord>,
}

/// Runs `app` under `cfg` with a latency goal: a probe window of
/// `probe_secs`, a re-mapping decision, then `steady_secs` more load.
///
/// The probe starts from `initial_hint` when one is given — the user's
/// optional placement hint (Sec. 4.1), which the runtime overrides when it
/// turns out to violate the goal — and from the synthesized placement
/// otherwise.
///
/// The engine (and therefore warm containers, network queues, and battery
/// state) persists across the re-mapping — only the placement changes,
/// matching the paper's "task granularity" restriction: in-flight tasks
/// finish where they started.
///
/// # Panics
///
/// Panics if either window is non-positive.
pub fn run_adaptive(
    cfg: &ExperimentConfig,
    app: App,
    initial_hint: Option<PlacementSite>,
    latency_goal_secs: f64,
    probe_secs: f64,
    steady_secs: f64,
) -> AdaptiveOutcome {
    assert!(
        probe_secs > 0.0 && steady_secs > 0.0,
        "windows must be positive"
    );
    let mut engine = Engine::new(cfg.engine_config());
    if let Some(site) = initial_hint {
        if site == PlacementSite::Edge || engine.has_cloud_backend() {
            engine.pin_placement(app, site);
        }
    }
    let initial = engine.placement_of(app);
    let rate = app.tasks_per_sec() * cfg.rate_scale;
    let period = 1.0 / rate;

    let submit_window = |engine: &mut Engine, from: f64, to: f64| {
        for dev in 0..cfg.devices {
            let offset = period * (dev as f64 / cfg.devices as f64);
            let mut t = from + offset;
            while t < to {
                engine.submit_task(
                    SimTime::ZERO + hivemind_sim::time::SimDuration::from_secs_f64(t),
                    dev,
                    app,
                    0,
                );
                t += period;
            }
        }
    };

    // --- Probe window. ---
    submit_window(&mut engine, 0.0, probe_secs);
    let mut records = engine.run_to_completion();
    let mut probe = DurationSummary::new();
    for r in &records {
        probe.record(r.latency());
    }
    let probe_median = probe.median();

    // --- Decision: flip placement if the goal is violated. Flipping
    // toward the cloud requires a backend to exist; a purely distributed
    // deployment has nowhere else to go and keeps its mapping.
    let flipped = match initial {
        PlacementSite::Cloud => Some(PlacementSite::Edge),
        PlacementSite::Edge if engine.has_cloud_backend() => Some(PlacementSite::Cloud),
        PlacementSite::Edge => None,
    };
    let final_placement = match (probe_median > latency_goal_secs, flipped) {
        (true, Some(site)) => {
            engine.pin_placement(app, site);
            site
        }
        _ => initial,
    };

    // --- Steady window under the (possibly new) mapping. ---
    let start = engine.now().as_secs_f64().max(probe_secs);
    submit_window(&mut engine, start, start + steady_secs);
    let steady_records = engine.run_to_completion();
    let mut steady = DurationSummary::new();
    for r in &steady_records {
        steady.record(r.latency());
    }
    let steady_median = steady.median();
    records.extend(steady_records);

    AdaptiveOutcome {
        initial_placement: initial,
        final_placement,
        remapped: final_placement != initial,
        probe_median_secs: probe_median,
        steady_median_secs: steady_median,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn satisfied_goal_keeps_the_mapping() {
        let cfg = ExperimentConfig::single_app(App::FaceRecognition)
            .platform(Platform::HiveMind)
            .seed(3);
        // A generous 5 s goal: the cloud mapping easily meets it.
        let out = run_adaptive(&cfg, App::FaceRecognition, None, 5.0, 15.0, 15.0);
        assert!(!out.remapped);
        assert_eq!(out.initial_placement, out.final_placement);
        assert!(out.probe_median_secs < 5.0);
    }

    #[test]
    fn violated_goal_flips_to_the_cloud() {
        // A user hint pins heavy OCR to the edge; the on-device queue
        // diverges, the probe violates the 2 s goal, and the runtime
        // re-maps the task to the serverless backend.
        let cfg = ExperimentConfig::single_app(App::TextRecognition)
            .platform(Platform::HiveMind)
            .seed(3);
        let out = run_adaptive(
            &cfg,
            App::TextRecognition,
            Some(PlacementSite::Edge),
            2.0,
            20.0,
            20.0,
        );
        assert_eq!(out.initial_placement, PlacementSite::Edge);
        assert!(out.remapped, "probe median {}", out.probe_median_secs);
        assert_eq!(out.final_placement, PlacementSite::Cloud);
        assert!(
            out.steady_median_secs < out.probe_median_secs,
            "re-mapping must help: {} -> {}",
            out.probe_median_secs,
            out.steady_median_secs
        );
        assert!(out.steady_median_secs < 2.0, "goal met after re-mapping");
    }

    #[test]
    fn distributed_platform_has_nowhere_to_flip() {
        let cfg = ExperimentConfig::single_app(App::TextRecognition)
            .platform(Platform::DistributedEdge)
            .seed(3);
        let out = run_adaptive(&cfg, App::TextRecognition, None, 2.0, 10.0, 10.0);
        assert!(!out.remapped, "no backend exists to re-map onto");
        assert_eq!(out.final_placement, PlacementSite::Edge);
    }

    #[test]
    fn light_apps_can_flip_toward_the_edge() {
        // Weather analytics under a sub-50ms goal: the centralized cloud
        // round-trip violates it; the edge mapping meets it.
        let cfg = ExperimentConfig::single_app(App::WeatherAnalytics)
            .platform(Platform::CentralizedFaaS)
            .seed(4);
        let out = run_adaptive(&cfg, App::WeatherAnalytics, None, 0.05, 20.0, 20.0);
        assert_eq!(out.initial_placement, PlacementSite::Cloud);
        assert!(out.remapped);
        assert_eq!(out.final_placement, PlacementSite::Edge);
        assert!(out.steady_median_secs < 0.05);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let cfg = ExperimentConfig::single_app(App::Maze);
        let _ = run_adaptive(&cfg, App::Maze, None, 1.0, 0.0, 10.0);
    }
}
