//! Program synthesis for task placement (Sec. 4.2, Fig. 8).
//!
//! From a user's task graph, HiveMind "creates all — *meaningful* —
//! execution models, where part or all of the computation is placed on
//! the edge devices", generates the cross-tier communication APIs for
//! each, profiles them, and presents the Pareto set to the user (or picks
//! one satisfying their constraints). This module implements exactly that
//! pipeline over the [`TaskGraph`]:
//!
//! 1. [`enumerate_placements`] — all 2^n assignments, pruned by the
//!    "meaningful" rules (sensor-producing tasks never move to the cloud,
//!    `Place` pins are honored).
//! 2. [`bindings`] — the synthesized API for each adjacent task pair:
//!    Thrift-style RPC across the edge/cloud boundary, the serverless
//!    data plane inside the cloud, in-memory inside a device.
//! 3. [`estimate`] — an analytic latency/energy profile of a candidate
//!    (harnesses may replace this with full simulation).
//! 4. [`explore`] — ties it together and ranks candidates under a
//!    [`Objective`].

use std::collections::HashMap;

use hivemind_apps::suite::App;

use crate::dsl::{PlacementSite, TaskGraph};
use crate::platform::Platform;

/// A complete placement: task name → site.
pub type Placement = HashMap<String, PlacementSite>;

/// The synthesized communication binding for one graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// Apache-Thrift-style RPC between an edge device and the cloud (the
    /// synthesizer emits C++ stubs on the testbed).
    CrossTierRpc,
    /// OpenWhisk function interface + the platform data plane between two
    /// cloud functions.
    ServerlessDataPlane,
    /// Shared-memory handoff between two tasks on the same device.
    OnDevice,
}

/// Heuristics marking tasks that *produce* sensor data (they cannot run
/// in the cloud — "discarding execution models that would not make sense
/// practically, e.g., collecting sensor data in the cloud").
pub fn is_sensor_task(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    ["collect", "capture", "sensor", "camera"]
        .iter()
        .any(|k| lower.contains(k))
}

/// Enumerates all meaningful placements of `graph`.
///
/// Pruning rules:
/// * `Place`-pinned tasks keep their pinned site;
/// * sensor-producing tasks stay on the edge;
/// * everything else may go either way.
///
/// For a 2-tier graph `A → B` with no pins this returns the paper's four
/// models (`A_cloud→B_cloud`, `A_edge→B_cloud`, …).
pub fn enumerate_placements(graph: &TaskGraph) -> Vec<Placement> {
    let tasks = graph.tasks();
    let mut free: Vec<&str> = Vec::new();
    let mut fixed: Placement = HashMap::new();
    for t in tasks {
        if let Some(site) = graph.pinned_site(&t.name) {
            fixed.insert(t.name.clone(), site);
        } else if is_sensor_task(&t.name) {
            fixed.insert(t.name.clone(), PlacementSite::Edge);
        } else {
            free.push(&t.name);
        }
    }
    let n = free.len();
    assert!(n <= 20, "placement enumeration beyond 2^20 is impractical");
    let mut out = Vec::with_capacity(1 << n);
    for mask in 0u32..(1 << n) {
        let mut p = fixed.clone();
        for (i, name) in free.iter().enumerate() {
            let site = if mask & (1 << i) != 0 {
                PlacementSite::Cloud
            } else {
                PlacementSite::Edge
            };
            p.insert((*name).to_string(), site);
        }
        out.push(p);
    }
    out
}

/// The synthesized binding for each parent→child edge under `placement`.
///
/// # Panics
///
/// Panics if the placement does not cover every task in the graph.
pub fn bindings(graph: &TaskGraph, placement: &Placement) -> Vec<(String, String, Binding)> {
    let mut out = Vec::new();
    for t in graph.tasks() {
        for p in &t.parents {
            let ps = placement[p.as_str()];
            let cs = placement[t.name.as_str()];
            let b = match (ps, cs) {
                (PlacementSite::Cloud, PlacementSite::Cloud) => Binding::ServerlessDataPlane,
                (PlacementSite::Edge, PlacementSite::Edge) => Binding::OnDevice,
                _ => Binding::CrossTierRpc,
            };
            out.push((p.clone(), t.name.clone(), b));
        }
    }
    out
}

/// Per-task cost hints used by the analytic profiler. Defaults derive
/// from the benchmark suite when a task maps to a known app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Mean execution time on a cloud core, seconds.
    pub cloud_exec: f64,
    /// On-device slowdown multiplier.
    pub edge_slowdown: f64,
    /// Bytes this task's input must move if it crosses the boundary.
    pub boundary_bytes: u64,
}

impl TaskCost {
    /// Cost hints from a benchmark app.
    pub fn from_app(app: App) -> TaskCost {
        let p = app.cloud_profile();
        TaskCost {
            cloud_exec: p.exec.mean_secs(),
            edge_slowdown: app.edge_slowdown(),
            boundary_bytes: p.input_bytes,
        }
    }
}

/// Estimated profile of one candidate placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateProfile {
    /// Predicted end-to-end latency per pipeline invocation, seconds.
    pub latency: f64,
    /// Predicted edge energy per invocation, joules.
    pub edge_energy: f64,
    /// Predicted cloud core-seconds per invocation (the cost proxy).
    pub cloud_core_secs: f64,
}

/// What the user optimizes for (the paper's DSL-level constraint, given
/// to [`explore`] directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize latency.
    Performance,
    /// Minimize device energy.
    Power,
    /// Minimize cloud cost.
    Cost,
    /// Minimize latency subject to an energy bound (joules/invocation).
    PerformanceUnderPowerBudget {
        /// Maximum edge energy per invocation.
        max_edge_energy: f64,
    },
}

/// Analytic cost model for one candidate (unloaded; the experiment
/// harness refines the winner by simulation).
pub fn estimate(
    graph: &TaskGraph,
    placement: &Placement,
    costs: &HashMap<String, TaskCost>,
    platform: Platform,
) -> CandidateProfile {
    // Calibration constants mirroring the substrates' defaults.
    const WIFI_BYTES_PER_SEC: f64 = 867e6 / 8.0;
    const RPC_OVERHEAD: f64 = 120e-6;
    const FAAS_OVERHEAD: f64 = 0.030; // management + mixed instantiation
    const EDGE_COMPUTE_W: f64 = 3.5;
    const RADIO_J_PER_BYTE: f64 = 4.0e-7;

    let mut latency = 0.0;
    let mut edge_energy = 0.0;
    let mut cloud_core_secs = 0.0;
    for name in graph.topological_names() {
        let cost = costs.get(name).copied().unwrap_or(TaskCost {
            cloud_exec: 0.05,
            edge_slowdown: 5.0,
            boundary_bytes: 100_000,
        });
        match placement[name] {
            PlacementSite::Cloud => {
                latency += cost.cloud_exec + FAAS_OVERHEAD;
                cloud_core_secs += cost.cloud_exec;
            }
            PlacementSite::Edge => {
                let t = cost.cloud_exec * cost.edge_slowdown;
                latency += t;
                edge_energy += t * EDGE_COMPUTE_W;
            }
        }
    }
    for (_, child, binding) in bindings(graph, placement) {
        let bytes = costs
            .get(child.as_str())
            .map(|c| c.boundary_bytes)
            .unwrap_or(100_000) as f64;
        match binding {
            Binding::CrossTierRpc => {
                let wire = bytes * platform.upload_fraction() / WIFI_BYTES_PER_SEC;
                latency += wire + RPC_OVERHEAD;
                edge_energy += bytes * platform.upload_fraction() * RADIO_J_PER_BYTE;
            }
            Binding::ServerlessDataPlane => {
                latency += if platform.remote_memory() {
                    0.0002
                } else {
                    0.008
                };
            }
            Binding::OnDevice => latency += 0.0001,
        }
    }
    CandidateProfile {
        latency,
        edge_energy,
        cloud_core_secs,
    }
}

/// A ranked exploration result.
#[derive(Debug, Clone, PartialEq)]
pub struct Explored {
    /// The placement.
    pub placement: Placement,
    /// Its estimated profile.
    pub profile: CandidateProfile,
}

/// Runs the full exploration and returns candidates sorted best-first
/// under `objective`.
///
/// Candidate profiling fans out across the [`crate::runner::Runner`]
/// thread pool (the candidate set grows as 2^free-tasks); profiles come
/// back in enumeration order and ties sort stably, so the ranking is
/// identical at any thread count.
pub fn explore(
    graph: &TaskGraph,
    costs: &HashMap<String, TaskCost>,
    platform: Platform,
    objective: Objective,
) -> Vec<Explored> {
    let placements = enumerate_placements(graph);
    let profiles = crate::runner::Runner::from_env().map(&placements, |_, placement| {
        estimate(graph, placement, costs, platform)
    });
    let mut out: Vec<Explored> = placements
        .into_iter()
        .zip(profiles)
        .map(|(placement, profile)| Explored { placement, profile })
        .collect();
    let key = |p: &CandidateProfile| match objective {
        Objective::Performance => p.latency,
        Objective::Power => p.edge_energy,
        Objective::Cost => p.cloud_core_secs,
        Objective::PerformanceUnderPowerBudget { max_edge_energy } => {
            if p.edge_energy <= max_edge_energy {
                p.latency
            } else {
                f64::INFINITY
            }
        }
    };
    out.sort_by(|a, b| key(&a.profile).total_cmp(&key(&b.profile)));
    out
}

/// Placement decision for a single benchmark app under a platform — the
/// degenerate (one-tier) case of the exploration used by the engine.
pub fn single_app_placement(app: App, platform: Platform) -> PlacementSite {
    if platform.is_distributed() {
        return PlacementSite::Edge;
    }
    if !platform.is_hybrid() {
        return PlacementSite::Cloud;
    }
    if app.edge_pinned() {
        return PlacementSite::Edge;
    }
    // Hybrid: compare the unloaded analytic estimates exactly as the
    // synthesis pass would for a one-task graph.
    let cost = TaskCost::from_app(app);
    let edge_latency = cost.cloud_exec * cost.edge_slowdown;
    let wire = cost.boundary_bytes as f64 * platform.upload_fraction() / (867e6 / 8.0);
    let cloud_latency = cost.cloud_exec + 0.030 + wire + 120e-6;
    if edge_latency <= cloud_latency {
        PlacementSite::Edge
    } else {
        PlacementSite::Cloud
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{TaskDef, TaskGraphBuilder};

    fn two_tier() -> TaskGraph {
        TaskGraphBuilder::new()
            .task(TaskDef::new("analyze"))
            .task(TaskDef::new("aggregate").parent("analyze"))
            .build()
            .unwrap()
    }

    #[test]
    fn two_tier_enumerates_four_models() {
        let g = two_tier();
        let placements = enumerate_placements(&g);
        assert_eq!(placements.len(), 4, "the paper's A→B example");
    }

    #[test]
    fn sensor_tasks_never_go_to_cloud() {
        let g = TaskGraphBuilder::new()
            .task(TaskDef::new("collectImage"))
            .task(TaskDef::new("recognize").parent("collectImage"))
            .build()
            .unwrap();
        let placements = enumerate_placements(&g);
        assert_eq!(placements.len(), 2);
        assert!(placements
            .iter()
            .all(|p| p["collectImage"] == PlacementSite::Edge));
    }

    #[test]
    fn place_pins_are_honored() {
        let g = TaskGraphBuilder::new()
            .task(TaskDef::new("a").place(PlacementSite::Cloud))
            .task(TaskDef::new("b").parent("a"))
            .build()
            .unwrap();
        let placements = enumerate_placements(&g);
        assert_eq!(placements.len(), 2);
        assert!(placements.iter().all(|p| p["a"] == PlacementSite::Cloud));
    }

    #[test]
    fn bindings_match_sites() {
        let g = two_tier();
        let mut p = Placement::new();
        p.insert("analyze".into(), PlacementSite::Edge);
        p.insert("aggregate".into(), PlacementSite::Cloud);
        let b = bindings(&g, &p);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].2, Binding::CrossTierRpc);

        p.insert("analyze".into(), PlacementSite::Cloud);
        assert_eq!(bindings(&g, &p)[0].2, Binding::ServerlessDataPlane);

        p.insert("analyze".into(), PlacementSite::Edge);
        p.insert("aggregate".into(), PlacementSite::Edge);
        assert_eq!(bindings(&g, &p)[0].2, Binding::OnDevice);
    }

    #[test]
    fn explore_performance_prefers_cloud_for_heavy_compute() {
        let g = two_tier();
        let mut costs = HashMap::new();
        costs.insert(
            "analyze".to_string(),
            TaskCost {
                cloud_exec: 0.5,
                edge_slowdown: 12.0,
                boundary_bytes: 500_000,
            },
        );
        costs.insert(
            "aggregate".to_string(),
            TaskCost {
                cloud_exec: 0.1,
                edge_slowdown: 10.0,
                boundary_bytes: 10_000,
            },
        );
        let ranked = explore(&g, &costs, Platform::HiveMind, Objective::Performance);
        let best = &ranked[0].placement;
        assert_eq!(best["analyze"], PlacementSite::Cloud);
        assert_eq!(best["aggregate"], PlacementSite::Cloud);
    }

    #[test]
    fn explore_power_prefers_cloud_offload() {
        // Minimizing edge energy pushes compute off the device entirely.
        let g = two_tier();
        let costs = HashMap::new();
        let ranked = explore(&g, &costs, Platform::HiveMind, Objective::Power);
        let best = &ranked[0].placement;
        assert!(best.values().all(|&s| s == PlacementSite::Cloud));
    }

    #[test]
    fn power_budget_constrains_performance_choice() {
        let g = two_tier();
        let mut costs = HashMap::new();
        for t in ["analyze", "aggregate"] {
            costs.insert(
                t.to_string(),
                TaskCost {
                    cloud_exec: 0.02,
                    edge_slowdown: 2.0,
                    boundary_bytes: 5_000_000,
                },
            );
        }
        // Pure performance keeps light tasks at the edge (no 5 MB upload).
        let perf = explore(&g, &costs, Platform::HiveMind, Objective::Performance);
        assert!(perf[0]
            .placement
            .values()
            .any(|&s| s == PlacementSite::Edge));
        // A zero energy budget forces everything to the cloud.
        let budget = explore(
            &g,
            &costs,
            Platform::HiveMind,
            Objective::PerformanceUnderPowerBudget {
                max_edge_energy: 0.0,
            },
        );
        assert!(budget[0]
            .placement
            .values()
            .all(|&s| s == PlacementSite::Cloud));
    }

    #[test]
    fn single_app_placements_match_paper_exceptions() {
        use App::*;
        for (app, expected) in [
            (WeatherAnalytics, PlacementSite::Edge),
            (DroneDetection, PlacementSite::Edge),
            (ObstacleAvoidance, PlacementSite::Edge),
            (FaceRecognition, PlacementSite::Cloud),
            (Slam, PlacementSite::Cloud),
            (TextRecognition, PlacementSite::Cloud),
        ] {
            assert_eq!(
                single_app_placement(app, Platform::HiveMind),
                expected,
                "{app}"
            );
        }
        assert_eq!(
            single_app_placement(FaceRecognition, Platform::DistributedEdge),
            PlacementSite::Edge
        );
        assert_eq!(
            single_app_placement(ObstacleAvoidance, Platform::CentralizedFaaS),
            PlacementSite::Cloud,
            "the single-app benchmark measures S4 in the cloud too"
        );
    }
}
