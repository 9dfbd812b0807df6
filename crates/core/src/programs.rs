//! The evaluation scenarios expressed in the HiveMind DSL.
//!
//! The paper's users "express each scenario's task graph in HiveMind's DSL
//! and provide the necessary task logic, and the system determines how to
//! place tasks" (Sec. 5.5). This module is that layer for the four
//! evaluation missions: each [`Scenario`] compiles to a validated
//! [`TaskGraph`] (Listing 3 is `MovingPeople`), with per-task cost hints
//! taken from the benchmark suite, and
//! [`synthesized_placements`] runs the Fig. 8 exploration to produce the
//! placement the mission engine pins.

use std::collections::HashMap;

use hivemind_apps::scenario::Scenario;
use hivemind_apps::suite::App;

use crate::dsl::{PlacementSite, TaskDef, TaskGraph, TaskGraphBuilder};
use crate::platform::Platform;
use crate::synthesis::{explore, Objective, TaskCost};

/// The DSL task name for a phase (the planning phase keeps its DSL name).
fn phase_task_name(phase: &hivemind_apps::scenario::PhaseSpec) -> &'static str {
    if phase.name == "createRoute" {
        "createRoute"
    } else {
        task_name(phase.app)
    }
}

/// The DSL task name for a mission phase app.
fn task_name(app: App) -> &'static str {
    match app {
        App::FaceRecognition => "faceRecognition",
        App::TreeRecognition => "itemRecognition",
        App::DroneDetection => "droneDetection",
        App::ObstacleAvoidance => "obstacleAvoidance",
        App::PeopleDedup => "deduplication",
        App::Maze => "routeUpdate",
        App::WeatherAnalytics => "weatherAnalytics",
        App::SoilAnalytics => "soilAnalytics",
        App::TextRecognition => "panelRecognition",
        App::Slam => "slam",
    }
}

/// Compiles a scenario's phase pipeline into its DSL task graph.
///
/// Structure mirrors Listing 3: a `createRoute` planning root, a
/// `collectImage` sensor tier (synthesis keeps sensor tasks on the edge),
/// per-frame phases as its children, and any barrier phase
/// (`deduplication`) as a final tier fed by the last per-frame phase.
/// Safety-critical phases carry a `Place` pin to the edge.
pub fn scenario_graph(scenario: Scenario) -> TaskGraph {
    let mut builder = TaskGraphBuilder::new()
        .task(TaskDef::new("createRoute"))
        .task(TaskDef::new("collectImage").parent("createRoute"));
    let mut per_frame: Vec<&'static str> = Vec::new();
    for phase in scenario.phases() {
        if phase.name == "createRoute" {
            continue;
        }
        let name = task_name(phase.app);
        let parent = if phase.sync_barrier {
            // The barrier phase consumes the last per-frame phase's output.
            *per_frame.last().unwrap_or(&"collectImage")
        } else {
            per_frame.push(name);
            "collectImage"
        };
        let mut task = TaskDef::new(name).parent(parent);
        if phase.app.edge_pinned() {
            task = task.place(PlacementSite::Edge);
        }
        builder = builder.task(task);
    }
    builder
        .build()
        .expect("scenario graphs are valid by construction")
}

/// Cost hints for a scenario's tasks, from the benchmark suite.
pub fn scenario_costs(scenario: Scenario) -> HashMap<String, TaskCost> {
    let mut costs = HashMap::new();
    costs.insert("createRoute".to_string(), TaskCost::from_app(App::Maze));
    costs.insert(
        "collectImage".to_string(),
        TaskCost {
            cloud_exec: 0.001,
            edge_slowdown: 1.0,
            // The full camera stream for one batch (8 fps × 2 MB).
            boundary_bytes: 16_000_000,
        },
    );
    for phase in scenario.phases() {
        costs.insert(
            phase_task_name(&phase).to_string(),
            TaskCost::from_app(phase.app),
        );
    }
    costs
}

/// Runs the Fig. 8 exploration for a scenario on a platform and returns
/// the winning placement per benchmark app.
///
/// Non-hybrid platforms do not consult the synthesizer: centralized
/// platforms force the cloud, distributed platforms force the edge (the
/// exploration is HiveMind's contribution).
pub fn synthesized_placements(scenario: Scenario, platform: Platform) -> Vec<(App, PlacementSite)> {
    let graph = scenario_graph(scenario);
    let phases = scenario.phases();
    if !platform.is_hybrid() {
        let forced = if platform.is_distributed() {
            PlacementSite::Edge
        } else {
            PlacementSite::Cloud
        };
        return phases
            .iter()
            .map(|p| {
                (
                    p.app,
                    graph.pinned_site(phase_task_name(p)).unwrap_or(forced),
                )
            })
            .collect();
    }
    let ranked = explore(
        &graph,
        &scenario_costs(scenario),
        platform,
        Objective::Performance,
    );
    let best = &ranked[0].placement;
    phases
        .iter()
        .map(|p| (p.app, best[phase_task_name(p)]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenario_graphs_build() {
        for s in Scenario::ALL {
            let g = scenario_graph(s);
            assert!(g.len() >= 3, "{s:?}");
            assert_eq!(g.roots(), vec!["createRoute"], "{s:?}");
            // The sensor tier is always present and always edge-bound.
            assert!(g.task("collectImage").is_some());
        }
    }

    #[test]
    fn moving_people_matches_listing3_shape() {
        let g = scenario_graph(Scenario::MovingPeople);
        assert_eq!(g.len(), 5);
        assert_eq!(
            g.children("collectImage"),
            vec!["obstacleAvoidance", "faceRecognition"]
        );
        assert_eq!(g.children("faceRecognition"), vec!["deduplication"]);
        assert_eq!(
            g.pinned_site("obstacleAvoidance"),
            Some(PlacementSite::Edge)
        );
    }

    #[test]
    fn hivemind_placements_split_the_work() {
        let placements: HashMap<App, PlacementSite> =
            synthesized_placements(Scenario::MovingPeople, Platform::HiveMind)
                .into_iter()
                .collect();
        assert_eq!(placements[&App::ObstacleAvoidance], PlacementSite::Edge);
        assert_eq!(placements[&App::FaceRecognition], PlacementSite::Cloud);
        assert_eq!(placements[&App::PeopleDedup], PlacementSite::Cloud);
    }

    #[test]
    fn forced_platforms_skip_the_explorer() {
        let cen: HashMap<App, PlacementSite> =
            synthesized_placements(Scenario::StationaryItems, Platform::CentralizedFaaS)
                .into_iter()
                .collect();
        // Everything in the cloud except the Place-pinned safety task.
        assert_eq!(cen[&App::TreeRecognition], PlacementSite::Cloud);
        assert_eq!(cen[&App::ObstacleAvoidance], PlacementSite::Edge);

        let dist: HashMap<App, PlacementSite> =
            synthesized_placements(Scenario::StationaryItems, Platform::DistributedEdge)
                .into_iter()
                .collect();
        assert!(dist.values().all(|&s| s == PlacementSite::Edge));
    }

    #[test]
    fn car_scenarios_compile_too() {
        let hunt = scenario_graph(Scenario::TreasureHunt);
        assert!(hunt.task("panelRecognition").is_some());
        let maze = scenario_graph(Scenario::CarMaze);
        assert!(maze.task("routeUpdate").is_some());
    }

    #[test]
    fn costs_cover_every_task() {
        for s in Scenario::ALL {
            let g = scenario_graph(s);
            let costs = scenario_costs(s);
            for t in g.tasks() {
                assert!(costs.contains_key(&t.name), "{s:?}: {}", t.name);
            }
        }
    }
}
