//! DSL → synthesis → execution pipeline: the user-facing programming
//! model drives placement decisions consistent with what the engine does.

use std::collections::HashMap;

use hivemind::apps::scenario::Scenario;
use hivemind::apps::suite::App;
use hivemind::core::dsl::{GraphError, PlacementSite, TaskDef, TaskGraph, TaskGraphBuilder};
use hivemind::core::engine::{Engine, EngineConfig};
use hivemind::core::platform::Platform;
use hivemind::core::programs::scenario_graph;
use hivemind::core::synthesis::{
    bindings, enumerate_placements, estimate, explore, single_app_placement, Binding, Objective,
    TaskCost,
};

/// Listing 3's tasks, with `obstacleAvoidance` pinned to the edge.
fn scenario_b_tasks() -> Vec<TaskDef> {
    vec![
        TaskDef::new("createRoute"),
        TaskDef::new("collectImage").parent("createRoute"),
        TaskDef::new("obstacleAvoidance")
            .parent("collectImage")
            .place(PlacementSite::Edge),
        TaskDef::new("faceRecognition").parent("collectImage"),
        TaskDef::new("deduplication").parent("faceRecognition"),
    ]
}

fn build(tasks: Vec<TaskDef>) -> TaskGraph {
    tasks
        .into_iter()
        .fold(TaskGraphBuilder::new(), TaskGraphBuilder::task)
        .build()
        .expect("Listing 3 is valid")
}

fn scenario_b_graph() -> TaskGraph {
    build(scenario_b_tasks())
}

fn scenario_b_costs() -> HashMap<String, TaskCost> {
    let mut costs = HashMap::new();
    costs.insert("createRoute".into(), TaskCost::from_app(App::Maze));
    costs.insert(
        "collectImage".into(),
        TaskCost {
            cloud_exec: 0.001,
            edge_slowdown: 1.0,
            boundary_bytes: 16_000_000,
        },
    );
    costs.insert(
        "obstacleAvoidance".into(),
        TaskCost::from_app(App::ObstacleAvoidance),
    );
    costs.insert(
        "faceRecognition".into(),
        TaskCost::from_app(App::FaceRecognition),
    );
    costs.insert("deduplication".into(), TaskCost::from_app(App::PeopleDedup));
    costs
}

#[test]
fn exploration_prunes_to_meaningful_models() {
    let graph = scenario_b_graph();
    // 5 tasks; collectImage auto-pinned (sensor), obstacleAvoidance pinned
    // by `place` → 2^3 = 8 meaningful models.
    let placements = enumerate_placements(&graph);
    assert_eq!(placements.len(), 8);
    for p in &placements {
        assert_eq!(p["collectImage"], PlacementSite::Edge);
        assert_eq!(p["obstacleAvoidance"], PlacementSite::Edge);
    }
}

#[test]
fn performance_objective_offloads_heavy_recognition() {
    let graph = scenario_b_graph();
    let ranked = explore(
        &graph,
        &scenario_b_costs(),
        Platform::HiveMind,
        Objective::Performance,
    );
    let best = &ranked[0].placement;
    assert_eq!(
        best["faceRecognition"],
        PlacementSite::Cloud,
        "a 10x edge slowdown on FaceNet must push it to the cloud"
    );
    // The winner is consistent with the engine's per-app decision.
    assert_eq!(
        single_app_placement(App::FaceRecognition, Platform::HiveMind),
        PlacementSite::Cloud
    );
    // And exploration is exhaustive: the winner's latency is minimal.
    for candidate in &ranked[1..] {
        assert!(candidate.profile.latency >= ranked[0].profile.latency - 1e-12);
    }
}

#[test]
fn bindings_match_fig8_arrows() {
    let graph = scenario_b_graph();
    let ranked = explore(
        &graph,
        &scenario_b_costs(),
        Platform::HiveMind,
        Objective::Performance,
    );
    let b = bindings(&graph, &ranked[0].placement);
    let find = |child: &str| {
        b.iter()
            .find(|(_, c, _)| c == child)
            .map(|&(_, _, binding)| binding)
            .expect("edge exists")
    };
    // Edge → cloud crossing uses the synthesized RPC API; cloud-internal
    // edges use the serverless data plane; on-device edges share memory.
    assert_eq!(find("faceRecognition"), Binding::CrossTierRpc);
    assert_eq!(find("deduplication"), Binding::ServerlessDataPlane);
    assert_eq!(find("obstacleAvoidance"), Binding::OnDevice);
}

#[test]
fn engine_placements_agree_with_synthesis() {
    let engine = Engine::new(EngineConfig::testbed(Platform::HiveMind));
    for app in App::ALL {
        assert_eq!(
            engine.placement_of(app),
            single_app_placement(app, Platform::HiveMind),
            "{app}"
        );
    }
}

#[test]
fn invalid_graphs_are_rejected_before_synthesis() {
    let err = TaskGraphBuilder::new()
        .task(TaskDef::new("a").parent("b"))
        .task(TaskDef::new("b").parent("a"))
        .build()
        .unwrap_err();
    assert!(matches!(err, GraphError::Cycle(_)));
}

#[test]
fn power_objective_changes_the_winner() {
    let graph = scenario_b_graph();
    let costs = scenario_b_costs();
    let perf = explore(&graph, &costs, Platform::HiveMind, Objective::Performance);
    let power = explore(&graph, &costs, Platform::HiveMind, Objective::Power);
    // Minimizing device energy pushes every free task to the cloud.
    for (task, site) in &power[0].placement {
        if task != "collectImage" && task != "obstacleAvoidance" {
            assert_eq!(*site, PlacementSite::Cloud, "{task}");
        }
    }
    assert!(power[0].profile.edge_energy <= perf[0].profile.edge_energy);
}

#[test]
fn place_pin_changes_the_count_and_the_winner() {
    let pinned = scenario_b_graph();
    let mut tasks = scenario_b_tasks();
    tasks[2].place = None;
    let free = build(tasks);
    assert_eq!(enumerate_placements(&pinned).len(), 8);
    assert_eq!(enumerate_placements(&free).len(), 16);
    let costs = scenario_b_costs();
    let winner = |graph: &TaskGraph| {
        explore(graph, &costs, Platform::HiveMind, Objective::Power)
            .swap_remove(0)
            .placement
    };
    assert_eq!(winner(&pinned)["obstacleAvoidance"], PlacementSite::Edge);
    assert_eq!(winner(&free)["obstacleAvoidance"], PlacementSite::Cloud);
}

#[test]
fn a_parent_edge_changes_bindings_and_estimate() {
    let base = scenario_b_graph();
    let mut tasks = scenario_b_tasks();
    tasks[4].parents.push("obstacleAvoidance".into());
    let joined = build(tasks);
    let costs = scenario_b_costs();
    let placement = explore(&base, &costs, Platform::HiveMind, Objective::Performance)
        .swap_remove(0)
        .placement;
    let before = bindings(&base, &placement);
    let after = bindings(&joined, &placement);
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.contains(&(
        "obstacleAvoidance".to_string(),
        "deduplication".to_string(),
        Binding::CrossTierRpc
    )));
    let latency =
        |graph: &TaskGraph| estimate(graph, &placement, &costs, Platform::HiveMind).latency;
    assert!(latency(&joined) > latency(&base));
}

#[test]
fn scenario_topological_orders_are_pinned() {
    let expected = [
        (
            Scenario::StationaryItems,
            vec![
                "createRoute",
                "collectImage",
                "itemRecognition",
                "obstacleAvoidance",
            ],
        ),
        (
            Scenario::MovingPeople,
            vec![
                "createRoute",
                "collectImage",
                "faceRecognition",
                "deduplication",
                "obstacleAvoidance",
            ],
        ),
        (
            Scenario::TreasureHunt,
            vec![
                "createRoute",
                "collectImage",
                "routeUpdate",
                "panelRecognition",
            ],
        ),
        (
            Scenario::CarMaze,
            vec![
                "createRoute",
                "collectImage",
                "obstacleAvoidance",
                "routeUpdate",
            ],
        ),
    ];
    for (scenario, names) in expected {
        assert_eq!(
            scenario_graph(scenario).topological_names(),
            names,
            "{scenario:?}"
        );
    }
}
