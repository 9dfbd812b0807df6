//! The HiveMind DSL and program-synthesis pipeline (Listings 1–3 +
//! Fig. 8): declare Scenario B's task graph, enumerate the meaningful
//! cloud/edge execution models, and rank them under different objectives.
//!
//! ```text
//! cargo run --release --example placement_synthesis
//! ```

use std::collections::HashMap;

use hivemind::core::dsl::{PlacementSite, TaskDef, TaskGraphBuilder};
use hivemind::core::prelude::*;
use hivemind::core::synthesis::{explore, Objective, TaskCost};

fn main() {
    // Listing 3: people recognition and deduplication.
    let graph = TaskGraphBuilder::new()
        .task(TaskDef::new("createRoute"))
        .task(TaskDef::new("collectImage").parent("createRoute"))
        .task(
            TaskDef::new("obstacleAvoidance")
                .parent("collectImage")
                .place(PlacementSite::Edge),
        )
        .task(TaskDef::new("faceRecognition").parent("collectImage"))
        .task(TaskDef::new("deduplication").parent("faceRecognition"))
        .build()
        .expect("Listing 3 is a valid task graph");

    println!(
        "Task graph: {} tasks, topological order {:?}\n",
        graph.len(),
        graph.topological_names()
    );

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

    for objective in [Objective::Performance, Objective::Power] {
        let ranked = explore(&graph, &costs, Platform::HiveMind, objective);
        println!(
            "objective {objective:?}: {} meaningful execution models explored",
            ranked.len()
        );
        let best = &ranked[0];
        let mut names: Vec<&String> = best.placement.keys().collect();
        names.sort();
        for name in names {
            println!("  {:<18} -> {:?}", name, best.placement[name.as_str()]);
        }
        println!(
            "  predicted: latency {:.0} ms/invocation, edge energy {:.2} J, cloud {:.2} core-s\n",
            best.profile.latency * 1e3,
            best.profile.edge_energy,
            best.profile.cloud_core_secs
        );
    }
    println!("(collectImage is pinned to the edge automatically — sensor data cannot be");
    println!(" collected in the cloud; obstacleAvoidance is pinned by the Place directive)");
}
