//! Runtime task re-mapping (Sec. 4.2): "At runtime, HiveMind can change
//! its task mapping if the user-provided goals are not met."
//!
//! A user hints that text recognition should run on the drones. The probe
//! window shows the on-board queue blowing past the 2-second latency goal,
//! so the controller re-maps the task to the serverless backend — at task
//! granularity, with in-flight tasks finishing where they started.
//!
//! ```text
//! cargo run --release --example adaptive_mapping
//! ```

use hivemind::core::adaptive::run_adaptive;
use hivemind::core::dsl::PlacementSite;
use hivemind::core::prelude::*;

fn main() {
    let cfg = ExperimentConfig::single_app(App::TextRecognition)
        .platform(Platform::HiveMind)
        .seed(3);

    println!("Goal: median OCR task latency under 2.0 s");
    println!("User hint: run panelRecognition at the edge\n");
    let out = run_adaptive(
        &cfg,
        App::TextRecognition,
        Some(PlacementSite::Edge),
        2.0,
        30.0,
        30.0,
    );
    println!(
        "probe window : placement {:?}, median {:.2} s  {}",
        out.initial_placement,
        out.probe_median_secs,
        if out.probe_median_secs > 2.0 {
            "(GOAL VIOLATED)"
        } else {
            ""
        }
    );
    if out.remapped {
        println!(
            "controller   : re-mapping {} to {:?}",
            App::TextRecognition,
            out.final_placement
        );
    }
    println!(
        "steady window: placement {:?}, median {:.2} s  {}",
        out.final_placement,
        out.steady_median_secs,
        if out.steady_median_secs <= 2.0 {
            "(goal met)"
        } else {
            ""
        }
    );
    println!(
        "\n{} tasks processed across both windows.",
        out.records.len()
    );
}
