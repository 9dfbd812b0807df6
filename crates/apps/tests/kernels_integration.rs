//! Integration across the application kernels: the semantic pipelines the
//! missions rely on, run end to end without the simulator.

use hivemind_apps::kernels::dedup::{deduplicate, score, Observation};
use hivemind_apps::kernels::embedding::{observe, Gallery};
use hivemind_apps::kernels::ocr::{parse_instruction, recognize, Instruction, SignImage};
use hivemind_sim::rng::RngForge;
use hivemind_swarm::maze::{wall_follower, Maze};
use rand::Rng;

/// A full Scenario-B recognition pipeline: drones photograph moving
/// people, a gallery identifies known faces, the dedup stage counts
/// unique individuals, and accuracy is scored against ground truth.
#[test]
fn scenario_b_recognition_pipeline() {
    let mut rng = RngForge::new(41).stream("pipeline");
    let people = 25u32;
    let gallery = Gallery::with_identities(0..people);

    let mut observations = Vec::new();
    let mut identified = 0;
    for pass in 0..3u32 {
        for person in 0..people {
            // The first sweep photographs everyone; later sweeps are
            // opportunistic.
            if pass == 0 || rng.gen::<f64>() < 0.8 {
                let sample = observe(person, 0.03, &mut rng);
                if gallery.identify(&sample, 0.8) == Some(person) {
                    identified += 1;
                }
                observations.push(Observation {
                    device: (person + pass) % 16,
                    embedding: sample,
                    truth: person,
                });
            }
        }
    }
    assert!(identified as f64 / observations.len() as f64 > 0.95);
    let result = deduplicate(&observations, 0.8);
    let (correct, under, over) = score(&observations, &result);
    assert_eq!(under + over, 0, "clean embeddings dedup exactly");
    assert_eq!(correct, 25);
}

/// The Treasure-Hunt chain: render → photograph (noise) → OCR → parse →
/// act, across a whole instruction course.
#[test]
fn treasure_hunt_instruction_chain() {
    let mut rng = RngForge::new(42).stream("hunt");
    let course = ["N3", "E7", "S2", "W4", "E1", "G"];
    let mut pos = (10i64, 10i64);
    let mut reached_goal = false;
    for truth in course {
        // Up to three photographs per panel, as the mission allows.
        let mut read = None;
        for _ in 0..3 {
            let img = SignImage::render(truth).with_noise(0.05, &mut rng);
            let text = recognize(&img);
            if text == truth {
                read = parse_instruction(&text);
                break;
            }
        }
        match read.expect("three attempts suffice at 5% pixel noise") {
            Instruction::Goal => {
                reached_goal = true;
                break;
            }
            Instruction::Move { dir, steps } => {
                let (dx, dy) = match dir {
                    'N' => (0, 1),
                    'E' => (1, 0),
                    'S' => (0, -1),
                    _ => (-1, 0),
                };
                pos = (pos.0 + dx * steps as i64, pos.1 + dy * steps as i64);
            }
        }
    }
    assert!(reached_goal);
    assert_eq!(pos, (10 + 7 - 4 + 1, 10 + 3 - 2));
}

/// Maze generation + wall following stays robust across shapes and seeds
/// (the cars' mission substrate).
#[test]
fn maze_course_statistics() {
    let mut total_steps = 0usize;
    let mut runs = 0usize;
    for seed in 0..30u64 {
        for (w, h) in [(8u32, 8u32), (12, 9), (20, 5)] {
            let maze = Maze::generate(w, h, RngForge::new(seed));
            let t = wall_follower(&maze);
            assert!(t.reached);
            // The wall follower never takes more than twice every passage
            // in each direction.
            assert!(t.steps() <= 4 * (w * h) as usize);
            total_steps += t.steps();
            runs += 1;
        }
    }
    let mean = total_steps as f64 / runs as f64;
    assert!(mean > 10.0, "non-trivial courses, mean steps {mean}");
}
