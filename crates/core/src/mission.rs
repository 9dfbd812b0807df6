//! End-to-end mission execution (Scenario A/B and the car missions).
//!
//! A mission drives the full stack: the controller partitions the field,
//! devices fly boustrophedon coverage over their regions, camera batches
//! become per-frame tasks (obstacle avoidance pinned on-board, recognition
//! placed per platform), sightings of ground-truth targets become
//! detections via the real kernels (embeddings + union-find dedup for
//! Scenario B, template OCR for the Treasure Hunt), and the mission ends
//! when the last dependent result lands. Battery is charged for flight,
//! for hovering while waiting on results, for on-board compute, and for
//! radio — which is precisely the accounting that makes distributed
//! execution run out of battery in Scenario B (Sec. 2.3) and makes the
//! slow IaaS backend expensive in Fig. 1.

use std::collections::HashMap;

use hivemind_apps::kernels::dedup::{deduplicate, score, Observation};
use hivemind_apps::kernels::embedding::observe;
use hivemind_apps::kernels::ocr::{parse_instruction, recognize, Instruction, SignImage};
use hivemind_apps::learning::{DetectionQuality, RetrainMode};
use hivemind_apps::scenario::Scenario;
use hivemind_apps::suite::App;
use hivemind_sim::rng::RngForge;
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_swarm::field::{Field, FieldParams};
use hivemind_swarm::geometry::Rect;
use hivemind_swarm::maze::{wall_follower, Maze};
use hivemind_swarm::route::{coverage_lanes, path_length};
use rand::Rng;

use crate::controller::SwarmController;
use crate::dsl::PlacementSite;
use crate::engine::Engine;
use crate::experiment::{assemble, ExperimentConfig, MotionPolicy, TaskTally};
use crate::metrics::{MissionOutcome, Outcome};

/// Seconds per coverage lane turn (deceleration, 180° yaw, realign).
const TURN_SECS: f64 = 3.0;
/// Takeoff / deployment overhead before coverage starts.
const TAKEOFF_SECS: f64 = 10.0;
/// Field area assigned per device, m² (16 drones → a 160 m × 100 m
/// sports complex, matching the testbed scale; simulated swarms keep the
/// per-device workload constant, as the paper scales links and fields
/// proportionally in Sec. 5.6).
const AREA_PER_DEVICE_M2: f64 = 1000.0;

/// The mission field for a swarm of `devices`, at a 1.6:1 aspect ratio.
fn mission_field(devices: u32) -> Rect {
    let area = AREA_PER_DEVICE_M2 * devices as f64;
    let width = (area * 1.6).sqrt();
    Rect::new(0.0, 0.0, width, area / width)
}

/// Embedding observation noise per retraining mode: better-trained
/// recognition models produce tighter embeddings.
fn embedding_sigma(mode: RetrainMode) -> f64 {
    // Per-dimension noise; in the 128-d space two observations of the
    // same person sit ≈ σ·√256 apart, so the 0.8 matching threshold is
    // comfortably met only by the swarm-retrained model.
    match mode {
        RetrainMode::None => 0.060,
        RetrainMode::PerDevice => 0.045,
        RetrainMode::SwarmWide => 0.028,
    }
}

/// Per-sighting item-detection probability per retraining mode.
fn detect_prob(mode: RetrainMode) -> f64 {
    match mode {
        RetrainMode::None => 0.80,
        RetrainMode::PerDevice => 0.90,
        RetrainMode::SwarmWide => 0.98,
    }
}

/// Runs a mission and assembles the outcome.
pub fn run_mission(cfg: &ExperimentConfig, scenario: Scenario) -> Outcome {
    match scenario {
        Scenario::StationaryItems | Scenario::MovingPeople => drone_mission(cfg, scenario),
        Scenario::TreasureHunt => treasure_hunt(cfg),
        Scenario::CarMaze => car_maze(cfg),
    }
}

/// One contiguous stretch of coverage flight over a set of rectangles.
struct Segment {
    /// Seconds from mission start at which the segment begins.
    start_secs: f64,
    /// Segment duration, seconds.
    len_secs: f64,
    /// Area covered during the segment.
    rects: Vec<Rect>,
}

impl Segment {
    /// Frame-batch index range `[lo, hi)` of this segment (batch `b`
    /// captures at `TAKEOFF_SECS + b`).
    fn batch_range(&self) -> (usize, usize) {
        let lo = (self.start_secs - TAKEOFF_SECS).max(0.0).floor() as usize;
        let hi = (self.start_secs + self.len_secs - TAKEOFF_SECS)
            .max(0.0)
            .floor() as usize;
        (lo, hi.max(lo))
    }
}

/// Boustrophedon coverage time over a set of rectangles.
fn coverage_secs(rects: &[Rect], footprint_w: f64, speed: f64) -> f64 {
    rects
        .iter()
        .map(|r| {
            let lanes = coverage_lanes(r, footprint_w);
            let turns = (lanes.len() / 2).saturating_sub(1) as f64;
            path_length(&lanes) / speed + turns * TURN_SECS
        })
        .sum()
}

/// A device's flight plan: `passes` sweeps of its own region, then one
/// extra sweep over any area inherited from failed neighbours (Fig. 10).
fn device_segments(
    own: Rect,
    inherited: &[Rect],
    passes: u32,
    footprint_w: f64,
    speed: f64,
) -> Vec<Segment> {
    let own_len = coverage_secs(&[own], footprint_w, speed);
    let mut segments = Vec::new();
    let mut t = TAKEOFF_SECS;
    for _ in 0..passes {
        segments.push(Segment {
            start_secs: t,
            len_secs: own_len,
            rects: vec![own],
        });
        t += own_len;
    }
    if !inherited.is_empty() {
        let len = coverage_secs(inherited, footprint_w, speed);
        segments.push(Segment {
            start_secs: t,
            len_secs: len,
            rects: inherited.to_vec(),
        });
    }
    segments
}

/// Mission frame batches carry the full camera stream: 8 fps x 2 MB
/// frames = 16 MB per one-second batch, 8x the single-app benchmarks'
/// modest-load operating point (Sec. 2.2 runs those "not at max load").
/// This is what congests the centralized platforms' uplinks and data
/// plane during missions (Fig. 1) while HiveMind's on-device filtering
/// keeps its share under capacity.
const CAMERA_STREAM_SCALE: f64 = 8.0;

fn drone_mission(cfg: &ExperimentConfig, scenario: Scenario) -> Outcome {
    let forge = RngForge::new(cfg.seed).child("mission");
    let mut rng = forge.stream("sightings");
    let mut engine_cfg = cfg.engine_config();
    // rate_scale models higher frame rates (16/32 fps in Fig. 17a): more
    // bytes per one-second batch.
    engine_cfg.input_scale *= CAMERA_STREAM_SCALE * cfg.rate_scale;
    let mut engine = Engine::new(engine_cfg);
    // The user's DSL task graph goes through the Fig. 8 synthesis pass and
    // the resulting placement is pinned on the engine (for non-hybrid
    // platforms this degenerates to the platform's forced placement, with
    // `Place` pins honored).
    for (app, site) in crate::programs::synthesized_placements(scenario, cfg.platform) {
        engine.pin_placement(app, site);
    }
    // Obstacle avoidance always runs on-board, on every platform
    // (Sec. 2.1: catastrophic failure avoidance).
    engine.pin_placement(App::ObstacleAvoidance, PlacementSite::Edge);
    if !cfg.platform.is_distributed() {
        // Deduplication aggregates the whole swarm's output at the
        // backend.
        engine.pin_placement(App::PeopleDedup, PlacementSite::Cloud);
    }

    let recognition_app = match scenario {
        Scenario::StationaryItems => App::TreeRecognition,
        _ => App::FaceRecognition,
    };
    let passes: u32 = match scenario {
        // People move, so the swarm sweeps the field repeatedly.
        Scenario::MovingPeople => 3,
        _ => 1,
    };
    let bounds = mission_field(cfg.devices);
    let field_params = match scenario {
        Scenario::StationaryItems => FieldParams {
            bounds,
            ..FieldParams::scenario_a()
        },
        _ => FieldParams {
            bounds,
            ..FieldParams::scenario_b()
        },
    };
    let mut field = Field::generate(field_params, forge.child("world"));
    let mut controller = SwarmController::new(bounds, cfg.devices);
    let profile = cfg.device_profile();

    // --- Device failures (Sec. 4.6 / Fig. 10): the controller declares a
    // device dead 3 s after its heartbeats stop and repartitions its area
    // among live neighbours, who fly an extra sweep over the inherited
    // strips after finishing their own.
    let mut fail_secs: Vec<Option<f64>> = vec![None; cfg.devices as usize];
    let mut heir_strips: Vec<(u32, Rect)> = Vec::new();
    let mut failures = cfg.plan.device_failures.clone();
    // Stochastic MTBF failures ride alongside the scripted ones. The
    // draws come from the dedicated fault lane of the seed chain (one
    // indexed stream per device), so enabling them never reshuffles the
    // mission's sighting/world randomness.
    if let Some(mtbf) = cfg.plan.faults.devices.mtbf_secs {
        let fault_forge = RngForge::new(cfg.seed).child("faults");
        let horizon = scenario.mission_timeout().as_secs_f64();
        for dev in 0..cfg.devices {
            let mut frng = fault_forge.indexed_stream("device-mtbf", dev as u64);
            let u: f64 = frng.gen();
            let fail_at = -mtbf * (1.0 - u).ln();
            if fail_at < horizon {
                failures.push((fail_at, dev));
            }
        }
    }
    failures.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // (failed device, failure instant, heirs inheriting its area).
    let mut fail_records: Vec<(u32, f64, Vec<u32>)> = Vec::new();
    for (at, dev) in failures {
        if dev < cfg.devices && fail_secs[dev as usize].is_none() && controller.alive_count() > 1 {
            let before = heir_strips.len();
            // A fault storm can leave no survivors mid-loop; degrade
            // gracefully instead of aborting the run.
            let Ok(extra) = controller.try_force_fail(dev) else {
                continue;
            };
            fail_secs[dev as usize] = Some(at.max(0.0));
            heir_strips.extend(extra);
            let heirs = heir_strips[before..].iter().map(|&(h, _)| h).collect();
            fail_records.push((dev, at.max(0.0), heirs));
        }
    }

    // --- Phase 0: route creation (one planning task per device). ---
    for dev in 0..cfg.devices {
        engine.submit_task(SimTime::ZERO, dev, App::Maze, 0);
    }

    // --- Flight + per-frame tasks. ---
    // One past the last recognition batch's task id; sighting bookkeeping.
    let mut batch_end = 0usize;
    let mut item_sightings: Vec<(u32, u32)> = Vec::new(); // (task, item)
    let mut people_sightings: Vec<(u32, u32, u32)> = Vec::new(); // (task, person, device)
    let mut flight_ends: Vec<SimTime> = Vec::new();

    let mut plans: Vec<Vec<Segment>> = Vec::new();
    for dev in 0..cfg.devices {
        let assignment = controller.assignment_of(dev);
        let (own, inherited) = assignment.split_first().expect("assignment non-empty");
        let segments = device_segments(
            *own,
            inherited,
            passes,
            profile.camera.footprint_w,
            profile.speed,
        );
        let planned_end = segments
            .last()
            .map(|s| s.start_secs + s.len_secs)
            .unwrap_or(TAKEOFF_SECS);
        let end = fail_secs[dev as usize]
            .unwrap_or(planned_end)
            .min(planned_end);
        flight_ends.push(SimTime::ZERO + SimDuration::from_secs_f64(end));
        plans.push(segments);
    }

    // Recovery bookkeeping: each failure is detected after the 3 s
    // heartbeat window and counts as recovered once every heir finishes
    // the extra sweep that re-covers the dead device's area.
    let detection = hivemind_sim::faults::DETECTION_WINDOW;
    for (dev, at, heirs) in &fail_records {
        let recovered_secs = heirs
            .iter()
            .filter_map(|&h| plans[h as usize].last().map(|s| s.start_secs + s.len_secs))
            .fold(at + detection.as_secs_f64(), f64::max);
        engine.note_device_failure(*dev, *at, recovered_secs);
    }
    // Controller failover: the swarm controller's backup takes over after
    // the detection window (the cluster-side admission stall and ledger
    // entry are wired by the engine from the same plan).
    if let Some(at) = cfg.plan.faults.devices.controller_failover_at_secs {
        let _ = controller.fail_primary(
            SimTime::ZERO + SimDuration::from_secs_f64(at),
            hivemind_sim::faults::CONTROLLER_TAKEOVER,
        );
    }
    // Disconnected operation: with the disconnect plane armed, devices
    // beat once per second and the controller runs its failure detector
    // on the beat stream. Beats raised inside a partition window never
    // reach the controller (the device buffers a summary instead — the
    // engine side of this plane), so at every heal the reconnect
    // reconciliation re-arms live devices' leases before the next check;
    // without it the detector would read partition silence as fleet-wide
    // death and double-assign every strip. The whole loop is a pure
    // function of the fault plan — no RNG — and is skipped entirely when
    // the plane is inert.
    if engine.disconnect_armed() {
        let net = &cfg.plan.faults.net;
        let heals = net.heal_instants();
        let mut next_heal = 0;
        let horizon = scenario.mission_timeout().as_secs_f64() as u64;
        for sec in 0..=horizon {
            let t_secs = sec as f64;
            while next_heal < heals.len() && heals[next_heal] <= t_secs {
                let heal = SimTime::ZERO + SimDuration::from_secs_f64(heals[next_heal]);
                let rearmed = controller.reconcile_reconnect(heal);
                engine.note_reconnect_rearm(rearmed);
                next_heal += 1;
            }
            if net.partition_until(t_secs).is_some() {
                continue;
            }
            let now = SimTime::ZERO + SimDuration::from_secs_f64(t_secs);
            for dev in 0..cfg.devices {
                if fail_secs[dev as usize].is_none_or(|f| t_secs < f) {
                    let _ = controller.try_heartbeat(dev, now);
                }
            }
            let _ = controller.check_failures(now);
        }
    }

    // One frame batch per second of flight; a failed device stops
    // producing batches at its failure instant (`None` entries keep the
    // batch indexing aligned with the untruncated plan).
    let mut batch_lists: Vec<Vec<Option<u32>>> = Vec::with_capacity(cfg.devices as usize);
    for dev in 0..cfg.devices {
        let planned_end = plans[dev as usize]
            .last()
            .map(|s| s.start_secs + s.len_secs)
            .unwrap_or(TAKEOFF_SECS);
        let cutoff = fail_secs[dev as usize].unwrap_or(f64::INFINITY);
        let batches = (planned_end - TAKEOFF_SECS).max(1.0).floor() as u64;
        let mut batch_of_task: Vec<Option<u32>> = Vec::with_capacity(batches as usize);
        for b in 0..batches {
            let t_secs = TAKEOFF_SECS + b as f64;
            if t_secs >= cutoff {
                batch_of_task.push(None);
                continue;
            }
            let t = SimTime::ZERO + SimDuration::from_secs_f64(t_secs);
            engine.submit_task(t, dev, App::ObstacleAvoidance, 1);
            let task = engine.submit_task(t, dev, recognition_app, 2);
            batch_of_task.push(Some(task));
            batch_end = task as usize + 1;
        }
        batch_lists.push(batch_of_task);
    }

    // Draws a batch task uniformly within a segment, if any was produced.
    let draw_in =
        |rng: &mut rand::rngs::SmallRng, list: &[Option<u32>], seg: &Segment| -> Option<u32> {
            let (lo, hi) = seg.batch_range();
            let hi = hi.min(list.len());
            if lo >= hi {
                return None;
            }
            list[rng.gen_range(lo..hi)]
        };

    match scenario {
        Scenario::StationaryItems => {
            for dev in 0..cfg.devices {
                let own = controller.region_of(dev);
                let Some(first) = plans[dev as usize].first() else {
                    continue;
                };
                for item in field.items_in(&own) {
                    match draw_in(&mut rng, &batch_lists[dev as usize], first) {
                        Some(task) => item_sightings.push((task, item.id)),
                        None => {
                            // The owner died before photographing this
                            // item; the heir covering its strip picks it
                            // up during the inherited sweep.
                            if let Some(&(heir, _)) = heir_strips
                                .iter()
                                .find(|(_, strip)| strip.contains(item.pos))
                            {
                                if let Some(extra) = plans[heir as usize].last() {
                                    if let Some(task) =
                                        draw_in(&mut rng, &batch_lists[heir as usize], extra)
                                    {
                                        item_sightings.push((task, item.id));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        _ => {
            // People: each sweep photographs whoever is inside the swept
            // area at the sweep midpoint. The world advances strictly
            // chronologically, so sampling events are sorted globally.
            let mut samplings: Vec<(SimTime, u32, usize)> = Vec::new(); // (mid, dev, seg)
            for dev in 0..cfg.devices {
                let cutoff = fail_secs[dev as usize].unwrap_or(f64::INFINITY);
                for (i, seg) in plans[dev as usize].iter().enumerate() {
                    let mid = seg.start_secs + seg.len_secs / 2.0;
                    if mid < cutoff {
                        samplings.push((SimTime::ZERO + SimDuration::from_secs_f64(mid), dev, i));
                    }
                }
            }
            samplings.sort_by_key(|&(t, dev, i)| (t, dev, i));
            for (mid, dev, i) in samplings {
                field.advance_people(mid);
                let seg = &plans[dev as usize][i];
                for rect in &seg.rects {
                    for person in field.people_in(rect) {
                        if let Some(task) = draw_in(&mut rng, &batch_lists[dev as usize], seg) {
                            people_sightings.push((task, person, dev));
                        }
                    }
                }
            }
        }
    }

    // The flight plans and per-device batch lists only served to draw the
    // sightings; a 4,096-device fleet's batch lists alone hold ~4 MB.
    drop(plans);
    drop(batch_lists);

    // --- Run the per-frame pipeline to completion. ---
    // Room for every submitted task, plus Scenario B's dedup task.
    let mut tally = TaskTally::new(cfg, engine.submitted() as usize + 1);
    // Whether each task id up to the last batch finished (has a record);
    // only batch ids are ever looked up.
    let mut rec_done = vec![false; batch_end];
    engine.run_until_with(SimTime::MAX, |r| {
        if let Some(done) = rec_done.get_mut(r.task as usize) {
            *done = true;
        }
        tally.record(&r);
    });

    // --- Scenario-specific aggregation. ---
    let targets_found;
    let detection;
    let mut mission_end = tally.end();

    match scenario {
        Scenario::StationaryItems => {
            let mut found: Vec<u32> = Vec::new();
            for &(task, item) in &item_sightings {
                if rec_done[task as usize]
                    && rng.gen::<f64>() < detect_prob(cfg.retrain)
                    && !found.contains(&item)
                {
                    found.push(item);
                }
            }
            targets_found = found.len() as u32;
            let total = scenario.target_count() as f64;
            detection = Some(DetectionQuality {
                correct_pct: 100.0 * targets_found as f64 / total,
                false_negative_pct: 100.0 * (total - targets_found as f64) / total,
                false_positive_pct: 0.0,
            });
        }
        _ => {
            // Synchronization barrier, then deduplication at the backend.
            let sigma = embedding_sigma(cfg.retrain);
            let observations: Vec<Observation> = people_sightings
                .iter()
                .filter(|&&(task, _, _)| rec_done[task as usize])
                .map(|&(_, person, device)| Observation {
                    device,
                    embedding: observe(person, sigma, &mut rng),
                    truth: person,
                })
                .collect();
            let barrier = mission_end;
            let dedup_task = engine.submit_task(barrier, 0, App::PeopleDedup, 3);
            engine.run_until_with(SimTime::MAX, |r| {
                if r.task == dedup_task {
                    mission_end = mission_end.max(r.done);
                }
                tally.record(&r);
            });
            let result = deduplicate(&observations, 0.8);
            targets_found = result.unique_count as u32;
            let (correct, under, over) = score(&observations, &result);
            let denom = (correct + under + over).max(1) as f64;
            detection = Some(DetectionQuality {
                correct_pct: 100.0 * correct as f64 / denom,
                false_negative_pct: 100.0 * under as f64 / denom,
                false_positive_pct: 100.0 * over as f64 / denom,
            });
        }
    }

    // --- Battery: flight, then hover until own results land. ---
    let mut per_device_done: Vec<SimTime> = (0..cfg.devices)
        .map(|dev| flight_ends[dev as usize].max(tally.last_done(dev)))
        .collect();
    // Scenario B keeps everyone airborne until the barrier clears.
    if scenario == Scenario::MovingPeople {
        for d in per_device_done.iter_mut() {
            *d = (*d).max(mission_end);
        }
    }
    // A crashed device draws nothing after its failure instant.
    for dev in 0..cfg.devices {
        if let Some(f) = fail_secs[dev as usize] {
            per_device_done[dev as usize] = SimTime::ZERO + SimDuration::from_secs_f64(f);
        }
    }
    for dev in 0..cfg.devices {
        engine
            .battery_mut(dev)
            .draw_motion(per_device_done[dev as usize].saturating_since(SimTime::ZERO));
    }

    let timeout = scenario.mission_timeout();
    let duration = mission_end.saturating_since(SimTime::ZERO);
    let mission = MissionOutcome {
        completed: duration <= timeout,
        duration_secs: duration.as_secs_f64(),
        targets_found,
        targets_total: scenario.target_count(),
        detection,
    };
    let mut outcome = assemble(cfg, engine, tally, MotionPolicy::PreCharged, mission);
    // Battery death voids completion (the paper's distributed Scenario B).
    if outcome.battery.depleted > 0 {
        outcome.mission.completed = false;
    }
    outcome
}

/// Ground truth instruction chain for a car's treasure hunt.
fn hunt_instructions(rng: &mut impl Rng, panels: u32) -> Vec<String> {
    let dirs = ['N', 'E', 'S', 'W'];
    let mut out: Vec<String> = (0..panels - 1)
        .map(|_| {
            let d = dirs[rng.gen_range(0..4)];
            let steps = rng.gen_range(1..9);
            format!("{d}{steps}")
        })
        .collect();
    out.push("G".to_string());
    out
}

fn treasure_hunt(cfg: &ExperimentConfig) -> Outcome {
    const PANELS: u32 = 8;
    const PANEL_DISTANCE_M: f64 = 25.0;
    const MAX_ATTEMPTS: u32 = 3;

    let forge = RngForge::new(cfg.seed).child("hunt");
    let mut engine = Engine::new(cfg.engine_config());
    let profile = cfg.device_profile();
    let travel = SimDuration::from_secs_f64(PANEL_DISTANCE_M / profile.speed);

    struct CarState {
        panel: u32,
        attempts: u32,
        done: Option<SimTime>,
        instructions: Vec<String>,
        rng: rand::rngs::SmallRng,
        travel_time: SimDuration,
        wait_time: SimDuration,
    }
    let mut cars: Vec<CarState> = (0..cfg.devices)
        .map(|d| {
            let mut rng = forge.indexed_stream("car", d as u64);
            let instructions = hunt_instructions(&mut rng, PANELS);
            CarState {
                panel: 0,
                attempts: 0,
                done: None,
                instructions,
                rng,
                travel_time: SimDuration::ZERO,
                wait_time: SimDuration::ZERO,
            }
        })
        .collect();

    // task id → car.
    let mut task_car: HashMap<u32, u32> = HashMap::new();
    let mut tally = TaskTally::new(cfg, 0);

    // Every car drives to its first panel, then photographs it.
    for (d, car) in cars.iter_mut().enumerate() {
        car.travel_time += travel;
        let t = SimTime::ZERO + travel;
        let task = engine.submit_task(t, d as u32, App::TextRecognition, 0);
        task_car.insert(task, d as u32);
    }

    loop {
        let records = engine.run_until_record();
        if records.is_empty() {
            break;
        }
        for r in records {
            let Some(&car_id) = task_car.get(&r.task) else {
                tally.record(&r);
                continue;
            };
            let car = &mut cars[car_id as usize];
            car.wait_time += r.latency();
            // Semantic OCR: photograph the panel, recognize, parse.
            let truth = car.instructions[car.panel as usize].clone();
            let img = SignImage::render(&truth).with_noise(0.06, &mut car.rng);
            let read = recognize(&img);
            let parsed = parse_instruction(&read);
            let correct = parsed.is_some() && read == truth;
            let now = r.done;
            tally.record(&r);
            if correct {
                car.attempts = 0;
                match parsed.expect("checked above") {
                    Instruction::Goal => {
                        car.done = Some(now);
                        continue;
                    }
                    Instruction::Move { .. } => {
                        car.panel += 1;
                        car.travel_time += travel;
                        let t = now + travel;
                        let task = engine.submit_task(t, car_id, App::TextRecognition, 0);
                        task_car.insert(task, car_id);
                    }
                }
            } else {
                car.attempts += 1;
                if car.attempts >= MAX_ATTEMPTS {
                    // Give up on reading; proceed using dead reckoning.
                    car.attempts = 0;
                    car.panel += 1;
                    if car.panel >= PANELS {
                        car.done = Some(now);
                        continue;
                    }
                    car.travel_time += travel;
                    let task = engine.submit_task(now + travel, car_id, App::TextRecognition, 0);
                    task_car.insert(task, car_id);
                } else {
                    // Re-photograph after a short repositioning.
                    let task = engine.submit_task(
                        now + SimDuration::from_secs(2),
                        car_id,
                        App::TextRecognition,
                        0,
                    );
                    task_car.insert(task, car_id);
                }
            }
        }
    }

    let mut mission_end = SimTime::ZERO;
    let mut reached = 0;
    for (d, car) in cars.iter().enumerate() {
        let end = car.done.unwrap_or(mission_end);
        mission_end = mission_end.max(end);
        if car.done.is_some() {
            reached += 1;
        }
        let b = engine.battery_mut(d as u32);
        b.draw_motion(car.travel_time);
        b.draw_idle(car.wait_time);
    }
    let mission = MissionOutcome {
        completed: reached == cfg.devices,
        duration_secs: mission_end.saturating_since(SimTime::ZERO).as_secs_f64(),
        targets_found: reached,
        targets_total: cfg.devices,
        detection: None,
    };
    assemble(cfg, engine, tally, MotionPolicy::PreCharged, mission)
}

fn car_maze(cfg: &ExperimentConfig) -> Outcome {
    const MAZE_W: u32 = 12;
    const MAZE_H: u32 = 12;
    const CELL_M: f64 = 2.0;

    let forge = RngForge::new(cfg.seed).child("car-maze");
    let mut engine = Engine::new(cfg.engine_config());
    engine.pin_placement(App::ObstacleAvoidance, PlacementSite::Edge);
    let profile = cfg.device_profile();
    let step_travel = SimDuration::from_secs_f64(CELL_M / profile.speed);

    // Each car solves its own (independent, seeded) maze; its physical
    // path is the wall-follower traversal, and every step is gated on a
    // navigation-decision task.
    struct CarState {
        steps_left: usize,
        done: Option<SimTime>,
        travel_time: SimDuration,
        wait_time: SimDuration,
    }
    let mut cars: Vec<CarState> = (0..cfg.devices)
        .map(|d| {
            let maze = Maze::generate(MAZE_W, MAZE_H, forge.child(&format!("maze{d}")));
            let t = wall_follower(&maze);
            assert!(t.reached, "wall follower must solve a perfect maze");
            CarState {
                steps_left: t.steps(),
                done: None,
                travel_time: SimDuration::ZERO,
                wait_time: SimDuration::ZERO,
            }
        })
        .collect();

    let mut task_car: HashMap<u32, u32> = HashMap::new();
    let mut tally = TaskTally::new(cfg, 0);
    for d in 0..cfg.devices {
        let task = engine.submit_task(SimTime::ZERO, d, App::Maze, 0);
        task_car.insert(task, d);
    }
    loop {
        let records = engine.run_until_record();
        if records.is_empty() {
            break;
        }
        for r in records {
            let Some(&car_id) = task_car.get(&r.task) else {
                tally.record(&r);
                continue;
            };
            let car = &mut cars[car_id as usize];
            car.wait_time += r.latency();
            let now = r.done;
            tally.record(&r);
            if car.steps_left == 0 {
                car.done = Some(now);
                continue;
            }
            car.steps_left -= 1;
            car.travel_time += step_travel;
            // Every few steps the camera also checks for obstacles.
            if car.steps_left.is_multiple_of(5) {
                engine.submit_task(now + step_travel, car_id, App::ObstacleAvoidance, 1);
            }
            let task = engine.submit_task(now + step_travel, car_id, App::Maze, 0);
            task_car.insert(task, car_id);
        }
    }

    let mut mission_end = SimTime::ZERO;
    let mut solved = 0;
    for (d, car) in cars.iter().enumerate() {
        if let Some(end) = car.done {
            mission_end = mission_end.max(end);
            solved += 1;
        }
        let b = engine.battery_mut(d as u32);
        b.draw_motion(car.travel_time);
        b.draw_idle(car.wait_time);
    }
    let mission = MissionOutcome {
        completed: solved == cfg.devices,
        duration_secs: mission_end.saturating_since(SimTime::ZERO).as_secs_f64(),
        targets_found: solved,
        targets_total: cfg.devices,
        detection: None,
    };
    assemble(cfg, engine, tally, MotionPolicy::PreCharged, mission)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, RunPlan};
    use crate::platform::Platform;

    fn mission(scenario: Scenario, platform: Platform) -> Outcome {
        Experiment::new(
            ExperimentConfig::scenario(scenario)
                .platform(platform)
                .seed(11),
        )
        .run()
    }

    #[test]
    fn scenario_a_finds_most_items_on_hivemind() {
        let o = mission(Scenario::StationaryItems, Platform::HiveMind);
        assert!(o.mission.completed);
        assert!(
            o.mission.targets_found >= 13,
            "found {}/15",
            o.mission.targets_found
        );
        assert!(o.mission.duration_secs > 30.0 && o.mission.duration_secs < 600.0);
        assert!(o.battery.mean_pct > 5.0);
    }

    #[test]
    fn scenario_b_distributed_depletes_batteries() {
        let o = mission(Scenario::MovingPeople, Platform::DistributedEdge);
        assert!(
            !o.mission.completed,
            "on-board recognition must kill the batteries (Sec. 2.3)"
        );
        assert!(o.battery.depleted > 0);
    }

    #[test]
    fn scenario_b_hivemind_completes_and_counts_people() {
        let o = mission(Scenario::MovingPeople, Platform::HiveMind);
        assert!(o.mission.completed);
        let found = o.mission.targets_found;
        assert!(
            (20..=30).contains(&found),
            "dedup count should be near 25, got {found}"
        );
        let q = o.mission.detection.expect("scenario B scores detection");
        assert!(q.correct_pct > 70.0, "quality {q:?}");
    }

    #[test]
    fn hivemind_beats_centralized_iaas_end_to_end() {
        let hm = mission(Scenario::StationaryItems, Platform::HiveMind);
        let iaas = mission(Scenario::StationaryItems, Platform::CentralizedIaaS);
        assert!(
            hm.mission.duration_secs < iaas.mission.duration_secs,
            "HiveMind {} vs IaaS {}",
            hm.mission.duration_secs,
            iaas.mission.duration_secs
        );
        assert!(
            hm.battery.mean_pct < iaas.battery.mean_pct,
            "HiveMind battery {} vs IaaS {}",
            hm.battery.mean_pct,
            iaas.battery.mean_pct
        );
    }

    #[test]
    fn treasure_hunt_cars_reach_goal() {
        let o = mission(Scenario::TreasureHunt, Platform::HiveMind);
        assert!(o.mission.completed);
        assert_eq!(o.mission.targets_found, 14);
        assert!(o.mission.duration_secs > 100.0, "driving takes minutes");
    }

    #[test]
    fn car_maze_solves_all() {
        let o = mission(Scenario::CarMaze, Platform::HiveMind);
        assert!(o.mission.completed);
        assert_eq!(o.mission.targets_found, 14);
    }

    #[test]
    fn car_missions_prefer_hivemind_over_distributed() {
        let hm = mission(Scenario::TreasureHunt, Platform::HiveMind);
        let dist = mission(Scenario::TreasureHunt, Platform::DistributedEdge);
        assert!(
            hm.mission.duration_secs < dist.mission.duration_secs,
            "OCR offload must pay off: {} vs {}",
            hm.mission.duration_secs,
            dist.mission.duration_secs
        );
    }

    #[test]
    fn retraining_improves_item_detection() {
        let none = Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(Platform::HiveMind)
                .retrain(RetrainMode::None)
                .seed(4),
        )
        .run();
        let swarm = Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(Platform::HiveMind)
                .retrain(RetrainMode::SwarmWide)
                .seed(4),
        )
        .run();
        assert!(swarm.mission.targets_found >= none.mission.targets_found);
    }

    #[test]
    fn drone_failure_is_absorbed_by_neighbors() {
        let healthy = Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(Platform::HiveMind)
                .seed(11),
        )
        .run();
        let failed = Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(Platform::HiveMind)
                .plan(RunPlan::new().fail_device(20.0, 5))
                .seed(11),
        )
        .run();
        assert!(failed.mission.completed, "the swarm absorbs one failure");
        assert!(
            failed.mission.targets_found >= healthy.mission.targets_found.saturating_sub(2),
            "inherited sweeps recover the dead drone's items: {} vs {}",
            failed.mission.targets_found,
            healthy.mission.targets_found
        );
        assert!(
            failed.mission.duration_secs > healthy.mission.duration_secs,
            "the extra sweep extends the mission: {} vs {}",
            failed.mission.duration_secs,
            healthy.mission.duration_secs
        );
    }

    #[test]
    fn failed_device_stops_consuming_battery() {
        let o = Experiment::new(
            ExperimentConfig::scenario(Scenario::StationaryItems)
                .platform(Platform::HiveMind)
                .plan(RunPlan::new().fail_device(5.0, 0))
                .seed(2),
        )
        .run();
        // Device 0 crashed at t = 5 s: ~450 J of flight = ~1% of its pack,
        // far below every survivor (who flies the whole mission).
        assert!(o.mission.completed);
        assert!(o.battery.max_pct > 10.0, "survivors fly the mission");
    }

    #[test]
    fn scenario_b_survives_a_failure_too() {
        let o = Experiment::new(
            ExperimentConfig::scenario(Scenario::MovingPeople)
                .platform(Platform::HiveMind)
                .plan(RunPlan::new().fail_device(30.0, 7))
                .seed(11),
        )
        .run();
        assert!(o.mission.completed);
        let found = o.mission.targets_found;
        assert!((18..=30).contains(&found), "count {found} near 25");
    }

    #[test]
    fn mission_determinism() {
        let a = mission(Scenario::StationaryItems, Platform::CentralizedFaaS);
        let b = mission(Scenario::StationaryItems, Platform::CentralizedFaaS);
        assert_eq!(a.mission.duration_secs, b.mission.duration_secs);
        assert_eq!(a.mission.targets_found, b.mission.targets_found);
    }
}
