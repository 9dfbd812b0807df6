//! Property-based tests for the swarm substrate.

use hivemind_sim::rng::RngForge;
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_swarm::battery::{Battery, BatteryParams};
use hivemind_swarm::failover::{try_repartition, FailoverError, HeartbeatTracker};
use hivemind_swarm::field::{Field, FieldParams};
use hivemind_swarm::geometry::{partition_field, Rect};
use hivemind_swarm::route::{coverage_lanes, path_length};
use proptest::prelude::*;

proptest! {
    /// Coverage lanes always span the region's full height per lane, and
    /// lane spacing never exceeds the footprint width.
    #[test]
    fn coverage_lanes_cover_the_region(
        w in 1.0f64..500.0,
        h in 1.0f64..500.0,
        footprint in 0.5f64..20.0,
    ) {
        let region = Rect::new(0.0, 0.0, w, h);
        let lanes = coverage_lanes(&region, footprint);
        prop_assert!(lanes.len() >= 2);
        prop_assert_eq!(lanes.len() % 2, 0);
        let n_lanes = lanes.len() / 2;
        let spacing = w / n_lanes as f64;
        prop_assert!(spacing <= footprint + 1e-9, "spacing {spacing} > footprint");
        for pair in lanes.chunks(2) {
            prop_assert!((pair[0].x - pair[1].x).abs() < 1e-9, "lanes are vertical");
            prop_assert!(((pair[0].y - pair[1].y).abs() - h).abs() < 1e-9);
        }
        prop_assert!(path_length(&lanes) >= h * n_lanes as f64);
    }

    /// Battery accounting is additive and monotone under any activity mix.
    #[test]
    fn battery_is_additive(
        activities in prop::collection::vec((0u8..4, 0u64..10_000), 1..50),
    ) {
        let mut b = Battery::new(BatteryParams::drone());
        let mut last = 0.0;
        for &(kind, amount) in &activities {
            match kind {
                0 => b.draw_motion(SimDuration::from_millis(amount)),
                1 => b.draw_idle(SimDuration::from_millis(amount)),
                2 => b.draw_compute(SimDuration::from_millis(amount)),
                _ => b.draw_radio(amount * 1000),
            }
            prop_assert!(b.consumed_j() >= last);
            last = b.consumed_j();
        }
        let (m, c, r, i) = b.energy_split();
        prop_assert!((m + c + r + i - b.consumed_j()).abs() < 1e-6);
        prop_assert!(b.consumed_percent() <= 100.0);
    }

    /// People never leave the field, whatever the advance pattern.
    #[test]
    fn people_stay_in_bounds(
        steps in prop::collection::vec(1u64..120, 1..12),
        seed in 0u64..200,
    ) {
        let mut field = Field::generate(FieldParams::scenario_b(), RngForge::new(seed));
        let mut t = 0;
        for &dt in &steps {
            t += dt;
            field.advance_people(hivemind_sim::time::SimTime::from_secs(t));
            let b = field.bounds();
            for p in field.people() {
                prop_assert!(
                    p.pos.x >= b.x0 - 1e-9
                        && p.pos.x <= b.x1 + 1e-9
                        && p.pos.y >= b.y0 - 1e-9
                        && p.pos.y <= b.y1 + 1e-9,
                    "person at {:?} outside {:?}",
                    p.pos,
                    b
                );
            }
        }
    }
}

proptest! {
    /// Repartitioning after a failure hands the failed device's area to
    /// live heirs, conserved exactly — whatever subset of the fleet is
    /// still alive.
    #[test]
    fn repartition_conserves_the_lost_area(
        n in 2u32..40,
        failed in 0u32..40,
        dead_mask in prop::collection::vec(any::<bool>(), 40..41),
    ) {
        let failed = (failed % n) as usize;
        let field = Rect::new(0.0, 0.0, 400.0, 300.0);
        let regions = partition_field(&field, n);
        let mut alive: Vec<bool> = (0..n as usize).map(|i| !dead_mask[i]).collect();
        alive[failed] = false;
        match try_repartition(&regions, &alive, failed) {
            Ok(extra) => {
                prop_assert!(!extra.is_empty());
                let total: f64 = extra.iter().map(|(_, r)| r.area()).sum();
                let lost = regions[failed].area();
                prop_assert!((total - lost).abs() < 1e-6 * lost.max(1.0));
                for &(heir, _) in &extra {
                    prop_assert!(heir != failed, "the dead device inherits nothing");
                    prop_assert!(alive[heir], "heirs must be alive");
                }
            }
            Err(e) => {
                // The only legitimate failure is a dead fleet.
                prop_assert!(alive.iter().all(|&a| !a), "unexpected error: {e}");
                prop_assert_eq!(e, FailoverError::NoSurvivors);
            }
        }
    }

    /// The fallible heartbeat API accepts exactly the ids the tracker was
    /// sized for and rejects the rest without panicking.
    #[test]
    fn heartbeats_reject_out_of_range_ids(n in 1u32..50, device in 0u32..100) {
        let mut hb = HeartbeatTracker::new(n);
        let r = hb.try_beat(device, SimTime::from_secs(1));
        if device < n {
            prop_assert!(r.is_ok());
            prop_assert_eq!(hb.last_beat(device), Some(SimTime::from_secs(1)));
        } else {
            prop_assert_eq!(
                r,
                Err(FailoverError::DeviceOutOfRange { device, fleet: n })
            );
        }
    }
}
