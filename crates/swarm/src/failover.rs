//! Failure detection and load repartitioning.
//!
//! Every device heartbeats the controller once per second; missing
//! heartbeats for more than 3 s marks it failed (Sec. 4.6). The failed
//! device's remaining area is then "repartitioned equally among its
//! neighboring drones assuming they have sufficient battery" (Fig. 10).

use std::fmt;

use hivemind_sim::faults::DETECTION_WINDOW;
use hivemind_sim::time::SimTime;

use crate::geometry::Rect;

/// Why a failover operation could not proceed.
///
/// Injected fault storms can drive the tracker and repartitioner into
/// states that would otherwise abort the run (a heartbeat from an unknown
/// id, a swarm with no survivors); the tracker and repartitioner surface
/// those as values so the caller can degrade gracefully instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverError {
    /// A device id outside the tracked fleet.
    DeviceOutOfRange {
        /// The offending id.
        device: u32,
        /// Fleet size.
        fleet: u32,
    },
    /// `regions` and `alive` disagree on the fleet size.
    LengthMismatch {
        /// `regions.len()`.
        regions: usize,
        /// `alive.len()`.
        alive: usize,
    },
    /// Every device is dead; there is nobody to absorb the area.
    NoSurvivors,
}

impl fmt::Display for FailoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailoverError::DeviceOutOfRange { device, fleet } => {
                write!(f, "device id out of range: {device} >= fleet of {fleet}")
            }
            FailoverError::LengthMismatch { regions, alive } => {
                write!(f, "regions/alive length mismatch: {regions} vs {alive}")
            }
            FailoverError::NoSurvivors => {
                write!(f, "at least one device must be alive to absorb the area")
            }
        }
    }
}

impl std::error::Error for FailoverError {}

/// Heartbeat bookkeeping for a set of devices.
///
/// # Examples
///
/// ```rust
/// use hivemind_swarm::failover::HeartbeatTracker;
/// use hivemind_sim::time::SimTime;
///
/// let mut hb = HeartbeatTracker::new(3);
/// hb.try_beat(0, SimTime::from_secs(1)).unwrap();
/// hb.try_beat(1, SimTime::from_secs(1)).unwrap();
/// // Device 2 never beat: by t = 4 s it has been silent > 3 s, while
/// // devices 0/1 (last beat t = 1 s) are exactly at the 3 s boundary.
/// assert_eq!(hb.failed_at(SimTime::from_secs(4)), vec![2]);
/// // Everyone who stays silent long enough is eventually declared failed.
/// assert_eq!(hb.failed_at(SimTime::from_secs(10)), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatTracker {
    last_beat: Vec<Option<SimTime>>,
    /// Devices already declared failed (latched).
    declared: Vec<bool>,
}

impl HeartbeatTracker {
    /// Tracks `n` devices with the paper's 3 s timeout.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet.
    pub fn new(n: u32) -> HeartbeatTracker {
        assert!(n > 0, "fleet must contain at least one device");
        HeartbeatTracker {
            last_beat: vec![None; n as usize],
            declared: vec![false; n as usize],
        }
    }

    /// Records a heartbeat from `device` at `now`, rejecting unknown ids
    /// as a value: ids can come from fault-injected sources.
    pub fn try_beat(&mut self, device: u32, now: SimTime) -> Result<(), FailoverError> {
        let fleet = self.last_beat.len() as u32;
        let slot = self
            .last_beat
            .get_mut(device as usize)
            .ok_or(FailoverError::DeviceOutOfRange { device, fleet })?;
        *slot = Some(now);
        Ok(())
    }

    /// Devices considered failed at `now` (silent longer than the
    /// timeout). Once declared, a device stays failed.
    pub fn failed_at(&mut self, now: SimTime) -> Vec<u32> {
        for (i, last) in self.last_beat.iter().enumerate() {
            let reference = last.unwrap_or(SimTime::ZERO);
            if now.saturating_since(reference) > DETECTION_WINDOW {
                self.declared[i] = true;
            }
        }
        self.declared
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// The last recorded heartbeat from `device` (`None` if it never
    /// beat or the id is out of range).
    pub fn last_beat(&self, device: u32) -> Option<SimTime> {
        self.last_beat.get(device as usize).copied().flatten()
    }
}

/// Repartitions a failed device's region among its live neighbours.
///
/// Neighbours are regions sharing an edge with the failed region (the
/// geometric reading of Fig. 10); the failed rect is cut into equal
/// vertical strips, one per neighbour, assigned left-to-right in neighbour
/// order. If no live neighbour exists (pathological), the area goes to the
/// nearest live region by center distance.
///
/// Returns the extra sub-regions as `(device, rect)` pairs; `regions` is
/// not modified (callers usually track "extra assignments" separately from
/// the initial partition). Errors when `failed` is out of range, the
/// slices disagree, or no device survives (e.g. under an injected fault
/// storm that kills the whole fleet).
pub fn try_repartition(
    regions: &[Rect],
    alive: &[bool],
    failed: usize,
) -> Result<Vec<(usize, Rect)>, FailoverError> {
    if failed >= regions.len() {
        return Err(FailoverError::DeviceOutOfRange {
            device: failed as u32,
            fleet: regions.len() as u32,
        });
    }
    try_assign_rect(&regions[failed], regions, alive, failed)
}

/// Assigns an arbitrary rectangle to live devices: the step function
/// shared by [`try_repartition`] (which hands over a failed device's
/// *initial* region) and orphan redistribution (which hands over strips
/// the dead device had *inherited* from earlier failovers).
///
/// Devices whose region shares an edge with `rect` (skipping `exclude`,
/// normally the dead device itself) each receive an equal vertical
/// strip, left-to-right in device order; with no adjacent survivor the
/// whole rect goes to the nearest live region by center distance.
pub fn try_assign_rect(
    rect: &Rect,
    regions: &[Rect],
    alive: &[bool],
    exclude: usize,
) -> Result<Vec<(usize, Rect)>, FailoverError> {
    if regions.len() != alive.len() {
        return Err(FailoverError::LengthMismatch {
            regions: regions.len(),
            alive: alive.len(),
        });
    }
    let mut neighbors: Vec<usize> = regions
        .iter()
        .enumerate()
        .filter(|&(i, r)| i != exclude && alive[i] && r.adjacent(rect))
        .map(|(i, _)| i)
        .collect();
    if neighbors.is_empty() {
        // Fall back to the nearest live region.
        let nearest = regions
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != exclude && alive[i])
            .min_by(|(_, a), (_, b)| {
                a.center()
                    .distance(rect.center())
                    .total_cmp(&b.center().distance(rect.center()))
            })
            .map(|(i, _)| i)
            .ok_or(FailoverError::NoSurvivors)?;
        neighbors.push(nearest);
    }
    let strips = rect.split_vertical(neighbors.len() as u32);
    Ok(neighbors.into_iter().zip(strips).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::partition_field;
    use hivemind_sim::time::SimDuration;

    #[test]
    fn heartbeat_timeout_is_three_seconds() {
        let mut hb = HeartbeatTracker::new(1);
        hb.try_beat(0, SimTime::from_secs(10)).unwrap();
        assert!(hb.failed_at(SimTime::from_secs(13)).is_empty());
        assert_eq!(
            hb.failed_at(SimTime::from_secs(13) + SimDuration::from_millis(1)),
            vec![0]
        );
    }

    #[test]
    fn failure_is_latched() {
        let mut hb = HeartbeatTracker::new(1);
        hb.try_beat(0, SimTime::ZERO).unwrap();
        assert_eq!(hb.failed_at(SimTime::from_secs(10)), vec![0]);
        // A zombie heartbeat does not resurrect it.
        hb.try_beat(0, SimTime::from_secs(10)).unwrap();
        assert_eq!(hb.failed_at(SimTime::from_secs(10)), vec![0]);
    }

    #[test]
    fn repartition_splits_among_neighbors() {
        let field = Rect::new(0.0, 0.0, 120.0, 80.0);
        let regions = partition_field(&field, 16);
        let alive = vec![true; 16];
        // Fail an interior region; the strips must cover its area exactly.
        let failed = 5;
        let extra = try_repartition(&regions, &alive, failed).unwrap();
        assert!(extra.len() >= 2, "interior regions have several neighbours");
        let total: f64 = extra.iter().map(|(_, r)| r.area()).sum();
        assert!((total - regions[failed].area()).abs() < 1e-6);
        for (dev, _) in &extra {
            assert_ne!(*dev, failed);
            assert!(regions[*dev].adjacent(&regions[failed]));
        }
    }

    #[test]
    fn repartition_skips_dead_neighbors() {
        let field = Rect::new(0.0, 0.0, 120.0, 80.0);
        let regions = partition_field(&field, 4);
        let mut alive = vec![true; 4];
        alive[1] = false;
        let extra = try_repartition(&regions, &alive, 0).unwrap();
        assert!(extra.iter().all(|(d, _)| alive[*d]));
    }

    #[test]
    fn repartition_falls_back_to_nearest() {
        // Two regions far apart (non-adjacent).
        let regions = vec![
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(50.0, 0.0, 60.0, 10.0),
        ];
        let alive = vec![true, true];
        let extra = try_repartition(&regions, &alive, 0).unwrap();
        assert_eq!(extra.len(), 1);
        assert_eq!(extra[0].0, 1);
    }

    #[test]
    fn repartition_with_no_survivors_is_an_error() {
        let regions = vec![Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(1.0, 0.0, 2.0, 1.0)];
        assert_eq!(
            try_repartition(&regions, &[true, false], 0),
            Err(FailoverError::NoSurvivors)
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_panics_through_the_infallible_constructor() {
        let _ = HeartbeatTracker::new(0);
    }

    #[test]
    fn last_beat_reports_what_was_recorded() {
        let mut hb = HeartbeatTracker::new(2);
        assert_eq!(hb.last_beat(0), None);
        hb.try_beat(0, SimTime::from_secs(7)).unwrap();
        assert_eq!(hb.last_beat(0), Some(SimTime::from_secs(7)));
        assert_eq!(hb.last_beat(1), None);
        assert_eq!(hb.last_beat(99), None, "out of range reads as never beat");
    }

    #[test]
    fn assign_rect_handles_inherited_strips() {
        // Device 1 dies holding a strip it inherited from device 0's
        // earlier failure; the strip must find a live home even though
        // it is not anyone's initial region.
        let regions = vec![
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(10.0, 0.0, 20.0, 10.0),
            Rect::new(20.0, 0.0, 30.0, 10.0),
        ];
        let alive = vec![false, false, true];
        let orphan = Rect::new(5.0, 0.0, 10.0, 10.0); // half of region 0
        let extra = try_assign_rect(&orphan, &regions, &alive, 1).unwrap();
        let total: f64 = extra.iter().map(|(_, r)| r.area()).sum();
        assert!((total - orphan.area()).abs() < 1e-9);
        assert!(extra.iter().all(|(d, _)| alive[*d]));

        // With nobody left the step reports rather than panicking.
        assert_eq!(
            try_assign_rect(&orphan, &regions, &[false; 3], 1),
            Err(FailoverError::NoSurvivors)
        );
    }

    #[test]
    fn never_beaten_device_fails_from_start_reference() {
        let mut hb = HeartbeatTracker::new(2);
        hb.try_beat(0, SimTime::from_secs(5)).unwrap();
        let failed = hb.failed_at(SimTime::from_secs(5));
        assert_eq!(failed, vec![1], "device 1 was silent since t=0");
    }
}
