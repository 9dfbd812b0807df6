//! Edge device profiles and the engine's per-shard battery blocks.
//!
//! A device profile couples a motion model (speed), a sensing model (camera frame
//! rate, bytes per frame, ground footprint), a compute model (how much
//! slower than a server core it executes the benchmark kernels), and a
//! battery. The drone profile matches Sec. 2.1: 4 m/s, 8 fps, 2 MB
//! frames, 6.7 m × 8.75 m footprint, 1 GHz Cortex-A8 with 1 core; the
//! rover profile matches Sec. 5.5 (slower vehicle, Raspberry Pi compute,
//! much larger battery margin).

use crate::battery::{Battery, BatteryParams};

/// A contiguous block of per-device batteries for one shard's device
/// range.
///
/// The engine's shard inner loop touches battery state on every capture,
/// completion, and radio transfer; keeping the cells in one dense array
/// indexed by `device - first_dev` (the [`ShardMap`] block offset) turns
/// that access into a cache-line stream instead of a pointer chase
/// through per-device structs. Cells are plain [`Battery`] values —
/// the block is the struct-of-arrays layout, not a new semantics.
///
/// [`ShardMap`]: hivemind_sim::shard::ShardMap
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryBlock {
    cells: Vec<Battery>,
}

impl BatteryBlock {
    /// A block of `n` fresh, full batteries sharing one parameter set
    /// (one device class per swarm, as in the paper's fleets).
    pub fn new(params: BatteryParams, n: usize) -> BatteryBlock {
        BatteryBlock {
            cells: vec![Battery::new(params); n],
        }
    }

    /// Number of cells in the block.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The battery at block offset `i` (`device - first_dev`).
    #[inline]
    pub fn cell(&self, i: usize) -> &Battery {
        &self.cells[i]
    }

    /// Mutable access to the battery at block offset `i`.
    #[inline]
    pub fn cell_mut(&mut self, i: usize) -> &mut Battery {
        &mut self.cells[i]
    }

    /// Iterates the cells in device order.
    pub fn iter(&self) -> impl Iterator<Item = &Battery> {
        self.cells.iter()
    }
}

/// Device class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Quadcopter (Parrot AR. Drone 2.0 class).
    Drone,
    /// Terrestrial rover (Raspberry Pi robot car).
    RoverCar,
}

/// Camera/sensing profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Frames captured per second.
    pub fps: f64,
    /// Bytes per frame at the configured resolution.
    pub bytes_per_frame: u64,
    /// Ground footprint width (across-track), meters.
    pub footprint_w: f64,
    /// Ground footprint height (along-track), meters.
    pub footprint_h: f64,
}

impl Camera {
    /// The default drone camera: 8 fps, 2 MB frames, 6.7 m × 8.75 m.
    pub fn drone_default() -> Camera {
        Camera {
            fps: 8.0,
            bytes_per_frame: 2_000_000,
            footprint_w: 6.7,
            footprint_h: 8.75,
        }
    }

    /// Data rate produced, bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.fps * self.bytes_per_frame as f64
    }
}

/// Static capability profile of a device class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Class.
    pub kind: DeviceKind,
    /// Cruise speed, m/s.
    pub speed: f64,
    /// Camera profile.
    pub camera: Camera,
    /// Execution slow-down of this device relative to one cloud core for
    /// compute-heavy kernels (the A8 is ~an order of magnitude slower than
    /// a Xeon core on vision workloads).
    pub compute_slowdown: f64,
    /// On-board CPU cores available for application tasks.
    pub cores: u32,
    /// Battery coefficients.
    pub battery: BatteryParams,
}

impl DeviceProfile {
    /// The paper's drone.
    pub fn drone() -> DeviceProfile {
        DeviceProfile {
            kind: DeviceKind::Drone,
            speed: 4.0,
            camera: Camera::drone_default(),
            compute_slowdown: 10.0,
            cores: 1,
            battery: BatteryParams::drone(),
        }
    }

    /// The paper's robotic car.
    pub fn car() -> DeviceProfile {
        DeviceProfile {
            kind: DeviceKind::RoverCar,
            speed: 1.0,
            camera: Camera {
                fps: 8.0,
                bytes_per_frame: 2_000_000,
                footprint_w: 3.0,
                footprint_h: 3.0,
            },
            compute_slowdown: 4.0,
            cores: 4,
            battery: BatteryParams::car(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::time::SimDuration;

    #[test]
    fn drone_profile_matches_paper_constants() {
        let d = DeviceProfile::drone();
        assert_eq!(d.speed, 4.0);
        assert_eq!(d.camera.fps, 8.0);
        assert_eq!(d.camera.bytes_per_frame, 2_000_000);
        assert!((d.camera.bytes_per_sec() - 16e6).abs() < 1e-6);
        assert!((d.camera.footprint_w - 6.7).abs() < 1e-9);
    }

    #[test]
    fn car_travels_slower_but_computes_faster() {
        let drone = DeviceProfile::drone();
        let car = DeviceProfile::car();
        assert!(car.speed < drone.speed);
        assert!(car.compute_slowdown < drone.compute_slowdown);
        assert!(car.cores > drone.cores);
    }

    #[test]
    fn battery_block_cells_are_independent() {
        let mut block = BatteryBlock::new(BatteryParams::drone(), 4);
        assert_eq!(block.len(), 4);
        assert!(!block.is_empty());
        block.cell_mut(1).draw_motion(SimDuration::from_secs(60));
        block.cell_mut(3).draw_radio(1_000_000);
        assert_eq!(block.cell(0).consumed_j(), 0.0);
        assert!(block.cell(1).consumed_j() > 0.0);
        assert_eq!(block.cell(2).consumed_j(), 0.0);
        let total: f64 = block.iter().map(Battery::consumed_j).sum();
        assert_eq!(
            total,
            block.cell(1).consumed_j() + block.cell(3).consumed_j()
        );
    }
}
