//! Route planning: boustrophedon coverage lanes.
//!
//! Scenario A divides the field among the drones, and each drone sweeps its
//! region (Sec. 2.1). [`coverage_lanes`] is the serpentine sweep a drone
//! flies to photograph an entire region with a camera footprint of
//! 6.7 m × 8.75 m, and [`path_length`] measures it. The paper's A* route
//! planning is charged as a cost profile (the Maze app), not run here.

use crate::geometry::{Point, Rect};

/// Serpentine (boustrophedon) sweep waypoints covering `region` with lanes
/// spaced `lane_width` apart, starting at the south-west corner.
///
/// The returned polyline alternates south→north / north→south passes. The
/// lane count rounds *up* so the footprint always covers the full width.
///
/// # Panics
///
/// Panics if `lane_width <= 0`.
pub fn coverage_lanes(region: &Rect, lane_width: f64) -> Vec<Point> {
    assert!(lane_width > 0.0, "lane width must be positive");
    let lanes = (region.width() / lane_width).ceil().max(1.0) as u32;
    let step = region.width() / lanes as f64;
    let mut points = Vec::with_capacity((lanes as usize + 1) * 2);
    for lane in 0..lanes {
        let x = region.x0 + step * (lane as f64 + 0.5);
        let (from, to) = if lane % 2 == 0 {
            (region.y0, region.y1)
        } else {
            (region.y1, region.y0)
        };
        points.push(Point::new(x, from));
        points.push(Point::new(x, to));
    }
    points
}

/// Total length of a polyline.
pub fn path_length(points: &[Point]) -> f64 {
    points.windows(2).map(|w| w[0].distance(w[1])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_covers_width() {
        let region = Rect::new(0.0, 0.0, 30.0, 80.0);
        let pts = coverage_lanes(&region, 6.7);
        // ceil(30 / 6.7) = 5 lanes → 10 waypoints.
        assert_eq!(pts.len(), 10);
        // Lanes alternate direction.
        assert_eq!(pts[0].y, 0.0);
        assert_eq!(pts[1].y, 80.0);
        assert_eq!(pts[2].y, 80.0);
        // Every x within region.
        assert!(pts.iter().all(|p| p.x > 0.0 && p.x < 30.0));
    }

    #[test]
    fn coverage_length_scales_with_area() {
        let small = coverage_lanes(&Rect::new(0.0, 0.0, 10.0, 40.0), 6.7);
        let large = coverage_lanes(&Rect::new(0.0, 0.0, 40.0, 40.0), 6.7);
        assert!(path_length(&large) > path_length(&small) * 2.0);
    }

    #[test]
    fn path_length_sums_segments() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(3.0, 8.0),
        ];
        assert!((path_length(&pts) - 9.0).abs() < 1e-12);
    }
}
