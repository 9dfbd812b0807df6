//! Planar geometry for mission planning.

use std::fmt;

/// A point in field coordinates (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate, meters.
    pub x: f64,
    /// North coordinate, meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// An axis-aligned rectangle `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// West edge.
    pub x0: f64,
    /// South edge.
    pub y0: f64,
    /// East edge.
    pub x1: f64,
    /// North edge.
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is inverted.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        assert!(x1 >= x0 && y1 >= y0, "inverted rectangle");
        Rect { x0, y0, x1, y1 }
    }

    /// Width (east–west extent).
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height (north–south extent).
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area in m².
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Whether `p` lies inside (half-open).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// Whether two rectangles share an edge segment (neighbourhood test
    /// for load repartitioning).
    pub fn adjacent(&self, other: &Rect) -> bool {
        let eps = 1e-9;
        let x_touch = (self.x1 - other.x0).abs() < eps || (other.x1 - self.x0).abs() < eps;
        let y_overlap = self.y0 < other.y1 - eps && other.y0 < self.y1 - eps;
        let y_touch = (self.y1 - other.y0).abs() < eps || (other.y1 - self.y0).abs() < eps;
        let x_overlap = self.x0 < other.x1 - eps && other.x0 < self.x1 - eps;
        (x_touch && y_overlap) || (y_touch && x_overlap)
    }

    /// Splits into `n` vertical strips of equal width, left to right.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn split_vertical(&self, n: u32) -> Vec<Rect> {
        assert!(n > 0, "cannot split into zero strips");
        let w = self.width() / n as f64;
        (0..n)
            .map(|i| {
                Rect::new(
                    self.x0 + w * i as f64,
                    self.y0,
                    self.x0 + w * (i + 1) as f64,
                    self.y1,
                )
            })
            .collect()
    }
}

/// Partitions a field among `n` devices as near-square grid cells.
///
/// Chooses `rows × cols >= n` with `cols >= rows`, then assigns the first
/// `n` cells; remaining cells are merged into their left neighbour so the
/// whole field stays covered.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```rust
/// use hivemind_swarm::geometry::{partition_field, Rect};
///
/// let field = Rect::new(0.0, 0.0, 120.0, 80.0);
/// let regions = partition_field(&field, 16);
/// assert_eq!(regions.len(), 16);
/// let total: f64 = regions.iter().map(|r| r.area()).sum();
/// assert!((total - field.area()).abs() < 1e-6);
/// ```
pub fn partition_field(field: &Rect, n: u32) -> Vec<Rect> {
    assert!(n > 0, "cannot partition for zero devices");
    // Horizontal bands, each split into columns; the remainder is spread
    // one-extra-column-per-band so every region has area within a factor
    // (rows±1)/rows of the mean — no device inherits a mega-region.
    let rows = ((n as f64).sqrt().floor().max(1.0) as u32).min(n);
    let base_cols = n / rows;
    let extra = n % rows;
    let band_h = field.height() / rows as f64;
    let mut out = Vec::with_capacity(n as usize);
    for r in 0..rows {
        let cols = base_cols + u32::from(r < extra);
        let y0 = field.y0 + band_h * r as f64;
        let band = Rect::new(field.x0, y0, field.x1, y0 + band_h);
        out.extend(band.split_vertical(cols));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_area() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
        let r = Rect::new(0.0, 0.0, 10.0, 5.0);
        assert_eq!(r.area(), 50.0);
        assert_eq!(r.center(), Point::new(5.0, 2.5));
    }

    #[test]
    fn contains_is_half_open() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(!r.contains(Point::new(10.0, 5.0)));
    }

    #[test]
    fn vertical_split_covers_exactly() {
        let r = Rect::new(0.0, 0.0, 12.0, 4.0);
        let strips = r.split_vertical(3);
        assert_eq!(strips.len(), 3);
        assert!(strips.iter().all(|s| (s.area() - 16.0).abs() < 1e-9));
        assert_eq!(strips[0].x1, strips[1].x0);
    }

    #[test]
    fn adjacency() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        let c = Rect::new(2.0, 0.0, 3.0, 1.0);
        let d = Rect::new(0.0, 1.0, 1.0, 2.0);
        assert!(a.adjacent(&b));
        assert!(b.adjacent(&a));
        assert!(!a.adjacent(&c), "corner-distant rects are not neighbours");
        assert!(a.adjacent(&d), "vertical neighbours");
        // Diagonal touch only: not adjacent.
        let e = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!(!a.adjacent(&e));
    }

    #[test]
    fn partition_exact_square_counts() {
        let field = Rect::new(0.0, 0.0, 100.0, 100.0);
        for n in [1u32, 2, 3, 4, 7, 12, 14, 16, 25, 100] {
            let regions = partition_field(&field, n);
            assert_eq!(regions.len(), n as usize, "n = {n}");
            let total: f64 = regions.iter().map(|r| r.area()).sum();
            assert!(
                (total - field.area()).abs() < 1e-6,
                "area conserved for n = {n}"
            );
        }
    }

    #[test]
    fn partition_is_balanced() {
        let field = Rect::new(0.0, 0.0, 400.0, 250.0);
        for n in [14u32, 16, 100, 1000, 1023] {
            let regions = partition_field(&field, n);
            let mean = field.area() / n as f64;
            for r in &regions {
                assert!(
                    r.area() < 2.0 * mean && r.area() > mean / 2.0,
                    "n = {n}: region area {} vs mean {mean}",
                    r.area()
                );
            }
        }
    }

    #[test]
    fn partition_regions_disjoint() {
        let field = Rect::new(0.0, 0.0, 90.0, 60.0);
        let regions = partition_field(&field, 14);
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                let cx = (a.x0.max(b.x0), a.x1.min(b.x1));
                let cy = (a.y0.max(b.y0), a.y1.min(b.y1));
                let overlap = (cx.1 - cx.0).max(0.0) * (cy.1 - cy.0).max(0.0);
                assert!(overlap < 1e-9, "regions {a:?} and {b:?} overlap");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_panics() {
        let _ = Rect::new(1.0, 0.0, 0.0, 1.0);
    }
}
