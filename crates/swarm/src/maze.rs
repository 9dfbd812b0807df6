//! Maze generation and the Wall Follower traversal algorithm.
//!
//! Benchmark S6 navigates a walled maze with the Wall Follower algorithm
//! (Sec. 2.1), and the robotic cars' second scenario traverses an unknown
//! maze (Sec. 5.5). We generate *perfect* mazes (spanning trees, hence
//! simply connected) with an iterative recursive-backtracker, on which the
//! right-hand rule is guaranteed to reach the exit.

use std::fmt;

use hivemind_sim::rng::RngForge;
use rand::seq::SliceRandom;

/// Why a maze operation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MazeError {
    /// Two cells that are not edge-adjacent, so no direction connects
    /// them.
    NonAdjacentMove {
        /// Move origin.
        from: (u32, u32),
        /// Move destination.
        to: (u32, u32),
    },
}

impl fmt::Display for MazeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MazeError::NonAdjacentMove { from, to } => write!(
                f,
                "no direction leads from ({}, {}) to non-adjacent ({}, {})",
                from.0, from.1, to.0, to.1
            ),
        }
    }
}

impl std::error::Error for MazeError {}

/// A compass direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// +y
    North,
    /// +x
    East,
    /// -y
    South,
    /// -x
    West,
}

impl Dir {
    /// All four directions, clockwise from north.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// Clockwise next direction (a right turn).
    pub fn right(self) -> Dir {
        match self {
            Dir::North => Dir::East,
            Dir::East => Dir::South,
            Dir::South => Dir::West,
            Dir::West => Dir::North,
        }
    }

    /// Counter-clockwise next direction (a left turn).
    pub fn left(self) -> Dir {
        self.right().right().right()
    }

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        self.right().right()
    }

    fn delta(self) -> (i64, i64) {
        match self {
            Dir::North => (0, 1),
            Dir::East => (1, 0),
            Dir::South => (0, -1),
            Dir::West => (-1, 0),
        }
    }

    /// The direction leading from `from` to the edge-adjacent cell `to`,
    /// or [`MazeError::NonAdjacentMove`] when the cells do not share an
    /// edge.
    pub fn between(from: (u32, u32), to: (u32, u32)) -> Result<Dir, MazeError> {
        let dx = to.0 as i64 - from.0 as i64;
        let dy = to.1 as i64 - from.1 as i64;
        match (dx, dy) {
            (1, 0) => Ok(Dir::East),
            (-1, 0) => Ok(Dir::West),
            (0, 1) => Ok(Dir::North),
            (0, -1) => Ok(Dir::South),
            _ => Err(MazeError::NonAdjacentMove { from, to }),
        }
    }
}

/// A perfect maze on a `width × height` cell grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Maze {
    width: u32,
    height: u32,
    /// `open[cell_index]` holds which of the four walls are open.
    open: Vec<[bool; 4]>,
}

fn dir_index(d: Dir) -> usize {
    match d {
        Dir::North => 0,
        Dir::East => 1,
        Dir::South => 2,
        Dir::West => 3,
    }
}

impl Maze {
    /// Generates a perfect maze with the iterative recursive backtracker.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn generate(width: u32, height: u32, forge: RngForge) -> Maze {
        assert!(width > 0 && height > 0, "maze must be non-empty");
        let mut rng = forge.stream("maze");
        let n = (width * height) as usize;
        let mut maze = Maze {
            width,
            height,
            open: vec![[false; 4]; n],
        };
        let mut visited = vec![false; n];
        let mut stack = vec![(0u32, 0u32)];
        visited[0] = true;
        while let Some(&(x, y)) = stack.last() {
            let mut dirs = Dir::ALL;
            dirs.shuffle(&mut rng);
            let mut advanced = false;
            for d in dirs {
                let (dx, dy) = d.delta();
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                if nx < 0 || ny < 0 || nx >= width as i64 || ny >= height as i64 {
                    continue;
                }
                let ni = (ny as u32 * width + nx as u32) as usize;
                if visited[ni] {
                    continue;
                }
                let i = (y * width + x) as usize;
                maze.open[i][dir_index(d)] = true;
                maze.open[ni][dir_index(d.opposite())] = true;
                visited[ni] = true;
                stack.push((nx as u32, ny as u32));
                advanced = true;
                break;
            }
            if !advanced {
                stack.pop();
            }
        }
        maze
    }

    /// Maze width in cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Maze height in cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Whether the wall from `(x, y)` toward `d` is open.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds: the flat index would
    /// otherwise silently read a neighbouring row's cell.
    pub fn is_open(&self, x: u32, y: u32, d: Dir) -> bool {
        assert!(
            x < self.width && y < self.height,
            "cell ({x}, {y}) out of bounds for a {}x{} maze",
            self.width,
            self.height
        );
        self.open[(y * self.width + x) as usize][dir_index(d)]
    }

    /// Number of open wall pairs — a perfect maze on `n` cells has exactly
    /// `n - 1` passages.
    pub fn passage_count(&self) -> usize {
        self.open
            .iter()
            .map(|w| w.iter().filter(|&&o| o).count())
            .sum::<usize>()
            / 2
    }
}

/// Result of a wall-follower traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traversal {
    /// Visited cells in order, starting at the entrance.
    pub path: Vec<(u32, u32)>,
    /// Whether the exit was reached.
    pub reached: bool,
}

impl Traversal {
    /// Number of moves taken.
    pub fn steps(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Traverses the maze from `(0, 0)` to `(width-1, height-1)` using the
/// right-hand rule: keep turning right when possible, else straight, else
/// left, else back. A walled-in cell (which a generated perfect maze never
/// has) ends the traversal short of the exit.
///
/// # Examples
///
/// ```rust
/// use hivemind_swarm::maze::{wall_follower, Maze};
/// use hivemind_sim::rng::RngForge;
///
/// let maze = Maze::generate(12, 12, RngForge::new(9));
/// let t = wall_follower(&maze);
/// assert!(t.reached);
/// assert_eq!(*t.path.last().unwrap(), (11, 11));
/// ```
pub fn wall_follower(maze: &Maze) -> Traversal {
    let goal = (maze.width() - 1, maze.height() - 1);
    let mut pos = (0u32, 0u32);
    let mut facing = Dir::North;
    let mut path = vec![pos];
    // A wall follower on a perfect maze traverses each passage at most
    // twice per direction; 4 × cells is a safe bound before declaring
    // failure (which would indicate a bug, not a property of the maze).
    let budget = 8 * (maze.width() * maze.height()) as usize + 8;
    for _ in 0..budget {
        if pos == goal {
            return Traversal {
                path,
                reached: true,
            };
        }
        // Right-hand rule.
        let choices = [facing.right(), facing, facing.left(), facing.opposite()];
        let Some(&d) = choices.iter().find(|&&d| maze.is_open(pos.0, pos.1, d)) else {
            break;
        };
        let (dx, dy) = d.delta();
        pos = ((pos.0 as i64 + dx) as u32, (pos.1 as i64 + dy) as u32);
        facing = d;
        path.push(pos);
    }
    Traversal {
        path,
        reached: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maze_is_perfect() {
        for seed in 0..5 {
            let m = Maze::generate(15, 10, RngForge::new(seed));
            assert_eq!(m.passage_count(), 15 * 10 - 1, "seed {seed}");
        }
    }

    #[test]
    fn walls_are_symmetric() {
        let m = Maze::generate(8, 8, RngForge::new(3));
        for x in 0..7 {
            for y in 0..7 {
                assert_eq!(m.is_open(x, y, Dir::East), m.is_open(x + 1, y, Dir::West));
                assert_eq!(m.is_open(x, y, Dir::North), m.is_open(x, y + 1, Dir::South));
            }
        }
    }

    #[test]
    fn border_walls_stay_closed() {
        let m = Maze::generate(6, 6, RngForge::new(4));
        for x in 0..6 {
            assert!(!m.is_open(x, 0, Dir::South));
            assert!(!m.is_open(x, 5, Dir::North));
        }
        for y in 0..6 {
            assert!(!m.is_open(0, y, Dir::West));
            assert!(!m.is_open(5, y, Dir::East));
        }
    }

    #[test]
    fn wall_follower_always_solves_perfect_mazes() {
        for seed in 0..20 {
            let m = Maze::generate(12, 9, RngForge::new(seed));
            let t = wall_follower(&m);
            assert!(t.reached, "seed {seed} failed");
            assert_eq!(*t.path.last().unwrap(), (11, 8));
            // Every move crosses an open wall between adjacent cells.
            for w in t.path.windows(2) {
                let (a, b) = (w[0], w[1]);
                let d = Dir::between(a, b).expect("traversal only makes adjacent moves");
                assert!(m.is_open(a.0, a.1, d));
            }
        }
    }

    #[test]
    fn generation_deterministic() {
        let a = Maze::generate(10, 10, RngForge::new(7));
        let b = Maze::generate(10, 10, RngForge::new(7));
        assert_eq!(a, b);
        let c = Maze::generate(10, 10, RngForge::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn trivial_maze() {
        let m = Maze::generate(1, 1, RngForge::new(1));
        let t = wall_follower(&m);
        assert!(t.reached);
        assert_eq!(t.steps(), 0);
    }

    #[test]
    fn dir_between_classifies_moves() {
        assert_eq!(Dir::between((1, 1), (2, 1)), Ok(Dir::East));
        assert_eq!(Dir::between((1, 1), (0, 1)), Ok(Dir::West));
        assert_eq!(Dir::between((1, 1), (1, 2)), Ok(Dir::North));
        assert_eq!(Dir::between((1, 1), (1, 0)), Ok(Dir::South));
        assert_eq!(
            Dir::between((1, 1), (3, 1)),
            Err(MazeError::NonAdjacentMove {
                from: (1, 1),
                to: (3, 1)
            })
        );
        assert_eq!(
            Dir::between((0, 0), (1, 1)),
            Err(MazeError::NonAdjacentMove {
                from: (0, 0),
                to: (1, 1)
            })
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn is_open_panics_out_of_bounds() {
        let m = Maze::generate(2, 2, RngForge::new(1));
        let _ = m.is_open(2, 0, Dir::North);
    }

    #[test]
    fn wall_follower_stops_in_a_walled_in_cell() {
        // A hand-built grid whose entrance has all four walls closed.
        let m = Maze {
            width: 2,
            height: 1,
            open: vec![[false; 4]; 2],
        };
        let t = wall_follower(&m);
        assert!(!t.reached);
        assert_eq!(t.path, vec![(0, 0)]);
    }

    #[test]
    fn maze_error_messages_name_the_cell() {
        let e = MazeError::NonAdjacentMove {
            from: (0, 0),
            to: (5, 5),
        };
        assert!(e.to_string().contains("(5, 5)"));
    }

    #[test]
    fn dir_algebra() {
        assert_eq!(Dir::North.right(), Dir::East);
        assert_eq!(Dir::North.left(), Dir::West);
        assert_eq!(Dir::East.opposite(), Dir::West);
        for d in Dir::ALL {
            assert_eq!(d.right().left(), d);
            assert_eq!(d.opposite().opposite(), d);
        }
    }
}
