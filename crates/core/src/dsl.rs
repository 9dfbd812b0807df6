//! The HiveMind domain-specific language (Sec. 4.1).
//!
//! Users "express a high-level description of their task graph" and
//! HiveMind synthesizes everything below it. This module is the Rust
//! embedding of the part of Listings 1–3 that drives a run: [`TaskDef`]
//! mirrors `Task(...)` with its parent edges and the `Place` directive
//! ([`TaskDef::place`]), and [`TaskGraphBuilder`] mirrors `TaskGraph(...)`.
//! Synthesis reads exactly these: tasks and their parent edges shape the
//! candidate placements and their bindings, and a `Place` pin fixes a
//! task's site ([`TaskGraph::pinned_site`]).
//!
//! The rest of the listings is left out because no run here reads it. A
//! task's data objects, code path and arguments name files the simulator
//! never loads. `Serial` restates a parent edge, and `Parallel`/`Overlap`
//! only annotate sibling tasks. The optimisation goal is
//! [`crate::synthesis::Objective`], and runtime re-mapping takes its
//! latency goal as an argument ([`crate::adaptive::run_adaptive`]).
//! Retraining is `ExperimentConfig::retrain` (the paper's `Learn`), and
//! failure handling is the fault plane's retry policy (its `Restore`).
//! `Schedule`, `Isolate`, `Persist` and `Synchronize` have no mechanism
//! behind them.
//!
//! Validation happens at [`TaskGraphBuilder::build`]: unknown parents,
//! duplicate names, self-parents and cycles are all rejected — the paper
//! notes incorrect API/dependency definitions are a dominant source of
//! bugs in multi-tier apps, which is exactly what a compiled task graph
//! rules out.
//!
//! # Examples
//!
//! Listing 3 (people recognition and deduplication), expressed here:
//!
//! ```rust
//! use hivemind_core::dsl::*;
//!
//! let graph = TaskGraphBuilder::new()
//!     .task(TaskDef::new("createRoute"))
//!     .task(TaskDef::new("collectImage").parent("createRoute"))
//!     .task(
//!         TaskDef::new("obstacleAvoidance")
//!             .parent("collectImage")
//!             .place(PlacementSite::Edge),
//!     )
//!     .task(TaskDef::new("faceRecognition").parent("collectImage"))
//!     .task(TaskDef::new("deduplication").parent("faceRecognition"))
//!     .build()
//!     .expect("valid graph");
//!
//! assert_eq!(graph.len(), 5);
//! assert_eq!(graph.roots(), vec!["createRoute"]);
//! assert!(graph.pinned_site("obstacleAvoidance") == Some(PlacementSite::Edge));
//! ```

use std::collections::HashMap;
use std::fmt;

/// Where a task is (or must be) placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementSite {
    /// On the edge devices.
    Edge,
    /// In the backend cloud.
    Cloud,
}

/// One `Task(...)` declaration (Listing 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDef {
    /// Unique task name.
    pub name: String,
    /// Declared parent task names.
    pub parents: Vec<String>,
    /// The site a `Place` directive pins the task to, if any.
    pub place: Option<PlacementSite>,
}

impl TaskDef {
    /// Starts a task definition.
    pub fn new(name: impl Into<String>) -> TaskDef {
        TaskDef {
            name: name.into(),
            parents: Vec::new(),
            place: None,
        }
    }

    /// Declares a parent task.
    pub fn parent(mut self, name: impl Into<String>) -> TaskDef {
        self.parents.push(name.into());
        self
    }

    /// Pins the task to `site` (Listing 2's `Place`).
    pub fn place(mut self, site: PlacementSite) -> TaskDef {
        self.place = Some(site);
        self
    }
}

/// Errors produced by graph validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two tasks share a name.
    DuplicateTask(String),
    /// A parent edge names an unknown task.
    UnknownTask(String),
    /// The dependency graph has a cycle through this task.
    Cycle(String),
    /// The graph has no tasks.
    Empty,
    /// A task lists itself as a parent.
    SelfParent(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateTask(t) => write!(f, "duplicate task name {t:?}"),
            GraphError::UnknownTask(t) => write!(f, "reference to unknown task {t:?}"),
            GraphError::Cycle(t) => write!(f, "dependency cycle through task {t:?}"),
            GraphError::Empty => write!(f, "task graph has no tasks"),
            GraphError::SelfParent(t) => write!(f, "task {t:?} lists itself as parent"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Builder for a [`TaskGraph`].
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    tasks: Vec<TaskDef>,
}

impl TaskGraphBuilder {
    /// Starts an empty graph.
    pub fn new() -> TaskGraphBuilder {
        TaskGraphBuilder::default()
    }

    /// Adds a task definition.
    pub fn task(mut self, def: TaskDef) -> TaskGraphBuilder {
        self.tasks.push(def);
        self
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for duplicate names, unknown parents,
    /// self-parents, cycles, or an empty graph.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            if index.insert(&t.name, i).is_some() {
                return Err(GraphError::DuplicateTask(t.name.clone()));
            }
        }
        // Parent edges, each task's children in declaration order.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.tasks.len()];
        let mut indeg = vec![0usize; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            for p in &t.parents {
                if p == &t.name {
                    return Err(GraphError::SelfParent(t.name.clone()));
                }
                let &parent = index
                    .get(p.as_str())
                    .ok_or_else(|| GraphError::UnknownTask(p.clone()))?;
                adj[parent].push(i);
                indeg[i] += 1;
            }
        }
        // Kahn's algorithm; leftovers indicate a cycle.
        let mut stack: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut topo = Vec::with_capacity(adj.len());
        while let Some(u) = stack.pop() {
            topo.push(u);
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        if topo.len() != adj.len() {
            let stuck = indeg
                .iter()
                .position(|&d| d > 0)
                .expect("cycle implies a positive in-degree");
            return Err(GraphError::Cycle(self.tasks[stuck].name.clone()));
        }
        Ok(TaskGraph {
            tasks: self.tasks,
            topo_order: topo,
        })
    }
}

/// A validated task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<TaskDef>,
    topo_order: Vec<usize>,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty (never true for built graphs).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task definitions, in declaration order.
    pub fn tasks(&self) -> &[TaskDef] {
        &self.tasks
    }

    /// A task by name.
    pub fn task(&self, name: &str) -> Option<&TaskDef> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Task names in a valid topological execution order.
    pub fn topological_names(&self) -> Vec<&str> {
        self.topo_order
            .iter()
            .map(|&i| self.tasks[i].name.as_str())
            .collect()
    }

    /// Tasks with no parents.
    pub fn roots(&self) -> Vec<&str> {
        self.tasks
            .iter()
            .filter(|t| t.parents.is_empty())
            .map(|t| t.name.as_str())
            .collect()
    }

    /// Children of a task.
    pub fn children(&self, name: &str) -> Vec<&str> {
        self.tasks
            .iter()
            .filter(|t| t.parents.iter().any(|p| p == name))
            .map(|t| t.name.as_str())
            .collect()
    }

    /// The site a task is pinned to by `Place`, if any.
    pub fn pinned_site(&self, task: &str) -> Option<PlacementSite> {
        self.task(task).and_then(|t| t.place)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> TaskGraphBuilder {
        TaskGraphBuilder::new()
            .task(TaskDef::new("collect"))
            .task(TaskDef::new("recognize").parent("collect"))
    }

    #[test]
    fn builds_and_orders() {
        let g = two_tier().build().unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.roots(), vec!["collect"]);
        assert_eq!(g.children("collect"), vec!["recognize"]);
        assert_eq!(g.topological_names(), vec!["collect", "recognize"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = TaskGraphBuilder::new()
            .task(TaskDef::new("a"))
            .task(TaskDef::new("a"))
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateTask("a".into()));
    }

    #[test]
    fn unknown_parent_rejected() {
        let err = TaskGraphBuilder::new()
            .task(TaskDef::new("a").parent("ghost"))
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownTask("ghost".into()));
    }

    #[test]
    fn self_parent_rejected() {
        let err = TaskGraphBuilder::new()
            .task(TaskDef::new("a").parent("a"))
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::SelfParent("a".into()));
    }

    #[test]
    fn cycles_rejected() {
        let err = TaskGraphBuilder::new()
            .task(TaskDef::new("a").parent("b"))
            .task(TaskDef::new("b").parent("a"))
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::Cycle(_)));
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            TaskGraphBuilder::new().build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn pins_are_queryable() {
        let g = TaskGraphBuilder::new()
            .task(TaskDef::new("collect").place(PlacementSite::Edge))
            .task(TaskDef::new("recognize").parent("collect"))
            .build()
            .unwrap();
        assert_eq!(g.pinned_site("collect"), Some(PlacementSite::Edge));
        assert_eq!(g.pinned_site("recognize"), None);
        assert_eq!(g.pinned_site("ghost"), None);
    }

    #[test]
    fn topological_order_respects_parent_edges() {
        let g = TaskGraphBuilder::new()
            .task(TaskDef::new("a"))
            .task(TaskDef::new("b").parent("a"))
            .task(TaskDef::new("c").parent("a"))
            .task(TaskDef::new("d").parent("b").parent("c"))
            .build()
            .unwrap();
        // Kahn's stack pops the last-declared ready child first.
        assert_eq!(g.topological_names(), vec!["a", "c", "b", "d"]);
    }

    #[test]
    fn error_display_is_lowercase_and_concise() {
        let e = GraphError::Cycle("x".into());
        let s = e.to_string();
        assert!(s.starts_with("dependency cycle"));
    }
}
