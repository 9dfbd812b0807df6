//! # hivemind-bench
//!
//! The figure-regeneration harness. Every table and figure in the paper's
//! evaluation has a binary under `src/bin/` that reruns the corresponding
//! experiment on the simulator stack and prints the paper's rows:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig01` | Fig. 1 — end-to-end scenario, 16 real-scale + 1000 simulated drones, 4 platforms |
//! | `fig03` | Fig. 3 — latency breakdown under all-cloud execution; bandwidth/latency vs #drones × resolution |
//! | `fig04` | Fig. 4 — task/job latency, centralized vs distributed |
//! | `fig05` | Fig. 5 — serverless opportunities: concurrency, elasticity, fault tolerance |
//! | `fig06` | Fig. 6 — serverless challenges: variability, instantiation, data exchange |
//! | `fig11` | Fig. 11 — latency across the three platforms |
//! | `fig12` | Fig. 12 — latency breakdown, centralized vs HiveMind |
//! | `fig13` | Fig. 13 — ablation of HiveMind's techniques |
//! | `fig14` | Fig. 14 — battery and network bandwidth per platform |
//! | `fig15` | Fig. 15 — continuous-learning detection quality |
//! | `fig16` | Fig. 16 — robotic-car missions |
//! | `fig17` | Fig. 17 — resolution and swarm-size scalability |
//! | `fig18` | Fig. 18 — simulator validation (DES vs analytic model) |
//!
//! `all_figures` runs the lot. Performance is measured by hivebench, a
//! separate workspace under `benchmark/`.
//!
//! Every figure binary accepts `--smoke` (or `HIVEMIND_SMOKE=1`): a
//! seconds-scale deterministic slice of the figure — short durations,
//! two repeats, a three-workload set — used by the golden snapshot tests
//! (`tests/golden_smoke.rs`). The default (no flag) output is untouched
//! by smoke mode.
//!
//! `chaos_sweep` is the odd one out: instead of reproducing a figure it
//! sweeps the unified fault plane (function-fault rate × packet loss,
//! controller failover, device MTBF) and asserts graceful degradation;
//! `chaos_sweep --smoke` prints a small deterministic slice that CI
//! byte-diffs across `HIVEMIND_THREADS` values. `overload_sweep` does the
//! same for the overload-control plane: offered load × admission bound ×
//! circuit breaker, asserting that shedding keeps queueing bounded at the
//! capacity plateau while the unbounded baseline's latency grows without
//! limit.
//!
//! Every figure binary accepts `--trace <path>` to export structured
//! event traces (Chrome `trace_event` JSON + JSONL) for the runs behind
//! its tables — see [`report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod report;

use hivemind_apps::scenario::Scenario;
use hivemind_apps::suite::App;
use hivemind_core::experiment::{Experiment, ExperimentConfig};
use hivemind_core::metrics::Outcome;
use hivemind_core::platform::Platform;
use hivemind_core::runner::{RunSet, Runner};

/// The twelve evaluation workloads: S1–S10 plus the two drone scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A single-phase benchmark app.
    App(App),
    /// An end-to-end mission.
    Scenario(Scenario),
}

impl Workload {
    /// S1–S10 followed by ScA/ScB, the x-axis of most figures.
    pub fn evaluation_set() -> Vec<Workload> {
        let mut v: Vec<Workload> = App::ALL.iter().copied().map(Workload::App).collect();
        v.push(Workload::Scenario(Scenario::StationaryItems));
        v.push(Workload::Scenario(Scenario::MovingPeople));
        v
    }

    /// The smoke-mode slice of [`Workload::evaluation_set`]: two apps
    /// with different profiles plus one end-to-end mission, enough to
    /// exercise every execution path in seconds.
    pub fn smoke_set() -> Vec<Workload> {
        vec![
            Workload::App(App::FaceRecognition),
            Workload::App(App::WeatherAnalytics),
            Workload::Scenario(Scenario::StationaryItems),
        ]
    }

    /// [`Workload::smoke_set`] under `--smoke`, the full
    /// [`Workload::evaluation_set`] otherwise.
    pub fn active_set() -> Vec<Workload> {
        if smoke() {
            Workload::smoke_set()
        } else {
            Workload::evaluation_set()
        }
    }

    /// Paper column label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::App(a) => a.label(),
            Workload::Scenario(s) => s.label(),
        }
    }

    /// The experiment configuration this workload runs under.
    pub fn config(&self, platform: Platform, seed: u64) -> ExperimentConfig {
        let config = match self {
            Workload::App(app) => {
                ExperimentConfig::single_app(*app).duration_secs(single_app_duration_secs())
            }
            Workload::Scenario(s) => ExperimentConfig::scenario(*s),
        };
        config.platform(platform).seed(seed)
    }

    /// Runs this workload on `platform` with `seed`.
    pub fn run(&self, platform: Platform, seed: u64) -> Outcome {
        Experiment::new(self.config(platform, seed)).run()
    }

    /// Runs `replicates` seeds of this workload in parallel (replicate
    /// seeds derived from `root_seed`; workers from `HIVEMIND_THREADS`).
    pub fn run_replicated(&self, platform: Platform, root_seed: u64, replicates: u64) -> RunSet {
        runner().run_replicates(&self.config(platform, root_seed), replicates)
    }
}

/// The harness-wide parallel runner (thread count from
/// `HIVEMIND_THREADS`, default = available parallelism).
pub fn runner() -> Runner {
    Runner::from_env()
}

/// Runs `replicates` derived-seed copies of `config` on the harness
/// runner.
pub fn run_replicated(config: &ExperimentConfig, replicates: u64) -> RunSet {
    runner().run_replicates(config, replicates)
}

/// Single-app workload duration. The paper runs each job for 120 s; set
/// `HIVEMIND_FULL=1` for that, default 60 s keeps the full harness
/// quick, `--smoke` drops to 4 s.
pub fn single_app_duration_secs() -> f64 {
    if full_fidelity() {
        120.0
    } else if smoke() {
        4.0
    } else {
        60.0
    }
}

/// Whether full-fidelity mode is requested (`--full` on the command
/// line or `HIVEMIND_FULL=1`). Delegates to the shared [`cli`] parser.
pub fn full_fidelity() -> bool {
    cli::Cli::flags_from_env().full()
}

/// Whether smoke mode is requested (`--smoke` on the command line or
/// `HIVEMIND_SMOKE=1` in the environment). Smoke mode is the golden-test
/// slice: every figure prints a deterministic, seconds-scale subset of
/// its tables. Full fidelity wins if both are set. Delegates to the
/// shared [`cli`] parser.
pub fn smoke() -> bool {
    cli::Cli::flags_from_env().smoke()
}

/// Number of repetitions for distribution-style figures.
pub fn repeats() -> u64 {
    if full_fidelity() {
        10
    } else if smoke() {
        2
    } else {
        3
    }
}

/// A fixed-width text table printer for harness output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cells[i].len();
                if i == 0 {
                    line.push_str(&cells[i]);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[i]);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds as milliseconds with sensible precision.
pub fn ms(secs: f64) -> String {
    format!("{:.1}", secs * 1e3)
}

/// Formats a fraction as a percentage.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_set_has_twelve_columns() {
        let set = Workload::evaluation_set();
        assert_eq!(set.len(), 12);
        assert_eq!(set[0].label(), "S1");
        assert_eq!(set[10].label(), "ScA");
        assert_eq!(set[11].label(), "ScB");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["workload", "median", "p99"]);
        t.row(["S1", "250.0", "900.5"]);
        t.row(["S10", "600.0", "2100.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("workload"));
        assert!(lines[2].ends_with("900.5"));
        // All rows have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.25), "250.0");
        assert_eq!(pct(0.333), "33.3%");
    }
}
