//! Shared figure-binary reporting: the `--trace` flag, trace-file export,
//! and the outcome→table-cell helpers every fig binary used to inline.
//!
//! Each binary constructs one [`Report`] from its command line and routes
//! its experiment execution through it:
//!
//! ```no_run
//! use hivemind_bench::report::Report;
//! use hivemind_bench::Workload;
//! use hivemind_core::prelude::*;
//!
//! let report = Report::from_env();
//! let configs: Vec<ExperimentConfig> = Workload::evaluation_set()
//!     .iter()
//!     .map(|w| w.config(Platform::HiveMind, 3))
//!     .collect();
//! let outcomes = report.run_configs(&configs);
//! ```
//!
//! Without `--trace` the report is a pass-through to the harness
//! [`Runner`](hivemind_core::runner::Runner) and tracing stays disabled
//! (zero cost). With `--trace <path>` every experiment the report runs is
//! executed with
//! [`RunPlan::trace`](hivemind_core::experiment::RunPlan::trace) enabled
//! and its event trace is exported twice: Chrome `trace_event` JSON (load in
//! `chrome://tracing` or Perfetto) and a JSONL sibling with the `.jsonl`
//! extension. Multi-run calls key each file pair by position and seed so
//! a sweep never overwrites itself; the first trace is always written at
//! the exact path given, so `--trace out.trace.json` reliably produces
//! `out.trace.json`.

use std::cell::Cell;
use std::path::{Path, PathBuf};

use hivemind_core::experiment::ExperimentConfig;
use hivemind_core::metrics::Outcome;
use hivemind_core::runner::RunSet;
use hivemind_sim::trace::Trace;

use crate::Workload;

/// Per-binary reporting context: owns the `--trace` flag and fans
/// experiment execution out on the harness runner.
#[derive(Debug)]
pub struct Report {
    trace_path: Option<PathBuf>,
    /// Whether the exact `--trace` path has been written yet (the first
    /// exported trace claims it).
    claimed: Cell<bool>,
}

impl Report {
    /// Builds a report from the process command line via the shared
    /// [`crate::cli`] parser, which exits with the usage text on a bad
    /// argument.
    pub fn from_env() -> Report {
        crate::cli::Cli::from_env().report()
    }

    /// Builds a report from an explicit argument list (testable variant
    /// of [`Report::from_env`]); errors as [`crate::cli::Cli::from_args`].
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Report, String> {
        crate::cli::Cli::from_args(args).map(|cli| cli.report())
    }

    /// Builds a report straight from a parsed trace path (the shared
    /// [`crate::cli::Cli`] constructs reports this way).
    pub(crate) fn with_trace(trace_path: Option<PathBuf>) -> Report {
        Report {
            trace_path,
            claimed: Cell::new(false),
        }
    }

    /// Whether tracing was requested on the command line.
    pub fn tracing(&self) -> bool {
        self.trace_path.is_some()
    }

    /// Applies the report's tracing decision to a configuration
    /// (preserving the rest of its run plan).
    pub fn configure(&self, mut cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.plan.trace = self.tracing();
        cfg
    }

    /// Runs one experiment; its trace (if enabled) goes to the exact
    /// `--trace` path.
    pub fn run(&self, cfg: ExperimentConfig) -> Outcome {
        let mut outcomes = self.run_configs(std::slice::from_ref(&cfg));
        outcomes.pop().expect("one config in, one outcome out")
    }

    /// Runs a configuration sweep on the harness runner, in config order.
    ///
    /// Trace files are keyed `c<index>-s<seed>` (sweeps often share one
    /// seed, so position disambiguates). Traces are detached from the
    /// returned outcomes once exported, keeping the outcomes cheap to
    /// clone.
    pub fn run_configs(&self, configs: &[ExperimentConfig]) -> Vec<Outcome> {
        let traced: Vec<ExperimentConfig> =
            configs.iter().map(|c| self.configure(c.clone())).collect();
        let mut outcomes = crate::runner().run_configs(&traced);
        if self.tracing() {
            let mut written = Vec::new();
            for (i, (cfg, o)) in traced.iter().zip(&mut outcomes).enumerate() {
                if let Some(trace) = o.trace.take() {
                    let key = if traced.len() == 1 {
                        None
                    } else {
                        Some(format!("c{:02}-s{}", i, cfg.seed))
                    };
                    written.push(self.export(key.as_deref(), &trace));
                }
            }
            announce(&written);
        }
        outcomes
    }

    /// Runs `replicates` derived-seed copies of `base` on the harness
    /// runner, tracing each replicate when `--trace` is set.
    ///
    /// Per-replicate trace files are keyed `s<seed>` by the derived seed
    /// (seeds in a replicate chain are unique), so the same files appear
    /// regardless of `HIVEMIND_THREADS` — and byte-identically so, since
    /// each replicate's trace is a pure function of its configuration.
    pub fn run_replicated(&self, base: &ExperimentConfig, replicates: u64) -> RunSet {
        let set = crate::runner().run_replicates(&self.configure(base.clone()), replicates);
        if self.tracing() {
            let written: Vec<PathBuf> = set
                .traces()
                .map(|(seed, trace)| self.export(Some(&format!("s{seed}")), trace))
                .collect();
            announce(&written);
        }
        set
    }

    /// Writes one trace as a Chrome-trace/JSONL file pair and returns the
    /// Chrome-trace path.
    ///
    /// The first export claims the exact `--trace` path; keyed exports
    /// additionally get a `<stem>.<key>.<ext>` sibling so later runs in
    /// the same invocation never clobber earlier ones.
    fn export(&self, key: Option<&str>, trace: &Trace) -> PathBuf {
        let base = self
            .trace_path
            .as_ref()
            .expect("export is only called when tracing");
        let chrome = match key {
            Some(key) if self.claimed.get() => keyed_path(base, key),
            _ => {
                self.claimed.set(true);
                base.clone()
            }
        };
        write_or_die(&chrome, &trace.to_chrome_trace());
        write_or_die(&chrome.with_extension("jsonl"), &trace.to_jsonl());
        chrome
    }
}

/// Prints one summary line for a batch of exported trace files.
fn announce(written: &[PathBuf]) {
    match written {
        [] => {}
        [only] => println!("trace: {} (+ .jsonl)", only.display()),
        [first, .., last] => println!(
            "trace: {} file pairs, {} .. {} (+ .jsonl each)",
            written.len(),
            first.display(),
            last.display()
        ),
    }
}

/// Inserts a disambiguating key before a trace path's extension:
/// `out.trace.json` + `c03-s1` → `out.trace.c03-s1.json`. Used for every
/// run after the first in a multi-run invocation, and by `all_figures` to
/// give each figure its own trace family.
pub fn keyed_path(base: &Path, key: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}.{key}.{ext}"),
        None => format!("{stem}.{key}"),
    };
    base.with_file_name(name)
}

fn write_or_die(path: &Path, contents: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("failed to write trace file {}: {e}", path.display()));
}

/// A task-latency quantile of an outcome's end-to-end distribution, in
/// seconds. Reads the summary's shared sorted cache, so the per-cell
/// clone-and-resort the figure tables used to pay is gone.
pub fn task_quantile_secs(o: &Outcome, q: f64) -> f64 {
    o.tasks.total.quantile(q)
}

/// Median task latency as a milliseconds table cell.
pub fn task_p50_cell(o: &Outcome) -> String {
    crate::ms(task_quantile_secs(o, 0.5))
}

/// p99 task latency as a milliseconds table cell.
pub fn task_p99_cell(o: &Outcome) -> String {
    crate::ms(task_quantile_secs(o, 0.99))
}

/// The `[p50, p99]` cell pair the per-platform figures print for every
/// workload: task milliseconds for the benchmark apps, job seconds plus
/// completion status for the end-to-end scenarios.
pub fn workload_cells(w: &Workload, o: &Outcome) -> [String; 2] {
    match w {
        Workload::App(_) => [task_p50_cell(o), task_p99_cell(o)],
        Workload::Scenario(_) => [
            format!("{:.1}s", o.mission.duration_secs),
            (if o.mission.completed { "done" } else { "DNF" }).to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_apps::suite::App;
    use hivemind_core::platform::Platform;

    fn report(v: &[&str]) -> Report {
        Report::from_args(v.iter().map(|s| s.to_string())).expect("valid command line")
    }

    #[test]
    fn flag_parsing_accepts_both_spellings() {
        assert!(!report(&[]).tracing());
        let split = report(&["--trace", "a.json"]);
        assert_eq!(split.trace_path.as_deref(), Some(Path::new("a.json")));
        let joined = report(&["--trace=b.json"]);
        assert_eq!(joined.trace_path.as_deref(), Some(Path::new("b.json")));
        assert!(Report::from_args(["--trace".to_string()]).is_err());
    }

    #[test]
    fn keyed_paths_insert_before_extension() {
        assert_eq!(
            keyed_path(Path::new("out/x.trace.json"), "c01-s3"),
            Path::new("out/x.trace.c01-s3.json")
        );
        assert_eq!(keyed_path(Path::new("bare"), "s9"), Path::new("bare.s9"));
    }

    #[test]
    fn untraced_report_is_passthrough() {
        let report = report(&[]);
        let cfg = ExperimentConfig::single_app(App::WeatherAnalytics)
            .platform(Platform::CentralizedFaaS)
            .duration_secs(2.0)
            .seed(1);
        let o = report.run(cfg);
        assert!(o.trace.is_none(), "no --trace, no trace buffering");
        assert!(!o.tasks.is_empty());
    }

    #[test]
    fn traced_sweep_writes_keyed_file_pairs() {
        let dir = std::env::temp_dir().join(format!("hm-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("out.trace.json");
        let report = report(&["--trace", path.to_str().expect("utf-8 path")]);
        let cfg = ExperimentConfig::single_app(App::WeatherAnalytics)
            .platform(Platform::CentralizedFaaS)
            .duration_secs(2.0)
            .seed(7);
        let outcomes = report.run_configs(&[cfg.clone(), cfg.seed(8)]);
        assert_eq!(outcomes.len(), 2);
        assert!(
            outcomes.iter().all(|o| o.trace.is_none()),
            "traces are detached after export"
        );
        // First run claims the exact path; the second gets a keyed pair.
        for name in ["out.trace.json", "out.trace.jsonl", "out.trace.c01-s8.json"] {
            let p = dir.join(name);
            let body = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| panic!("missing {}: {e}", p.display()));
            assert!(!body.is_empty());
        }
        assert!(std::fs::read_to_string(dir.join("out.trace.json"))
            .expect("chrome trace")
            .starts_with("{\"displayTimeUnit\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_helpers_take_shared_outcomes() {
        let report = report(&[]);
        let w = Workload::App(App::WeatherAnalytics);
        let o = report.run(w.config(Platform::CentralizedFaaS, 3).duration_secs(2.0));
        let [p50, p99] = workload_cells(&w, &o);
        let (p50, p99): (f64, f64) = (p50.parse().expect("ms"), p99.parse().expect("ms"));
        assert!(p50 > 0.0 && p99 >= p50);
    }
}
