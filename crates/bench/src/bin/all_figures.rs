//! Runs every figure harness in sequence (the full paper evaluation).
//!
//! ```text
//! cargo run --release -p hivemind-bench --bin all_figures
//! ```
//!
//! Set `HIVEMIND_FULL=1` (or pass `--full`) for paper-length runs (120 s
//! jobs, 10 repeats, swarm sweep to 100k devices); the default run is
//! what the golden tests pin. Pass `--trace <path>` to collect event
//! traces from every figure; each figure gets its own trace family
//! (`<stem>.fig01.<ext>`, `<stem>.fig03.<ext>`, ...) so the figures never
//! overwrite each other's files.

use std::process::Command;

use hivemind_bench::cli::Cli;
use hivemind_bench::report::keyed_path;

fn main() {
    let cli = Cli::from_env();
    let figures = [
        "fig01", "fig03", "fig04", "fig05", "fig06", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for fig in figures {
        let mut cmd = Command::new(dir.join(fig));
        if cli.full() {
            cmd.arg("--full");
        }
        if let Some(base) = cli.trace_path() {
            cmd.arg("--trace").arg(keyed_path(base, fig));
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {fig}: {e}"));
        assert!(status.success(), "{fig} exited with {status}");
    }
    println!();
    println!("All figures regenerated.");
}
