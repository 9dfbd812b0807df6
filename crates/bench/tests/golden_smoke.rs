//! Golden snapshots of every figure binary's `--smoke` output.
//!
//! The perf work on the simulator hot path is constrained to be
//! byte-identical: any change to RNG draw order, event tie-breaking, or
//! float summation order shows up here as a diff. Each figure binary runs
//! in smoke mode (a seconds-scale deterministic slice of its sweep) and
//! its stdout is byte-compared against `tests/goldens/<bin>.smoke.txt`.
//! `chaos_sweep --smoke` and `overload_sweep --smoke` additionally cover
//! the full `Outcome` JSON serialization (recovery and shed blocks
//! included), and a subset re-runs under `HIVEMIND_THREADS=1` and
//! `HIVEMIND_THREADS=8` to pin thread-count invariance.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! HIVEMIND_UPDATE_GOLDENS=1 cargo test --release -p hivemind-bench --test golden_smoke
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.smoke.txt"))
}

/// Runs `bin --smoke` and returns its stdout. The child environment is
/// scrubbed of every fidelity knob so the run is smoke-mode regardless of
/// the invoking shell; `threads` pins the runner's worker count.
fn smoke_stdout(bin: &str, exe: &str, threads: Option<&str>) -> String {
    let mut cmd = Command::new(exe);
    cmd.arg("--smoke")
        .env_remove("HIVEMIND_FULL")
        .env_remove("HIVEMIND_THREADS");
    if let Some(n) = threads {
        cmd.env("HIVEMIND_THREADS", n);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} --smoke exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{bin} wrote non-UTF-8 output: {e}"))
}

fn check_golden(bin: &str, exe: &str) {
    let got = smoke_stdout(bin, exe, None);
    let path = golden_path(bin);
    if std::env::var("HIVEMIND_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with HIVEMIND_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert!(
        got == want,
        "{bin} --smoke output changed (vs {}).\n\
         If intentional, regenerate with HIVEMIND_UPDATE_GOLDENS=1.\n\
         --- first differing line ---\n{}",
        path.display(),
        first_diff(&want, &got)
    );
}

fn first_diff(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}:\n  golden: {w}\n  actual: {g}", i + 1);
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        want.lines().count(),
        got.lines().count()
    )
}

macro_rules! golden {
    ($($name:ident),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_golden(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            }
        )+
    };
}

golden!(fig01, fig03, fig04, fig05, fig06, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18,);

/// `chaos_sweep --smoke` prints full `Outcome::to_json` lines — the
/// golden that pins the outcome-JSON serialization (shortest-roundtrip
/// floats included) byte-for-byte.
#[test]
fn chaos_sweep() {
    check_golden("chaos_sweep", env!("CARGO_BIN_EXE_chaos_sweep"));
}

/// `overload_sweep --smoke` runs a saturated cluster under the full
/// overload policy (bound + deadline + breaker + spillover + ingress
/// backpressure) and prints outcome JSON including the `"shed"` block —
/// the golden that pins shed accounting byte-for-byte.
#[test]
fn overload_sweep() {
    check_golden("overload_sweep", env!("CARGO_BIN_EXE_overload_sweep"));
}

/// `mc_sweep --smoke` exhaustively explores the smaller protocol
/// instances and prints their state-space statistics plus the three
/// planted-bug counterexample schedules — the golden that pins the
/// model checker's exploration order, fingerprint dedup, and schedule
/// rendering byte-for-byte.
#[test]
fn mc_sweep() {
    check_golden("mc_sweep", env!("CARGO_BIN_EXE_mc_sweep"));
}

/// `partition_sweep --smoke` runs a partitioned fleet with lease-based
/// autonomy armed and prints outcome JSON including the `"reconnect"`
/// block — the golden that pins the disconnect plane's degrade, buffer
/// and exactly-once replay accounting byte-for-byte.
#[test]
fn partition_sweep() {
    check_golden("partition_sweep", env!("CARGO_BIN_EXE_partition_sweep"));
}

/// A subset re-runs under explicit worker counts: the parallel replicate
/// runner must produce byte-identical output regardless of
/// `HIVEMIND_THREADS`.
#[test]
fn thread_count_invariance() {
    for (bin, exe) in [
        ("fig04", env!("CARGO_BIN_EXE_fig04")),
        ("fig13", env!("CARGO_BIN_EXE_fig13")),
        ("chaos_sweep", env!("CARGO_BIN_EXE_chaos_sweep")),
        ("overload_sweep", env!("CARGO_BIN_EXE_overload_sweep")),
        ("mc_sweep", env!("CARGO_BIN_EXE_mc_sweep")),
        ("partition_sweep", env!("CARGO_BIN_EXE_partition_sweep")),
    ] {
        let one = smoke_stdout(bin, exe, Some("1"));
        let eight = smoke_stdout(bin, exe, Some("8"));
        assert!(one == eight, "{bin} output depends on HIVEMIND_THREADS");
    }
}
