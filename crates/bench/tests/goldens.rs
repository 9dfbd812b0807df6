//! Golden snapshots of every bench binary's default output.
//!
//! The perf work on the simulator hot path is constrained to be
//! byte-identical: any change to RNG draw order, event tie-breaking, or
//! float summation order shows up here as a diff. Each binary runs with
//! no arguments — the run EXPERIMENTS.md quotes — and its stdout is
//! byte-compared against `tests/goldens/<bin>.txt`. The sweeps end with
//! full `Outcome` JSON lines (recovery, shed and reconnect blocks
//! included), and a subset re-runs under `HIVEMIND_THREADS=1` and
//! `HIVEMIND_THREADS=8` to pin thread-count invariance. A last test
//! checks that every number EXPERIMENTS.md's figure sections quote as
//! inline code appears in that figure's golden.
//!
//! Run them in release: `fig17`'s default run takes about a minute in a
//! debug build, and the whole suite under 30 s in release on 2 vCPUs.
//! To regenerate after an intentional output change:
//!
//! ```text
//! HIVEMIND_UPDATE_GOLDENS=1 cargo test --release -p hivemind-bench --test goldens
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Runs `bin` with no arguments and returns its stdout. The child
/// environment is scrubbed of `HIVEMIND_FULL` so the run is the default
/// one regardless of the invoking shell; `threads` pins the runner's
/// worker count, which otherwise comes from the invoking shell's
/// `HIVEMIND_THREADS` (CI runs the suite at 1 and 8).
fn default_stdout(bin: &str, exe: &str, threads: Option<&str>) -> String {
    let mut cmd = Command::new(exe);
    cmd.env_remove("HIVEMIND_FULL");
    if let Some(n) = threads {
        cmd.env("HIVEMIND_THREADS", n);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{bin} wrote non-UTF-8 output: {e}"))
}

fn read_golden(bin: &str) -> String {
    let path = golden_path(bin);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with HIVEMIND_UPDATE_GOLDENS=1",
            path.display()
        )
    })
}

fn check_golden(bin: &str, exe: &str) {
    let got = default_stdout(bin, exe, None);
    if std::env::var("HIVEMIND_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        let path = golden_path(bin);
        std::fs::write(&path, &got)
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        return;
    }
    let want = read_golden(bin);
    assert!(
        got == want,
        "{bin} output changed (vs {}).\n\
         If intentional, regenerate with HIVEMIND_UPDATE_GOLDENS=1.\n\
         --- first differing line ---\n{}",
        golden_path(bin).display(),
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

/// `chaos_sweep` ends with full `Outcome::to_json` lines — the golden
/// that pins the outcome-JSON serialization (shortest-roundtrip floats
/// and the recovery block included) byte-for-byte.
#[test]
fn chaos_sweep() {
    check_golden("chaos_sweep", env!("CARGO_BIN_EXE_chaos_sweep"));
}

/// `overload_sweep` ends with a saturated cluster under the full
/// overload policy (bound + deadline + breaker + spillover + ingress
/// backpressure) and prints outcome JSON including the `"shed"` block —
/// the golden that pins shed accounting byte-for-byte.
#[test]
fn overload_sweep() {
    check_golden("overload_sweep", env!("CARGO_BIN_EXE_overload_sweep"));
}

/// `mc_sweep` exhaustively explores the protocol instances and prints
/// their state-space statistics plus the seven planted-bug
/// counterexample schedules — the golden that pins the model checker's
/// exploration order, fingerprint dedup, and schedule rendering
/// byte-for-byte.
#[test]
fn mc_sweep() {
    check_golden("mc_sweep", env!("CARGO_BIN_EXE_mc_sweep"));
}

/// `partition_sweep` ends with a partitioned fleet with lease-based
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
        let one = default_stdout(bin, exe, Some("1"));
        let eight = default_stdout(bin, exe, Some("8"));
        assert!(one == eight, "{bin} output depends on HIVEMIND_THREADS");
    }
}

/// The numeric part of an inline-code span that is a number, optionally
/// followed by `%`, `s` or `ms` (with or without a space).
fn measured_number(span: &str) -> Option<&str> {
    let number = ["%", "ms", "s"]
        .iter()
        .find_map(|unit| span.strip_suffix(unit))
        .unwrap_or(span)
        .trim_end();
    let digits = number.strip_prefix(['+', '-']).unwrap_or(number);
    let (whole, frac) = digits.split_once('.').unwrap_or((digits, "0"));
    let is_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    (is_digits(whole) && is_digits(frac)).then_some(number)
}

/// Whether `number` occurs in `text` as a whole number: not as a piece
/// of a longer one (`70` does not match inside `170.3` or `70.3`).
fn contains_number(text: &str, number: &str) -> bool {
    let part_of_number = |c: Option<char>| c.is_some_and(|c| c.is_ascii_digit() || c == '.');
    text.match_indices(number).any(|(at, _)| {
        !part_of_number(text[..at].chars().next_back())
            && !part_of_number(text[at + number.len()..].chars().next())
    })
}

/// Every measured number in an EXPERIMENTS.md figure section (a
/// `## Fig. N … (`figNN`)` heading) is written as inline code copied from
/// that binary's golden, so the docs cannot drift from what the binaries
/// print: fixing a figure's numbers is a doc change, never a re-pin.
#[test]
fn experiments_numbers_come_from_the_goldens() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("failed to read {}: {e}", path.display()));
    let mut checked = 0;
    let mut missing = Vec::new();
    for section in doc.split("\n## ").skip(1) {
        let heading = section.lines().next().unwrap_or_default();
        let Some(bin) = heading
            .strip_prefix("Fig. ")
            .and_then(|rest| rest.split_once("(`"))
            .and_then(|(_, rest)| rest.split_once("`)"))
            .map(|(bin, _)| bin)
        else {
            continue;
        };
        let golden = read_golden(bin);
        for span in section.split('`').skip(1).step_by(2) {
            if let Some(number) = measured_number(span) {
                checked += 1;
                if !contains_number(&golden, number) {
                    missing.push(format!("{bin}: `{span}`"));
                }
            }
        }
    }
    assert!(checked > 0, "no inline-code numbers in the figure sections");
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md quotes numbers its goldens do not print:\n  {}",
        missing.join("\n  ")
    );
}
