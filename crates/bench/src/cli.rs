//! One command-line surface for every harness binary.
//!
//! Each figure binary used to hand-roll its own `std::env::args()` scan
//! (and three of them grew subtly different ones). [`Cli`] is the single
//! parser: it owns every flag the harness recognizes.
//!
//! Recognized flags:
//!
//! - `--smoke` — the seconds-scale deterministic slice (equivalent to
//!   `HIVEMIND_SMOKE=1`); the golden tests run this.
//! - `--full` — paper-fidelity runs (equivalent to `HIVEMIND_FULL=1`).
//!   Full fidelity wins when both are requested.
//! - `--trace <path>` / `--trace=<path>` — export structured event
//!   traces for every run, via [`Report`].
//!
//! Anything else — an unrecognised argument such as a misspelt `--smok`,
//! or `--trace` without a path — is an error: [`Cli::from_env`] prints it
//! with the usage text and exits with status 2, rather than running the
//! default fidelity as if nothing had been asked. Every binary calls it
//! (directly or through [`Report::from_env`]) before doing any work.

use std::path::{Path, PathBuf};

use crate::report::Report;

const USAGE: &str = "usage: <binary> [--smoke] [--full] [--trace <path>]
  --smoke          seconds-scale deterministic slice (or HIVEMIND_SMOKE=1)
  --full           paper-fidelity runs (or HIVEMIND_FULL=1); wins over --smoke
  --trace <path>   export event traces for every run (also --trace=<path>)";

/// Parsed harness command line.
#[derive(Debug, Clone)]
pub struct Cli {
    smoke_flag: bool,
    full_flag: bool,
    trace: Option<PathBuf>,
}

impl Cli {
    /// Parses the process command line. On a bad argument, prints the
    /// error and the usage text to stderr and exits with status 2.
    pub fn from_env() -> Cli {
        Cli::from_args(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument list (testable variant of
    /// [`Cli::from_env`]). The error names the bad argument and carries
    /// the usage text.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        Cli::parse(args, true)
    }

    /// The recognised flags of the process command line, skipping
    /// anything else. The crate's fidelity helpers ([`crate::smoke`],
    /// [`crate::full_fidelity`]) read flags this way because they also run
    /// inside test binaries, whose command line belongs to the test
    /// harness; binaries have already validated theirs via `from_env`.
    pub(crate) fn flags_from_env() -> Cli {
        Cli::parse(std::env::args().skip(1), false).expect("lenient parsing cannot fail")
    }

    fn parse<I: IntoIterator<Item = String>>(args: I, strict: bool) -> Result<Cli, String> {
        let mut cli = Cli {
            smoke_flag: false,
            full_flag: false,
            trace: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => cli.smoke_flag = true,
                "--full" => cli.full_flag = true,
                "--trace" => match args.next() {
                    Some(path) => cli.trace = Some(PathBuf::from(path)),
                    None if strict => return Err(format!("`--trace` needs a path\n{USAGE}")),
                    None => {}
                },
                other => match other.strip_prefix("--trace=") {
                    Some(path) => cli.trace = Some(PathBuf::from(path)),
                    None if strict => {
                        return Err(format!("unrecognised argument `{arg}`\n{USAGE}"))
                    }
                    None => {}
                },
            }
        }
        Ok(cli)
    }

    /// Whether `--smoke` itself was passed (ignoring the environment).
    pub fn smoke_flag(&self) -> bool {
        self.smoke_flag
    }

    /// Whether full-fidelity mode is in effect (`--full` or
    /// `HIVEMIND_FULL=1`).
    pub fn full(&self) -> bool {
        self.full_flag
            || std::env::var("HIVEMIND_FULL")
                .map(|v| v == "1")
                .unwrap_or(false)
    }

    /// Whether smoke mode is in effect (`--smoke` or `HIVEMIND_SMOKE=1`,
    /// unless full fidelity overrides it).
    pub fn smoke(&self) -> bool {
        if self.full() {
            return false;
        }
        self.smoke_flag
            || std::env::var("HIVEMIND_SMOKE")
                .map(|v| v == "1")
                .unwrap_or(false)
    }

    /// The `--trace` export path, if any.
    pub fn trace_path(&self) -> Option<&Path> {
        self.trace.as_deref()
    }

    /// The per-binary [`Report`] for this command line.
    pub fn report(&self) -> Report {
        Report::with_trace(self.trace.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(v: &[&str]) -> Result<Cli, String> {
        Cli::from_args(v.iter().map(|s| s.to_string()))
    }

    fn parse(v: &[&str]) -> Cli {
        try_parse(v).expect("valid command line")
    }

    #[test]
    fn recognizes_shared_flags() {
        let cli = parse(&["--smoke", "--trace", "t.json"]);
        assert!(cli.smoke_flag());
        assert_eq!(cli.trace_path(), Some(Path::new("t.json")));
        assert_eq!(
            parse(&["--trace=u.json"]).trace_path(),
            Some(Path::new("u.json"))
        );
    }

    #[test]
    fn unrecognised_arguments_fail_with_usage() {
        let err = try_parse(&["--smok"]).expect_err("a misspelt flag must not run");
        assert!(err.starts_with("unrecognised argument `--smok`"), "{err}");
        assert!(err.contains(USAGE), "{err}");
        assert!(try_parse(&["--smoke", "extra"]).is_err());
        let dangling = try_parse(&["--trace"]).expect_err("--trace needs a path");
        assert!(dangling.contains(USAGE), "{dangling}");
        // The lenient reading behind the fidelity helpers skips foreign
        // arguments (a test harness's `--quiet`) and keeps the flags.
        let lenient = Cli::parse(["--quiet", "--smoke"].map(String::from), false);
        assert!(lenient.expect("lenient parsing cannot fail").smoke_flag());
    }

    #[test]
    fn full_beats_smoke() {
        let cli = parse(&["--smoke", "--full"]);
        assert!(cli.full());
        assert!(!cli.smoke(), "full fidelity wins over smoke");
    }

    #[test]
    fn bare_command_line_is_inert() {
        let cli = parse(&[]);
        assert!(!cli.smoke_flag());
        assert!(cli.trace_path().is_none());
        assert!(!cli.report().tracing());
    }
}
