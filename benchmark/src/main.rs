//! hivebench: an end-to-end and per-layer benchmark of the HiveMind engine
//! that experiments run.
//!
//! ```text
//! hivebench [--workload NAME] [--seed N] [--seconds S | --reps N]
//!           [--trace 0|1] [--trace-out PATH] [--smoke]
//! ```
//!
//! Without `--workload`, hivebench runs all five workloads in rounds of
//! rotating order, `--reps` repetitions each (default 7), then one traced
//! run per workload, and prints every metric as
//! `<workload> <metric> <value> <unit>`. With `--workload` it runs one:
//! `--trace 0` (the default) times repetitions for `--seconds` seconds, or
//! `--reps` of them, and reports the end-to-end metrics as medians, with
//! their quartiles on extra lines; `--trace 1` makes the traced run and
//! reports the per-layer metrics. `--trace-out` writes the traced run's
//! spans as JSONL. `--smoke` shrinks every workload to a seconds-scale
//! slice.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when any repetition failed a check.
//!
//! Every timed repetition is a fresh child process (`--child`), so peak
//! RSS is a per-workload number and every repetition pays process start-up,
//! as a user's run does. The child then times the reference kernel, and
//! the end-to-end times are reported at the reference host's speed (see
//! `reference.rs`); the raw medians are printed next to them. Threads and
//! shards never exceed the core count.

mod layers;
mod reference;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{print_lines, result_json, spread, Metrics};
use trace::Spans;
use workloads::{nproc, run_rep, Rep, Workload};

/// Repetitions a `--seconds` budget runs even when they overrun it: a
/// median and quartiles need a few samples.
const MIN_REPS: usize = 3;

/// How many timed repetitions to run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    Reps(usize),
    /// Start another repetition while its expected midpoint falls within
    /// this many seconds of the first one's start, so a run lasts this
    /// long on average.
    Seconds(f64),
}

impl Budget {
    fn more(self, done: usize, elapsed: Duration) -> bool {
        match self {
            Budget::Reps(n) => done < n,
            Budget::Seconds(s) => {
                let elapsed = elapsed.as_secs_f64();
                done < MIN_REPS || elapsed + elapsed / done as f64 / 2.0 <= s
            }
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    child: bool,
    seed: u64,
    budget: Option<Budget>,
    trace: Option<bool>,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

const USAGE: &str = "usage: hivebench [--workload NAME] [--seed N] [--seconds S | --reps N] \
                     [--trace 0|1] [--trace-out PATH] [--smoke]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        child: false,
        seed: 1,
        budget: None,
        trace: None,
        trace_out: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.budget = Some(Budget::Seconds(s));
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.budget = Some(Budget::Reps(n));
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_none() && matches!(a.budget, Some(Budget::Seconds(_))) {
        return Err("--seconds needs --workload".into());
    }
    if a.child && a.workload.is_none() {
        return Err("--child needs --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    // Timers inside the engine run only in the traced run, whatever the
    // caller's environment says.
    std::env::remove_var("HIVEMIND_PROFILE");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hivebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.child) {
        (Some(w), true) => child(w, &args),
        (Some(w), false) if args.trace == Some(true) => traced(w, &args),
        (Some(w), false) => timed(w, &args),
        (None, _) => all(&args),
    }
}

/// One repetition in this process, then the reference kernel; prints one
/// `rep` line for the parent. The peak RSS is read before the kernel
/// runs, so it is the workload's alone.
fn child(w: Workload, args: &Args) -> ExitCode {
    let line = run_rep(w, args.seed, args.smoke)
        .and_then(|rep| {
            let peak_rss_mb = peak_rss_mb()?;
            // Smoke slices are too small to time; they report raw host times.
            let ref_s = if args.smoke {
                reference::REFERENCE_HOST_S
            } else {
                reference::run().as_secs_f64()
            };
            Ok(rep_line(&ChildRep {
                rep,
                peak_rss_mb,
                ref_s,
            }))
        })
        .map_err(|e| format!("{}: {e}", w.name()));
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hivebench: {e}");
            ExitCode::from(3)
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// A repetition as the child reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChildRep {
    rep: Rep,
    peak_rss_mb: f64,
    /// Host seconds of the reference kernel, run right after.
    ref_s: f64,
}

impl ChildRep {
    /// Converts this repetition's host seconds to seconds on the
    /// reference host at its quiet speed.
    fn scale(&self) -> f64 {
        reference::REFERENCE_HOST_S / self.ref_s
    }
}

fn rep_line(c: &ChildRep) -> String {
    format!(
        "rep wall_s={} setup_s={} tasks={} digest={:016x} peak_rss_mb={} ref_s={}",
        c.rep.wall_s, c.rep.setup_s, c.rep.tasks, c.rep.digest, c.peak_rss_mb, c.ref_s
    )
}

fn parse_rep_line(stdout: &str) -> Result<ChildRep, String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("rep "))
        .ok_or("repetition printed no rep line")?;
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or(format!("rep line lacks {key}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        field(key)?.parse().map_err(|e| format!("rep {key}: {e}"))
    };
    Ok(ChildRep {
        rep: Rep {
            wall_s: num("wall_s")?,
            setup_s: num("setup_s")?,
            tasks: field("tasks")?
                .parse()
                .map_err(|e| format!("rep tasks: {e}"))?,
            digest: u64::from_str_radix(field("digest")?, 16)
                .map_err(|e| format!("rep digest: {e}"))?,
        },
        peak_rss_mb: num("peak_rss_mb")?,
        ref_s: num("ref_s")?,
    })
}

/// Runs one repetition of `w` in a fresh child process and waits for it.
fn spawn_rep(w: Workload, args: &Args) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating hivebench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name(), "--seed"])
        .arg(args.seed.to_string());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {} repetition: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} repetition exited with {}",
            w.name(),
            out.status
        ));
    }
    parse_rep_line(&String::from_utf8_lossy(&out.stdout))
}

/// The timed repetitions of one workload. A repetition fails when its
/// process fails (a panic or a failed check) or when its digest differs
/// from the first passing repetition's.
#[derive(Debug, Default)]
struct Timed {
    reps: Vec<ChildRep>,
    attempted: usize,
    failed: usize,
}

impl Timed {
    fn record(&mut self, w: Workload, result: Result<ChildRep, String>) {
        self.attempted += 1;
        match result {
            Ok(c) => match self.reps.first() {
                Some(first) if first.rep.digest != c.rep.digest => {
                    self.failed += 1;
                    eprintln!(
                        "hivebench: {}: digest {:016x} differs from the first repetition's {:016x}",
                        w.name(),
                        c.rep.digest,
                        first.rep.digest
                    );
                }
                _ => self.reps.push(c),
            },
            Err(e) => {
                self.failed += 1;
                eprintln!("hivebench: {e}");
            }
        }
    }

    /// The end-to-end metrics as medians, and the same metrics with their
    /// quartiles as `.q1` and `.q3` rows, plus the raw host times, for
    /// the printed lines. Times are scaled to the reference host's speed
    /// by the reference kernel run just before each repetition.
    fn end_to_end(&self) -> (Metrics, Metrics) {
        let mut medians = Metrics::default();
        let mut lines = Metrics::default();
        if self.reps.is_empty() {
            return (medians, lines);
        }
        let column = |f: fn(&ChildRep) -> f64| spread(&self.reps.iter().map(f).collect::<Vec<_>>());
        for (name, unit, s) in [
            ("wall_s", "s", column(|c| c.rep.wall_s * c.scale())),
            (
                "tasks_per_s",
                "tasks/s",
                column(|c| c.rep.tasks as f64 / (c.rep.wall_s * c.scale())),
            ),
            ("setup_s", "s", column(|c| c.rep.setup_s * c.scale())),
            ("peak_rss_mb", "MB", column(|c| c.peak_rss_mb)),
        ] {
            medians.push(name, s.median, unit);
            lines.push(name, s.median, unit);
            lines.push(format!("{name}.q1"), s.q1, unit);
            lines.push(format!("{name}.q3"), s.q3, unit);
        }
        lines.push("wall_raw_s", column(|c| c.rep.wall_s).median, "s");
        lines.push("reference_s", column(|c| c.ref_s).median, "s");
        (medians, lines)
    }

    fn print(&self, w: Workload) -> Metrics {
        let (medians, lines) = self.end_to_end();
        print_lines(w.name(), &lines);
        println!("{} reps {} count", w.name(), self.reps.len());
        if let Some(first) = self.reps.first() {
            println!("{} tasks {} count", w.name(), first.rep.tasks);
            println!("{} digest {:016x} fnv1a64", w.name(), first.rep.digest);
        }
        medians
    }
}

fn print_host() {
    println!("host nproc {} count", nproc());
    println!("host mission_shards {} count", workloads::mission_shards());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("host profile {profile} build");
}

fn finish(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> ExitCode {
    let correct = correct && failed == 0;
    println!("{}", result_json(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload W --trace 0`: timed repetitions, end-to-end metrics.
fn timed(w: Workload, args: &Args) -> ExitCode {
    print_host();
    let budget = args.budget.unwrap_or(Budget::Reps(7));
    let start = Instant::now();
    let mut t = Timed::default();
    while budget.more(t.attempted, start.elapsed()) {
        t.record(w, spawn_rep(w, args));
    }
    let medians = t.print(w);
    finish(!t.reps.is_empty(), t.attempted, t.failed, &medians)
}

/// Runs the traced run of `w` and prints its per-layer metrics; `None`
/// when a check failed.
fn traced_lines(w: Workload, args: &Args, spans: &mut Spans) -> Option<Metrics> {
    match layers::traced_run(w, args.seed, args.smoke, spans) {
        Ok(m) => {
            print_lines(w.name(), &m);
            Some(m)
        }
        Err(e) => {
            eprintln!("hivebench: {} traced run: {e}", w.name());
            None
        }
    }
}

fn write_spans(args: &Args, spans: &Spans) -> bool {
    let Some(path) = &args.trace_out else {
        return true;
    };
    match std::fs::write(path, spans.to_jsonl()) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("hivebench: writing {}: {e}", path.display());
            false
        }
    }
}

/// `--workload W --trace 1`: the traced run, per-layer metrics.
fn traced(w: Workload, args: &Args) -> ExitCode {
    print_host();
    let mut spans = Spans::on();
    let metrics = traced_lines(w, args, &mut spans);
    let written = write_spans(args, &spans);
    let failed = usize::from(metrics.is_none());
    finish(written, 1, failed, &metrics.unwrap_or_default())
}

/// No `--workload`: every workload in rotating rounds, then the traced
/// runs. Metric names in the closing JSON carry their workload.
fn all(args: &Args) -> ExitCode {
    print_host();
    let reps = match args.budget {
        Some(Budget::Reps(n)) => n,
        _ if args.smoke => 1,
        _ => 7,
    };
    let mut timed: Vec<Timed> = Workload::ALL.iter().map(|_| Timed::default()).collect();
    for round in 0..reps {
        for k in 0..Workload::ALL.len() {
            let i = (round + k) % Workload::ALL.len();
            let w = Workload::ALL[i];
            timed[i].record(w, spawn_rep(w, args));
        }
    }
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    for (w, t) in Workload::ALL.into_iter().zip(&timed) {
        for m in t.print(w).0 {
            metrics.push(format!("{}.{}", w.name(), m.name), m.value, m.unit);
        }
        attempted += t.attempted;
        failed += t.failed;
    }
    let mut spans = Spans::on();
    if args.trace != Some(false) {
        for w in Workload::ALL {
            attempted += 1;
            match traced_lines(w, args, &mut spans) {
                Some(m) => {
                    for m in m.0 {
                        metrics.push(format!("{}.{}", w.name(), m.name), m.value, m.unit);
                    }
                }
                None => failed += 1,
            }
        }
    }
    let written = write_spans(args, &spans);
    let correct = written && timed.iter().all(|t| !t.reps.is_empty());
    finish(correct, attempted, failed, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload chaos_planes --seed 9 --seconds 20 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::ChaosPlanes));
        assert_eq!(
            (a.seed, a.budget, a.trace),
            (9, Some(Budget::Seconds(20.0)), Some(false))
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(
            parse("--seconds 5").is_err(),
            "--seconds needs one workload"
        );
        assert!(parse("--reps 0").is_err());
    }

    #[test]
    fn a_seconds_budget_runs_at_least_three_repetitions() {
        let b = Budget::Seconds(10.0);
        assert!(b.more(2, Duration::from_secs(30)));
        assert!(!b.more(3, Duration::from_secs(9)));
        assert!(b.more(3, Duration::from_secs(6)));
        // 2.2 s per repetition: the next one's midpoint, 9.9 s, is inside.
        assert!(b.more(4, Duration::from_millis(8800)));
        assert!(!Budget::Reps(2).more(2, Duration::ZERO));
    }

    #[test]
    fn rep_lines_round_trip() {
        let c = ChildRep {
            rep: Rep {
                wall_s: 1.625,
                setup_s: 0.0625,
                tasks: 245_760,
                digest: 0x0123_4567_89ab_cdef,
            },
            peak_rss_mb: 96.5,
            ref_s: 0.25,
        };
        let out = format!("noise\n{}\n", rep_line(&c));
        assert_eq!(parse_rep_line(&out).unwrap(), c);
        assert!(parse_rep_line("rep wall_s=1").is_err());
    }
}
