//! Overload sweep — saturation curves and graceful degradation under
//! burst traffic.
//!
//! Sweeps offered load (task-rate scale) against the overload-control
//! plane on a deliberately undersized cluster and prints the saturation
//! curve each policy produces: goodput (completed tasks/s), shed rate,
//! and p99 task latency, plus the knee point where goodput stops scaling
//! with offered load.
//!
//! The contrast the table demonstrates:
//!
//! * **unbounded** (no policy): past the knee, queues and p99 latency
//!   grow without bound while goodput stays pinned at capacity — every
//!   admitted task eventually completes, but arbitrarily late.
//! * **bounded** (queue bound + deadline): goodput plateaus at the same
//!   capacity, but excess work is shed at admission so the p99 of what
//!   *does* complete stays bounded — graceful degradation.
//!
//! A second table shows the retry circuit breaker failing fast through a
//! function-fault storm, and brownout spillover re-routing shed work to
//! degraded on-device execution.
//!
//! The overload plane draws no randomness: every shed, breaker, and
//! spillover decision is a pure function of queue lengths, counters, and
//! event times, so each sweep cell runs the *same* workload sample under
//! a different policy. The run ends with a saturated cluster under the
//! full policy, through the replicate runner, printed as outcome JSON;
//! the golden pins it across `HIVEMIND_THREADS` values.

use hivemind_bench::{banner, runner, Table};
use hivemind_core::prelude::*;

/// Offered-load multipliers swept against each policy.
const RATES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
const DURATION_SECS: f64 = 20.0;

fn config(rate_scale: f64, policy: OverloadPolicy) -> ExperimentConfig {
    // One server: saturation arrives within the sweep range instead of
    // needing thousands of devices.
    ExperimentConfig::single_app(App::Slam)
        .platform(Platform::CentralizedFaaS)
        .servers(1)
        .duration_secs(DURATION_SECS)
        .rate_scale(rate_scale)
        .seed(9)
        .plan(RunPlan::new().overload(policy))
}

struct Cell {
    goodput: f64,
    shed_pct: f64,
    p99_ms: f64,
    mean_queue_secs: f64,
}

fn run_cell(rate_scale: f64, policy: OverloadPolicy) -> Cell {
    let mut outcome = Experiment::new(config(rate_scale, policy)).run();
    let completed = outcome.tasks.len() as u64;
    let shed = outcome.shed.map(|s| s.tasks_shed).unwrap_or(0);
    Cell {
        // Tasks admitted past the arrival window still drain to completion,
        // so divide by the time the mission actually took, not the nominal
        // window: an unbounded backlog stretches the denominator and pins
        // goodput at capacity.
        goodput: completed as f64 / outcome.mission.duration_secs,
        shed_pct: 100.0 * shed as f64 / (completed + shed).max(1) as f64,
        p99_ms: outcome.p99_task_ms(),
        mean_queue_secs: outcome.tasks.management.mean(),
    }
}

/// Index of the knee: the first rate whose goodput gain over the
/// previous rate falls under 10% (goodput stopped scaling with load).
fn knee(cells: &[Cell]) -> usize {
    for i in 1..cells.len() {
        if cells[i].goodput < cells[i - 1].goodput * 1.10 {
            return i;
        }
    }
    cells.len() - 1
}

fn sweep() {
    banner("Overload sweep: saturation curves, unbounded vs bounded admission");
    let bounded_policy = || {
        OverloadPolicy::default()
            .queue_bound(16)
            .queue_deadline(SimDuration::from_secs(4))
    };
    let unbounded: Vec<Cell> = RATES
        .iter()
        .map(|&r| run_cell(r, OverloadPolicy::default()))
        .collect();
    let bounded: Vec<Cell> = RATES
        .iter()
        .map(|&r| run_cell(r, bounded_policy()))
        .collect();

    let mut table = Table::new([
        "offered load",
        "unb goodput/s",
        "unb p99 (ms)",
        "unb queue (s)",
        "bnd goodput/s",
        "bnd p99 (ms)",
        "bnd queue (s)",
        "bnd shed",
    ]);
    for (i, &rate) in RATES.iter().enumerate() {
        table.row([
            format!("{rate:.0}x"),
            format!("{:.1}", unbounded[i].goodput),
            format!("{:.0}", unbounded[i].p99_ms),
            format!("{:.2}", unbounded[i].mean_queue_secs),
            format!("{:.1}", bounded[i].goodput),
            format!("{:.0}", bounded[i].p99_ms),
            format!("{:.2}", bounded[i].mean_queue_secs),
            format!("{:.1}%", bounded[i].shed_pct),
        ]);
    }
    table.print();
    let k = knee(&bounded);
    println!(
        "(knee at {:.0}x offered load; queue bound 16, 4 s queueing deadline)",
        RATES[k]
    );

    // Unbounded baseline: queueing and p99 grow monotonically past the
    // knee — admitted work completes, but arbitrarily late.
    for i in (k.max(1))..RATES.len() {
        assert!(
            unbounded[i].p99_ms > unbounded[i - 1].p99_ms,
            "unbounded p99 must grow with load: {:.0} -> {:.0} ms at {}x",
            unbounded[i - 1].p99_ms,
            unbounded[i].p99_ms,
            RATES[i]
        );
        assert!(
            unbounded[i].mean_queue_secs > unbounded[i - 1].mean_queue_secs,
            "unbounded queueing must grow with load"
        );
    }
    // Bounded policy: goodput plateaus at capacity while p99 stays
    // bounded — the excess is shed at admission instead of queued.
    let peak = bounded.iter().map(|c| c.goodput).fold(0.0, f64::max);
    let last = bounded.last().unwrap();
    assert!(
        last.goodput >= 0.75 * peak,
        "bounded goodput must plateau, not collapse: {:.1}/s vs peak {:.1}/s",
        last.goodput,
        peak
    );
    assert!(
        last.p99_ms < unbounded.last().unwrap().p99_ms,
        "shedding must bound p99 below the unbounded baseline: {:.0} vs {:.0} ms",
        last.p99_ms,
        unbounded.last().unwrap().p99_ms
    );
    assert!(last.shed_pct > 0.0, "past the knee the bound must shed");
    // The admission bound + queueing deadline cap time spent waiting for
    // the cluster: bounded mean queueing must stay a small fraction of
    // the unbounded backlog at the top rate.
    assert!(
        last.mean_queue_secs < 0.5 * unbounded.last().unwrap().mean_queue_secs,
        "the deadline must cap queueing: {:.2} vs {:.2} s unbounded",
        last.mean_queue_secs,
        unbounded.last().unwrap().mean_queue_secs
    );

    banner("Breaker + brownout spillover under a function-fault storm");
    let storm = FaultPlan::default()
        .function_fault_rate(0.9)
        .retry(RetryPolicy::bounded(2, SimDuration::from_millis(20)));
    let base = ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration_secs(20.0)
        .seed(9)
        .plan(RunPlan::new().faults(storm));
    let no_breaker = Experiment::new(base.clone()).run();
    let with_breaker = Experiment::new(
        base.clone().plan(
            base.plan
                .clone()
                .overload(OverloadPolicy::default().breaker(3, SimDuration::from_secs(2))),
        ),
    )
    .run();
    let with_spillover = Experiment::new(
        base.clone().plan(
            base.plan.overload(
                OverloadPolicy::default()
                    .breaker(3, SimDuration::from_secs(2))
                    .spillover(),
            ),
        ),
    )
    .run();
    let mut table = Table::new(["policy", "completed", "lost", "shed", "spilled", "opens"]);
    for (label, o) in [
        ("retries only", &no_breaker),
        ("circuit breaker", &with_breaker),
        ("breaker + spillover", &with_spillover),
    ] {
        let lost = o.recovery.map(|r| r.tasks_lost).unwrap_or(0);
        let (shed, spilled, opens) = o
            .shed
            .map(|s| (s.invocations_shed, s.tasks_spilled, s.breaker_opens))
            .unwrap_or((0, 0, 0));
        table.row([
            label.to_string(),
            o.tasks.len().to_string(),
            lost.to_string(),
            shed.to_string(),
            spilled.to_string(),
            opens.to_string(),
        ]);
    }
    table.print();
    println!("(90% fault rate, 2 bounded retry attempts; breaker opens after 3");
    println!(" consecutive give-ups, 2 s cool-down, half-open probe to close)");
    let breaker_stats = with_breaker.shed.expect("breaker policy yields shed stats");
    assert!(
        breaker_stats.breaker_opens >= 1,
        "the fault storm must trip the breaker"
    );
    assert!(
        breaker_stats.shed_breaker > 0,
        "an open breaker must fail fast"
    );
    assert!(
        breaker_stats.breaker_open_secs > 0.0,
        "open time must accumulate"
    );
    let spill_stats = with_spillover
        .shed
        .expect("spillover policy yields shed stats");
    assert!(
        spill_stats.tasks_spilled > 0,
        "spillover must re-route breaker-shed tasks to the device"
    );
    assert!(
        with_spillover.tasks.len() > with_breaker.tasks.len(),
        "spillover must recover goodput the bare breaker sheds: {} vs {}",
        with_spillover.tasks.len(),
        with_breaker.tasks.len()
    );
}

/// Prints the outcome JSON of a saturated cluster, shed block included.
fn outcome_json() {
    // A saturated cluster under the full policy (bound + deadline +
    // breaker + spillover + ingress backpressure), through the replicate
    // runner so HIVEMIND_THREADS affects the execution schedule but must
    // not affect any byte of the output.
    let policy = OverloadPolicy::default()
        .queue_bound(8)
        .queue_deadline(SimDuration::from_secs(2))
        .breaker(3, SimDuration::from_secs(2))
        .spillover()
        .net_ingress_bound(8);
    let cfg = ExperimentConfig::single_app(App::Slam)
        .platform(Platform::CentralizedFaaS)
        .servers(1)
        .duration_secs(6.0)
        .rate_scale(4.0)
        .seed(5)
        .plan(RunPlan::new().overload(policy));
    let set = runner().run_replicates(&cfg, 3);
    for (seed, outcome) in set.seeds().iter().zip(set.outcomes()) {
        let s = outcome.shed.expect("active policy yields shed stats");
        assert!(s.invocations_shed > 0, "the saturated queue must shed");
        assert!(s.tasks_spilled > 0, "spillover must re-route shed tasks");
        assert_eq!(s.tasks_shed, 0, "spillover leaves no task abandoned");
        println!("seed {seed}: {}", outcome.to_json());
    }
}

fn main() {
    hivemind_bench::cli::Cli::from_env();
    sweep();
    outcome_json();
}
