//! Regression tests for the model-checking lane's replay contract:
//! a checker-emitted counterexample schedule, replayed step by step,
//! reproduces the same violation — same step, same message,
//! byte-for-byte — at any worker count. The checker and replay are pure
//! functions of the action sequence, so `HIVEMIND_THREADS` (which fans
//! the protocol checks across workers here, exactly as a CI sweep
//! would) must change wall-clock time and nothing else.

use hivemind_core::mc::{
    exchange_mutant, failover_legacy_instance, replay_schedule, retry_breaker_mutant,
};
use hivemind_core::runner::Runner;
use hivemind_sim::mc::{check, McConfig, McModel};

fn cfg(max_depth: usize) -> McConfig {
    McConfig {
        max_depth,
        ..McConfig::default()
    }
}

/// Checks one buggy protocol instance, replays its counterexample, and
/// renders everything observable about the result into one string.
fn hunt<M: McModel>(name: &str, make: impl Fn() -> M, depth: usize) -> String {
    let report = check(&make(), &cfg(depth));
    let v = report
        .violation
        .unwrap_or_else(|| panic!("{name}: the planted bug must be caught"));
    let replayed = replay_schedule(make(), &v.schedule)
        .unwrap_or_else(|| panic!("{name}: replay must reproduce the violation"));
    assert_eq!(
        replayed,
        (v.schedule.len() - 1, v.message.clone()),
        "{name}: replay must fail at the final step with the same message"
    );
    format!(
        "{name}: {} at depth {}\n{}replayed at step {} with: {}\n",
        v.message, v.depth, v.schedule, replayed.0, replayed.1
    )
}

/// One renderable unit of work per buggy protocol instance.
fn hunt_protocol(which: usize) -> String {
    match which {
        0 => hunt("failover/orphan-drop", failover_legacy_instance, 24),
        1 => hunt("breaker/skip-half-open", retry_breaker_mutant, 24),
        _ => hunt("exchange/no-dedup", exchange_mutant, 14),
    }
}

#[test]
fn counterexamples_replay_identically_across_thread_counts() {
    let jobs = [0usize, 1, 2];
    let sequential = Runner::with_threads(1).map(&jobs, |_, &j| hunt_protocol(j));
    let parallel = Runner::with_threads(8).map(&jobs, |_, &j| hunt_protocol(j));
    assert_eq!(
        sequential, parallel,
        "checker + replay output must be byte-identical at any worker count"
    );

    // The env-var path (what CI sets) must behave exactly like the
    // explicit worker counts. Process-global state: both settings are
    // exercised inside this single test, then cleaned up.
    std::env::set_var("HIVEMIND_THREADS", "1");
    let env_one = Runner::from_env().map(&jobs, |_, &j| hunt_protocol(j));
    std::env::set_var("HIVEMIND_THREADS", "8");
    let env_eight = Runner::from_env().map(&jobs, |_, &j| hunt_protocol(j));
    std::env::remove_var("HIVEMIND_THREADS");
    assert_eq!(sequential, env_one);
    assert_eq!(sequential, env_eight);

    // And the schedules are genuinely non-trivial.
    for rendered in &sequential {
        assert!(rendered.contains("replayed at step"));
    }
}
