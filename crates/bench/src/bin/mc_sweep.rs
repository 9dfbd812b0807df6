//! Model-checking sweep — exhaustive verification of the coordination
//! protocols under all fault schedules.
//!
//! Where the DES samples one fault schedule per seed, the checker in
//! `hivemind_sim::mc` enumerates *every* schedule the fault budgets
//! allow, checking the protocol invariants at each reachable state. This
//! binary drives the five lifted protocols from `hivemind_core::mc`
//! over their canonical small instances and reports the explored state
//! space:
//!
//! * **controller failover** — heartbeat detection + geometric
//!   repartitioning, with device crashes and a primary failover inside
//!   the 3 s detection window. Invariants: detection matches the
//!   specification mirror; live assignments always tile the field.
//! * **retry + circuit breaker** — bounded retries, give-up, breaker
//!   admission. Invariants: every breaker transition is legal per the
//!   specification monitor; queue bound; task conservation.
//! * **data exchange** — store/fetch sessions under duplication, loss,
//!   reordering and store crashes. Invariant: exactly-once execution.
//! * **sharded barrier merge** — the spatial engine's epoch protocol:
//!   shards consume under conservative lookahead and exchange boundary
//!   events at barriers. Invariants: no shard consumes past its horizon;
//!   the merged stream is totally ordered by `(time, shard, seq)`;
//!   every consumed event is merged or still staged.
//! * **disconnected operation** — lease-based autonomy with buffered
//!   replay: partitions expire the device's lease, updates accumulate in
//!   a bounded ring, and heals replay through a watermarked session.
//!   Invariants: exactly-once replay conservation; no spurious failure
//!   declaration for a device that was merely partitioned.
//!
//! A second section checks the lane's *bug-finding power*: seven planted
//! bugs (the historical orphan-dropping failover, a breaker that skips
//! half-open, an exchange without response dedup, a barrier that
//! concatenates batches in shard order, a shard that consumes one
//! lookahead past the epoch horizon, a replay session without watermark
//! dedup, a controller that skips reconnect grace) must each produce a
//! minimal counterexample that replays, step by step, to the identical
//! violation.
//!
//! The checker is a pure function of the model — FNV-fingerprint dedup,
//! canonical action order, no wall clock — so every number and schedule
//! printed here is byte-deterministic, whichever worker of the replicate
//! runner explores it; the golden pins the output across
//! `HIVEMIND_THREADS` values. The default run checks the exchange
//! protocol on two sessions (about 0.4 M states, a second); `--full` (or
//! `HIVEMIND_FULL=1`) on three (about 10 M states, half a minute).

use hivemind_bench::{banner, runner, Table};
use hivemind_core::mc::{
    disconnect_instance, disconnect_no_dedup_mutant, disconnect_no_grace_mutant, exchange_instance,
    exchange_mutant, exchange_smoke_instance, failover_instance, failover_legacy_instance,
    replay_schedule, retry_breaker_instance, retry_breaker_mutant, shard_eager_mutant,
    shard_merge_instance, shard_merge_mutant,
};
use hivemind_sim::mc::{check, McConfig, McModel, McStats, Schedule};

fn cfg(max_depth: usize) -> McConfig {
    McConfig {
        max_depth,
        ..McConfig::default()
    }
}

/// Explores `model` and asserts the exploration was exhaustive (neither
/// the depth bound nor the state cap cut anything off) and violation
/// free.
fn verify<M: McModel>(name: &str, model: &M, config: &McConfig) -> McStats {
    let report = check(model, config);
    if let Some(v) = &report.violation {
        panic!(
            "{name}: unexpected violation at depth {}: {}\n{}",
            v.depth, v.message, v.schedule
        );
    }
    assert!(
        !report.stats.truncated,
        "{name}: exploration truncated (depth {} / {} states) — not exhaustive",
        config.max_depth, config.max_states
    );
    report.stats
}

fn stats_row(name: &str, stats: &McStats) -> [String; 7] {
    [
        name.to_string(),
        stats.states.to_string(),
        stats.transitions.to_string(),
        stats.deduped.to_string(),
        stats.max_depth.to_string(),
        stats.terminals.to_string(),
        "0".to_string(),
    ]
}

/// Checks one planted bug: the violation is found, its counterexample
/// replays to the identical violation at the final step, and the fixed
/// twin survives the exact same schedule (the protocols share their
/// action vocabulary with their mutants).
/// Returns the rendered report.
fn catch<M: McModel>(
    name: &str,
    invariant: &str,
    buggy: impl Fn() -> M,
    depth: usize,
    check_fixed: impl FnOnce(&Schedule<M::Action>),
) -> String {
    let report = check(&buggy(), &cfg(depth));
    let v = report
        .violation
        .unwrap_or_else(|| panic!("{name}: the planted bug must be caught"));
    assert!(
        v.message.contains(invariant),
        "{name}: wrong invariant tripped: {}",
        v.message
    );
    let (step, message) = replay_schedule(buggy(), &v.schedule)
        .unwrap_or_else(|| panic!("{name}: replay must reproduce the violation"));
    assert_eq!(
        (step, &message),
        (v.schedule.len() - 1, &v.message),
        "{name}: replay must fail at the final step with the same message"
    );
    check_fixed(&v.schedule);
    // The wording, "replayed through the DES engine" included, is
    // pinned by the `mc_sweep` golden.
    format!(
        "{name}\n  violation: {}\n  minimal counterexample ({} steps):\n{}\
         \n  replayed through the DES engine: step {step}, same violation; \
         the fixed protocol survives the schedule\n",
        v.message, v.depth, v.schedule
    )
}

/// Checks planted bug `index` (0–6) and returns its rendered report.
fn planted_bug(index: usize) -> String {
    match index {
        0 => catch(
            "failover: orphaned strips died with their heir (pre-fix controller)",
            "task conservation",
            failover_legacy_instance,
            24,
            |s| assert_eq!(replay_schedule(failover_instance(), s), None),
        ),
        1 => catch(
            "breaker: cool-down expiry skipped the half-open probe phase",
            "breaker legality",
            retry_breaker_mutant,
            24,
            |s| assert_eq!(replay_schedule(retry_breaker_instance(), s), None),
        ),
        2 => catch(
            "exchange: duplicated FetchResp ran the child twice (dedup off)",
            "double execution",
            exchange_mutant,
            14,
            |s| assert_eq!(replay_schedule(exchange_smoke_instance(), s), None),
        ),
        3 => catch(
            "shard merge: barrier concatenated batches in shard order",
            "merge order",
            shard_merge_mutant,
            16,
            |s| assert_eq!(replay_schedule(shard_merge_instance(), s), None),
        ),
        4 => catch(
            "shard horizon: a shard consumed one lookahead past the epoch",
            "lookahead horizon",
            shard_eager_mutant,
            16,
            |s| assert_eq!(replay_schedule(shard_merge_instance(), s), None),
        ),
        5 => catch(
            "reconnect replay: watermark dedup off, duplicates re-delivered",
            "exactly-once replay",
            disconnect_no_dedup_mutant,
            24,
            |s| assert_eq!(replay_schedule(disconnect_instance(), s), None),
        ),
        _ => catch(
            "reconnect grace: heal without re-arm read silence as death",
            "spurious failure declaration",
            disconnect_no_grace_mutant,
            24,
            |s| assert_eq!(replay_schedule(disconnect_instance(), s), None),
        ),
    }
}

/// Explores protocol `index` (0–4) exhaustively and returns its stats
/// table row. `full` swaps the 2-session exchange instance for the
/// 3-session one (about 10 M states).
fn protocol_row(index: usize, full: bool) -> [String; 7] {
    match index {
        0 => stats_row(
            "controller failover",
            &verify("failover", &failover_instance(), &cfg(24)),
        ),
        1 => stats_row(
            "retry + circuit breaker",
            &verify("retry+breaker", &retry_breaker_instance(), &cfg(24)),
        ),
        2 => {
            let (label, model) = if full {
                ("data exchange (3 sessions)", exchange_instance())
            } else {
                ("data exchange (2 sessions)", exchange_smoke_instance())
            };
            let config = McConfig {
                max_depth: 40,
                max_states: 30_000_000,
            };
            stats_row(label, &verify("exchange", &model, &config))
        }
        3 => stats_row(
            "sharded barrier merge (3 shards)",
            &verify("shard merge", &shard_merge_instance(), &cfg(16)),
        ),
        _ => stats_row(
            "disconnected operation",
            &verify("disconnect", &disconnect_instance(), &cfg(24)),
        ),
    }
}

fn main() {
    let full = hivemind_bench::cli::Cli::from_env().full();
    // Every exploration fans out across the replicate runner's workers:
    // HIVEMIND_THREADS changes the execution schedule but must not change
    // one byte of this output.
    let runner = runner();
    banner("Model checking: exhaustive exploration under all fault schedules");
    let mut table = Table::new([
        "protocol",
        "states",
        "transitions",
        "deduped",
        "diameter",
        "terminals",
        "violations",
    ]);
    for row in runner.map(&[0, 1, 2, 3, 4], |_, &i| protocol_row(i, full)) {
        table.row(row);
    }
    table.print();
    println!("(2 servers / 1 controller / 3 tasks per protocol; every fault");
    println!(" schedule within the crash/drop/duplicate/failover budgets;");
    println!(" the shard protocol explores every consume/barrier interleaving;");
    println!(" the disconnect protocol every partition/heal/replay schedule)");

    banner("Planted bugs: each must yield a replayable minimal counterexample");
    for rendered in runner.map(&[0, 1, 2, 3, 4, 5, 6], |_, &i| planted_bug(i)) {
        println!("{rendered}");
    }
}
