//! Overload-plane guarantees:
//!
//! 1. an all-defaults [`OverloadPolicy`] is inert — byte-identical
//!    metrics to a config that never mentions overload at all;
//! 2. shed, spillover, and breaker trace events appear in the JSONL
//!    trace and are byte-deterministic for a fixed seed regardless of
//!    runner thread count;
//! 3. invalid policies surface as [`ConfigError`]s from
//!    `Experiment::try_new` instead of panics deep inside the run.

use hivemind_core::prelude::*;
use hivemind_sim::overload as ov;

/// A one-server cluster at 4x load: the admission queue saturates and
/// the policy below sheds, spills, and (under the storm) breaks.
fn overloaded() -> ExperimentConfig {
    ExperimentConfig::single_app(App::Slam)
        .platform(Platform::CentralizedFaaS)
        .servers(1)
        .duration_secs(8.0)
        .rate_scale(4.0)
        .seed(13)
        .plan(
            RunPlan::new()
                .overload(
                    OverloadPolicy::default()
                        .queue_bound(8)
                        .queue_deadline(SimDuration::from_secs(2))
                        .spillover(),
                )
                .trace(true),
        )
}

#[test]
fn default_policy_is_inert() {
    let cfg = ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration(SimDuration::from_secs(10))
        .seed(3);
    let plain = Experiment::new(cfg.clone()).run();
    let gated = Experiment::new(cfg.plan(RunPlan::new().overload(OverloadPolicy::default()))).run();
    assert!(gated.shed.is_none(), "inert policy reports no shed stats");
    assert_eq!(plain.to_json(), gated.to_json());
}

#[test]
fn shed_and_spillover_events_appear_in_the_trace() {
    let outcome = Experiment::new(overloaded()).run();
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    let shed = trace.count("sched", ov::EV_SHED);
    let spilled = trace.count("task", "spillover");
    assert!(
        shed > 0,
        "the saturated queue must emit sched/shed instants"
    );
    assert!(spilled > 0, "spillover must emit task/spillover instants");
    let jsonl = trace.to_jsonl();
    assert!(
        jsonl.contains("\"shed\""),
        "shed events reach the JSONL export"
    );
    assert!(jsonl.contains("\"spillover\""));
    let s = outcome.shed.expect("active policy yields shed stats");
    assert_eq!(s.invocations_shed, shed as u64);
    assert_eq!(s.tasks_spilled, spilled as u64);
}

#[test]
fn breaker_events_appear_in_the_trace() {
    // A 90% fault storm under a give-up retry policy trips the breaker;
    // the cooldown then elapses within the run, so the half-open probe
    // and close transitions appear too.
    let outcome = Experiment::new(
        ExperimentConfig::single_app(App::FaceRecognition)
            .platform(Platform::CentralizedFaaS)
            .duration_secs(20.0)
            .seed(9)
            .plan(
                RunPlan::new()
                    .faults(
                        FaultPlan::default()
                            .function_fault_rate(0.9)
                            .retry(RetryPolicy::bounded(2, SimDuration::from_millis(20))),
                    )
                    .overload(OverloadPolicy::default().breaker(3, SimDuration::from_secs(2)))
                    .trace(true),
            ),
    )
    .run();
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    let opens = trace.count(ov::BREAKER_TRACE_CAT, ov::EV_BREAKER_OPEN);
    let half = trace.count(ov::BREAKER_TRACE_CAT, ov::EV_BREAKER_HALF_OPEN);
    assert!(opens > 0, "the storm must trip the breaker");
    assert!(half > 0, "the cooldown must elapse into a half-open probe");
    let s = outcome.shed.expect("active policy yields shed stats");
    assert_eq!(s.breaker_opens as usize, opens);
    assert!(s.shed_breaker > 0, "an open breaker fails fast");
}

#[test]
fn overload_traces_identical_across_thread_counts() {
    let seq = Runner::with_threads(1).run_replicates(&overloaded(), 3);
    let par = Runner::with_threads(4).run_replicates(&overloaded(), 3);
    let dump = |set: &RunSet| -> Vec<(u64, String, String)> {
        set.traces()
            .map(|(s, t)| (s, t.to_jsonl(), t.to_chrome_trace()))
            .collect()
    };
    assert_eq!(
        dump(&seq),
        dump(&par),
        "shed/breaker events must not depend on threads"
    );
    let outcomes: Vec<String> = seq.outcomes().iter().map(|o| o.to_json()).collect();
    let par_outcomes: Vec<String> = par.outcomes().iter().map(|o| o.to_json()).collect();
    assert_eq!(
        outcomes, par_outcomes,
        "shed stats must not depend on threads"
    );
}

#[test]
fn bad_overload_policies_are_rejected() {
    let err = Experiment::try_new(
        ExperimentConfig::single_app(App::FaceRecognition)
            .platform(Platform::CentralizedFaaS)
            .plan(RunPlan::new().overload(OverloadPolicy::default().net_ingress_bound(0))),
    )
    .expect_err("a zero ingress bound must be rejected");
    assert!(matches!(err, ConfigError::InvalidOverloadPolicy(_)));
    assert!(err.to_string().contains("ingress_bound"));
}
