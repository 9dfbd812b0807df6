//! Observability-layer guarantees:
//!
//! 1. traces are byte-deterministic — the same experiment produces the
//!    same JSONL/Chrome output no matter how many runner threads execute
//!    the replicate fan-out;
//! 2. enabling tracing never perturbs the simulation (identical metrics
//!    with tracing on and off);
//! 3. a short S1 run emits the expected event families (cold starts,
//!    placement decisions, queue-depth samples);
//! 4. the per-task phase spans sum to the breakdown the metrics layer
//!    reports for the same run.

use hivemind_core::prelude::*;
use hivemind_sim::stats::DurationSummary;

fn base() -> ExperimentConfig {
    ExperimentConfig::single_app(App::FaceRecognition)
        .platform(Platform::CentralizedFaaS)
        .duration(SimDuration::from_secs(10))
        .seed(11)
        .plan(RunPlan::new().trace(true))
}

#[test]
fn traces_identical_across_thread_counts() {
    let seq = Runner::with_threads(1).run_replicates(&base(), 3);
    let par = Runner::with_threads(4).run_replicates(&base(), 3);
    let seq_traces: Vec<(u64, String, String)> = seq
        .traces()
        .map(|(s, t)| (s, t.to_jsonl(), t.to_chrome_trace()))
        .collect();
    let par_traces: Vec<(u64, String, String)> = par
        .traces()
        .map(|(s, t)| (s, t.to_jsonl(), t.to_chrome_trace()))
        .collect();
    assert_eq!(seq_traces.len(), 3, "every replicate carries a trace");
    assert_eq!(seq_traces, par_traces, "traces must not depend on threads");
    // Replicates are genuinely distinct runs, not copies of one trace.
    assert_ne!(seq_traces[0].1, seq_traces[1].1);
}

#[test]
fn tracing_never_changes_the_metrics() {
    let traced = Experiment::new(base()).run();
    let plain = Experiment::new(base().plan(RunPlan::new())).run();
    assert!(traced.trace.is_some());
    assert!(plain.trace.is_none());
    assert_eq!(traced.to_json(), plain.to_json());
}

#[test]
fn short_serverless_run_emits_the_expected_event_families() {
    let outcome = Experiment::new(base()).run();
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    assert!(!trace.is_empty());
    assert!(trace.count("container", "cold_start") > 0, "cold starts");
    assert!(trace.count("sched", "placement") > 0, "placement decisions");
    assert!(trace.count("faas", "queued") > 0, "cluster queue depth");
    assert!(trace.count("net", "link.load") > 0, "link utilization");
    assert!(trace.count("net", "send") > 0, "fabric transfers");
    assert!(trace.count("task", "submit") > 0, "task lifecycle");
    // Every completed task gets exactly one overall span.
    assert_eq!(trace.count("task", "task"), outcome.tasks.len());
    // Events come out in timestamp order.
    let mut last = SimTime::ZERO;
    for ev in trace.events() {
        assert!(ev.ts >= last, "events sorted by timestamp");
        last = ev.ts;
    }
}

#[test]
fn hybrid_run_samples_edge_queues() {
    // Edge queue depth only exists where devices run work locally —
    // HiveMind's synthesized filter tier does.
    let outcome = Experiment::new(base().platform(Platform::HiveMind)).run();
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    assert!(trace.count("edge", "queue") > 0, "edge queue depth");
}

#[test]
fn phase_spans_sum_to_the_breakdown_totals() {
    // On the hybrid platform end-to-end latency also contains on-device
    // filter time that belongs to no breakdown phase, so the per-phase
    // match must hold there as much as on the all-cloud platform.
    for platform in [Platform::CentralizedFaaS, Platform::HiveMind] {
        let outcome = Experiment::new(base().platform(platform)).run();
        let trace = outcome.trace.as_ref().expect("tracing enabled");
        let sample_sum = |s: &DurationSummary| s.mean() * s.len() as f64;
        let tasks = &outcome.tasks;
        // The metrics layer folds instantiation into its management
        // summary (the paper's Fig. 3 convention); the trace keeps the
        // phases separate, so compare against the raw per-phase sums.
        let expected = [
            ("network", sample_sum(&tasks.network)),
            (
                "management",
                sample_sum(&tasks.management) - sample_sum(&tasks.instantiation),
            ),
            ("instantiation", sample_sum(&tasks.instantiation)),
            ("data_io", sample_sum(&tasks.data_io)),
            ("exec", sample_sum(&tasks.exec)),
        ];
        let mut any_nonzero = false;
        for (name, secs) in expected {
            let traced = trace.span_total("task", name).as_secs_f64();
            assert!(
                (traced - secs).abs() < 1e-6,
                "{platform:?}/{name}: trace {traced} s vs breakdown {secs} s"
            );
            any_nonzero |= secs > 0.0;
        }
        assert!(any_nonzero, "the run exercised at least one phase");
        // And the overall task spans sum to the total latency.
        let total = trace.span_total("task", "task").as_secs_f64();
        assert!((total - sample_sum(&tasks.total)).abs() < 1e-6);
    }
}
