//! The traced run: per-layer metrics for one workload, measured from
//! outside the program in three parts.
//!
//! - The workload itself, run with `Engine::enable_profiling()` (engine
//!   driven) or with spans around its public calls (experiment driven),
//!   after an untraced run of the same inputs; the two walls give the
//!   tracing overhead.
//! - Standalone probes of `net::fabric`, `faas::cluster` and the stats
//!   layer, sized to `cloud_offload`.
//! - The scaling rows: fleet size, shard count and runner threads.
//!
//! The probes and scaling rows do not depend on the workload. They are
//! measured again in every traced run, so that each traced run reports
//! every per-layer metric.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hivemind_apps::suite::App;
use hivemind_core::engine::{Engine, PhaseBreakdown, TaskRecord};
use hivemind_core::experiment::ExperimentConfig;
use hivemind_core::metrics::{BreakdownSummary, Outcome};
use hivemind_faas::cluster::Cluster;
use hivemind_faas::types::{AppProfile, Invocation};
use hivemind_net::fabric::{Fabric, Transfer};
use hivemind_net::topology::{Node, Topology, TopologyParams};
use hivemind_sim::rng::RngForge;

use crate::report::Metrics;
use crate::trace::Spans;
use crate::workloads::{
    engine_config_of, experiment_configs, grid_configs, mission_config, mission_shards, nproc,
    run_engine, run_experiments, single_app_arrivals, Arrival, EngineRun, EngineShape, Workload,
};

/// Measures every per-layer metric for `w`, recording spans into `spans`.
/// Fails if any output check fails, including the shard- and
/// thread-invariance of the output digests.
pub fn traced_run(
    w: Workload,
    seed: u64,
    smoke: bool,
    spans: &mut Spans,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let root = spans.enter(w.name());
    let mission_engine = shared_rows(seed, smoke, spans, &mut m)?;
    own_rows(w, seed, smoke, &mission_engine, spans, &mut m)?;
    spans.exit(root);
    Ok(m)
}

/// Phase timers and counters summed over one or more profiled engines.
#[derive(Debug, Default)]
struct EngineTally {
    phases: PhaseBreakdown,
    events: u64,
    run_s: f64,
}

impl EngineTally {
    fn add(&mut self, run: &EngineRun) {
        let p = run.engine.phase_breakdown();
        let t = &mut self.phases;
        t.shard_ns += p.shard_ns;
        t.merge_ns += p.merge_ns;
        t.hub_ns += p.hub_ns;
        t.queue_ops += p.queue_ops;
        t.rng_draws += p.rng_draws;
        t.merge_elems += p.merge_elems;
        t.exchange_effects += p.exchange_effects;
        t.exchange_epochs += p.exchange_epochs;
        self.events += run.engine.events_processed();
        self.run_s += run.run.as_secs_f64();
    }

    /// The serial hub's share of the profiled phase time.
    fn hub_share(&self) -> f64 {
        let p = &self.phases;
        let total = p.shard_ns + p.merge_ns + p.hub_ns;
        if total == 0 {
            0.0
        } else {
            p.hub_ns as f64 / total as f64
        }
    }

    fn push(&self, m: &mut Metrics) {
        let p = &self.phases;
        let ms = |ns: u64| ns as f64 / 1e6;
        m.push("engine.shard_ms", ms(p.shard_ns), "ms");
        m.push("engine.hub_ms", ms(p.hub_ns), "ms");
        m.push("engine.hub_share", self.hub_share(), "ratio");
        m.push("engine.merge_ms", ms(p.merge_ns), "ms");
        m.push("engine.merge_elems", p.merge_elems as f64, "count");
        m.push(
            "engine.exchange_effects",
            p.exchange_effects as f64,
            "count",
        );
        m.push("engine.exchange_epochs", p.exchange_epochs as f64, "count");
        m.push("engine.events", self.events as f64, "count");
        m.push(
            "engine.events_per_s",
            self.events as f64 / self.run_s,
            "events/s",
        );
        m.push("engine.queue_ops", p.queue_ops as f64, "count");
        m.push("engine.rng_draws", p.rng_draws as f64, "count");
    }
}

/// Exact simulated counters of the network, the cluster and the planes.
#[derive(Debug, Default)]
struct Exact {
    edge_mb: f64,
    packets_lost: u64,
    transfers_held: u64,
    transfers_dropped: u64,
    backpressure_holds: u64,
    warm_hits: u64,
    cold_misses: u64,
    invocations_shed: u64,
    invocations_rescheduled: u64,
    tasks_spilled: u64,
    tasks_degraded: u64,
    updates_replayed: u64,
    updates_expired: u64,
    tasks_lost: u64,
}

impl Exact {
    fn of_engine(e: &Engine) -> Exact {
        let net = e.fabric().fault_stats();
        let reconnect = e.reconnect_ledger();
        let mut exact = Exact {
            edge_mb: e.fabric().edge_bytes_total() / 1e6,
            packets_lost: net.packets_lost,
            transfers_held: net.transfers_held,
            transfers_dropped: net.transfers_dropped,
            backpressure_holds: e.fabric().backpressure_holds(),
            tasks_spilled: e.shed_ledger().tasks_spilled,
            tasks_degraded: reconnect.tasks_degraded,
            updates_replayed: reconnect.updates_replayed,
            updates_expired: reconnect.updates_expired,
            tasks_lost: e.fault_ledger().tasks_lost,
            ..Exact::default()
        };
        if let Some(c) = e.cluster() {
            (exact.warm_hits, exact.cold_misses) = c.container_stats();
            exact.invocations_shed = c.overload_counters().shed_total();
            exact.invocations_rescheduled = c.crash_stats().invocations_rescheduled;
        }
        exact
    }

    fn add_outcome(&mut self, o: &Outcome) {
        self.edge_mb += o.bandwidth.total_mb;
        self.warm_hits += o.container_stats.0;
        self.cold_misses += o.container_stats.1;
        if let Some(r) = o.recovery {
            self.packets_lost += r.packets_lost;
            self.transfers_held += r.transfers_held;
            self.invocations_rescheduled += r.invocations_rescheduled;
            self.tasks_lost += r.tasks_lost;
        }
        if let Some(s) = o.shed {
            self.backpressure_holds += s.net_holds;
            self.invocations_shed += s.invocations_shed;
            self.tasks_spilled += s.tasks_spilled;
        }
        if let Some(r) = o.reconnect {
            self.transfers_dropped += r.transfers_dropped;
            self.tasks_degraded += r.tasks_degraded;
            self.updates_replayed += r.updates_replayed;
            self.updates_expired += r.updates_expired;
        }
    }

    fn push(&self, m: &mut Metrics) {
        m.push("net.edge_mb", self.edge_mb, "MB");
        for (name, count) in [
            ("net.packets_lost", self.packets_lost),
            ("net.transfers_held", self.transfers_held),
            ("net.transfers_dropped", self.transfers_dropped),
            ("net.backpressure_holds", self.backpressure_holds),
            ("faas.warm_hits", self.warm_hits),
            ("faas.cold_misses", self.cold_misses),
            ("faas.invocations_shed", self.invocations_shed),
            ("faas.invocations_rescheduled", self.invocations_rescheduled),
            ("planes.tasks_spilled", self.tasks_spilled),
            ("planes.tasks_degraded", self.tasks_degraded),
            ("planes.updates_replayed", self.updates_replayed),
            ("planes.updates_expired", self.updates_expired),
            ("planes.tasks_lost", self.tasks_lost),
        ] {
            m.push(name, count as f64, "count");
        }
    }
}

/// The simulated model's own results: they must not move under a PR that
/// only changes host speed.
fn push_model(m: &mut Metrics, tasks: &BreakdownSummary, mission_s: f64) {
    m.push("sim.tasks", tasks.len() as f64, "count");
    m.push("sim.task_p50_ms", tasks.total.median() * 1e3, "ms");
    m.push("sim.task_p99_ms", tasks.total.p99() * 1e3, "ms");
    m.push("sim.network_frac", tasks.network_fraction(), "ratio");
    m.push("sim.mgmt_frac", tasks.management_fraction(), "ratio");
    m.push("sim.mission_s", mission_s, "s");
}

fn push_overhead(m: &mut Metrics, traced: Duration, plain: Duration) {
    let pct = (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0;
    m.push("trace.overhead_pct", pct, "%");
}

fn same_digest(a: u64, b: u64, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: digest {a:016x} != {b:016x}"))
    }
}

fn summarize(records: &[TaskRecord]) -> BreakdownSummary {
    let mut tasks = BreakdownSummary::default();
    for r in records {
        tasks.record(r);
    }
    tasks
}

/// The workload's own rows: its engine, its exact counters, its simulated
/// results and the tracing overhead.
fn own_rows(
    w: Workload,
    seed: u64,
    smoke: bool,
    mission_engine: &EngineTally,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut quiet = Spans::off();
    if let Some(shape) = EngineShape::of(w, smoke) {
        let arrivals = shape.arrivals(seed);
        // At nproc shards first: the shard-invariance check, and a warm-up
        // for the untraced/traced pair that follows.
        let sharded = run_engine(shape.config(seed, nproc()), &arrivals, false, &mut quiet);
        sharded.check(arrivals.len())?;
        let expect = sharded.digest();
        drop(sharded);
        let plain = run_engine(shape.config(seed, 1), &arrivals, false, &mut quiet);
        same_digest(expect, plain.digest(), "1 shard against nproc shards")?;
        let plain_wall = plain.setup + plain.run;
        drop(plain);
        let traced = run_engine(shape.config(seed, 1), &arrivals, true, spans);
        let span = spans.enter("assembly");
        traced.check(arrivals.len())?;
        let tasks = summarize(&traced.records);
        let digest = traced.digest();
        spans.exit(span);
        same_digest(expect, digest, "profiled run")?;
        push_overhead(m, traced.setup + traced.run, plain_wall);
        let mut tally = EngineTally::default();
        tally.add(&traced);
        tally.push(m);
        Exact::of_engine(&traced.engine).push(m);
        push_model(m, &tasks, traced.last_done_s());
        return Ok(());
    }
    let configs = experiment_configs(w, seed, smoke);
    let plain = run_experiments(&configs, nproc(), &mut quiet);
    plain.check(&configs)?;
    let (expect, plain_wall) = (plain.digest(), plain.wall);
    drop(plain);
    let traced = run_experiments(&configs, nproc(), spans);
    let span = spans.enter("assembly");
    traced.check(&configs)?;
    let mut tasks = BreakdownSummary::default();
    let mut exact = Exact::default();
    let mut mission_s = 0.0;
    for o in &traced.outcomes {
        tasks.merge(&o.tasks);
        exact.add_outcome(o);
        mission_s += o.mission.duration_secs;
    }
    let digest = traced.digest();
    spans.exit(span);
    same_digest(expect, digest, "traced run")?;
    push_overhead(m, traced.wall, plain_wall);
    match w {
        Workload::FigGrid => grid_replica(&configs, &traced.outcomes, spans)?.push(m),
        _ => mission_engine.push(m),
    }
    exact.push(m);
    push_model(m, &tasks, mission_s);
    Ok(())
}

/// `Experiment::run` keeps its engine to itself, so the grid's engine rows
/// come from replaying each single-app configuration on a profiled engine
/// built from the same public configuration and arrivals. The replay must
/// reproduce the experiment's task latencies exactly.
fn grid_replica(
    configs: &[ExperimentConfig],
    outcomes: &[Outcome],
    spans: &mut Spans,
) -> Result<EngineTally, String> {
    let span = spans.enter("replica");
    let mut quiet = Spans::off();
    let mut tally = EngineTally::default();
    for (i, (cfg, o)) in configs.iter().zip(outcomes).enumerate() {
        let run = run_engine(
            engine_config_of(cfg),
            &single_app_arrivals(cfg),
            true,
            &mut quiet,
        );
        let tasks = summarize(&run.records);
        let same = tasks.total == o.tasks.total
            && tasks.network == o.tasks.network
            && tasks.management == o.tasks.management
            && tasks.instantiation == o.tasks.instantiation
            && tasks.data_io == o.tasks.data_io
            && tasks.exec == o.tasks.exec;
        if !same {
            return Err(format!("engine replay of experiment {i} diverged"));
        }
        tally.add(&run);
    }
    spans.exit(span);
    Ok(tally)
}

/// Probes and scaling rows shared by every traced run. Returns the
/// profiled engine that stands in for `mission_4096`'s hidden one: the
/// mission's fleet shape at its shard count, under `cloud_offload`'s
/// arrivals.
fn shared_rows(
    seed: u64,
    smoke: bool,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<EngineTally, String> {
    let secs = if smoke { 10 } else { 120 };
    let mut largest = None;
    for (label, devices) in [("d256", 256), ("d1024", 1024), ("d2048", 2048)] {
        let shape = EngineShape::offload(if smoke { devices / 32 } else { devices }, secs);
        let arrivals = shape.arrivals(seed);
        let span = spans.enter(&format!("scale.{label}"));
        let run = run_engine(shape.config(seed, 1), &arrivals, false, spans);
        spans.exit(span);
        run.check(arrivals.len())?;
        let ns = run.run.as_nanos() as f64 / run.engine.events_processed().max(1) as f64;
        m.push(format!("scale.ns_per_event.{label}"), ns, "ns/event");
        largest = Some((shape, arrivals, run.records));
    }
    let (shape, mut arrivals, records) = largest.expect("three fleet sizes ran");

    arrivals.sort_by_key(|a| (a.at, a.device));
    let span = spans.enter("probe.net");
    let ns = net_probe(&shape, &arrivals)?;
    spans.exit(span);
    m.push("net.probe_ns_per_transfer", ns, "ns/transfer");
    let span = spans.enter("probe.faas");
    let ns = faas_probe(&shape, &arrivals, seed)?;
    spans.exit(span);
    m.push("faas.probe_ns_per_invocation", ns, "ns/invocation");
    let span = spans.enter("probe.stats");
    let (ns, quantile_ms) = stats_probe(&records);
    spans.exit(span);
    m.push("stats.probe_ns_per_record", ns, "ns/record");
    m.push("stats.probe_quantile_ms", quantile_ms, "ms");

    let shards = mission_shards();
    let single = [mission_config(seed, smoke, 1)];
    let sharded = [mission_config(seed, smoke, shards)];
    let span = spans.enter("scale.mission_1shard");
    let one = run_experiments(&single, 1, spans);
    spans.exit(span);
    let span = spans.enter("scale.mission_sharded");
    let many = run_experiments(&sharded, 1, spans);
    spans.exit(span);
    one.check(&single)?;
    many.check(&sharded)?;
    same_digest(
        one.digest(),
        many.digest(),
        "mission at 1 shard against nproc",
    )?;
    m.push("scale.wall_1shard_s", one.wall.as_secs_f64(), "s");
    m.push(
        "scale.shard_speedup",
        one.wall.as_secs_f64() / many.wall.as_secs_f64(),
        "x",
    );
    let proxy = EngineShape::offload(single[0].devices, if smoke { 10 } else { 30 });
    let proxy_arrivals = proxy.arrivals(seed);
    let span = spans.enter("scale.mission_engine");
    let run = run_engine(proxy.config(seed, shards), &proxy_arrivals, true, spans);
    spans.exit(span);
    run.check(proxy_arrivals.len())?;
    let mut mission_engine = EngineTally::default();
    mission_engine.add(&run);
    let hub = mission_engine.hub_share();
    m.push(
        "scale.amdahl_ceiling",
        1.0 / (hub + (1.0 - hub) / shards as f64),
        "x",
    );

    let configs = grid_configs(seed, smoke);
    let span = spans.enter("scale.grid_1thread");
    let one = run_experiments(&configs, 1, spans);
    spans.exit(span);
    let span = spans.enter("scale.grid_nproc");
    let many = run_experiments(&configs, nproc(), spans);
    spans.exit(span);
    one.check(&configs)?;
    many.check(&configs)?;
    same_digest(
        one.digest(),
        many.digest(),
        "grid at 1 thread against nproc",
    )?;
    m.push("runner.wall_1thread_s", one.wall.as_secs_f64(), "s");
    m.push(
        "runner.parallel_eff",
        one.wall.as_secs_f64() / (nproc() as f64 * many.wall.as_secs_f64()),
        "ratio",
    );
    Ok(mission_engine)
}

/// Per-app payloads as `Engine::new` registers them: the hybrid platforms
/// upload only the filtered share of each frame.
fn payloads(shape: &EngineShape) -> [(u64, u64); App::ALL.len()] {
    App::ALL.map(|app| {
        let p = app.cloud_profile();
        let upload = (p.input_bytes as f64 * shape.platform.upload_fraction()) as u64;
        (upload, p.output_bytes)
    })
}

/// Drives a standalone fabric with `cloud_offload`'s traffic: every
/// arrival uploads its app's payload from its device to the next server in
/// turn, and every delivered upload sends the app's output back. Returns
/// host nanoseconds per transfer.
fn net_probe(shape: &EngineShape, by_time: &[Arrival]) -> Result<f64, String> {
    let mut fabric = Fabric::new(Topology::new(TopologyParams {
        devices: shape.devices,
        servers: shape.servers,
        ..TopologyParams::default()
    }));
    let bytes = payloads(shape);
    let mut deliveries = Vec::new();
    let (mut sent, mut delivered, mut next) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    loop {
        let wake = fabric.next_wakeup();
        let send = match (by_time.get(next), wake) {
            (Some(a), Some(w)) => a.at < w,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if send {
            let a = by_time[next];
            let app = a.app.app_id().0 as u64;
            fabric.send(
                a.at,
                Transfer {
                    src: Node::Device(a.device),
                    dst: Node::Server(next as u32 % shape.servers),
                    bytes: bytes[app as usize].0,
                    tag: app,
                },
            );
            sent += 1;
            next += 1;
        } else if let Some(w) = wake {
            fabric.advance_into(w, &mut deliveries);
            for d in deliveries.drain(..) {
                delivered += 1;
                if let (Node::Device(_), Node::Server(_)) = (d.src, d.dst) {
                    fabric.send(
                        w,
                        Transfer {
                            src: d.dst,
                            dst: d.src,
                            bytes: bytes[d.tag as usize].1,
                            tag: d.tag,
                        },
                    );
                    sent += 1;
                }
            }
        } else {
            break;
        }
    }
    let elapsed = start.elapsed();
    if delivered != sent || sent != 2 * by_time.len() as u64 {
        return Err(format!(
            "net probe: {} arrivals, {sent} transfers sent, {delivered} delivered",
            by_time.len()
        ));
    }
    Ok(elapsed.as_nanos() as f64 / sent as f64)
}

/// Drives a standalone cluster configured as `Engine::new` configures it
/// for `cloud_offload` (the platform's parameters, the sharded scheduler,
/// the raised concurrency limit, the apps' real profiles), submitting one
/// invocation per arrival at its capture time. Returns host nanoseconds
/// per invocation.
fn faas_probe(shape: &EngineShape, by_time: &[Arrival], seed: u64) -> Result<f64, String> {
    let cores = shape.config(seed, 1).cores_per_server;
    let mut params = shape
        .platform
        .cluster_params(shape.servers, cores, 0.0)
        .ok_or("faas probe: the platform runs no cluster")?;
    if shape.platform.is_hybrid() {
        params.scheduler_shards = shape.devices.div_ceil(200).max(1);
    }
    params.max_concurrent = params.max_concurrent.max(shape.devices * 2);
    let mut cluster = Cluster::new(params, RngForge::new(seed).child("cluster"));
    let bytes = payloads(shape);
    for &app in shape.apps {
        let profile = AppProfile {
            input_bytes: bytes[app.app_id().0 as usize].0,
            ..app.cloud_profile()
        };
        cluster.register_app(app.app_id(), profile);
    }
    let mut done = Vec::new();
    let (mut completed, mut next) = (0usize, 0usize);
    let start = Instant::now();
    loop {
        let wake = cluster.next_wakeup();
        let submit = match (by_time.get(next), wake) {
            (Some(a), Some(w)) => a.at < w,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if submit {
            let a = by_time[next];
            cluster.submit(a.at, Invocation::root(a.app.app_id(), next as u64));
            next += 1;
        } else if let Some(w) = wake {
            cluster.advance_into(w, &mut done);
            completed += done.len();
            done.clear();
        } else {
            break;
        }
    }
    let elapsed = start.elapsed();
    if completed != by_time.len() {
        return Err(format!(
            "faas probe: {} invocations submitted, {completed} completed",
            by_time.len()
        ));
    }
    Ok(elapsed.as_nanos() as f64 / completed as f64)
}

/// Times `BreakdownSummary::record` over `records`, then the p50 and p99
/// of each of its six summaries (the first query of each sorts it).
/// Returns host nanoseconds per record and milliseconds for the queries.
fn stats_probe(records: &[TaskRecord]) -> (f64, f64) {
    let start = Instant::now();
    let mut tasks = BreakdownSummary::default();
    for r in records {
        tasks.record(black_box(r));
    }
    let recorded = start.elapsed();
    let start = Instant::now();
    for s in [
        &tasks.total,
        &tasks.network,
        &tasks.management,
        &tasks.instantiation,
        &tasks.data_io,
        &tasks.exec,
    ] {
        black_box((s.median(), s.p99()));
    }
    let queried = start.elapsed();
    (
        recorded.as_nanos() as f64 / records.len().max(1) as f64,
        queried.as_secs_f64() * 1e3,
    )
}
