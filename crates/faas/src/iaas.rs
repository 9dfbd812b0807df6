//! Statically provisioned (IaaS/PaaS) baseline.
//!
//! The paper's comparisons repeatedly include a "fixed" deployment:
//! reserved containers on a fixed number of cores, provisioned for either
//! the average or the worst-case load (Figs. 1, 5a, 5b). Tasks here pay no
//! per-invocation instantiation (the workers are long-lived) but the pool
//! cannot grow: when offered load exceeds the provisioned capacity, tasks
//! queue and latency explodes — exactly the saturation behaviour of the
//! "Avg Res" deployment in Fig. 5b.

use hivemind_sim::fifo::{Done, FifoServer};
use hivemind_sim::hash::DetHashMap;
use hivemind_sim::rng::RngForge;
use hivemind_sim::stats::TimeSeries;
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::TraceHandle;
use rand::rngs::SmallRng;

use crate::dataplane::{DataPlane, ExchangeProtocol};
use crate::types::{AppId, AppProfile, Completion, Invocation, LatencyBreakdown, Outcome};

/// How reserved workers hand data between stages. Its cost never reads
/// the clock, so an invocation's whole service time is drawn when it is
/// submitted.
const EXCHANGE: ExchangeProtocol = ExchangeProtocol::DirectRpc;

/// What an invocation carries through the worker queue: the parts of its
/// [`Completion`] that the queue does not time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Job {
    tag: u64,
    app: AppId,
    arrived: SimTime,
    data_io: SimDuration,
    exec: SimDuration,
}

/// A statically provisioned worker pool: a [`FifoServer`] over its
/// long-lived workers. Calls must come in non-decreasing `now` order (as
/// the engine makes them): the pool records its occupancy at every
/// submission and completion hand-out.
///
/// # Examples
///
/// ```rust
/// use hivemind_faas::iaas::FixedPool;
/// use hivemind_faas::types::{AppId, AppProfile, Invocation};
/// use hivemind_sim::rng::RngForge;
/// use hivemind_sim::time::SimTime;
///
/// let mut pool = FixedPool::new(1, RngForge::new(1));
/// pool.register_app(AppId(0), AppProfile::test_profile(1000.0));
/// pool.submit(SimTime::ZERO, Invocation::root(AppId(0), 1));
/// pool.submit(SimTime::ZERO, Invocation::root(AppId(0), 2));
/// let mut done = Vec::new();
/// while let Some(t) = pool.next_wakeup() {
///     pool.advance_into(t, &mut done);
/// }
/// // One worker: the second task queues behind the first.
/// assert!(done[1].latency() > done[0].latency());
/// ```
#[derive(Debug)]
pub struct FixedPool {
    workers: u32,
    apps: DetHashMap<AppId, AppProfile>,
    dataplane: DataPlane,
    rng: SmallRng,
    /// The workers and their wait queue; a job's id is its submission
    /// index, so same-instant finishes hand out in submission order.
    fifo: FifoServer<Job>,
    submitted: u64,
    /// Reusable hand-out buffer.
    done_scratch: Vec<Done<Job>>,
    active_series: TimeSeries,
    tracer: TraceHandle,
}

impl FixedPool {
    /// Creates a pool of `workers` long-lived worker slots (reserved
    /// cores).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: u32, forge: RngForge) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        FixedPool {
            workers,
            apps: DetHashMap::default(),
            dataplane: DataPlane::new(),
            rng: forge.stream("iaas-pool"),
            fifo: FifoServer::new(workers),
            submitted: 0,
            done_scratch: Vec::new(),
            active_series: TimeSeries::new(),
            tracer: TraceHandle::disabled(),
        }
    }

    /// Installs a tracing handle; the pool then samples `iaas/active` and
    /// `iaas/queued` counters at every submission and completion
    /// hand-out.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Records the running and waiting task counts at `now`.
    fn record_occupancy(&mut self, now: SimTime) {
        let load = self.fifo.load();
        let active = load.min(self.workers as usize);
        self.active_series.record(now, active as f64);
        if self.tracer.is_enabled() {
            self.tracer.counter("iaas", "active", 0, now, active as f64);
            self.tracer
                .counter("iaas", "queued", 0, now, (load - active) as f64);
        }
    }

    /// Registers an application profile.
    pub fn register_app(&mut self, app: AppId, profile: AppProfile) {
        self.apps.insert(app, profile);
    }

    /// Submits an invocation. Its data-in, execution and data-out costs
    /// are drawn now, in that order; it runs once a worker is free.
    ///
    /// # Panics
    ///
    /// Panics if the app was never registered.
    pub fn submit(&mut self, now: SimTime, inv: Invocation) {
        let Some(profile) = self.apps.get(&inv.app) else {
            panic!("app {:?} not registered", inv.app);
        };
        let data_in = if profile.input_bytes > 0 {
            self.dataplane
                .exchange(now, EXCHANGE, profile.input_bytes, &mut self.rng)
        } else {
            SimDuration::ZERO
        };
        let exec = profile.exec.sample(&mut self.rng);
        let data_out = if profile.output_bytes > 0 {
            self.dataplane
                .exchange(now, EXCHANGE, profile.output_bytes, &mut self.rng)
        } else {
            SimDuration::ZERO
        };
        let job = Job {
            tag: inv.tag,
            app: inv.app,
            arrived: now,
            data_io: data_in + data_out,
            exec,
        };
        self.fifo
            .submit(now, self.submitted, data_in + exec + data_out, job);
        self.submitted += 1;
        self.record_occupancy(now);
    }

    /// The earliest instant at which a worker frees or a result is due.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.fifo.next_wakeup()
    }

    /// Advances to `now`, appending finished completions to `out` in
    /// `(finished, submission)` order.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        // One finish instant at a time, so occupancy is recorded at the
        // instant each worker frees (not at `now`).
        while let Some(t) = self.fifo.next_wakeup().filter(|&t| t <= now) {
            self.fifo.advance_into(t, &mut self.done_scratch);
            out.extend(
                self.done_scratch
                    .drain(..)
                    .map(|(finished, _, queued, job)| Completion {
                        tag: job.tag,
                        app: job.app,
                        server: 0,
                        arrived: job.arrived,
                        finished,
                        breakdown: LatencyBreakdown {
                            queueing: queued,
                            data_io: job.data_io,
                            exec: job.exec,
                            ..LatencyBreakdown::default()
                        },
                        cold_start: false,
                        in_memory_exchange: false,
                        outcome: Outcome::Ok,
                    }),
            );
            self.record_occupancy(t);
        }
    }

    /// Tasks waiting for a worker.
    pub fn queued(&self) -> usize {
        self.fifo.load().saturating_sub(self.workers as usize)
    }

    /// Concurrently running tasks over time, sampled once per second,
    /// with the exact peak.
    pub fn active_series(&self) -> &TimeSeries {
        &self.active_series
    }

    /// Moves the running-task series out, leaving an empty one: for a
    /// caller assembling a finished run, which then owns the only copy.
    pub fn take_active_series(&mut self) -> TimeSeries {
        std::mem::take(&mut self.active_series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut FixedPool) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some(t) = p.next_wakeup() {
            p.advance_into(t, &mut done);
        }
        done
    }

    fn pool(workers: u32) -> FixedPool {
        let mut p = FixedPool::new(workers, RngForge::new(5));
        p.register_app(AppId(0), AppProfile::test_profile(100.0));
        p
    }

    #[test]
    fn no_instantiation_cost() {
        let mut p = pool(4);
        p.submit(SimTime::ZERO, Invocation::root(AppId(0), 0));
        let done = drain(&mut p);
        assert_eq!(done[0].breakdown.instantiation, SimDuration::ZERO);
        assert_eq!(done[0].breakdown.management, SimDuration::ZERO);
    }

    #[test]
    fn saturation_queues_fifo() {
        let mut p = pool(2);
        for tag in 0..6 {
            p.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let done = drain(&mut p);
        assert_eq!(done.len(), 6);
        // Three "waves" of two: latencies step up by ~100 ms per wave.
        let lat: Vec<f64> = done.iter().map(|c| c.latency().as_millis_f64()).collect();
        assert!(lat[5] > lat[0] * 2.5, "queueing must inflate: {lat:?}");
        assert!(done[5].breakdown.queueing > SimDuration::from_millis(150));
    }

    #[test]
    fn underload_matches_serverless_free_of_overheads() {
        let mut p = pool(8);
        let mut done = Vec::new();
        for tag in 0..8 {
            let at = SimTime::from_secs(tag);
            p.advance_into(at, &mut done);
            p.submit(at, Invocation::root(AppId(0), tag));
        }
        done.extend(drain(&mut p));
        for c in &done {
            assert!(
                c.latency() < SimDuration::from_millis(110),
                "unloaded fixed pool ≈ pure exec: {}",
                c.latency()
            );
        }
    }

    #[test]
    fn workers_free_at_exact_instants() {
        let mut p = pool(1);
        p.submit(SimTime::ZERO, Invocation::root(AppId(0), 0));
        p.submit(SimTime::ZERO, Invocation::root(AppId(0), 1));
        let done = drain(&mut p);
        let gap = (done[1].finished - done[0].finished).as_millis_f64();
        assert!(
            (gap - 100.0).abs() < 2.0,
            "back-to-back execution, gap {gap}"
        );
    }

    #[test]
    fn same_instant_arrival_queues_behind_waiting_work() {
        let mut p = pool(1);
        p.submit(SimTime::ZERO, Invocation::root(AppId(0), 0));
        p.submit(SimTime::ZERO, Invocation::root(AppId(0), 1));
        // Job 2 arrives at the instant job 0 frees the worker; job 1 has
        // waited for that worker since 0 and starts first.
        let first_free = p.next_wakeup().unwrap();
        p.submit(first_free, Invocation::root(AppId(0), 2));
        let done = drain(&mut p);
        let tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        assert_eq!(tags, [0, 1, 2]);
        assert_eq!(done[0].finished, first_free);
        assert_eq!(done[1].breakdown.queueing, first_free - SimTime::ZERO);
    }

    #[test]
    fn active_series_falls_to_zero_after_drain() {
        let mut p = pool(2);
        for tag in 0..5 {
            p.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let done = drain(&mut p);
        let last = done.last().unwrap().finished;
        assert_eq!(p.active_series().max(), 2.0);
        assert_eq!(p.active_series().value_at(last), Some(0.0));
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn active_series_bounded_by_workers() {
        let mut p = pool(3);
        for tag in 0..10 {
            p.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let _ = drain(&mut p);
        assert!(p.active_series().max() <= 3.0);
    }
}
