//! Statically provisioned (IaaS/PaaS) baseline.
//!
//! The paper's comparisons repeatedly include a "fixed" deployment:
//! reserved containers on a fixed number of cores, provisioned for either
//! the average or the worst-case load (Figs. 1, 5a, 5b). Tasks here pay no
//! per-invocation instantiation (the workers are long-lived) but the pool
//! cannot grow: when offered load exceeds the provisioned capacity, tasks
//! queue and latency explodes — exactly the saturation behaviour of the
//! "Avg Res" deployment in Fig. 5b.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hivemind_sim::hash::DetHashMap;
use hivemind_sim::rng::RngForge;
use hivemind_sim::stats::TimeSeries;
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::TraceHandle;
use rand::rngs::SmallRng;

use crate::dataplane::{DataPlane, ExchangeProtocol};
use crate::types::{AppId, AppProfile, Completion, Invocation, LatencyBreakdown, Outcome};

/// Fixed-pool configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPoolParams {
    /// Number of long-lived worker slots (reserved cores).
    pub workers: u32,
    /// Data-exchange protocol between stages (reserved deployments talk
    /// over the same CouchDB/RPC substrate).
    pub exchange: ExchangeProtocol,
}

impl Default for FixedPoolParams {
    fn default() -> Self {
        FixedPoolParams {
            workers: 40,
            exchange: ExchangeProtocol::DirectRpc,
        }
    }
}

/// A statically provisioned worker pool.
///
/// # Examples
///
/// ```rust
/// use hivemind_faas::iaas::{FixedPool, FixedPoolParams};
/// use hivemind_faas::types::{AppId, AppProfile, Invocation};
/// use hivemind_sim::rng::RngForge;
/// use hivemind_sim::time::SimTime;
///
/// let mut pool = FixedPool::new(
///     FixedPoolParams { workers: 1, ..FixedPoolParams::default() },
///     RngForge::new(1),
/// );
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
    params: FixedPoolParams,
    apps: DetHashMap<AppId, AppProfile>,
    dataplane: DataPlane,
    rng: SmallRng,
    /// Completion times of busy workers.
    busy: BinaryHeap<Reverse<(SimTime, u64)>>,
    seq: u64,
    wait_queue: VecDeque<(SimTime, Invocation)>,
    /// Finished-but-undelivered completions, ordered by `(finished, seq)`
    /// — matching the old stable sort on finish time.
    pending: BinaryHeap<Reverse<PendingCompletion>>,
    active_series: TimeSeries,
    tracer: TraceHandle,
}

impl FixedPool {
    /// Creates the pool.
    ///
    /// # Panics
    ///
    /// Panics if `params.workers == 0`.
    pub fn new(params: FixedPoolParams, forge: RngForge) -> Self {
        assert!(params.workers > 0, "pool needs at least one worker");
        FixedPool {
            params,
            apps: DetHashMap::default(),
            dataplane: DataPlane::new(),
            rng: forge.stream("iaas-pool"),
            busy: BinaryHeap::new(),
            seq: 0,
            wait_queue: VecDeque::new(),
            pending: BinaryHeap::new(),
            active_series: TimeSeries::new(),
            tracer: TraceHandle::disabled(),
        }
    }

    /// Installs a tracing handle; the pool then samples `iaas/active` and
    /// `iaas/queued` counters at every occupancy change.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn sample_occupancy(&self, now: SimTime) {
        if self.tracer.is_enabled() {
            self.tracer
                .counter("iaas", "active", 0, now, self.busy.len() as f64);
            self.tracer
                .counter("iaas", "queued", 0, now, self.wait_queue.len() as f64);
        }
    }

    /// Registers an application profile.
    pub fn register_app(&mut self, app: AppId, profile: AppProfile) {
        self.apps.insert(app, profile);
    }

    /// The pool parameters.
    pub fn params(&self) -> &FixedPoolParams {
        &self.params
    }

    fn retire(&mut self, now: SimTime) {
        while self.busy.peek().is_some_and(|Reverse((t, _))| *t <= now) {
            self.busy.pop();
        }
    }

    fn start(&mut self, now: SimTime, arrived: SimTime, inv: Invocation) {
        let profile = &self.apps[&inv.app];
        let data_in = if profile.input_bytes > 0 {
            self.dataplane.exchange(
                now,
                self.params.exchange,
                profile.input_bytes,
                &mut self.rng,
            )
        } else {
            SimDuration::ZERO
        };
        let exec = profile.exec.sample(&mut self.rng);
        let t_exec_done = now + data_in + exec;
        let data_out = if profile.output_bytes > 0 {
            self.dataplane.exchange(
                t_exec_done,
                self.params.exchange,
                profile.output_bytes,
                &mut self.rng,
            )
        } else {
            SimDuration::ZERO
        };
        let finish = t_exec_done + data_out;
        let seq = self.seq;
        self.seq += 1;
        self.busy.push(Reverse((finish, seq)));
        self.active_series.record(now, self.busy.len() as f64);
        self.push_pending(
            seq,
            Completion {
                tag: inv.tag,
                app: inv.app,
                server: 0,
                arrived,
                finished: finish,
                breakdown: LatencyBreakdown {
                    queueing: now - arrived,
                    management: SimDuration::ZERO,
                    instantiation: SimDuration::ZERO,
                    data_io: data_in + data_out,
                    exec,
                },
                cold_start: false,
                in_memory_exchange: false,
                outcome: Outcome::Ok,
            },
        );
    }

    /// Submits an invocation.
    ///
    /// # Panics
    ///
    /// Panics if the app was never registered.
    pub fn submit(&mut self, now: SimTime, inv: Invocation) {
        assert!(
            self.apps.contains_key(&inv.app),
            "app {:?} not registered",
            inv.app
        );
        self.retire(now);
        if (self.busy.len() as u32) < self.params.workers {
            self.start(now, now, inv);
        } else {
            self.wait_queue.push_back((now, inv));
        }
        self.sample_occupancy(now);
    }

    /// The earliest instant at which a worker frees or a result is due.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.busy.peek().map(|Reverse((t, _))| *t)
    }

    /// Advances to `now`, appending finished completions to `out`.
    #[allow(clippy::while_let_loop)] // the loop also breaks on `t > now`
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        // Free workers as their tasks finish, starting queued work at the
        // exact instant each worker frees (not at `now`).
        loop {
            let Some(&Reverse((t, _))) = self.busy.peek() else {
                break;
            };
            if t > now {
                break;
            }
            self.busy.pop();
            if let Some((arrived, inv)) = self.wait_queue.pop_front() {
                self.start(t, arrived, inv);
            }
            self.sample_occupancy(t);
        }
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.completion.finished > now {
                break;
            }
            let Some(Reverse(p)) = self.pending.pop() else {
                unreachable!("peeked completion vanished");
            };
            out.push(p.completion);
        }
    }

    fn push_pending(&mut self, seq: u64, completion: Completion) {
        self.pending
            .push(Reverse(PendingCompletion { seq, completion }));
    }

    /// Tasks waiting for a worker.
    pub fn queued(&self) -> usize {
        self.wait_queue.len()
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

/// Heap entry ordering pending completions by `(finished, seq)`; `seq` is
/// the start order, reproducing the old stable sort's tie-breaking.
#[derive(Debug)]
struct PendingCompletion {
    seq: u64,
    completion: Completion,
}

impl PartialEq for PendingCompletion {
    fn eq(&self, other: &Self) -> bool {
        self.completion.finished == other.completion.finished && self.seq == other.seq
    }
}

impl Eq for PendingCompletion {}

impl PartialOrd for PendingCompletion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingCompletion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.completion.finished, self.seq).cmp(&(other.completion.finished, other.seq))
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
        let mut p = FixedPool::new(
            FixedPoolParams {
                workers,
                exchange: ExchangeProtocol::InMemory,
            },
            RngForge::new(5),
        );
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
        for tag in 0..8 {
            p.submit(SimTime::from_secs(tag), Invocation::root(AppId(0), tag));
        }
        let done = drain(&mut p);
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
    fn active_series_bounded_by_workers() {
        let mut p = pool(3);
        for tag in 0..10 {
            p.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let _ = drain(&mut p);
        assert!(p.active_series().max() <= 3.0);
    }
}
