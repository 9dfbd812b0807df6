//! The serverless cluster component.
//!
//! Accepts [`Invocation`]s, runs them through the modeled OpenWhisk
//! pipeline — management control path, scheduling, container acquisition,
//! data plane I/O, execution on a pinned core — and reports [`Completion`]s
//! with full latency breakdowns. Implements the paper's fault tolerance
//! (failed functions respawn automatically, Fig. 5c) and straggler
//! mitigation (functions exceeding the job's 90th percentile are respawned
//! and the first finisher wins; nodes producing repeated stragglers go on
//! probation, Sec. 4.6).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use hivemind_sim::faults::{self, RetryDecision, RetryPolicy};
use hivemind_sim::overload::{self, BreakerDecision, BreakerEvent, CircuitBreaker, OverloadPolicy};
use hivemind_sim::rng::RngForge;
use hivemind_sim::stats::{QuantileTracker, TimeSeries};
use hivemind_sim::time::{SimDuration, SimTime};
use hivemind_sim::trace::{ArgValue, TraceHandle};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::container::{ContainerParams, WarmPool};
use crate::dataplane::{DataPlane, ExchangeProtocol};
use crate::scheduler::SchedulerPolicy;
#[cfg(debug_assertions)]
use crate::scheduler::ServerView;
use crate::types::{
    AppId, AppProfile, Completion, Invocation, LatencyBreakdown, Outcome, ShedReason,
};
use hivemind_net::rpc::RateGate;

/// Cluster sizing and policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterParams {
    /// Number of servers (paper testbed: 12).
    pub servers: u32,
    /// Logical cores per server (paper testbed: 40).
    pub cores_per_server: u32,
    /// Placement policy.
    pub policy: SchedulerPolicy,
    /// Container lifecycle parameters.
    pub container: ContainerParams,
    /// Protocol for input fetch when not colocated.
    pub exchange_in: ExchangeProtocol,
    /// Protocol for output store.
    pub exchange_out: ExchangeProtocol,
    /// Probability an invocation attempt fails mid-run (Fig. 5c injects
    /// 0.05–0.20).
    pub fault_rate: f64,
    /// Enable p90 straggler respawn.
    pub straggler_mitigation: bool,
    /// Quantile that flags a straggler (paper: 0.90, tunable).
    pub straggler_quantile: f64,
    /// Minimum completed samples before straggler detection activates.
    pub straggler_min_samples: usize,
    /// Stragglers within [`Self::probation_window`] that trigger probation.
    pub probation_threshold: u32,
    /// Sliding window for counting per-node stragglers.
    pub probation_window: SimDuration,
    /// How long a node stays on probation ("a few minutes", Sec. 4.6).
    pub probation_duration: SimDuration,
    /// Cluster-wide cap on concurrently admitted functions (AWS Lambda's
    /// default user limit is 1,000).
    pub max_concurrent: u32,
    /// Control-plane decision throughput of one scheduler, decisions/s.
    /// The centralized controller serializes admissions; past this rate
    /// the control plane itself queues (the Sec. 5.6 scalability wall).
    pub controller_rps: f64,
    /// Number of scheduler shards (Sec. 4.3: HiveMind falls back to
    /// multiple schedulers with shared state when one saturates).
    pub scheduler_shards: u32,
    /// Retry/timeout/backoff policy for faulted function attempts. The
    /// default reproduces the historical behaviour (up to 5 respawns,
    /// final attempt always succeeds) with a bit-identical RNG sequence.
    pub retry: RetryPolicy,
    /// Overload-control plane (bounded admission queue, queueing
    /// deadline, per-app concurrency limit, circuit breaker). The inert
    /// default draws no RNG and changes no byte of any run.
    pub overload: OverloadPolicy,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            servers: 12,
            cores_per_server: 40,
            policy: SchedulerPolicy::OpenWhiskDefault,
            container: ContainerParams::openwhisk_default(),
            exchange_in: ExchangeProtocol::CouchDb,
            exchange_out: ExchangeProtocol::CouchDb,
            fault_rate: 0.0,
            straggler_mitigation: false,
            straggler_quantile: 0.90,
            straggler_min_samples: 20,
            probation_threshold: 3,
            probation_window: SimDuration::from_secs(60),
            probation_duration: SimDuration::from_secs(180),
            max_concurrent: 1000,
            controller_rps: 500.0,
            scheduler_shards: 1,
            retry: RetryPolicy::default(),
            overload: OverloadPolicy::default(),
        }
    }
}

impl ClusterParams {
    /// The full HiveMind configuration: HiveMind scheduler, long
    /// keep-alive, FPGA remote-memory data plane.
    pub fn hivemind() -> Self {
        ClusterParams {
            policy: SchedulerPolicy::HiveMind,
            container: ContainerParams::hivemind(),
            exchange_in: ExchangeProtocol::RemoteMemory,
            exchange_out: ExchangeProtocol::RemoteMemory,
            straggler_mitigation: true,
            ..ClusterParams::default()
        }
    }

    /// HiveMind without hardware acceleration (the "HiveMind-No Accel"
    /// ablation of Fig. 13): same scheduler/keep-alive, CouchDB data plane.
    pub fn hivemind_no_accel() -> Self {
        ClusterParams {
            exchange_in: ExchangeProtocol::CouchDb,
            exchange_out: ExchangeProtocol::CouchDb,
            ..ClusterParams::hivemind()
        }
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.servers * self.cores_per_server
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Admit(u32),
    /// Container ready; fetch the input through the data plane.
    DataIn(u32),
    /// Execution finished; store the output through the data plane.
    DataOut(u32),
    Complete(u32),
    /// Server drops out, losing its in-flight invocations.
    Crash(u32),
    /// Server rejoins the cluster.
    Recover(u32),
}

#[derive(Debug)]
struct InvState {
    inv: Invocation,
    arrived: SimTime,
    ready: SimTime, // arrived + management
    management: SimDuration,
    server: u32,
    breakdown: LatencyBreakdown,
    cold: bool,
    in_memory: bool,
    outcome: Outcome,
    done: bool,
    /// Whether the child was colocated with its parent's container.
    colocated: bool,
    /// Whether a core has been occupied for it (post-`admit`).
    placed: bool,
    /// Lost to a server crash; its pending events are dead letters and a
    /// clone has been resubmitted under a fresh index.
    aborted: bool,
    /// Admitted as a half-open circuit-breaker probe; cleared once its
    /// outcome is reported back to the breaker.
    probe: bool,
}

/// Server-id bitset for the placement index. Iterates in ascending id
/// order — the chooser's tie-break depends on that — and inserts and
/// removes in O(1) within a buffer sized once for every server, so
/// busy-level changes never touch the allocator.
#[derive(Debug, Clone)]
struct IdSet(Vec<u64>);

impl IdSet {
    /// An empty set able to hold ids `0..ids`.
    fn new(ids: u32) -> Self {
        IdSet(vec![0; (ids as usize).div_ceil(64)])
    }

    /// The set holding every id in `0..ids`.
    fn full(ids: u32) -> Self {
        let mut s = IdSet::new(ids);
        for id in 0..ids {
            s.insert(id);
        }
        s
    }

    fn insert(&mut self, id: u32) {
        self.0[(id / 64) as usize] |= 1 << (id % 64);
    }

    fn remove(&mut self, id: u32) {
        self.0[(id / 64) as usize] &= !(1 << (id % 64));
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(w as u32 * 64 + b)
            })
        })
    }
}

/// The serverless cluster.
///
/// # Examples
///
/// ```rust
/// use hivemind_faas::cluster::{Cluster, ClusterParams};
/// use hivemind_faas::types::{AppId, AppProfile, Invocation};
/// use hivemind_sim::rng::RngForge;
/// use hivemind_sim::time::SimTime;
///
/// let mut cluster = Cluster::new(ClusterParams::default(), RngForge::new(1));
/// cluster.register_app(AppId(0), AppProfile::test_profile(100.0));
/// cluster.submit(SimTime::ZERO, Invocation::root(AppId(0), 7));
/// let mut done = Vec::new();
/// while let Some(t) = cluster.next_wakeup() {
///     cluster.advance_into(t, &mut done);
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].tag, 7);
/// assert!(done[0].latency().as_millis_f64() > 100.0); // exec + overheads
/// ```
#[derive(Debug)]
pub struct Cluster {
    params: ClusterParams,
    apps: HashMap<AppId, AppProfile>,
    busy: Vec<u32>,
    probation_until: Vec<SimTime>,
    straggler_events: Vec<VecDeque<SimTime>>,
    warm: WarmPool,
    dataplane: DataPlane,
    rng: SmallRng,
    invs: Vec<InvState>,
    /// Internal events keyed `(time, unique seq)`, so the event never
    /// decides the pop order.
    heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    seq: u64,
    wait_queue: VecDeque<u32>,
    running: u32,
    completions: Vec<Completion>,
    /// Placement index: `by_busy[b]` holds the ids of servers with
    /// exactly `b` pinned cores (crash masking stays in `down_until`),
    /// `with_free` the ids with at least one free core. Together they
    /// answer every scheduling query in near-constant time — the old
    /// rebuild-all-views-per-admission path made 100k-device fleets
    /// quadratic. Every total is identical (`cores_per_server`), so
    /// busy-count order *is* utilization order and the indexed chooser
    /// reproduces [`SchedulerPolicy::choose`] decision-for-decision
    /// (asserted against it in debug builds).
    by_busy: Vec<IdSet>,
    with_free: IdSet,
    /// Reusable scheduler-view buffer for the debug-only reference
    /// placement check.
    #[cfg(debug_assertions)]
    view_scratch: Vec<ServerView>,
    /// Exec-time history per app for straggler thresholds.
    /// The straggler monitor interleaves a record and a quantile query
    /// per completion, so this is a [`QuantileTracker`] (O(log n) both
    /// ways) rather than a [`Summary`], whose hot sorted cache would
    /// make each record a linear insert — quadratic over a mission.
    exec_history: HashMap<AppId, QuantileTracker>,
    active_series: TimeSeries,
    stragglers_mitigated: u64,
    faults_recovered: u64,
    last_event_time: SimTime,
    controller_gate: RateGate,
    tracer: TraceHandle,
    /// Per-server crash windows: a server with `down_until > now` is
    /// invisible to the scheduler.
    down_until: Vec<SimTime>,
    /// Recovery instants for scheduled crashes, FIFO per server.
    pending_recover: Vec<(u32, SimTime)>,
    /// Controller-outage windows `[from, until)` (sorted); submissions
    /// landing inside one stall until the backup controller takes over.
    outages: Vec<(SimTime, SimTime)>,
    crash_stats: CrashStats,
    /// Per-app circuit breakers, created on demand (overload plane only).
    breakers: HashMap<AppId, CircuitBreaker>,
    /// Concurrent running invocations per app, maintained only while a
    /// per-app limit is configured.
    app_running: HashMap<AppId, u32>,
    shed_counters: OverloadCounters,
}

/// Counters describing overload-plane shedding and breaker activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadCounters {
    /// Invocations shed because the bounded admission queue was full.
    pub shed_queue_full: u64,
    /// Invocations shed because their queueing deadline expired.
    pub shed_deadline: u64,
    /// Invocations shed by an open circuit breaker (fail fast).
    pub shed_breaker: u64,
    /// Times any app's breaker tripped open (re-opens included).
    pub breaker_opens: u32,
}

impl OverloadCounters {
    /// Total invocations shed by any mechanism.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_breaker
    }
}

/// Counters describing server-crash and give-up damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrashStats {
    /// Scheduled server crashes that fired.
    pub server_crashes: u32,
    /// In-flight invocations lost to a crash (each was rescheduled).
    pub invocations_lost: u64,
    /// Lost invocations resubmitted to another server.
    pub invocations_rescheduled: u64,
    /// Invocations whose retry policy gave up (`Outcome::Failed`).
    pub invocations_failed: u64,
}

impl Cluster {
    /// Creates a cluster; randomness derives from `forge`.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized clusters or out-of-range rates.
    pub fn new(params: ClusterParams, forge: RngForge) -> Self {
        assert!(params.servers > 0 && params.cores_per_server > 0);
        assert!((0.0..=1.0).contains(&params.fault_rate));
        assert!((0.0..1.0).contains(&params.straggler_quantile));
        assert!(params.controller_rps > 0.0 && params.scheduler_shards > 0);
        let servers = params.servers as usize;
        let gate_rate = params.controller_rps * params.scheduler_shards as f64;
        Cluster {
            controller_gate: RateGate::new(gate_rate),
            warm: WarmPool::new(params.container.clone()),
            busy: vec![0; servers],
            probation_until: vec![SimTime::ZERO; servers],
            // Per-server windows see at most a handful of events; reserve
            // so the first straggler on a node doesn't allocate. (`vec!`
            // would clone the reservation away.)
            straggler_events: (0..servers).map(|_| VecDeque::with_capacity(8)).collect(),
            dataplane: DataPlane::for_cluster(params.servers),
            rng: forge.stream("faas-cluster"),
            apps: HashMap::new(),
            invs: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            wait_queue: VecDeque::new(),
            running: 0,
            completions: Vec::new(),
            by_busy: {
                let mut levels =
                    vec![IdSet::new(params.servers); params.cores_per_server as usize + 1];
                levels[0] = IdSet::full(params.servers);
                levels
            },
            with_free: IdSet::full(params.servers),
            #[cfg(debug_assertions)]
            view_scratch: Vec::with_capacity(servers),
            exec_history: HashMap::new(),
            active_series: TimeSeries::new(),
            stragglers_mitigated: 0,
            faults_recovered: 0,
            last_event_time: SimTime::ZERO,
            tracer: TraceHandle::disabled(),
            down_until: vec![SimTime::ZERO; servers],
            pending_recover: Vec::new(),
            outages: Vec::new(),
            crash_stats: CrashStats::default(),
            breakers: HashMap::new(),
            app_running: HashMap::new(),
            shed_counters: OverloadCounters::default(),
            params,
        }
    }

    /// Schedules a server crash at `at`: every in-flight invocation on
    /// `server` is lost and resubmitted, and the server stays invisible
    /// to the scheduler until `at + down`.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn schedule_server_crash(&mut self, at: SimTime, server: u32, down: SimDuration) {
        assert!(server < self.params.servers, "server out of range");
        self.pending_recover.push((server, at + down));
        self.push_event(at, Ev::Crash(server));
        self.push_event(at + down, Ev::Recover(server));
    }

    /// Registers a controller-outage window `[from, until)`. Submissions
    /// arriving inside it wait for the backup controller before their
    /// scheduling decision; the stall shows up as management latency.
    pub fn add_controller_outage(&mut self, from: SimTime, until: SimTime) {
        self.outages.push((from, until));
        self.outages.sort_unstable();
    }

    /// Crash and give-up damage counters.
    pub fn crash_stats(&self) -> CrashStats {
        self.crash_stats
    }

    /// Installs a tracing handle. The cluster then emits `sched/placement`
    /// instants per admission, `container/cold_start` / `container/warm_start`
    /// instants, and `faas/running`, `faas/queued`, and per-server
    /// `faas/server.busy` counter samples at every occupancy change.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Emits the cluster-wide occupancy counters (no-op when disabled).
    fn sample_occupancy(&self, now: SimTime) {
        if self.tracer.is_enabled() {
            self.tracer
                .counter("faas", "running", 0, now, self.running as f64);
            self.tracer
                .counter("faas", "queued", 0, now, self.wait_queue.len() as f64);
        }
    }

    /// Registers (or replaces) an application profile.
    pub fn register_app(&mut self, app: AppId, profile: AppProfile) {
        self.apps.insert(app, profile);
    }

    /// The cluster parameters.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// Submits an invocation at `now`.
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
        // A controller outage stalls the decision until the backup takes
        // over; the stall is charged to management like any control-plane
        // queueing. Windows are sorted, so one pass handles chains.
        let mut decision_at = now;
        for &(from, until) in &self.outages {
            if decision_at >= from && decision_at < until {
                decision_at = until;
            }
        }
        // The control plane serializes scheduling decisions: wait for a
        // scheduler slot, then pay the per-decision management cost.
        let control_wait = (decision_at - now) + self.controller_gate.admit(decision_at);
        let management = control_wait + self.params.policy.management_cost().sample(&mut self.rng);
        let idx = self.invs.len() as u32;
        self.invs.push(InvState {
            inv,
            arrived: now,
            ready: now + management,
            management,
            server: 0,
            breakdown: LatencyBreakdown::default(),
            cold: false,
            in_memory: false,
            outcome: Outcome::Ok,
            done: false,
            colocated: false,
            placed: false,
            aborted: false,
            probe: false,
        });
        self.push_event(now + management, Ev::Admit(idx));
    }

    fn push_event(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, ev)));
    }

    /// Moves `server` to busy level `new`, keeping the placement index
    /// consistent.
    fn set_busy(&mut self, server: u32, new: u32) {
        let old = self.busy[server as usize];
        if old == new {
            return;
        }
        self.by_busy[old as usize].remove(server);
        self.by_busy[new as usize].insert(server);
        let cores = self.params.cores_per_server;
        if old >= cores && new < cores {
            self.with_free.insert(server);
        } else if old < cores && new >= cores {
            self.with_free.remove(server);
        }
        self.busy[server as usize] = new;
    }

    fn server_is_up(&self, server: u32, now: SimTime) -> bool {
        self.down_until[server as usize] <= now
    }

    /// The reference policy's `healthy_free`: up, spare core, not on
    /// probation (a crashed server reports itself full there).
    fn healthy_free(&self, server: u32, now: SimTime) -> bool {
        self.server_is_up(server, now)
            && self.busy[server as usize] < self.params.cores_per_server
            && self.probation_until[server as usize] <= now
    }

    /// Chooses a server for `self.invs[idx]` through the placement
    /// index — the same decision [`SchedulerPolicy::choose`] makes over
    /// a full server-view sweep, without the per-admission O(servers)
    /// rebuild. Debug builds assert the equivalence on every call.
    fn choose_indexed(&mut self, now: SimTime, idx: u32) -> Option<u32> {
        let n = self.params.servers;
        let cores = self.params.cores_per_server;
        let (app, isolate, parent_server) = {
            let inv = &self.invs[idx as usize].inv;
            (inv.app, inv.isolate, inv.parent_server)
        };
        let choice = match self.params.policy {
            SchedulerPolicy::OpenWhiskDefault => {
                // Home invoker = hash(app) mod n, probe forward. The
                // probe ends at the first free server — O(1) until the
                // cluster saturates.
                let home = (app.0 as usize).wrapping_mul(0x9e37) % n as usize;
                (0..n as usize)
                    .map(|i| ((home + i) % n as usize) as u32)
                    .find(|&s| self.server_is_up(s, now) && self.busy[s as usize] < cores)
            }
            SchedulerPolicy::HiveMind => {
                // 1. Parent colocation.
                let mut pick = parent_server.filter(|&p| p < n && self.healthy_free(p, now));
                // 2. Warm-container steering.
                if pick.is_none() && !isolate {
                    pick = self
                        .warm
                        .warm_server(now, app)
                        .filter(|&w| w < n && self.healthy_free(w, now));
                }
                // 3. Least-utilized healthy server: identical totals
                //    make utilization order the busy-count order, so
                //    the lowest non-empty bucket's smallest eligible id
                //    is the reference policy's minimum.
                if pick.is_none() {
                    'buckets: for bucket in &self.by_busy[..cores as usize] {
                        for s in bucket.iter() {
                            if self.server_is_up(s, now) && self.probation_until[s as usize] <= now
                            {
                                pick = Some(s);
                                break 'buckets;
                            }
                        }
                    }
                }
                // 4. Saturated-but-probationed fallback: smallest id
                //    with a spare core.
                pick.or_else(|| self.with_free.iter().find(|&s| self.server_is_up(s, now)))
            }
        };
        #[cfg(debug_assertions)]
        {
            self.refresh_server_views(now);
            debug_assert_eq!(
                choice,
                self.params.policy.choose(
                    now,
                    &self.invs[idx as usize].inv,
                    &self.view_scratch,
                    &self.warm
                ),
                "indexed placement diverged from the reference policy"
            );
        }
        choice
    }

    /// Rebuilds `view_scratch` with the schedulers' picture of the
    /// cluster at `now` (debug-only reference oracle for the placement
    /// index).
    #[cfg(debug_assertions)]
    fn refresh_server_views(&mut self, now: SimTime) {
        self.view_scratch.clear();
        for s in 0..self.params.servers {
            self.view_scratch.push(ServerView {
                id: s,
                total_cores: self.params.cores_per_server,
                // A crashed server reports every core busy, which keeps
                // both placement policies away from it without any
                // scheduler-side special casing.
                busy_cores: if self.down_until[s as usize] > now {
                    self.params.cores_per_server
                } else {
                    self.busy[s as usize]
                },
                on_probation: self.probation_until[s as usize] > now,
            });
        }
    }

    fn straggler_threshold(&self, app: AppId) -> Option<SimDuration> {
        let hist = self.exec_history.get(&app)?;
        if hist.len() < self.params.straggler_min_samples {
            return None;
        }
        Some(SimDuration::from_secs_f64(hist.quantile()))
    }

    fn admit(&mut self, now: SimTime, idx: u32) {
        if self.params.overload.is_active() && self.overload_gate(now, idx) {
            return;
        }
        if self.running >= self.params.max_concurrent {
            self.enqueue_or_shed(now, idx);
            return;
        }
        let Some(server) = self.choose_indexed(now, idx) else {
            self.enqueue_or_shed(now, idx);
            return;
        };
        self.place(now, idx, server);
    }

    /// Overload-plane admission gate: sheds on an open circuit breaker
    /// and queues at the per-app concurrency limit. Returns `true` if the
    /// invocation was consumed (shed or queued) and admission must stop.
    fn overload_gate(&mut self, now: SimTime, idx: u32) -> bool {
        let app = self.invs[idx as usize].inv.app;
        if let Some(cfg) = self.params.overload.breaker {
            let (decision, event) = self
                .breakers
                .entry(app)
                .or_insert_with(|| CircuitBreaker::new(cfg))
                .admit_traced(now);
            if let Some(ev) = event {
                self.note_breaker_event(now, app, ev);
            }
            match decision {
                BreakerDecision::Reject => {
                    self.shed(now, idx, ShedReason::BreakerOpen);
                    return true;
                }
                BreakerDecision::Probe => self.invs[idx as usize].probe = true,
                BreakerDecision::Admit => {}
            }
        }
        if let Some(limit) = self.params.overload.admission.per_app_limit {
            if self.app_running.get(&app).copied().unwrap_or(0) >= limit {
                self.enqueue_or_shed(now, idx);
                return true;
            }
        }
        false
    }

    /// Queues an admitted-but-unplaceable invocation, shedding instead
    /// when the bounded admission queue is full.
    fn enqueue_or_shed(&mut self, now: SimTime, idx: u32) {
        if let Some(bound) = self.params.overload.admission.queue_bound {
            if self.wait_queue.len() as u32 >= bound {
                self.shed(now, idx, ShedReason::QueueFull);
                return;
            }
        }
        self.wait_queue.push_back(idx);
        self.sample_occupancy(now);
    }

    /// Rejects an unplaced invocation: it completes immediately with
    /// [`Outcome::Shed`], charged only its management and queueing time —
    /// no core, container, or data-plane work is spent on it. The
    /// completion is pushed directly (admissions run in event-time order,
    /// so the completion stream stays chronological).
    fn shed(&mut self, now: SimTime, idx: u32, reason: ShedReason) {
        let (tag, app) = {
            let st = &mut self.invs[idx as usize];
            debug_assert!(!st.placed && !st.done, "shed of a live invocation");
            st.done = true;
            st.outcome = Outcome::Shed { reason };
            st.breakdown.management = st.management;
            st.breakdown.queueing = now.saturating_since(st.ready);
            (st.inv.tag, st.inv.app)
        };
        match reason {
            ShedReason::QueueFull => self.shed_counters.shed_queue_full += 1,
            ShedReason::DeadlineExpired => self.shed_counters.shed_deadline += 1,
            ShedReason::BreakerOpen => self.shed_counters.shed_breaker += 1,
        }
        if self.tracer.is_enabled() {
            let reason_str = match reason {
                ShedReason::QueueFull => "queue_full",
                ShedReason::DeadlineExpired => "deadline_expired",
                ShedReason::BreakerOpen => "breaker_open",
            };
            self.tracer.instant(
                "sched",
                overload::EV_SHED,
                0,
                now,
                vec![
                    ("app", ArgValue::U64(app.0 as u64)),
                    ("tag", ArgValue::U64(tag)),
                    ("reason", ArgValue::Str(reason_str.into())),
                ],
            );
            self.sample_occupancy(now);
        }
        let st = &self.invs[idx as usize];
        self.completions.push(Completion {
            tag,
            app,
            server: 0,
            arrived: st.arrived,
            finished: now,
            breakdown: st.breakdown,
            cold_start: false,
            in_memory_exchange: false,
            outcome: st.outcome,
        });
    }

    /// Counts and (when tracing) emits a breaker state transition.
    fn note_breaker_event(&mut self, now: SimTime, app: AppId, ev: BreakerEvent) {
        if ev == BreakerEvent::Opened {
            self.shed_counters.breaker_opens += 1;
        }
        if self.tracer.is_enabled() {
            let name = match ev {
                BreakerEvent::Opened => overload::EV_BREAKER_OPEN,
                BreakerEvent::HalfOpened => overload::EV_BREAKER_HALF_OPEN,
                BreakerEvent::Closed => overload::EV_BREAKER_CLOSE,
            };
            self.tracer.instant(
                overload::BREAKER_TRACE_CAT,
                name,
                app.0 as u32,
                now,
                vec![("app", ArgValue::U64(app.0 as u64))],
            );
        }
    }

    /// Places an admitted invocation on its chosen server: occupies a
    /// core, acquires a container, and schedules the data-in stage.
    fn place(&mut self, now: SimTime, idx: u32, server: u32) {
        // --- Occupy a pinned core. ---
        self.set_busy(server, self.busy[server as usize] + 1);
        self.running += 1;
        self.active_series.record(now, self.running as f64);

        let (app, isolate, parent_server, parent_in_memory) = {
            let st = &self.invs[idx as usize];
            (
                st.inv.app,
                st.inv.isolate,
                st.inv.parent_server,
                st.inv.parent_in_memory,
            )
        };
        if self.params.overload.admission.per_app_limit.is_some() {
            *self.app_running.entry(app).or_insert(0) += 1;
        }

        // --- Container acquisition. ---
        let colocated = parent_server == Some(server) && parent_in_memory;
        let warm_hit = if isolate {
            false
        } else if colocated {
            // Child reuses the parent's still-live container outright.
            true
        } else {
            self.warm.try_take(now, server, app)
        };
        let instantiation = self.warm.instantiation_cost(warm_hit, &mut self.rng);
        {
            let st = &mut self.invs[idx as usize];
            st.server = server;
            st.cold = !warm_hit;
            st.in_memory = colocated;
            st.colocated = colocated;
            st.placed = true;
            st.breakdown.queueing = now - st.ready;
            st.breakdown.management = st.management;
            st.breakdown.instantiation = instantiation;
        }
        if self.tracer.is_enabled() {
            let st = &self.invs[idx as usize];
            self.tracer.instant(
                "sched",
                "placement",
                server,
                now,
                vec![
                    ("app", ArgValue::U64(st.inv.app.0 as u64)),
                    ("tag", ArgValue::U64(st.inv.tag)),
                    ("server", ArgValue::U64(server as u64)),
                    ("queued_ns", ArgValue::U64(st.breakdown.queueing.as_nanos())),
                    ("cold", ArgValue::Bool(!warm_hit)),
                    ("colocated", ArgValue::Bool(colocated)),
                ],
            );
            self.tracer.instant(
                "container",
                if warm_hit { "warm_start" } else { "cold_start" },
                server,
                now,
                vec![
                    ("app", ArgValue::U64(st.inv.app.0 as u64)),
                    ("tag", ArgValue::U64(st.inv.tag)),
                    ("instantiation_ns", ArgValue::U64(instantiation.as_nanos())),
                ],
            );
            self.tracer.counter(
                "faas",
                "server.busy",
                server,
                now,
                self.busy[server as usize] as f64,
            );
            self.sample_occupancy(now);
        }
        self.push_event(now + instantiation, Ev::DataIn(idx));
    }

    /// Container is up: fetch input, then execute. Runs at its true
    /// chronological instant so the shared data plane sees arrivals in
    /// order (a CouchDB instance is a FIFO queue — feeding it future
    /// timestamps would corrupt its backlog accounting).
    fn data_in_stage(&mut self, now: SimTime, idx: u32) {
        let (app, colocated, server) = {
            let st = &self.invs[idx as usize];
            (st.inv.app, st.colocated, st.server)
        };
        let profile = &self.apps[&app];
        let in_proto = if colocated {
            ExchangeProtocol::InMemory
        } else {
            self.params.exchange_in
        };
        let data_in = if profile.input_bytes > 0 {
            self.dataplane
                .exchange(now, in_proto, profile.input_bytes, &mut self.rng)
        } else {
            SimDuration::ZERO
        };

        // --- Execution with fault injection, governed by the retry
        // policy. The default policy draws the exact legacy sequence
        // (sample, coin, wasted fraction, respawn cost; up to 5 respawns,
        // final attempt forced to succeed) so fault-free and
        // default-policy runs are bit-identical to pre-policy builds.
        let rp = &self.params.retry;
        let mut wasted = SimDuration::ZERO;
        let mut respawns = 0u32;
        let mut gave_up = false;
        let final_exec = loop {
            let draw = profile.exec.sample(&mut self.rng);
            if let Some(to) = rp.timeout {
                // Attempts over budget are killed and retried without an
                // extra RNG draw (the kill is deterministic given the
                // sample), so enabling a timeout only reshapes `wasted`.
                if draw > to {
                    match rp.on_fault(respawns) {
                        RetryDecision::Retry { backoff } => {
                            wasted += to;
                            wasted += self.warm.instantiation_cost(true, &mut self.rng);
                            wasted += backoff;
                            respawns += 1;
                            continue;
                        }
                        RetryDecision::GiveUp => {
                            wasted += to;
                            gave_up = true;
                            break SimDuration::ZERO;
                        }
                        // Out of attempts but forced to succeed: let it run.
                        RetryDecision::ForceSuccess => {}
                    }
                }
            }
            // The match guards reproduce the legacy draw order exactly: a
            // fault coin is flipped only on arms that flipped one before
            // this was expressed through `RetryPolicy::on_fault`, and a
            // guard that fails falls through to plain success.
            match rp.on_fault(respawns) {
                RetryDecision::Retry { backoff }
                    if self.rng.gen::<f64>() < self.params.fault_rate =>
                {
                    // Fails a uniform way through; OpenWhisk respawns it.
                    wasted += draw.mul_f64(self.rng.gen::<f64>());
                    wasted += self.warm.instantiation_cost(true, &mut self.rng);
                    wasted += backoff;
                    respawns += 1;
                    continue;
                }
                RetryDecision::GiveUp
                    if self.params.fault_rate > 0.0
                        && self.rng.gen::<f64>() < self.params.fault_rate =>
                {
                    // The final attempt also faulted and the policy allows
                    // giving up: report the invocation as failed.
                    wasted += draw.mul_f64(self.rng.gen::<f64>());
                    gave_up = true;
                    break SimDuration::ZERO;
                }
                _ => break draw,
            }
        };
        // Report the attempt outcome to the app's circuit breaker. The
        // retry loop resolves here (at the data-in instant), so breaker
        // timing is a pure function of event times — no RNG.
        if self.params.overload.breaker.is_some() {
            let probe = {
                let st = &mut self.invs[idx as usize];
                std::mem::replace(&mut st.probe, false)
            };
            let event = self.breakers.get_mut(&app).and_then(|b| {
                if gave_up {
                    b.record_failure(now, probe)
                } else {
                    b.record_success(now, probe)
                }
            });
            // Inlined note_breaker_event: `profile` still borrows
            // `self.apps`, so only disjoint fields may be touched here.
            if let Some(ev) = event {
                if ev == BreakerEvent::Opened {
                    self.shed_counters.breaker_opens += 1;
                }
                if self.tracer.is_enabled() {
                    let name = match ev {
                        BreakerEvent::Opened => overload::EV_BREAKER_OPEN,
                        BreakerEvent::HalfOpened => overload::EV_BREAKER_HALF_OPEN,
                        BreakerEvent::Closed => overload::EV_BREAKER_CLOSE,
                    };
                    self.tracer.instant(
                        overload::BREAKER_TRACE_CAT,
                        name,
                        app.0 as u32,
                        now,
                        vec![("app", ArgValue::U64(app.0 as u64))],
                    );
                }
            }
        }
        if gave_up {
            let attempts = respawns + 1;
            self.crash_stats.invocations_failed += 1;
            {
                let st = &mut self.invs[idx as usize];
                st.outcome = Outcome::Failed { attempts };
                st.breakdown.data_io += data_in;
                st.breakdown.exec = wasted;
            }
            if self.tracer.is_enabled() {
                let tag = self.invs[idx as usize].inv.tag;
                self.tracer.instant(
                    faults::TRACE_CAT,
                    faults::EV_INJECTED,
                    server,
                    now,
                    vec![
                        ("kind", ArgValue::Str("function_failed".into())),
                        ("tag", ArgValue::U64(tag)),
                        ("attempts", ArgValue::U64(attempts as u64)),
                    ],
                );
            }
            // No output to store; the container died with the attempt.
            self.push_event(now + data_in + wasted, Ev::Complete(idx));
            return;
        }

        // --- Straggler mitigation. ---
        let threshold = if self.params.straggler_mitigation {
            self.straggler_threshold(app)
        } else {
            None
        };
        let (exec_eff, straggled) = match threshold {
            Some(th) if final_exec > th => {
                let dup = profile.exec.sample(&mut self.rng);
                let capped = th + dup;
                if capped < final_exec {
                    (capped, true)
                } else {
                    (final_exec, false)
                }
            }
            _ => (final_exec, false),
        };
        if straggled {
            self.stragglers_mitigated += 1;
            let q = &mut self.straggler_events[server as usize];
            q.push_back(now);
            while q
                .front()
                .is_some_and(|&t| now.saturating_since(t) > self.params.probation_window)
            {
                q.pop_front();
            }
            if q.len() as u32 >= self.params.probation_threshold {
                self.probation_until[server as usize] = now + self.params.probation_duration;
                q.clear();
            }
        }
        let exec_total = wasted + exec_eff;
        let straggler_q = self.params.straggler_quantile;
        self.exec_history
            .entry(app)
            .or_insert_with(|| QuantileTracker::new(straggler_q))
            .record_duration(exec_eff);
        {
            let st = &mut self.invs[idx as usize];
            st.outcome = if respawns > 0 {
                self.faults_recovered += 1;
                Outcome::RecoveredFromFaults { respawns }
            } else if straggled {
                Outcome::MitigatedStraggler
            } else {
                Outcome::Ok
            };
            st.breakdown.data_io += data_in;
            st.breakdown.exec = exec_total;
        }
        if respawns > 0 && self.tracer.is_enabled() {
            let tag = self.invs[idx as usize].inv.tag;
            self.tracer.instant(
                faults::TRACE_CAT,
                faults::EV_RECOVERED,
                server,
                now,
                vec![
                    ("kind", ArgValue::Str("function_respawn".into())),
                    ("tag", ArgValue::U64(tag)),
                    ("respawns", ArgValue::U64(respawns as u64)),
                ],
            );
        }
        self.push_event(now + data_in + exec_total, Ev::DataOut(idx));
    }

    /// Execution finished: store the output, then complete.
    fn data_out_stage(&mut self, now: SimTime, idx: u32) {
        let app = self.invs[idx as usize].inv.app;
        let output_bytes = self.apps[&app].output_bytes;
        let data_out = if output_bytes > 0 {
            self.dataplane
                .exchange(now, self.params.exchange_out, output_bytes, &mut self.rng)
        } else {
            SimDuration::ZERO
        };
        self.invs[idx as usize].breakdown.data_io += data_out;
        self.push_event(now + data_out, Ev::Complete(idx));
    }

    fn complete(&mut self, now: SimTime, idx: u32) {
        let (server, app, tag) = {
            let st = &mut self.invs[idx as usize];
            debug_assert!(!st.done, "double completion");
            st.done = true;
            (st.server, st.inv.app, st.inv.tag)
        };
        self.set_busy(server, self.busy[server as usize] - 1);
        self.running -= 1;
        self.active_series.record(now, self.running as f64);
        if self.params.overload.admission.per_app_limit.is_some() {
            if let Some(n) = self.app_running.get_mut(&app) {
                *n = n.saturating_sub(1);
            }
        }
        if !matches!(self.invs[idx as usize].outcome, Outcome::Failed { .. }) {
            // A failed invocation's container died with it — nothing to
            // keep warm.
            self.warm.park(now, server, app);
        }
        if self.tracer.is_enabled() {
            self.tracer.counter(
                "faas",
                "server.busy",
                server,
                now,
                self.busy[server as usize] as f64,
            );
            self.sample_occupancy(now);
        }

        let st = &self.invs[idx as usize];
        self.completions.push(Completion {
            tag,
            app,
            server,
            arrived: st.arrived,
            finished: now,
            breakdown: st.breakdown,
            cold_start: st.cold,
            in_memory_exchange: st.in_memory,
            outcome: st.outcome,
        });

        self.drain_wait_queue(now);
    }

    /// Admits as many queued invocations as now fit. The placement
    /// decision is made once per head-of-queue invocation (`choose` draws
    /// no randomness, so deciding here and placing directly is exactly
    /// the old decide-then-re-decide behavior, minus the second pass).
    fn drain_wait_queue(&mut self, now: SimTime) {
        let overload_active = self.params.overload.is_active();
        while let Some(&head) = self.wait_queue.front() {
            if overload_active {
                // Deadline-aware drop: stale work is shed before it can
                // waste a core (its caller has long since given up).
                if let Some(deadline) = self.params.overload.admission.queue_deadline {
                    let waited = now.saturating_since(self.invs[head as usize].ready);
                    if waited > deadline {
                        self.wait_queue.pop_front();
                        self.shed(now, head, ShedReason::DeadlineExpired);
                        continue;
                    }
                }
                if let Some(limit) = self.params.overload.admission.per_app_limit {
                    let app = self.invs[head as usize].inv.app;
                    if self.app_running.get(&app).copied().unwrap_or(0) >= limit {
                        break;
                    }
                }
            }
            if self.running >= self.params.max_concurrent {
                break;
            }
            let Some(server) = self.choose_indexed(now, head) else {
                break;
            };
            self.wait_queue.pop_front();
            self.place(now, head, server);
        }
    }

    /// A scheduled crash fires: the server loses every in-flight
    /// invocation (each is resubmitted and rescheduled elsewhere) and its
    /// warm containers, and goes invisible to the scheduler until its
    /// recovery instant.
    fn crash_server(&mut self, now: SimTime, server: u32) {
        let pos = self
            .pending_recover
            .iter()
            .position(|&(s, _)| s == server)
            .expect("crash without a scheduled recovery");
        let (_, recover_at) = self.pending_recover.remove(pos);
        self.down_until[server as usize] = recover_at;
        self.crash_stats.server_crashes += 1;

        let mut resubmit = Vec::new();
        for st in self.invs.iter_mut() {
            if st.placed && !st.done && !st.aborted && st.server == server {
                st.aborted = true;
                // An unresolved probe dies with the server: its breaker
                // slot must be released so half-open doesn't wedge.
                let probe = std::mem::replace(&mut st.probe, false);
                resubmit.push((st.inv.clone(), probe));
            }
        }
        let lost = resubmit.len() as u32;
        debug_assert_eq!(lost, self.busy[server as usize], "core accounting");
        self.set_busy(server, 0);
        self.running -= lost;
        self.active_series.record(now, self.running as f64);
        self.warm.flush_server(server);
        self.crash_stats.invocations_lost += lost as u64;
        if self.tracer.is_enabled() {
            self.tracer.instant(
                faults::TRACE_CAT,
                faults::EV_INJECTED,
                server,
                now,
                vec![
                    ("kind", ArgValue::Str("server_crash".into())),
                    ("server", ArgValue::U64(server as u64)),
                    ("lost", ArgValue::U64(lost as u64)),
                ],
            );
            // The control plane notices immediately: its data-plane
            // connections to the server reset at the crash instant.
            self.tracer.instant(
                faults::TRACE_CAT,
                faults::EV_DETECTED,
                server,
                now,
                vec![("kind", ArgValue::Str("server_crash".into()))],
            );
            self.tracer.counter("faas", "server.busy", server, now, 0.0);
            self.sample_occupancy(now);
        }
        for (inv, probe) in resubmit {
            if self.params.overload.admission.per_app_limit.is_some() {
                if let Some(n) = self.app_running.get_mut(&inv.app) {
                    *n = n.saturating_sub(1);
                }
            }
            if probe {
                if let Some(b) = self.breakers.get_mut(&inv.app) {
                    b.release_probe();
                }
            }
            self.crash_stats.invocations_rescheduled += 1;
            self.submit(now, inv);
        }
    }

    /// A crashed server rejoins: it becomes schedulable again and the
    /// wait queue gets a chance to drain onto it.
    fn recover_server(&mut self, now: SimTime, server: u32) {
        if self.tracer.is_enabled() {
            self.tracer.instant(
                faults::TRACE_CAT,
                faults::EV_RECOVERED,
                server,
                now,
                vec![
                    ("kind", ArgValue::Str("server_crash".into())),
                    ("server", ArgValue::U64(server as u64)),
                ],
            );
        }
        self.drain_wait_queue(now);
    }

    /// The earliest internal event or completion awaiting the caller, if
    /// any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let event = self.heap.peek().map(|&Reverse((t, ..))| t);
        match self.completions.first() {
            Some(c) => Some(event.map_or(c.finished, |t| t.min(c.finished))),
            None => event,
        }
    }

    /// Processes internal events due strictly before `bound`, the
    /// earliest instant a new [`Cluster::submit`] can arrive, stopping
    /// after the first one that completes an invocation so the caller
    /// sees that completion at its own instant.
    ///
    /// Strictness keeps same-instant ties in the order a caller gets by
    /// submitting first and then calling [`Cluster::advance_into`]: a
    /// submit at `bound` still draws from the cluster's RNG before the
    /// events due at `bound`. Completions are only handed over by
    /// `advance_into`, so running ahead never changes what the caller
    /// sees, only how few wake-ups it takes to see it.
    pub fn run_ahead(&mut self, bound: SimTime) {
        while self.completions.is_empty()
            && self.heap.peek().is_some_and(|&Reverse((t, ..))| t < bound)
        {
            self.step();
        }
    }

    /// Runs every internal event due at or before `now` and appends the
    /// completions that finished by then to `out` (chronological). The
    /// internal completion buffer keeps its capacity, so a hot caller
    /// allocates nothing per advance.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        while self.heap.peek().is_some_and(|&Reverse((t, ..))| t <= now) {
            self.step();
        }
        out.append(&mut self.completions);
    }

    /// Pops and runs the earliest internal event.
    fn step(&mut self) {
        let Reverse((t, _, ev)) = self.heap.pop().expect("step on an empty event queue");
        debug_assert!(t >= self.last_event_time);
        self.last_event_time = t;
        match ev {
            // Events of a crash-aborted invocation are dead letters:
            // the clone resubmitted at crash time carries on instead.
            Ev::Admit(idx) | Ev::DataIn(idx) | Ev::DataOut(idx) | Ev::Complete(idx)
                if self.invs[idx as usize].aborted => {}
            Ev::Admit(idx) => self.admit(t, idx),
            Ev::DataIn(idx) => self.data_in_stage(t, idx),
            Ev::DataOut(idx) => self.data_out_stage(t, idx),
            Ev::Complete(idx) => self.complete(t, idx),
            Ev::Crash(server) => self.crash_server(t, server),
            Ev::Recover(server) => self.recover_server(t, server),
        }
    }

    /// Functions currently executing.
    pub fn running(&self) -> u32 {
        self.running
    }

    /// Per-server core utilization in `[0, 1]` — what each node's worker
    /// monitor reports to the scheduler (Sec. 4.3: "a lightweight process
    /// that periodically monitors the performance of active functions,
    /// and the server's utilization").
    pub fn server_utilizations(&self) -> Vec<f64> {
        self.busy
            .iter()
            .map(|&b| b as f64 / self.params.cores_per_server as f64)
            .collect()
    }

    /// Invocations waiting for a free core.
    pub fn queued(&self) -> usize {
        self.wait_queue.len()
    }

    /// Time series of concurrently active functions (Fig. 5c).
    pub fn active_series(&self) -> &TimeSeries {
        &self.active_series
    }

    /// `(warm_hits, cold_misses)` of the container pool.
    pub fn container_stats(&self) -> (u64, u64) {
        self.warm.hit_stats()
    }

    /// Number of straggler respawns that won.
    pub fn stragglers_mitigated(&self) -> u64 {
        self.stragglers_mitigated
    }

    /// Number of invocations that recovered from injected faults.
    pub fn faults_recovered(&self) -> u64 {
        self.faults_recovered
    }

    /// Overload-plane shed and breaker-trip counters.
    pub fn overload_counters(&self) -> OverloadCounters {
        self.shed_counters
    }

    /// Total fail-fast (open or half-open) breaker time across all apps
    /// up to `now`; an open period still in progress counts up to `now`.
    pub fn breaker_open_time(&self, now: SimTime) -> SimDuration {
        self.breakers
            .values()
            .fold(SimDuration::ZERO, |acc, b| acc + b.total_open_time(now))
    }

    /// Mean unloaded latency of a root invocation of `app` under this
    /// configuration — used by the analytical cross-model.
    pub fn mean_unloaded_latency_secs(&self, app: AppId, warm_fraction: f64) -> f64 {
        let profile = &self.apps[&app];
        let p = &self.params;
        let inst = warm_fraction * p.container.warm_start.mean_secs()
            + (1.0 - warm_fraction) * p.container.cold_start.mean_secs();
        p.policy.management_cost().mean_secs()
            + inst
            + self
                .dataplane
                .mean_exchange_secs(p.exchange_in, profile.input_bytes)
            + profile.exec.mean_secs()
            + self
                .dataplane
                .mean_exchange_secs(p.exchange_out, profile.output_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::stats::Summary;

    fn run_all(cluster: &mut Cluster) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some(t) = cluster.next_wakeup() {
            cluster.advance_into(t, &mut done);
        }
        done
    }

    fn small_cluster(params: ClusterParams) -> Cluster {
        let mut c = Cluster::new(params, RngForge::new(42));
        c.register_app(AppId(0), AppProfile::test_profile(100.0));
        c
    }

    #[test]
    fn single_invocation_breakdown_sums() {
        let mut c = small_cluster(ClusterParams::default());
        c.submit(SimTime::ZERO, Invocation::root(AppId(0), 1));
        let done = run_all(&mut c);
        assert_eq!(done.len(), 1);
        let comp = &done[0];
        assert_eq!(comp.breakdown.total(), comp.latency());
        assert!(comp.cold_start, "first run must be a cold start");
        assert!(comp.breakdown.exec >= SimDuration::from_millis(100));
        assert!(comp.breakdown.management > SimDuration::ZERO);
        assert!(comp.breakdown.instantiation > SimDuration::from_millis(20));
    }

    #[test]
    fn second_invocation_hits_warm_container() {
        let mut c = small_cluster(ClusterParams::hivemind());
        c.submit(SimTime::ZERO, Invocation::root(AppId(0), 1));
        // Long after the first finishes but inside the 20 s keep-alive.
        c.submit(SimTime::from_secs(5), Invocation::root(AppId(0), 2));
        let done = run_all(&mut c);
        assert!(!done[1].cold_start, "keep-alive should give a warm hit");
        assert!(done[1].breakdown.instantiation < SimDuration::from_millis(30));
    }

    #[test]
    fn openwhisk_short_keepalive_goes_cold_again() {
        let mut c = small_cluster(ClusterParams::default());
        c.submit(SimTime::ZERO, Invocation::root(AppId(0), 1));
        c.submit(SimTime::from_secs(30), Invocation::root(AppId(0), 2));
        let done = run_all(&mut c);
        assert!(done[1].cold_start, "2 s keep-alive expired after 30 s");
    }

    #[test]
    fn saturation_queues_and_queueing_shows_in_breakdown() {
        let params = ClusterParams {
            servers: 1,
            cores_per_server: 2,
            ..ClusterParams::default()
        };
        let mut c = small_cluster(params);
        for tag in 0..6 {
            c.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let done = run_all(&mut c);
        assert_eq!(done.len(), 6);
        let queued: Vec<_> = done
            .iter()
            .filter(|d| d.breakdown.queueing > SimDuration::ZERO)
            .collect();
        assert!(
            queued.len() >= 3,
            "with 2 cores and 6 tasks most must queue; queued = {}",
            queued.len()
        );
    }

    #[test]
    fn colocated_child_uses_in_memory_exchange() {
        let mut c = small_cluster(ClusterParams::hivemind());
        c.submit(SimTime::ZERO, Invocation::root(AppId(0), 1));
        let done = run_all(&mut c);
        let parent_server = done[0].server;
        c.submit(
            SimTime::from_secs(1),
            Invocation::child_of(AppId(0), 2, parent_server, true),
        );
        let done = run_all(&mut c);
        assert!(done[0].in_memory_exchange);
        assert!(!done[0].cold_start);
        // In-memory input fetch leaves only the (remote-memory) output
        // store in data_io — well under a millisecond in total.
        assert!(done[0].breakdown.data_io < SimDuration::from_millis(1));
    }

    #[test]
    fn faults_recover_and_inflate_exec() {
        let params = ClusterParams {
            fault_rate: 0.5,
            ..ClusterParams::default()
        };
        let mut c = small_cluster(params);
        for tag in 0..40 {
            c.submit(SimTime::from_secs(tag), Invocation::root(AppId(0), tag));
        }
        let done = run_all(&mut c);
        assert_eq!(done.len(), 40, "every faulted task must still complete");
        assert!(
            c.faults_recovered() > 5,
            "recovered {}",
            c.faults_recovered()
        );
        let recovered = done
            .iter()
            .find(|d| matches!(d.outcome, Outcome::RecoveredFromFaults { .. }))
            .expect("some task recovered");
        assert!(recovered.breakdown.exec > SimDuration::from_millis(100));
    }

    #[test]
    fn straggler_mitigation_caps_heavy_tail() {
        let heavy = AppProfile {
            name: "heavy-tail",
            exec: hivemind_sim::dist::Dist::bounded_pareto(0.05, 20.0, 1.1),
            input_bytes: 0,
            output_bytes: 0,
            memory_mb: 128,
        };
        let run = |mitigate: bool| -> f64 {
            let params = ClusterParams {
                straggler_mitigation: mitigate,
                exchange_in: ExchangeProtocol::InMemory,
                exchange_out: ExchangeProtocol::InMemory,
                ..ClusterParams::default()
            };
            let mut c = Cluster::new(params, RngForge::new(7));
            c.register_app(AppId(1), heavy.clone());
            for tag in 0..400 {
                c.submit(
                    SimTime::from_nanos(tag * 200_000_000),
                    Invocation::root(AppId(1), tag),
                );
            }
            let done = run_all(&mut c);
            let mut s = Summary::new();
            for d in &done {
                s.record_duration(d.breakdown.exec);
            }
            s.p99()
        };
        let unmitigated = run(false);
        let mitigated = run(true);
        assert!(
            mitigated < unmitigated * 0.8,
            "p99 exec should drop: {unmitigated} -> {mitigated}"
        );
    }

    #[test]
    fn active_series_tracks_concurrency() {
        let mut c = small_cluster(ClusterParams::default());
        for tag in 0..5 {
            c.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let _ = run_all(&mut c);
        assert!(c.active_series().max() >= 5.0);
        assert_eq!(c.running(), 0);
        assert_eq!(c.queued(), 0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_app_panics() {
        let mut c = Cluster::new(ClusterParams::default(), RngForge::new(1));
        c.submit(SimTime::ZERO, Invocation::root(AppId(9), 0));
    }

    #[test]
    fn concurrency_cap_respected() {
        let params = ClusterParams {
            max_concurrent: 3,
            ..ClusterParams::default()
        };
        let mut c = small_cluster(params);
        for tag in 0..10 {
            c.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        // Drive event by event, checking the invariant throughout.
        while let Some(t) = c.next_wakeup() {
            c.advance_into(t, &mut Vec::new());
            assert!(c.running() <= 3, "cap violated: {}", c.running());
        }
    }

    #[test]
    fn bounded_queue_sheds_on_full_and_conserves() {
        let params = ClusterParams {
            max_concurrent: 2,
            overload: OverloadPolicy::default().queue_bound(1),
            ..ClusterParams::default()
        };
        let mut c = small_cluster(params);
        for tag in 0..10 {
            c.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let mut done = Vec::new();
        while let Some(t) = c.next_wakeup() {
            c.advance_into(t, &mut done);
            assert!(c.queued() <= 1, "queue bound violated: {}", c.queued());
        }
        // Conservation: every submission resolves, as a run or a shed.
        assert_eq!(done.len(), 10);
        let shed = done
            .iter()
            .filter(|d| {
                matches!(
                    d.outcome,
                    Outcome::Shed {
                        reason: ShedReason::QueueFull
                    }
                )
            })
            .count();
        assert!(shed >= 6, "2 cores + 1 slot must shed most of 10: {shed}");
        // Shed invocations never touch a core or the data plane.
        for d in done
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Shed { .. }))
        {
            assert_eq!(d.breakdown.exec, SimDuration::ZERO);
            assert_eq!(d.breakdown.data_io, SimDuration::ZERO);
            assert_eq!(d.breakdown.instantiation, SimDuration::ZERO);
        }
    }

    #[test]
    fn queue_deadline_sheds_stale_work() {
        let params = ClusterParams {
            max_concurrent: 1,
            overload: OverloadPolicy::default().queue_deadline(SimDuration::from_millis(50)),
            ..ClusterParams::default()
        };
        let mut c = small_cluster(params);
        for tag in 0..5 {
            c.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let done = run_all(&mut c);
        assert_eq!(done.len(), 5);
        let expired = done
            .iter()
            .filter(|d| {
                matches!(
                    d.outcome,
                    Outcome::Shed {
                        reason: ShedReason::DeadlineExpired
                    }
                )
            })
            .count();
        // 100 ms exec serialized on one slot: everything queued behind
        // the first completion has waited > 50 ms already.
        assert!(expired >= 3, "stale entries must shed: {expired}");
        assert_eq!(c.overload_counters().shed_deadline, expired as u64);
    }

    #[test]
    fn breaker_opens_and_fails_fast() {
        let params = ClusterParams {
            fault_rate: 1.0,
            retry: RetryPolicy::bounded(2, SimDuration::ZERO),
            overload: OverloadPolicy::default().breaker(3, SimDuration::from_secs(5)),
            ..ClusterParams::default()
        };
        let mut c = small_cluster(params);
        for tag in 0..10 {
            c.submit(SimTime::from_secs(tag), Invocation::root(AppId(0), tag));
        }
        let done = run_all(&mut c);
        assert_eq!(done.len(), 10, "failed and shed invocations complete");
        let counters = c.overload_counters();
        assert!(counters.breaker_opens >= 1, "breaker must trip");
        assert!(
            counters.shed_breaker >= 3,
            "an open breaker fails fast: {}",
            counters.shed_breaker
        );
        assert!(
            c.breaker_open_time(SimTime::from_secs(30)) > SimDuration::ZERO,
            "open time is accounted"
        );
        let failed = done
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Failed { .. }))
            .count();
        let shed = done
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Shed { .. }))
            .count();
        assert_eq!(failed + shed, 10, "all-faulting cluster: fail or shed");
    }

    #[test]
    fn per_app_limit_caps_concurrency() {
        let params = ClusterParams {
            overload: OverloadPolicy::default().per_app_limit(2),
            ..ClusterParams::default()
        };
        let mut c = small_cluster(params);
        for tag in 0..8 {
            c.submit(SimTime::ZERO, Invocation::root(AppId(0), tag));
        }
        let mut done = Vec::new();
        while let Some(t) = c.next_wakeup() {
            c.advance_into(t, &mut done);
            assert!(c.running() <= 2, "per-app cap violated: {}", c.running());
        }
        assert_eq!(done.len(), 8, "the limit queues, it never drops");
        assert_eq!(c.overload_counters().shed_total(), 0);
    }

    #[test]
    fn mean_unloaded_latency_is_sane() {
        let c = small_cluster(ClusterParams::default());
        let m = c.mean_unloaded_latency_secs(AppId(0), 0.5);
        // 100 ms exec + management + ~60 ms mixed instantiation + data I/O.
        assert!(m > 0.1 && m < 0.5, "mean {m}");
    }
}
