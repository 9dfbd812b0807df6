//! Property-based tests for the serverless substrate.

use std::collections::BTreeMap;

use hivemind_faas::cluster::{Cluster, ClusterParams};
use hivemind_faas::container::{ContainerParams, WarmPool};
use hivemind_faas::iaas::FixedPool;
use hivemind_faas::types::{AppId, AppProfile, Completion, Invocation, Outcome};
use hivemind_sim::faults::RetryPolicy;
use hivemind_sim::overload::OverloadPolicy;
use hivemind_sim::rng::RngForge;
use hivemind_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn drain_cluster(c: &mut Cluster) -> Vec<hivemind_faas::types::Completion> {
    let mut done = Vec::new();
    while let Some(t) = c.next_wakeup() {
        c.advance_into(t, &mut done);
    }
    done
}

/// Drives a HiveMind cluster through root `submits` (`(at, app)`), with a
/// server crash at 4 s, answering every root completion with a colocated
/// child submitted at the completion instant. With `run_ahead` the driver
/// calls [`Cluster::run_ahead`] up to the next root submit before each
/// wake-up; without it, it steps `advance_into` at every `next_wakeup`.
/// Returns the completion stream and every wake-up instant visited.
fn drive_cluster(submits: &[(SimTime, u16)], run_ahead: bool) -> (Vec<Completion>, Vec<SimTime>) {
    let params = ClusterParams {
        servers: 3,
        cores_per_server: 2,
        fault_rate: 0.1,
        ..ClusterParams::hivemind()
    };
    let mut cluster = Cluster::new(params, RngForge::new(5));
    for app in 0..3u16 {
        cluster.register_app(
            AppId(app),
            AppProfile::test_profile(20.0 + 30.0 * app as f64),
        );
    }
    cluster.schedule_server_crash(SimTime::from_secs(4), 1, SimDuration::from_secs(2));
    let (mut out, mut batch, mut visited) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    loop {
        let submit_at = submits.get(next).map(|s| s.0);
        if run_ahead {
            cluster.run_ahead(submit_at.unwrap_or(SimTime::MAX));
        }
        let Some(t) = [submit_at, cluster.next_wakeup()]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        visited.push(t);
        while let Some(&(at, app)) = submits.get(next).filter(|s| s.0 <= t) {
            cluster.submit(at, Invocation::root(AppId(app), next as u64));
            next += 1;
        }
        cluster.advance_into(t, &mut batch);
        for c in batch.drain(..) {
            if c.tag < 1 << 20 {
                let child = Invocation::child_of(c.app, c.tag | 1 << 20, c.server, true);
                cluster.submit(t, child);
            }
            out.push(c);
        }
    }
    (out, visited)
}

/// Brute-force reference for [`WarmPool`]: every `(app, server)` pair's
/// idle expiries plus each server's latest expiry, kept by the pool's
/// rules. A park appends `now + keep_alive` and raises the latest; a
/// take drops expired containers, consumes the newest live one, and
/// resets the latest to the largest survivor (or `now`); a flush empties
/// the server; the warm server is the lowest id whose latest expiry is
/// `> now`, found by walking every server that ever hosted the app.
#[derive(Default)]
struct WarmModel {
    idle: BTreeMap<(u16, u32), Vec<SimTime>>,
    latest: BTreeMap<(u16, u32), SimTime>,
    hits: u64,
    misses: u64,
}

impl WarmModel {
    fn park(&mut self, now: SimTime, keep_alive: SimDuration, server: u32, app: u16) {
        let expiry = now + keep_alive;
        self.idle.entry((app, server)).or_default().push(expiry);
        let latest = self.latest.entry((app, server)).or_insert(expiry);
        *latest = (*latest).max(expiry);
    }

    fn try_take(&mut self, now: SimTime, server: u32, app: u16) -> bool {
        let hit = match self.idle.get_mut(&(app, server)) {
            Some(expiries) => {
                expiries.retain(|&e| e > now);
                let hit = expiries.pop().is_some();
                self.latest
                    .insert((app, server), expiries.iter().copied().max().unwrap_or(now));
                hit
            }
            None => false,
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn flush_server(&mut self, server: u32) {
        for (&(_, s), expiries) in self.idle.iter_mut() {
            if s == server {
                expiries.clear();
            }
        }
        for (&(_, s), latest) in self.latest.iter_mut() {
            if s == server {
                *latest = SimTime::ZERO;
            }
        }
    }

    fn warm_server(&self, now: SimTime, app: u16) -> Option<u32> {
        self.latest
            .range((app, 0)..=(app, u32::MAX))
            .find(|&(_, &latest)| latest > now)
            .map(|(&(_, s), _)| s)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Running the cluster ahead to the next submit changes nothing a
    /// caller sees. Submits land exactly at the run-ahead bound, at the
    /// instants the stepping driver found internal stages firing, and at
    /// every root completion; the cluster's RNG is shared between
    /// `submit` and its stages, so any stage run at or past its bound
    /// would reorder draws and move completion times.
    #[test]
    fn cluster_run_ahead_matches_stepping(
        base in prop::collection::vec((0u64..8_000, 0u16..3), 1..40),
        stride in 1usize..4,
    ) {
        let mut submits: Vec<(SimTime, u16)> = base
            .iter()
            .map(|&(ms, app)| (SimTime::ZERO + SimDuration::from_millis(ms), app))
            .collect();
        submits.sort_by_key(|s| s.0);
        let (_, visited) = drive_cluster(&submits, false);
        for (i, &t) in visited.iter().step_by(stride).take(60).enumerate() {
            submits.push((t, (i % 3) as u16));
        }
        submits.sort_by_key(|s| s.0);
        let (stepped, _) = drive_cluster(&submits, false);
        let (ahead, _) = drive_cluster(&submits, true);
        prop_assert_eq!(stepped.len(), 2 * submits.len());
        prop_assert!(stepped == ahead, "run-ahead changed the completion stream");
    }

    /// Every submitted invocation completes exactly once, with a
    /// breakdown that sums to its latency, regardless of arrival pattern,
    /// app mix, fault rate, or cluster size.
    #[test]
    fn cluster_conserves_invocations(
        arrivals in prop::collection::vec((0u64..30_000, 0u16..3), 1..120),
        servers in 1u32..6,
        cores in 1u32..8,
        fault_pct in 0u32..30,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|&(t, _)| t);
        let params = ClusterParams {
            servers,
            cores_per_server: cores,
            fault_rate: fault_pct as f64 / 100.0,
            ..ClusterParams::default()
        };
        let mut cluster = Cluster::new(params, RngForge::new(7));
        for app in 0..3u16 {
            cluster.register_app(
                AppId(app),
                AppProfile::test_profile(10.0 + 40.0 * app as f64),
            );
        }
        for (i, &(t_ms, app)) in arrivals.iter().enumerate() {
            cluster.submit(
                SimTime::ZERO + SimDuration::from_millis(t_ms),
                Invocation::root(AppId(app), i as u64),
            );
        }
        let done = drain_cluster(&mut cluster);
        prop_assert_eq!(done.len(), arrivals.len());
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), arrivals.len(), "no duplicate completions");
        for c in &done {
            prop_assert_eq!(c.breakdown.total(), c.latency());
            prop_assert!(c.finished >= c.arrived);
            prop_assert!(c.server < servers);
        }
        prop_assert_eq!(cluster.running(), 0);
        prop_assert_eq!(cluster.queued(), 0);
    }

    /// Warm hits + cold misses equals container acquisitions, and the
    /// isolate flag always forces a cold start.
    #[test]
    fn warm_accounting_is_consistent(n in 1usize..60, isolate in any::<bool>()) {
        let mut cluster = Cluster::new(ClusterParams::default(), RngForge::new(9));
        cluster.register_app(AppId(0), AppProfile::test_profile(20.0));
        for i in 0..n {
            let mut inv = Invocation::root(AppId(0), i as u64);
            inv.isolate = isolate;
            cluster.submit(SimTime::from_secs(i as u64), inv);
        }
        let done = drain_cluster(&mut cluster);
        let (warm, cold) = cluster.container_stats();
        if isolate {
            prop_assert!(done.iter().all(|c| c.cold_start), "Isolate forbids reuse");
        }
        prop_assert_eq!(
            done.iter().filter(|c| c.cold_start).count() as u64,
            done.len() as u64 - warm,
            "cold completions + warm hits account for every run (cold = {}, warm = {})",
            cold,
            warm
        );
    }

    /// Conservation under overload: every submission resolves exactly
    /// once as completed, shed, or failed; the shed tally matches the
    /// plane's counters; and the admission queue never exceeds its bound
    /// at any observed instant.
    #[test]
    fn overload_conserves_and_bounds_queue(
        arrivals in prop::collection::vec((0u64..30_000, 0u16..3), 1..120),
        servers in 1u32..4,
        cores in 1u32..4,
        bound in 0u32..6,
        deadline_ms in 0u64..200,
        fault_pct in 0u32..40,
        breaker in any::<bool>(),
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|&(t, _)| t);
        let mut policy = OverloadPolicy::default().queue_bound(bound);
        // 0 means "no deadline knob" (SimDuration::ZERO is invalid).
        if deadline_ms > 0 {
            policy = policy.queue_deadline(SimDuration::from_millis(deadline_ms));
        }
        if breaker {
            policy = policy.breaker(2, SimDuration::from_millis(500));
        }
        let params = ClusterParams {
            servers,
            cores_per_server: cores,
            fault_rate: fault_pct as f64 / 100.0,
            // Bounded retries so faults can give up and trip the breaker.
            retry: RetryPolicy::bounded(1, SimDuration::ZERO),
            overload: policy,
            ..ClusterParams::default()
        };
        let mut cluster = Cluster::new(params, RngForge::new(11));
        for app in 0..3u16 {
            cluster.register_app(
                AppId(app),
                AppProfile::test_profile(10.0 + 40.0 * app as f64),
            );
        }
        for (i, &(t_ms, app)) in arrivals.iter().enumerate() {
            cluster.submit(
                SimTime::ZERO + SimDuration::from_millis(t_ms),
                Invocation::root(AppId(app), i as u64),
            );
            prop_assert!(
                cluster.queued() <= bound as usize,
                "queue {} exceeds bound {} after submit",
                cluster.queued(),
                bound
            );
        }
        let mut done = Vec::new();
        while let Some(t) = cluster.next_wakeup() {
            cluster.advance_into(t, &mut done);
            prop_assert!(
                cluster.queued() <= bound as usize,
                "queue {} exceeds bound {} at {}",
                cluster.queued(),
                bound,
                t
            );
        }
        // submitted = completed + shed + lost, each exactly once.
        prop_assert_eq!(done.len(), arrivals.len());
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), arrivals.len(), "no duplicate resolutions");
        let shed = done
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::Shed { .. }))
            .count() as u64;
        prop_assert_eq!(shed, cluster.overload_counters().shed_total());
        for c in &done {
            prop_assert!(c.finished >= c.arrived);
            if matches!(c.outcome, Outcome::Shed { .. }) {
                prop_assert_eq!(c.breakdown.exec, SimDuration::ZERO);
                prop_assert_eq!(c.breakdown.instantiation, SimDuration::ZERO);
            }
        }
        prop_assert_eq!(cluster.running(), 0);
        prop_assert_eq!(cluster.queued(), 0);
    }

    /// The fixed pool also conserves work and never exceeds its size.
    #[test]
    fn fixed_pool_conserves_work(
        arrivals in prop::collection::vec(0u64..20_000, 1..80),
        workers in 1u32..6,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let mut pool = FixedPool::new(workers, RngForge::new(3));
        pool.register_app(AppId(0), AppProfile::test_profile(50.0));
        let mut done = Vec::new();
        for (i, &t_ms) in arrivals.iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_millis(t_ms);
            pool.advance_into(at, &mut done);
            pool.submit(at, Invocation::root(AppId(0), i as u64));
        }
        while let Some(t) = pool.next_wakeup() {
            pool.advance_into(t, &mut done);
        }
        prop_assert_eq!(done.len(), arrivals.len());
        prop_assert!(pool.active_series().max() <= workers as f64);
        prop_assert_eq!(pool.queued(), 0);
    }

    /// The warm-container index returns exactly the reference walk's
    /// server at every lookup, agrees on every take, and counts the same
    /// hits and misses, over random park/take/flush/lookup sequences at
    /// non-decreasing times on up to 256 servers (several bitset words)
    /// and 3 apps.
    #[test]
    fn warm_index_matches_reference_walk(
        ops in prop::collection::vec(
            (0u64..3_000, 0u8..8, any::<bool>(), 0u32..256, 0u16..3),
            1..300,
        ),
    ) {
        let params = ContainerParams::hivemind();
        let keep_alive = params.keep_alive;
        let mut pool = WarmPool::new(params);
        let mut model = WarmModel::default();
        let mut now = SimTime::ZERO;
        for (dt_ms, op, crowded, server, app) in ops {
            // Half the ops crowd onto four servers, so containers pile
            // up and takes hit.
            let server = if crowded { server % 4 } else { server };
            now += SimDuration::from_millis(dt_ms);
            match op {
                0..=2 => {
                    pool.park(now, server, AppId(app));
                    model.park(now, keep_alive, server, app);
                }
                3 | 4 => prop_assert_eq!(
                    pool.try_take(now, server, AppId(app)),
                    model.try_take(now, server, app),
                    "take of app {} on server {} at {:?}", app, server, now
                ),
                5 => {
                    pool.flush_server(server);
                    model.flush_server(server);
                }
                _ => prop_assert_eq!(
                    pool.warm_server(now, AppId(app)),
                    model.warm_server(now, app),
                    "warm server of app {} at {:?}", app, now
                ),
            }
        }
        prop_assert_eq!(pool.hit_stats(), (model.hits, model.misses));
    }
}
