//! Function placement policies.
//!
//! The default OpenWhisk controller hashes each action to a "home" invoker
//! and probes forward when it is saturated. HiveMind's scheduler
//! (Sec. 4.3) instead (1) colocates child functions with their parents to
//! unlock in-memory data exchange, (2) steers invocations toward servers
//! holding warm containers, (3) otherwise picks the least-utilized healthy
//! server, and (4) avoids servers on straggler probation. Its decision
//! logic costs slightly more per invocation than stock OpenWhisk — the
//! paper notes this and shows the instantiation savings dwarf it.

use hivemind_sim::dist::Dist;
use hivemind_sim::time::SimTime;

use crate::container::WarmPool;
use crate::types::Invocation;

/// Read-only scheduling view of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerView {
    /// Server id.
    pub id: u32,
    /// Logical cores on the server.
    pub total_cores: u32,
    /// Cores currently pinned to running containers.
    pub busy_cores: u32,
    /// Whether the straggler monitor has put this node on probation.
    pub on_probation: bool,
}

impl ServerView {
    /// Cores currently free.
    pub fn free_cores(&self) -> u32 {
        self.total_cores - self.busy_cores
    }

    /// Utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_cores == 0 {
            1.0
        } else {
            self.busy_cores as f64 / self.total_cores as f64
        }
    }
}

/// A placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Stock OpenWhisk: home-invoker hashing with linear probing.
    #[default]
    OpenWhiskDefault,
    /// HiveMind: colocation → warm steering → least-utilized healthy node.
    HiveMind,
}

impl SchedulerPolicy {
    /// Chooses a server with at least one free core for `inv`, or `None`
    /// if the cluster is saturated (the invocation then queues).
    pub fn choose(
        &self,
        now: SimTime,
        inv: &Invocation,
        servers: &[ServerView],
        warm: &mut WarmPool,
    ) -> Option<u32> {
        match self {
            SchedulerPolicy::OpenWhiskDefault => {
                // Home invoker = hash(app) mod n, probe forward.
                let n = servers.len();
                if n == 0 {
                    return None;
                }
                let home = (inv.app.0 as usize).wrapping_mul(0x9e37) % n;
                (0..n)
                    .map(|i| &servers[(home + i) % n])
                    .find(|s| s.free_cores() > 0)
                    .map(|s| s.id)
            }
            SchedulerPolicy::HiveMind => {
                let healthy_free = |s: &&ServerView| s.free_cores() > 0 && !s.on_probation;

                // 1. Parent colocation (enables in-memory exchange).
                if let Some(parent) = inv.parent_server {
                    if let Some(s) = servers.iter().find(|s| s.id == parent && healthy_free(s)) {
                        return Some(s.id);
                    }
                }
                // 2. Steer toward a warm container for this app.
                if !inv.isolate {
                    if let Some(ws) = warm.warm_server(now, inv.app) {
                        if let Some(s) = servers.iter().find(|s| s.id == ws && healthy_free(s)) {
                            return Some(s.id);
                        }
                    }
                }
                // 3. Least-utilized healthy server.
                let best = servers
                    .iter()
                    .filter(healthy_free)
                    .min_by(|a, b| {
                        a.utilization()
                            .total_cmp(&b.utilization())
                            .then(a.id.cmp(&b.id))
                    })
                    .map(|s| s.id);
                // 4. If every healthy server is full, fall back to
                //    probationed nodes rather than stalling the queue.
                best.or_else(|| {
                    servers
                        .iter()
                        .filter(|s| s.free_cores() > 0)
                        .min_by_key(|s| s.id)
                        .map(|s| s.id)
                })
            }
        }
    }

    /// Control-path management cost distribution for this policy:
    /// front-end + auth + bus + invoker dispatch (+ HiveMind's richer
    /// decision logic).
    pub fn management_cost(&self) -> Dist {
        match self {
            // NGINX ~0.3 ms, CouchDB auth ~1.5 ms, controller ~0.5 ms,
            // Kafka ~1 ms, invoker dequeue ~0.7 ms → ~4 ms median.
            SchedulerPolicy::OpenWhiskDefault => Dist::lognormal_median_sigma(4.0e-3, 0.35),
            // Slightly higher than stock OpenWhisk (Sec. 5.1).
            SchedulerPolicy::HiveMind => Dist::lognormal_median_sigma(4.6e-3, 0.30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerParams;
    use crate::types::AppId;

    fn servers(free: &[u32]) -> Vec<ServerView> {
        free.iter()
            .enumerate()
            .map(|(i, &f)| ServerView {
                id: i as u32,
                total_cores: 40,
                busy_cores: 40 - f,
                on_probation: false,
            })
            .collect()
    }

    fn pool() -> WarmPool {
        WarmPool::new(ContainerParams::hivemind())
    }

    #[test]
    fn openwhisk_probes_past_full_home() {
        let policy = SchedulerPolicy::OpenWhiskDefault;
        let mut s = servers(&[0, 0, 5]);
        let choice = policy.choose(
            SimTime::ZERO,
            &Invocation::root(AppId(0), 0),
            &s,
            &mut pool(),
        );
        assert_eq!(choice, Some(2));
        s[2].busy_cores = 40;
        assert_eq!(
            policy.choose(
                SimTime::ZERO,
                &Invocation::root(AppId(0), 0),
                &s,
                &mut pool()
            ),
            None
        );
    }

    #[test]
    fn hivemind_prefers_parent_server() {
        let policy = SchedulerPolicy::HiveMind;
        let s = servers(&[10, 10, 10]);
        let inv = Invocation::child_of(AppId(0), 0, 2, true);
        assert_eq!(policy.choose(SimTime::ZERO, &inv, &s, &mut pool()), Some(2));
    }

    #[test]
    fn hivemind_steers_to_warm_server() {
        let policy = SchedulerPolicy::HiveMind;
        let s = servers(&[10, 10, 10]);
        let mut warm = pool();
        warm.park(SimTime::ZERO, 1, AppId(7));
        let inv = Invocation::root(AppId(7), 0);
        assert_eq!(
            policy.choose(SimTime::from_secs(1), &inv, &s, &mut warm),
            Some(1)
        );
    }

    #[test]
    fn isolate_ignores_warm_steering() {
        let policy = SchedulerPolicy::HiveMind;
        // Server 1 is warm but heavily loaded; server 0 is idle.
        let mut s = servers(&[40, 1, 1]);
        s[1].busy_cores = 39;
        let mut warm = pool();
        warm.park(SimTime::ZERO, 1, AppId(7));
        let mut inv = Invocation::root(AppId(7), 0);
        inv.isolate = true;
        assert_eq!(
            policy.choose(SimTime::from_secs(1), &inv, &s, &mut warm),
            Some(0)
        );
    }

    #[test]
    fn hivemind_picks_least_utilized() {
        let policy = SchedulerPolicy::HiveMind;
        let s = servers(&[1, 30, 10]);
        let inv = Invocation::root(AppId(3), 0);
        assert_eq!(policy.choose(SimTime::ZERO, &inv, &s, &mut pool()), Some(1));
    }

    #[test]
    fn hivemind_avoids_probation_until_forced() {
        let policy = SchedulerPolicy::HiveMind;
        let mut s = servers(&[40, 40]);
        s[0].on_probation = true;
        let inv = Invocation::root(AppId(0), 0);
        assert_eq!(policy.choose(SimTime::ZERO, &inv, &s, &mut pool()), Some(1));
        // Only the probationed server has room: still place rather than stall.
        s[1].busy_cores = 40;
        assert_eq!(policy.choose(SimTime::ZERO, &inv, &s, &mut pool()), Some(0));
    }

    #[test]
    fn management_costs_are_millisecond_scale() {
        for p in [SchedulerPolicy::OpenWhiskDefault, SchedulerPolicy::HiveMind] {
            let m = p.management_cost().mean_secs();
            assert!(m > 1e-3 && m < 20e-3, "{p:?}: {m}");
        }
        assert!(
            SchedulerPolicy::HiveMind.management_cost().mean_secs()
                > SchedulerPolicy::OpenWhiskDefault
                    .management_cost()
                    .mean_secs(),
            "HiveMind's scheduler costs slightly more per decision"
        );
    }

    #[test]
    fn empty_cluster_yields_none() {
        for p in [SchedulerPolicy::OpenWhiskDefault, SchedulerPolicy::HiveMind] {
            assert_eq!(
                p.choose(
                    SimTime::ZERO,
                    &Invocation::root(AppId(0), 0),
                    &[],
                    &mut pool()
                ),
                None
            );
        }
    }
}
