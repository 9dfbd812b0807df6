//! Container lifecycle: cold starts, warm starts, keep-alive pools.
//!
//! OpenWhisk instantiates each function in a Docker container. Starting a
//! fresh container ("cold start") costs on the order of 100–300 ms;
//! re-entering an idle container kept alive from a previous invocation of
//! the same function ("warm start") costs single-digit milliseconds.
//! HiveMind's scheduler deliberately keeps idling containers alive for an
//! empirically chosen 10–30 s window (Sec. 4.3) so short-lived edge tasks
//! mostly hit warm containers.

use hivemind_sim::dist::Dist;
use hivemind_sim::time::{SimDuration, SimTime};
use rand::Rng;

use crate::idset::IdSet;
use crate::types::AppId;

/// Instantiation cost calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerParams {
    /// Cold-start latency (image setup + docker run + runtime boot).
    pub cold_start: Dist,
    /// Warm-start latency (unpause + dispatch into a kept-alive container).
    pub warm_start: Dist,
    /// How long an idle container is kept before termination.
    pub keep_alive: SimDuration,
}

impl ContainerParams {
    /// Default OpenWhisk-like behaviour: containers are reclaimed quickly
    /// once idle, so low-rate workloads keep paying cold starts (the
    /// paper's Fig. 6a observation), and even a "warm" dispatch pays a
    /// Docker unpause + runtime re-init on the order of tens of
    /// milliseconds — the source of Fig. 6b's ~22% instantiation share.
    pub fn openwhisk_default() -> Self {
        ContainerParams {
            cold_start: Dist::lognormal_median_sigma(0.120, 0.35),
            warm_start: Dist::lognormal_median_sigma(0.055, 0.30),
            keep_alive: SimDuration::from_secs(2),
        }
    }

    /// HiveMind's policy: idle containers linger 10–30 s (we use the
    /// middle of the paper's empirical range) and are kept *running*
    /// rather than paused, so re-dispatch is single-digit milliseconds —
    /// "most benefits come from HiveMind avoiding instantiation
    /// overheads" (Sec. 5.1).
    pub fn hivemind() -> Self {
        ContainerParams {
            warm_start: Dist::lognormal_median_sigma(0.008, 0.30),
            keep_alive: SimDuration::from_secs(20),
            ..Self::openwhisk_default()
        }
    }
}

/// Pool of idle (kept-alive) containers across the cluster.
///
/// Containers are keyed by `(server, app)`; each entry records when the
/// container expires. Expiry is evaluated lazily at lookup time, which is
/// exact because reuse only matters at lookup instants. Calls must come
/// in non-decreasing `now` order (cluster time never goes backwards):
/// [`WarmPool::warm_server`] forgets servers it finds expired.
///
/// # Examples
///
/// ```rust
/// use hivemind_faas::container::{ContainerParams, WarmPool};
/// use hivemind_faas::types::AppId;
/// use hivemind_sim::time::{SimDuration, SimTime};
///
/// let mut pool = WarmPool::new(ContainerParams::hivemind());
/// pool.park(SimTime::ZERO, 3, AppId(1));
/// // Ten seconds later the container is still warm (20 s keep-alive)...
/// assert!(pool.try_take(SimTime::from_secs(10), 3, AppId(1)));
/// // ...and taking it removed it from the pool.
/// assert!(!pool.try_take(SimTime::from_secs(10), 3, AppId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WarmPool {
    params: ContainerParams,
    /// Per-app warm index, indexed by `AppId`; grown on first park.
    apps: Vec<AppWarm>,
    warm_hits: u64,
    cold_misses: u64,
}

/// One app's idle containers, indexed by server id. Sized by the
/// highest server that ever hosted the app; lookups cost one bit scan.
#[derive(Debug, Clone, Default)]
struct AppWarm {
    /// Server -> expiry times of its idle containers, in park order.
    /// An emptied `Vec` keeps its capacity, so steady-state park/take
    /// cycles stay off the allocator.
    idle: Vec<Vec<SimTime>>,
    /// Server -> latest idle-container expiry; at most the time of its
    /// last write once the server has no idle container left.
    latest: Vec<SimTime>,
    /// Servers whose `latest` may still be live: every server with
    /// `latest > now` is a member. Only `park` adds one; the lookup
    /// drops each one it finds expired, which stays correct until the
    /// next write to that server because time never goes backwards.
    maybe_warm: IdSet,
}

impl Default for ContainerParams {
    fn default() -> Self {
        ContainerParams::openwhisk_default()
    }
}

impl WarmPool {
    /// Creates an empty pool with the given lifecycle parameters.
    pub fn new(params: ContainerParams) -> Self {
        WarmPool {
            params,
            apps: Vec::new(),
            warm_hits: 0,
            cold_misses: 0,
        }
    }

    /// The lifecycle parameters.
    pub fn params(&self) -> &ContainerParams {
        &self.params
    }

    /// Parks a just-finished container as idle on `server`, eligible for
    /// reuse until the keep-alive window expires.
    pub fn park(&mut self, now: SimTime, server: u32, app: AppId) {
        let expiry = now + self.params.keep_alive;
        let a = app.0 as usize;
        if self.apps.len() <= a {
            self.apps.resize_with(a + 1, AppWarm::default);
        }
        let table = &mut self.apps[a];
        let s = server as usize;
        if table.latest.len() <= s {
            table.idle.resize_with(s + 1, Vec::new);
            table.latest.resize(s + 1, SimTime::ZERO);
            table.maybe_warm.grow(server + 1);
        }
        table.idle[s].push(expiry);
        table.latest[s] = table.latest[s].max(expiry);
        table.maybe_warm.insert(server);
    }

    /// Attempts to take a warm container for `app` on `server`. Returns
    /// `true` on a warm hit (and consumes the container).
    pub fn try_take(&mut self, now: SimTime, server: u32, app: AppId) -> bool {
        let s = server as usize;
        let mut hit = false;
        if let Some(table) = self
            .apps
            .get_mut(app.0 as usize)
            .filter(|t| s < t.idle.len())
        {
            let expiries = &mut table.idle[s];
            expiries.retain(|&e| e > now);
            hit = expiries.pop().is_some();
            // An emptied server reads `now`, which is never `> now`: it
            // stops being offered until the next park refreshes it.
            table.latest[s] = expiries.iter().copied().max().unwrap_or(now);
            if expiries.is_empty() {
                table.maybe_warm.remove(server);
            }
        }
        if hit {
            self.warm_hits += 1;
        } else {
            self.cold_misses += 1;
        }
        hit
    }

    /// Drops every idle container on `server` (the server crashed; its
    /// containers died with it).
    pub fn flush_server(&mut self, server: u32) {
        let s = server as usize;
        for table in self.apps.iter_mut().filter(|t| s < t.idle.len()) {
            table.idle[s].clear();
            table.latest[s] = SimTime::ZERO;
            table.maybe_warm.remove(server);
        }
    }

    /// The lowest-id server holding a warm container for `app` at `now`,
    /// if one exists (used by schedulers to steer invocations toward warm
    /// nodes). Takes `&mut self` to forget the expired servers it passes.
    pub fn warm_server(&mut self, now: SimTime, app: AppId) -> Option<u32> {
        let AppWarm {
            latest, maybe_warm, ..
        } = self.apps.get_mut(app.0 as usize)?;
        maybe_warm.first_pruning(|s| latest[s as usize] > now)
    }

    /// Samples the instantiation latency for a hit/miss.
    pub fn instantiation_cost<R: Rng + ?Sized>(&self, warm: bool, rng: &mut R) -> SimDuration {
        if warm {
            self.params.warm_start.sample(rng)
        } else {
            self.params.cold_start.sample(rng)
        }
    }

    /// `(warm_hits, cold_misses)` since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.warm_hits, self.cold_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hivemind_sim::rng::RngForge;

    #[test]
    fn warm_within_keepalive_cold_after() {
        let mut p = WarmPool::new(ContainerParams::hivemind());
        p.park(SimTime::ZERO, 0, AppId(0));
        assert!(p.try_take(SimTime::from_secs(19), 0, AppId(0)));
        p.park(SimTime::ZERO, 0, AppId(0));
        assert!(!p.try_take(SimTime::from_secs(21), 0, AppId(0)));
        assert_eq!(p.hit_stats(), (1, 1));
    }

    #[test]
    fn containers_are_per_server_and_app() {
        let mut p = WarmPool::new(ContainerParams::hivemind());
        p.park(SimTime::ZERO, 0, AppId(0));
        assert!(
            !p.try_take(SimTime::from_secs(1), 1, AppId(0)),
            "wrong server"
        );
        assert!(!p.try_take(SimTime::from_secs(1), 0, AppId(1)), "wrong app");
        assert!(p.try_take(SimTime::from_secs(1), 0, AppId(0)));
    }

    #[test]
    fn warm_server_lookup() {
        let mut p = WarmPool::new(ContainerParams::hivemind());
        assert_eq!(p.warm_server(SimTime::ZERO, AppId(0)), None);
        p.park(SimTime::ZERO, 5, AppId(0));
        assert_eq!(p.warm_server(SimTime::from_secs(1), AppId(0)), Some(5));
        assert_eq!(p.warm_server(SimTime::from_secs(100), AppId(0)), None);
    }

    #[test]
    fn instantiation_costs_are_order_of_magnitude_apart() {
        let p = WarmPool::new(ContainerParams::openwhisk_default());
        let mut rng = RngForge::new(1).stream("inst");
        let warm: f64 = (0..200)
            .map(|_| p.instantiation_cost(true, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        let cold: f64 = (0..200)
            .map(|_| p.instantiation_cost(false, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        assert!(cold > warm * 1.8, "cold {cold} vs warm {warm}");
        assert!(cold > 0.08 && cold < 0.30, "cold {cold}");
        // HiveMind's running containers re-dispatch an order of magnitude
        // faster than OpenWhisk's paused ones.
        let hm = WarmPool::new(ContainerParams::hivemind());
        let hm_warm: f64 = (0..200)
            .map(|_| hm.instantiation_cost(true, &mut rng).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        assert!(warm > hm_warm * 5.0, "ow warm {warm} vs hm warm {hm_warm}");
    }

    #[test]
    fn openwhisk_keepalive_shorter_than_hivemind() {
        assert!(
            ContainerParams::openwhisk_default().keep_alive
                < ContainerParams::hivemind().keep_alive
        );
        // The paper gives 10–30 s for HiveMind's empirical setting.
        let ka = ContainerParams::hivemind().keep_alive.as_secs_f64();
        assert!((10.0..=30.0).contains(&ka));
    }
}
