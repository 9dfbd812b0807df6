//! A small multi-server FIFO queue used for on-device execution.
//!
//! Each edge device exposes `cores` logical cores (one on the drones'
//! Cortex-A8, four on the cars' Raspberry Pi); on-board tasks queue FIFO
//! behind them. This is the mechanism that makes distributed execution
//! "poor and unpredictable" for heavy apps in Fig. 4: a 2.5 s on-board
//! recognition task arriving once per second grows the queue without
//! bound.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hivemind_sim::time::{SimDuration, SimTime};

/// A c-server FIFO queue with caller-supplied service times.
///
/// # Examples
///
/// ```rust
/// use hivemind_core::engine::fifo::FifoServer;
/// use hivemind_sim::time::{SimDuration, SimTime};
///
/// let mut q = FifoServer::new(1);
/// q.submit(SimTime::ZERO, 1, SimDuration::from_secs(2));
/// q.submit(SimTime::ZERO, 2, SimDuration::from_secs(2));
/// let mut done = Vec::new();
/// q.advance_into(SimTime::from_secs(10), &mut done);
/// assert_eq!(done, vec![
///     (SimTime::from_secs(2), 1, SimDuration::ZERO),
///     (SimTime::from_secs(4), 2, SimDuration::from_secs(2)),
/// ]);
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer {
    servers: u32,
    /// `(finish, seq, id, queued_for)` of running jobs.
    running: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    /// Waiting jobs: `(arrival, id, service)`.
    waiting: VecDeque<(SimTime, u64, SimDuration)>,
    /// Completions not yet handed out, ordered by `(finish, id)`.
    ready: BinaryHeap<Reverse<(SimTime, u64, SimDuration)>>,
    /// Queue delay per running id (parallel to `running` entries).
    /// Fixed-seed hashing: per-job insert/remove churn must rehash at
    /// workload-determined instants (see `hivemind_sim::hash`).
    delays: hivemind_sim::hash::DetHashMap<u64, SimDuration>,
    seq: u64,
    /// Total busy core-time accumulated (for energy accounting).
    busy_time: SimDuration,
}

impl FifoServer {
    /// Creates a queue with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: u32) -> FifoServer {
        assert!(servers > 0, "need at least one server");
        FifoServer {
            servers,
            running: BinaryHeap::new(),
            waiting: VecDeque::new(),
            ready: BinaryHeap::new(),
            delays: hivemind_sim::hash::DetHashMap::default(),
            seq: 0,
            busy_time: SimDuration::ZERO,
        }
    }

    fn start(&mut self, at: SimTime, id: u64, service: SimDuration, queued: SimDuration) {
        let seq = self.seq;
        self.seq += 1;
        self.busy_time += service;
        self.running.push(Reverse((at + service, seq, id)));
        self.delays.insert(id, queued);
    }

    /// Processes completions up to `now`, starting queued jobs as servers
    /// free.
    #[allow(clippy::while_let_loop)] // the loop also breaks on `finish > now`
    fn pump(&mut self, now: SimTime) {
        loop {
            let Some(&Reverse((finish, _, id))) = self.running.peek() else {
                break;
            };
            if finish > now {
                break;
            }
            self.running.pop();
            let queued = self.delays.remove(&id).unwrap_or(SimDuration::ZERO);
            self.ready.push(Reverse((finish, id, queued)));
            if let Some((arrival, wid, service)) = self.waiting.pop_front() {
                debug_assert!(arrival <= finish);
                self.start(finish, wid, service, finish - arrival);
            }
        }
    }

    /// Submits job `id` with the given service time at `now`.
    pub fn submit(&mut self, now: SimTime, id: u64, service: SimDuration) {
        self.pump(now);
        if (self.running.len() as u32) < self.servers {
            self.start(now, id, service, SimDuration::ZERO);
        } else {
            self.waiting.push_back((now, id, service));
        }
    }

    /// Earliest pending completion, if any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let run = self.running.peek().map(|Reverse((t, _, _))| *t);
        let ready = self.ready.peek().map(|&Reverse((t, _, _))| t);
        match (run, ready) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Appends `(finish, id, queue_delay)` to `out` for jobs finished by
    /// `now`, in completion order.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, u64, SimDuration)>) {
        self.pump(now);
        while let Some(&Reverse((t, id, q))) = self.ready.peek() {
            if t > now {
                break;
            }
            self.ready.pop();
            out.push((t, id, q));
        }
    }

    /// Jobs queued or running.
    pub fn load(&self) -> usize {
        self.running.len() + self.waiting.len()
    }

    /// Total core-busy time accumulated (for compute-energy accounting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_servers_run_concurrently() {
        let mut q = FifoServer::new(2);
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(2));
        q.submit(SimTime::ZERO, 2, SimDuration::from_secs(2));
        q.submit(SimTime::ZERO, 3, SimDuration::from_secs(2));
        let mut done = Vec::new();
        q.advance_into(SimTime::from_secs(10), &mut done);
        assert_eq!(done[0].0, SimTime::from_secs(2));
        assert_eq!(done[1].0, SimTime::from_secs(2));
        assert_eq!(done[2].0, SimTime::from_secs(4));
        assert_eq!(done[2].2, SimDuration::from_secs(2), "third job queued 2 s");
    }

    #[test]
    fn idle_gaps_do_not_queue() {
        let mut q = FifoServer::new(1);
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(1));
        q.submit(SimTime::from_secs(5), 2, SimDuration::from_secs(1));
        let mut done = Vec::new();
        q.advance_into(SimTime::from_secs(10), &mut done);
        assert_eq!(done[1].0, SimTime::from_secs(6));
        assert_eq!(done[1].2, SimDuration::ZERO);
    }

    #[test]
    fn overload_grows_queue_unboundedly() {
        let mut q = FifoServer::new(1);
        // 2.5 s tasks arriving every second: the distributed-edge death
        // spiral of Fig. 4.
        for i in 0..20u64 {
            q.submit(SimTime::from_secs(i), i, SimDuration::from_millis(2500));
        }
        let mut done = Vec::new();
        q.advance_into(SimTime::MAX, &mut done);
        assert_eq!(done.len(), 20);
        let last = done.last().unwrap();
        // Last completes at 20 × 2.5 s = 50 s, having queued ~30 s.
        assert_eq!(last.0, SimTime::from_secs(50));
        assert!(last.2 > SimDuration::from_secs(25));
    }

    #[test]
    fn busy_time_accumulates() {
        let mut q = FifoServer::new(4);
        for i in 0..3u64 {
            q.submit(SimTime::ZERO, i, SimDuration::from_secs(1));
        }
        q.advance_into(SimTime::MAX, &mut Vec::new());
        assert_eq!(q.busy_time(), SimDuration::from_secs(3));
    }

    #[test]
    fn next_wakeup_tracks_earliest() {
        let mut q = FifoServer::new(1);
        assert_eq!(q.next_wakeup(), None);
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(3));
        assert_eq!(q.next_wakeup(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn load_counts_running_and_waiting() {
        let mut q = FifoServer::new(1);
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(1));
        q.submit(SimTime::ZERO, 2, SimDuration::from_secs(1));
        assert_eq!(q.load(), 2);
        q.advance_into(SimTime::MAX, &mut Vec::new());
        assert_eq!(q.load(), 0);
    }
}
