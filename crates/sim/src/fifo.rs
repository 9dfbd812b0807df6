//! A c-server FIFO queue with caller-supplied service times.
//!
//! The reproduction queues work FIFO behind a fixed set of servers in two
//! places, and both run on this one queue:
//!
//! * each edge device's `cores` logical cores (one on the drones'
//!   Cortex-A8, four on the cars' Raspberry Pi). This is the mechanism
//!   that makes distributed execution "poor and unpredictable" for heavy
//!   apps in Fig. 4: a 2.5 s on-board recognition task arriving once per
//!   second grows the queue without bound;
//! * the reserved IaaS baseline's long-lived workers (Figs. 1, 5), which
//!   saturate when offered load exceeds the provisioned capacity.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// A finished job as [`FifoServer::advance_into`] hands it out:
/// `(finish, id, queue_delay, payload)`.
pub type Done<P> = (SimTime, u64, SimDuration, P);

/// A running job: `(finish, seq, id, queue_delay, payload)`.
type Running<P> = (SimTime, u64, u64, SimDuration, P);

/// A c-server FIFO queue with caller-supplied service times. Each job
/// carries a caller payload `P` from submission to completion, so the
/// caller keeps no side table of in-flight jobs.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::fifo::FifoServer;
/// use hivemind_sim::time::{SimDuration, SimTime};
///
/// let mut q = FifoServer::new(1);
/// q.submit(SimTime::ZERO, 1, SimDuration::from_secs(2), 'a');
/// q.submit(SimTime::ZERO, 2, SimDuration::from_secs(2), 'b');
/// let mut done = Vec::new();
/// q.advance_into(SimTime::from_secs(10), &mut done);
/// assert_eq!(done, vec![
///     (SimTime::from_secs(2), 1, SimDuration::ZERO, 'a'),
///     (SimTime::from_secs(4), 2, SimDuration::from_secs(2), 'b'),
/// ]);
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer<P> {
    servers: u32,
    /// `(finish, seq, id, queued_for, payload)` of running jobs; `seq` is
    /// unique, so what rides after it never decides the pop order.
    running: BinaryHeap<Reverse<Running<P>>>,
    /// Waiting jobs: `(arrival, id, service, payload)`.
    waiting: VecDeque<(SimTime, u64, SimDuration, P)>,
    /// Completions not yet handed out, ordered by `(finish, id)`; ids are
    /// unique, so the payload never decides the order either.
    ready: BinaryHeap<Reverse<Done<P>>>,
    seq: u64,
}

impl<P: Copy + Ord> FifoServer<P> {
    /// Creates a queue with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: u32) -> FifoServer<P> {
        assert!(servers > 0, "need at least one server");
        FifoServer {
            servers,
            running: BinaryHeap::new(),
            waiting: VecDeque::new(),
            ready: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn start(&mut self, at: SimTime, id: u64, service: SimDuration, queued: SimDuration, p: P) {
        let seq = self.seq;
        self.seq += 1;
        self.running
            .push(Reverse((at + service, seq, id, queued, p)));
    }

    /// Processes completions up to `now`, starting queued jobs as servers
    /// free.
    #[allow(clippy::while_let_loop)] // the loop also breaks on `finish > now`
    fn pump(&mut self, now: SimTime) {
        loop {
            let Some(&Reverse((finish, _, id, queued, p))) = self.running.peek() else {
                break;
            };
            if finish > now {
                break;
            }
            self.running.pop();
            self.ready.push(Reverse((finish, id, queued, p)));
            if let Some((arrival, wid, service, wp)) = self.waiting.pop_front() {
                debug_assert!(arrival <= finish);
                self.start(finish, wid, service, finish - arrival, wp);
            }
        }
    }

    /// Submits job `id` with the given service time and payload at `now`.
    pub fn submit(&mut self, now: SimTime, id: u64, service: SimDuration, payload: P) {
        self.pump(now);
        if (self.running.len() as u32) < self.servers {
            self.start(now, id, service, SimDuration::ZERO, payload);
        } else {
            self.waiting.push_back((now, id, service, payload));
        }
    }

    /// Earliest pending completion, if any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let run = self.running.peek().map(|&Reverse((t, ..))| t);
        let ready = self.ready.peek().map(|&Reverse((t, ..))| t);
        match (run, ready) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Appends `(finish, id, queue_delay, payload)` to `out` for jobs
    /// finished by `now`, in completion order.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Done<P>>) {
        self.pump(now);
        while let Some(&Reverse(done)) = self.ready.peek() {
            if done.0 > now {
                break;
            }
            self.ready.pop();
            out.push(done);
        }
    }

    /// Jobs queued or running.
    pub fn load(&self) -> usize {
        self.running.len() + self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_servers_run_concurrently() {
        let mut q = FifoServer::new(2);
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(2), ());
        q.submit(SimTime::ZERO, 2, SimDuration::from_secs(2), ());
        q.submit(SimTime::ZERO, 3, SimDuration::from_secs(2), ());
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
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(1), ());
        q.submit(SimTime::from_secs(5), 2, SimDuration::from_secs(1), ());
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
            q.submit(SimTime::from_secs(i), i, SimDuration::from_millis(2500), ());
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
    fn next_wakeup_tracks_earliest() {
        let mut q = FifoServer::new(1);
        assert_eq!(q.next_wakeup(), None);
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(3), ());
        assert_eq!(q.next_wakeup(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn load_counts_running_and_waiting() {
        let mut q = FifoServer::new(1);
        q.submit(SimTime::ZERO, 1, SimDuration::from_secs(1), ());
        q.submit(SimTime::ZERO, 2, SimDuration::from_secs(1), ());
        assert_eq!(q.load(), 2);
        q.advance_into(SimTime::MAX, &mut Vec::new());
        assert_eq!(q.load(), 0);
    }
}
