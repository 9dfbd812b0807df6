//! A single store-and-forward FIFO link.
//!
//! Each link serializes transfers in arrival order at its configured
//! capacity: a transfer arriving at `t` begins transmission at
//! `max(t, busy_until)`, occupies the link for `bytes / capacity`, and
//! arrives at the far end one propagation delay after transmission ends.
//! This is the minimal model that still produces the queueing collapse of
//! Fig. 3b when offered load exceeds capacity.
//!
//! `busy_until` never decreases and the propagation delay is constant, so
//! each new delivery time is at least the previous one: appending to a
//! plain FIFO keeps items in `(delivery time, arrival order)` order, the
//! order a min-heap on that key would pop.
//!
//! A link whose arrivals never decrease can also be *passed*
//! (`Link::pass`): the same arithmetic runs at arrival and returns the
//! exit instant, and nothing is queued. The fabric passes the links whose
//! exit order no other feeder can disturb.

use std::collections::VecDeque;

use hivemind_sim::time::{SimDuration, SimTime};

/// FIFO store-and-forward link state.
///
/// # Examples
///
/// ```rust
/// use hivemind_net::link::Link;
/// use hivemind_sim::time::{SimDuration, SimTime};
///
/// // 1000 bytes/s, 10 ms propagation.
/// let mut link: Link<&str> = Link::new(1000.0, SimDuration::from_millis(10));
/// link.enqueue(SimTime::ZERO, 500, "a"); // 0.5 s transmission
/// link.enqueue(SimTime::ZERO, 500, "b"); // queued behind "a"
/// let (t_a, a) = link.pop_ready(SimTime::MAX).unwrap();
/// let (t_b, b) = link.pop_ready(SimTime::MAX).unwrap();
/// assert_eq!(a, "a");
/// assert_eq!(t_a.as_secs_f64(), 0.510);
/// assert_eq!(b, "b");
/// assert_eq!(t_b.as_secs_f64(), 1.010);
/// ```
#[derive(Debug)]
pub struct Link<T> {
    bytes_per_sec: f64,
    propagation: SimDuration,
    busy_until: SimTime,
    /// Items queued or in flight as `(delivery time, payload)`; delivery
    /// times never decrease front to back.
    in_flight: VecDeque<(SimTime, T)>,
    /// Total bytes that began transmission on this link.
    bytes_carried: u64,
    /// Latest arrival [`Link::pass`] has seen.
    last_pass: SimTime,
}

impl<T> Link<T> {
    /// Creates a link with `bytes_per_sec` capacity and one-way
    /// `propagation` delay.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64, propagation: SimDuration) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "link capacity must be positive"
        );
        Link {
            bytes_per_sec,
            propagation,
            busy_until: SimTime::ZERO,
            // Pre-reserved so a link's first few transfers don't allocate
            // mid-mission; deeper queues grow once to their high water.
            in_flight: VecDeque::with_capacity(8),
            bytes_carried: 0,
            last_pass: SimTime::ZERO,
        }
    }

    /// Queues an item arriving at time `now`. Transmission starts once
    /// the link is free, so the delivery time is fixed on arrival.
    pub fn enqueue(&mut self, now: SimTime, bytes: u64, payload: T) {
        let deliver_at = self.transmit(now, bytes);
        debug_assert!(
            self.in_flight.back().is_none_or(|&(t, _)| t <= deliver_at),
            "FIFO link delivery times must not decrease"
        );
        self.in_flight.push_back((deliver_at, payload));
    }

    /// Carries `bytes` arriving at `now` without queueing them and
    /// returns the instant they reach the far end: the delivery time
    /// [`Link::enqueue`] would have queued. Exact only while arrivals
    /// never decrease, which a debug assertion checks; the caller owns
    /// the item meanwhile, and [`Link::load`] does not count it.
    pub(crate) fn pass(&mut self, now: SimTime, bytes: u64) -> SimTime {
        debug_assert!(
            now >= self.last_pass,
            "a passed link's arrivals must not decrease"
        );
        self.last_pass = now;
        self.transmit(now, bytes)
    }

    /// Serializes `bytes` arriving at `now` behind everything before
    /// them and returns their delivery time.
    fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        self.busy_until = done;
        self.bytes_carried += bytes;
        done + self.propagation
    }

    /// The earliest pending delivery time, if any.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.in_flight.front().map(|&(t, _)| t)
    }

    /// Pops the next item whose delivery time is `<= now`, returning
    /// `(delivery_time, payload)`.
    pub fn pop_ready(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        if self.next_delivery()? <= now {
            self.in_flight.pop_front()
        } else {
            None
        }
    }

    /// Items currently queued or in flight.
    pub fn load(&self) -> usize {
        self.in_flight.len()
    }

    /// Instant at which the link next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total payload bytes that have begun transmission.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Link capacity in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link<u32> {
        // 1 MB/s, 1 ms propagation.
        Link::new(1e6, SimDuration::from_millis(1))
    }

    #[test]
    fn single_transfer_timing() {
        let mut l = link();
        l.enqueue(SimTime::from_secs(1), 500_000, 7);
        let (t, v) = l.pop_ready(SimTime::MAX).unwrap();
        assert_eq!(v, 7);
        // 0.5 s transmission + 1 ms propagation.
        assert_eq!(t.as_secs_f64(), 1.501);
        assert_eq!(l.bytes_carried(), 500_000);
    }

    #[test]
    fn fifo_serialization_under_contention() {
        let mut l = link();
        l.enqueue(SimTime::ZERO, 1_000_000, 1);
        l.enqueue(SimTime::ZERO, 1_000_000, 2);
        l.enqueue(SimTime::ZERO, 1_000_000, 3);
        let mut times = vec![];
        while let Some((t, v)) = l.pop_ready(SimTime::MAX) {
            times.push((t.as_secs_f64(), v));
        }
        assert_eq!(
            times,
            vec![(1.001, 1), (2.001, 2), (3.001, 3)],
            "each 1 MB transfer serializes for 1 s"
        );
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut l = link();
        l.enqueue(SimTime::ZERO, 1_000_000, 1);
        // Arrives long after the first transfer finished.
        l.enqueue(SimTime::from_secs(10), 1_000_000, 2);
        let (_, _) = l.pop_ready(SimTime::MAX).unwrap();
        let (t2, _) = l.pop_ready(SimTime::MAX).unwrap();
        assert_eq!(t2.as_secs_f64(), 11.001);
    }

    #[test]
    fn pop_ready_respects_now() {
        let mut l = link();
        l.enqueue(SimTime::ZERO, 1_000_000, 1);
        assert!(l.pop_ready(SimTime::from_secs(1)).is_none()); // delivers at 1.001
        assert!(l.pop_ready(SimTime::from_secs(2)).is_some());
    }

    #[test]
    fn next_delivery_tracks_head() {
        let mut l = link();
        assert_eq!(l.next_delivery(), None);
        l.enqueue(SimTime::ZERO, 2_000_000, 1);
        assert_eq!(l.next_delivery().unwrap().as_secs_f64(), 2.001);
    }

    #[test]
    fn load_counts_everything() {
        let mut l = link();
        l.enqueue(SimTime::ZERO, 100, 1);
        l.enqueue(SimTime::ZERO, 100, 2);
        assert_eq!(l.load(), 2);
        let _ = l.pop_ready(SimTime::MAX);
        assert_eq!(l.load(), 1);
    }

    #[test]
    fn pass_returns_the_enqueue_delivery_time() {
        let (mut queued, mut passed) = (link(), link());
        for (t, bytes) in [(0, 1_000_000), (0, 500_000), (3, 0), (3, 250_000)] {
            let now = SimTime::from_secs(t);
            queued.enqueue(now, bytes, 0);
            let exit = passed.pass(now, bytes);
            assert_eq!(Some((exit, 0)), queued.pop_ready(SimTime::MAX));
        }
        assert_eq!(passed.busy_until(), queued.busy_until());
        assert_eq!(passed.bytes_carried(), queued.bytes_carried());
        assert_eq!(passed.load(), 0, "a passed item is never queued");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not decrease")]
    fn pass_rejects_an_earlier_arrival() {
        let mut l = link();
        l.pass(SimTime::from_secs(2), 10);
        l.pass(SimTime::from_secs(1), 10);
    }

    #[test]
    fn zero_byte_message_costs_only_propagation() {
        let mut l = link();
        l.enqueue(SimTime::ZERO, 0, 1);
        let (t, _) = l.pop_ready(SimTime::MAX).unwrap();
        assert_eq!(t.as_secs_f64(), 0.001);
    }
}
