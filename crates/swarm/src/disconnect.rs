//! Device-side disconnected-operation state: bounded replay rings and
//! the exactly-once reconnect session.
//!
//! During a wireless partition a device cannot tell "cloud is slow" from
//! "cloud is gone"; the lease piggybacked on each heartbeat ack is the
//! tie-breaker. The engine computes lease expiry as a pure function of
//! the fault plan (`Engine::autonomous_at` in `hivemind-core`). Once the
//! lease expires the device operates autonomously and records every
//! update it would have uplinked in a [`ReplayRing`] — bounded, oldest
//! evicted and counted as *expired*, never silent growth. At heal, a
//! [`ReplaySession`] replays the ring through the controller with a
//! per-device sequence watermark, so a retried or duplicated replay can
//! never double-deliver.
//!
//! ## Conservation invariant
//!
//! For every ring/session pair, at every instant:
//!
//! ```text
//! pushed == delivered + expired + still_buffered
//! ```
//!
//! (duplicates are *rejected offers*, they never consume a push). The
//! property test in `tests/beat_conservation.rs` pins this under
//! arbitrary partition schedules, and `core::mc::DisconnectModel` model-
//! checks the same invariant against planted protocol mutants.

use std::collections::VecDeque;

use hivemind_sim::time::SimTime;

/// A bounded ring of updates awaiting replay, with explicit expiry.
///
/// Every push is assigned the next per-device sequence number; when the
/// ring is full the *oldest* entry is evicted and counted as expired
/// (freshest-data-wins, matching what a real swarm would keep under
/// memory pressure). Sequence numbers never repeat, which is what the
/// reconnect watermark dedups on.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRing<T> {
    cap: usize,
    next_seq: u64,
    expired: u64,
    buf: VecDeque<BufferedUpdate<T>>,
}

/// One buffered update: its sequence number, when it was buffered, and
/// the payload summary to replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferedUpdate<T> {
    /// Per-device sequence number (0-based, never reused).
    pub seq: u64,
    /// Instant the update was buffered (staleness = heal − this).
    pub at: SimTime,
    /// The update payload.
    pub item: T,
}

impl<T> ReplayRing<T> {
    /// A ring holding at most `cap` updates (`cap >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`; policy validation rejects that upstream.
    pub fn new(cap: u32) -> ReplayRing<T> {
        assert!(cap >= 1, "replay ring capacity must be at least 1");
        ReplayRing {
            cap: cap as usize,
            next_seq: 0,
            expired: 0,
            buf: VecDeque::with_capacity(cap as usize),
        }
    }

    /// Buffers `item` at `at`, returning its sequence number. Evicts and
    /// expires the oldest entry if the ring is full.
    pub fn push(&mut self, at: SimTime, item: T) -> u64 {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.expired += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(BufferedUpdate { seq, at, item });
        seq
    }

    /// Drains every buffered update in sequence order.
    pub fn drain(&mut self) -> impl Iterator<Item = BufferedUpdate<T>> + '_ {
        self.buf.drain(..)
    }

    /// Updates currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total updates ever pushed (equals the next sequence number).
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Updates evicted under the capacity bound (explicitly expired).
    pub fn expired(&self) -> u64 {
        self.expired
    }
}

/// Controller-side exactly-once acceptance state for one device.
///
/// Sequence numbers arrive in order from [`ReplayRing::drain`]; the
/// watermark accepts each at most once, so a duplicated replay (retry
/// after a second partition mid-session, a buggy double drain) is
/// suppressed rather than double-counted. The session persists across
/// partitions — the watermark is per-device lifetime state, which is
/// what makes dedup *session-scoped* rather than per-heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySession {
    /// Highest sequence accepted so far, if any.
    watermark: Option<u64>,
    /// Updates accepted exactly once.
    delivered: u64,
    /// Offers rejected as duplicates.
    duplicates: u64,
}

impl ReplaySession {
    /// A fresh session with nothing delivered.
    pub fn new() -> ReplaySession {
        ReplaySession::default()
    }

    /// Offers sequence `seq` for delivery. Returns `true` (and advances
    /// the watermark) exactly once per sequence; repeats are counted as
    /// duplicates and rejected.
    pub fn offer(&mut self, seq: u64) -> bool {
        match self.watermark {
            Some(w) if seq <= w => {
                self.duplicates += 1;
                false
            }
            _ => {
                self.watermark = Some(seq);
                self.delivered += 1;
                true
            }
        }
    }

    /// Updates accepted exactly once.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Offers rejected as duplicates.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Highest accepted sequence, if any update was ever delivered.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_memory_and_counts_expiry() {
        let mut ring: ReplayRing<u32> = ReplayRing::new(3);
        for i in 0..5u32 {
            let seq = ring.push(SimTime::from_secs(i as u64), i);
            assert_eq!(seq, i as u64);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.expired(), 2);
        let kept: Vec<u64> = ring.drain().map(|u| u.seq).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted, order preserved");
        assert!(ring.is_empty());
    }

    #[test]
    fn session_accepts_each_sequence_exactly_once() {
        let mut s = ReplaySession::new();
        assert!(s.offer(0));
        assert!(s.offer(1));
        assert!(!s.offer(1), "duplicate replay suppressed");
        assert!(!s.offer(0), "stale replay suppressed");
        assert!(s.offer(2));
        assert_eq!(s.delivered(), 3);
        assert_eq!(s.duplicates(), 2);
        assert_eq!(s.watermark(), Some(2));
    }

    #[test]
    fn conservation_holds_through_drain_and_redrain() {
        let mut ring: ReplayRing<()> = ReplayRing::new(4);
        let mut session = ReplaySession::new();
        for i in 0..10u64 {
            ring.push(SimTime::from_secs(i), ());
        }
        // First heal: drain and deliver.
        let first: Vec<u64> = ring.drain().map(|u| u.seq).collect();
        let mut delivered_now = 0u64;
        for seq in &first {
            if session.offer(*seq) {
                delivered_now += 1;
            }
        }
        assert_eq!(delivered_now, 4);
        // A buggy duplicate replay of the same batch delivers nothing.
        for seq in &first {
            assert!(!session.offer(*seq));
        }
        // pushed == delivered + expired + buffered, at every point.
        assert_eq!(
            ring.pushed(),
            session.delivered() + ring.expired() + ring.len() as u64
        );
        // More traffic after the heal keeps the ledger balanced.
        for i in 10..13u64 {
            ring.push(SimTime::from_secs(i), ());
        }
        for u in ring.drain() {
            session.offer(u.seq);
        }
        assert_eq!(session.delivered(), 7);
        assert_eq!(ring.pushed(), 13);
        assert_eq!(
            ring.pushed(),
            session.delivered() + ring.expired() + ring.len() as u64
        );
    }
}
