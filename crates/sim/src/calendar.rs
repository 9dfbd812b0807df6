//! An adaptive calendar queue: the DES engine's priority queue.
//!
//! A calendar queue (Brown, CACM 1988) hashes events into time buckets —
//! "days" of a fixed width on a circular "year" — and pops by walking the
//! bucket the cursor points at. With the bucket width matched to the
//! inter-event gap, push and pop are O(1) amortized and the hot path
//! touches one short sorted bucket instead of the O(log n) pointer-chasing
//! cascade of a binary heap. The engine uses it where events are pushed
//! as the run unfolds and popped in time order: the hub's action queue,
//! each shard's FIFO wake index and the FaaS cluster's event queue, which
//! hold one entry per in-flight task or busy device and so grow with the
//! swarm. (Captures, which callers submit in bulk before the run, are
//! not events: `core::engine` keeps them in one sorted run per shard.)
//!
//! Buckets are ring buffers sorted ascending by key, so the two patterns a
//! DES actually produces are both O(1): keys arriving in increasing order
//! (including a same-instant tie burst, which lands entirely in one
//! bucket) append at the back, and the minimum pops off
//! the front.
//!
//! Three properties this implementation guarantees:
//!
//! * **Total order, heap-identical.** Entries pop in ascending [`CalendarKey`]
//!   order; entries with fully equal keys pop in insertion (FIFO) order.
//!   A `debug_assertions` build shadows every operation against a reference
//!   `BinaryHeap` and asserts the popped key matches, so any divergence
//!   fails loudly in tier-1 tests rather than silently reordering events.
//! * **O(1) `peek` from `&self`.** The minimum is cached eagerly (recomputed
//!   after each pop by scanning forward from the cursor), so the engine can
//!   answer "when is the next event?" without mutating the queue.
//! * **Adaptive width.** Bucket width is re-derived from the observed mean
//!   pop gap at each resize, and the bucket count tracks the population
//!   (grow at load > 2, shrink at load < ⅛), so both a 2-event ping-pong
//!   and a backlog of millions get near-ideal bucket occupancy. A
//!   sparse-tail fallback (one full lap without a hit → direct search over
//!   bucket minima) bounds the worst case for any width mismatch.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A key a [`CalendarQueue`] can order: a total order whose primary
/// component is virtual time.
///
/// The queue buckets entries by [`CalendarKey::time`] and breaks ties
/// (same bucket, or same instant) by the key's full `Ord`. Any tuple
/// `(SimTime, tiebreak…)` with derived ordering qualifies.
pub trait CalendarKey: Copy + Ord {
    /// The time component used for bucket placement.
    fn time(&self) -> SimTime;
}

impl CalendarKey for SimTime {
    fn time(&self) -> SimTime {
        *self
    }
}

impl CalendarKey for (SimTime, u64) {
    fn time(&self) -> SimTime {
        self.0
    }
}

impl CalendarKey for (SimTime, u32) {
    fn time(&self) -> SimTime {
        self.0
    }
}

impl CalendarKey for crate::shard::EffectKey {
    fn time(&self) -> SimTime {
        self.at
    }
}

/// Fewest buckets the calendar ever holds.
const MIN_BUCKETS: usize = 16;
/// Most buckets the calendar ever holds (2^22 bucket headers is already
/// ~130 MB; real populations resize long before this).
const MAX_BUCKETS: usize = 1 << 22;
/// Initial bucket width: 2^10 ns ≈ 1 µs, the DES kernel's natural gap.
const DEFAULT_SHIFT: u32 = 10;
/// Widest bucket: 2^40 ns ≈ 18 min. Beyond this the direct-search
/// fallback is cheaper than the cursor walk.
const MAX_SHIFT: u32 = 40;
/// Pops needed before a resize trusts the observed gap statistics.
const REBUILD_MIN_POPS: u64 = 16;
/// Width-drift tolerance in shift steps: once the observed mean pop gap
/// is ≥ 2^5 = 32× off the bucket width in either direction, the next
/// drift check forces a rebuild even if the population never crossed a
/// size threshold. This is what rescues a backlog pushed before its
/// first pop: size-triggered rebuilds then adapt the count but never
/// the width, which stays at the default until the drain measures gaps.
const DRIFT_SHIFT: u32 = 5;
/// Drift checks run every `DRIFT_CHECK_MASK + 1` pops (the check costs a
/// division, which would be measurable at nine-digit pop rates).
const DRIFT_CHECK_MASK: u64 = 0xFF;
/// Capacity classes in the spare-buffer pool (`floor(log2(capacity))`,
/// saturated into the top class). 32 covers any realistic ring buffer.
const POOL_CLASSES: usize = 32;

/// A priority queue of `(K, V)` entries popping in ascending `K` order,
/// implemented as an adaptive calendar (see module docs).
///
/// Semantically interchangeable with a min-heap over `K` plus FIFO
/// tie-breaking on fully-equal keys; `debug_assertions` builds verify
/// exactly that against a live reference heap.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::calendar::CalendarQueue;
/// use hivemind_sim::time::SimTime;
///
/// let mut q: CalendarQueue<(SimTime, u64), &str> = CalendarQueue::new();
/// q.push((SimTime::from_secs(2), 0), "later");
/// q.push((SimTime::from_secs(1), 1), "sooner");
/// assert_eq!(q.peek(), Some((SimTime::from_secs(1), 1)));
/// assert_eq!(q.pop(), Some(((SimTime::from_secs(1), 1), "sooner")));
/// assert_eq!(q.pop(), Some(((SimTime::from_secs(2), 0), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalendarQueue<K, V> {
    /// Each bucket holds its entries sorted *ascending* by key: the bucket
    /// minimum is `front()`, in-order arrivals are `push_back`. The vec is
    /// kept at its high-water length — shrinking only lowers [`Self::mask`]
    /// — so every ring buffer keeps its capacity across rebuilds and a
    /// steady-state resize cycle never touches the allocator.
    buckets: Vec<VecDeque<(K, V)>>,
    /// Active bucket count minus one; the count is always a power of two
    /// and at most `buckets.len()`. Only `buckets[..=mask]` are in use.
    mask: usize,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Scan start, aligned to a bucket boundary. Invariant: every stored
    /// entry's time is ≥ `cursor` (pushes into the past rewind it).
    cursor: u64,
    len: usize,
    /// The minimum entry, held out of the buckets entirely. `Some` iff
    /// `len > 0`. Small queues (the DES kernel's steady state is one or
    /// two pending events) live in this slot and never touch a bucket.
    head: Option<(K, V)>,
    /// Gap statistics feeding the adaptive width (virtual-time ns).
    last_pop_ns: u64,
    anchor_pop_ns: u64,
    pops_since_rebuild: u64,
    /// Lifetime push+pop count (profiling breakdowns read this; it never
    /// feeds scheduling decisions).
    ops: u64,
    /// Rebuild scratch, retained across rebuilds so redistribution reuses
    /// one high-water buffer instead of allocating per resize.
    spill: Vec<(K, V)>,
    /// Spare ring buffers recycled between buckets, grouped into
    /// power-of-two capacity classes. The hot window walks forward
    /// through physical bucket indices as virtual time advances, so
    /// capacity left on a drained bucket would strand there while the
    /// next window's buckets allocate from scratch; instead an emptied
    /// bucket donates its buffer here and a bucket receiving its first
    /// entry takes back the largest available (so the recurring tie
    /// burst finds a deep buffer instead of regrowing a shallow one).
    /// Pure pointer swaps, O(1) via `pool_mask` — never affects order.
    pool: [Vec<VecDeque<(K, V)>>; POOL_CLASSES],
    /// Bit `c` set iff `pool[c]` is non-empty.
    pool_mask: u32,
    /// Rebuild scratch: occupancy of each target bucket, then the heavy
    /// ones sorted by need. Retained like `spill`.
    rebuild_counts: Vec<u32>,
    rebuild_heavy: Vec<(u32, u32)>,
    /// Reference heap shadowing every push/pop in debug builds.
    #[cfg(debug_assertions)]
    shadow: std::collections::BinaryHeap<std::cmp::Reverse<K>>,
}

impl<K: CalendarKey, V> CalendarQueue<K, V> {
    /// An empty queue with the default geometry.
    pub fn new() -> CalendarQueue<K, V> {
        CalendarQueue::with_capacity(0)
    }

    /// An empty queue pre-sized for roughly `capacity` concurrent
    /// entries, skipping the first few growth rebuilds.
    pub fn with_capacity(capacity: usize) -> CalendarQueue<K, V> {
        let nb = capacity.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        CalendarQueue {
            buckets: (0..nb).map(|_| VecDeque::new()).collect(),
            mask: nb - 1,
            shift: DEFAULT_SHIFT,
            cursor: 0,
            len: 0,
            head: None,
            last_pop_ns: 0,
            anchor_pop_ns: 0,
            pops_since_rebuild: 0,
            ops: 0,
            spill: Vec::new(),
            pool: std::array::from_fn(|_| Vec::new()),
            pool_mask: 0,
            rebuild_counts: Vec::new(),
            rebuild_heavy: Vec::new(),
            #[cfg(debug_assertions)]
            shadow: std::collections::BinaryHeap::new(),
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime push+pop operation count, for profiling breakdowns.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The minimum key without removing it. O(1), `&self`.
    #[inline]
    pub fn peek(&self) -> Option<K> {
        self.head.as_ref().map(|&(k, _)| k)
    }

    /// Removes all entries, keeping bucket allocations.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.head = None;
        self.pops_since_rebuild = 0;
        #[cfg(debug_assertions)]
        self.shadow.clear();
    }

    /// Parks an emptied bucket's ring buffer for reuse. O(1).
    #[inline]
    fn donate_spare(&mut self, d: VecDeque<(K, V)>) {
        debug_assert!(d.is_empty() && d.capacity() > 0);
        let cls = (usize::BITS - 1 - d.capacity().leading_zeros()).min(31) as usize;
        self.pool[cls].push(d);
        self.pool_mask |= 1 << cls;
    }

    /// Hands out the largest parked ring buffer, if any. O(1).
    #[inline]
    fn take_spare(&mut self) -> Option<VecDeque<(K, V)>> {
        if self.pool_mask == 0 {
            return None;
        }
        let cls = (u32::BITS - 1 - self.pool_mask.leading_zeros()) as usize;
        let d = self.pool[cls].pop().expect("mask bit implies spares");
        if self.pool[cls].is_empty() {
            self.pool_mask &= !(1 << cls);
        }
        Some(d)
    }

    #[inline]
    fn align(&self, t: u64) -> u64 {
        (t >> self.shift) << self.shift
    }

    #[inline]
    fn bucket_index(&self, t: u64) -> usize {
        ((t >> self.shift) as usize) & self.mask
    }

    /// Places an entry into its bucket. `before_equals` selects which side
    /// of fully-equal keys the entry lands on: a fresh push goes after
    /// them (FIFO), a displaced old head goes back before them (it was
    /// inserted earlier than anything still stored).
    #[inline]
    fn bucket_insert(&mut self, key: K, value: V, before_equals: bool) {
        let b = self.bucket_index(key.time().as_nanos());
        if self.buckets[b].capacity() == 0 {
            if let Some(spare) = self.take_spare() {
                self.buckets[b] = spare;
            }
        }
        let bucket = &mut self.buckets[b];
        // Ascending bucket: in-order keys append at the back; only
        // out-of-order arrivals pay a positional insert.
        match bucket.back() {
            Some((bk, _)) if *bk > key || (before_equals && *bk >= key) => {
                let at = if before_equals {
                    bucket.partition_point(|(k, _)| *k < key)
                } else {
                    bucket.partition_point(|(k, _)| *k <= key)
                };
                bucket.insert(at, (key, value));
            }
            _ => bucket.push_back((key, value)),
        }
    }

    /// Inserts an entry. Equal keys pop in insertion order.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        let t = key.time().as_nanos();
        if self.len == 0 || t < self.cursor {
            self.cursor = self.align(t);
        }
        match self.head {
            None => self.head = Some((key, value)),
            Some((hk, _)) if key < hk => {
                let (ok, ov) = self.head.replace((key, value)).expect("head present");
                self.bucket_insert(ok, ov, true);
            }
            _ => self.bucket_insert(key, value, false),
        }
        self.len += 1;
        self.ops += 1;
        #[cfg(debug_assertions)]
        self.shadow.push(std::cmp::Reverse(key));
        if self.len > 2 * (self.mask + 1) && self.mask + 1 < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Removes and returns the minimum entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(K, V)> {
        let (k, v) = self.head.take()?;
        self.len -= 1;
        self.ops += 1;
        let t = k.time().as_nanos();
        self.cursor = self.align(t);
        self.last_pop_ns = t;
        self.pops_since_rebuild += 1;
        if self.len > 0 {
            let (_, b) = self.scan_min();
            let bucket = &mut self.buckets[b];
            self.head = bucket.pop_front();
            if bucket.is_empty() && bucket.capacity() > 0 {
                let spare = std::mem::take(bucket);
                self.donate_spare(spare);
            }
        }
        #[cfg(debug_assertions)]
        {
            let std::cmp::Reverse(sk) = self.shadow.pop().expect("shadow tracks len");
            assert!(
                sk == k,
                "calendar queue pop order diverged from reference heap"
            );
        }
        if 8 * self.len < self.mask + 1 && self.mask + 1 > MIN_BUCKETS {
            self.rebuild();
        } else if self.pops_since_rebuild & DRIFT_CHECK_MASK == 0 {
            if let Some(target) = self.observed_shift() {
                if target.abs_diff(self.shift) >= DRIFT_SHIFT {
                    self.rebuild();
                }
            }
        }
        Some((k, v))
    }

    /// The bucket-width shift matching the observed mean pop gap, when
    /// enough pops have been seen since the last rebuild to trust it.
    fn observed_shift(&self) -> Option<u32> {
        if self.pops_since_rebuild < REBUILD_MIN_POPS {
            return None;
        }
        let span = self.last_pop_ns.saturating_sub(self.anchor_pop_ns);
        let avg = (span / self.pops_since_rebuild).clamp(1, 1 << MAX_SHIFT);
        Some(avg.next_power_of_two().trailing_zeros().min(MAX_SHIFT))
    }

    /// Finds the minimum entry by walking buckets from the cursor; one
    /// windowed lap, then a direct search over bucket minima (sparse tail).
    /// Requires `len > 0`.
    fn scan_min(&mut self) -> (K, usize) {
        debug_assert!(self.len > 0);
        let width = 1u64 << self.shift;
        let mut b = self.bucket_index(self.cursor);
        let mut wend = self.cursor.saturating_add(width);
        for _ in 0..=self.mask {
            if let Some(&(k, _)) = self.buckets[b].front() {
                if k.time().as_nanos() < wend {
                    self.cursor = self.align(k.time().as_nanos());
                    return (k, b);
                }
            }
            b = (b + 1) & self.mask;
            let next = wend.saturating_add(width);
            if next == wend {
                break; // saturated at the end of time
            }
            wend = next;
        }
        let mut best: Option<(K, usize)> = None;
        for (i, bucket) in self.buckets[..=self.mask].iter().enumerate() {
            if let Some(&(k, _)) = bucket.front() {
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, i));
                }
            }
        }
        let (k, i) = best.expect("len > 0 implies some bucket minimum");
        self.cursor = self.align(k.time().as_nanos());
        (k, i)
    }

    /// Resizes the calendar to match the current population and, when
    /// enough pops have been observed, re-derives the bucket width from
    /// the mean pop gap. Preserves FIFO order among equal keys.
    fn rebuild(&mut self) {
        if let Some(shift) = self.observed_shift() {
            self.shift = shift;
        }
        self.anchor_pop_ns = self.last_pop_ns;
        self.pops_since_rebuild = 0;

        let nb = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        debug_assert!(self.spill.is_empty());
        for i in 0..=self.mask {
            let bucket = &mut self.buckets[i];
            self.spill.extend(bucket.drain(..));
            if bucket.capacity() > 0 {
                let spare = std::mem::take(bucket);
                self.donate_spare(spare);
            }
        }
        // Shrinking only lowers the mask: the tail buckets stay allocated
        // (empty, since everything was just drained) so a later re-grow
        // finds their ring buffers intact.
        if self.buckets.len() < nb {
            self.buckets.resize_with(nb, VecDeque::new);
        }
        self.mask = nb - 1;
        // Pre-assign the deepest spare buffers to the buckets that will
        // need them most. Redistribution order is arbitrary, so without
        // this the big spares land on whichever buckets come first and
        // the tie-burst bucket regrows a shallow one on every rebuild.
        // Only buckets needing ≥ 16 entries matter: smaller buffers are
        // abundant in the pool.
        self.rebuild_counts.clear();
        self.rebuild_counts.resize(nb, 0);
        for &(k, _) in &self.spill {
            let b = ((k.time().as_nanos() >> self.shift) as usize) & self.mask;
            self.rebuild_counts[b] += 1;
        }
        self.rebuild_heavy.clear();
        self.rebuild_heavy.extend(
            self.rebuild_counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= 16)
                .map(|(i, &c)| (c, i as u32)),
        );
        self.rebuild_heavy.sort_unstable_by(|a, b| b.cmp(a));
        let mut heavy = std::mem::take(&mut self.rebuild_heavy);
        for &(_, idx) in &heavy {
            match self.take_spare() {
                Some(spare) => self.buckets[idx as usize] = spare,
                None => break,
            }
        }
        heavy.clear();
        self.rebuild_heavy = heavy;
        // Buckets drained front-to-back are ascending, so equal keys come
        // out earliest-insertion first; the push rule (equal appends after)
        // restores the exact FIFO layout. The head slot stays put: it is
        // the global minimum and never lives in a bucket.
        let mut spill = std::mem::take(&mut self.spill);
        for (k, v) in spill.drain(..) {
            self.bucket_insert(k, v, false);
        }
        self.spill = spill;
        if let Some(&(hk, _)) = self.head.as_ref() {
            self.cursor = self.align(hk.time().as_nanos());
        }
    }
}

impl<K: CalendarKey, V> Default for CalendarQueue<K, V> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<K, V> std::fmt::Debug for CalendarQueue<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("buckets", &(self.mask + 1))
            .field("width_ns", &(1u64 << self.shift))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    type Q = CalendarQueue<(SimTime, u64), u64>;

    #[test]
    fn pops_in_key_order() {
        let mut q = Q::new();
        for (i, secs) in [5u64, 1, 9, 3, 3, 7].iter().enumerate() {
            q.push((SimTime::from_secs(*secs), i as u64), i as u64);
        }
        let mut keys = Vec::new();
        while let Some((k, _)) = q.pop() {
            keys.push(k);
        }
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn equal_keys_pop_fifo() {
        // Identical full keys (the wake-queue case): insertion order wins.
        let mut q: CalendarQueue<(SimTime, u32), u64> = CalendarQueue::new();
        let k = (SimTime::from_secs(1), 7u32);
        for v in 0..10u64 {
            q.push(k, v);
        }
        let vals: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn equal_keys_survive_rebuild_in_fifo_order() {
        let mut q: CalendarQueue<(SimTime, u32), u64> = CalendarQueue::new();
        let k = (SimTime::from_secs(1), 7u32);
        // Enough entries to force at least one growth rebuild (load > 2).
        for v in 0..200u64 {
            q.push(k, v);
        }
        let vals: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(vals, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn peek_is_stable_and_non_mutating() {
        let mut q = Q::new();
        assert_eq!(q.peek(), None);
        q.push((SimTime::from_secs(3), 0), 0);
        q.push((SimTime::from_secs(1), 1), 1);
        assert_eq!(q.peek(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.peek(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn interleaved_push_pop_tracks_reference() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = Q::new();
        let mut h: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        // A deterministic LCG drives a mixed workload with hold pattern.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let gap = x >> 48; // 0..65536 ns
            let key = (SimTime::from_nanos(now + gap), seq);
            seq += 1;
            q.push(key, seq);
            h.push(Reverse(key));
            if round % 3 != 0 {
                let (k, _) = q.pop().expect("non-empty");
                let Reverse(hk) = h.pop().expect("non-empty");
                assert_eq!(k, hk);
                now = k.0.as_nanos();
            }
        }
        while let Some((k, _)) = q.pop() {
            let Reverse(hk) = h.pop().expect("same length");
            assert_eq!(k, hk);
        }
        assert!(h.is_empty());
    }

    #[test]
    fn grows_and_shrinks_without_losing_entries() {
        let mut q = Q::new();
        for i in 0..10_000u64 {
            q.push((SimTime::from_nanos(i * 1_000), i), i);
        }
        assert!(q.mask + 1 > MIN_BUCKETS, "population forced growth");
        let mut n = 0u64;
        let mut last = None;
        while let Some((k, _)) = q.pop() {
            if let Some(p) = last {
                assert!(p <= k);
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 10_000);
        assert_eq!(q.mask + 1, MIN_BUCKETS, "drain shrank the calendar");
        assert!(
            q.buckets.len() > MIN_BUCKETS,
            "high-water bucket storage is retained across shrinks"
        );
    }

    #[test]
    fn tie_heavy_then_sparse_gaps() {
        // The capture pattern: bursts at whole seconds, then a 1 s void.
        let mut q = Q::new();
        let mut seq = 0u64;
        for sec in 0..20u64 {
            for _ in 0..500 {
                q.push((SimTime::from_secs(sec), seq), seq);
                seq += 1;
            }
        }
        let mut popped = 0u64;
        let mut last = None;
        while let Some((k, _)) = q.pop() {
            if let Some(p) = last {
                assert!(p <= k);
            }
            last = Some(k);
            popped += 1;
        }
        assert_eq!(popped, seq);
    }

    #[test]
    fn front_loaded_backlog_adapts_width_on_drain() {
        // A large backlog pushed before any pop (so size rebuilds never
        // see pop-gap stats), with gaps far
        // wider than the default bucket. The drift check must widen the
        // buckets early in the drain instead of lapping empty buckets
        // for the whole run.
        let mut q = Q::new();
        for i in 0..50_000u64 {
            q.push((SimTime::from_nanos(i * 4_000_000), i), i);
        }
        let shift_before = q.shift;
        for _ in 0..2_000 {
            q.pop().expect("backlog");
        }
        assert!(
            q.shift > shift_before,
            "drift rebuild widened buckets: {} -> {}",
            shift_before,
            q.shift
        );
        let mut n = 2_000u64;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 50_000);
    }

    #[test]
    fn far_future_sentinel_is_safe() {
        let mut q = Q::new();
        q.push((SimTime::MAX, 0), 0);
        q.push((SimTime::ZERO, 1), 1);
        assert_eq!(q.pop().map(|(k, _)| k.1), Some(1));
        assert_eq!(q.pop().map(|(k, _)| k.1), Some(0));
    }

    #[test]
    fn push_into_past_rewinds_cursor() {
        let mut q = Q::new();
        q.push((SimTime::from_secs(100), 0), 0);
        let _ = q.pop();
        // After popping at t=100 s the cursor sits there; an external
        // schedule far earlier must still pop first.
        q.push((SimTime::from_secs(200), 1), 1);
        q.push((SimTime::from_secs(1), 2), 2);
        assert_eq!(q.pop().map(|(k, _)| k.1), Some(2));
        assert_eq!(q.pop().map(|(k, _)| k.1), Some(1));
    }

    #[test]
    fn clear_keeps_geometry() {
        let mut q = Q::new();
        for i in 0..100u64 {
            q.push((SimTime::from_secs(i), i), i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.push((SimTime::from_secs(5) + SimDuration::from_millis(1), 0), 7);
        assert_eq!(q.pop().map(|(_, v)| v), Some(7));
    }
}
