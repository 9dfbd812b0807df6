//! A shard's capture schedule: one sorted run, consumed in order.
//!
//! Every caller knows its capture schedule ahead of time and submits it
//! in bulk, usually device by device, so a shard receives its captures
//! out of time order and then only ever consumes them in order. A
//! priority queue pays for that input on every push; [`CaptureRun`]
//! instead appends in-order captures to the run, parks the rest in an
//! unsorted tail, and folds the tail in with one sort and one in-place
//! merge before the next pop.
//!
//! Entries are keyed `(at, task)`. Task ids grow with submission, so
//! within one shard this is the order of `(at, submission seq)`: equal
//! instants pop in submission order.
//!
//! A bulk submission puts a whole mission's captures in the run before
//! the first pop, so the buffer's high-water mark is every capture ever
//! submitted. After each shard phase, [`CaptureRun::release_consumed`]
//! hands back what the popped front no longer needs, so resident memory
//! follows the captures still pending.

use std::collections::VecDeque;

use hivemind_sim::time::SimTime;

use super::Capture;

/// The order key of a scheduled capture.
type Key = (SimTime, u32);

/// Capacity, in entries, that no shrink goes below; a buffer no larger
/// is never shrunk. 8,192 entries of 24 B are 192 KiB, above the 128 KiB
/// at which the system allocator maps a block on its own: a smaller
/// block lives inside the allocator's heap, where shrinking it returns
/// no pages. Runs that never exceed it keep their capacity, so their
/// steady-state epochs allocate nothing.
const RELEASE_FLOOR: usize = 8_192;

fn key(&(at, c): &(SimTime, Capture)) -> Key {
    (at, c.task)
}

/// Scheduled captures in pop order, plus a not-yet-folded tail.
///
/// The run is a `VecDeque` so a run that never fully drains (a caller
/// keeping one capture pending per device) reuses its popped front
/// instead of growing with the mission. The two buffers are all it
/// holds: a fold merges into whichever has the larger capacity, so a
/// bulk submission is held once, not once per buffer. Up to
/// [`RELEASE_FLOOR`] entries both keep their high-water capacity, so
/// steady-state epochs allocate nothing; above it,
/// [`CaptureRun::release_consumed`] shrinks a buffer once its live
/// entries fall below three quarters of its capacity.
pub(super) struct CaptureRun {
    /// Sorted by key, strictly ascending.
    run: VecDeque<(SimTime, Capture)>,
    /// Captures that arrived out of order since the last fold, unsorted.
    tail: Vec<(SimTime, Capture)>,
    /// The smallest key in `tail` (`None` iff it is empty), so `peek`
    /// stays exact from `&self`.
    tail_min: Option<Key>,
    /// Lifetime push + pop count: one term of `PhaseBreakdown::queue_ops`,
    /// which sums pushes + pops across the hub action heap, each shard's
    /// capture run and each shard's wake heap.
    ops: u64,
    /// The last popped key: every pop must exceed it.
    #[cfg(debug_assertions)]
    last_popped: Option<Key>,
}

impl CaptureRun {
    pub(super) fn new() -> CaptureRun {
        CaptureRun {
            run: VecDeque::new(),
            tail: Vec::new(),
            tail_min: None,
            ops: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }

    /// Schedules capture `c` at `at`: an append if it sorts after every
    /// queued capture, otherwise a tail entry folded in by the next pop.
    pub(super) fn push(&mut self, at: SimTime, c: Capture) {
        self.ops += 1;
        let k = (at, c.task);
        if self.tail.is_empty() && self.run.back().is_none_or(|b| key(b) < k) {
            self.run.push_back((at, c));
        } else {
            self.tail_min = Some(self.tail_min.map_or(k, |m| m.min(k)));
            self.tail.push((at, c));
        }
    }

    /// The smallest queued key, folded or not.
    pub(super) fn peek(&self) -> Option<Key> {
        match (self.run.front().map(key), self.tail_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns the next capture if it is due by `t`.
    pub(super) fn pop_until(&mut self, t: SimTime) -> Option<(SimTime, Capture)> {
        if !self.tail.is_empty() {
            self.fold();
        }
        if self.run.front()?.0 > t {
            return None;
        }
        let entry = self.run.pop_front()?;
        self.ops += 1;
        #[cfg(debug_assertions)]
        {
            let k = key(&entry);
            assert!(self.last_popped < Some(k), "capture popped out of order");
            self.last_popped = Some(k);
        }
        Some(entry)
    }

    /// Captures due by `t`, counting the unfolded tail whole once its
    /// earliest entry is due: a gauge of the shard work ahead that
    /// neither folds nor scans the tail.
    pub(super) fn due_by(&self, t: SimTime) -> usize {
        let run = self.run.partition_point(|&(at, _)| at <= t);
        let tail = if self.tail_min.is_some_and(|(at, _)| at <= t) {
            self.tail.len()
        } else {
            0
        };
        run + tail
    }

    /// Lifetime push + pop count.
    pub(super) fn ops(&self) -> u64 {
        self.ops
    }

    /// Hands back capacity the pending captures no longer need: a buffer
    /// above [`RELEASE_FLOOR`] whose live entries fill less than three
    /// quarters of it shrinks to an eighth above its live count (never
    /// below the floor). Capacity thus falls geometrically, and a buffer
    /// must lose about a sixth of its entries again, or grow by an
    /// eighth, before it reallocates, so the copying costs amortized O(1)
    /// per capture (about five moves each). Resident memory then exceeds
    /// the pending captures by at most a third, which matters while the
    /// outcome's latency samples fill in as the captures drain.
    /// Called once per shard phase; the pop order is untouched.
    pub(super) fn release_consumed(&mut self) {
        if let Some(cap) = released(self.run.capacity(), self.run.len()) {
            self.run.shrink_to(cap);
        }
        if let Some(cap) = released(self.tail.capacity(), self.tail.len()) {
            self.tail.shrink_to(cap);
        }
    }

    /// Sorts the tail into the run. Keys are unique, so the unstable sort
    /// is deterministic and allocates nothing. The two then merge in
    /// place, from the back, into the buffer with the larger capacity:
    /// the run when stragglers join a backlog (an append when the tail
    /// starts after the run's end, O(live run) otherwise), and the tail
    /// when a bulk submission meets a shorter run, which then becomes the
    /// run.
    fn fold(&mut self) {
        self.tail.sort_unstable_by_key(key);
        self.tail_min = None;
        if self.run.capacity() >= self.tail.capacity() {
            let first = key(&self.tail[0]);
            if self.run.back().is_none_or(|b| key(b) < first) {
                self.run.extend(self.tail.drain(..));
                return;
            }
            let n = self.run.len();
            // Placeholders, overwritten by the merge.
            self.run.extend(self.tail.iter().copied());
            merge_from_back(self.run.make_contiguous(), n, &self.tail);
            self.tail.clear();
        } else {
            let n = self.tail.len();
            self.tail.extend(self.run.iter().copied());
            merge_from_back(&mut self.tail, n, self.run.make_contiguous());
            self.run.clear();
            // Both conversions keep their buffers: the merged tail becomes
            // the run, and the old run's, now empty, the tail.
            let merged = VecDeque::from(std::mem::take(&mut self.tail));
            self.tail = Vec::from(std::mem::replace(&mut self.run, merged));
        }
    }
}

/// The capacity to shrink a buffer of `cap` entries holding `len` to, if
/// it should shrink at all.
fn released(cap: usize, len: usize) -> Option<usize> {
    (cap > RELEASE_FLOOR && len < cap - cap / 4).then(|| (len + len / 8).max(RELEASE_FLOOR))
}

/// Merges sorted `src` into `dst`, whose first `n` entries are sorted and
/// whose last `src.len()` entries are free, from the back so that no
/// entry is overwritten before it moves. Stops once `src` is placed: the
/// rest of `dst`'s prefix is already where it belongs.
fn merge_from_back(dst: &mut [(SimTime, Capture)], n: usize, src: &[(SimTime, Capture)]) {
    debug_assert_eq!(dst.len(), n + src.len());
    let (mut i, mut j) = (n, src.len());
    while j > 0 {
        let k = i + j - 1;
        if i > 0 && key(&dst[i - 1]) > key(&src[j - 1]) {
            dst[k] = dst[i - 1];
            i -= 1;
        } else {
            dst[k] = src[j - 1];
            j -= 1;
        }
    }
}

impl std::fmt::Debug for CaptureRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureRun")
            .field("run", &self.run.len())
            .field("tail", &self.tail.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use hivemind_apps::suite::App;
    use hivemind_sim::time::SimDuration;

    use super::*;
    use crate::dsl::PlacementSite;

    /// A test capture; only `task` takes part in the order.
    fn capture(task: u32, device: u32) -> Capture {
        Capture {
            task,
            device,
            label: 0,
            app: App::Maze,
            placement: PlacementSite::Edge,
        }
    }

    /// A deterministic LCG (no dependency on RNG internals).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// The run under test beside a reference heap; `task` grows with
    /// every push, as engine task ids do.
    struct Pair {
        run: CaptureRun,
        heap: BinaryHeap<Reverse<Key>>,
        task: u32,
        pushes: u64,
        pops: u64,
        /// Releases that shrank a buffer.
        shrinks: u64,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                run: CaptureRun::new(),
                heap: BinaryHeap::new(),
                task: 0,
                pushes: 0,
                pops: 0,
                shrinks: 0,
            }
        }

        fn push(&mut self, at: SimTime, device: u32) {
            self.run.push(at, capture(self.task, device));
            self.heap.push(Reverse((at, self.task)));
            self.task += 1;
            self.pushes += 1;
            self.check_peek();
        }

        fn check_peek(&self) {
            assert_eq!(self.run.peek(), self.heap.peek().map(|r| r.0), "peek");
        }

        /// Pops everything due by `t` from both sides, comparing each,
        /// then releases consumed capacity as a shard phase's end does.
        fn pop_until(&mut self, t: SimTime) {
            while let Some((at, c)) = self.run.pop_until(t) {
                let Reverse(want) = self.heap.pop().expect("reference has it");
                assert_eq!((at, c.task), want, "pop");
                assert!(at <= t, "popped past the bound");
                self.pops += 1;
                self.check_peek();
            }
            assert!(
                self.heap.peek().is_none_or(|r| r.0 .0 > t),
                "left a due capture queued"
            );
            let before = capacity(&self.run);
            self.run.release_consumed();
            if capacity(&self.run) < before {
                self.shrinks += 1;
            }
            self.check_peek();
        }
    }

    /// Entries both buffers can hold without reallocating.
    fn capacity(run: &CaptureRun) -> usize {
        run.run.capacity() + run.tail.capacity()
    }

    /// One device-major bulk submission: each of `devices` devices
    /// captures `frames` times, 125 ms apart, starting at `base`.
    fn bulk(p: &mut Pair, base: u64, devices: u64, frames: u64) {
        let ms = |n: u64| SimDuration::from_millis(n).as_nanos();
        for d in 0..devices {
            for f in 0..frames {
                p.push(
                    SimTime::from_nanos(base + f * ms(125) + d * ms(3)),
                    d as u32,
                );
            }
        }
    }

    /// Drives `p` through a seeded mix of bulk batches, in-order appends,
    /// stragglers below the head, equal instants and bounded pops,
    /// checking every pop and peek against the reference, then drains it.
    fn track_reference(p: &mut Pair, seed: u64) {
        let mut rng = Lcg(seed);
        // Virtual time already consumed; captures land at or after it.
        let mut now = 0u64;
        let ms = |n: u64| SimDuration::from_millis(n).as_nanos();
        for _ in 0..400 {
            match rng.below(5) {
                // A device-major bulk batch: each device's captures in
                // order, the batch as a whole out of order, with many
                // captures on shared whole-second instants.
                0 => {
                    let devices = 1 + rng.below(24);
                    let frames = 1 + rng.below(6);
                    let on_grid = rng.below(2) == 0;
                    let base = now + ms(rng.below(2_000));
                    if !on_grid {
                        bulk(p, base, devices, frames);
                    } else {
                        for d in 0..devices {
                            for f in 0..frames {
                                let at = (base / ms(1_000) + f) * ms(1_000);
                                p.push(SimTime::from_nanos(at.max(now)), d as u32);
                            }
                        }
                    }
                }
                // In-order appends after everything queued.
                1 => {
                    let mut at = p.heap.iter().map(|r| r.0 .0.as_nanos()).max();
                    for _ in 0..1 + rng.below(8) {
                        let next = at.map_or(now, |a| a + rng.below(ms(50)));
                        p.push(SimTime::from_nanos(next), 0);
                        at = Some(next);
                    }
                }
                // Stragglers keyed below the current head.
                2 => {
                    let head = p.run.peek().map_or(now, |(t, _)| t.as_nanos());
                    for _ in 0..1 + rng.below(3) {
                        let at = now + rng.below(head - now + 1);
                        p.push(SimTime::from_nanos(at), rng.below(8) as u32);
                    }
                }
                // Equal instants across many tasks.
                3 => {
                    let at = SimTime::from_nanos(now + ms(rng.below(3) * 500));
                    for d in 0..1 + rng.below(40) {
                        p.push(at, d as u32);
                    }
                }
                // Consume up to a bound.
                _ => {
                    let t = now + rng.below(ms(1_500));
                    p.pop_until(SimTime::from_nanos(t));
                    now = t;
                }
            }
        }
        p.pop_until(SimTime::MAX);
        assert!(p.heap.is_empty());
        assert_eq!(p.run.peek(), None);
        assert_eq!(p.run.ops(), p.pushes + p.pops, "one op per push and pop");
    }

    #[test]
    fn interleaved_batches_and_stragglers_track_reference() {
        let mut p = Pair::new();
        track_reference(&mut p, 0x2545F4914F6CDD1D);
        assert!(p.pops > 1_000, "the workload drained a real backlog");
    }

    /// The same mix on top of a mission-sized bulk submission, so the
    /// run shrinks between pops while stragglers and batches fold in.
    #[test]
    fn shrinks_between_pops_keep_reference_order() {
        let mut p = Pair::new();
        // 40 devices x 500 frames: 20,000 captures over 62.5 s, about
        // what the mix consumes in its 400 steps.
        bulk(&mut p, 0, 40, 500);
        track_reference(&mut p, 0x9E3779B97F4A7C15);
        assert!(p.shrinks >= 2, "the run released capacity: {}", p.shrinks);
        assert!(
            capacity(&p.run) <= 2 * RELEASE_FLOOR,
            "drained run shrank back"
        );
    }

    /// A bulk-submitted run drained to a few entries holds capacity
    /// within a constant factor of its live count, beyond the floor each
    /// buffer may keep.
    #[test]
    fn drained_bulk_run_keeps_capacity_near_live_count() {
        for pending in [0u64, 10, 5_000, 20_000] {
            let mut p = Pair::new();
            bulk(&mut p, 0, 100, 1_000);
            let total = 100 * 1_000;
            let mut popped = 0;
            // Consume in one-second phases, as epochs do.
            let mut t = 0;
            while popped < total - pending {
                t += SimDuration::from_millis(1_000).as_nanos();
                while popped < total - pending {
                    let Some((at, c)) = p.run.pop_until(SimTime::from_nanos(t)) else {
                        break;
                    };
                    let Reverse(want) = p.heap.pop().expect("reference has it");
                    assert_eq!((at, c.task), want, "pop");
                    popped += 1;
                }
                p.run.release_consumed();
            }
            let live = p.run.run.len() + p.run.tail.len();
            assert_eq!(live as u64, pending);
            let cap = capacity(&p.run);
            assert!(
                cap <= 2 * live + 2 * RELEASE_FLOOR,
                "{pending} pending: capacity {cap} for {live} live entries"
            );
        }
    }

    /// Capacity has hysteresis: once shrunk, alternating pushes and pops
    /// right at the shrink boundary never reallocate.
    #[test]
    fn alternating_at_the_boundary_does_not_reallocate() {
        let mut p = Pair::new();
        let ms = |n: u64| SimDuration::from_millis(n).as_nanos();
        // An in-order run of 4 x floor entries, one every millisecond.
        let n = 4 * RELEASE_FLOOR as u64;
        for i in 0..n {
            p.push(SimTime::from_nanos(ms(i)), 0);
        }
        // Pop to one below three quarters of the capacity, so the
        // release shrinks.
        let cap = p.run.run.capacity() as u64;
        p.pop_until(SimTime::from_nanos(ms(n - (cap - cap / 4))));
        assert_eq!(p.shrinks, 1, "fell below three quarters: one shrink");
        let shrunk = capacity(&p.run);
        let mut changes = 0;
        for next in n..n + 1_000 {
            // One append and one pop, each followed by a release.
            p.push(SimTime::from_nanos(ms(next)), 0);
            p.run.release_consumed();
            changes += usize::from(capacity(&p.run) != shrunk);
            let head = p.run.peek().expect("queued").0;
            p.pop_until(head);
            changes += usize::from(capacity(&p.run) != shrunk);
        }
        assert_eq!(changes, 0, "alternation changed capacity {changes} times");
    }
}
