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

use std::collections::VecDeque;

use hivemind_sim::time::SimTime;

use super::Capture;

/// The order key of a scheduled capture.
type Key = (SimTime, u32);

fn key(&(at, c): &(SimTime, Capture)) -> Key {
    (at, c.task)
}

/// Scheduled captures in pop order, plus a not-yet-folded tail.
///
/// The run is a `VecDeque` so a run that never fully drains (a caller
/// keeping one capture pending per device) reuses its popped front
/// instead of growing with the mission. The two buffers are all it
/// holds: a fold merges into whichever has the larger capacity, so a
/// bulk submission is held once, not once per buffer. Both keep their
/// high-water capacity, so steady-state epochs allocate nothing.
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

    /// Lifetime push + pop count.
    pub(super) fn ops(&self) -> u64 {
        self.ops
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
    }

    impl Pair {
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

        /// Pops everything due by `t` from both sides, comparing each.
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
        }
    }

    #[test]
    fn interleaved_batches_and_stragglers_track_reference() {
        let mut rng = Lcg(0x2545F4914F6CDD1D);
        let mut p = Pair {
            run: CaptureRun::new(),
            heap: BinaryHeap::new(),
            task: 0,
            pushes: 0,
            pops: 0,
        };
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
                    for d in 0..devices {
                        for f in 0..frames {
                            let at = if on_grid {
                                (base / ms(1_000) + f) * ms(1_000)
                            } else {
                                base + f * ms(125) + d * ms(3)
                            };
                            p.push(SimTime::from_nanos(at.max(now)), d as u32);
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
        assert!(p.pops > 1_000, "the workload drained a real backlog");
        assert_eq!(p.run.ops(), p.pushes + p.pops, "one op per push and pop");
    }
}
