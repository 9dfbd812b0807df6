//! Measurement primitives for experiments.
//!
//! Every figure in the paper reduces to medians, tails (p99), means, and
//! time series of counters. This module provides:
//!
//! * [`DurationSummary`] — durations with exact quantiles at 4 bytes per
//!   sample, used for latency distributions (Figs. 4, 5a, 6, 11, 13, 16).
//! * [`Summary`] — a sample reservoir of any scalar with exact quantiles
//!   (battery levels, model predictions, replicate statistics).
//! * [`TimeSeries`] — a step-valued load/active-task curve sampled once
//!   per second of virtual time, with its exact maximum (Figs. 5b, 5c).
//! * [`Meter`] — windowed byte/event accounting for bandwidth figures
//!   (Figs. 3b, 14b, 17).

use std::cell::OnceCell;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A collection of scalar samples with exact order statistics.
///
/// Samples are stored raw (an experiment produces at most a few hundred
/// thousand), so quantiles are exact rather than sketched. The buffer
/// keeps insertion order; quantile queries build a sorted copy once and
/// cache it until the next mutation, so repeated percentile reads (the
/// common figure-table pattern) sort at most once and never need `&mut`.
/// The mean is maintained as a running sum in insertion order — exactly
/// the fold `samples.iter().sum()` would produce, so results are
/// bit-identical to summing on demand.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in 1..=100 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.len(), 100);
/// assert!((s.quantile(0.5) - 50.0).abs() <= 1.0);
/// assert!((s.mean() - 50.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Samples in insertion order (never reordered by queries).
    samples: Vec<f64>,
    /// Sorted copy, built by the first quantile query after a mutation.
    sorted: OnceCell<Vec<f64>>,
    /// Running sum of `samples` in insertion order.
    sum: f64,
}

impl PartialEq for Summary {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Creates an empty summary with room for `n` samples, so a caller
    /// that knows its sample count never regrows the buffer.
    pub fn with_capacity(n: usize) -> Self {
        Summary {
            samples: Vec::with_capacity(n),
            ..Summary::default()
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — a NaN in a sample stream is
    /// always an upstream bug and should fail loudly.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "summary sample must be finite");
        self.samples.push(value);
        self.sum += value;
        self.sorted.take();
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// A sorted copy of the samples. Values that `total_cmp` ranks equal
    /// have equal bits, so the unstable sort (which needs no scratch
    /// buffer) gives the one sorted order.
    fn sorted_copy(&self) -> Vec<f64> {
        let mut v = self.samples.clone();
        v.sort_unstable_by(f64::total_cmp);
        v
    }

    /// Exact `q`-quantile (nearest-rank); `0.0` when empty. The first
    /// query after a mutation builds a sorted copy of the samples, which
    /// later queries reuse.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        nearest_rank(self.sorted.get_or_init(|| self.sorted_copy()), q)
    }

    /// [`Summary::quantile`] at each of `qs`, from one sorted copy. When
    /// no query has built the cached copy, the copy is dropped before
    /// returning: a caller that reads many large summaries once (an
    /// outcome's serialization) holds one sorted copy at a time, not one
    /// per summary.
    ///
    /// # Panics
    ///
    /// Panics unless every `q` is in `[0, 1]`.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let fresh;
        let sorted = match self.sorted.get() {
            Some(cached) => cached,
            None => {
                fresh = self.sorted_copy();
                &fresh
            }
        };
        qs.map(|q| nearest_rank(sorted, q))
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile — the paper's tail-latency metric.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Smallest sample; `0.0` when empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
            .pipe_finite()
    }

    /// Largest sample; `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// Merges another summary into this one.
    ///
    /// The running sum is extended sample-by-sample in buffer order,
    /// matching an on-demand `iter().sum()` bit-for-bit.
    pub fn merge(&mut self, other: &Summary) {
        for &v in &other.samples {
            self.sum += v;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted.take();
    }
}

/// The nearest-rank `q`-quantile of `sorted`; `0.0` when empty.
///
/// # Panics
///
/// Panics unless `0.0 <= q <= 1.0`.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    match rank(sorted.len(), q) {
        Some(r) => sorted[r - 1],
        None => 0.0,
    }
}

/// The 1-indexed nearest rank of the `q`-quantile among `n` samples;
/// `None` when `n == 0`.
///
/// # Panics
///
/// Panics unless `0.0 <= q <= 1.0`.
fn rank(n: usize, q: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
}

/// Marks, in [`DurationSummary`]'s narrow buffer, a sample held in its
/// wide buffer. No narrow sample equals it.
const WIDE: u32 = u32::MAX;

/// A collection of durations with exact order statistics, in seconds,
/// at 4 bytes per sample.
///
/// Answers exactly what a [`Summary`] fed the same durations through
/// [`SimDuration::as_secs_f64`] answers, bit for bit: `len`, `mean`,
/// `min`, `max`, `quantile` and `merge`. Each sample is kept as whole
/// nanoseconds, as a `u32` when it is under `u32::MAX` ns (4.29 s);
/// a longer one is kept exactly in a side buffer of `u64`, with a
/// `u32::MAX` marker in its place. Converting nanoseconds to seconds
/// preserves order, so the sorted nanoseconds, converted, are the sorted
/// seconds; and the mean keeps `Summary`'s running `f64` sum of seconds
/// in insertion order. Like `Summary`, quantile queries build a sorted
/// copy once and cache it until the next mutation, and
/// [`DurationSummary::quantiles`] builds one without caching it.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::stats::{DurationSummary, Summary};
/// use hivemind_sim::time::SimDuration;
///
/// let mut d = DurationSummary::new();
/// let mut s = Summary::new();
/// for ms in [120, 5, 7_000, 33] {
///     d.record(SimDuration::from_millis(ms));
///     s.record(SimDuration::from_millis(ms).as_secs_f64());
/// }
/// assert_eq!(d.len(), 4);
/// assert_eq!(d.quantile(0.5), s.quantile(0.5));
/// assert_eq!(d.max(), 7.0);
/// assert_eq!(d.mean(), s.mean());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DurationSummary {
    /// Samples in insertion order, in nanoseconds; [`WIDE`] marks one
    /// held in `wide`.
    narrow: Vec<u32>,
    /// Samples of `u32::MAX` ns or more, in insertion order.
    wide: Vec<u64>,
    /// Sorted copy, built by the first quantile query after a mutation.
    sorted: OnceCell<SortedDurations>,
    /// Running sum of the samples in seconds, in insertion order.
    sum: f64,
}

/// A [`DurationSummary`]'s samples in ascending order: the sorted narrow
/// buffer, whose [`WIDE`] markers sort last, and the sorted wide buffer
/// standing in for them.
#[derive(Debug, Clone)]
struct SortedDurations {
    narrow: Vec<u32>,
    wide: Vec<u64>,
}

impl SortedDurations {
    /// The `q`-quantile in seconds; `0.0` when empty.
    fn nearest_rank(&self, q: f64) -> f64 {
        let Some(r) = rank(self.narrow.len(), q) else {
            return 0.0;
        };
        let short = self.narrow.len() - self.wide.len();
        let ns = if r <= short {
            u64::from(self.narrow[r - 1])
        } else {
            self.wide[r - 1 - short]
        };
        SimDuration::from_nanos(ns).as_secs_f64()
    }
}

impl PartialEq for DurationSummary {
    fn eq(&self, other: &Self) -> bool {
        self.narrow == other.narrow && self.wide == other.wide
    }
}

impl DurationSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        DurationSummary::default()
    }

    /// Creates an empty summary with room for `n` samples under
    /// `u32::MAX` ns, so a caller that knows its sample count never
    /// regrows the buffer.
    pub fn with_capacity(n: usize) -> Self {
        DurationSummary {
            narrow: Vec::with_capacity(n),
            ..DurationSummary::default()
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        match u32::try_from(ns) {
            Ok(n) if n != WIDE => self.narrow.push(n),
            _ => {
                self.narrow.push(WIDE);
                self.wide.push(ns);
            }
        }
        self.sum += d.as_secs_f64();
        self.sorted.take();
    }

    /// Every sample in insertion order, in nanoseconds.
    fn nanos(&self) -> impl Iterator<Item = u64> + '_ {
        let mut wide = self.wide.iter();
        self.narrow.iter().map(move |&n| {
            if n == WIDE {
                *wide.next().expect("one wide sample per marker")
            } else {
                u64::from(n)
            }
        })
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.narrow.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.narrow.is_empty()
    }

    /// Arithmetic mean in seconds; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.narrow.is_empty() {
            0.0
        } else {
            self.sum / self.narrow.len() as f64
        }
    }

    /// The samples in ascending order. Equal `u32`s and `u64`s are
    /// indistinguishable, so the unstable sorts (which need no scratch
    /// buffer) give the one sorted order.
    fn sorted_copy(&self) -> SortedDurations {
        let mut narrow = self.narrow.clone();
        narrow.sort_unstable();
        let mut wide = self.wide.clone();
        wide.sort_unstable();
        SortedDurations { narrow, wide }
    }

    /// Exact `q`-quantile (nearest-rank) in seconds; `0.0` when empty.
    /// The first query after a mutation builds a sorted copy of the
    /// samples, which later queries reuse.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.sorted
            .get_or_init(|| self.sorted_copy())
            .nearest_rank(q)
    }

    /// [`DurationSummary::quantile`] at each of `qs`, from one sorted
    /// copy, which is dropped before returning unless a query had
    /// already cached it, as [`Summary::quantiles`] does.
    ///
    /// # Panics
    ///
    /// Panics unless every `q` is in `[0, 1]`.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let fresh;
        let sorted = match self.sorted.get() {
            Some(cached) => cached,
            None => {
                fresh = self.sorted_copy();
                &fresh
            }
        };
        qs.map(|q| sorted.nearest_rank(q))
    }

    /// Median (p50), in seconds.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile, in seconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Shortest sample in seconds; `0.0` when empty.
    pub fn min(&self) -> f64 {
        self.nanos()
            .min()
            .map_or(0.0, |ns| SimDuration::from_nanos(ns).as_secs_f64())
    }

    /// Longest sample in seconds; `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.nanos()
            .max()
            .map_or(0.0, |ns| SimDuration::from_nanos(ns).as_secs_f64())
    }

    /// Merges another summary into this one, extending the running sum
    /// sample by sample in `other`'s insertion order, as
    /// [`Summary::merge`] does.
    pub fn merge(&mut self, other: &DurationSummary) {
        for ns in other.nanos() {
            self.sum += SimDuration::from_nanos(ns).as_secs_f64();
        }
        self.narrow.extend_from_slice(&other.narrow);
        self.wide.extend_from_slice(&other.wide);
        self.sorted.take();
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} p50={:.4} p99={:.4}",
            self.len(),
            self.mean(),
            self.median(),
            self.p99()
        )
    }
}

/// Order-preserving bijection from `f64` to `u64`: `key_of(a) <= key_of(b)`
/// iff `a.total_cmp(&b).is_le()`.
fn key_of(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

fn val_of(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// A running fixed-quantile estimator with *exact* order statistics.
///
/// [`Summary`] is the right tool when all samples arrive before the first
/// quantile query: recording is an O(1) push and the sort happens once.
/// But a monitor that interleaves `record` and `quantile` per event (the
/// straggler detector does exactly that) would make `Summary` re-sort its
/// whole buffer on every query — quadratic over a run. This tracker answers the same nearest-rank quantile in
/// O(log n) per operation by holding the multiset split in two binary
/// heaps at the rank boundary: `low` (a max-heap) holds exactly the
/// `ceil(q·n)` smallest samples, so the current quantile is always
/// `low`'s root. Heaps rather than ordered maps because both are
/// `Vec`-backed: past their high-water capacity, recording a sample
/// never touches the allocator, which keeps the straggler monitor off
/// the engine's steady-state allocation budget.
///
/// Values returned are bit-identical to `Summary::quantile(q)` over the
/// same samples.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::stats::{QuantileTracker, Summary};
///
/// let mut t = QuantileTracker::new(0.90);
/// let mut s = Summary::new();
/// for v in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0] {
///     t.record(v);
///     s.record(v);
///     assert_eq!(t.quantile(), s.quantile(0.90));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct QuantileTracker {
    q: f64,
    /// Max-heap of the `ceil(q·len)` smallest sample keys.
    low: std::collections::BinaryHeap<u64>,
    /// Min-heap of every remaining sample key.
    high: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    len: usize,
}

impl QuantileTracker {
    /// Creates a tracker for the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        QuantileTracker {
            q,
            low: std::collections::BinaryHeap::new(),
            high: std::collections::BinaryHeap::new(),
            len: 0,
        }
    }

    /// Nearest rank (1-indexed) of the tracked quantile at count `n` —
    /// the same formula [`Summary::quantile`] uses.
    fn rank(&self, n: usize) -> usize {
        ((self.q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "quantile sample must be finite");
        let k = key_of(value);
        self.len += 1;
        let fits_low = self.low.peek().is_none_or(|&max| k <= max);
        if fits_low {
            self.low.push(k);
        } else {
            self.high.push(std::cmp::Reverse(k));
        }
        // The target rank moves by at most one per insert, so each loop
        // runs at most once.
        let target = self.rank(self.len);
        while self.low.len() > target {
            let k = self.low.pop().expect("low non-empty");
            self.high.push(std::cmp::Reverse(k));
        }
        while self.low.len() < target {
            let std::cmp::Reverse(k) = self.high.pop().expect("high non-empty");
            self.low.push(k);
        }
    }

    /// Records a duration, in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current exact nearest-rank quantile; `0.0` when empty.
    pub fn quantile(&self) -> f64 {
        match self.low.peek() {
            Some(&k) => val_of(k),
            None => 0.0,
        }
    }
}

/// A step-valued scalar (a load or active-task count) sampled once per
/// [`TimeSeries::PERIOD`] of virtual time.
///
/// [`TimeSeries::record`] marks a change of the value. The series keeps
/// one sample per whole period, the value in effect at that instant
/// after every change made at it, plus the latest change and the exact
/// running maximum, so it grows with the run's virtual length rather
/// than with the number of changes.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::stats::TimeSeries;
/// use hivemind_sim::time::{SimDuration, SimTime};
///
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_secs(1), 4.0);
/// // A 10 ms spike between two grid instants.
/// ts.record(SimTime::from_secs(1) + SimDuration::from_millis(500), 9.0);
/// ts.record(SimTime::from_secs(1) + SimDuration::from_millis(510), 4.0);
/// assert_eq!(ts.value_at(SimTime::from_secs(2)), Some(4.0));
/// assert_eq!(ts.max(), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Grid index of `samples[0]`: the first whole period at or after
    /// the first change.
    start: u64,
    /// The value in effect at each grid instant from `start` up to the
    /// latest change.
    samples: Vec<f64>,
    /// The latest change: its instant and value.
    last: Option<(SimTime, f64)>,
    /// The largest value ever recorded.
    max: f64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries {
            start: 0,
            samples: Vec::new(),
            last: None,
            max: f64::NEG_INFINITY,
        }
    }
}

impl TimeSeries {
    /// The sampling period: one second of virtual time.
    pub const PERIOD: SimDuration = SimDuration::from_secs(1);

    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Records that the value became `value` at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous change (series must be
    /// chronological).
    pub fn record(&mut self, t: SimTime, value: f64) {
        let period = Self::PERIOD.as_nanos();
        let (grid, on_grid) = (t.as_nanos() / period, t.as_nanos().is_multiple_of(period));
        match self.last {
            None => self.start = grid + u64::from(!on_grid),
            Some((last, held)) => {
                assert!(t >= last, "time series must be chronological");
                // Every grid instant strictly before `t` holds the value
                // the previous change left.
                let before = (grid + u64::from(!on_grid)).max(self.start);
                let len = (before - self.start) as usize;
                if len > self.samples.len() {
                    self.samples.resize(len, held);
                }
            }
        }
        if on_grid {
            let i = (grid - self.start) as usize;
            if i == self.samples.len() {
                self.samples.push(value);
            } else {
                self.samples[i] = value;
            }
        }
        self.last = Some((t, value));
        self.max = self.max.max(value);
    }

    /// The value in effect at `t`, or `None` before the first change.
    /// Exact at every grid instant and at or after the latest change;
    /// between two earlier grid instants it reads the value at the
    /// earlier one (`None` if that precedes the first change).
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let (last, held) = self.last?;
        if t >= last {
            return Some(held);
        }
        let grid = t.as_nanos() / Self::PERIOD.as_nanos();
        grid.checked_sub(self.start)
            .map(|i| self.samples[i as usize])
    }

    /// Maximum recorded value, including changes between grid instants;
    /// `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.max.pipe_finite()
    }
}

/// Windowed throughput meter: counts quantities (bytes, requests) and
/// reports per-window rates, e.g. network bandwidth in MB/s.
#[derive(Debug, Clone, PartialEq)]
pub struct Meter {
    window: SimDuration,
    /// Completed window totals.
    windows: Vec<f64>,
    current_window_start: SimTime,
    current_total: f64,
    grand_total: f64,
}

impl Meter {
    /// Creates a meter with the given aggregation window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "meter window must be positive");
        Meter {
            window,
            windows: Vec::new(),
            current_window_start: SimTime::ZERO,
            current_total: 0.0,
            grand_total: 0.0,
        }
    }

    /// Adds `amount` at time `t`. Windows roll over automatically; skipped
    /// windows count as zero.
    pub fn add(&mut self, t: SimTime, amount: f64) {
        self.roll_to(t);
        self.current_total += amount;
        self.grand_total += amount;
    }

    fn roll_to(&mut self, t: SimTime) {
        while t >= self.current_window_start + self.window {
            self.windows.push(self.current_total);
            self.current_total = 0.0;
            self.current_window_start += self.window;
        }
    }

    /// Closes the meter at `end`, flushing any in-progress partial window.
    ///
    /// A partial window is reported at full-window granularity; callers
    /// that need exact tail accounting should align `end` to the window.
    pub fn finish(&mut self, end: SimTime) {
        self.roll_to(end);
        if end > self.current_window_start {
            self.windows.push(self.current_total);
            self.current_total = 0.0;
            self.current_window_start = end;
        }
    }

    /// Total amount across all time.
    pub fn total(&self) -> f64 {
        self.grand_total
    }

    /// Per-second rates of each completed window.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let secs = self.window.as_secs_f64();
        self.windows.iter().map(|w| w / secs).collect()
    }

    /// Mean per-second rate across completed windows; `0.0` if none.
    pub fn mean_rate(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        // Same per-window division then left-to-right sum as iterating
        // `rates_per_sec()`, without materializing the rate vector.
        let secs = self.window.as_secs_f64();
        self.windows.iter().map(|w| w / secs).sum::<f64>() / self.windows.len() as f64
    }

    /// 99th-percentile per-second window rate.
    pub fn p99_rate(&self) -> f64 {
        let s: Summary = self.rates_per_sec().into_iter().collect();
        s.p99()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_quantiles_exact() {
        let s: Summary = (1..=1000).map(|v| v as f64).collect();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 1000.0);
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.p99(), 990.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 1000.0);
    }

    #[test]
    fn summary_empty_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn summary_merge_combines() {
        let mut a: Summary = vec![1.0, 2.0].into_iter().collect();
        let b: Summary = vec![3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn summary_quantiles_match_quantile_with_or_without_the_cache() {
        let s: Summary = (0..1_000u64)
            .map(|i| ((i * 7_919) % 1_009) as f64)
            .collect();
        let qs = [0.0, 0.25, 0.5, 0.99, 1.0];
        let uncached = s.quantiles(qs);
        assert!(s.sorted.get().is_none(), "a one-off read caches nothing");
        assert_eq!(uncached, qs.map(|q| s.quantile(q)));
        assert_eq!(s.quantiles(qs), uncached, "read through the cache");
        assert_eq!(Summary::new().quantiles([0.5]), [0.0]);
    }

    #[test]
    fn time_series_step_interpolation() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(1), 10.0);
        ts.record(SimTime::from_secs(3), 30.0);
        assert_eq!(ts.value_at(SimTime::ZERO), None);
        assert_eq!(ts.value_at(SimTime::from_secs(1)), Some(10.0));
        assert_eq!(ts.value_at(SimTime::from_secs(2)), Some(10.0));
        assert_eq!(ts.value_at(SimTime::from_secs(5)), Some(30.0));
        assert_eq!(ts.max(), 30.0);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(2), 1.0);
        ts.record(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn time_series_max_keeps_a_spike_between_grid_instants() {
        let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        let mut ts = TimeSeries::new();
        ts.record(ms(0), 2.0);
        ts.record(ms(1_200), 50.0);
        ts.record(ms(1_700), 3.0);
        ts.record(ms(4_000), 1.0);
        for s in 0..=3 {
            let v = ts.value_at(SimTime::from_secs(s));
            assert_ne!(v, Some(50.0), "grid instant {s} s holds the spike");
        }
        assert_eq!(ts.value_at(SimTime::from_secs(1)), Some(2.0));
        assert_eq!(ts.value_at(SimTime::from_secs(2)), Some(3.0));
        assert_eq!(ts.max(), 50.0);
        assert_eq!(TimeSeries::new().max(), 0.0);
    }

    #[test]
    fn time_series_grid_instant_reads_the_last_change_at_it() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(2), 1.0);
        ts.record(SimTime::from_secs(2), 7.0);
        ts.record(SimTime::from_secs(3), 5.0);
        ts.record(SimTime::from_secs(3), 4.0);
        ts.record(SimTime::from_secs(3), 6.0);
        ts.record(SimTime::from_secs(9), 0.0);
        assert_eq!(ts.value_at(SimTime::from_secs(1)), None);
        assert_eq!(ts.value_at(SimTime::from_secs(2)), Some(7.0));
        assert_eq!(ts.value_at(SimTime::from_secs(3)), Some(6.0));
        assert_eq!(ts.value_at(SimTime::from_secs(8)), Some(6.0));
        assert_eq!(ts.value_at(SimTime::from_secs(9)), Some(0.0));
        assert_eq!(ts.max(), 7.0);
    }

    #[test]
    fn time_series_reads_exactly_past_the_last_change() {
        let at = |ns: u64| SimTime::from_nanos(ns);
        let mut ts = TimeSeries::new();
        ts.record(at(400_000_000), 3.0);
        ts.record(at(2_500_000_001), 8.0);
        // Off the grid, before the first grid instant.
        assert_eq!(ts.value_at(at(399_999_999)), None);
        assert_eq!(ts.value_at(at(2_500_000_000)), Some(3.0));
        assert_eq!(ts.value_at(at(2_500_000_001)), Some(8.0));
        assert_eq!(ts.value_at(at(2_700_000_000)), Some(8.0));
        assert_eq!(ts.value_at(SimTime::MAX), Some(8.0));
    }

    #[test]
    fn quantile_tracker_matches_summary_exactly() {
        // Deterministic pseudo-random stream (SplitMix64) with forced
        // duplicates and a wide dynamic range; the tracker must agree
        // with Summary's nearest-rank quantile bit-for-bit after every
        // single insert, at several q values.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let mut t = QuantileTracker::new(q);
            let mut s = Summary::new();
            let mut x: u64 = 0x9e3779b97f4a7c15;
            for i in 0..500 {
                x = x
                    .wrapping_mul(0xbf58476d1ce4e5b9)
                    .wrapping_add(0x2545f4914f6cdd1d);
                let v = if i % 7 == 0 {
                    2.5 // forced duplicate
                } else {
                    (x >> 11) as f64 / (1u64 << 40) as f64
                };
                t.record(v);
                s.record(v);
                assert_eq!(
                    t.quantile().to_bits(),
                    s.quantile(q).to_bits(),
                    "q={q} i={i}"
                );
            }
            assert_eq!(t.len(), s.len());
        }
    }

    #[test]
    fn quantile_tracker_handles_negatives_and_zero() {
        let mut t = QuantileTracker::new(0.5);
        let mut s = Summary::new();
        for v in [-3.5, 0.0, -0.0, 7.25, -1.0, 2.0, -3.5] {
            t.record(v);
            s.record(v);
            assert_eq!(t.quantile().to_bits(), s.quantile(0.5).to_bits());
        }
    }

    #[test]
    fn quantile_tracker_empty_is_zero() {
        let t = QuantileTracker::new(0.9);
        assert!(t.is_empty());
        assert_eq!(t.quantile(), 0.0);
    }

    #[test]
    fn meter_windows_and_rates() {
        let mut m = Meter::new(SimDuration::from_secs(1));
        m.add(SimTime::from_secs(0), 100.0);
        m.add(SimTime::from_secs(0) + SimDuration::from_millis(500), 100.0);
        m.add(SimTime::from_secs(2) + SimDuration::from_millis(100), 50.0);
        m.finish(SimTime::from_secs(3));
        // Windows: [0,1)=200, [1,2)=0, [2,3)=50.
        assert_eq!(m.rates_per_sec(), vec![200.0, 0.0, 50.0]);
        assert!((m.mean_rate() - 250.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.total(), 250.0);
        assert_eq!(m.p99_rate(), 200.0);
    }
}
