//! Spatial sharding primitives for the parallel DES engine.
//!
//! A sharded engine partitions its devices into contiguous blocks — one
//! per swarm region — and runs each block's device-local events on its
//! own worker under conservative lookahead. Everything a shard produces
//! for the shared global phase is stamped with an [`EffectKey`] and
//! re-ordered through [`merge_keyed_into`], whose output depends only on the
//! keys — never on how devices were grouped into shards. That invariance
//! is the heart of the byte-determinism contract: `HIVEMIND_SHARDS`
//! changes wall-clock time, never a single output byte.
//!
//! * [`ShardMap`] — contiguous device → shard assignment (spatial
//!   regions: the controller assigns adjacent field strips to adjacent
//!   device ids, so contiguous id blocks *are* spatial regions).
//! * [`EffectKey`] — the `(time, lane, seq)` merge key; `lane` is a
//!   shard-count-invariant identity (a device id), `seq` a per-lane
//!   monotone counter.
//! * [`merge_keyed_into`] — order-stable k-way merge: merges pre-sorted
//!   runs (leftover pending + per-shard buffers) into a caller-owned
//!   vector once per barrier epoch, allocation-free in steady state.
//! * [`shards_from`] — `HIVEMIND_SHARDS` parsing (default 1: sharding
//!   is opt-in, the single-shard path is the reference semantics).

use crate::time::SimTime;

/// Environment variable selecting the shard count.
pub const SHARDS_ENV: &str = "HIVEMIND_SHARDS";

/// Parses a `HIVEMIND_SHARDS`-style value. `None`, empty, or garbage
/// fall back to 1 (unsharded); `0` or `auto` mean "one shard per
/// available core".
pub fn shards_from(var: Option<&str>) -> u32 {
    let auto = || {
        std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1)
    };
    match var.map(str::trim) {
        Some("0") | Some("auto") => auto(),
        Some(v) => match v.parse::<u32>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        None => 1,
    }
}

/// Reads the shard count from the environment (see [`shards_from`]).
pub fn shards_from_env() -> u32 {
    shards_from(std::env::var(SHARDS_ENV).ok().as_deref())
}

/// Contiguous device → shard assignment.
///
/// Devices `[first(s), first(s+1))` belong to shard `s`; block sizes
/// differ by at most one. Contiguity is deliberate: the swarm controller
/// hands adjacent field strips to adjacent device ids, so a contiguous
/// id block is a spatial region and intra-shard traffic is
/// neighbour-local.
///
/// # Examples
///
/// ```rust
/// use hivemind_sim::shard::ShardMap;
///
/// let map = ShardMap::new(10, 4);
/// assert_eq!(map.shards(), 4);
/// assert_eq!(map.range(0), 0..3);
/// assert_eq!(map.range(3), 8..10);
/// assert_eq!(map.shard_of(8), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    devices: u32,
    shards: u32,
}

impl ShardMap {
    /// Builds a map of `devices` over `shards` blocks. The shard count
    /// is clamped to `[1, devices]` so every shard owns at least one
    /// device (for `devices == 0`, a single empty shard).
    pub fn new(devices: u32, shards: u32) -> ShardMap {
        ShardMap {
            devices,
            shards: shards.clamp(1, devices.max(1)),
        }
    }

    /// Total devices covered.
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// First device of shard `s`. Blocks of `ceil(d/n)` cover the first
    /// `d % n` shards, the remainder get `floor(d/n)`.
    pub fn first(&self, s: u32) -> u32 {
        let d = self.devices as u64;
        let n = self.shards as u64;
        let s = s as u64;
        let base = d / n;
        let extra = d % n;
        (s * base + s.min(extra)) as u32
    }

    /// Device range `[first(s), first(s+1))` owned by shard `s`.
    pub fn range(&self, s: u32) -> std::ops::Range<u32> {
        self.first(s)..self.first(s + 1)
    }

    /// The shard owning `device`.
    pub fn shard_of(&self, device: u32) -> u32 {
        debug_assert!(device < self.devices);
        let d = self.devices as u64;
        let n = self.shards as u64;
        let base = d / n;
        let extra = d % n;
        let dev = device as u64;
        let split = extra * (base + 1);
        let s = if dev < split {
            dev / (base + 1)
        } else {
            extra + (dev - split) / base.max(1)
        };
        s as u32
    }
}

/// The order-stable merge key for cross-shard event exchange.
///
/// Ordering is `(time, lane, seq)`. The lane must be a shard-count
/// invariant identity (the engine uses device ids) and `seq` a counter
/// that is monotone per lane, so the sort order of any set of keys is
/// independent of which shard produced which key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EffectKey {
    /// The virtual instant the effect applies at.
    pub at: SimTime,
    /// Shard-count-invariant producer identity (device id).
    pub lane: u32,
    /// Per-lane emission counter (ties within one lane keep causal
    /// order even when an earlier emission is future-dated).
    pub seq: u64,
}

impl EffectKey {
    /// Builds a key.
    pub fn new(at: SimTime, lane: u32, seq: u64) -> EffectKey {
        EffectKey { at, lane, seq }
    }
}

/// Merges pre-sorted runs of keyed items into `out`, appending in global
/// `(time, lane, seq)` order.
///
/// The caller keeps its effect buffers (and any leftover not-yet-due run
/// from the previous barrier) alive, hands them over as slices once per
/// barrier epoch, and reuses `out` as the next epoch's pending stream.
/// Items must be `Copy` (they are copied out of the runs; the source
/// buffers are untouched and can simply be cleared afterwards).
///
/// Each run must be sorted by key (shards emit in local processing
/// order, which sorts per lane; the engine sorts each batch before
/// handing it over); keys must be unique across runs (one lane lives in
/// exactly one shard). The output is the unique `(time, lane, seq)`
/// order of the union — by construction independent of how items were
/// split into runs, which is what makes the sharded engine's global
/// phase byte-identical for every shard count.
pub fn merge_keyed_into<T: Copy>(runs: &[&[(EffectKey, T)]], out: &mut Vec<(EffectKey, T)>) {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    out.reserve(total);
    match runs {
        [] => {}
        [a] => out.extend_from_slice(a),
        [a, b] => merge_two_into(a, b, out),
        _ => {
            // K-way linear pick-min: k is the shard count plus one
            // (tiny), so a scan beats heap bookkeeping.
            let mut cur = vec![0usize; runs.len()];
            loop {
                let mut best: Option<(EffectKey, usize)> = None;
                for (i, r) in runs.iter().enumerate() {
                    if let Some(&(k, _)) = r.get(cur[i]) {
                        if best.is_none_or(|(bk, _)| k < bk) {
                            best = Some((k, i));
                        }
                    }
                }
                let Some((_, i)) = best else { break };
                out.push(runs[i][cur[i]]);
                cur[i] += 1;
            }
        }
    }
    debug_assert!(
        out.windows(2).all(|w| w[0].0 < w[1].0),
        "merged run sorted by unique keys"
    );
}

/// Two-run merge (the single-shard engine's leftover + fresh-batch case),
/// kept allocation-free for the steady-state hot path.
fn merge_two_into<T: Copy>(
    mut a: &[(EffectKey, T)],
    mut b: &[(EffectKey, T)],
    out: &mut Vec<(EffectKey, T)>,
) {
    loop {
        match (a.first(), b.first()) {
            (Some(&(ka, _)), Some(&(kb, _))) => {
                if ka <= kb {
                    out.push(a[0]);
                    a = &a[1..];
                } else {
                    out.push(b[0]);
                    b = &b[1..];
                }
            }
            (Some(_), None) => {
                out.extend_from_slice(a);
                return;
            }
            (None, _) => {
                out.extend_from_slice(b);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_from_parses_and_falls_back() {
        assert_eq!(shards_from(Some("4")), 4);
        assert_eq!(shards_from(Some(" 2 ")), 2);
        assert_eq!(shards_from(None), 1);
        assert_eq!(shards_from(Some("")), 1);
        assert_eq!(shards_from(Some("lots")), 1);
        assert!(shards_from(Some("0")) >= 1);
        assert!(shards_from(Some("auto")) >= 1);
    }

    #[test]
    fn shard_map_blocks_are_contiguous_and_balanced() {
        for devices in [1u32, 2, 7, 16, 100, 4096] {
            for shards in [1u32, 2, 3, 8, 200] {
                let map = ShardMap::new(devices, shards);
                assert!(map.shards() >= 1 && map.shards() <= devices.max(1));
                let mut covered = 0u32;
                for s in 0..map.shards() {
                    let r = map.range(s);
                    assert_eq!(r.start, covered, "contiguous blocks");
                    for dev in r.clone() {
                        assert_eq!(map.shard_of(dev), s, "dev {dev} of {devices}/{shards}");
                    }
                    covered = r.end;
                }
                assert_eq!(covered, devices, "blocks tile the fleet");
                let sizes: Vec<u32> = (0..map.shards())
                    .map(|s| map.range(s).len() as u32)
                    .collect();
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced within one: {sizes:?}");
            }
        }
    }

    /// Merges owned runs through [`merge_keyed_into`].
    fn merge<T: Copy>(runs: &[Vec<(EffectKey, T)>]) -> Vec<(EffectKey, T)> {
        let slices: Vec<&[(EffectKey, T)]> = runs.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        merge_keyed_into(&slices, &mut out);
        out
    }

    #[test]
    fn merge_equals_global_sort_for_any_partition() {
        // A fixed event population, partitioned two different ways,
        // must merge to the identical stream.
        let key = |ns: u64, lane: u32, seq: u64| EffectKey::new(SimTime::from_nanos(ns), lane, seq);
        let all = vec![
            (key(5, 0, 0), "a"),
            (key(5, 1, 0), "b"),
            (key(5, 2, 0), "c"),
            (key(7, 0, 1), "d"),
            (key(7, 2, 1), "e"),
            (key(9, 1, 1), "f"),
        ];
        let mut expected = all.clone();
        expected.sort_by_key(|&(k, _)| k);

        let by_lane = |lanes: &[&[u32]]| -> Vec<Vec<(EffectKey, &str)>> {
            lanes
                .iter()
                .map(|ls| {
                    all.iter()
                        .filter(|(k, _)| ls.contains(&k.lane))
                        .cloned()
                        .collect()
                })
                .collect()
        };
        for partition in [
            by_lane(&[&[0, 1, 2]]),
            by_lane(&[&[0], &[1], &[2]]),
            by_lane(&[&[0, 1], &[2]]),
            by_lane(&[&[2], &[0, 1]]),
        ] {
            assert_eq!(merge(&partition), expected);
        }
    }

    #[test]
    fn merge_into_equals_global_sort_for_random_keys() {
        // A deterministic LCG builds a population of unique keys, split
        // into k runs round-robin by lane; the merge must reproduce the
        // global sort of the population, for every k.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        let mut all: Vec<(EffectKey, u64)> = Vec::new();
        let mut seqs = [0u64; 7];
        for i in 0..500u64 {
            let lane = (step() % 7) as u32;
            let at = SimTime::from_nanos(step() % 1_000_000);
            let seq = seqs[lane as usize];
            seqs[lane as usize] += 1;
            all.push((EffectKey::new(at, lane, seq), i));
        }
        let mut expected = all.clone();
        expected.sort_by_key(|&(k, _)| k);
        for k in [1usize, 2, 3, 5, 7] {
            let mut runs: Vec<Vec<(EffectKey, u64)>> = vec![Vec::new(); k];
            for (key, v) in &all {
                runs[(key.lane as usize) % k].push((*key, *v));
            }
            for r in &mut runs {
                r.sort_by_key(|&(k, _)| k);
            }
            assert_eq!(merge(&runs), expected, "k = {k}");
        }
    }

    #[test]
    fn merge_into_appends_after_existing_prefix() {
        let key = |ns: u64| EffectKey::new(SimTime::from_nanos(ns), 0, ns);
        let mut out = vec![(key(1), 10u64)];
        let a = [(key(2), 20u64), (key(5), 50)];
        let b = [(key(3), 30u64)];
        merge_keyed_into(&[&a, &b], &mut out);
        assert_eq!(
            out,
            vec![(key(1), 10), (key(2), 20), (key(3), 30), (key(5), 50)]
        );
    }

    #[test]
    fn merge_into_handles_empty_runs() {
        let mut out: Vec<(EffectKey, u8)> = Vec::new();
        merge_keyed_into(&[], &mut out);
        assert!(out.is_empty());
        let empty: &[(EffectKey, u8)] = &[];
        merge_keyed_into(&[empty, empty], &mut out);
        merge_keyed_into(&[empty, empty, empty], &mut out);
        assert!(out.is_empty());
    }
}
