//! Deterministic hashing for simulation-internal maps.
//!
//! `std`'s default `RandomState` seeds itself per process, so hash-table
//! *behavior* — iteration order, tombstone dynamics, resize timing —
//! varies run to run even when the simulation is a pure function of
//! `(config, seed)`. No output byte depends on that (the engine never
//! iterate these maps), but allocation timing does: a table with
//! insert/remove churn accumulates DELETED control slots at
//! seed-dependent positions and rehashes or resizes at a seed-dependent
//! instant, which the tier-2 allocation regression test
//! (`crates/core/tests/alloc_steady_state.rs`) would see as a flaky
//! one-count failure. Hot churn maps therefore use this fixed-seed
//! hasher — the same rotate-xor-multiply folding as rustc's FxHash,
//! plenty for the small integer keys (task ids, job ids) they store,
//! and **not** DoS-resistant, which is fine for keys the simulation
//! itself generates.

use std::hash::{BuildHasherDefault, Hasher};

/// Fixed-seed rotate-xor-multiply hasher (FxHash-style). Behavior is a
/// pure function of the written bytes — no per-process state.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The golden-ratio-derived odd multiplier used by rustc's FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` whose internal behavior (and therefore allocation
/// timing) is a pure function of its inputs. Construct with
/// `DetHashMap::default()`.
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn map_works() {
        let mut m: DetHashMap<u32, u64> = DetHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, u64::from(i) * 3);
        }
        for i in (0..1000u32).step_by(2) {
            assert_eq!(m.remove(&i), Some(u64::from(i) * 3));
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(&501), Some(&1503));
    }
}
