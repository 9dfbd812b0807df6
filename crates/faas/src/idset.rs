//! Server-id bitsets shared by the placement index and the warm pool.

/// Server-id bitset. Iterates in ascending id order — the placement
/// chooser's and the warm lookup's tie-breaks depend on that — and
/// inserts and removes in O(1) within a buffer that only grows, so
/// steady-state updates never touch the allocator.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSet(Vec<u64>);

impl IdSet {
    /// An empty set able to hold ids `0..ids`.
    pub(crate) fn new(ids: u32) -> Self {
        IdSet(vec![0; (ids as usize).div_ceil(64)])
    }

    /// The set holding every id in `0..ids`.
    pub(crate) fn full(ids: u32) -> Self {
        let mut s = IdSet::new(ids);
        for id in 0..ids {
            s.insert(id);
        }
        s
    }

    /// Makes room for ids `0..ids`.
    pub(crate) fn grow(&mut self, ids: u32) {
        let words = (ids as usize).div_ceil(64);
        if self.0.len() < words {
            self.0.resize(words, 0);
        }
    }

    pub(crate) fn insert(&mut self, id: u32) {
        self.0[(id / 64) as usize] |= 1 << (id % 64);
    }

    pub(crate) fn remove(&mut self, id: u32) {
        self.0[(id / 64) as usize] &= !(1 << (id % 64));
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(w as u32 * 64 + b)
            })
        })
    }

    /// The smallest member for which `keep` holds, removing every
    /// smaller member for which it does not.
    pub(crate) fn first_pruning(&mut self, mut keep: impl FnMut(u32) -> bool) -> Option<u32> {
        for (w, word) in self.0.iter_mut().enumerate() {
            while *word != 0 {
                let id = w as u32 * 64 + word.trailing_zeros();
                if keep(id) {
                    return Some(id);
                }
                *word &= *word - 1;
            }
        }
        None
    }
}
