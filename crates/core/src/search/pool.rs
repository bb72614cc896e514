//! The bounded candidate set of the paper's Algorithm 1 (Definition 4.7),
//! shared by every bounded-pool router.
//!
//! One nearest-first array of 8-byte slots. Each slot packs the whole
//! `(dist, id)` sort key *and* the entry's expanded flag into one `u64`,
//! so ordering is a single integer comparison and an insertion shifts one
//! array (no parallel flag vector to keep in step). Upkeep is paid once
//! per distance computation, and most candidates are worse than a full
//! pool's worst entry, so [`CandidatePool::insert`] settles those with one
//! comparison before it looks for a slot.
//!
//! The slot order is exactly [`Neighbor`]'s `Ord` (`f32::total_cmp`, then
//! id), so contents, tie handling and returned positions equal
//! [`weavess_data::neighbor::insert_into_pool`] on a `Vec<Neighbor>`; the
//! proptest below holds the two against each other.

use weavess_data::Neighbor;

/// Vertex ids must stay below this: a slot stores `id << 1 | expanded` in
/// its low 32 bits.
pub(crate) const MAX_VERTICES: usize = 1 << 31;

/// The spare low bit of a slot, its owner's to define: *expanded* in
/// [`CandidatePool`], *new* in the descent tables both NN-Descent and
/// RNN-Descent keep their pools in (see [`crate::nndescent`]).
pub(crate) const FLAG: u64 = 1;

/// Slot key of an unflagged entry: `total_cmp` rank of the distance in
/// the high half (sign bit flipped for positives, all bits for negatives,
/// which is `total_cmp`'s own mapping made unsigned), id above the flag
/// bit in the low half.
#[inline]
pub(crate) fn slot(n: Neighbor) -> u64 {
    debug_assert!((n.id as usize) < MAX_VERTICES);
    let bits = n.dist.to_bits();
    let rank = bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000);
    (rank as u64) << 32 | (n.id as u64) << 1
}

/// The distance rank a slot sorts by first: `slot(a) >> 32` orders like
/// `a.dist` under `total_cmp`.
#[inline]
pub(crate) fn dist_rank(slot: u64) -> u32 {
    (slot >> 32) as u32
}

/// Inverse of [`slot`], dropping the flag.
#[inline]
pub(crate) fn neighbor(slot: u64) -> Neighbor {
    let rank = dist_rank(slot);
    let bits = if rank & 0x8000_0000 != 0 {
        rank ^ 0x8000_0000
    } else {
        !rank
    };
    Neighbor::new((slot as u32) >> 1, f32::from_bits(bits))
}

/// Capacity-bounded nearest-first candidate pool with per-entry expanded
/// flags and the best-first cursor.
#[derive(Debug, Clone, Default)]
pub(crate) struct CandidatePool {
    slots: Vec<u64>,
    cap: usize,
    /// Every entry before `cursor` is expanded, so the nearest unexpanded
    /// entry is the first unexpanded one at or after it.
    cursor: usize,
}

impl CandidatePool {
    /// Empties the pool and sets its capacity for the next query.
    pub(crate) fn reset(&mut self, cap: usize) {
        debug_assert!(cap > 0);
        self.slots.clear();
        self.cap = cap;
        self.cursor = 0;
    }

    /// Current number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Inserts `n` unexpanded. Returns its position, or `None` when it is
    /// already present or no nearer than a full pool's worst entry. An
    /// accepted candidate at or before the cursor pulls the cursor back to
    /// it (the resume rule of the best-first loop).
    #[inline]
    pub(crate) fn insert(&mut self, n: Neighbor) -> Option<usize> {
        let key = slot(n);
        let len = self.slots.len();
        let full = len == self.cap;
        // `key` has a clear flag bit, so `s < key` and `s >= key` compare
        // `(dist, id)` alone whatever `s`'s flag is. Strictly worse only:
        // a tie with the worst entry may be its duplicate, decided below.
        if full && self.slots[len - 1] < key {
            return None;
        }
        let pos = self.slots.partition_point(|&s| s < key);
        // `Neighbor`'s `==`, not key equality: -0.0 and +0.0 are distinct
        // keys but one distance, and a NaN distance never equals itself.
        if pos < len && neighbor(self.slots[pos]) == n {
            return None;
        }
        if !full {
            self.slots.push(0);
        }
        let last = self.slots.len() - 1;
        self.slots.copy_within(pos..last, pos + 1);
        self.slots[pos] = key;
        self.cursor = self.cursor.min(pos);
        Some(pos)
    }

    /// Marks the nearest unexpanded entry expanded and returns it; `None`
    /// once every entry is expanded (the search has converged).
    #[inline]
    pub(crate) fn next_unexpanded(&mut self) -> Option<Neighbor> {
        while let Some(s) = self.slots.get_mut(self.cursor) {
            self.cursor += 1;
            if *s & FLAG == 0 {
                *s |= FLAG;
                return Some(neighbor(*s));
            }
        }
        None
    }

    /// Id of the entry after the one [`Self::next_unexpanded`] just
    /// returned — the likely next expansion, for adjacency prefetch.
    #[inline]
    pub(crate) fn peek(&self) -> Option<u32> {
        self.slots.get(self.cursor).map(|&s| (s as u32) >> 1)
    }

    /// Copies the entries out, nearest first.
    pub(crate) fn to_vec(&self) -> Vec<Neighbor> {
        self.slots.iter().map(|&s| neighbor(s)).collect()
    }
}

/// A read-only view of a walk's candidate pool, nearest first — what the
/// stop rule of [`crate::search::beam_search_until`] sees.
#[derive(Debug, Clone, Copy)]
pub struct PoolView<'a>(pub(crate) &'a CandidatePool);

impl PoolView<'_> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.slots.len()
    }

    /// True when the pool holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0.slots.is_empty()
    }

    /// The `i`-th nearest entry.
    pub fn get(&self, i: usize) -> Option<Neighbor> {
        self.0.slots.get(i).map(|&s| neighbor(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use weavess_data::neighbor::insert_into_pool;

    /// The pool this module replaced: a sorted `Vec<Neighbor>` with a
    /// parallel flag vector, and the routers' explicit resume index.
    #[derive(Default)]
    struct Model {
        pool: Vec<Neighbor>,
        expanded: Vec<bool>,
        cap: usize,
        k: usize,
    }

    impl Model {
        fn insert(&mut self, n: Neighbor) -> Option<usize> {
            let pos = insert_into_pool(&mut self.pool, self.cap, n)?;
            self.expanded.insert(pos, false);
            self.expanded.truncate(self.pool.len());
            self.k = self.k.min(pos);
            Some(pos)
        }

        fn next_unexpanded(&mut self) -> Option<Neighbor> {
            while self.k < self.pool.len() {
                self.k += 1;
                if !self.expanded[self.k - 1] {
                    self.expanded[self.k - 1] = true;
                    return Some(self.pool[self.k - 1]);
                }
            }
            None
        }
    }

    fn bits(v: &[Neighbor]) -> Vec<(u32, u32)> {
        v.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    fn flags(p: &CandidatePool) -> Vec<bool> {
        p.slots.iter().map(|&s| s & 1 == 1).collect()
    }

    /// Distances from a small palette, so ties, exact duplicates and
    /// inserts equal to the worst entry are the common case.
    const DISTS: [f32; 10] = [
        0.0,
        -0.0,
        0.5,
        1.0,
        1.0000001,
        2.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -1.5,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_the_vec_and_flags_model(
            cap in 1usize..9,
            ops in prop::collection::vec((0u32..12, 0usize..14), 1..120),
        ) {
            let mut pool = CandidatePool::default();
            pool.reset(cap);
            let mut model = Model { cap, ..Model::default() };
            for (id, pick) in ops {
                if pick >= DISTS.len() {
                    // Compared through bits: a NaN entry is never `==` itself.
                    let (a, b) = (pool.next_unexpanded(), model.next_unexpanded());
                    prop_assert_eq!(a.map(|n| bits(&[n])), b.map(|n| bits(&[n])));
                    prop_assert_eq!(pool.peek(), model.pool.get(model.k).map(|n| n.id));
                } else {
                    let n = Neighbor::new(id, DISTS[pick]);
                    prop_assert_eq!(pool.insert(n), model.insert(n), "insert {:?}", n);
                }
                prop_assert_eq!(bits(&pool.to_vec()), bits(&model.pool));
                prop_assert_eq!(flags(&pool), &model.expanded[..]);
                prop_assert_eq!(pool.len(), model.pool.len());
            }
        }

        #[test]
        fn slot_order_is_neighbor_order(
            a in (0u32..1 << 31, 0u64..1 << 32),
            b in (0u32..1 << 31, 0u64..1 << 32),
        ) {
            let na = Neighbor::new(a.0, f32::from_bits(a.1 as u32));
            let nb = Neighbor::new(b.0, f32::from_bits(b.1 as u32));
            prop_assert_eq!(slot(na).cmp(&slot(nb)), na.cmp(&nb));
            prop_assert_eq!(bits(&[neighbor(slot(na) | 1)]), bits(&[na]));
        }
    }

    #[test]
    fn an_accepted_candidate_at_the_cursor_is_expanded_next() {
        let mut pool = CandidatePool::default();
        pool.reset(3);
        pool.insert(Neighbor::new(1, 2.0));
        pool.insert(Neighbor::new(2, 3.0));
        assert_eq!(pool.next_unexpanded().map(|n| n.id), Some(1));
        assert_eq!(pool.peek(), Some(2));
        // Lands at position 0, shifting the expanded entry right.
        assert_eq!(pool.insert(Neighbor::new(3, 1.0)), Some(0));
        assert_eq!(pool.next_unexpanded().map(|n| n.id), Some(3));
        assert_eq!(pool.next_unexpanded().map(|n| n.id), Some(2));
        assert_eq!(pool.next_unexpanded(), None);
    }
}
