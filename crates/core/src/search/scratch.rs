//! Reusable per-searcher working memory.
//!
//! Every routing strategy needs the same few buffers: the epoch-stamped
//! visited set, a bounded candidate pool with expansion flags, and (for
//! batch-scored expansion) an id/distance staging pair. Allocating them per
//! query costs more than the search on small beams, so they live here and
//! are checked out alongside the RNG and stats in
//! [`crate::index::SearchContext`]. Each routing policy clears what it
//! uses on entry; nothing leaks between queries except capacity.

use super::pool::{CandidatePool, MAX_VERTICES};
use crate::search::VisitedPool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use weavess_data::Neighbor;

/// Scratch space for one searcher (one thread / one worker at a time).
#[derive(Debug, Clone)]
pub struct SearchScratch {
    /// Epoch-stamped visited set; call `visited.next_epoch()` (or
    /// [`Self::next_epoch`]) before each query.
    pub visited: VisitedPool,
    /// Where the routing policy keeps its candidates.
    pub(crate) stores: Stores,
    /// Unvisited neighbor ids staged for one batched scoring pass.
    pub(crate) batch_ids: Vec<u32>,
    /// Distances matching `batch_ids`, filled by `dist_to_many`.
    pub(crate) batch_dists: Vec<f32>,
}

/// The candidate containers a routing policy draws on.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stores {
    /// The walk's candidate-set size (the paper's CS), at least 1.
    pub beam: usize,
    /// Nearest-first candidate pool of `beam` entries with expansion flags.
    pub pool: CandidatePool,
    /// Nearest-first result pool (filtered and range search answer from
    /// it), kept within the policy's bound by `insert_into_pool`.
    pub results: Vec<Neighbor>,
    /// Unbounded min-heap (range search queue, backtrack reserve).
    pub heap: BinaryHeap<Reverse<Neighbor>>,
}

impl Stores {
    /// Empties every container for a new walk. A `beam` of 0 is served as
    /// 1: the walk is greedy and returns the nearest vertex it found.
    pub(crate) fn reset(&mut self, beam: usize) {
        self.beam = beam.max(1);
        self.pool.reset(self.beam);
        self.results.clear();
        self.heap.clear();
    }
}

/// Pool entries keep the expanded flag in a spare id bit.
fn check_vertex_count(n: usize) {
    assert!(
        n <= MAX_VERTICES,
        "SearchScratch covers at most 2^31 vertices, got {n}"
    );
}

impl SearchScratch {
    /// Scratch for a graph of `n` vertices, all buffers empty.
    ///
    /// # Panics
    /// Panics if `n` exceeds 2^31.
    pub fn new(n: usize) -> Self {
        check_vertex_count(n);
        SearchScratch {
            visited: VisitedPool::new(n),
            stores: Stores::default(),
            batch_ids: Vec::new(),
            batch_dists: Vec::new(),
        }
    }

    /// Starts a fresh query: every vertex becomes unvisited in O(1).
    #[inline]
    pub fn next_epoch(&mut self) {
        self.visited.next_epoch();
    }

    /// Grows the visited set to cover at least `n` vertices (dynamic
    /// indexes; the other buffers grow on demand).
    ///
    /// # Panics
    /// Panics if `n` exceeds 2^31.
    pub fn ensure_len(&mut self, n: usize) {
        check_vertex_count(n);
        self.visited.ensure_len(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_scratch_covers_n_vertices() {
        let s = SearchScratch::new(7);
        assert_eq!(s.visited.len(), 7);
        assert!(s.stores.pool.len() == 0 && s.batch_ids.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 2^31 vertices")]
    fn vertex_counts_that_collide_with_the_flag_bit_are_rejected() {
        // Checked before anything is allocated.
        SearchScratch::new((1 << 31) + 1);
    }

    #[test]
    #[should_panic(expected = "at most 2^31 vertices")]
    fn ensure_len_rejects_them_too() {
        SearchScratch::new(2).ensure_len((1 << 31) + 1);
    }

    #[test]
    fn ensure_len_grows_the_visited_set() {
        let mut s = SearchScratch::new(2);
        s.ensure_len(9);
        assert_eq!(s.visited.len(), 9);
    }
}
