//! Reusable per-searcher working memory.
//!
//! Every routing strategy needs the same few buffers: the epoch-stamped
//! visited set, a bounded candidate pool with expansion flags, and (for
//! batch-scored expansion) an id/distance staging pair. Allocating them per
//! query costs more than the search on small beams, so they live here and
//! are checked out alongside the RNG and stats in
//! [`crate::index::SearchContext`]. Each search function clears what it
//! uses on entry; nothing leaks between queries except capacity.

use super::pool::{CandidatePool, MAX_VERTICES};
use super::SearchStats;
use crate::search::VisitedPool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Scratch space for one searcher (one thread / one worker at a time).
#[derive(Debug, Clone)]
pub struct SearchScratch {
    /// Epoch-stamped visited set; call `visited.next_epoch()` (or
    /// [`Self::next_epoch`]) before each query.
    pub visited: VisitedPool,
    /// Bounded nearest-first candidate pool with expansion flags.
    pub(crate) pool: CandidatePool,
    /// Second bounded pool (filtered and range results).
    pub(crate) results: Vec<Neighbor>,
    /// Unbounded min-heap (range search queue, backtrack overflow).
    pub(crate) heap: BinaryHeap<Reverse<Neighbor>>,
    /// Unvisited neighbor ids staged for one batched scoring pass.
    pub(crate) batch_ids: Vec<u32>,
    /// Distances matching `batch_ids`, filled by `dist_to_many`.
    pub(crate) batch_dists: Vec<f32>,
}

/// One expansion's scoring pass: marks `v`'s not-yet-visited neighbors
/// visited, stages them in adjacency order (requesting each vector's
/// first lines when `pf`), and scores the batch with a single
/// [`VectorView::dist_to_many`] — one kernel-tier dispatch per expansion.
/// `ids[i]`'s distance is `dists[i]`, bit-equal to scoring one at a time.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_unvisited(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    v: u32,
    pf: bool,
    visited: &mut VisitedPool,
    ids: &mut Vec<u32>,
    dists: &mut Vec<f32>,
    stats: &mut SearchStats,
) {
    ids.clear();
    for &u in g.neighbors(v) {
        if visited.visit(u) {
            if pf {
                ds.prefetch_vector(u);
            }
            ids.push(u);
        }
    }
    stats.ndc += ids.len() as u64;
    ds.dist_to_many(query, ids, dists);
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
            pool: CandidatePool::default(),
            results: Vec::new(),
            heap: BinaryHeap::new(),
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
        assert!(s.pool.len() == 0 && s.batch_ids.is_empty());
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
