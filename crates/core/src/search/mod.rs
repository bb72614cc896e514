//! Routing strategies (pipeline component C7) and search accounting.
//!
//! Every strategy operates on a frozen [`weavess_graph::CsrGraph`] (or any
//! [`weavess_graph::adjacency::GraphView`]), starts from
//! caller-provided seeds, and reports its work through [`SearchStats`]:
//! `ndc` (number of distance computations — the denominator of the paper's
//! *speedup* metric) and `hops` (expanded vertices — the paper's *query
//! path length*, which proxies I/O count on disk-resident indexes, §5.3).

mod backtrack;
mod beam;
pub mod filtered;
mod guided;
mod pool;
mod range;
mod scratch;
mod visited;

pub use backtrack::{backtrack_search, backtrack_search_traced};
pub use beam::{beam_search, beam_search_seeded, beam_search_seeded_traced, beam_search_traced};
pub use filtered::{filtered_beam_search, filtered_beam_search_traced};
pub use guided::{guided_search, guided_search_traced};
pub use range::{range_search, range_search_traced};
pub use scratch::SearchScratch;
pub use visited::VisitedPool;

use crate::telemetry::{NoopTracer, RouteTracer};
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Per-query work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of distance computations (the paper's NDC; `speedup = |S| / ndc`).
    pub ndc: u64,
    /// Number of expanded vertices (the paper's query path length, PL).
    pub hops: u64,
    /// Maximum candidate-pool occupancy reached (the paper's
    /// candidate-set-size metric, CS). For range search — whose candidate
    /// queue is unbounded by design — this is the queue's peak length.
    pub pool_peak: u64,
}

impl SearchStats {
    /// Combines another query's counters (batch aggregation): counts add,
    /// the pool peak takes the max — both associative and commutative, so
    /// aggregates are independent of how queries were partitioned.
    pub fn merge(&mut self, other: SearchStats) {
        self.ndc += other.ndc;
        self.hops += other.hops;
        self.pool_peak = self.pool_peak.max(other.pool_peak);
    }
}

/// A routing strategy (C7) with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Router {
    /// The paper's Algorithm 1 (best-first search): used by NSW, HNSW,
    /// KGraph, IEH, EFANNA, DPG, NSG, NSSG, Vamana.
    BestFirst,
    /// NGT's variant: unbounded candidate queue, radius inflated by
    /// `(1 + epsilon)`. Larger ε alleviates local optima at more NDC.
    Range {
        /// Radius inflation factor ε.
        epsilon: f32,
    },
    /// FANNG's variant: best-first plus up to `extra` backtracks into
    /// not-yet-explored candidates after convergence.
    Backtrack {
        /// Number of post-convergence backtrack expansions.
        extra: usize,
    },
    /// HCNNG's guided search: skips neighbors whose dominant-coordinate
    /// direction disagrees with the query's, trading a little accuracy for
    /// fewer distance computations.
    Guided,
    /// The optimized algorithm's two-stage routing (§6): guided search with
    /// a reduced beam to approach the target cheaply, then best-first with
    /// the full beam to finish precisely.
    TwoStage {
        /// Fraction of the full beam used by the guided first stage.
        stage1_beam_frac: f32,
    },
}

impl Router {
    /// Routes a query from `seeds`, returning up to `beam` nearest
    /// candidates, nearest first. `beam` is the paper's *candidate set
    /// size* (CS); result quality and cost both grow with it.
    ///
    /// `ds` is any [`VectorView`] — the raw dataset, SQ8 codes, or a
    /// fused node arena ([`Router::Guided`] and [`Router::TwoStage`]
    /// additionally require raw coordinates for the direction gate).
    #[allow(clippy::too_many_arguments)]
    pub fn search(
        &self,
        ds: &(impl VectorView + ?Sized),
        g: &(impl GraphView + ?Sized),
        query: &[f32],
        seeds: &[u32],
        beam: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.search_traced(ds, g, query, seeds, beam, scratch, stats, &mut NoopTracer)
    }

    /// [`Router::search`] with a [`RouteTracer`] observing the route. The
    /// tracer is a monomorphized generic: with [`NoopTracer`] the hook
    /// calls inline to nothing and this compiles to exactly
    /// [`Router::search`].
    #[allow(clippy::too_many_arguments)]
    pub fn search_traced<T: RouteTracer>(
        &self,
        ds: &(impl VectorView + ?Sized),
        g: &(impl GraphView + ?Sized),
        query: &[f32],
        seeds: &[u32],
        beam: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
        tracer: &mut T,
    ) -> Vec<Neighbor> {
        match *self {
            Router::BestFirst => {
                beam_search_traced(ds, g, query, seeds, beam, scratch, stats, tracer)
            }
            Router::Range { epsilon } => {
                range_search_traced(ds, g, query, seeds, beam, epsilon, scratch, stats, tracer)
            }
            Router::Backtrack { extra } => {
                backtrack_search_traced(ds, g, query, seeds, beam, extra, scratch, stats, tracer)
            }
            Router::Guided => {
                guided_search_traced(ds, g, query, seeds, beam, scratch, stats, tracer)
            }
            Router::TwoStage { stage1_beam_frac } => {
                let b1 = ((beam as f32 * stage1_beam_frac) as usize).max(4).min(beam);
                let stage1 = guided_search_traced(ds, g, query, seeds, b1, scratch, stats, tracer);
                if stage1.is_empty() {
                    return stage1;
                }
                // Stage 2 continues from stage 1's already-scored pool in
                // the same visited epoch: the full beam re-expands every
                // frontier vertex, but only vertices stage 1 *gated out*
                // (guided search leaves skipped neighbors unvisited) cost
                // new distance computations.
                beam_search_seeded_traced(ds, g, query, &stage1, beam, scratch, stats, tracer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SearchStats {
            ndc: 3,
            hops: 1,
            pool_peak: 9,
        };
        a.merge(SearchStats {
            ndc: 10,
            hops: 2,
            pool_peak: 5,
        });
        assert_eq!(
            a,
            SearchStats {
                ndc: 13,
                hops: 3,
                pool_peak: 9
            }
        );
    }
}
