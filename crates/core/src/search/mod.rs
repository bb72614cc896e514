//! Routing strategies (pipeline component C7) and search accounting.
//!
//! Every strategy operates on a frozen [`weavess_graph::CsrGraph`] (or any
//! [`weavess_graph::adjacency::GraphView`]), starts from
//! caller-provided seeds, and reports its work through [`SearchStats`]:
//! `ndc` (number of distance computations — the denominator of the paper's
//! *speedup* metric) and `hops` (expanded vertices — the paper's *query
//! path length*, which proxies I/O count on disk-resident indexes, §5.3).
//!
//! There is one best-first loop (`search/core.rs`); each [`Router`]
//! variant, the attribute-filtered search and the caller-decided stop of
//! [`beam_search_until`] (ML2's learned early termination) are policies of
//! it. [`rerank`] rescores a pool routed over compressed or quantized
//! vectors with the full ones.

mod backtrack;
mod beam;
mod core;
pub mod filtered;
mod guided;
pub(crate) mod pool;
mod range;
mod scratch;
mod visited;

pub use beam::{beam_search, beam_search_until, rerank};
pub use filtered::{filtered_beam_search, filtered_beam_search_traced};
pub use pool::PoolView;
pub use scratch::SearchScratch;
pub use visited::VisitedPool;

use self::core::{Bounded, Open, Start, Walk};
use crate::telemetry::{NoopTracer, RouteTracer};
use backtrack::Backtracking;
use guided::Dominant;
use range::Radius;
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
    /// fewer distance computations. The gate can *strand* a walk: when
    /// every unvisited neighbor of the remaining candidates moves away
    /// from the query the search converges early and returns fewer than
    /// `beam` results (possibly only the seeds). [`Router::TwoStage`]
    /// finishes with an ungated stage for that reason.
    Guided,
    /// The optimized algorithm's two-stage routing (§6): guided search with
    /// a reduced beam to approach the target cheaply, then best-first with
    /// the full beam to finish precisely.
    TwoStage {
        /// Fraction of the full beam used by the guided first stage (the
        /// stage-1 beam is kept within `4..=beam`).
        stage1_beam_frac: f32,
    },
}

impl Router {
    /// Routes a query from `seeds`, returning *up to* `beam` nearest
    /// candidates, nearest first and duplicate-free — fewer when the walk
    /// reaches fewer vertices (a small component, or a stranded
    /// [`Router::Guided`] walk), none when `seeds` is empty. `beam` is the
    /// paper's *candidate set size* (CS); result quality and cost both
    /// grow with it, and a `beam` of 0 is served as 1.
    ///
    /// `ds` is any [`VectorView`] — the raw dataset, SQ8 codes, or a
    /// fused node arena ([`Router::Guided`] and [`Router::TwoStage`]
    /// additionally require raw coordinates for the direction gate).
    #[allow(clippy::too_many_arguments)]
    #[inline]
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

    /// [`Router::search`] with a [`RouteTracer`] observing the route:
    /// every scored seed and every expansion, in order. The tracer is a
    /// monomorphized generic: with [`NoopTracer`] the hook calls inline to
    /// nothing and this compiles to exactly [`Router::search`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
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
        let mut walk = Walk {
            ds,
            g,
            query,
            scratch,
            stats,
            tracer,
        };
        let seeds = Start::Seeds(seeds);
        match *self {
            Router::BestFirst => walk.run(seeds, beam, Bounded, Open),
            Router::Range { epsilon } => {
                // A negative ε is read as 0; distances are squared.
                let inflate = (1.0 + epsilon.max(0.0)).powi(2);
                walk.run(seeds, beam, Radius { inflate }, Open)
            }
            Router::Backtrack { extra: budget } => {
                walk.run(seeds, beam, Backtracking { budget }, Open)
            }
            Router::Guided => walk.run(seeds, beam, Bounded, Dominant),
            Router::TwoStage { stage1_beam_frac } => {
                let b1 = ((beam as f32 * stage1_beam_frac) as usize).max(4).min(beam);
                let stage1 = walk.run(seeds, b1, Bounded, Dominant);
                // Stage 2 continues from stage 1's already-scored pool in
                // the same visited epoch: the full beam re-expands every
                // frontier vertex, but only vertices stage 1 *gated out*
                // (the gate leaves refused neighbors unvisited) cost new
                // distance computations.
                walk.run(Start::Scored(&stage1), beam, Bounded, Open)
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
