//! The uniform index interface every algorithm builds to.

use crate::components::SeedStrategy;
use crate::search::{Router, SearchScratch, SearchStats};
use crate::telemetry::{NoopTracer, RouteTracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;

/// A typed construction failure for index layers that wrap a dataset.
///
/// The panicking constructors predate the sharded tier; once a seeded
/// partition can hand a builder an arbitrarily small (or, for `n <
/// shards`, empty) slice of the dataset, "empty input" stops being a
/// programmer error and becomes a runtime condition callers must be able
/// to match on. The `try_*` constructors return this instead of
/// asserting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The dataset (or shard) holds no points.
    EmptyDataset {
        /// Which constructor rejected the input.
        context: &'static str,
    },
    /// The graph and the dataset disagree on the number of points.
    SizeMismatch {
        /// Vertices in the graph.
        graph: usize,
        /// Points in the dataset.
        dataset: usize,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::EmptyDataset { context } => {
                write!(f, "{context}: dataset holds no points")
            }
            IndexError::SizeMismatch { graph, dataset } => {
                write!(
                    f,
                    "graph has {graph} vertices but dataset has {dataset} points"
                )
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Per-thread reusable search state: the search scratch (visited pool,
/// candidate pool, batch-scoring buffers), the seed RNG, and the work
/// counters. One context serves any number of queries against indexes
/// over the same dataset size.
pub struct SearchContext {
    /// Reusable search working memory (sized to the dataset).
    pub scratch: SearchScratch,
    /// RNG used by random seed strategies.
    pub rng: StdRng,
    /// Accumulated work counters; callers may reset between queries or
    /// batches.
    pub stats: SearchStats,
}

impl SearchContext {
    /// A context for a dataset of `n` points.
    pub fn new(n: usize) -> Self {
        SearchContext {
            scratch: SearchScratch::new(n),
            rng: StdRng::seed_from_u64(0xC0FFEE),
            stats: SearchStats::default(),
        }
    }

    /// Resets the counters and returns the previous totals.
    pub fn take_stats(&mut self) -> SearchStats {
        std::mem::take(&mut self.stats)
    }
}

/// Common interface of every built ANNS index.
pub trait AnnIndex: Send + Sync {
    /// Algorithm name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Searches for `k` nearest neighbors of `query` with candidate-set
    /// size `beam` (the paper's CS; a `beam` below `k` is served as `k`).
    /// Results are nearest-first and hold *up to* `k` entries: fewer when
    /// the index has fewer than `k` points or the router reached fewer —
    /// [`Router::Guided`] in particular can strand early.
    fn search(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
    ) -> Vec<Neighbor>;

    /// [`AnnIndex::search`] with a [`RouteTracer`] observing the route
    /// (seed scores and per-hop expansions). Tracing never changes
    /// results or [`SearchStats`].
    ///
    /// The default implementation ignores the tracer and delegates to
    /// [`AnnIndex::search`]; the in-tree indexes override it to thread
    /// the tracer through their routing strategy. The untraced
    /// [`AnnIndex::search`] path stays fully monomorphized on
    /// [`crate::telemetry::NoopTracer`] — it never pays these virtual
    /// calls.
    fn search_traced(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
        tracer: &mut dyn RouteTracer,
    ) -> Vec<Neighbor> {
        let _ = tracer;
        self.search(ds, query, k, beam, ctx)
    }

    /// The (bottom-layer) search graph — the object of the Table 4 / 11
    /// index metrics.
    fn graph(&self) -> &CsrGraph;

    /// Total index heap bytes: adjacency + auxiliary structures (Figure 6).
    fn memory_bytes(&self) -> usize;

    /// Shortcut edges in the trace-mined catapult overlay segment — 0 for
    /// every unadapted index. Serving surfaces this as the adapted-vs-base
    /// signal ([`crate::serve::QueryEngine`] metrics).
    fn overlay_edges(&self) -> usize {
        0
    }
}

/// The single-layer index shape shared by every algorithm except HNSW:
/// one frozen graph, a seed strategy, a router.
pub struct FlatIndex {
    /// Algorithm name.
    pub name: &'static str,
    /// The frozen search graph.
    pub graph: CsrGraph,
    /// C4/C6 strategy.
    pub seeds: SeedStrategy,
    /// C7 strategy.
    pub router: Router,
}

impl FlatIndex {
    /// The query body behind [`AnnIndex::search`] and
    /// [`AnnIndex::search_traced`].
    fn route<T: RouteTracer>(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
        tracer: &mut T,
    ) -> Vec<Neighbor> {
        let beam = beam.max(k);
        let seeds = self.seeds.seeds(ds, query, &mut ctx.rng, &mut ctx.stats);
        ctx.scratch.next_epoch();
        let mut pool = self.router.search_traced(
            ds,
            &self.graph,
            query,
            &seeds,
            beam,
            &mut ctx.scratch,
            &mut ctx.stats,
            tracer,
        );
        pool.truncate(k);
        pool
    }
}

impl AnnIndex for FlatIndex {
    fn name(&self) -> &'static str {
        self.name
    }

    fn search(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
    ) -> Vec<Neighbor> {
        self.route(ds, query, k, beam, ctx, &mut NoopTracer)
    }

    fn search_traced(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
        mut tracer: &mut dyn RouteTracer,
    ) -> Vec<Neighbor> {
        self.route(ds, query, k, beam, ctx, &mut tracer)
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.seeds.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::base::exact_knng;

    fn flat() -> (Dataset, Dataset, FlatIndex) {
        let (ds, qs) = MixtureSpec::table10(8, 500, 4, 3.0, 25).generate();
        let graph = exact_knng(&ds, 10, 4);
        let idx = FlatIndex {
            name: "test",
            graph,
            seeds: SeedStrategy::Random { count: 8 },
            router: Router::BestFirst,
        };
        (ds, qs, idx)
    }

    #[test]
    fn flat_index_reaches_good_recall() {
        let (ds, qs, idx) = flat();
        let mut ctx = SearchContext::new(ds.len());
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            let res: Vec<u32> = idx
                .search(&ds, q, 10, 60, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            let truth: Vec<u32> = knn_scan(&ds, q, 10, None).iter().map(|n| n.id).collect();
            total += recall(&res, &truth);
        }
        let r = total / qs.len() as f64;
        assert!(r > 0.8, "recall={r}");
        assert!(ctx.stats.ndc > 0);
    }

    #[test]
    fn search_returns_at_most_k() {
        let (ds, qs, idx) = flat();
        let mut ctx = SearchContext::new(ds.len());
        let res = idx.search(&ds, qs.point(0), 5, 40, &mut ctx);
        assert!(res.len() <= 5);
    }

    #[test]
    fn beam_is_clamped_to_k() {
        let (ds, qs, idx) = flat();
        let mut ctx = SearchContext::new(ds.len());
        // beam < k must not panic nor return fewer than beam results.
        let res = idx.search(&ds, qs.point(0), 10, 2, &mut ctx);
        assert_eq!(res.len(), 10);
    }

    #[test]
    fn take_stats_resets() {
        let (ds, qs, idx) = flat();
        let mut ctx = SearchContext::new(ds.len());
        idx.search(&ds, qs.point(0), 5, 20, &mut ctx);
        let s = ctx.take_stats();
        assert!(s.ndc > 0);
        assert_eq!(ctx.stats, SearchStats::default());
    }

    #[test]
    fn memory_counts_graph_and_seeds() {
        let (_, _, idx) = flat();
        assert_eq!(idx.memory_bytes(), idx.graph.memory_bytes());
    }
}
