//! A1 — NSW (Navigable Small World): incremental insertion into an
//! undirected graph. Early inserts create long "navigation" edges; late
//! inserts create short-range edges. No pruning, so dense-area hubs grow
//! large out-degrees (the Table 11 signature) and the index is big
//! (Figure 6) — the costs §3.2 calls out.
//!
//! The *Increment* strategy is parallelized with deterministic batch
//! insertion: points join in prefix-doubling batches, each searching the
//! frozen prefix graph in parallel, with edges committed in point-id
//! order. Each point's search seeds come from its own RNG stream (the
//! build seed mixed with the point id), so the search phase is a pure
//! function of `(frozen graph, point)` and the result is bit-identical at
//! any thread count.

use crate::components::seeds::SeedStrategy;
use crate::index::FlatIndex;
use crate::parallel;
use crate::search::{beam_search, Router, SearchScratch, SearchStats};
use crate::shard::partition_key;
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_data::Dataset;
use weavess_graph::CsrGraph;

/// NSW parameters (`max_m0` is the per-insert connection count `f`;
/// `ef_construction` the insertion search beam).
#[derive(Debug, Clone)]
pub struct NswParams {
    /// Bidirectional edges added per inserted point.
    pub m: usize,
    /// Insertion-time search beam.
    pub ef_construction: usize,
    /// Random seeds per insertion search and per query.
    pub search_seeds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Construction threads (0 = one per available core). The built graph
    /// is identical for every value.
    pub threads: usize,
}

impl NswParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        NswParams {
            m: 16,
            ef_construction: 40,
            search_seeds: 8,
            seed,
            threads,
        }
    }
}

/// Work-unit size for the parallel insertion-search phase.
const SEARCH_CHUNK: usize = 32;

/// Builds an NSW index.
pub fn build(ds: &Dataset, params: &NswParams) -> FlatIndex {
    let n = ds.len();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let threads = parallel::resolve_threads(params.threads);
    let max_batch = (n / 8).max(64);
    telemetry::span("C2+C3 incremental insertion", || {
        let insert_ndc = std::sync::atomic::AtomicU64::new(0);
        for batch in parallel::prefix_doubling(n, max_batch) {
            let frozen = batch.start; // the graph prefix this batch searches
            let targets: Vec<Vec<u32>> = parallel::par_chunks_map(
                batch.len(),
                SEARCH_CHUNK,
                threads,
                || (SearchScratch::new(n), SearchStats::default()),
                |(scratch, stats), range| {
                    let before = stats.ndc;
                    let out = range
                        .map(|i| {
                            let p = (frozen + i) as u32;
                            // Random seeds among the frozen prefix [0, frozen),
                            // drawn from the point's own stream, decorrelated
                            // by the same SplitMix64 key the shards deal by.
                            let key = partition_key(params.seed, p as u64);
                            let mut rng = StdRng::seed_from_u64(key);
                            let seeds: Vec<u32> = (0..params.search_seeds.min(frozen))
                                .map(|_| rng.gen_range(0..frozen as u32))
                                .collect();
                            scratch.next_epoch();
                            let pool = beam_search(
                                ds,
                                &adj[..frozen],
                                ds.point(p),
                                &seeds,
                                params.ef_construction,
                                scratch,
                                stats,
                            );
                            pool.iter()
                                .take(params.m)
                                .map(|c| c.id)
                                .collect::<Vec<u32>>()
                        })
                        .collect::<Vec<_>>();
                    insert_ndc.fetch_add(stats.ndc - before, std::sync::atomic::Ordering::Relaxed);
                    out
                },
            )
            .into_iter()
            .flatten()
            .collect();
            // Commit bidirectional edges in point-id order.
            for (i, cands) in targets.into_iter().enumerate() {
                let p = (frozen + i) as u32;
                for c in cands {
                    adj[p as usize].push(c);
                    adj[c as usize].push(p);
                }
            }
        }
        telemetry::add_span_ndc(insert_ndc.load(std::sync::atomic::Ordering::Relaxed));
    });
    FlatIndex {
        name: "NSW",
        graph: telemetry::span("freeze", || CsrGraph::from_lists(&adj)),
        seeds: SeedStrategy::Random {
            count: params.search_seeds,
        },
        router: Router::BestFirst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::connectivity::weak_components;
    use weavess_graph::metrics::degree_stats;

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 2_000, 5, 3.0, 30).generate()
    }

    #[test]
    fn nsw_reaches_high_recall() {
        let (ds, qs) = dataset();
        let idx = build(&ds, &NswParams::tuned(2, 1));
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let r: Vec<u32> = idx
                .search(&ds, qs.point(qi), 10, 100, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            total += recall(&r, &gt[qi as usize]);
        }
        let r = total / qs.len() as f64;
        assert!(r > 0.85, "recall={r}");
    }

    #[test]
    fn nsw_is_globally_connected() {
        let (ds, _) = MixtureSpec::table10(8, 800, 4, 3.0, 5).generate();
        let idx = build(&ds, &NswParams::tuned(2, 1));
        assert_eq!(weak_components(idx.graph()), 1);
    }

    #[test]
    fn nsw_is_undirected_with_unbounded_hubs() {
        let (ds, _) = MixtureSpec::table10(8, 800, 4, 3.0, 5).generate();
        let p = NswParams::tuned(2, 1);
        let idx = build(&ds, &p);
        let g = idx.graph();
        for v in 0..g.len() as u32 {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v), "edge {v}->{u} not mutual");
            }
        }
        // Hubs exceed m (the undirected no-pruning signature).
        assert!(degree_stats(g).max > p.m, "max degree too tame");
    }
}
