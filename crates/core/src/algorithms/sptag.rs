//! A5 — SPTAG (Space Partition Tree And Graph), both evaluated variants:
//! divide-and-conquer KNNG construction — repeatedly partition the dataset
//! with TP-style trees, build an exact KNNG inside each small leaf, merge —
//! followed by neighborhood propagation.
//!
//! - **SPTAG-KDT**: plain KNNG, KD-tree seeds.
//! - **SPTAG-BKT**: adds RNG-rule pruning, balanced-k-means-tree seeds.
//!
//! Routing follows §4.2's description of SPTAG's local-optimum escape:
//! best-first search restarts from a *fresh tree-derived seed set* when a
//! round stops improving ([`SptagIndex`]), sharing the visited set across
//! rounds so each restart explores new territory.

use crate::components::candidates::candidates_subspace;
use crate::components::refine::{freeze, per_point};
use crate::components::seeds::SeedStrategy;
use crate::components::selection::select_rng_alpha;
use crate::index::FlatIndex;
use crate::parallel;
use crate::search::Router;
use crate::telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use weavess_data::neighbor::insert_into_pool;
use weavess_data::{Dataset, Neighbor};
use weavess_trees::tptree::tp_partition;
use weavess_trees::{BkTree, KdForest};

/// Which SPTAG variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SptagVariant {
    /// Original: KNNG + KD-tree seeds.
    Kdt,
    /// Optimized: RNG-pruned graph + k-means-tree seeds.
    Bkt,
}

/// SPTAG parameters.
#[derive(Debug, Clone)]
pub struct SptagParams {
    /// Variant.
    pub variant: SptagVariant,
    /// Per-vertex neighbor bound (the project's fixed 32, Table 4).
    pub k: usize,
    /// TP-partition leaf size.
    pub leaf_size: usize,
    /// Number of independent partition rounds.
    pub divisions: usize,
    /// Neighborhood-propagation passes after merging.
    pub propagation_passes: usize,
    /// Seeds per query.
    pub search_seeds: usize,
    /// Seed-structure distance budget per query.
    pub seed_checks: usize,
    /// Maximum best-first restart rounds (fresh seeds per round).
    pub restarts: usize,
    /// Construction threads (0 = one per available core). The built graph
    /// is identical for every value.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SptagParams {
    /// SPTAG-KDT defaults.
    pub fn kdt(threads: usize, seed: u64) -> Self {
        SptagParams {
            variant: SptagVariant::Kdt,
            k: 32,
            leaf_size: 64,
            divisions: 6,
            propagation_passes: 1,
            search_seeds: 8,
            seed_checks: 128,
            restarts: 3,
            threads,
            seed,
        }
    }

    /// SPTAG-BKT defaults.
    pub fn bkt(threads: usize, seed: u64) -> Self {
        SptagParams {
            variant: SptagVariant::Bkt,
            ..SptagParams::kdt(threads, seed)
        }
    }
}

/// Builds an SPTAG index (variant per `params.variant`).
pub fn build(ds: &Dataset, params: &SptagParams) -> SptagIndex {
    let n = ds.len();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut lists: Vec<Vec<Neighbor>> = vec![Vec::new(); n];

    // --- Divide and conquer: leaves → exact sub-KNNGs → merge. ---
    let threads = parallel::resolve_threads(params.threads);
    // Each leaf is an O(leaf_size²) work unit; small chunks load-balance.
    const LEAF_CHUNK: usize = 4;
    telemetry::span("C1 init", || {
        for _ in 0..params.divisions.max(1) {
            let leaves = tp_partition(ds, None, params.leaf_size, &mut rng);
            // Leaves are disjoint, so parallelize over leaves; candidate
            // batches combine in leaf order, keeping the merge order-stable.
            let partial = parallel::par_chunks_map(
                leaves.len(),
                LEAF_CHUNK,
                threads,
                || (),
                |_, range| {
                    let mut out = Vec::new();
                    for leaf in &leaves[range] {
                        for &p in leaf {
                            let cands = candidates_subspace(ds, leaf, p);
                            out.push((p, cands));
                        }
                    }
                    out
                },
            );
            for batch in partial {
                for (p, cands) in batch {
                    for c in cands.iter().take(params.k) {
                        insert_into_pool(&mut lists[p as usize], params.k, *c);
                    }
                }
            }
        }
    });

    // --- Neighborhood propagation: every pass offers each point the
    // neighbors of its neighbors as they stood before the pass. ---
    for _ in 0..params.propagation_passes {
        let snapshot = lists;
        lists = per_point(ds, params.threads, "C2 candidates", |p, _, _| {
            let mut pool = snapshot[p as usize].clone();
            for hop1 in &snapshot[p as usize] {
                for x in &snapshot[hop1.id as usize] {
                    if x.id != p {
                        let x = Neighbor::new(x.id, ds.dist(p, x.id));
                        insert_into_pool(&mut pool, params.k, x);
                    }
                }
            }
            pool
        });
    }

    // --- BKT variant: RNG pruning. ---
    if params.variant == SptagVariant::Bkt {
        lists = per_point(ds, params.threads, "C3 selection", |p, _, _| {
            select_rng_alpha(ds, p, &lists[p as usize], params.k, 1.0)
        });
    }

    let graph = freeze(&lists);
    let (name, seeds, restart_forest) = telemetry::span("C4 seeds", || {
        let (name, seeds) = match params.variant {
            SptagVariant::Kdt => (
                "SPTAG-KDT",
                SeedStrategy::KdSearch {
                    forest: KdForest::build(ds, 4, 32, &mut rng),
                    count: params.search_seeds,
                    checks_per_tree: params.seed_checks / 4,
                },
            ),
            SptagVariant::Bkt => (
                "SPTAG-BKT",
                SeedStrategy::Bk {
                    tree: BkTree::build(ds, 8, 32),
                    count: params.search_seeds,
                    checks: params.seed_checks,
                },
            ),
        };
        (name, seeds, KdForest::build(ds, 4, 32, &mut rng))
    });
    SptagIndex {
        inner: FlatIndex {
            name,
            graph,
            seeds,
            router: Router::BestFirst,
        },
        restart_forest,
        restarts: params.restarts.max(1),
        seeds_per_round: params.search_seeds,
        checks_per_round: params.seed_checks / 2,
    }
}

/// SPTAG's index: a flat KNNG(+RNG) graph plus the restart router of §4.2
/// — when a best-first round converges without improving the result set,
/// search restarts from seeds drawn off a different KD-tree, reusing the
/// visited set so restarts explore fresh territory.
pub struct SptagIndex {
    inner: FlatIndex,
    restart_forest: KdForest,
    restarts: usize,
    seeds_per_round: usize,
    checks_per_round: usize,
}

impl crate::index::AnnIndex for SptagIndex {
    fn name(&self) -> &'static str {
        self.inner.name
    }

    fn search(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut crate::index::SearchContext,
    ) -> Vec<Neighbor> {
        use crate::search::beam_search;
        use weavess_data::neighbor::insert_into_pool;
        let beam = beam.max(k);
        ctx.scratch.next_epoch();
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        for round in 0..self.restarts {
            // Fresh seeds: round 0 uses the configured seed strategy, later
            // rounds draw from successive trees of the restart forest.
            let seeds: Vec<u32> = if round == 0 {
                self.inner
                    .seeds
                    .seeds(ds, query, &mut ctx.rng, &mut ctx.stats)
            } else {
                let (pool, ndc) = self.restart_forest.search_tree(
                    round - 1,
                    ds,
                    query,
                    self.seeds_per_round,
                    self.checks_per_round,
                );
                ctx.stats.ndc += ndc;
                pool.iter().map(|n| n.id).collect()
            };
            // Skip seeds already explored this query.
            let fresh: Vec<u32> = seeds
                .into_iter()
                .filter(|&s| !ctx.scratch.visited.is_visited(s))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            let pool = beam_search(
                ds,
                &self.inner.graph,
                query,
                &fresh,
                beam,
                &mut ctx.scratch,
                &mut ctx.stats,
            );
            let before = best.clone();
            for n in pool {
                insert_into_pool(&mut best, k, n);
            }
            if round > 0 && best == before {
                break; // restart found nothing better: local optimum is real
            }
        }
        best
    }

    fn graph(&self) -> &weavess_graph::CsrGraph {
        &self.inner.graph
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + self.restart_forest.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::{exact_knn_graph, ground_truth};
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::metrics::{degree_stats, graph_quality};

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 1_500, 5, 3.0, 25).generate()
    }

    fn run(params: &SptagParams) -> f64 {
        let (ds, qs) = dataset();
        let idx = build(&ds, params);
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let r: Vec<u32> = idx
                .search(&ds, qs.point(qi), 10, 80, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            total += recall(&r, &gt[qi as usize]);
        }
        total / qs.len() as f64
    }

    #[test]
    fn sptag_kdt_reaches_decent_recall() {
        let r = run(&SptagParams::kdt(4, 1));
        assert!(r > 0.8, "recall={r}");
    }

    #[test]
    fn sptag_bkt_reaches_decent_recall() {
        let r = run(&SptagParams::bkt(4, 1));
        assert!(r > 0.75, "recall={r}");
    }

    #[test]
    fn more_divisions_raise_graph_quality() {
        let (ds, _) = MixtureSpec::table10(8, 800, 3, 3.0, 5).generate();
        let exact = exact_knn_graph(&ds, 10, 4);
        let mut p1 = SptagParams::kdt(2, 1);
        p1.divisions = 1;
        p1.propagation_passes = 0;
        let mut p6 = SptagParams::kdt(2, 1);
        p6.divisions = 6;
        p6.propagation_passes = 0;
        let q1 = graph_quality(build(&ds, &p1).graph(), &exact);
        let q6 = graph_quality(build(&ds, &p6).graph(), &exact);
        assert!(q6 > q1, "q6={q6} q1={q1}");
    }

    #[test]
    fn restart_rounds_never_reduce_recall() {
        // More restart rounds can only add result candidates.
        let (ds, qs) = dataset();
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut p1 = SptagParams::kdt(2, 1);
        p1.restarts = 1;
        let mut p3 = SptagParams::kdt(2, 1);
        p3.restarts = 4;
        let i1 = build(&ds, &p1);
        let i3 = build(&ds, &p3);
        let mut c1 = SearchContext::new(ds.len());
        let mut c3 = SearchContext::new(ds.len());
        let (mut r1, mut r3) = (0.0, 0.0);
        for qi in 0..qs.len() as u32 {
            let a: Vec<u32> = i1
                .search(&ds, qs.point(qi), 10, 40, &mut c1)
                .iter()
                .map(|n| n.id)
                .collect();
            let b: Vec<u32> = i3
                .search(&ds, qs.point(qi), 10, 40, &mut c3)
                .iter()
                .map(|n| n.id)
                .collect();
            r1 += recall(&a, &gt[qi as usize]);
            r3 += recall(&b, &gt[qi as usize]);
        }
        assert!(r3 >= r1 - 0.5, "restarts hurt recall: {r3} << {r1}");
        // Restarts charge extra seed NDC.
        assert!(c3.stats.ndc >= c1.stats.ndc);
    }

    #[test]
    fn degree_bounded_at_k() {
        let (ds, _) = MixtureSpec::table10(8, 500, 3, 3.0, 5).generate();
        let p = SptagParams::kdt(2, 1);
        let idx = build(&ds, &p);
        assert!(degree_stats(idx.graph()).max <= p.k);
    }
}
