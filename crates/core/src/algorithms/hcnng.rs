//! A13 — HCNNG (Hierarchical Clustering-based NNG): the survey's only
//! MST-based algorithm. Several rounds of random two-point hierarchical
//! clustering partition the dataset; each small cluster is wired with its
//! exact MST; the union of all rounds' MST edges is the graph. KD-trees
//! provide distance-free seeds (value comparisons only) and guided search
//! (C7) cuts redundant neighbor visits.

use crate::components::refine::freeze;
use crate::components::seeds::SeedStrategy;
use crate::index::FlatIndex;
use crate::parallel;
use crate::search::Router;
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_data::{Dataset, Neighbor};
use weavess_graph::base::mst_prim;
use weavess_trees::KdForest;

/// HCNNG parameters (`m` clustering rounds, `n_min` cluster size).
#[derive(Debug, Clone)]
pub struct HcnngParams {
    /// Hierarchical-clustering rounds (`m`).
    pub rounds: usize,
    /// Minimum (target) cluster size (`n`).
    pub min_cluster: usize,
    /// Per-vertex edge bound per MST round (the original keeps 3).
    pub mst_degree_per_round: usize,
    /// Seed KD-trees (`nTrees`).
    pub n_trees: usize,
    /// Seeds per query.
    pub search_seeds: usize,
    /// Construction threads (0 = one per available core). The built graph
    /// is identical for every value.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HcnngParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        HcnngParams {
            rounds: 12,
            min_cluster: 48,
            mst_degree_per_round: 3,
            n_trees: 4,
            search_seeds: 12,
            threads,
            seed,
        }
    }
}

/// Builds an HCNNG index.
pub fn build(ds: &Dataset, params: &HcnngParams) -> FlatIndex {
    let n = ds.len();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut lists: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
    let threads = parallel::resolve_threads(params.threads);
    // Each cluster MST is a sizable work unit; small chunks load-balance.
    const CLUSTER_CHUNK: usize = 4;
    telemetry::span("C2+C3 cluster MSTs", || {
        for round in 0..params.rounds.max(1) {
            // Random two-point hierarchical clustering (§4.1's HCNNG division).
            let all: Vec<u32> = (0..n as u32).collect();
            let mut clusters: Vec<Vec<u32>> = Vec::new();
            two_point_divide(ds, all, params.min_cluster, &mut rng, &mut clusters);
            // MST per cluster, parallel over clusters; edge batches combine in
            // cluster order so the budgeted union below is order-stable.
            let results = parallel::par_chunks_map(
                clusters.len(),
                CLUSTER_CHUNK,
                threads,
                || (),
                |_, range| {
                    let mut out = Vec::new();
                    for cluster in &clusters[range] {
                        for e in mst_prim(ds, cluster) {
                            out.push((e.a, Neighbor::new(e.b, e.w)));
                            out.push((e.b, Neighbor::new(e.a, e.w)));
                        }
                    }
                    out
                },
            );
            // Union with per-round degree budget: at most
            // `mst_degree_per_round` new edges per vertex per round.
            let budget = params.mst_degree_per_round.max(1) * (round + 1);
            for batch in results {
                for (v, nb) in batch {
                    let l = &mut lists[v as usize];
                    if l.iter().any(|x| x.id == nb.id) {
                        continue;
                    }
                    if l.len() < budget {
                        l.push(nb);
                    }
                }
            }
        }
    });
    for l in &mut lists {
        l.sort_unstable();
    }
    let graph = freeze(&lists);
    let forest = telemetry::span("C4 seeds", || {
        KdForest::build(ds, params.n_trees, 32, &mut rng)
    });
    FlatIndex {
        name: "HCNNG",
        graph,
        seeds: SeedStrategy::KdLeaf {
            forest,
            count: params.search_seeds,
        },
        router: Router::Guided,
    }
}

/// Recursive random two-point division: sample two pivots, split the set
/// by which pivot is closer, recurse until `min_cluster`.
fn two_point_divide(
    ds: &Dataset,
    ids: Vec<u32>,
    min_cluster: usize,
    rng: &mut StdRng,
    out: &mut Vec<Vec<u32>>,
) {
    if ids.len() <= min_cluster.max(2) {
        out.push(ids);
        return;
    }
    let a = ids[rng.gen_range(0..ids.len())];
    let mut b = a;
    while b == a {
        b = ids[rng.gen_range(0..ids.len())];
    }
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &p in &ids {
        if ds.dist(p, a) <= ds.dist(p, b) {
            left.push(p);
        } else {
            right.push(p);
        }
    }
    // Degenerate split (duplicated points): fall back to an even cut so
    // recursion always terminates.
    if left.is_empty() || right.is_empty() {
        let mid = ids.len() / 2;
        left = ids[..mid].to_vec();
        right = ids[mid..].to_vec();
    }
    two_point_divide(ds, left, min_cluster, rng, out);
    two_point_divide(ds, right, min_cluster, rng, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::connectivity::weak_components;

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 1_500, 5, 3.0, 25).generate()
    }

    #[test]
    fn hcnng_reaches_decent_recall_with_guided_search() {
        let (ds, qs) = dataset();
        let idx = build(&ds, &HcnngParams::tuned(4, 1));
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
        assert!(r > 0.8, "recall={r}");
    }

    #[test]
    fn hcnng_is_close_to_one_component() {
        // MSTs connect each cluster; overlapping rounds stitch clusters
        // together (Table 4 reports CC = 1 for HCNNG).
        let (ds, _) = MixtureSpec::table10(8, 800, 4, 3.0, 5).generate();
        let idx = build(&ds, &HcnngParams::tuned(2, 1));
        assert!(weak_components(idx.graph()) <= 3);
    }

    #[test]
    fn two_point_divide_partitions_exactly() {
        let (ds, _) = MixtureSpec::table10(8, 500, 4, 3.0, 5).generate();
        let mut rng = StdRng::seed_from_u64(9);
        let mut clusters = Vec::new();
        two_point_divide(&ds, (0..500).collect(), 32, &mut rng, &mut clusters);
        let mut seen = vec![false; 500];
        for c in &clusters {
            for &id in c {
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn degenerate_duplicate_points_terminate() {
        let ds = Dataset::from_rows(&vec![vec![1.0, 1.0]; 64]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut clusters = Vec::new();
        two_point_divide(&ds, (0..64).collect(), 8, &mut rng, &mut clusters);
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, 64);
    }
}
