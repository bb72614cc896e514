//! A4 — NGT (Neighborhood Graph and Tree), both evaluated variants:
//!
//! - **NGT-panng**: incremental ANNG construction (NSW-like, but range
//!   search acquires candidates), then *path adjustment* — remove an edge
//!   `p→n` when a two-edge detour `p→x→n` exists whose longest leg is
//!   shorter (an RNG approximation, Appendix B).
//! - **NGT-onng**: ANNG, then out-degree/in-degree adjustment, then path
//!   adjustment.
//!
//! Seeds come from a VP-tree (C4/C6), routing is range search with ε (C7).

use crate::components::seeds::SeedStrategy;
use crate::index::FlatIndex;
use crate::search::{Router, SearchScratch, SearchStats};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;
use weavess_trees::VpTree;

/// Which NGT variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NgtVariant {
    /// ANNG + path adjustment.
    Panng,
    /// ANNG + degree adjustment + path adjustment.
    Onng,
}

/// NGT parameters.
#[derive(Debug, Clone)]
pub struct NgtParams {
    /// Variant.
    pub variant: NgtVariant,
    /// Bidirectional edge bound per insert on the ANNG (`K`).
    pub k: usize,
    /// Post-adjustment out-degree bound (`R`).
    pub r: usize,
    /// ANNG insertion search beam.
    pub ef_construction: usize,
    /// Construction/search ε for range search.
    pub epsilon: f32,
    /// Out-edges extracted by onng's out-degree adjustment.
    pub out_edges: usize,
    /// Incoming edges guaranteed by onng's in-degree adjustment.
    pub in_edges: usize,
    /// Seeds per query from the VP-tree.
    pub search_seeds: usize,
    /// VP-tree distance budget per query.
    pub seed_checks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl NgtParams {
    /// NGT-panng defaults.
    pub fn panng(_threads: usize, seed: u64) -> Self {
        NgtParams {
            variant: NgtVariant::Panng,
            k: 20,
            r: 40,
            ef_construction: 40,
            epsilon: 0.1,
            out_edges: 10,
            in_edges: 60,
            search_seeds: 4,
            seed_checks: 96,
            seed,
        }
    }

    /// NGT-onng defaults.
    pub fn onng(_threads: usize, seed: u64) -> Self {
        NgtParams {
            variant: NgtVariant::Onng,
            ..NgtParams::panng(0, seed)
        }
    }
}

/// Builds an NGT index (variant per `params.variant`).
pub fn build(ds: &Dataset, params: &NgtParams) -> FlatIndex {
    let n = ds.len();
    let mut rng = StdRng::seed_from_u64(params.seed);
    // --- ANNG: incremental undirected construction via range search. ---
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    telemetry::span("C1 init", || {
        let router = Router::Range {
            epsilon: params.epsilon,
        };
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        for p in 1..n as u32 {
            let seeds: Vec<u32> = (0..4usize.min(p as usize))
                .map(|_| rng.gen_range(0..p))
                .collect();
            scratch.next_epoch();
            let inserted = &adj[..p as usize];
            let pool = router.search(
                ds,
                inserted,
                ds.point(p),
                &seeds,
                params.ef_construction,
                &mut scratch,
                &mut stats,
            );
            let picks: Vec<u32> = pool.iter().take(params.k).map(|c| c.id).collect();
            for id in picks {
                adj[p as usize].push(id);
                adj[id as usize].push(p);
            }
        }
        telemetry::add_span_ndc(stats.ndc);
    });

    // --- onng only: out/in-degree adjustment. ---
    let mut adj = if params.variant == NgtVariant::Onng {
        telemetry::span("C3 degree adjust", || {
            degree_adjust(ds, &adj, params.out_edges, params.in_edges)
        })
    } else {
        adj
    };

    // --- Path adjustment down to degree R. ---
    telemetry::span("C3 path adjust", || path_adjust(ds, &mut adj, params.r));

    let graph = telemetry::span("freeze", || CsrGraph::from_lists(&adj));
    let tree = telemetry::span("C4 seeds", || VpTree::build(ds, 16));
    FlatIndex {
        name: match params.variant {
            NgtVariant::Panng => "NGT-panng",
            NgtVariant::Onng => "NGT-onng",
        },
        graph,
        seeds: SeedStrategy::Vp {
            tree,
            count: params.search_seeds,
            checks: params.seed_checks,
        },
        router: Router::Range {
            epsilon: params.epsilon,
        },
    }
}

/// onng's degree adjustment: keep each vertex's `out_edges` shortest
/// out-edges, then append reverse edges until each vertex has at least
/// `in_edges` incoming edges (shortest donors first).
fn degree_adjust(
    ds: &Dataset,
    adj: &[Vec<u32>],
    out_edges: usize,
    in_edges: usize,
) -> Vec<Vec<u32>> {
    let n = adj.len();
    // Sort each vertex's neighbors by distance, keep the best out_edges.
    let mut out: Vec<Vec<Neighbor>> = adj
        .iter()
        .enumerate()
        .map(|(v, l)| {
            let mut ns: Vec<Neighbor> = l
                .iter()
                .map(|&u| Neighbor::new(u, ds.dist(v as u32, u)))
                .collect();
            ns.sort_unstable();
            ns.dedup();
            ns.truncate(out_edges);
            ns
        })
        .collect();
    // In-degree repair: for each vertex short on incoming edges, add edges
    // from its nearest known contacts (its former neighbors).
    let mut indeg = vec![0usize; n];
    for l in &out {
        for x in l {
            indeg[x.id as usize] += 1;
        }
    }
    for v in 0..n as u32 {
        if indeg[v as usize] >= in_edges {
            continue;
        }
        let mut donors: Vec<Neighbor> = adj[v as usize]
            .iter()
            .map(|&u| Neighbor::new(u, ds.dist(v, u)))
            .collect();
        donors.sort_unstable();
        donors.dedup();
        for d in donors {
            if indeg[v as usize] >= in_edges {
                break;
            }
            let l = &mut out[d.id as usize];
            if !l.iter().any(|x| x.id == v) {
                l.push(Neighbor::new(v, d.dist));
                indeg[v as usize] += 1;
            }
        }
    }
    out.into_iter()
        .map(|l| l.iter().map(|x| x.id).collect())
        .collect()
}

/// Path adjustment (Appendix B): visit each vertex's neighbors nearest
/// first; drop `n` when some already-kept `x` has an edge to `n` and
/// `max(δ(p,x), δ(x,n)) < δ(p,n)`. Finally truncate to `r`.
fn path_adjust(ds: &Dataset, adj: &mut [Vec<u32>], r: usize) {
    let n = adj.len();
    // Snapshot for alternative-path lookups (adjustment order shouldn't
    // cascade within one pass).
    let snapshot: Vec<Vec<u32>> = adj.to_vec();
    for p in 0..n as u32 {
        let mut ns: Vec<Neighbor> = snapshot[p as usize]
            .iter()
            .map(|&u| Neighbor::new(u, ds.dist(p, u)))
            .collect();
        ns.sort_unstable();
        ns.dedup();
        let mut kept: Vec<Neighbor> = Vec::new();
        for m in ns {
            let redundant = kept.iter().any(|x| {
                x.dist < m.dist
                    && snapshot[x.id as usize].contains(&m.id)
                    && ds.dist(x.id, m.id) < m.dist
            });
            if !redundant {
                kept.push(m);
                if kept.len() >= r {
                    break;
                }
            }
        }
        adj[p as usize] = kept.iter().map(|x| x.id).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::metrics::degree_stats;

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 1_500, 5, 3.0, 25).generate()
    }

    fn run(variant: NgtVariant) -> f64 {
        let (ds, qs) = dataset();
        let params = match variant {
            NgtVariant::Panng => NgtParams::panng(4, 1),
            NgtVariant::Onng => NgtParams::onng(4, 1),
        };
        let idx = build(&ds, &params);
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let r: Vec<u32> = idx
                .search(&ds, qs.point(qi), 10, 60, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            total += recall(&r, &gt[qi as usize]);
        }
        total / qs.len() as f64
    }

    #[test]
    fn panng_reaches_decent_recall() {
        let r = run(NgtVariant::Panng);
        assert!(r > 0.8, "recall={r}");
    }

    #[test]
    fn onng_reaches_decent_recall() {
        let r = run(NgtVariant::Onng);
        assert!(r > 0.75, "recall={r}");
    }

    #[test]
    fn path_adjustment_lowers_degree() {
        let (ds, _) = MixtureSpec::table10(8, 800, 3, 3.0, 5).generate();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); ds.len()];
        // Dense ring + chords.
        let n = ds.len() as u32;
        for v in 0..n {
            for step in 1..=12u32 {
                adj[v as usize].push((v + step) % n);
            }
        }
        let before = degree_stats(&CsrGraph::from_lists(&adj)).avg;
        path_adjust(&ds, &mut adj, 8);
        let after = degree_stats(&CsrGraph::from_lists(&adj)).avg;
        assert!(after < before, "{after} !< {before}");
        assert!(adj.iter().all(|l| l.len() <= 8));
    }

    /// Appendix B: path adjustment approximates the RNG rule — on a dense
    /// KNNG neighborhood the kept sets of the two overlap heavily.
    #[test]
    fn path_adjustment_approximates_rng_selection() {
        use crate::components::selection::select_rng_alpha;
        use weavess_data::ground_truth::exact_knn_graph;
        let (ds, _) = MixtureSpec::table10(8, 500, 3, 5.0, 5).generate();
        let knn = exact_knn_graph(&ds, 20, 2);
        let mut adj: Vec<Vec<u32>> = knn.clone();
        path_adjust(&ds, &mut adj, 20);
        let mut overlap = 0usize;
        let mut total = 0usize;
        for p in (0..ds.len() as u32).step_by(13) {
            let cands: Vec<weavess_data::Neighbor> = knn[p as usize]
                .iter()
                .map(|&u| weavess_data::Neighbor::new(u, ds.dist(p, u)))
                .collect();
            let rng_kept: Vec<u32> = select_rng_alpha(&ds, p, &cands, 20, 1.0)
                .iter()
                .map(|x| x.id)
                .collect();
            for u in &adj[p as usize] {
                total += 1;
                if rng_kept.contains(u) {
                    overlap += 1;
                }
            }
        }
        assert!(
            overlap as f64 / total as f64 > 0.6,
            "path-adjusted/RNG overlap {overlap}/{total}"
        );
    }

    #[test]
    fn degree_adjust_bounds_out_and_feeds_in() {
        let (ds, _) = MixtureSpec::table10(8, 300, 3, 3.0, 5).generate();
        let n = ds.len() as u32;
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|v| (1..=20u32).map(|s| (v + s) % n).collect())
            .collect();
        let out = degree_adjust(&ds, &adj, 5, 3);
        let mut indeg = vec![0usize; ds.len()];
        for l in &out {
            for &x in l {
                indeg[x as usize] += 1;
            }
        }
        assert!(indeg.iter().all(|&d| d >= 3), "in-degree repair failed");
    }
}
