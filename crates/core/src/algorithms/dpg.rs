//! A9 — DPG (Diversified Proximity Graph): diversify a KGraph by keeping
//! the κ = K/2 neighbors that maximize pairwise angles (an RNG
//! approximation, Appendix C), then undirect every edge. The reverse
//! edges give DPG its single connected component (Table 4) and its large
//! index (Figure 6).

use crate::components::connectivity::add_reverse_edges;
use crate::components::refine::{freeze, per_point};
use crate::components::seeds::SeedStrategy;
use crate::components::selection::select_dpg;
use crate::index::FlatIndex;
use crate::nndescent::{nn_descent, NnDescentParams};
use crate::search::Router;
use crate::telemetry;
use weavess_data::Dataset;

/// DPG parameters.
#[derive(Debug, Clone)]
pub struct DpgParams {
    /// NN-Descent configuration for the initial KGraph.
    pub nd: NnDescentParams,
    /// Per-vertex degree cap after undirection (reverse edges can push
    /// hub degrees far beyond κ; the paper notes they "surge back").
    pub reverse_cap: usize,
    /// Random seeds per query.
    pub search_seeds: usize,
}

impl DpgParams {
    /// Defaults tuned for the harness's dataset scales. κ is `nd.k / 2` by
    /// the DPG construction.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        DpgParams {
            nd: NnDescentParams {
                k: 40,
                l: 60,
                iters: 8,
                sample: 15,
                reverse: 30,
                seed,
                threads,
            },
            reverse_cap: 80,
            search_seeds: 10,
        }
    }
}

/// Builds a DPG index.
pub fn build(ds: &Dataset, params: &DpgParams) -> FlatIndex {
    let init = telemetry::span("C1 init", || nn_descent(ds, &params.nd, None));
    let kappa = (params.nd.k / 2).max(2);
    // Angular diversification (C3_DPG) of each point's own neighbors.
    let mut lists = per_point(ds, params.nd.threads, "C3 selection", |p, _, _| {
        select_dpg(ds, p, &init[p as usize], kappa)
    });
    // Undirect (C5_DPG).
    telemetry::span("C5 connectivity", || {
        add_reverse_edges(&mut lists, params.reverse_cap);
    });
    FlatIndex {
        name: "DPG",
        graph: freeze(&lists),
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

    #[test]
    fn dpg_reaches_high_recall() {
        let (ds, qs) = MixtureSpec::table10(16, 2_000, 5, 3.0, 30).generate();
        let idx = build(&ds, &DpgParams::tuned(4, 1));
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
    fn dpg_is_one_weak_component_within_a_cluster() {
        // Undirection repairs connectivity *within* reachable regions; on
        // single-cluster data the Table 4 signature (CC = 1) must hold.
        let (ds, _) = MixtureSpec::table10(8, 800, 1, 5.0, 5).generate();
        let idx = build(&ds, &DpgParams::tuned(2, 1));
        assert_eq!(weak_components(idx.graph()), 1);
    }

    #[test]
    fn dpg_edges_are_mostly_bidirectional() {
        let (ds, _) = MixtureSpec::table10(8, 400, 2, 3.0, 5).generate();
        let idx = build(&ds, &DpgParams::tuned(2, 1));
        let g = idx.graph();
        let mut mutual = 0usize;
        let mut total = 0usize;
        for v in 0..g.len() as u32 {
            for &u in g.neighbors(v) {
                total += 1;
                if g.neighbors(u).contains(&v) {
                    mutual += 1;
                }
            }
        }
        // Reverse-edge capping loses some; the bulk must be mutual.
        assert!(mutual as f64 / total as f64 > 0.8, "{mutual}/{total}");
    }
}
