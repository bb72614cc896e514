//! A9 — DPG (Diversified Proximity Graph): diversify a KGraph by keeping
//! the κ = K/2 neighbors that maximize pairwise angles (an RNG
//! approximation, Appendix C), then undirect every edge. The reverse
//! edges give DPG its single connected component (Table 4) and its large
//! index (Figure 6).

use crate::index::FlatIndex;
use crate::nndescent::NnDescentParams;
use crate::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use crate::search::Router;
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

/// DPG as a pipeline preset.
pub fn pipeline(params: &DpgParams) -> PipelineBuilder {
    PipelineBuilder {
        init: InitChoice::NnDescent(params.nd.clone()),
        candidates: CandidateChoice::Direct,
        selection: SelectionChoice::Dpg {
            kappa: (params.nd.k / 2).max(2),
        },
        seeds: SeedChoice::Random {
            count: params.search_seeds,
        },
        connectivity: ConnectivityChoice::ReverseEdges {
            max_degree: params.reverse_cap,
        },
        router: Router::BestFirst,
        threads: params.nd.threads,
        seed: params.nd.seed,
        name: "DPG",
    }
}

/// Builds a DPG index.
pub fn build(ds: &Dataset, params: &DpgParams) -> FlatIndex {
    pipeline(params).build(ds)
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
