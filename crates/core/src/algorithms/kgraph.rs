//! A6 — KGraph: NN-Descent's approximate KNNG searched with best-first
//! routing from random seeds.
//!
//! Pipeline mapping (Table 9): refinement construction, random C1,
//! expansion C2 (inside NN-Descent's local join), distance-only C3, no C5,
//! random C6, best-first C7.

use crate::index::FlatIndex;
use crate::nndescent::NnDescentParams;
use crate::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use crate::search::Router;
use weavess_data::Dataset;

/// KGraph parameters — the five sensitive knobs of Appendix H plus seeds.
#[derive(Debug, Clone)]
pub struct KGraphParams {
    /// NN-Descent configuration (K, L, iter, S, R).
    pub nd: NnDescentParams,
    /// Random seeds per query.
    pub search_seeds: usize,
}

impl KGraphParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        KGraphParams {
            nd: NnDescentParams {
                k: 40,
                l: 60,
                iters: 8,
                sample: 15,
                reverse: 30,
                seed,
                threads,
            },
            search_seeds: 10,
        }
    }
}

/// KGraph as a pipeline preset.
pub fn pipeline(params: &KGraphParams) -> PipelineBuilder {
    let nd = &params.nd;
    PipelineBuilder {
        init: InitChoice::NnDescent(nd.clone()),
        candidates: CandidateChoice::None,
        selection: SelectionChoice::Closest { degree: nd.k },
        seeds: SeedChoice::Random {
            count: params.search_seeds,
        },
        connectivity: ConnectivityChoice::None,
        router: Router::BestFirst,
        threads: nd.threads,
        seed: nd.seed,
        name: "KGraph",
    }
}

/// Builds a KGraph index.
pub fn build(ds: &Dataset, params: &KGraphParams) -> FlatIndex {
    pipeline(params).build(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::metrics::degree_stats;

    #[test]
    fn kgraph_reaches_high_recall() {
        let (ds, qs) = MixtureSpec::table10(16, 2_000, 5, 3.0, 30).generate();
        let idx = build(&ds, &KGraphParams::tuned(4, 1));
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
    fn kgraph_degree_is_bounded_by_k() {
        let (ds, _) = MixtureSpec::table10(8, 500, 3, 3.0, 5).generate();
        let mut p = KGraphParams::tuned(2, 1);
        p.nd.k = 12;
        p.nd.l = 24;
        let idx = build(&ds, &p);
        assert!(degree_stats(idx.graph()).max <= 12);
    }
}
