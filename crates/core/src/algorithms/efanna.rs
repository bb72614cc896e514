//! A7 — EFANNA: KGraph with KD-tree assistance at both ends — the forest
//! initializes NN-Descent's pools (better starting quality, fewer
//! iterations) and supplies query-adjacent seeds at search time.

use crate::index::FlatIndex;
use crate::nndescent::NnDescentParams;
use crate::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use crate::search::Router;
use weavess_data::Dataset;

/// EFANNA parameters: KGraph's knobs plus the forest (`nTrees`) and budgets.
#[derive(Debug, Clone)]
pub struct EfannaParams {
    /// NN-Descent configuration.
    pub nd: NnDescentParams,
    /// Number of KD-trees (`nTrees`).
    pub n_trees: usize,
    /// Distance budget per tree during initialization.
    pub init_checks: usize,
    /// Distance budget per tree during seed acquisition.
    pub seed_checks: usize,
    /// Seeds per query.
    pub search_seeds: usize,
}

impl EfannaParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        EfannaParams {
            nd: NnDescentParams {
                k: 40,
                l: 60,
                iters: 4, // fewer than KGraph: the tree init starts warmer
                sample: 15,
                reverse: 30,
                seed,
                threads,
            },
            n_trees: 4,
            init_checks: 200,
            seed_checks: 64,
            search_seeds: 10,
        }
    }
}

/// EFANNA as a pipeline preset: one forest, drawn from `nd.seed ^ 0xEFA77A`,
/// seeds C1's pools and answers C4's searches.
pub fn pipeline(params: &EfannaParams) -> PipelineBuilder {
    let nd = &params.nd;
    PipelineBuilder {
        init: InitChoice::KdTree {
            n_trees: params.n_trees,
            checks_per_tree: params.init_checks,
            nd: nd.clone(),
        },
        candidates: CandidateChoice::None,
        selection: SelectionChoice::Closest { degree: nd.k },
        seeds: SeedChoice::KdSearch {
            n_trees: params.n_trees,
            count: params.search_seeds,
            checks_per_tree: params.seed_checks,
        },
        connectivity: ConnectivityChoice::None,
        router: Router::BestFirst,
        threads: nd.threads,
        seed: nd.seed ^ 0xEFA77A,
        name: "EFANNA",
    }
}

/// Builds an EFANNA index.
pub fn build(ds: &Dataset, params: &EfannaParams) -> FlatIndex {
    pipeline(params).build(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;

    #[test]
    fn efanna_reaches_high_recall_with_tree_seeds() {
        let (ds, qs) = MixtureSpec::table10(16, 2_000, 5, 3.0, 30).generate();
        let idx = build(&ds, &EfannaParams::tuned(4, 1));
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
    fn efanna_charges_seed_ndc() {
        let (ds, qs) = MixtureSpec::table10(8, 600, 3, 3.0, 5).generate();
        let idx = build(&ds, &EfannaParams::tuned(2, 1));
        let mut ctx = SearchContext::new(ds.len());
        idx.search(&ds, qs.point(0), 10, 20, &mut ctx);
        // Tree seeds spend NDC before routing even starts.
        assert!(ctx.stats.ndc as usize > 20);
    }

    #[test]
    fn efanna_memory_includes_forest() {
        let (ds, _) = MixtureSpec::table10(8, 600, 3, 3.0, 5).generate();
        let idx = build(&ds, &EfannaParams::tuned(2, 1));
        assert!(idx.memory_bytes() > idx.graph.memory_bytes());
    }
}
