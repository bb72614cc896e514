//! A8 — IEH (Iterative Expanding Hashing): an exact brute-force KNNG
//! searched with best-first expansion from hash-bucket seeds. The
//! expensive O(|S|²·log|S|) construction (Table 2) and the LSH table's
//! memory are its signatures; its seed quality is the best of the C4
//! study (Figure 10d).
//!
//! The original uses a MATLAB-built hash; we substitute from-scratch
//! sign-random-projection LSH (DESIGN.md §5).

use crate::index::FlatIndex;
use crate::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use crate::search::Router;
use weavess_data::Dataset;

/// IEH parameters (`p` seeds, `k` graph degree; the paper's `s` expansion
/// iterations are subsumed by the best-first beam).
#[derive(Debug, Clone)]
pub struct IehParams {
    /// Exact-KNNG degree (`k`).
    pub k: usize,
    /// Seeds per query (`p`).
    pub p: usize,
    /// LSH tables.
    pub tables: usize,
    /// Bits per table.
    pub bits: usize,
    /// Construction threads for the brute-force KNNG (0 = one per
    /// available core). The built graph is identical for every value.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl IehParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        IehParams {
            k: 50,
            p: 10,
            tables: 4,
            bits: 12,
            threads,
            seed,
        }
    }
}

/// IEH as a pipeline preset.
pub fn pipeline(params: &IehParams) -> PipelineBuilder {
    PipelineBuilder {
        init: InitChoice::BruteForce { k: params.k },
        candidates: CandidateChoice::None,
        selection: SelectionChoice::Closest { degree: params.k },
        seeds: SeedChoice::Lsh {
            tables: params.tables,
            bits: params.bits,
            count: params.p,
        },
        connectivity: ConnectivityChoice::None,
        router: Router::BestFirst,
        threads: params.threads,
        seed: params.seed,
        name: "IEH",
    }
}

/// Builds an IEH index.
pub fn build(ds: &Dataset, params: &IehParams) -> FlatIndex {
    pipeline(params).build(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::metrics::{degree_stats, graph_quality};

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 1_500, 5, 3.0, 25).generate()
    }

    #[test]
    fn ieh_reaches_high_recall() {
        let (ds, qs) = dataset();
        let idx = build(&ds, &IehParams::tuned(4, 1));
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
        let r = total / qs.len() as f64;
        assert!(r > 0.9, "recall={r}");
    }

    #[test]
    fn ieh_graph_quality_is_one() {
        // Table 4's IEH signature: GQ = 1.000 (exact KNNG).
        let (ds, _) = MixtureSpec::table10(8, 400, 3, 3.0, 5).generate();
        let idx = build(&ds, &IehParams::tuned(2, 1));
        let exact = weavess_data::ground_truth::exact_knn_graph(&ds, 10, 2);
        assert!((graph_quality(idx.graph(), &exact) - 1.0).abs() < 1e-12);
        assert_eq!(degree_stats(idx.graph()).max, 50.min(ds.len() - 1));
    }

    #[test]
    fn ieh_memory_includes_hash_tables() {
        let (ds, _) = MixtureSpec::table10(8, 400, 3, 3.0, 5).generate();
        let idx = build(&ds, &IehParams::tuned(2, 1));
        assert!(idx.memory_bytes() > idx.graph.memory_bytes());
    }
}
