//! A3 — FANNG: the occlusion rule (≡ the RNG rule) applied to a large
//! brute-force candidate set per point, searched with backtracking
//! best-first routing from random seeds.
//!
//! The paper's exact construction considers *all* other points per vertex
//! (O(|S|²·log|S|), Table 2); its own authors propose candidate-
//! acquisition shortcuts to make that tractable. We honor both: the exact
//! path for small datasets, and the shortcut — an oversized exact-KNN
//! candidate list — above `exact_cutoff` points.

use crate::index::FlatIndex;
use crate::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use crate::search::Router;
use weavess_data::Dataset;

/// FANNG parameters (`R` degree bound, `L` candidate count).
#[derive(Debug, Clone)]
pub struct FanngParams {
    /// Maximum out-degree (`R`).
    pub r: usize,
    /// Candidates per point when using the shortcut acquisition (`L`).
    pub l: usize,
    /// Below this dataset size, use the exact all-pairs occlusion rule.
    pub exact_cutoff: usize,
    /// Backtrack budget at search time.
    pub backtracks: usize,
    /// Random seeds per query.
    pub search_seeds: usize,
    /// Construction threads (0 = one per available core). The built graph
    /// is identical for every value.
    pub threads: usize,
}

impl FanngParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, _seed: u64) -> Self {
        FanngParams {
            r: 40,
            l: 100,
            exact_cutoff: 2_000,
            backtracks: 8,
            search_seeds: 8,
            threads,
        }
    }
}

/// FANNG as a pipeline preset: exhaustive candidates up to
/// `exact_cutoff` points, `l` exact nearest neighbors above.
pub fn pipeline(params: &FanngParams) -> PipelineBuilder {
    PipelineBuilder {
        init: InitChoice::BruteForce { k: params.l },
        candidates: CandidateChoice::Exhaustive {
            up_to: params.exact_cutoff,
        },
        selection: SelectionChoice::RngAlpha {
            degree: params.r,
            alpha: 1.0,
        },
        seeds: SeedChoice::Random {
            count: params.search_seeds,
        },
        connectivity: ConnectivityChoice::None,
        router: Router::Backtrack {
            extra: params.backtracks,
        },
        threads: params.threads,
        seed: 0, // no stage of FANNG's build draws at random
        name: "FANNG",
    }
}

/// Builds a FANNG index.
pub fn build(ds: &Dataset, params: &FanngParams) -> FlatIndex {
    pipeline(params).build(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::base::exact_rng;

    #[test]
    fn fanng_reaches_high_recall() {
        let (ds, qs) = MixtureSpec::table10(16, 1_500, 5, 3.0, 25).generate();
        let idx = build(&ds, &FanngParams::tuned(4, 1));
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
        assert!(r > 0.85, "recall={r}");
    }

    #[test]
    fn exact_fanng_contains_the_exact_rng() {
        // On a tiny dataset the occlusion rule over all points must keep
        // every true RNG edge (it may keep a superset because the rule is
        // applied greedily nearest-first, but never fewer).
        let (ds, _) = MixtureSpec::table10(2, 40, 1, 5.0, 2).generate();
        let mut p = FanngParams::tuned(1, 0);
        p.r = 40;
        let idx = build(&ds, &p);
        let rng_graph = exact_rng(&ds);
        let mut missing = 0usize;
        let mut total = 0usize;
        for v in 0..ds.len() as u32 {
            for &u in rng_graph.neighbors(v) {
                total += 1;
                if !idx.graph().neighbors(v).contains(&u) {
                    missing += 1;
                }
            }
        }
        // The greedy rule recovers the vast majority of RNG edges.
        assert!(
            (missing as f64) / (total as f64) < 0.1,
            "missing {missing}/{total} RNG edges"
        );
    }

    #[test]
    fn shortcut_path_is_used_above_cutoff() {
        let (ds, _) = MixtureSpec::table10(8, 300, 3, 3.0, 5).generate();
        let mut p = FanngParams::tuned(2, 0);
        p.exact_cutoff = 100; // force the shortcut
        let idx = build(&ds, &p);
        assert!(idx.graph().num_edges() > 0);
    }
}
