//! A10 — NSG (Navigating Spreading-out Graph): prune a NN-Descent KNNG
//! with the MRNG edge-selection rule, candidates acquired by greedy search
//! from the medoid; a DFS pass guarantees every vertex is reachable from
//! the medoid, which is also the fixed search entry.

use crate::index::FlatIndex;
use crate::nndescent::NnDescentParams;
use crate::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use crate::rnndescent::RnnDescentParams;
use crate::search::Router;
use weavess_data::Dataset;

/// NSG parameters (Appendix H: `L`, `R`, `C` over a KGraph base).
#[derive(Debug, Clone)]
pub struct NsgParams {
    /// NN-Descent configuration for the initial graph; its `threads` are
    /// the construction threads.
    pub nd: NnDescentParams,
    /// Runs RNN-Descent sized from `nd` ([`RnnDescentParams::matching`])
    /// as C1 in place of NN-Descent on `nd`.
    pub rnn_c1: bool,
    /// Candidate-acquisition beam (`L`).
    pub l: usize,
    /// Maximum out-degree (`R`).
    pub r: usize,
    /// Candidate cap before selection (`C`).
    pub c: usize,
}

impl NsgParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        NsgParams {
            nd: NnDescentParams {
                k: 40,
                l: 50,
                iters: 8,
                sample: 12,
                reverse: 25,
                seed,
                threads,
            },
            rnn_c1: false,
            l: 60,
            r: 30,
            c: 100,
        }
    }

    /// Swaps C1 to RNN-Descent, sized to stand in for the configured
    /// NN-Descent ([`RnnDescentParams::matching`]); C2–C7 are untouched.
    pub fn with_rnn_c1(mut self) -> Self {
        self.rnn_c1 = true;
        self
    }
}

/// NSG as a pipeline preset.
pub fn pipeline(params: &NsgParams) -> PipelineBuilder {
    PipelineBuilder {
        init: if params.rnn_c1 {
            InitChoice::RnnDescent(RnnDescentParams::matching(&params.nd))
        } else {
            InitChoice::NnDescent(params.nd.clone())
        },
        candidates: CandidateChoice::SearchMerge {
            beam: params.l,
            cap: params.c,
        },
        selection: SelectionChoice::RngAlpha {
            degree: params.r,
            alpha: 1.0,
        },
        seeds: SeedChoice::Medoid,
        connectivity: ConnectivityChoice::DfsRepairFromEntry { beam: params.l },
        router: Router::BestFirst,
        threads: params.nd.threads,
        seed: params.nd.seed,
        name: "NSG",
    }
}

/// Builds an NSG index.
pub fn build(ds: &Dataset, params: &NsgParams) -> FlatIndex {
    pipeline(params).build(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::connectivity::reachable_from;
    use weavess_graph::metrics::degree_stats;

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 2_000, 5, 10.0, 30).generate()
    }

    /// Overlap-free clusters are the pathological case for single-entry
    /// algorithms; the strict recall floor uses a tractable distribution.
    fn easy_dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 2_000, 1, 5.0, 30).generate()
    }

    #[test]
    fn nsg_reaches_high_recall_from_single_medoid_seed() {
        let (ds, qs) = easy_dataset();
        let idx = build(&ds, &NsgParams::tuned(4, 1));
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
        assert!(r > 0.9, "recall={r}");
    }

    #[test]
    fn nsg_keeps_usable_recall_on_hard_clustered_data() {
        // Separated clusters stress the single-medoid entry: DFS repair
        // keeps every point reachable, and recall stays usable though
        // below the easy-data level (the paper's hard-dataset behaviour).
        let (ds, qs) = dataset();
        let idx = build(&ds, &NsgParams::tuned(4, 1));
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let r: Vec<u32> = idx
                .search(&ds, qs.point(qi), 10, 200, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            total += recall(&r, &gt[qi as usize]);
        }
        let r = total / qs.len() as f64;
        assert!(r > 0.6, "recall={r}");
    }

    #[test]
    fn nsg_is_fully_reachable_from_medoid() {
        let (ds, _) = dataset();
        let idx = build(&ds, &NsgParams::tuned(4, 1));
        let medoid = ds.medoid();
        let reach = reachable_from(idx.graph(), medoid);
        assert!(reach.iter().all(|&r| r), "DFS repair left orphans");
    }

    #[test]
    fn c1_follows_nd_edited_after_tuned() {
        // `nd` is C1's one source: an edit after `tuned` (or after the
        // RNN-Descent swap) reaches the descent that runs.
        let (ds, _) = MixtureSpec::table10(8, 600, 3, 3.0, 2).generate();
        for rnn in [false, true] {
            let p = NsgParams {
                rnn_c1: rnn,
                ..NsgParams::tuned(2, 1)
            };
            let mut edited = p.clone();
            edited.nd.k = 20;
            assert_ne!(
                build(&ds, &p).graph(),
                build(&ds, &edited).graph(),
                "rnn_c1={rnn}"
            );
        }
    }

    #[test]
    fn nsg_has_low_average_degree() {
        // The Table 4 signature: NSG's AD is far below its KGraph base.
        let (ds, _) = dataset();
        let p = NsgParams::tuned(4, 1);
        let idx = build(&ds, &p);
        let s = degree_stats(idx.graph());
        assert!(s.avg < p.nd.k as f64, "avg={}", s.avg);
        assert!(s.avg < p.r as f64);
    }
}
