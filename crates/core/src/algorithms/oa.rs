//! §6 "Improvement" — the survey's optimized algorithm (OA), assembled
//! from the best-performing component implementations:
//!
//! - C1: NN-Descent at moderate quality (H1 — don't over-pay for GQ);
//! - C2: NSSG's 2-hop expansion (fast, no per-point graph search);
//! - C3: NSG's MRNG rule (H2 — diversified, low out-degree);
//! - C4/C6: a fixed entry set spread by farthest-point sampling (no
//!   auxiliary index, L4);
//! - C5: DFS repair (H3 — every vertex reachable);
//! - C7: two-stage routing — guided search to approach cheaply, best-first
//!   to finish precisely (H2 + H3).
//!
//! Figure 11 / Appendix P: OA beats the state of the art on the
//! speedup-recall trade-off while building fast and staying small.

use crate::index::FlatIndex;
use crate::nndescent::NnDescentParams;
use crate::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use crate::search::Router;
use weavess_data::Dataset;

/// OA parameters.
#[derive(Debug, Clone)]
pub struct OaParams {
    /// NN-Descent configuration (the paper settles on 8 iterations,
    /// Appendix L).
    pub nd: NnDescentParams,
    /// Candidate cap for the 2-hop expansion.
    pub l: usize,
    /// Maximum out-degree.
    pub r: usize,
    /// Number of fixed random entries.
    pub entries: usize,
    /// Guided first-stage beam fraction of the full beam.
    pub stage1_frac: f32,
}

impl OaParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        OaParams {
            nd: NnDescentParams {
                k: 40,
                l: 60,
                iters: 8,
                sample: 15,
                reverse: 30,
                seed,
                threads,
            },
            l: 100,
            r: 30,
            entries: 8,
            stage1_frac: 0.4,
        }
    }
}

/// OA as a pipeline preset; its entries are spread from `nd.seed ^ 0x0A0A`.
pub fn pipeline(params: &OaParams) -> PipelineBuilder {
    PipelineBuilder {
        init: InitChoice::NnDescent(params.nd.clone()),
        candidates: CandidateChoice::Expansion { cap: params.l },
        selection: SelectionChoice::RngAlpha {
            degree: params.r,
            alpha: 1.0,
        },
        seeds: SeedChoice::Spread {
            count: params.entries,
        },
        connectivity: ConnectivityChoice::DfsRepairFromEntry { beam: 64 },
        router: Router::TwoStage {
            stage1_beam_frac: params.stage1_frac,
        },
        threads: params.nd.threads,
        seed: params.nd.seed ^ 0x0A0A,
        name: "OA",
    }
}

/// Builds the optimized algorithm's index.
pub fn build(ds: &Dataset, params: &OaParams) -> FlatIndex {
    pipeline(params).build(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::seeds::SeedStrategy;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::connectivity::reachable_from;
    use weavess_graph::metrics::degree_stats;

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 2_000, 5, 3.0, 30).generate()
    }

    #[test]
    fn oa_reaches_high_recall() {
        let (ds, qs) = dataset();
        let idx = build(&ds, &OaParams::tuned(4, 1));
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
    fn oa_is_reachable_from_its_entries() {
        let (ds, _) = dataset();
        let idx = build(&ds, &OaParams::tuned(4, 1));
        let entry = match &idx.seeds {
            SeedStrategy::Fixed(v) => v[0],
            _ => unreachable!(),
        };
        assert!(reachable_from(idx.graph(), entry).iter().all(|&r| r));
    }

    #[test]
    fn oa_keeps_low_degree_and_small_index() {
        let (ds, _) = dataset();
        let p = OaParams::tuned(4, 1);
        let idx = build(&ds, &p);
        let s = degree_stats(idx.graph());
        // L4: OA's degree stays near NSG's, far below DPG/NSW (Table 21).
        assert!(s.avg <= p.r as f64 + 1.0, "avg={}", s.avg);
        assert_eq!(idx.seeds.memory_bytes(), p.entries * 4);
    }
}
