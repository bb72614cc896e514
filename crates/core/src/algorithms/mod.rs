//! The surveyed algorithms (§3.2's A1–A13, Appendix N's k-DR, and §6's
//! optimized algorithm), each built from the shared components. The eight
//! refinement algorithms (KGraph, EFANNA, IEH, FANNG, DPG, NSG, NSSG, OA)
//! are [`crate::pipeline::PipelineBuilder`] presets: each module keeps its
//! `Params` and `tuned`, and its `pipeline(&Params)` names one choice per
//! component, which its `build` runs. The other builders (insertion,
//! divide and conquer, and k-DR) compose the components themselves, on
//! the same `components::refine` runner the pipeline uses: NSW and HNSW
//! (static, and `DynamicHnsw`'s bulk load) insert through its batch
//! insertion loop, Vamana's fixed batches and SPTAG's passes search
//! through it, and HCNNG, SPTAG and Vamana freeze there. NGT's ANNG
//! insertion stays a serial loop.
//!
//! | module | algorithms | base graph | construction strategy |
//! |--------|-----------|------------|----------------------|
//! | [`kgraph`] | KGraph | KNNG | refinement (NN-Descent) |
//! | [`efanna`] | EFANNA | KNNG | refinement (KD-trees + NN-Descent) |
//! | [`ieh`]    | IEH    | KNNG | brute force + hashing |
//! | [`nsw`]    | NSW    | DG   | increment |
//! | [`hnsw`]   | HNSW   | DG+RNG | increment, hierarchical |
//! | [`ngt`]    | NGT-panng, NGT-onng | KNNG+DG+RNG | increment + degree adjustment |
//! | [`sptag`]  | SPTAG-KDT, SPTAG-BKT | KNNG(+RNG) | divide and conquer |
//! | [`fanng`]  | FANNG  | RNG  | refinement (occlusion rule) |
//! | [`dpg`]    | DPG    | KNNG+RNG | refinement (angular diversification) |
//! | [`nsg`]    | NSG    | KNNG+RNG | refinement (MRNG rule) |
//! | [`nssg`]   | NSSG   | KNNG+RNG | refinement (angle rule) |
//! | [`vamana`] | Vamana | RNG  | refinement (α rule, two passes) |
//! | [`hcnng`]  | HCNNG  | MST  | divide and conquer |
//! | [`kdr`]    | k-DR   | KNNG+RNG | refinement (reachability pruning) |
//! | [`oa`]     | OA     | KNNG+RNG | refinement (§6's best-component mix) |

pub mod dpg;
pub mod efanna;
pub mod fanng;
pub mod hcnng;
pub mod hnsw;
pub mod hnsw_dynamic;
pub mod ieh;
pub mod kdr;
pub mod kgraph;
pub mod ngt;
pub mod nsg;
pub mod nssg;
pub mod nsw;
pub mod oa;
pub mod sptag;
pub mod vamana;

use crate::index::AnnIndex;
use weavess_data::Dataset;

/// Registry of every evaluated algorithm — the bench harness's handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// KGraph (A6).
    KGraph,
    /// NGT-panng (A4).
    NgtPanng,
    /// NGT-onng (A4, optimized version).
    NgtOnng,
    /// SPTAG-KDT (A5, original version).
    SptagKdt,
    /// SPTAG-BKT (A5, optimized version).
    SptagBkt,
    /// NSW (A1).
    Nsw,
    /// IEH (A8).
    Ieh,
    /// FANNG (A3).
    Fanng,
    /// HNSW (A2).
    Hnsw,
    /// EFANNA (A7).
    Efanna,
    /// DPG (A9).
    Dpg,
    /// NSG (A10).
    Nsg,
    /// HCNNG (A13).
    Hcnng,
    /// Vamana (A12).
    Vamana,
    /// NSSG (A11).
    Nssg,
    /// k-DR (Appendix N).
    Kdr,
    /// The optimized algorithm (§6 "Improvement").
    Oa,
}

impl Algo {
    /// Every algorithm, in the paper's Table 4 row order (k-DR and OA
    /// appended).
    pub fn all() -> &'static [Algo] {
        &[
            Algo::KGraph,
            Algo::NgtPanng,
            Algo::NgtOnng,
            Algo::SptagKdt,
            Algo::SptagBkt,
            Algo::Nsw,
            Algo::Ieh,
            Algo::Fanng,
            Algo::Hnsw,
            Algo::Efanna,
            Algo::Dpg,
            Algo::Nsg,
            Algo::Hcnng,
            Algo::Vamana,
            Algo::Nssg,
            Algo::Kdr,
            Algo::Oa,
        ]
    }

    /// The paper's 13 core algorithms (one representative NGT and SPTAG
    /// variant each would make 13; both variants are kept for Table 4
    /// fidelity).
    pub fn core_thirteen() -> &'static [Algo] {
        &[
            Algo::KGraph,
            Algo::NgtPanng,
            Algo::SptagKdt,
            Algo::Nsw,
            Algo::Ieh,
            Algo::Fanng,
            Algo::Hnsw,
            Algo::Efanna,
            Algo::Dpg,
            Algo::Nsg,
            Algo::Hcnng,
            Algo::Vamana,
            Algo::Nssg,
        ]
    }

    /// Name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::KGraph => "KGraph",
            Algo::NgtPanng => "NGT-panng",
            Algo::NgtOnng => "NGT-onng",
            Algo::SptagKdt => "SPTAG-KDT",
            Algo::SptagBkt => "SPTAG-BKT",
            Algo::Nsw => "NSW",
            Algo::Ieh => "IEH",
            Algo::Fanng => "FANNG",
            Algo::Hnsw => "HNSW",
            Algo::Efanna => "EFANNA",
            Algo::Dpg => "DPG",
            Algo::Nsg => "NSG",
            Algo::Hcnng => "HCNNG",
            Algo::Vamana => "Vamana",
            Algo::Nssg => "NSSG",
            Algo::Kdr => "k-DR",
            Algo::Oa => "OA",
        }
    }

    /// Base graph(s) the algorithm approximates (Table 2's second column).
    pub fn base_graph(&self) -> &'static str {
        match self {
            Algo::KGraph | Algo::Ieh | Algo::Efanna => "KNNG",
            Algo::NgtPanng | Algo::NgtOnng => "KNNG+DG+RNG",
            Algo::SptagKdt => "KNNG",
            Algo::SptagBkt => "KNNG+RNG",
            Algo::Nsw => "DG",
            Algo::Fanng | Algo::Vamana => "RNG",
            Algo::Hnsw => "DG+RNG",
            Algo::Dpg | Algo::Nsg | Algo::Nssg | Algo::Kdr | Algo::Oa => "KNNG+RNG",
            Algo::Hcnng => "MST",
        }
    }

    /// Construction strategy (Table 9 / Appendix E).
    pub fn construction_strategy(&self) -> &'static str {
        match self {
            Algo::Nsw | Algo::Hnsw | Algo::NgtPanng | Algo::NgtOnng => "increment",
            Algo::SptagKdt | Algo::SptagBkt | Algo::Hcnng => "divide-and-conquer",
            _ => "refinement",
        }
    }

    /// Edge type of the final graph (Table 2's third column).
    pub fn edge_type(&self) -> &'static str {
        match self {
            Algo::Nsw | Algo::Dpg | Algo::Kdr => "undirected",
            _ => "directed",
        }
    }

    /// Routing strategy family used at search time (Table 9's last column).
    pub fn routing(&self) -> &'static str {
        match self {
            Algo::NgtPanng | Algo::NgtOnng | Algo::Kdr => "range search",
            Algo::Fanng => "backtracking",
            Algo::Hcnng => "guided search",
            Algo::Oa => "two-stage (guided + best-first)",
            _ => "best-first search",
        }
    }

    /// Builds this algorithm's index with reasonable default parameters
    /// (tuned at the scale of the harness's datasets), `threads`
    /// construction threads, and `seed` for every randomized part.
    pub fn build(&self, ds: &Dataset, threads: usize, seed: u64) -> Box<dyn AnnIndex> {
        match self {
            Algo::KGraph => Box::new(kgraph::build(
                ds,
                &kgraph::KGraphParams::tuned(threads, seed),
            )),
            Algo::NgtPanng => Box::new(ngt::build(ds, &ngt::NgtParams::panng(threads, seed))),
            Algo::NgtOnng => Box::new(ngt::build(ds, &ngt::NgtParams::onng(threads, seed))),
            Algo::SptagKdt => Box::new(sptag::build(ds, &sptag::SptagParams::kdt(threads, seed))),
            Algo::SptagBkt => Box::new(sptag::build(ds, &sptag::SptagParams::bkt(threads, seed))),
            Algo::Nsw => Box::new(nsw::build(ds, &nsw::NswParams::tuned(threads, seed))),
            Algo::Ieh => Box::new(ieh::build(ds, &ieh::IehParams::tuned(threads, seed))),
            Algo::Fanng => Box::new(fanng::build(ds, &fanng::FanngParams::tuned(threads, seed))),
            Algo::Hnsw => Box::new(hnsw::build(ds, &hnsw::HnswParams::tuned(threads, seed))),
            Algo::Efanna => Box::new(efanna::build(
                ds,
                &efanna::EfannaParams::tuned(threads, seed),
            )),
            Algo::Dpg => Box::new(dpg::build(ds, &dpg::DpgParams::tuned(threads, seed))),
            Algo::Nsg => Box::new(nsg::build(ds, &nsg::NsgParams::tuned(threads, seed))),
            Algo::Hcnng => Box::new(hcnng::build(ds, &hcnng::HcnngParams::tuned(threads, seed))),
            Algo::Vamana => Box::new(vamana::build(
                ds,
                &vamana::VamanaParams::tuned(threads, seed),
            )),
            Algo::Nssg => Box::new(nssg::build(ds, &nssg::NssgParams::tuned(threads, seed))),
            Algo::Kdr => Box::new(kdr::build(ds, &kdr::KdrParams::tuned(threads, seed))),
            Algo::Oa => Box::new(oa::build(ds, &oa::OaParams::tuned(threads, seed))),
        }
    }
}
