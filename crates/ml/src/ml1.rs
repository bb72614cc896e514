//! ML1 stand-in — *learned routing* (Baranchuk et al., "Learning to Route
//! in Similarity Graphs").
//!
//! The original trains per-vertex representations (GPU, hours, tens of
//! GB — Table 6). The stand-in keeps the measured trade-off on CPU:
//! routing decisions are made with *compressed* (PCA) vectors — each
//! evaluation costs `m/d` of a full distance — and the final candidates
//! are reranked with full vectors. Extra memory: a second, compressed
//! copy of every point plus the projection, charged to the index.

use crate::pca::Pca;
use weavess_core::search::{beam_search, rerank, SearchScratch, SearchStats};
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;

/// An ML1-optimized index wrapping a base graph.
pub struct Ml1Index {
    graph: CsrGraph,
    entries: Vec<u32>,
    pca: Pca,
    compressed: Dataset,
    /// Wall-clock seconds spent preprocessing (PCA fit + projection).
    pub preprocessing_secs: f64,
}

/// Work counters distinguishing compressed from full evaluations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ml1Stats {
    /// Compressed (m-dimensional) distance evaluations.
    pub compressed_evals: u64,
    /// Full-dimension distance evaluations (reranking).
    pub full_evals: u64,
}

impl Ml1Stats {
    /// Full-distance-equivalents: compressed evaluations cost `m/d` each.
    pub fn effective_ndc(&self, m: usize, d: usize) -> f64 {
        self.full_evals as f64 + self.compressed_evals as f64 * m as f64 / d as f64
    }
}

/// Builds the ML1 optimization over an existing graph.
pub fn optimize(ds: &Dataset, graph: CsrGraph, entries: Vec<u32>, m: usize) -> Ml1Index {
    let t0 = std::time::Instant::now();
    let pca = Pca::fit(ds, m, ds.len().min(20_000));
    let compressed = pca.project_dataset(ds);
    Ml1Index {
        graph,
        entries,
        pca,
        compressed,
        preprocessing_secs: t0.elapsed().as_secs_f64(),
    }
}

impl Ml1Index {
    /// Searches with compressed routing and full-vector reranking.
    pub fn search(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, Ml1Stats) {
        let cq = self.pca.project(query);
        // Best-first over compressed distances.
        scratch.next_epoch();
        let mut cstats = SearchStats::default();
        let pool = beam_search(
            &self.compressed,
            &self.graph,
            &cq,
            &self.entries,
            beam.max(k),
            scratch,
            &mut cstats,
        );
        let stats = Ml1Stats {
            compressed_evals: cstats.ndc,
            full_evals: pool.len() as u64,
        };
        // Rerank the surviving pool with full distances.
        (rerank(ds, query, &pool, k, scratch), stats)
    }

    /// Extra memory the optimization adds (compressed copy + projection).
    pub fn extra_memory_bytes(&self) -> usize {
        self.compressed.memory_bytes() + self.pca.memory_bytes()
    }

    /// Compressed dimensionality.
    pub fn compressed_dim(&self) -> usize {
        self.pca.out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_core::algorithms::nsg::{self, NsgParams};
    use weavess_core::index::AnnIndex;
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;

    fn setup() -> (Dataset, Dataset, weavess_core::index::FlatIndex) {
        // Subspace data: PCA compression is meaningful, as on real
        // features.
        let spec = MixtureSpec {
            intrinsic_dim: Some(8),
            noise: 0.05,
            ..MixtureSpec::table10(48, 2_000, 1, 5.0, 30)
        };
        let (ds, qs) = spec.generate();
        let idx = nsg::build(&ds, &NsgParams::tuned(4, 1));
        (ds, qs, idx)
    }

    #[test]
    fn ml1_keeps_recall_with_fewer_effective_distances() {
        let (ds, qs, base) = setup();
        let gt = ground_truth(&ds, &qs, 10, 4);
        let entries = vec![ds.medoid()];
        let ml1 = optimize(&ds, base.graph.clone(), entries, 12);
        let mut scratch = SearchScratch::new(ds.len());
        let mut ctx = weavess_core::index::SearchContext::new(ds.len());
        let (mut base_hits, mut ml1_hits) = (0.0f64, 0.0f64);
        let mut ml1_ndc = 0.0f64;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            let b: Vec<u32> = base
                .search(&ds, q, 10, 60, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            base_hits += recall(&b, &gt[qi as usize]);
            let (m, s) = ml1.search(&ds, q, 10, 60, &mut scratch);
            let mids: Vec<u32> = m.iter().map(|n| n.id).collect();
            ml1_hits += recall(&mids, &gt[qi as usize]);
            ml1_ndc += s.effective_ndc(12, ds.dim());
        }
        let base_ndc = ctx.stats.ndc as f64;
        let nq = qs.len() as f64;
        // The stand-in's defining trade: comparable recall, fewer
        // full-distance-equivalents.
        assert!(
            ml1_hits / nq > base_hits / nq - 0.1,
            "{ml1_hits} vs {base_hits}"
        );
        assert!(ml1_ndc < base_ndc, "ml1 ndc {ml1_ndc} !< base {base_ndc}");
        assert!(ml1_hits / nq > 0.7);
    }

    #[test]
    fn ml1_charges_extra_memory() {
        let (ds, _, base) = setup();
        let ml1 = optimize(&ds, base.graph.clone(), vec![0], 12);
        assert!(ml1.extra_memory_bytes() > ds.len() * 12 * 4);
        assert!(ml1.preprocessing_secs >= 0.0);
        assert_eq!(ml1.compressed_dim(), 12);
    }
}
