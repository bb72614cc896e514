//! ML3 stand-in — *learned dimensionality reduction* (Prokhorenkova &
//! Shekhovtsov, ICML'20): map the dataset to a lower-dimensional space
//! that preserves local geometry, search the graph there, rerank the
//! survivors with full-dimension distances.
//!
//! The original learns the map; the stand-in uses PCA, which preserves
//! exactly the local-geometry property on the feature-like (low intrinsic
//! dimension) data the survey evaluates. The measured shape survives:
//! a big speedup-recall gain, paid for with a full extra copy of the
//! dataset (Table 24's memory column).

use crate::pca::Pca;
use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::index::{AnnIndex, SearchContext};
use weavess_core::search::rerank;
use weavess_data::{Dataset, Neighbor};

/// An ML3-optimized index: a graph over the reduced-space dataset.
pub struct Ml3Index {
    pca: Pca,
    reduced: Dataset,
    inner: weavess_core::index::FlatIndex,
    /// Wall-clock seconds spent preprocessing (fit + project + rebuild).
    pub preprocessing_secs: f64,
}

/// Builds the ML3 optimization: reduce to `m` dimensions and build an NSG
/// (the paper pairs ML3 with NSG) over the reduced points.
pub fn optimize(ds: &Dataset, m: usize, nsg_params: &NsgParams) -> Ml3Index {
    let t0 = std::time::Instant::now();
    let pca = Pca::fit(ds, m, ds.len().min(20_000));
    let reduced = pca.project_dataset(ds);
    let inner = nsg::build(&reduced, nsg_params);
    Ml3Index {
        pca,
        reduced,
        inner,
        preprocessing_secs: t0.elapsed().as_secs_f64(),
    }
}

impl Ml3Index {
    /// Searches in the reduced space, reranks with full distances.
    /// Returns `(results, reduced_evals, full_evals)`.
    pub fn search(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
    ) -> (Vec<Neighbor>, u64, u64) {
        let rq = self.pca.project(query);
        let before = ctx.stats.ndc;
        let pool = self
            .inner
            .search(&self.reduced, &rq, beam.max(k), beam, ctx);
        let reduced_evals = ctx.stats.ndc - before;
        let full_evals = pool.len() as u64;
        (
            rerank(ds, query, &pool, k, &mut ctx.scratch),
            reduced_evals,
            full_evals,
        )
    }

    /// Extra memory: the reduced copy plus the projection (the reduced
    /// graph replaces the base graph, so it is not double-charged).
    pub fn extra_memory_bytes(&self) -> usize {
        self.reduced.memory_bytes() + self.pca.memory_bytes()
    }

    /// The reduced dimensionality.
    pub fn reduced_dim(&self) -> usize {
        self.pca.out_dim()
    }

    /// Fresh context sized for this index.
    pub fn context(&self) -> SearchContext {
        SearchContext::new(self.reduced.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;

    fn setup() -> (Dataset, Dataset) {
        let spec = MixtureSpec {
            intrinsic_dim: Some(8),
            noise: 0.05,
            ..MixtureSpec::table10(64, 2_000, 1, 5.0, 30)
        };
        spec.generate()
    }

    #[test]
    fn ml3_keeps_recall_with_cheaper_distances() {
        let (ds, qs) = setup();
        let gt = ground_truth(&ds, &qs, 10, 4);
        let ml3 = optimize(&ds, 12, &NsgParams::tuned(4, 1));
        let mut ctx = ml3.context();
        let mut total = 0.0;
        let mut reduced_evals = 0u64;
        for qi in 0..qs.len() as u32 {
            let (r, re, _) = ml3.search(&ds, qs.point(qi), 10, 60, &mut ctx);
            let ids: Vec<u32> = r.iter().map(|n| n.id).collect();
            total += recall(&ids, &gt[qi as usize]);
            reduced_evals += re;
        }
        let r = total / qs.len() as f64;
        assert!(r > 0.8, "recall={r}");
        assert!(reduced_evals > 0);
        // Each reduced eval costs 12/64 of a full one: the effective NDC
        // advantage is the whole point.
        assert_eq!(ml3.reduced_dim(), 12);
    }

    #[test]
    fn ml3_memory_and_time_are_reported() {
        let (ds, _) = setup();
        let ml3 = optimize(&ds, 12, &NsgParams::tuned(4, 1));
        assert!(ml3.preprocessing_secs > 0.0);
        assert!(ml3.extra_memory_bytes() >= ds.len() * 12 * 4);
    }
}
