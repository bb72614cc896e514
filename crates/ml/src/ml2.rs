//! ML2 stand-in — *learned adaptive early termination* (Li et al.,
//! SIGMOD'20): most queries need far less search than the worst case, so
//! a regressor predicts each query's required effort from features of the
//! search's early state and stops as soon as that budget is spent.
//!
//! Faithful to the original's recipe: gradient-boosted trees (our
//! [`crate::gbdt`] stumps) over features collected at a fixed checkpoint,
//! predicting the expansions needed for the true nearest neighbor; at
//! query time the search runs to `predicted × margin` expansions.

use crate::gbdt::{Gbdt, GbdtParams};
use weavess_core::search::{beam_search_until, PoolView, SearchScratch, SearchStats};
use weavess_data::ground_truth::knn_scan;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;

/// Feature vector of a walk's state after `hops` expansions (the original
/// uses the query, the current best distances, and their ratios).
fn features(pool: PoolView<'_>, hops: u64) -> Vec<f32> {
    let dist = |i: usize| pool.get(i).map_or(0.0, |n| n.dist);
    let last = pool.len().saturating_sub(1);
    let (d1, dk, dlast) = (dist(0), dist(9.min(last)), dist(last));
    let ratio = |a: f32, b: f32| if b > 0.0 { a / b } else { 1.0 };
    vec![d1, dk, dlast, ratio(d1, dk), ratio(dk, dlast), hops as f32]
}

/// An ML2-optimized index wrapping a base graph.
pub struct Ml2Index {
    graph: CsrGraph,
    entries: Vec<u32>,
    model: Gbdt,
    checkpoint_hops: u64,
    margin: f32,
    /// Wall-clock seconds spent training.
    pub training_secs: f64,
}

/// Training + search configuration.
#[derive(Debug, Clone)]
pub struct Ml2Params {
    /// Beam width used during training and search.
    pub beam: usize,
    /// Fixed checkpoint (expansions) where features are read.
    pub checkpoint_hops: u64,
    /// Safety multiplier on the predicted budget.
    pub margin: f32,
    /// Boosting configuration.
    pub gbdt: GbdtParams,
}

impl Default for Ml2Params {
    fn default() -> Self {
        Ml2Params {
            beam: 60,
            checkpoint_hops: 10,
            margin: 1.3,
            gbdt: GbdtParams::default(),
        }
    }
}

/// Trains the early-termination model on `train_queries`.
pub fn optimize(
    ds: &Dataset,
    graph: CsrGraph,
    entries: Vec<u32>,
    train_queries: &Dataset,
    params: &Ml2Params,
) -> Ml2Index {
    let t0 = std::time::Instant::now();
    let c = params.checkpoint_hops;
    let mut scratch = SearchScratch::new(ds.len());
    let (mut rows, mut targets) = (Vec::new(), Vec::new());
    for qi in 0..train_queries.len() as u32 {
        let q = train_queries.point(qi);
        let truth = knn_scan(ds, q, 1, None)[0].id;
        // Features at the checkpoint (or at convergence, if earlier); the
        // target is the first hop count from the checkpoint on, in steps of
        // 5, with the true NN at the pool head, or the converged length.
        let (mut feats, mut needed) = (Vec::new(), 0);
        scratch.next_epoch();
        beam_search_until(
            ds,
            &graph,
            q,
            &entries,
            params.beam,
            &mut scratch,
            &mut SearchStats::default(),
            |hops, pool| {
                if hops <= c {
                    feats = features(pool, hops);
                }
                needed = hops;
                hops >= c
                    && (hops - c).is_multiple_of(5)
                    && pool.get(0).map(|n| n.id) == Some(truth)
            },
        );
        rows.push(feats);
        targets.push(needed as f32);
    }
    let model = Gbdt::fit(&rows, &targets, &params.gbdt);
    Ml2Index {
        graph,
        entries,
        model,
        checkpoint_hops: params.checkpoint_hops,
        margin: params.margin,
        training_secs: t0.elapsed().as_secs_f64(),
    }
}

impl Ml2Index {
    /// Adaptive-termination search: returns `(results, ndc, hops)`. The
    /// walk reads its features at the checkpoint and stops at the larger
    /// of the checkpoint and the predicted budget; a `beam` below `k` is
    /// served as `k`.
    pub fn search(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, u64, u64) {
        let c = self.checkpoint_hops;
        let mut limit = c;
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let mut out = beam_search_until(
            ds,
            &self.graph,
            query,
            &self.entries,
            beam.max(k),
            scratch,
            &mut stats,
            |hops, pool| {
                if hops == c {
                    let predicted = self.model.predict(&features(pool, hops)).max(0.0);
                    limit = ((predicted * self.margin).ceil() as u64).max(c);
                }
                hops >= limit
            },
        );
        out.truncate(k);
        (out, stats.ndc, stats.hops)
    }

    /// The trained effort regressor.
    pub fn model(&self) -> &Gbdt {
        &self.model
    }

    /// Extra memory the optimization adds (the model).
    pub fn extra_memory_bytes(&self) -> usize {
        self.model.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_core::algorithms::nsg::{self, NsgParams};
    use weavess_core::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;

    fn setup() -> (Dataset, Dataset, Dataset, weavess_core::index::FlatIndex) {
        let (ds, qs) = MixtureSpec::table10(16, 2_000, 1, 5.0, 60).generate();
        let train = qs.subset(&(0..30u32).collect::<Vec<_>>());
        let test = qs.subset(&(30..60u32).collect::<Vec<_>>());
        let idx = nsg::build(&ds, &NsgParams::tuned(4, 1));
        (ds, train, test, idx)
    }

    #[test]
    fn ml2_terminates_earlier_at_similar_recall() {
        let (ds, train, test, base) = setup();
        let entries = vec![ds.medoid()];
        let ml2 = optimize(
            &ds,
            base.graph.clone(),
            entries,
            &train,
            &Ml2Params::default(),
        );
        let gt = ground_truth(&ds, &test, 10, 4);
        let mut scratch = SearchScratch::new(ds.len());
        let mut ctx = SearchContext::new(ds.len());
        let (mut r_base, mut r_ml2) = (0.0f64, 0.0f64);
        let mut ndc_ml2 = 0u64;
        for qi in 0..test.len() as u32 {
            let q = test.point(qi);
            let b: Vec<u32> = base
                .search(&ds, q, 10, 60, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            r_base += recall(&b, &gt[qi as usize]);
            let (m, ndc, _) = ml2.search(&ds, q, 10, 60, &mut scratch);
            let mids: Vec<u32> = m.iter().map(|n| n.id).collect();
            r_ml2 += recall(&mids, &gt[qi as usize]);
            ndc_ml2 += ndc;
        }
        let nq = test.len() as f64;
        // Early termination must save distance computations without
        // collapsing recall (the Figure 19 ML2 shape: slight latency
        // reduction at high precision).
        assert!(
            (ndc_ml2 as f64) < ctx.stats.ndc as f64,
            "ml2 {ndc_ml2} !< base {}",
            ctx.stats.ndc
        );
        assert!(r_ml2 / nq > r_base / nq - 0.15, "{r_ml2} vs {r_base}");
        assert!(r_ml2 / nq > 0.6, "recall {}", r_ml2 / nq);
    }

    #[test]
    fn ml2_reports_costs() {
        let (ds, train, _, base) = setup();
        let ml2 = optimize(
            &ds,
            base.graph.clone(),
            vec![ds.medoid()],
            &train,
            &Ml2Params::default(),
        );
        assert!(ml2.training_secs > 0.0);
        assert!(ml2.extra_memory_bytes() > 0);
    }

    fn trained() -> (Dataset, Dataset, Ml2Index) {
        let (ds, train, test, base) = setup();
        let entries = vec![ds.medoid()];
        let ml2 = optimize(&ds, base.graph, entries, &train, &Ml2Params::default());
        (ds, test, ml2)
    }

    /// A beam of 0 is served as `k` like every other index's: the walk
    /// neither panics nor comes back empty.
    #[test]
    fn beam_zero_is_served_as_k() {
        let (ds, test, ml2) = trained();
        let mut scratch = SearchScratch::new(ds.len());
        for qi in 0..test.len() as u32 {
            let (res, ndc, _) = ml2.search(&ds, test.point(qi), 1, 0, &mut scratch);
            assert_eq!(res.len(), 1);
            assert!(ndc > 0);
        }
    }

    /// A beam below `k` still returns `k` results, as ML1, ML3 and SQ8 do.
    #[test]
    fn beam_below_k_is_served_as_k() {
        let (ds, test, ml2) = trained();
        let mut scratch = SearchScratch::new(ds.len());
        for qi in 0..test.len() as u32 {
            let (res, _, _) = ml2.search(&ds, test.point(qi), 10, 4, &mut scratch);
            assert_eq!(res.len(), 10);
            assert!(res.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
