//! NGT's range search (C7): best-first with an unbounded candidate queue
//! and an ε-inflated acceptance radius.
//!
//! Per §4.2: the candidate set's size restriction is cancelled; with `r`
//! the distance of the current worst result, a neighbor `n` enters the
//! queue iff `δ(n, q) < (1 + ε) · r`. Larger ε escapes local optima at the
//! cost of more distance computations — the "precision ceiling" behaviour
//! the component evaluation observes for `C7_NGT` (Figure 10f).

use super::core::Frontier;
use super::scratch::Stores;
use std::cmp::Reverse;
use weavess_data::neighbor::insert_into_pool;
use weavess_data::Neighbor;

/// The heap as an unbounded candidate queue beside a `beam`-bounded result
/// pool. The ε-inflated acceptance test runs per neighbor, in adjacency
/// order, against the live radius; every visited neighbor's distance is
/// computed before the test, so batch scoring changes neither NDC nor
/// results. The occupancy the tracer and `pool_peak` see is the *queue's*.
pub(crate) struct Radius {
    /// `(1 + ε)²`: distances are squared.
    pub inflate: f32,
}

impl Radius {
    /// Inflated distance of the worst result once `beam` are held;
    /// infinite before.
    #[inline]
    fn bound(&self, s: &Stores) -> f32 {
        if s.results.len() == s.beam {
            self.inflate * s.results.last().map_or(f32::INFINITY, |w| w.dist)
        } else {
            f32::INFINITY
        }
    }
}

impl Frontier for Radius {
    #[inline]
    fn offer(&mut self, s: &mut Stores, n: Neighbor) {
        if n.dist < self.bound(s) {
            self.seed(s, n);
        }
    }

    /// Seeds enter unconditionally.
    #[inline]
    fn seed(&mut self, s: &mut Stores, n: Neighbor) {
        insert_into_pool(&mut s.results, s.beam, n);
        s.heap.push(Reverse(n));
    }

    /// Stops once nothing is left within the inflated radius.
    #[inline]
    fn next(&mut self, s: &mut Stores) -> Option<Neighbor> {
        let Reverse(c) = s.heap.pop()?;
        if c.dist > self.bound(s) {
            None
        } else {
            Some(c)
        }
    }

    #[inline]
    fn peek(&self, s: &Stores) -> Option<u32> {
        s.heap.peek().map(|Reverse(n)| n.id)
    }

    #[inline]
    fn len(&self, s: &Stores) -> usize {
        s.heap.len()
    }

    fn finish(&self, s: &Stores) -> Vec<Neighbor> {
        s.results.clone()
    }
}

#[cfg(test)]
mod tests {
    use crate::search::{Router, SearchScratch, SearchStats};
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_data::Dataset;
    use weavess_graph::base::exact_knng;
    use weavess_graph::CsrGraph;

    fn setup() -> (Dataset, Dataset, CsrGraph) {
        let (base, queries) = MixtureSpec::table10(8, 400, 4, 3.0, 20).generate();
        let g = exact_knng(&base, 10, 4);
        (base, queries, g)
    }

    fn recall_at_10(eps: f32) -> (f64, u64) {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let seeds: Vec<u32> = (0..8u32).map(|i| i * 47 % ds.len() as u32).collect();
        let mut hits = 0usize;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let res = Router::Range { epsilon: eps }.search(
                &ds,
                &g,
                q,
                &seeds,
                10,
                &mut scratch,
                &mut stats,
            );
            let truth: Vec<u32> = knn_scan(&ds, q, 10, None).iter().map(|n| n.id).collect();
            hits += res
                .iter()
                .take(10)
                .filter(|n| truth.contains(&n.id))
                .count();
        }
        (hits as f64 / (10 * qs.len()) as f64, stats.ndc)
    }

    #[test]
    fn finds_neighbors_with_modest_epsilon() {
        let (r, _) = recall_at_10(0.1);
        assert!(r > 0.6, "recall={r}");
    }

    #[test]
    fn larger_epsilon_costs_more_and_recalls_no_less() {
        let (r_small, ndc_small) = recall_at_10(0.0);
        let (r_large, ndc_large) = recall_at_10(0.4);
        assert!(ndc_large > ndc_small, "{ndc_large} <= {ndc_small}");
        assert!(r_large >= r_small - 0.02, "{r_large} < {r_small}");
    }

    #[test]
    fn results_sorted_and_bounded() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let res = Router::Range { epsilon: 0.2 }.search(
            &ds,
            &g,
            qs.point(0),
            &[0, 3],
            7,
            &mut scratch,
            &mut stats,
        );
        assert!(res.len() <= 7);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
