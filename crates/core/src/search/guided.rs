//! HCNNG's guided search (C7).
//!
//! §4.2: instead of visiting *all* neighbors of the expanded vertex like
//! best-first search, guided search "avoids some redundant visits based on
//! the query's location" — fewer distance computations per hop at a small
//! accuracy cost (the S2 routing-efficiency fix, with the accuracy caveat
//! Figure 10(f) reports).
//!
//! Gate (our O(1)-per-neighbor approximation, documented in DESIGN.md):
//! for expanded vertex `x`, find the coordinate `d*` where the query
//! deviates most from `x`; skip neighbor `n` when it moves in the opposite
//! direction along `d*`. Neighbors aligned with the query's dominant
//! direction always pass.

use super::core::Gate;
use weavess_data::vectors::VectorView;

/// The dominant-coordinate gate. Requires a [`VectorView`] with raw
/// coordinates ([`VectorView::vector`]) — SQ8-only storage cannot run
/// guided search. Gated-out neighbors are invisible to the tracer (they
/// are never scored) and stay unvisited.
pub(crate) struct Dominant;

impl Gate for Dominant {
    #[inline]
    fn aim(&self, ds: &(impl VectorView + ?Sized), query: &[f32], v: u32) -> impl Fn(u32) -> bool {
        let x = ds.vector(v);
        // Dominant query direction at `v`: one O(dim) scan per expansion.
        let mut dstar = 0usize;
        let mut best = 0.0f32;
        for (d, (&qd, &xd)) in query.iter().zip(x).enumerate() {
            let a = (qd - xd).abs();
            if a > best {
                best = a;
                dstar = d;
            }
        }
        let origin = x[dstar];
        let want_positive = query[dstar] >= origin;
        // Refuse a neighbor that moves away from the query along `dstar`.
        move |u| (ds.vector(u)[dstar] >= origin) == want_positive
    }
}

#[cfg(test)]
mod tests {
    use crate::search::{beam_search, Router, SearchScratch, SearchStats};
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_data::Dataset;
    use weavess_graph::base::exact_knng;
    use weavess_graph::CsrGraph;

    fn setup() -> (Dataset, Dataset, CsrGraph) {
        let (base, queries) = MixtureSpec::table10(8, 500, 4, 3.0, 30).generate();
        let g = exact_knng(&base, 10, 4);
        (base, queries, g)
    }

    #[test]
    fn guided_search_spends_fewer_distance_computations() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let seeds: Vec<u32> = (0..8u32).map(|i| i * 59 % ds.len() as u32).collect();
        let mut s_guided = SearchStats::default();
        let mut s_beam = SearchStats::default();
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            Router::Guided.search(&ds, &g, q, &seeds, 20, &mut scratch, &mut s_guided);
            scratch.next_epoch();
            beam_search(&ds, &g, q, &seeds, 20, &mut scratch, &mut s_beam);
        }
        assert!(
            s_guided.ndc < s_beam.ndc,
            "guided {} !< beam {}",
            s_guided.ndc,
            s_beam.ndc
        );
    }

    #[test]
    fn guided_search_accuracy_stays_reasonable() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let seeds: Vec<u32> = (0..8u32).map(|i| i * 59 % ds.len() as u32).collect();
        let mut hits = 0usize;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let res = Router::Guided.search(&ds, &g, q, &seeds, 30, &mut scratch, &mut stats);
            let truth: Vec<u32> = knn_scan(&ds, q, 10, None).iter().map(|n| n.id).collect();
            hits += res
                .iter()
                .take(10)
                .filter(|n| truth.contains(&n.id))
                .count();
        }
        let recall = hits as f64 / (10 * qs.len()) as f64;
        assert!(recall > 0.5, "recall={recall}");
    }

    #[test]
    fn result_sorted_and_bounded() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let res =
            Router::Guided.search(&ds, &g, qs.point(0), &[0, 9], 12, &mut scratch, &mut stats);
        assert!(res.len() <= 12);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
