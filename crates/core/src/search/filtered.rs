//! Attribute-filtered (hybrid) search — the survey's "Tendencies" §6:
//! "the latest research adds structured attribute constraints to the
//! search process of graph-based algorithms" (AnalyticDB-V, NGT-qg-style
//! hybrid queries).
//!
//! Strategy: *traverse unfiltered, collect filtered*. The beam explores
//! the graph ignoring the predicate (filtering the traversal itself
//! fragments the graph and strands whole regions when selectivity is low),
//! while a separate result pool admits only predicate-passing vertices.
//! The search ends when the traversal pool converges and the result pool
//! holds `k` passing vertices no frontier candidate can improve.

use super::core::{Frontier, Open, Start, Walk};
use super::scratch::{SearchScratch, Stores};
use super::SearchStats;
use crate::telemetry::{NoopTracer, RouteTracer};
use weavess_data::neighbor::insert_into_pool;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Best-first search returning only vertices accepted by `filter`.
///
/// `beam` bounds the traversal pool as usual; the result pool holds up to
/// `k` accepted vertices. With a constant-true filter this returns exactly
/// the top-k of [`super::beam_search`].
///
/// `filter` is called only for scored vertices that can still enter the
/// result pool — while it holds fewer than `k`, or for one no farther than
/// its current `k`-th — so it is not called for every vertex the
/// traversal scores, and it must be a pure function of the id.
#[allow(clippy::too_many_arguments)]
pub fn filtered_beam_search(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam: usize,
    filter: &dyn Fn(u32) -> bool,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let tracer = &mut NoopTracer;
    filtered_beam_search_traced(ds, g, query, seeds, k, beam, filter, scratch, stats, tracer)
}

/// [`filtered_beam_search`] with a [`RouteTracer`] observing the
/// (unfiltered) traversal; `pool_peak` tracks the traversal pool.
#[allow(clippy::too_many_arguments)]
pub fn filtered_beam_search_traced<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam: usize,
    filter: &dyn Fn(u32) -> bool,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    tracer: &mut T,
) -> Vec<Neighbor> {
    let mut walk = Walk {
        ds,
        g,
        query,
        scratch,
        stats,
        tracer,
    };
    // A `k` of 0 is served as 1: the nearest accepted vertex found.
    let k = k.max(1);
    walk.run(Start::Seeds(seeds), beam, Filtered { k, filter }, Open)
}

/// The unfiltered traversal pool plus the result pool of up to `k`
/// accepted vertices, which is what is returned.
struct Filtered<'a> {
    k: usize,
    filter: &'a dyn Fn(u32) -> bool,
}

impl Frontier for Filtered<'_> {
    /// The result pool's bound is tested before the filter, so the filter
    /// never runs for a candidate the pool would turn away anyway.
    #[inline]
    fn offer(&mut self, s: &mut Stores, n: Neighbor) {
        let k = self.k;
        if (s.results.len() < k || n <= s.results[k - 1]) && (self.filter)(n.id) {
            insert_into_pool(&mut s.results, k, n);
        }
        s.pool.insert(n);
    }

    fn finish(&self, s: &Stores) -> Vec<Neighbor> {
        s.results.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::beam_search;
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_data::Dataset;
    use weavess_graph::base::exact_knng;
    use weavess_graph::CsrGraph;

    fn setup() -> (Dataset, Dataset, CsrGraph) {
        let spec = MixtureSpec {
            intrinsic_dim: Some(6),
            noise: 0.05,
            shared_subspace: true,
            ..MixtureSpec::table10(16, 1_000, 3, 5.0, 30)
        };
        let (base, queries) = spec.generate();
        let g = exact_knng(&base, 12, 2);
        (base, queries, g)
    }

    #[test]
    fn constant_true_filter_matches_plain_beam_search() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let seeds = [0u32, 300, 700];
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let filtered =
                filtered_beam_search(&ds, &g, q, &seeds, 10, 40, &|_| true, &mut scratch, &mut s1);
            scratch.next_epoch();
            let mut plain = beam_search(&ds, &g, q, &seeds, 40, &mut scratch, &mut s2);
            plain.truncate(10);
            assert_eq!(filtered, plain, "query {qi}");
        }
    }

    #[test]
    fn results_satisfy_the_predicate() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let filter = |id: u32| id.is_multiple_of(3);
        for qi in 0..qs.len() as u32 {
            scratch.next_epoch();
            let res = filtered_beam_search(
                &ds,
                &g,
                qs.point(qi),
                &[0, 500],
                10,
                60,
                &filter,
                &mut scratch,
                &mut stats,
            );
            assert!(res.iter().all(|n| filter(n.id)));
            assert!(res.len() <= 10);
        }
    }

    #[test]
    fn filtered_recall_against_filtered_ground_truth() {
        let (ds, qs, g) = setup();
        let filter = |id: u32| id.is_multiple_of(2);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            // Filtered exact ground truth: scan, keep passing ids.
            let truth: Vec<u32> = knn_scan(&ds, q, ds.len(), None)
                .into_iter()
                .filter(|n| filter(n.id))
                .take(10)
                .map(|n| n.id)
                .collect();
            scratch.next_epoch();
            let res = filtered_beam_search(
                &ds,
                &g,
                q,
                &[0, 250, 750],
                10,
                80,
                &filter,
                &mut scratch,
                &mut stats,
            );
            hits += res.iter().filter(|n| truth.contains(&n.id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.8, "filtered recall {recall}");
    }

    #[test]
    fn highly_selective_filter_still_returns_something() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let res = filtered_beam_search(
            &ds,
            &g,
            qs.point(0),
            &[0, 500],
            5,
            100,
            &|id| id < 20, // 2% selectivity
            &mut scratch,
            &mut stats,
        );
        // The traversal may not reach every passing vertex, but with a 100
        // beam over a 1000-point graph it must find some.
        assert!(!res.is_empty());
        assert!(res.iter().all(|n| n.id < 20));
    }
}
