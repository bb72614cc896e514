//! FANNG's backtracking search (C7).
//!
//! §4.2 / §3.2 (A3): best-first search is susceptible to local optima;
//! FANNG "uses backtrack to the second-closest vertex and considers its
//! edges that have not been explored yet". We run best-first to
//! convergence, then spend up to `extra` additional expansions on the
//! nearest candidates the bounded pool turned away — slightly better
//! accuracy for notably more search time, the trade-off Figure 10(f)
//! reports for `C7_FANNG`.
//!
//! Which candidates are kept for backtracking: exactly those the pool
//! **rejected on arrival** (no nearer than the worst entry of a full
//! pool, or already present). An entry that was admitted and later
//! **evicted** by nearer arrivals is dropped, not reserved.

use super::core::Frontier;
use super::scratch::Stores;
use std::cmp::Reverse;
use weavess_data::Neighbor;

/// Best-first to convergence, then one backtrack hop into the nearest
/// reserved candidate (the heap) while budget remains; a hop that puts new
/// candidates into the pool restarts best-first on them. Reserve hops
/// count in `hops` and are traced like any other expansion.
pub(crate) struct Backtracking {
    /// Backtrack hops left.
    pub budget: usize,
}

impl Frontier for Backtracking {
    #[inline]
    fn offer(&mut self, s: &mut Stores, n: Neighbor) {
        if s.pool.insert(n).is_none() {
            s.heap.push(Reverse(n));
        }
    }

    #[inline]
    fn next(&mut self, s: &mut Stores) -> Option<Neighbor> {
        s.pool.next_unexpanded().or_else(|| {
            if self.budget == 0 {
                return None;
            }
            self.budget -= 1;
            s.heap.pop().map(|Reverse(c)| c)
        })
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
        let (base, queries) = MixtureSpec::table10(8, 400, 4, 3.0, 25).generate();
        // A sparse graph (K=4) makes local optima likely, giving
        // backtracking something to fix.
        let g = exact_knng(&base, 4, 4);
        (base, queries, g)
    }

    fn run(extra: usize) -> (usize, u64) {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let seeds = [0u32, 97, 211];
        let mut hits = 0usize;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let res = Router::Backtrack { extra }.search(
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
        (hits, stats.ndc)
    }

    /// Pins which candidates backtracking reserves, on a hand-built case.
    /// Query at 0, beam 2; vertex `i` sits at `xs[i]` on a line. Expanding
    /// the seed offers b, a, c, e in that order: b is admitted and then
    /// evicted (unexpanded) when c arrives, e is rejected outright.
    #[test]
    fn rejected_candidates_are_reserved_and_evicted_ones_dropped() {
        use crate::telemetry::{RecordingTracer, RouteEvent};
        let (seed, a, b, c, e, f) = (0u32, 1, 2, 3, 4, 5);
        let xs = [10.0f32, 5.0, 8.0, 3.0, 9.0, 20.0];
        let ds = Dataset::from_rows(&xs.iter().map(|&x| vec![x]).collect::<Vec<_>>());
        let g = CsrGraph::from_lists(&[
            vec![b, a, c, e],
            vec![seed],
            vec![f],
            vec![seed],
            vec![f],
            vec![],
        ]);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let mut tracer = RecordingTracer::default();
        scratch.next_epoch();
        let res = Router::Backtrack { extra: 8 }.search_traced(
            &ds,
            &g,
            &[0.0],
            &[seed],
            2,
            &mut scratch,
            &mut stats,
            &mut tracer,
        );
        let hops: Vec<u32> = tracer
            .events
            .iter()
            .filter_map(|ev| match *ev {
                RouteEvent::Hop { vertex, .. } => Some(vertex),
                RouteEvent::Seed { .. } => None,
            })
            .collect();
        // Best-first converges after seed, c, a; the first backtrack hop is
        // the rejected e, which reaches f. The evicted b is never expanded
        // although budget (8) outlasts the reserve.
        assert_eq!(hops, [seed, c, a, e, f]);
        assert_eq!(res.iter().map(|n| n.id).collect::<Vec<_>>(), [c, a]);
        assert_eq!(stats.hops, 5);
    }

    #[test]
    fn zero_extra_matches_best_first() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let seeds = [0u32, 97];
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let a = Router::Backtrack { extra: 0 }.search(
                &ds,
                &g,
                q,
                &seeds,
                12,
                &mut scratch,
                &mut s1,
            );
            scratch.next_epoch();
            let b = beam_search(&ds, &g, q, &seeds, 12, &mut scratch, &mut s2);
            assert_eq!(a, b, "query {qi}");
        }
        assert_eq!(s1.ndc, s2.ndc);
        assert_eq!(s1.pool_peak, s2.pool_peak);
    }

    #[test]
    fn backtracking_spends_more_and_recalls_no_less() {
        let (hits0, ndc0) = run(0);
        let (hits16, ndc16) = run(16);
        assert!(ndc16 > ndc0);
        assert!(hits16 >= hits0, "{hits16} < {hits0}");
    }
}
