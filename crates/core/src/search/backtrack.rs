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

use super::scratch::{score_unvisited, SearchScratch};
use super::SearchStats;
use crate::telemetry::{NoopTracer, RouteTracer};
use std::cmp::Reverse;
use weavess_data::prefetch::prefetch_enabled;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Backtracking best-first search from `seeds`. Expansion is batch-scored
/// like [`super::beam_search`]; insertions stay in adjacency order, so
/// results match per-neighbor scoring exactly.
#[allow(clippy::too_many_arguments)]
pub fn backtrack_search(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    extra: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    backtrack_search_traced(
        ds,
        g,
        query,
        seeds,
        beam,
        extra,
        scratch,
        stats,
        &mut NoopTracer,
    )
}

/// [`backtrack_search`] with a [`RouteTracer`]. Both best-first and
/// backtrack expansions are reported as hops, in expansion order.
#[allow(clippy::too_many_arguments)]
pub fn backtrack_search_traced<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    extra: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    tracer: &mut T,
) -> Vec<Neighbor> {
    let pf = prefetch_enabled();
    let SearchScratch {
        visited,
        pool,
        heap: overflow,
        batch_ids: ids,
        batch_dists: dists,
        ..
    } = scratch;
    pool.reset(beam.max(1));
    overflow.clear();
    for &s in seeds {
        if visited.visit(s) {
            stats.ndc += 1;
            let d = ds.dist_to(query, s);
            tracer.on_seed(s, d);
            let n = Neighbor::new(s, d);
            if pool.insert(n).is_none() {
                overflow.push(Reverse(n));
            }
        }
    }
    stats.pool_peak = stats.pool_peak.max(pool.len() as u64);

    let mut budget = extra;
    loop {
        // Best-first to convergence, then one backtrack hop into the
        // nearest rejected candidate while budget remains. A hop that puts
        // new candidates into the pool restarts best-first on them.
        let c = match pool.next_unexpanded() {
            Some(c) => c,
            None => {
                if budget == 0 {
                    break;
                }
                let Some(Reverse(c)) = overflow.pop() else {
                    break;
                };
                budget -= 1;
                c
            }
        };
        stats.hops += 1;
        tracer.on_hop(c.id, c.dist, stats.ndc, pool.len());
        if pf {
            if let Some(next) = pool.peek() {
                g.prefetch_neighbors(next);
            }
        }
        score_unvisited(ds, g, query, c.id, pf, visited, ids, dists, stats);
        for (&u, &d) in ids.iter().zip(dists.iter()) {
            let n = Neighbor::new(u, d);
            if pool.insert(n).is_none() {
                overflow.push(Reverse(n));
            }
        }
        stats.pool_peak = stats.pool_peak.max(pool.len() as u64);
    }
    pool.to_vec()
}

#[cfg(test)]
mod tests {
    use super::super::beam_search;
    use super::*;
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
            let res = backtrack_search(&ds, &g, q, &seeds, 10, extra, &mut scratch, &mut stats);
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
        let res = backtrack_search_traced(
            &ds,
            &g,
            &[0.0],
            &[seed],
            2,
            8,
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
            let a = backtrack_search(&ds, &g, q, &seeds, 12, 0, &mut scratch, &mut s1);
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
