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

use super::scratch::SearchScratch;
use super::SearchStats;
use crate::telemetry::{NoopTracer, RouteTracer};
use weavess_data::prefetch::prefetch_enabled;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Guided best-first search from `seeds`.
///
/// Requires a [`VectorView`] with raw coordinates ([`VectorView::vector`])
/// for the direction gate — SQ8-only storage cannot run guided search.
pub fn guided_search(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    guided_search_traced(ds, g, query, seeds, beam, scratch, stats, &mut NoopTracer)
}

/// [`guided_search`] with a [`RouteTracer`]. Gated-out neighbors are
/// invisible to the tracer (they are never scored); only scored seeds and
/// expanded vertices are reported.
#[allow(clippy::too_many_arguments)]
pub fn guided_search_traced<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    tracer: &mut T,
) -> Vec<Neighbor> {
    let pf = prefetch_enabled();
    let SearchScratch {
        visited,
        pool,
        batch_ids: ids,
        batch_dists: dists,
        ..
    } = scratch;
    pool.reset(beam.max(1));
    for &s in seeds {
        if visited.visit(s) {
            stats.ndc += 1;
            let d = ds.dist_to(query, s);
            tracer.on_seed(s, d);
            pool.insert(Neighbor::new(s, d));
        }
    }
    stats.pool_peak = stats.pool_peak.max(pool.len() as u64);
    while let Some(c) = pool.next_unexpanded() {
        stats.hops += 1;
        tracer.on_hop(c.id, c.dist, stats.ndc, pool.len());
        if pf {
            if let Some(next) = pool.peek() {
                g.prefetch_neighbors(next);
            }
        }
        let x = ds.vector(c.id);
        // Dominant query direction at x: one O(dim) scan per expansion.
        let mut dstar = 0usize;
        let mut best = 0.0f32;
        for (d, (&qd, &xd)) in query.iter().zip(x).enumerate() {
            let a = (qd - xd).abs();
            if a > best {
                best = a;
                dstar = d;
            }
        }
        let want_positive = query[dstar] >= x[dstar];
        // Stage the neighbors that survive the direction gate, then score
        // them in one batched pass (order preserved, so results are
        // identical to per-neighbor scoring).
        ids.clear();
        for &u in g.neighbors(c.id) {
            if visited.is_visited(u) {
                continue;
            }
            let nu = ds.vector(u);
            let goes_positive = nu[dstar] >= x[dstar];
            if goes_positive != want_positive {
                continue; // gated out: moves away from the query
            }
            visited.visit(u);
            ids.push(u);
        }
        stats.ndc += ids.len() as u64;
        ds.dist_to_many(query, ids, dists);
        for (&u, &d) in ids.iter().zip(dists.iter()) {
            pool.insert(Neighbor::new(u, d));
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
            guided_search(&ds, &g, q, &seeds, 20, &mut scratch, &mut s_guided);
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
            let res = guided_search(&ds, &g, q, &seeds, 30, &mut scratch, &mut stats);
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
        let res = guided_search(&ds, &g, qs.point(0), &[0, 9], 12, &mut scratch, &mut stats);
        assert!(res.len() <= 12);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
