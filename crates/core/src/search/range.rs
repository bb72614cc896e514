//! NGT's range search (C7): best-first with an unbounded candidate queue
//! and an ε-inflated acceptance radius.
//!
//! Per §4.2: the candidate set's size restriction is cancelled; with `r`
//! the distance of the current worst result, a neighbor `n` enters the
//! queue iff `δ(n, q) < (1 + ε) · r`. Larger ε escapes local optima at the
//! cost of more distance computations — the "precision ceiling" behaviour
//! the component evaluation observes for `C7_NGT` (Figure 10f).

use super::scratch::{score_unvisited, SearchScratch};
use super::SearchStats;
use crate::telemetry::{NoopTracer, RouteTracer};
use std::cmp::Reverse;
use weavess_data::neighbor::insert_into_pool;
use weavess_data::prefetch::prefetch_enabled;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Range search from `seeds`; returns up to `beam` nearest results.
///
/// Expansion is batch-scored (every visited neighbor's distance was always
/// computed before the radius test, so batching changes neither NDC nor
/// results); the ε-inflated acceptance test still runs per neighbor, in
/// adjacency order, against the live radius.
#[allow(clippy::too_many_arguments)]
pub fn range_search(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    epsilon: f32,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    range_search_traced(
        ds,
        g,
        query,
        seeds,
        beam,
        epsilon,
        scratch,
        stats,
        &mut NoopTracer,
    )
}

/// [`range_search`] with a [`RouteTracer`]. The reported pool occupancy is
/// the unbounded candidate queue's length at expansion time, and
/// `pool_peak` tracks the queue's high-water mark.
#[allow(clippy::too_many_arguments)]
pub fn range_search_traced<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    epsilon: f32,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    tracer: &mut T,
) -> Vec<Neighbor> {
    let beam = beam.max(1);
    let pf = prefetch_enabled();
    let inflate = (1.0 + epsilon.max(0.0)).powi(2); // squared-distance space
    let SearchScratch {
        visited,
        results,
        heap: queue,
        batch_ids: ids,
        batch_dists: dists,
        ..
    } = scratch;
    results.clear();
    queue.clear();
    for &s in seeds {
        if visited.visit(s) {
            stats.ndc += 1;
            let d = ds.dist_to(query, s);
            tracer.on_seed(s, d);
            let n = Neighbor::new(s, d);
            insert_into_pool(results, beam, n);
            queue.push(Reverse(n));
        }
    }
    stats.pool_peak = stats.pool_peak.max(queue.len() as u64);
    while let Some(Reverse(c)) = queue.pop() {
        let radius = if results.len() == beam {
            results.last().map_or(f32::INFINITY, |w| w.dist)
        } else {
            f32::INFINITY
        };
        if c.dist > inflate * radius {
            break; // nothing left within the inflated radius
        }
        stats.hops += 1;
        tracer.on_hop(c.id, c.dist, stats.ndc, queue.len());
        if pf {
            if let Some(Reverse(next)) = queue.peek() {
                g.prefetch_neighbors(next.id);
            }
        }
        score_unvisited(ds, g, query, c.id, pf, visited, ids, dists, stats);
        for (&u, &d) in ids.iter().zip(dists.iter()) {
            let radius = if results.len() == beam {
                results.last().map_or(f32::INFINITY, |w| w.dist)
            } else {
                f32::INFINITY
            };
            if d < inflate * radius {
                let n = Neighbor::new(u, d);
                queue.push(Reverse(n));
                insert_into_pool(results, beam, n);
            }
        }
        stats.pool_peak = stats.pool_peak.max(queue.len() as u64);
    }
    results.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let res = range_search(&ds, &g, q, &seeds, 10, eps, &mut scratch, &mut stats);
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
        let res = range_search(
            &ds,
            &g,
            qs.point(0),
            &[0, 3],
            7,
            0.2,
            &mut scratch,
            &mut stats,
        );
        assert!(res.len() <= 7);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
