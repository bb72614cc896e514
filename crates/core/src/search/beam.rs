//! Best-first search — the paper's Algorithm 1 (Appendix F), C7's
//! dominant implementation.

use super::scratch::{score_unvisited, SearchScratch};
use super::SearchStats;
use crate::telemetry::{NoopTracer, RouteTracer};
use weavess_data::prefetch::prefetch_enabled;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Best-first (beam) search from `seeds`, returning up to `beam` nearest
/// candidates nearest-first.
///
/// ```
/// use weavess_core::search::{beam_search, SearchScratch, SearchStats};
/// use weavess_data::Dataset;
/// use weavess_graph::CsrGraph;
///
/// // Three points on a line, chained 0 -> 1 -> 2.
/// let ds = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
/// let g = CsrGraph::from_lists(&[vec![1u32], vec![0, 2], vec![1]]);
/// let mut scratch = SearchScratch::new(3);
/// let mut stats = SearchStats::default();
/// scratch.next_epoch();
/// let res = beam_search(&ds, &g, &[1.9], &[0], 3, &mut scratch, &mut stats);
/// assert_eq!(res[0].id, 2);
/// assert!(stats.ndc >= 3);
/// ```
///
/// The pool is a fixed-capacity sorted array; each iteration expands the
/// nearest unexpanded candidate and inserts its neighbors, exactly the
/// candidate-set discipline of Definition 4.7. Terminates when every pool
/// entry is expanded (the result set can no longer improve).
///
/// Expansion is batch-scored: all not-yet-visited neighbors of the
/// expanded vertex are staged and scored with one
/// [`VectorView::dist_to_many`] call, then inserted in the original
/// adjacency order — visit order, distances, and hence results are
/// bit-identical to scoring one neighbor at a time.
///
/// `ds` is any [`VectorView`]: the raw [`weavess_data::Dataset`], an SQ8
/// code table, or a fused node arena. While vertex `k` is expanded the
/// next pool candidate's node block and each staged neighbor's vector are
/// prefetched — pure hints, so results are identical with prefetch on or
/// off.
pub fn beam_search(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    beam_search_traced(ds, g, query, seeds, beam, scratch, stats, &mut NoopTracer)
}

/// [`beam_search`] with a [`RouteTracer`] observing seeds and expansions.
/// The tracer is monomorphized; with [`NoopTracer`] every hook inlines to
/// nothing and this is exactly [`beam_search`].
#[allow(clippy::too_many_arguments)]
pub fn beam_search_traced<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    tracer: &mut T,
) -> Vec<Neighbor> {
    scratch.pool.reset(beam.max(1));
    for &s in seeds {
        if scratch.visited.visit(s) {
            stats.ndc += 1;
            let d = ds.dist_to(query, s);
            tracer.on_seed(s, d);
            scratch.pool.insert(Neighbor::new(s, d));
        }
    }
    best_first(ds, g, query, scratch, stats, tracer)
}

/// Algorithm 1's loop over an already-seeded `scratch.pool`: expand the
/// nearest unexpanded candidate, offer its unvisited neighbors to the
/// pool, stop when every entry is expanded.
fn best_first<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
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
    stats.pool_peak = stats.pool_peak.max(pool.len() as u64);
    while let Some(c) = pool.next_unexpanded() {
        stats.hops += 1;
        tracer.on_hop(c.id, c.dist, stats.ndc, pool.len());
        if pf {
            if let Some(next) = pool.peek() {
                g.prefetch_neighbors(next);
            }
        }
        score_unvisited(ds, g, query, c.id, pf, visited, ids, dists, stats);
        for (&u, &d) in ids.iter().zip(dists.iter()) {
            pool.insert(Neighbor::new(u, d));
        }
        stats.pool_peak = stats.pool_peak.max(pool.len() as u64);
    }
    pool.to_vec()
}

/// Best-first continuation from an already-scored pool: entries enter the
/// pool *without* re-computing distances or touching the visited set (they
/// must already be marked visited this epoch). The two-stage router uses
/// this so stage 2 pays only for vertices stage 1 never scored.
pub fn beam_search_seeded(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    scored: &[Neighbor],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    beam_search_seeded_traced(ds, g, query, scored, beam, scratch, stats, &mut NoopTracer)
}

/// [`beam_search_seeded`] with a [`RouteTracer`]. Pre-scored entries were
/// already reported by the stage that scored them, so only expansions are
/// traced here.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_seeded_traced<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    scored: &[Neighbor],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    tracer: &mut T,
) -> Vec<Neighbor> {
    scratch.pool.reset(beam.max(1));
    for &n in scored {
        debug_assert!(scratch.visited.is_visited(n.id));
        scratch.pool.insert(n);
    }
    best_first(ds, g, query, scratch, stats, tracer)
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
        let (base, queries) = MixtureSpec::table10(8, 500, 4, 3.0, 25).generate();
        let g = exact_knng(&base, 10, 4);
        (base, queries, g)
    }

    #[test]
    fn finds_true_nearest_on_exact_knng() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let mut ok = 0usize;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            // Seed from several spread points to escape disconnected KNNG parts.
            let seeds: Vec<u32> = (0..8u32).map(|i| i * 61 % ds.len() as u32).collect();
            let res = beam_search(&ds, &g, q, &seeds, 40, &mut scratch, &mut stats);
            let truth = knn_scan(&ds, q, 1, None)[0].id;
            if res.first().map(|n| n.id) == Some(truth) {
                ok += 1;
            }
        }
        assert!(ok as f64 / qs.len() as f64 > 0.85, "ok={ok}/{}", qs.len());
        assert!(stats.ndc > 0 && stats.hops > 0);
        assert!(stats.pool_peak > 0 && stats.pool_peak <= 40);
    }

    #[test]
    fn result_is_sorted_and_bounded() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let res = beam_search(&ds, &g, qs.point(0), &[0, 5], 16, &mut scratch, &mut stats);
        assert!(res.len() <= 16);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert_eq!(stats.pool_peak, res.len() as u64);
    }

    #[test]
    fn ndc_counts_each_vertex_once() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        beam_search(&ds, &g, qs.point(0), &[0], 64, &mut scratch, &mut stats);
        assert!(stats.ndc <= ds.len() as u64);
    }

    #[test]
    fn empty_seeds_give_empty_result() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let res = beam_search(&ds, &g, qs.point(0), &[], 8, &mut scratch, &mut stats);
        assert!(res.is_empty());
        assert_eq!(stats.ndc, 0);
        assert_eq!(stats.pool_peak, 0);
    }

    /// Regression: an insertion at exactly the resume index must re-enter
    /// the loop there. On a 1-d path graph the first expansion inserts the
    /// next-left vertex at position 0 while expanding position 0 — with a
    /// strict `<` resume check the search would only ever walk right.
    #[test]
    fn walks_both_directions_on_a_path_graph() {
        let ds = Dataset::from_rows(&(0..100).map(|i| vec![i as f32]).collect::<Vec<_>>());
        // Path graph: i <-> i+1.
        let lists: Vec<Vec<u32>> = (0..100u32)
            .map(|i| {
                let mut l = Vec::new();
                if i > 0 {
                    l.push(i - 1);
                }
                if i < 99 {
                    l.push(i + 1);
                }
                l
            })
            .collect();
        let g = CsrGraph::from_lists(&lists);
        let mut scratch = SearchScratch::new(100);
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        // Query left of the seed: the search must walk 49 -> 42.
        let res = beam_search(&ds, &g, &[42.4], &[49], 20, &mut scratch, &mut stats);
        assert_eq!(res[0].id, 42, "failed to walk left: {:?}", &res[..3]);
    }

    #[test]
    fn larger_beam_never_reduces_accuracy() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let seeds: Vec<u32> = (0..4u32).collect();
        let mut hits_small = 0;
        let mut hits_large = 0;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            let truth: Vec<u32> = knn_scan(&ds, q, 10, None).iter().map(|n| n.id).collect();
            let mut s = SearchStats::default();
            scratch.next_epoch();
            let small = beam_search(&ds, &g, q, &seeds, 10, &mut scratch, &mut s);
            scratch.next_epoch();
            let large = beam_search(&ds, &g, q, &seeds, 80, &mut scratch, &mut s);
            hits_small += small
                .iter()
                .take(10)
                .filter(|n| truth.contains(&n.id))
                .count();
            hits_large += large
                .iter()
                .take(10)
                .filter(|n| truth.contains(&n.id))
                .count();
        }
        assert!(hits_large >= hits_small, "{hits_large} < {hits_small}");
    }

    /// The recording tracer must observe exactly `hops` expansions and one
    /// seed event per scored seed, without changing results or stats.
    #[test]
    fn recording_tracer_observes_the_route_without_changing_it() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut plain = SearchStats::default();
        scratch.next_epoch();
        let a = beam_search(&ds, &g, qs.point(0), &[0, 5], 16, &mut scratch, &mut plain);
        let mut traced = SearchStats::default();
        let mut tracer = crate::telemetry::RecordingTracer::default();
        scratch.next_epoch();
        let b = beam_search_traced(
            &ds,
            &g,
            qs.point(0),
            &[0, 5],
            16,
            &mut scratch,
            &mut traced,
            &mut tracer,
        );
        assert_eq!(a, b);
        assert_eq!(plain, traced);
        assert_eq!(u64::from(tracer.hops()), traced.hops);
        assert!(tracer.replay_check(&ds, qs.point(0)));
    }
}
