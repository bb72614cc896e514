//! Property tests for the search core.

use proptest::prelude::*;
use weavess_core::search::{
    beam_search, filtered_beam_search, Router, SearchScratch, SearchStats, VisitedPool,
};
use weavess_data::ground_truth::knn_scan;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::Dataset;
use weavess_graph::base::exact_knng;
use weavess_graph::CsrGraph;

fn setup(seed: u64, n: usize) -> (Dataset, Dataset, CsrGraph) {
    let spec = MixtureSpec::table10(8, n, 2, 5.0, 4).with_seed(seed);
    let (base, queries) = spec.generate();
    let g = exact_knng(&base, 8, 1);
    (base, queries, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every router returns a sorted, duplicate-free, beam-bounded result
    /// whose head is at least as close as any other returned vertex.
    #[test]
    fn routers_return_wellformed_results(
        seed in 0u64..200,
        beam in 1usize..40,
    ) {
        let (ds, qs, g) = setup(seed, 300);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let seeds = [0u32, 150, 299];
        let q = qs.point(0);
        for router in [
            Router::BestFirst,
            Router::Range { epsilon: 0.1 },
            Router::Backtrack { extra: 4 },
            Router::Guided,
            Router::TwoStage { stage1_beam_frac: 0.5 },
        ] {
            scratch.next_epoch();
            let res = router.search(&ds, &g, q, &seeds, beam, &mut scratch, &mut stats);
            prop_assert!(res.len() <= beam, "{router:?}");
            prop_assert!(res.windows(2).all(|w| w[0] < w[1]), "{router:?} unsorted");
            for i in 0..res.len() {
                for j in (i + 1)..res.len() {
                    prop_assert!(res[i].id != res[j].id, "{router:?} dup id");
                }
            }
            // Distances are true distances to the query.
            for r in &res {
                prop_assert!((r.dist - ds.dist_to(q, r.id)).abs() < 1e-3);
            }
        }
    }

    /// Best-first search at beam >= n degenerates to an exhaustive scan of
    /// the seed-reachable component: it finds the exact nearest neighbor
    /// among reached vertices.
    #[test]
    fn saturated_beam_is_exact_on_reachable(seed in 0u64..100) {
        let (ds, qs, g) = setup(seed, 200);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let q = qs.point(0);
        scratch.next_epoch();
        let res = beam_search(&ds, &g, q, &[0], ds.len(), &mut scratch, &mut stats);
        // Every returned vertex was reached; the best of them must be the
        // true minimum over the visited set.
        let best_visited = res
            .iter()
            .map(|n| n.dist)
            .fold(f32::INFINITY, f32::min);
        for r in &res {
            prop_assert!(r.dist >= best_visited);
        }
        prop_assert_eq!(res[0].dist, best_visited);
    }

    /// A visited pool never reports a fresh vertex as visited across
    /// epochs, and always reports repeats within one epoch.
    #[test]
    fn visited_pool_laws(ops in prop::collection::vec((0u32..64, prop::bool::ANY), 1..200)) {
        let mut pool = VisitedPool::new(64);
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for &(v, new_epoch) in &ops {
            if new_epoch {
                pool.next_epoch();
                seen.clear();
            }
            let fresh = pool.visit(v);
            prop_assert_eq!(fresh, seen.insert(v));
            prop_assert!(pool.is_visited(v));
        }
    }

    /// Filtered search with predicate P returns exactly vertices of P, and
    /// its results are never better than unfiltered top-k (distance-wise
    /// the filtered k-th is >= the unfiltered k-th).
    #[test]
    fn filtered_search_is_sound(seed in 0u64..100, modulo in 2u32..5) {
        let (ds, qs, g) = setup(seed, 300);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let q = qs.point(0);
        let filter = move |id: u32| id.is_multiple_of(modulo);
        scratch.next_epoch();
        let filtered =
            filtered_beam_search(&ds, &g, q, &[0, 150], 5, 40, &filter, &mut scratch, &mut stats);
        prop_assert!(filtered.iter().all(|n| filter(n.id)));
        scratch.next_epoch();
        let plain = beam_search(&ds, &g, q, &[0, 150], 40, &mut scratch, &mut stats);
        if let (Some(fh), Some(ph)) = (filtered.first(), plain.first()) {
            prop_assert!(fh.dist >= ph.dist - 1e-6);
        }
    }

    /// Guided search's result set is a subset of what an exhaustive scan
    /// would allow and never spends more NDC than best-first.
    #[test]
    fn guided_never_spends_more(seed in 0u64..100) {
        let (ds, qs, g) = setup(seed, 300);
        let mut scratch = SearchScratch::new(ds.len());
        let seeds = [0u32, 100, 200];
        let q = qs.point(0);
        let mut s_guided = SearchStats::default();
        scratch.next_epoch();
        Router::Guided.search(&ds, &g, q, &seeds, 20, &mut scratch, &mut s_guided);
        let mut s_beam = SearchStats::default();
        scratch.next_epoch();
        beam_search(&ds, &g, q, &seeds, 20, &mut scratch, &mut s_beam);
        prop_assert!(s_guided.ndc <= s_beam.ndc);
    }

    /// Backtracking with zero budget is identical to best-first; range
    /// search with huge epsilon explores at least as much as best-first.
    #[test]
    fn router_degenerate_cases(seed in 0u64..100) {
        let (ds, qs, g) = setup(seed, 250);
        let mut scratch = SearchScratch::new(ds.len());
        let q = qs.point(0);
        let seeds = [0u32, 120];
        let mut s1 = SearchStats::default();
        scratch.next_epoch();
        let bt = Router::Backtrack { extra: 0 }.search(&ds, &g, q, &seeds, 16, &mut scratch, &mut s1);
        let mut s2 = SearchStats::default();
        scratch.next_epoch();
        let bf = beam_search(&ds, &g, q, &seeds, 16, &mut scratch, &mut s2);
        prop_assert_eq!(bt, bf);

        let mut s3 = SearchStats::default();
        scratch.next_epoch();
        Router::Range { epsilon: 10.0 }.search(&ds, &g, q, &seeds, 16, &mut scratch, &mut s3);
        prop_assert!(s3.ndc >= s2.ndc);
    }

    /// On a fully-connected graph (every vertex adjacent to every other),
    /// one expansion reaches the entire dataset, so beam search must
    /// return exactly the brute-force top-`beam` — sorted nearest-first
    /// and duplicate-free — from any seed.
    #[test]
    fn fully_connected_beam_search_is_brute_force(
        seed in 0u64..60,
        beam in 1usize..50,
        entry in 0u32..50,
    ) {
        let spec = MixtureSpec::table10(8, 50, 2, 5.0, 4).with_seed(seed);
        let (ds, qs) = spec.generate();
        let n = ds.len() as u32;
        let lists: Vec<Vec<u32>> = (0..n)
            .map(|v| (0..n).filter(|&u| u != v).collect())
            .collect();
        let g = CsrGraph::from_lists(&lists);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let res = beam_search(&ds, &g, q, &[entry], beam, &mut scratch, &mut stats);
            prop_assert_eq!(res.len(), beam.min(ds.len()));
            prop_assert!(res.windows(2).all(|w| w[0] < w[1]), "unsorted/dup");
            let truth = knn_scan(&ds, q, beam, None);
            prop_assert_eq!(&res, &truth, "query {}", qi);
        }
    }

    /// Crossing the epoch rollover never reports a stale visit as
    /// fresh or a fresh visit as stale: the pool keeps obeying the same
    /// set semantics as a per-epoch HashSet model right through the wrap.
    #[test]
    fn visited_pool_rollover_reports_no_stale_visits(
        remaining in 0u32..6,
        ops in prop::collection::vec((0u32..64, prop::bool::ANY), 1..300),
    ) {
        let mut pool = VisitedPool::new(64);
        pool.jump_near_rollover(remaining);
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for &(v, new_epoch) in &ops {
            if new_epoch {
                pool.next_epoch();
                seen.clear();
            }
            let fresh = pool.visit(v);
            prop_assert_eq!(fresh, seen.insert(v));
            prop_assert!(pool.is_visited(v));
        }
    }

    /// With an undirected connected graph and a beam the size of the
    /// dataset, best-first search degenerates to exhaustive traversal and
    /// must return exactly the brute-force nearest neighbor.
    #[test]
    fn exhaustive_beam_matches_brute_force_top1(seed in 0u64..60) {
        let spec = MixtureSpec::table10(8, 250, 1, 5.0, 4).with_seed(seed);
        let (ds, qs) = spec.generate();
        // Symmetrize the KNNG so reachability is undirected.
        let knng = exact_knng(&ds, 10, 1);
        let mut lists: Vec<Vec<u32>> = knng.to_lists();
        for v in 0..ds.len() as u32 {
            for u in knng.neighbors(v).to_vec() {
                if !lists[u as usize].contains(&v) {
                    lists[u as usize].push(v);
                }
            }
        }
        let g = CsrGraph::from_lists(&lists);
        prop_assume!(weavess_graph::connectivity::weak_components(&g) == 1);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let res = beam_search(&ds, &g, q, &[0], ds.len(), &mut scratch, &mut stats);
            let truth = knn_scan(&ds, q, 1, None)[0];
            prop_assert_eq!(res[0], truth, "query {}", qi);
        }
    }
}

/// The real wrap, without a fast-forward: 70 000 epochs cross the stamp
/// counter's range once, and at every epoch the pool agrees with a
/// per-epoch `HashSet` on every vertex — a stamp left from 65 535 epochs
/// back must not read as visited after the counter comes round.
#[test]
fn visited_pool_survives_a_real_wrap() {
    let mut pool = VisitedPool::new(64);
    let mut seen = std::collections::HashSet::new();
    let mut x = 0x2545_f491_u32;
    for epoch in 0..70_000u32 {
        pool.next_epoch();
        seen.clear();
        for v in 0..64 {
            assert!(!pool.is_visited(v), "epoch {epoch}: vertex {v} stale");
        }
        for _ in 0..3 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let v = x % 64;
            assert_eq!(pool.visit(v), seen.insert(v), "epoch {epoch}: vertex {v}");
            assert!(pool.is_visited(v));
        }
    }
}

/// Degenerate parameters, one table over all six routines: nothing
/// panics, and every answer is sorted by `(dist, id)`, duplicate-free,
/// within its bound (`beam`, or `k` for filtered; a bound of 0 is served
/// as 1) and costs at most one distance computation per vertex.
#[test]
fn degenerate_parameters_leave_every_routine_wellformed() {
    let (ds, qs, g) = setup(7, 120);
    let q = qs.point(0).to_vec();
    let nan_q: Vec<f32> = q.iter().map(|_| f32::NAN).collect();
    let one = Dataset::from_rows(std::slice::from_ref(&q));
    let lonely = CsrGraph::from_lists(&[vec![]]);
    // Vertex 0 has no out-edges; everything else keeps its KNNG list.
    let mut lists = g.to_lists();
    lists[0].clear();
    let cut = CsrGraph::from_lists(&lists);

    struct Case<'a> {
        name: &'a str,
        ds: &'a Dataset,
        g: &'a CsrGraph,
        q: &'a [f32],
        seeds: &'a [u32],
        beam: usize,
        k: usize,
    }
    let usual = Case {
        name: "",
        ds: &ds,
        g: &g,
        q: &q,
        seeds: &[0, 60],
        beam: 16,
        k: 5,
    };
    #[rustfmt::skip]
    let cases = [
        Case { name: "beam = 0", beam: 0, ..usual },
        Case { name: "k = 0", k: 0, ..usual },
        Case { name: "empty seeds", seeds: &[], ..usual },
        Case { name: "duplicate seeds", seeds: &[3, 3, 60, 3, 60], ..usual },
        Case { name: "single-vertex graph", ds: &one, g: &lonely, seeds: &[0], ..usual },
        Case { name: "isolated seed", g: &cut, seeds: &[0], ..usual },
        Case { name: "NaN query", q: &nan_q, ..usual },
    ];
    let routers = [
        Router::BestFirst,
        Router::Range { epsilon: 0.1 },
        Router::Backtrack { extra: 8 },
        Router::Guided,
        Router::TwoStage {
            stage1_beam_frac: 0.5,
        },
    ];
    for Case {
        name: case,
        ds,
        g,
        q,
        seeds,
        beam,
        k,
    } in cases
    {
        let mut scratch = SearchScratch::new(ds.len());
        let mut runs: Vec<(String, usize, Vec<_>, SearchStats)> = Vec::new();
        for router in &routers {
            let mut stats = SearchStats::default();
            scratch.next_epoch();
            let res = router.search(ds, g, q, seeds, beam, &mut scratch, &mut stats);
            runs.push((format!("{router:?}"), beam, res, stats));
        }
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let even = |id: u32| id.is_multiple_of(2);
        let res = filtered_beam_search(ds, g, q, seeds, k, beam, &even, &mut scratch, &mut stats);
        assert!(res.iter().all(|n| even(n.id)), "{case}: filtered");
        runs.push(("filtered".into(), k, res, stats));

        for (routine, bound, res, stats) in runs {
            let what = format!("{case}: {routine}");
            assert!(res.len() <= bound.max(1), "{what}: {} results", res.len());
            assert!(res.windows(2).all(|w| w[0] < w[1]), "{what}: unsorted");
            let mut ids: Vec<u32> = res.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), res.len(), "{what}: duplicate id");
            assert!(stats.ndc <= ds.len() as u64, "{what}: ndc {}", stats.ndc);
            if seeds.is_empty() {
                assert!(res.is_empty(), "{what}");
                assert_eq!(stats, SearchStats::default(), "{what}");
            }
        }
    }
}
