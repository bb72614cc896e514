//! Property tests for the graph substrate.

use proptest::prelude::*;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::adjacency::GraphView;
use weavess_graph::base::{exact_knng, exact_rng, mst_kruskal, mst_prim, total_weight};
use weavess_graph::connectivity::{reachable_from, weak_components};
use weavess_graph::metrics::{degree_stats, graph_quality};
use weavess_graph::{CsrGraph, SlotGraph, UnionFind};

fn dataset(points: &[(f32, f32)]) -> Dataset {
    Dataset::from_rows(&points.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>())
}

proptest! {
    /// Prim and Kruskal agree on total MST weight, and the tree spans.
    #[test]
    fn mst_prim_equals_kruskal(
        points in prop::collection::hash_set((0i32..60, 0i32..60), 2..24),
    ) {
        let points: Vec<(f32, f32)> = points.iter().map(|&(x, y)| (x as f32, y as f32)).collect();
        let ds = dataset(&points);
        let ids: Vec<u32> = (0..ds.len() as u32).collect();
        let p = mst_prim(&ds, &ids);
        let k = mst_kruskal(&ds, &ids);
        prop_assert_eq!(p.len(), ds.len() - 1);
        prop_assert!((total_weight(&p) - total_weight(&k)).abs() < 1e-3);
        let mut uf = UnionFind::new(ds.len());
        for e in &p {
            uf.union(e.a, e.b);
        }
        prop_assert_eq!(uf.components(), 1);
    }

    /// The exact RNG is a subgraph of the complete graph with symmetric
    /// edges, and contains the MST (a classic proximity-graph inclusion).
    #[test]
    fn rng_contains_mst(
        points in prop::collection::hash_set((0i32..40, 0i32..40), 3..16),
    ) {
        let points: Vec<(f32, f32)> = points.iter().map(|&(x, y)| (x as f32, y as f32)).collect();
        let ds = dataset(&points);
        let rng_graph = exact_rng(&ds);
        // Symmetry.
        for v in 0..ds.len() as u32 {
            for &u in rng_graph.neighbors(v) {
                prop_assert!(rng_graph.neighbors(u).contains(&v));
            }
        }
        // MST ⊆ RNG (holds when all pairwise distances are distinct;
        // integer grid points may tie, so tolerate rare violations by
        // checking only strictly-unique-weight edges).
        let ids: Vec<u32> = (0..ds.len() as u32).collect();
        let mst = mst_prim(&ds, &ids);
        for e in &mst {
            let unique = (0..ds.len() as u32)
                .flat_map(|a| (0..ds.len() as u32).map(move |b| (a, b)))
                .filter(|&(a, b)| a < b && (a, b) != (e.a, e.b))
                .all(|(a, b)| (ds.dist(a, b) - e.w).abs() > 1e-6);
            if unique {
                prop_assert!(
                    rng_graph.neighbors(e.a).contains(&e.b),
                    "MST edge ({}, {}) missing from RNG",
                    e.a,
                    e.b
                );
            }
        }
    }

    /// CSR round-trips arbitrary adjacency lists and reports consistent
    /// degree statistics.
    #[test]
    fn csr_roundtrip_and_degrees(
        lists in prop::collection::vec(prop::collection::vec(0u32..20, 0..8), 1..20),
        dist in 0.0f32..10.0,
    ) {
        // Clamp ids into range.
        let n = lists.len() as u32;
        let lists: Vec<Vec<u32>> = lists
            .iter()
            .map(|l| l.iter().map(|&x| x % n).collect())
            .collect();
        let csr = CsrGraph::from_lists(&lists);
        prop_assert_eq!(csr.to_lists(), lists.clone());
        // Freezing `Neighbor` lists keeps exactly the ids, in list order.
        let neighbor_lists: Vec<Vec<Neighbor>> = lists
            .iter()
            .map(|l| l.iter().map(|&x| Neighbor::new(x, dist)).collect())
            .collect();
        prop_assert_eq!(&CsrGraph::from_neighbor_lists(&neighbor_lists), &csr);
        let stats = degree_stats(&csr);
        let total: usize = lists.iter().map(|l| l.len()).sum();
        prop_assert!((stats.avg - total as f64 / n as f64).abs() < 1e-9);
        prop_assert_eq!(stats.max, lists.iter().map(|l| l.len()).max().unwrap());
        prop_assert_eq!(stats.min, lists.iter().map(|l| l.len()).min().unwrap());
    }

    /// The fixed-stride block graph behaves as the `Vec<Vec<u32>>` it
    /// replaces under any resize/push/set/clear sequence, and a push past
    /// the over-full slot panics naming the vertex instead of truncating.
    #[test]
    fn slot_graph_matches_nested_lists(
        cap in 0usize..5,
        ops in prop::collection::vec(
            (0u8..4, 0u32..12, prop::collection::vec(0u32..40, 0..8)),
            1..60,
        ),
    ) {
        let mut g = SlotGraph::new(cap);
        let mut model: Vec<Vec<u32>> = Vec::new();
        for (kind, v, ids) in ops {
            if kind == 0 {
                g.resize(v as usize);
                model.resize(v as usize, Vec::new());
            } else if !model.is_empty() {
                let v = v % model.len() as u32;
                let list = &mut model[v as usize];
                match kind {
                    1 if list.len() == cap + 1 => {
                        let full = std::panic::catch_unwind(
                            std::panic::AssertUnwindSafe(|| g.push(v, 7)),
                        );
                        let msg = full.expect_err("push past cap + 1 must panic");
                        let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
                        prop_assert!(msg.contains(&format!("vertex {v} ")), "{msg}");
                    }
                    1 => {
                        g.push(v, ids.len() as u32);
                        list.push(ids.len() as u32);
                    }
                    2 => {
                        *list = ids[..ids.len().min(cap + 1)].to_vec();
                        g.set(v, list.iter().copied());
                    }
                    _ => {
                        g.clear(v);
                        list.clear();
                    }
                }
            }
            prop_assert_eq!(g.len(), model.len());
            prop_assert_eq!(g.is_empty(), model.is_empty());
            for (v, list) in model.iter().enumerate() {
                prop_assert_eq!(g.neighbors(v as u32), list.as_slice());
                prop_assert_eq!(GraphView::neighbors(&g, v as u32), list.as_slice());
            }
        }
    }

    /// Adding edges never increases the number of weak components, and
    /// reachability never shrinks.
    #[test]
    fn edges_monotonically_connect(
        n in 2usize..16,
        edges in prop::collection::vec((0u32..16, 0u32..16), 1..30),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut prev_cc = n;
        let mut prev_reach = 1usize;
        for &(a, b) in &edges {
            lists[a as usize].push(b);
            let csr = CsrGraph::from_lists(&lists);
            let cc = weak_components(&csr);
            prop_assert!(cc <= prev_cc);
            prev_cc = cc;
            let reach = reachable_from(&csr, 0).iter().filter(|&&r| r).count();
            prop_assert!(reach >= prev_reach);
            prev_reach = reach;
        }
    }

    /// Graph quality of the exact KNNG against itself is 1; dropping any
    /// edges can only lower it.
    #[test]
    fn graph_quality_extremes(
        points in prop::collection::hash_set((0i32..50, 0i32..50), 6..20),
        k in 1usize..4,
    ) {
        let points: Vec<(f32, f32)> = points.iter().map(|&(x, y)| (x as f32, y as f32)).collect();
        let ds = dataset(&points);
        let k = k.min(ds.len() - 1);
        let exact = weavess_data::ground_truth::exact_knn_graph(&ds, k, 1);
        let full = exact_knng(&ds, k, 1);
        prop_assert!((graph_quality(&full, &exact) - 1.0).abs() < 1e-12);
        // Drop every vertex's last edge.
        let dropped: Vec<Vec<u32>> = exact
            .iter()
            .map(|l| l[..l.len().saturating_sub(1)].to_vec())
            .collect();
        let dropped_csr = CsrGraph::from_lists(&dropped);
        prop_assert!(graph_quality(&dropped_csr, &exact) < 1.0);
    }

    /// Union-find: components = n - (successful unions).
    #[test]
    fn unionfind_counts(
        n in 1usize..32,
        pairs in prop::collection::vec((0u32..32, 0u32..32), 0..64),
    ) {
        let mut uf = UnionFind::new(n);
        let mut merges = 0usize;
        for &(a, b) in &pairs {
            if uf.union(a % n as u32, b % n as u32) {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.components(), n - merges);
    }
}
