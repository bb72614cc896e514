//! Layout-equivalence suite: a BFS-reordered, fused-arena index is the
//! *same index* as the original split layout, renamed.
//!
//! For every one of the five search routines, running over the reordered
//! fused arena with permuted seeds must return exactly the permuted
//! neighbor set — same distances to the bit, same NDC and hops — as the
//! original CSR + matrix. The permutation must survive a persist
//! round-trip, and the prefetch toggle must never change a result.

use proptest::prelude::*;
use weavess_core::components::SeedStrategy;
use weavess_core::index::{AnnIndex, FlatIndex, SearchContext};
use weavess_core::persist::{load_layout_index, save_layout_index};
use weavess_core::search::{beam_search, filtered_beam_search, Router, SearchScratch, SearchStats};
use weavess_core::{LayoutIndex, NodeLayout};
use weavess_data::prefetch::set_prefetch_enabled;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::base::exact_knng;
use weavess_graph::reorder::{bfs_order, Permutation};
use weavess_graph::{CsrGraph, FusedArena};

fn setup(seed: u64, n: usize) -> (Dataset, Dataset, CsrGraph) {
    let spec = MixtureSpec::table10(12, n, 3, 5.0, 4).with_seed(seed);
    let (base, queries) = spec.generate();
    let g = exact_knng(&base, 8, 1);
    (base, queries, g)
}

/// Reorder + fuse: the alternative physical hosting of (ds, g).
fn reorder_and_fuse(ds: &Dataset, g: &CsrGraph) -> (Permutation, CsrGraph, Dataset, FusedArena) {
    let perm = bfs_order(g, ds.medoid());
    let rg = perm.apply_to_graph(g);
    let rds = perm.apply_to_dataset(ds);
    let arena = FusedArena::with_vectors(&rg, &rds);
    (perm, rg, rds, arena)
}

/// Maps a result pool from index id space back to original ids and
/// re-sorts into the canonical (distance, original id) order.
fn to_original(perm: &Permutation, mut pool: Vec<Neighbor>) -> Vec<Neighbor> {
    for n in &mut pool {
        n.id = perm.to_old(n.id);
    }
    pool.sort_unstable();
    pool
}

fn assert_pools_identical(a: &[Neighbor], b: &[Neighbor], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: pool lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: ids diverge");
        assert_eq!(
            x.dist.to_bits(),
            y.dist.to_bits(),
            "{what}: distance bits diverge at id {}",
            x.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract, routine by routine: every search over the
    /// reordered fused arena is the permuted image of the same search
    /// over the original layout, with identical `SearchStats`.
    #[test]
    fn all_five_routines_agree_modulo_permutation(
        seed in 0u64..120,
        beam in 4usize..40,
    ) {
        let (ds, qs, g) = setup(seed, 350);
        let (perm, rg, _rds, arena) = reorder_and_fuse(&ds, &g);
        let seeds = [0u32, 175, 349];
        let mapped: Vec<u32> = seeds.iter().map(|&s| perm.to_new(s)).collect();
        let mut sc_a = SearchScratch::new(ds.len());
        let mut sc_b = SearchScratch::new(ds.len());
        for qi in 0..qs.len().min(2) as u32 {
            let q = qs.point(qi);

            let mut st_a = SearchStats::default();
            let mut st_b = SearchStats::default();
            sc_a.next_epoch();
            let a = beam_search(&ds, &g, q, &seeds, beam, &mut sc_a, &mut st_a);
            sc_b.next_epoch();
            let b = beam_search(&arena, &arena, q, &mapped, beam, &mut sc_b, &mut st_b);
            assert_pools_identical(&a, &to_original(&perm, b), "beam");
            prop_assert!(
                st_a.pool_peak >= 1 && st_a.pool_peak <= beam as u64,
                "beam pool_peak {} out of [1, {beam}]", st_a.pool_peak
            );
            prop_assert_eq!(st_a, st_b, "beam stats");

            let mut st_a = SearchStats::default();
            let mut st_b = SearchStats::default();
            sc_a.next_epoch();
            let backtrack = Router::Backtrack { extra: 4 };
            let a = backtrack.search(&ds, &g, q, &seeds, beam, &mut sc_a, &mut st_a);
            sc_b.next_epoch();
            let b = backtrack.search(&arena, &arena, q, &mapped, beam, &mut sc_b, &mut st_b);
            assert_pools_identical(&a, &to_original(&perm, b), "backtrack");
            prop_assert!(st_a.pool_peak >= 1, "backtrack pool_peak missing");
            prop_assert_eq!(st_a, st_b, "backtrack stats");

            let mut st_a = SearchStats::default();
            let mut st_b = SearchStats::default();
            sc_a.next_epoch();
            let a = Router::Guided.search(&ds, &g, q, &seeds, beam, &mut sc_a, &mut st_a);
            sc_b.next_epoch();
            let b = Router::Guided.search(&arena, &arena, q, &mapped, beam, &mut sc_b, &mut st_b);
            assert_pools_identical(&a, &to_original(&perm, b), "guided");
            prop_assert!(
                st_a.pool_peak >= 1 && st_a.pool_peak <= beam as u64,
                "guided pool_peak {} out of [1, {beam}]", st_a.pool_peak
            );
            prop_assert_eq!(st_a, st_b, "guided stats");

            // Two-stage continuation: stage 2 resumes from stage 1's
            // scored pool inside the same visited epoch.
            let two_stage = Router::TwoStage { stage1_beam_frac: 0.5 };
            let mut st_a = SearchStats::default();
            let mut st_b = SearchStats::default();
            sc_a.next_epoch();
            let a = two_stage.search(&ds, &g, q, &seeds, beam, &mut sc_a, &mut st_a);
            sc_b.next_epoch();
            let b = two_stage.search(&arena, &arena, q, &mapped, beam, &mut sc_b, &mut st_b);
            assert_pools_identical(&a, &to_original(&perm, b), "seeded");
            prop_assert!(
                st_a.pool_peak >= 1 && st_a.pool_peak <= beam as u64,
                "seeded pool_peak {} out of [1, {beam}]", st_a.pool_peak
            );
            prop_assert_eq!(st_a, st_b, "seeded stats");

            // The predicate sees original ids on the left and renamed ids
            // on the right; composing with `to_old` makes them the same
            // vertex set.
            let pred = |id: u32| id.is_multiple_of(3);
            let renamed_pred = |id: u32| pred(perm.to_old(id));
            let mut st_a = SearchStats::default();
            let mut st_b = SearchStats::default();
            sc_a.next_epoch();
            let a = filtered_beam_search(
                &ds, &g, q, &seeds, 5, beam, &pred, &mut sc_a, &mut st_a,
            );
            sc_b.next_epoch();
            let b = filtered_beam_search(
                &arena, &arena, q, &mapped, 5, beam, &renamed_pred, &mut sc_b, &mut st_b,
            );
            assert_pools_identical(&a, &to_original(&perm, b), "filtered");
            prop_assert!(st_a.pool_peak >= 1, "filtered pool_peak missing");
            prop_assert_eq!(st_a, st_b, "filtered stats");

            let mut st_a = SearchStats::default();
            let mut st_b = SearchStats::default();
            sc_a.next_epoch();
            let range = Router::Range { epsilon: 0.2 };
            let a = range.search(&ds, &g, q, &seeds, beam, &mut sc_a, &mut st_a);
            sc_b.next_epoch();
            let b = range.search(&arena, &arena, q, &mapped, beam, &mut sc_b, &mut st_b);
            assert_pools_identical(&a, &to_original(&perm, b), "range");
            prop_assert!(
                st_a.pool_peak >= 1 && st_a.pool_peak <= ds.len() as u64,
                "range pool_peak {} out of [1, n]", st_a.pool_peak
            );
            prop_assert_eq!(st_a, st_b, "range stats");
        }

        // The reordered CSR and arena expose the same adjacency.
        use weavess_graph::adjacency::GraphView;
        for v in 0..rg.len() as u32 {
            prop_assert_eq!(rg.neighbors(v), arena.neighbors(v));
        }
    }

    /// The permutation (and the whole layout) survives a persist
    /// round-trip: the reloaded index searches bit-identically and its
    /// permutation arrays are byte-equal.
    #[test]
    fn persisted_permutation_round_trips(seed in 0u64..40) {
        let (ds, qs, g) = setup(seed, 250);
        let flat = FlatIndex {
            name: "layout-rt",
            graph: g,
            seeds: SeedStrategy::Fixed(vec![0, 99, 249]),
            router: Router::BestFirst,
        };
        for layout in [NodeLayout::Split, NodeLayout::Fused] {
            let idx = LayoutIndex::from_flat(
                FlatIndex {
                    name: flat.name,
                    graph: flat.graph.clone(),
                    seeds: SeedStrategy::Fixed(vec![0, 99, 249]),
                    router: Router::BestFirst,
                },
                &ds,
                layout,
                true,
            );
            let path = std::env::temp_dir().join(format!(
                "weavess_layout_rt_{seed}_{layout:?}.wvsl"
            ));
            save_layout_index(&path, &idx).expect("save");
            let loaded = load_layout_index(&path, &ds).expect("load");
            let _ = std::fs::remove_file(&path);

            let (p0, p1) = (idx.permutation().unwrap(), loaded.permutation().unwrap());
            prop_assert_eq!(p0.inverse(), p1.inverse(), "{:?}", layout);
            prop_assert_eq!(loaded.layout(), layout);

            let mut c1 = SearchContext::new(ds.len());
            let mut c2 = SearchContext::new(ds.len());
            for qi in 0..qs.len().min(3) as u32 {
                let a = idx.search(&ds, qs.point(qi), 10, 40, &mut c1);
                let b = loaded.search(&ds, qs.point(qi), 10, 40, &mut c2);
                assert_pools_identical(&a, &b, "persist round-trip");
            }
            prop_assert_eq!(c1.stats, c2.stats);
        }
    }
}

/// The prefetch toggle is a pure hint: flipping it must not move a
/// single bit of any result. (Global toggle — restored before exit, and
/// harmless to concurrent tests precisely because of this property.)
#[test]
fn prefetch_toggle_never_changes_results() {
    let (ds, qs, g) = setup(7, 300);
    let (perm, _rg, _rds, arena) = reorder_and_fuse(&ds, &g);
    let seeds = [0u32, 150];
    let mapped: Vec<u32> = seeds.iter().map(|&s| perm.to_new(s)).collect();
    let mut scratch = SearchScratch::new(ds.len());
    let run = |on: bool, scratch: &mut SearchScratch| {
        set_prefetch_enabled(on);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        for qi in 0..qs.len() as u32 {
            scratch.next_epoch();
            out.push(beam_search(
                &ds,
                &g,
                qs.point(qi),
                &seeds,
                32,
                scratch,
                &mut stats,
            ));
            scratch.next_epoch();
            out.push(beam_search(
                &arena,
                &arena,
                qs.point(qi),
                &mapped,
                32,
                scratch,
                &mut stats,
            ));
        }
        (out, stats)
    };
    let (on, stats_on) = run(true, &mut scratch);
    let (off, stats_off) = run(false, &mut scratch);
    set_prefetch_enabled(true);
    assert_eq!(stats_on, stats_off);
    for (a, b) in on.iter().zip(&off) {
        assert_pools_identical(a, b, "prefetch toggle");
    }
}
