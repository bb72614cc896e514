//! Edge-case robustness: degenerate datasets and extreme parameters must
//! not panic, and results must stay well-formed.

use weavess::core::algorithms::Algo;
use weavess::core::index::SearchContext;
use weavess::data::synthetic::MixtureSpec;
use weavess::data::Dataset;

fn tiny() -> Dataset {
    Dataset::from_rows(&[
        vec![0.0, 0.0],
        vec![1.0, 0.0],
        vec![0.0, 1.0],
        vec![5.0, 5.0],
        vec![5.0, 6.0],
    ])
}

#[test]
fn every_algorithm_survives_a_five_point_dataset() {
    // Also its one- and two-point prefixes: a lone point has no neighbor.
    let five = tiny();
    for n in [5, 1, 2] {
        let ds = five.subset(&(0..n as u32).collect::<Vec<_>>());
        for &algo in Algo::all() {
            let index = algo.build(&ds, 1, 1);
            let mut ctx = SearchContext::new(ds.len());
            let res = index.search(&ds, &[0.5, 0.5], 3, 10, &mut ctx);
            assert!(
                !res.is_empty(),
                "{} returned nothing at n = {n}",
                algo.name()
            );
            assert!(res.len() <= 3.min(n));
            assert!(
                res.windows(2).all(|w| w[0].dist <= w[1].dist),
                "{} unsorted at n = {n}",
                algo.name()
            );
        }
    }
}

#[test]
fn every_algorithm_survives_duplicate_points() {
    // 60 identical vectors: zero distances everywhere.
    let ds = Dataset::from_rows(&vec![vec![2.5f32, -1.0, 3.0]; 60]);
    for &algo in Algo::all() {
        let index = algo.build(&ds, 1, 1);
        let mut ctx = SearchContext::new(ds.len());
        let res = index.search(&ds, &[2.5, -1.0, 3.0], 5, 20, &mut ctx);
        assert!(!res.is_empty(), "{} returned nothing", algo.name());
        assert!(res.iter().all(|n| n.dist == 0.0), "{}", algo.name());
    }
}

#[test]
fn k_larger_than_dataset_is_clamped_gracefully() {
    let ds = tiny();
    let index = Algo::Hnsw.build(&ds, 1, 1);
    let mut ctx = SearchContext::new(ds.len());
    let res = index.search(&ds, &[0.0, 0.0], 50, 100, &mut ctx);
    assert!(res.len() <= ds.len());
    // All five points found.
    assert_eq!(res.len(), 5);
}

#[test]
fn beam_of_one_still_returns_results() {
    let (ds, qs) = MixtureSpec::table10(8, 300, 2, 5.0, 5).generate();
    for algo in [Algo::KGraph, Algo::Nsg, Algo::Hnsw] {
        let index = algo.build(&ds, 1, 1);
        let mut ctx = SearchContext::new(ds.len());
        let res = index.search(&ds, qs.point(0), 1, 1, &mut ctx);
        assert_eq!(res.len(), 1, "{}", algo.name());
    }
}

#[test]
fn query_identical_to_base_point_finds_it() {
    let (ds, _) = MixtureSpec::table10(8, 400, 2, 5.0, 5).generate();
    for algo in [Algo::Nsg, Algo::Hnsw, Algo::Dpg, Algo::Oa] {
        let index = algo.build(&ds, 1, 1);
        let mut ctx = SearchContext::new(ds.len());
        let mut found = 0;
        for probe in [0u32, 137, 333] {
            let res = index.search(&ds, ds.point(probe), 1, 40, &mut ctx);
            if res.first().map(|n| (n.id, n.dist)) == Some((probe, 0.0)) {
                found += 1;
            }
        }
        assert!(found >= 2, "{}: self-queries found {found}/3", algo.name());
    }
}

#[test]
fn one_dimensional_data_works() {
    let ds = Dataset::from_rows(&(0..100).map(|i| vec![i as f32]).collect::<Vec<_>>());
    let index = Algo::Nsg.build(&ds, 1, 1);
    let mut ctx = SearchContext::new(ds.len());
    let res = index.search(&ds, &[42.4], 3, 20, &mut ctx);
    assert_eq!(res[0].id, 42);
}

#[test]
fn extreme_coordinate_magnitudes_do_not_break_ordering() {
    let ds = Dataset::from_rows(&[
        vec![1.0e20, 0.0],
        vec![1.0e20, 1.0],
        vec![-1.0e20, 0.0],
        vec![0.0, 0.0],
    ]);
    let index = Algo::KGraph.build(&ds, 1, 1);
    let mut ctx = SearchContext::new(ds.len());
    let res = index.search(&ds, &[1.0e20, 0.5], 2, 10, &mut ctx);
    let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
    assert!(ids.contains(&0) && ids.contains(&1), "{ids:?}");
}
