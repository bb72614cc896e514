//! Integration suite for trace-driven graph adaptation.
//!
//! The determinism contract, end to end: an adapted index is a pure
//! function of `(graph, dataset, trace aggregate, AdaptParams)` —
//! byte-identical (via the persist serialization) at any mining thread
//! count and for any ordering or partitioning of the trace set. Around
//! it:
//!
//! - the WVSL v2 catapult-overlay segment survives a persist round-trip
//!   (reordered + fused included) with bit-identical search results;
//! - recall parity at a fixed beam: adapting on observed traffic must
//!   not cost more than 0.001 Recall@10 on that traffic;
//! - every misuse is a typed [`AdaptError`], including the per-shard
//!   aggregate-count check on [`ShardSet::adapt`];
//! - the separation contract: adaptation leaves the base graph's
//!   adjacency untouched, and routes recorded *before* adaptation still
//!   pass `replay_check` afterwards.

use weavess_core::adapt::{AdaptError, AdaptParams};
use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::components::SeedStrategy;
use weavess_core::index::{AnnIndex, FlatIndex, SearchContext};
use weavess_core::persist::{load_layout_index, save_layout_index, write_layout_index};
use weavess_core::search::Router;
use weavess_core::shard::ShardSet;
use weavess_core::telemetry::{RecordingTracer, RouteEvent, TraceAggregate};
use weavess_core::{LayoutIndex, NodeLayout};
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::base::exact_knng;

const K: usize = 10;
const BEAM: usize = 24;

fn setup(seed: u64, n: usize, nq: usize) -> (Dataset, Dataset) {
    MixtureSpec::table10(12, n, 3, 5.0, nq)
        .with_seed(seed)
        .generate()
}

/// `FlatIndex` is consumed by `LayoutIndex::from_flat`; fixed-seed
/// configurations clone cheaply for rebuild-and-compare tests.
fn clone_flat(flat: &FlatIndex) -> FlatIndex {
    let seeds = match &flat.seeds {
        SeedStrategy::Fixed(v) => SeedStrategy::Fixed(v.clone()),
        _ => panic!("test helper only clones fixed seeds"),
    };
    FlatIndex {
        name: flat.name,
        graph: flat.graph.clone(),
        seeds,
        router: flat.router.clone(),
    }
}

/// The serving configuration: NSG on the fused arena, BFS-reordered — the
/// layout where index ids differ from caller ids, so the permutation
/// plumbing is actually exercised.
fn build_layout(base: &Dataset) -> (FlatIndex, LayoutIndex) {
    let flat = nsg::build(base, &NsgParams::tuned(2, 3));
    let idx = LayoutIndex::from_flat(clone_flat(&flat), base, NodeLayout::Fused, true);
    (flat, idx)
}

/// Mining parameters sized for the small test workload (the defaults
/// would leave too few candidates here, and the reach gate is widened so
/// every seed mines at least one shortcut).
fn params() -> AdaptParams {
    AdaptParams {
        min_gap: 2.0,
        min_traffic: 1,
        max_reach: 2.0,
        ..AdaptParams::default()
    }
}

/// Records one route per query and returns both the aggregate and the
/// raw event streams (for order-permutation tests).
fn record_routes(
    idx: &LayoutIndex,
    base: &Dataset,
    queries: &Dataset,
) -> (TraceAggregate, Vec<Vec<RouteEvent>>) {
    let mut agg = TraceAggregate::new(base.len());
    let mut routes = Vec::new();
    let mut ctx = SearchContext::new(base.len());
    let mut tracer = RecordingTracer::new();
    for qi in 0..queries.len() as u32 {
        tracer.clear();
        let res = idx.search_traced(base, queries.point(qi), K, BEAM, &mut ctx, &mut tracer);
        assert!(!res.is_empty());
        agg.absorb(&tracer);
        routes.push(tracer.events.clone());
    }
    (agg, routes)
}

/// The persist serialization as the canonical byte image of an index.
fn index_bytes(idx: &LayoutIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    write_layout_index(&mut buf, idx).expect("serialize");
    buf
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

/// Mining thread count is wall-clock only: the adapted index serializes
/// to the same bytes at 1, 2, and 8 threads, and the reports agree.
#[test]
fn adapted_index_is_byte_identical_at_1_2_8_mining_threads() {
    let (base, queries) = setup(31, 700, 40);
    let (flat, idx) = build_layout(&base);
    let (agg, _) = record_routes(&idx, &base, &queries);

    let mut reference: Option<(Vec<u8>, weavess_core::adapt::AdaptReport)> = None;
    for threads in [1usize, 2, 8] {
        let mut adapted = LayoutIndex::from_flat(clone_flat(&flat), &base, NodeLayout::Fused, true);
        let report = adapted
            .adapt(
                &base,
                &agg,
                &AdaptParams {
                    threads,
                    ..params()
                },
            )
            .expect("adapt");
        assert!(report.edges_added > 0, "vacuous test: no shortcuts mined");
        let bytes = index_bytes(&adapted);
        match &reference {
            None => reference = Some((bytes, report)),
            Some((b0, r0)) => {
                assert_eq!(b0, &bytes, "adapted bytes diverge at {threads} threads");
                assert_eq!(r0, &report, "adapt report diverges at {threads} threads");
            }
        }
    }
}

/// Trace ordering and trace-set partitioning are invisible: absorbing the
/// routes forwards, backwards, or as two halves merged in either order
/// adapts to the same bytes.
#[test]
fn adapted_index_is_trace_order_invariant() {
    let (base, queries) = setup(47, 700, 40);
    let (flat, idx) = build_layout(&base);
    let (_, routes) = record_routes(&idx, &base, &queries);

    let absorb_all = |order: &[&Vec<RouteEvent>]| {
        let mut agg = TraceAggregate::new(base.len());
        for r in order {
            agg.absorb_route(r);
        }
        agg
    };
    let fwd: Vec<&Vec<RouteEvent>> = routes.iter().collect();
    let rev: Vec<&Vec<RouteEvent>> = routes.iter().rev().collect();
    let (first, second) = routes.split_at(routes.len() / 2);
    let mut half_a = TraceAggregate::new(base.len());
    for r in first {
        half_a.absorb_route(r);
    }
    let mut half_b = TraceAggregate::new(base.len());
    for r in second {
        half_b.absorb_route(r);
    }
    let mut ab = half_a.clone();
    ab.merge(&half_b);
    let mut ba = half_b;
    ba.merge(&half_a);

    let mut reference: Option<Vec<u8>> = None;
    for agg in [absorb_all(&fwd), absorb_all(&rev), ab, ba] {
        let mut adapted = LayoutIndex::from_flat(clone_flat(&flat), &base, NodeLayout::Fused, true);
        let report = adapted.adapt(&base, &agg, &params()).expect("adapt");
        assert!(report.edges_added > 0, "vacuous test: no shortcuts mined");
        let bytes = index_bytes(&adapted);
        match &reference {
            None => reference = Some(bytes),
            Some(b0) => assert_eq!(b0, &bytes, "trace order leaked into the adapted index"),
        }
    }
}

/// The WVSL v2 overlay segment round-trips for both layouts: the
/// reloaded index re-serializes to the same bytes, reports the same
/// overlay edge count, and answers every query bit-identically.
#[test]
fn catapult_overlay_segment_survives_persist_round_trip() {
    let (base, queries) = setup(59, 700, 40);
    let flat = nsg::build(&base, &NsgParams::tuned(2, 3));
    for layout in [NodeLayout::Split, NodeLayout::Fused] {
        let mut idx = LayoutIndex::from_flat(clone_flat(&flat), &base, layout, true);
        let (agg, _) = record_routes(&idx, &base, &queries);
        let report = idx.adapt(&base, &agg, &params()).expect("adapt");
        assert!(report.edges_added > 0, "vacuous test: no shortcuts mined");
        assert_eq!(idx.overlay_edges(), report.edges_added);

        let path = std::env::temp_dir().join(format!("weavess_adapt_rt_{layout:?}.wvsl"));
        save_layout_index(&path, &idx).expect("save");
        let loaded = load_layout_index(&path, &base).expect("load");
        let _ = std::fs::remove_file(&path);

        assert_eq!(loaded.overlay_edges(), report.edges_added, "{layout:?}");
        assert_eq!(loaded.layout(), layout);
        assert_eq!(
            index_bytes(&idx),
            index_bytes(&loaded),
            "{layout:?}: reloaded index re-serializes differently"
        );
        let mut c1 = SearchContext::new(base.len());
        let mut c2 = SearchContext::new(base.len());
        for qi in 0..queries.len() as u32 {
            let a = idx.search(&base, queries.point(qi), K, BEAM, &mut c1);
            let b = loaded.search(&base, queries.point(qi), K, BEAM, &mut c2);
            assert_pools_identical(&a, &b, "adapted persist round-trip");
        }
        assert_eq!(c1.stats, c2.stats);
    }
}

/// Exact Recall@K of `pool` against a brute-force scan.
fn recall(base: &Dataset, q: &[f32], pool: &[Neighbor]) -> f64 {
    let mut gt: Vec<u32> = (0..base.len() as u32).collect();
    gt.sort_unstable_by_key(|&v| (base.dist_to(q, v).to_bits(), v));
    gt.truncate(K);
    let hit = pool.iter().filter(|n| gt.contains(&n.id)).count();
    hit as f64 / K as f64
}

/// Recall parity at a fixed beam, and the effect's direction: adapting on
/// a trace of the evaluation traffic itself must not lose more than 0.001
/// Recall@10 on it, and must answer it in fewer hops and fewer distance
/// computations at the same beam (the catapult shortcuts exist to shorten
/// exactly these routes).
#[test]
fn adaptation_keeps_recall_parity_at_fixed_beam() {
    let (base, queries) = setup(71, 700, 60);
    let (_, mut idx) = build_layout(&base);
    let (agg, _) = record_routes(&idx, &base, &queries);

    let mut ctx = SearchContext::new(base.len());
    let mut measure = |idx: &LayoutIndex| {
        let mut total = 0.0;
        for qi in 0..queries.len() as u32 {
            let q = queries.point(qi);
            total += recall(&base, q, &idx.search(&base, q, K, BEAM, &mut ctx));
        }
        (total / queries.len() as f64, ctx.take_stats())
    };
    let (before, work_before) = measure(&idx);
    let report = idx.adapt(&base, &agg, &params()).expect("adapt");
    assert!(report.edges_added > 0, "vacuous test: no shortcuts mined");
    let (after, work_after) = measure(&idx);
    assert!(
        after >= before - 0.001,
        "adaptation regressed Recall@{K} at beam {BEAM}: {before:.4} -> {after:.4}"
    );
    assert!(
        work_after.hops < work_before.hops && work_after.ndc < work_before.ndc,
        "adaptation did not shorten the traced routes at beam {BEAM}: \
         {work_before:?} -> {work_after:?}"
    );
}

/// Every misuse is a typed error: zero degree budget, aggregate/graph
/// size mismatch, wrong dataset, an empty trace set, and the per-shard
/// aggregate count.
#[test]
fn misuse_is_reported_as_typed_errors() {
    let (base, queries) = setup(83, 500, 20);
    let (flat, mut idx) = build_layout(&base);
    let (agg, _) = record_routes(&idx, &base, &queries);

    let zero = idx.adapt(
        &base,
        &agg,
        &AdaptParams {
            max_extra_degree: 0,
            ..params()
        },
    );
    assert_eq!(zero.unwrap_err(), AdaptError::ZeroDegreeBudget);

    let small = TraceAggregate::new(base.len() - 1);
    assert_eq!(
        idx.adapt(&base, &small, &params()).unwrap_err(),
        AdaptError::SizeMismatch {
            graph: base.len(),
            traces: base.len() - 1,
        }
    );

    let (other, _) = setup(84, 300, 1);
    assert_eq!(
        idx.adapt(&other, &agg, &params()).unwrap_err(),
        AdaptError::DatasetMismatch {
            graph: base.len(),
            dataset: other.len(),
        }
    );

    let empty = TraceAggregate::new(base.len());
    assert_eq!(
        idx.adapt(&base, &empty, &params()).unwrap_err(),
        AdaptError::NoTraces
    );

    // Errors surface through ShardSet::adapt too, plus its own
    // aggregate-count check.
    let mut set = ShardSet::build(&base, 2, 0xD15C0, NodeLayout::Split, false, 1, |ds, _| {
        FlatIndex {
            name: "adapt-err",
            graph: exact_knng(ds, 4, 1),
            seeds: SeedStrategy::Fixed(vec![0]),
            router: Router::BestFirst,
        }
    })
    .expect("shard build");
    assert_eq!(
        set.adapt(std::slice::from_ref(&agg), &params())
            .unwrap_err(),
        AdaptError::ShardCount { shards: 2, aggs: 1 }
    );
    for e in [
        AdaptError::ZeroDegreeBudget,
        AdaptError::NoTraces,
        AdaptError::ShardCount { shards: 2, aggs: 1 },
    ] {
        assert!(!e.to_string().is_empty());
    }
    // The index is untouched by the failed attempts.
    assert_eq!(index_bytes(&idx), {
        let fresh = LayoutIndex::from_flat(clone_flat(&flat), &base, NodeLayout::Fused, true);
        index_bytes(&fresh)
    });
}

/// The separation contract: adaptation adds an overlay and moves entries
/// but never rewrites the base graph, and routes recorded before
/// adaptation still replay against the dataset afterwards (vertex
/// distances are untouched).
#[test]
fn base_graph_and_pre_adaptation_traces_survive() {
    let (base, queries) = setup(97, 700, 60);
    let (_, mut idx) = build_layout(&base);
    let before = idx.base_graph();

    // Record and *keep* the tracers (not just the aggregate).
    let mut agg = TraceAggregate::new(base.len());
    let mut tracers = Vec::new();
    let mut ctx = SearchContext::new(base.len());
    for qi in 0..queries.len() as u32 {
        let mut tracer = RecordingTracer::new();
        idx.search_traced(&base, queries.point(qi), K, BEAM, &mut ctx, &mut tracer);
        agg.absorb(&tracer);
        tracers.push(tracer);
    }

    let report = idx.adapt(&base, &agg, &params()).expect("adapt");
    assert!(report.edges_added > 0, "vacuous test: no shortcuts mined");
    assert!(!report.entries.is_empty());

    let after = idx.base_graph();
    assert_eq!(before.len(), after.len());
    for v in 0..before.len() as u32 {
        assert_eq!(
            before.neighbors(v),
            after.neighbors(v),
            "adaptation rewrote base adjacency at vertex {v}"
        );
    }
    // Routes are recorded in index id space; replay checks them against
    // the index-space view of the dataset. Adaptation must not disturb
    // that view (no re-permutation, no vector rewrite), so the old routes
    // still verify bit-for-bit.
    let index_space = idx
        .permutation()
        .map_or_else(|| base.clone(), |p| p.apply_to_dataset(&base));
    for (qi, tracer) in tracers.iter().enumerate() {
        assert!(
            tracer.replay_check(&index_space, queries.point(qi as u32)),
            "pre-adaptation route {qi} no longer replays"
        );
    }
}
