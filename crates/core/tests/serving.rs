//! Integration tests for the concurrent batch query engine: determinism
//! across worker counts on real algorithm indexes, and a stress test
//! hammering one shared engine with overlapping batches.

use weavess_core::algorithms::Algo;
use weavess_core::serve::{EngineOptions, QueryEngine};
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, Neighbor};

fn dataset() -> (Dataset, Dataset) {
    let spec = MixtureSpec {
        intrinsic_dim: Some(6),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(16, 1_500, 3, 5.0, 40)
    };
    spec.generate()
}

/// The tentpole's acceptance bar: the engine's per-query results AND its
/// aggregated work counters are bit-identical at 1, 2, and 8 workers, on
/// both a fixed-seed index (HNSW) and a random-seed index (KGraph, whose
/// per-query seed draws go through the engine's deterministic reseeding).
///
/// This runs under the detected kernel tier; the CI `kernel-matrix` job
/// re-runs it under `WEAVESS_KERNEL=scalar|unrolled|simd`, so worker-count
/// determinism is certified on every tier.
#[test]
fn engine_results_identical_across_1_2_8_workers() {
    let (base, queries) = dataset();
    for algo in [Algo::Hnsw, Algo::KGraph] {
        let index = algo.build(&base, 2, 1);
        let run = |workers: usize| {
            let engine = QueryEngine::with_options(
                index.as_ref(),
                &base,
                EngineOptions { workers, seed: 42 },
            );
            engine.search_batch(&queries, 10, 60)
        };
        let baseline = run(1);
        assert_eq!(baseline.results.len(), queries.len());
        assert!(baseline.stats.ndc > 0);
        for workers in [2usize, 8] {
            let multi = run(workers);
            assert_eq!(
                multi.results,
                baseline.results,
                "{}: results changed at {workers} workers",
                algo.name()
            );
            assert_eq!(
                multi.stats,
                baseline.stats,
                "{}: aggregated stats changed at {workers} workers",
                algo.name()
            );
        }
    }
}

/// Stress: one engine over one shared index serves overlapping batches
/// from many caller threads — mixed batch sizes including 0 and 1 — with
/// no panic, no lost queries, and every batch equal to the serial
/// reference for its queries.
#[test]
fn overlapping_batches_on_shared_engine_match_serial() {
    let (base, queries) = dataset();
    let index = Algo::Hnsw.build(&base, 2, 1);
    let engine = QueryEngine::with_options(
        index.as_ref(),
        &base,
        EngineOptions {
            workers: 2,
            seed: 7,
        },
    );
    let k = 10;
    let beam = 50;

    // Serial reference via the engine's own single-query path (per-query
    // seeding makes this the ground truth for every batch below).
    let serial: Vec<Vec<Neighbor>> = (0..queries.len() as u32)
        .map(|qi| engine.search_one(queries.point(qi), k, beam))
        .collect();

    // Each caller thread runs several batches: a rotated full batch, an
    // empty batch, and a single-query batch.
    let caller_threads = 4;
    let rounds = 3;
    let total_answered = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..caller_threads as u32 {
            let engine = &engine;
            let queries = &queries;
            let serial = &serial;
            let total_answered = &total_answered;
            scope.spawn(move || {
                let nq = queries.len() as u32;
                for round in 0..rounds as u32 {
                    // Rotated permutation: distinct order per (thread, round).
                    let ids: Vec<u32> = (0..nq).map(|i| (i + t + round * 5) % nq).collect();
                    let report = engine.search_batch(&queries.subset(&ids), k, beam);
                    assert_eq!(report.results.len(), ids.len(), "lost queries");
                    for (pos, &qi) in ids.iter().enumerate() {
                        assert_eq!(
                            report.results[pos], serial[qi as usize],
                            "thread {t} round {round} query {qi} diverged"
                        );
                    }
                    total_answered
                        .fetch_add(report.results.len(), std::sync::atomic::Ordering::Relaxed);

                    let empty = engine.search_batch(&queries.subset(&[]), k, beam);
                    assert!(empty.results.is_empty());

                    let solo_id = (t + round) % nq;
                    let solo = engine.search_batch(&queries.subset(&[solo_id]), k, beam);
                    assert_eq!(solo.results.len(), 1);
                    assert_eq!(solo.results[0], serial[solo_id as usize]);
                    total_answered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        total_answered.load(std::sync::atomic::Ordering::Relaxed),
        caller_threads * rounds * (queries.len() + 1)
    );
    // The scratch pool stayed bounded by peak concurrency, not query count.
    assert!(engine.pooled_contexts() <= caller_threads * 2 + 1);
}
