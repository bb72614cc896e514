//! Integration suite for the sharded scatter-gather serving tier.
//!
//! The heart is the determinism invariant: with a fixed partition seed
//! and shards that answer exactly (every shard point seeded, beam at
//! least the shard size), the merged top-k is **bit-identical to the
//! unsharded engine at 1, 2, 4, and 8 shards** — for all five search
//! routines. Around it:
//!
//! - the merge law property-tested in isolation (k-select over any
//!   partition of the candidates, commutative, pairwise-associative);
//! - duplicate points straddling shard boundaries (distance ties must
//!   resolve by global id, exactly as the unsharded pool orders them);
//! - `SearchStats`/histogram aggregation: the fleet totals are the fold
//!   of the per-shard reports;
//! - concurrent callers on one shared engine: every report field equals
//!   the single-caller reference at 1/2/4/8 shards;
//! - the pool's wake rule held on either side (hand-off estimate pinned
//!   at "free" and at "never pays"): the same batches answered on the
//!   calling thread alone and fanned out give equal reports and flights;
//! - the admission queue's close rule, driven through a gated executor
//!   rather than by timing: an idle queue dispatches on arrival, arrivals
//!   behind a busy executor coalesce (per-ticket results, submission
//!   order), the budget bounds that wait, a full batch never waits; a
//!   concurrent stress run — all answers equal to the unbatched
//!   reference — and an executor panic that must unwind every rider of
//!   the batch, free the lane and leave the queue serving; and the lane
//!   itself: batches an executor runs on their leader's thread alone
//!   overlap, one that fans out still holds arrivals back;
//! - typed build errors ([`ShardError`], [`IndexError`]) where the seed
//!   code panicked.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use weavess_core::components::seeds::SeedStrategy;
use weavess_core::index::{FlatIndex, IndexError};
use weavess_core::locality::{LayoutIndex, NodeLayout};
use weavess_core::quantized::QuantizedIndex;
use weavess_core::search::Router;
use weavess_core::serve::{EngineOptions, QueryEngine};
use weavess_core::shard::{
    merge_topk, merge_two, BatchExecutor, BatchQueue, QueueOptions, ShardError, ShardSet,
    ShardedBatchReport, ShardedEngine,
};
use weavess_core::telemetry::{FlightOptions, FlightRecorder};
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::base::exact_knng;
use weavess_graph::CsrGraph;

const PARTITION_SEED: u64 = 0xD15C0;

fn dataset(n: usize, n_queries: usize) -> (Dataset, Dataset) {
    MixtureSpec::table10(12, n, 3, 5.0, n_queries)
        .with_seed(99)
        .generate()
}

/// A shard builder whose engine answers *exactly*: every local point is a
/// fixed seed, so (with `beam >= shard len`) the router scores the whole
/// shard at the seeding stage and the local top-k is the true top-k. This
/// is the regime where the determinism invariant is exact rather than
/// statistical.
fn exact_builder(router: Router) -> impl Fn(&Dataset, usize) -> FlatIndex {
    move |ds: &Dataset, _shard: usize| FlatIndex {
        name: "exact",
        graph: exact_knng(ds, 4, 1),
        seeds: SeedStrategy::Fixed((0..ds.len() as u32).collect()),
        router: router.clone(),
    }
}

fn all_routers() -> [Router; 5] {
    [
        Router::BestFirst,
        Router::Range { epsilon: 0.1 },
        Router::Backtrack { extra: 4 },
        Router::Guided,
        // Anything below 1.0 truncates the stage-1 pool and may drop a
        // true neighbor, breaking exactness (and thus the invariant).
        Router::TwoStage {
            stage1_beam_frac: 1.0,
        },
    ]
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

/// The tentpole's acceptance bar: for every one of the five routers, the
/// merged results at 1, 2, 4, and 8 shards are bit-identical to the
/// unsharded engine over the whole dataset.
///
/// This runs under the detected kernel tier; the CI `kernel-matrix` job
/// re-runs it under `WEAVESS_KERNEL=scalar|unrolled|simd`, so shard-count
/// determinism is certified on every tier.
#[test]
fn sharded_results_identical_to_unsharded_at_1_2_4_8_shards() {
    let (base, queries) = dataset(600, 16);
    let k = 10;
    let beam = base.len(); // >= every shard's size: exact everywhere
    for router in all_routers() {
        let build = exact_builder(router.clone());

        // Unsharded reference: the same exact configuration over the
        // full dataset behind a plain QueryEngine.
        let flat = build(&base, 0);
        let unsharded_index =
            LayoutIndex::try_from_flat(flat, &base, NodeLayout::Split, false).unwrap();
        let unsharded = QueryEngine::with_options(
            &unsharded_index,
            &base,
            EngineOptions {
                workers: 2,
                seed: 42,
            },
        );
        let reference = unsharded.search_batch(&queries, k, beam);

        for shards in [1usize, 2, 4, 8] {
            let set = ShardSet::build(
                &base,
                shards,
                PARTITION_SEED,
                NodeLayout::Split,
                false,
                2,
                &build,
            )
            .unwrap();
            assert_eq!(set.num_shards(), shards);
            assert_eq!(set.total_points(), base.len());
            let engine = ShardedEngine::with_options(
                &set,
                EngineOptions {
                    workers: 2,
                    seed: 42,
                },
            );
            let report = engine.search_batch(&queries, k, beam);
            assert_eq!(report.results.len(), queries.len());
            for (qi, (got, want)) in report.results.iter().zip(&reference.results).enumerate() {
                assert_pools_identical(
                    got,
                    want,
                    &format!("{router:?}, {shards} shards, query {qi}"),
                );
            }
            // The batch path and the single-query path agree.
            for qi in 0..queries.len() as u32 {
                let one = engine.search_one(queries.point(qi), k, beam);
                assert_pools_identical(
                    &one,
                    &report.results[qi as usize],
                    &format!("{router:?}, {shards} shards, search_one q{qi}"),
                );
            }
        }
    }
}

/// The partition itself is a pure function of the seed: a different seed
/// deals points differently (so shard contents change), yet the merged
/// results are *still* identical — the invariant does not depend on which
/// deal the seed produced.
#[test]
fn results_are_partition_seed_invariant_under_exact_shards() {
    let (base, queries) = dataset(400, 8);
    let (k, beam) = (10, base.len());
    let build = exact_builder(Router::BestFirst);
    let run = |seed: u64| {
        let set = ShardSet::build(&base, 4, seed, NodeLayout::Split, false, 2, &build).unwrap();
        let engine = ShardedEngine::new(&set);
        engine.search_batch(&queries, k, beam).results
    };
    let a = run(PARTITION_SEED);
    let b = run(PARTITION_SEED ^ 0xFFFF_FFFF);
    for (qi, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_pools_identical(x, y, &format!("seed-invariance, query {qi}"));
    }
}

/// Duplicate vectors straddling shard boundaries: distance ties must
/// resolve by global id, identically to the unsharded pool's order.
#[test]
fn duplicate_points_across_shards_tie_break_by_global_id() {
    let (half, queries) = dataset(150, 8);
    // ids 0..150 and 150..300 hold the same vectors: every true neighbor
    // is a two-way distance tie whose halves land in different shards.
    let mut flat = Vec::with_capacity(2 * half.len() * half.dim());
    for i in 0..half.len() as u32 {
        flat.extend_from_slice(half.point(i));
    }
    for i in 0..half.len() as u32 {
        flat.extend_from_slice(half.point(i));
    }
    let base = Dataset::from_flat(flat, 2 * half.len(), half.dim());

    let build = exact_builder(Router::BestFirst);
    let k = 12;
    let beam = base.len();
    let flat_index = build(&base, 0);
    let unsharded_index =
        LayoutIndex::try_from_flat(flat_index, &base, NodeLayout::Split, false).unwrap();
    let unsharded = QueryEngine::new(&unsharded_index, &base);

    for shards in [2usize, 4] {
        let set = ShardSet::build(
            &base,
            shards,
            PARTITION_SEED,
            NodeLayout::Split,
            false,
            2,
            &build,
        )
        .unwrap();
        let engine = ShardedEngine::new(&set);
        for qi in 0..queries.len() as u32 {
            let want = unsharded.search_one(queries.point(qi), k, beam);
            let got = engine.search_one(queries.point(qi), k, beam);
            assert_pools_identical(&got, &want, &format!("{shards} shards, dup query {qi}"));
            // The duplicates really do produce ties, and ties are
            // id-ascending within equal distance.
            for w in got.windows(2) {
                if w[0].dist.to_bits() == w[1].dist.to_bits() {
                    assert!(w[0].id < w[1].id, "tie not resolved by global id");
                }
            }
            assert!(
                got.windows(2)
                    .any(|w| w[0].dist.to_bits() == w[1].dist.to_bits()),
                "construction should force distance ties in the top-k"
            );
        }
    }
}

/// Fleet aggregation: the merged batch counters are exactly the fold of
/// the per-shard reports (counts add, `pool_peak` maxes, histograms
/// merge), and the fleet report distinguishes logical queries from
/// per-shard executions.
#[test]
fn batch_stats_and_fleet_report_aggregate_per_shard_work() {
    let (base, queries) = dataset(400, 12);
    let shards = 4;
    let set = ShardSet::build(
        &base,
        shards,
        PARTITION_SEED,
        NodeLayout::Split,
        false,
        2,
        exact_builder(Router::BestFirst),
    )
    .unwrap();
    let engine = ShardedEngine::new(&set);
    let report = engine.search_batch(&queries, 10, base.len());

    assert_eq!(report.per_shard.len(), shards);
    let mut ndc = 0u64;
    let mut hops = 0u64;
    let mut pool_peak = 0u64;
    let mut ndc_hist = weavess_core::telemetry::Histogram::new();
    for sr in &report.per_shard {
        ndc += sr.stats.ndc;
        hops += sr.stats.hops;
        pool_peak = pool_peak.max(sr.stats.pool_peak);
        ndc_hist.merge(&sr.ndc_hist);
    }
    assert!(ndc > 0);
    assert_eq!(report.stats.ndc, ndc, "ndc must sum across shards");
    assert_eq!(report.stats.hops, hops, "hops must sum across shards");
    assert_eq!(report.stats.pool_peak, pool_peak, "pool_peak must max");
    assert_eq!(&report.ndc_hist, &ndc_hist, "histograms must merge");
    assert_eq!(report.ndc_hist.count(), (queries.len() * shards) as u64);

    let fleet = engine.fleet_report();
    assert_eq!(fleet.per_shard.len(), shards);
    assert_eq!(fleet.logical_queries, queries.len() as u64);
    assert_eq!(fleet.logical_batches, 1);
    assert_eq!(
        fleet.merged.queries_total,
        (queries.len() * shards) as u64,
        "merged snapshot counts per-shard executions"
    );
    let prom = engine.metrics_prometheus();
    assert!(prom.contains("weavess_fleet_queries_total"));
    assert!(prom.contains(&format!(
        "weavess_shard_queries_total{{shard=\"{}\"}}",
        shards - 1
    )));
    let json = engine.metrics_json();
    assert!(json.contains(&format!(
        "\"weavess_fleet_queries_total\": {}",
        queries.len()
    )));
    assert!(json.contains(&format!("{{\"shard\": \"{}\", \"value\":", shards - 1)));
}

/// Every deterministic field of a scattered batch's report.
fn assert_reports_identical(got: &ShardedBatchReport, want: &ShardedBatchReport, what: &str) {
    assert_eq!(got.results, want.results, "{what}: results");
    assert_eq!(got.stats, want.stats, "{what}: merged stats");
    assert_eq!(got.ndc_hist, want.ndc_hist, "{what}: ndc_hist");
    assert_eq!(got.hops_hist, want.hops_hist, "{what}: hops_hist");
    assert_eq!(got.per_shard.len(), want.per_shard.len(), "{what}: shards");
    for (s, (g, w)) in got.per_shard.iter().zip(&want.per_shard).enumerate() {
        assert_eq!(g.stats, w.stats, "{what}: shard {s} stats");
        let claimed: u64 = g.per_worker.iter().map(|p| p.queries_claimed).sum();
        assert_eq!(
            claimed,
            got.results.len() as u64,
            "{what}: shard {s} claims"
        );
    }
}

/// Serving determinism under concurrency: four caller threads share one
/// engine (and so its scatter workers and every shard's workers) and
/// issue empty, single, double, and full batches in different orders;
/// each report equals the one a lone caller gets for the same batch.
#[test]
fn concurrent_callers_get_the_single_caller_reports_at_1_2_4_8_shards() {
    let (base, queries) = dataset(400, 16);
    let (k, beam) = (10, 48);
    let all: Vec<u32> = (0..queries.len() as u32).collect();
    let batches = [
        queries.subset(&[]),
        queries.subset(&[5]),
        queries.subset(&[9, 2]),
        queries.subset(&all),
    ];
    let build = |ds: &Dataset, _: usize| FlatIndex {
        name: "walk",
        graph: exact_knng(ds, 8, 1),
        seeds: SeedStrategy::Random { count: 4 },
        router: Router::BestFirst,
    };
    for shards in [1usize, 2, 4, 8] {
        let set = ShardSet::build(
            &base,
            shards,
            PARTITION_SEED,
            NodeLayout::Split,
            false,
            2,
            build,
        )
        .unwrap();
        let engine = ShardedEngine::with_options(
            &set,
            EngineOptions {
                workers: 2,
                seed: 42,
            },
        );
        let reference: Vec<ShardedBatchReport> = batches
            .iter()
            .map(|b| engine.search_batch(b, k, beam))
            .collect();
        assert!(reference[3].stats.hops > 0, "the walks must do work");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (engine, batches, reference, start) = (&engine, &batches, &reference, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..6 {
                        let b = (t + round) % batches.len();
                        assert_reports_identical(
                            &engine.search_batch(&batches[b], k, beam),
                            &reference[b],
                            &format!("{shards} shards, caller {t}, round {round}, batch {b}"),
                        );
                    }
                });
            }
        });
    }
}

/// What the wake rule must not change: the same batches through an
/// engine whose pools are held inline (hand-off pinned at "never pays")
/// and one held fanned out (pinned at "free") give equal results, merged
/// counters and histograms, per-shard reports and sampled flights, from
/// four concurrent callers at 1/2/4/8 shards. Latencies are timing and
/// are not compared.
#[test]
fn forced_inline_and_forced_fan_out_answer_identically_at_1_2_4_8_shards() {
    let (base, queries) = dataset(400, 16);
    let (k, beam, workers) = (10, 48, 2usize);
    let all: Vec<u32> = (0..queries.len() as u32).collect();
    let batches = [
        queries.subset(&[]),
        queries.subset(&[5]),
        queries.subset(&[9, 2]),
        queries.subset(&all),
    ];
    let build = |ds: &Dataset, _: usize| FlatIndex {
        name: "walk",
        graph: exact_knng(ds, 8, 1),
        seeds: SeedStrategy::Random { count: 4 },
        router: Router::BestFirst,
    };
    let sampled = |rec: &FlightRecorder| -> BTreeSet<(u64, Vec<u32>)> {
        let kept = rec.flights().into_iter().filter(|f| f.sampled);
        kept.map(|f| (f.fingerprint, f.results)).collect()
    };
    for shards in [1usize, 2, 4, 8] {
        let set = ShardSet::build(
            &base,
            shards,
            PARTITION_SEED,
            NodeLayout::Split,
            false,
            2,
            build,
        )
        .unwrap();
        let opts = EngineOptions { workers, seed: 42 };
        // One full batch first: it starts every pool's threads and times
        // the walks, so a task's cost is known and the pin decides alone.
        let pinned = |handoff_ns: u64| {
            let engine = ShardedEngine::with_options(&set, opts.clone());
            engine.search_batch(&batches[3], k, beam);
            engine.pin_handoff_ns(handoff_ns);
            engine
        };
        let (inline, fanned) = (pinned(u64::MAX), pinned(0));
        for nq in [1usize, 2, 16] {
            assert!(!inline.occupies_lane(nq), "{shards} shards, {nq} queries");
            // One query on one shard is a single task wherever it runs.
            assert_eq!(fanned.occupies_lane(nq), shards > 1 || nq > 1);
        }
        let woken_before = inline.fleet_report().pool.jobs_fanned_out;

        let reference: Vec<ShardedBatchReport> = batches
            .iter()
            .map(|b| inline.search_batch(b, k, beam))
            .collect();
        for (b, want) in reference.iter().enumerate() {
            let nq = batches[b].len();
            for (s, shard) in want.per_shard.iter().enumerate() {
                // Nobody was woken, and the report reads as it always has.
                assert_eq!(shard.workers, workers.min(nq).max(1), "shard {s}");
                let claimed: u64 = shard.per_worker.iter().map(|w| w.queries_claimed).sum();
                assert_eq!(claimed, nq as u64, "shard {s}");
            }
            assert_reports_identical(
                &fanned.search_batch(&batches[b], k, beam),
                want,
                &format!("{shards} shards, batch {b}, fanned out"),
            );
        }
        let recorder = || {
            FlightRecorder::new(FlightOptions {
                sample_every: 2,
                capacity: 4096,
                seed: 3,
            })
        };
        let (inline_rec, fanned_rec) = (recorder(), recorder());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (batches, reference, start) = (&batches, &reference, &start);
                let sides = [(&inline, &inline_rec), (&fanned, &fanned_rec)];
                scope.spawn(move || {
                    start.wait();
                    for round in 0..6 {
                        let b = (t + round) % batches.len();
                        for (side, (engine, rec)) in sides.iter().enumerate() {
                            assert_reports_identical(
                                &engine.search_batch_flights(&batches[b], k, beam, rec),
                                &reference[b],
                                &format!("{shards} shards, caller {t}, batch {b}, side {side}"),
                            );
                        }
                    }
                });
            }
        });
        assert!(!sampled(&inline_rec).is_empty(), "vacuous: nothing sampled");
        assert_eq!(
            sampled(&inline_rec),
            sampled(&fanned_rec),
            "{shards} shards"
        );
        assert_eq!(
            inline.fleet_report().pool.jobs_fanned_out,
            woken_before,
            "{shards} shards: a pool held inline woke a worker"
        );
    }
}

/// Typed errors where the seed code panicked: empty datasets, impossible
/// shard counts, and graph/dataset size mismatches all come back as
/// matchable values with intact context.
#[test]
fn build_failures_return_typed_errors() {
    let (base, _) = dataset(100, 1);
    let build = exact_builder(Router::BestFirst);

    assert_eq!(
        ShardSet::build(&base, 0, 1, NodeLayout::Split, false, 1, &build).err(),
        Some(ShardError::NoShards)
    );

    let empty = Dataset::from_flat(Vec::new(), 0, 12);
    assert_eq!(
        ShardSet::build(&empty, 2, 1, NodeLayout::Split, false, 1, &build).err(),
        Some(ShardError::EmptyDataset)
    );

    // 3 points cannot fill 5 shards: the deal leaves shard 3 empty.
    let tiny = base.subset(&[0, 1, 2]);
    match ShardSet::build(&tiny, 5, 1, NodeLayout::Split, false, 1, &build) {
        Err(ShardError::EmptyShard {
            shard,
            shards: 5,
            points: 3,
        }) => assert!(shard >= 3),
        other => panic!("expected EmptyShard, got {:?}", other.err()),
    }

    // A builder returning a wrong-sized graph surfaces as a per-shard
    // index error with the shard number and the underlying cause.
    let bad = |_: &Dataset, _: usize| FlatIndex {
        name: "bad",
        graph: CsrGraph::from_lists(&[vec![0u32]]),
        seeds: SeedStrategy::Fixed(vec![0]),
        router: Router::BestFirst,
    };
    match ShardSet::build(&base, 2, 1, NodeLayout::Split, false, 1, bad) {
        Err(e @ ShardError::Index { shard: 0, source }) => {
            assert!(matches!(source, IndexError::SizeMismatch { graph: 1, .. }));
            assert!(std::error::Error::source(&e).is_some());
            assert!(!e.to_string().is_empty());
        }
        other => panic!("expected Index error, got {:?}", other.err()),
    }

    // The underlying constructors reject the same inputs directly.
    let empty_flat = FlatIndex {
        name: "t",
        graph: CsrGraph::from_lists(&Vec::<Vec<u32>>::new()),
        seeds: SeedStrategy::Fixed(Vec::new()),
        router: Router::BestFirst,
    };
    assert_eq!(
        LayoutIndex::try_from_flat(empty_flat, &empty, NodeLayout::Split, false).err(),
        Some(IndexError::EmptyDataset {
            context: "LayoutIndex"
        })
    );
    assert_eq!(
        QuantizedIndex::try_new(
            CsrGraph::from_lists(&Vec::<Vec<u32>>::new()),
            &empty,
            Vec::new()
        )
        .err(),
        Some(IndexError::EmptyDataset {
            context: "QuantizedIndex"
        })
    );
    let four = base.subset(&[0, 1, 2, 3]);
    assert_eq!(
        QuantizedIndex::try_new(CsrGraph::from_lists(&[vec![0u32]]), &four, vec![0]).err(),
        Some(IndexError::SizeMismatch {
            graph: 1,
            dataset: 4
        })
    );
}

/// Two exact shards over `base`: the fixture every close-rule test serves.
fn two_exact_shards(base: &Dataset) -> ShardSet {
    ShardSet::build(
        base,
        2,
        PARTITION_SEED,
        NodeLayout::Split,
        false,
        1,
        exact_builder(Router::BestFirst),
    )
    .unwrap()
}

/// A budget no passing test waits out.
const LONG: Duration = Duration::from_secs(30);
/// How long a test waits for something the close rule promises promptly;
/// below `LONG`, so waiting out the budget instead reads as a failure.
const PROMPT: Duration = Duration::from_secs(20);

/// An executor that holds its *first* batch inside `execute` until the
/// test releases it, so "a batch is executing" is a state the close-rule
/// tests enter and leave on command instead of racing against a timer.
/// Every batch's queries are logged in the order batches reach it.
struct Gated<'a, E: BatchExecutor> {
    inner: &'a E,
    hold_next: AtomicBool,
    entered: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
    seen: Mutex<Vec<Vec<Vec<f32>>>>,
}

/// The test's end of a [`Gated`] executor. Dropping it releases the held
/// batch too, so a failed assertion unwinds instead of hanging the join.
struct Gate {
    entered: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
}

impl<'a, E: BatchExecutor> Gated<'a, E> {
    fn new(inner: &'a E) -> (Self, Gate) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gated = Gated {
            inner,
            hold_next: AtomicBool::new(true),
            entered: entered_tx,
            release: Mutex::new(release_rx),
            seen: Mutex::new(Vec::new()),
        };
        let gate = Gate {
            entered: entered_rx,
            release: release_tx,
        };
        (gated, gate)
    }

    /// Holds the next batch to reach the executor, like the first.
    fn hold_next(&self) {
        self.hold_next.store(true, Ordering::SeqCst);
    }

    /// The batches executed so far, each as its queries in batch order.
    fn seen(&self) -> Vec<Vec<Vec<f32>>> {
        self.seen.lock().unwrap().clone()
    }
}

impl<E: BatchExecutor> BatchExecutor for Gated<'_, E> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn execute(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        rec: Option<(&FlightRecorder, &[u64])>,
    ) -> Vec<Vec<Neighbor>> {
        let batch = (0..queries.len() as u32)
            .map(|qi| queries.point(qi).to_vec())
            .collect();
        self.seen.lock().unwrap().push(batch);
        if self.hold_next.swap(false, Ordering::SeqCst) {
            let _ = self.entered.send(());
            // `Err` means the test dropped its gate: proceed either way.
            let _ = self.release.lock().unwrap().recv();
        }
        self.inner.execute(queries, k, beam, rec)
    }
}

impl Gate {
    /// Blocks until the held batch is inside the executor.
    fn wait_entered(&self) {
        self.entered
            .recv_timeout(PROMPT)
            .expect("the first batch never reached the executor");
    }

    fn release(&self) {
        self.release.send(()).unwrap();
    }
}

/// Polls `cond` (a state the test is waiting to *enter*, never a proof by
/// elapsed time) until it holds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let give_up = Instant::now() + PROMPT;
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn queries_as_rows(queries: &Dataset, ids: std::ops::Range<u32>) -> Vec<Vec<f32>> {
    ids.map(|qi| queries.point(qi).to_vec()).collect()
}

/// Idle close: with the executor free, a lone query is dispatched the
/// moment it arrives — the budget (here far longer than the test) is an
/// upper bound on the wait behind a busy executor, not a tax on sparse
/// traffic. Each call returns the unbatched engine's answer.
#[test]
fn queue_closes_at_once_when_the_executor_is_idle() {
    let (base, queries) = dataset(300, 4);
    let set = two_exact_shards(&base);
    let engine = ShardedEngine::new(&set);
    let queue = BatchQueue::new(
        &engine,
        QueueOptions {
            max_batch: 64,
            max_delay: LONG,
            k: 10,
            beam: base.len(),
        },
    );
    for qi in 0..queries.len() as u32 {
        let got = queue.submit(queries.point(qi));
        let want = engine.search_one(queries.point(qi), 10, base.len());
        assert_pools_identical(&got, &want, &format!("idle query {qi}"));
    }
    let stats = queue.stats();
    assert_eq!(stats.queries_total, queries.len() as u64);
    assert_eq!(
        stats.batches_total,
        queries.len() as u64,
        "sequential submits into an idle queue must each close alone"
    );
    assert_eq!(stats.batch_size.max(), Some(1));
    assert!(
        stats.queue_delay_ns.max().unwrap() < 1_000_000_000,
        "an idle queue must not wait out the budget: {:?} ns",
        stats.queue_delay_ns.max()
    );
}

/// Coalescing while busy: everything that arrives while batch 1 executes
/// rides batch 2, closed in submission order the moment batch 1 returns,
/// and each caller still gets exactly its own query's answer (results are
/// keyed by ticket).
#[test]
fn queue_coalesces_arrivals_while_the_executor_is_busy() {
    let (base, queries) = dataset(300, 6);
    let set = two_exact_shards(&base);
    let engine = ShardedEngine::new(&set);
    let (exec, gate) = Gated::new(&engine);
    let n = queries.len() as u32;
    let queue = BatchQueue::new(
        &exec,
        QueueOptions {
            max_batch: 64,
            max_delay: LONG,
            k: 10,
            beam: base.len(),
        },
    );
    let reference: Vec<Vec<Neighbor>> = (0..n)
        .map(|qi| engine.search_one(queries.point(qi), 10, base.len()))
        .collect();
    std::thread::scope(|scope| {
        let gate = gate;
        for qi in 0..n {
            let (queue, queries, reference) = (&queue, &queries, &reference);
            scope.spawn(move || {
                let got = queue.submit(queries.point(qi));
                assert_pools_identical(
                    &got,
                    &reference[qi as usize],
                    &format!("coalesced query {qi}"),
                );
            });
            if qi == 0 {
                gate.wait_entered();
            } else {
                // One at a time, so submission order is query order.
                wait_until("the rider to enqueue", || queue.depth() == qi as usize);
            }
        }
        gate.release();
    });
    let stats = queue.stats();
    assert_eq!(stats.queries_total, n as u64);
    assert_eq!(
        stats.batches_total, 2,
        "arrivals behind a busy executor must share one batch"
    );
    assert_eq!(stats.batch_size.max(), Some(n as u64 - 1));
    assert_eq!(
        exec.seen(),
        [
            queries_as_rows(&queries, 0..1),
            queries_as_rows(&queries, 1..n)
        ],
        "the second batch holds every rider in submission order"
    );
}

/// The budget still bounds a busy wait: one query pending behind a held
/// batch closes once `max_delay` has passed and executes overlapped — it
/// returns while batch 1 is still inside the executor.
#[test]
fn queue_budget_bounds_the_wait_behind_a_busy_executor() {
    let (base, queries) = dataset(300, 2);
    let set = two_exact_shards(&base);
    let engine = ShardedEngine::new(&set);
    let (exec, gate) = Gated::new(&engine);
    let budget = Duration::from_millis(50);
    let queue = BatchQueue::new(
        &exec,
        QueueOptions {
            max_batch: 64,
            max_delay: budget,
            k: 10,
            beam: base.len(),
        },
    );
    std::thread::scope(|scope| {
        let gate = gate;
        scope.spawn(|| queue.submit(queries.point(0)));
        gate.wait_entered();
        let (tx, rx) = mpsc::channel();
        let (queue, queries, engine, beam) = (&queue, &queries, &engine, base.len());
        scope.spawn(move || {
            let got = queue.submit(queries.point(1));
            let want = engine.search_one(queries.point(1), 10, beam);
            assert_pools_identical(&got, &want, "overdue query");
            tx.send(()).unwrap();
        });
        rx.recv_timeout(PROMPT)
            .expect("a query behind a held batch must close on the budget");
        let stats = queue.stats();
        assert_eq!(stats.batches_total, 1, "batch 1 is still executing");
        assert!(
            stats.queue_delay_ns.max().unwrap() >= budget.as_nanos() as u64,
            "with the executor busy the close waits for the budget"
        );
        gate.release();
    });
    assert_eq!(queue.stats().batches_total, 2);
}

/// Full closes while busy: `max_batch` pending queries close and execute
/// without waiting for the batch ahead of them, as they always have.
#[test]
fn queue_closes_a_full_batch_while_the_executor_is_busy() {
    let (base, queries) = dataset(300, 4);
    let set = two_exact_shards(&base);
    let engine = ShardedEngine::new(&set);
    let (exec, gate) = Gated::new(&engine);
    let n = queries.len() as u32;
    let queue = BatchQueue::new(
        &exec,
        QueueOptions {
            max_batch: n as usize - 1,
            max_delay: LONG,
            k: 10,
            beam: base.len(),
        },
    );
    std::thread::scope(|scope| {
        let gate = gate;
        scope.spawn(|| queue.submit(queries.point(0)));
        gate.wait_entered();
        let (tx, rx) = mpsc::channel();
        for qi in 1..n {
            let (queue, queries, engine, tx) = (&queue, &queries, &engine, tx.clone());
            scope.spawn(move || {
                let got = queue.submit(queries.point(qi));
                let want = engine.search_one(queries.point(qi), 10, queue.options().beam);
                assert_pools_identical(&got, &want, &format!("full-batch query {qi}"));
                tx.send(()).unwrap();
            });
            if qi + 1 < n {
                wait_until("the rider to enqueue", || queue.depth() == qi as usize);
            }
        }
        for _ in 1..n {
            rx.recv_timeout(PROMPT)
                .expect("a full batch must not wait for the batch ahead of it");
        }
        let stats = queue.stats();
        assert_eq!(stats.batches_total, 1, "batch 1 is still executing");
        assert_eq!(stats.batch_size.max(), Some(n as u64 - 1));
        gate.release();
    });
    assert_eq!(queue.stats().batches_total, 2);
    assert_eq!(
        exec.seen(),
        [
            queries_as_rows(&queries, 0..1),
            queries_as_rows(&queries, 1..n)
        ]
    );
}

/// Stress: many threads stream interleaved queries through one queue;
/// every answer equals the unbatched reference regardless of which batch
/// it rode in, and no query is lost or double-counted.
#[test]
fn queue_stress_concurrent_submitters_match_unbatched_reference() {
    let (base, queries) = dataset(300, 10);
    let set = ShardSet::build(
        &base,
        4,
        PARTITION_SEED,
        NodeLayout::Split,
        false,
        1,
        exact_builder(Router::BestFirst),
    )
    .unwrap();
    let engine = ShardedEngine::new(&set);
    let queue = BatchQueue::new(
        &engine,
        QueueOptions {
            max_batch: 8,
            max_delay: std::time::Duration::from_millis(2),
            k: 10,
            beam: base.len(),
        },
    );
    let reference: Vec<Vec<Neighbor>> = (0..queries.len() as u32)
        .map(|qi| engine.search_one(queries.point(qi), 10, base.len()))
        .collect();
    let threads = 6u32;
    let rounds = 20u32;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let queue = &queue;
            let queries = &queries;
            let reference = &reference;
            scope.spawn(move || {
                let nq = queries.len() as u32;
                for r in 0..rounds {
                    let qi = (t * 7 + r) % nq;
                    let got = queue.submit(queries.point(qi));
                    assert_pools_identical(
                        &got,
                        &reference[qi as usize],
                        &format!("stress t{t} r{r} q{qi}"),
                    );
                }
            });
        }
    });
    let stats = queue.stats();
    assert_eq!(stats.queries_total, (threads * rounds) as u64);
    assert!(stats.batches_total <= stats.queries_total);
    assert_eq!(stats.batch_size.count(), stats.batches_total);
    assert_eq!(stats.queue_delay_ns.count(), stats.queries_total);
}

/// An executor that fails on one recognizable query.
struct PanicsOnMarker<'a> {
    inner: &'a ShardedEngine<'a>,
}

const MARKER: f32 = 12345.0;

impl BatchExecutor for PanicsOnMarker<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn execute(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        rec: Option<(&FlightRecorder, &[u64])>,
    ) -> Vec<Vec<Neighbor>> {
        if (0..queries.len() as u32).any(|qi| queries.point(qi)[0] == MARKER) {
            panic!("marker query reached the executor");
        }
        self.inner.execute(queries, k, beam, rec)
    }
}

/// Liveness under an executor panic: the four submitters sharing the
/// failed batch all unwind (the leader with the executor's own payload)
/// instead of sleeping forever, the unwound batch gives its lane back (a
/// lone query afterwards is dispatched at once, not after the budget),
/// and the queue answers the next batch. A held primer batch keeps the
/// executor busy so the four coalesce into one full batch. Everything is
/// leaked to `'static` so a regression fails on the timeouts below
/// instead of hanging a scope's join.
#[test]
fn queue_executor_panic_unwinds_every_rider_and_the_queue_keeps_serving() {
    let (base, queries) = dataset(300, 4);
    let beam = base.len();
    let set: &'static ShardSet = Box::leak(Box::new(two_exact_shards(&base)));
    let engine: &'static ShardedEngine<'static> = Box::leak(Box::new(ShardedEngine::new(set)));
    let panicky: &'static PanicsOnMarker<'static> =
        Box::leak(Box::new(PanicsOnMarker { inner: engine }));
    let (exec, gate) = Gated::new(panicky);
    let exec: &'static Gated<'static, PanicsOnMarker<'static>> = Box::leak(Box::new(exec));
    let queue: &'static BatchQueue<'static, Gated<'static, PanicsOnMarker<'static>>> =
        Box::leak(Box::new(BatchQueue::new(
            exec,
            QueueOptions {
                max_batch: 4,
                max_delay: LONG,
                k: 10,
                beam,
            },
        )));

    // One submitter per point; outcomes arrive tagged with their index.
    let launch = |points: Vec<Vec<f32>>| {
        let (tx, rx) = mpsc::channel();
        for (i, q) in points.into_iter().enumerate() {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| queue.submit(&q)));
                let _ = tx.send((i, outcome));
            });
        }
        rx
    };
    let collect = |rx: mpsc::Receiver<(usize, std::thread::Result<Vec<Neighbor>>)>, n: usize| {
        (0..n)
            .map(|_| {
                rx.recv_timeout(PROMPT)
                    .expect("a submitter neither returned nor unwound")
            })
            .collect::<Vec<_>>()
    };
    let assert_answered =
        |outcomes: Vec<(usize, std::thread::Result<Vec<Neighbor>>)>, first: u32, what: &str| {
            for (i, outcome) in outcomes {
                let qi = first + i as u32;
                let got = outcome.unwrap_or_else(|_| panic!("{what} query {qi} unwound"));
                let want = engine.search_one(queries.point(qi), 10, beam);
                assert_pools_identical(&got, &want, &format!("{what} query {qi}"));
            }
        };

    let primer = launch(queries_as_rows(&queries, 3..4));
    gate.wait_entered();

    let mut poisoned = queries_as_rows(&queries, 0..3);
    poisoned.push(vec![MARKER; base.dim()]);
    let messages: Vec<String> = collect(launch(poisoned), 4)
        .into_iter()
        .map(|(i, outcome)| {
            let payload = outcome.expect_err(&format!("submitter {i} got an answer"));
            payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .expect("a string payload")
        })
        .collect();
    let original = messages
        .iter()
        .filter(|m| m.as_str() == "marker query reached the executor")
        .count();
    assert_eq!(original, 1, "the leader re-raises verbatim: {messages:?}");
    assert_eq!(queue.depth(), 0);

    gate.release();
    assert_answered(collect(primer, 1), 3, "primer");

    // Both batches are out of the executor. Had the unwind kept its lane,
    // this lone query would wait out the 30 s budget and miss `PROMPT`.
    assert_answered(
        collect(launch(queries_as_rows(&queries, 0..1)), 1),
        0,
        "lone",
    );
    let stats = queue.stats();
    assert_eq!(stats.batches_total, 2, "only answered batches count");
    assert_eq!(stats.queries_total, 2);

    assert_answered(
        collect(launch(queries_as_rows(&queries, 0..4)), 4),
        0,
        "post-panic",
    );
    let stats = queue.stats();
    assert_eq!(stats.queries_total, 6, "the failed batch counts nowhere");
    assert_eq!(stats.batch_size.count(), stats.batches_total);
}

/// A [`Gated`] executor that also answers [`BatchExecutor::occupies_lane`]
/// — which `Gated` leaves at the trait's default, so every close-rule
/// test above runs the rule an executor that never heard of lanes gets.
struct Laned<'a, E: BatchExecutor> {
    gated: Gated<'a, E>,
    /// What the executor says of every batch, switched by the test.
    fans_out: AtomicBool,
}

impl<E: BatchExecutor> BatchExecutor for Laned<'_, E> {
    fn dim(&self) -> usize {
        self.gated.dim()
    }

    fn execute(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        rec: Option<(&FlightRecorder, &[u64])>,
    ) -> Vec<Vec<Neighbor>> {
        self.gated.execute(queries, k, beam, rec)
    }

    fn occupies_lane(&self, _nq: usize) -> bool {
        self.fans_out.load(Ordering::SeqCst)
    }
}

/// The lane: while a batch the executor runs on its leader's thread alone
/// is held inside it, a second submitter closes, executes and returns —
/// the two overlap. Once the executor says its batches fan out, arrivals
/// behind a held one coalesce into one batch again, exactly as under the
/// default.
#[test]
fn queue_overlaps_lane_free_batches_and_coalesces_behind_one_that_fans_out() {
    let (base, queries) = dataset(300, 5);
    let set = two_exact_shards(&base);
    let engine = ShardedEngine::new(&set);
    let (gated, gate) = Gated::new(&engine);
    let exec = Laned {
        gated,
        fans_out: AtomicBool::new(false),
    };
    let beam = base.len();
    let queue = BatchQueue::new(
        &exec,
        QueueOptions {
            max_batch: 64,
            max_delay: LONG,
            k: 10,
            beam,
        },
    );
    let submit_checked = |qi: u32| {
        let got = queue.submit(queries.point(qi));
        let want = engine.search_one(queries.point(qi), 10, beam);
        assert_pools_identical(&got, &want, &format!("query {qi}"));
    };
    std::thread::scope(|scope| {
        let gate = gate;
        let submit_checked = &submit_checked;
        // Lane-free: query 0 is held inside the executor, query 1 runs
        // beside it and is back first.
        scope.spawn(move || submit_checked(0));
        gate.wait_entered();
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || {
            submit_checked(1);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(PROMPT)
            .expect("a batch that holds no lane must not hold back the next");
        let stats = queue.stats();
        assert_eq!(stats.batches_total, 1, "query 0 is still executing");
        assert!(stats.queue_delay_ns.max().unwrap() < PROMPT.as_nanos() as u64);
        gate.release();
        wait_until("query 0 to return", || queue.stats().batches_total == 2);

        // Fanned out: query 2 is held and holds the lane; 3 and 4 wait
        // for it and ride one batch.
        exec.fans_out.store(true, Ordering::SeqCst);
        exec.gated.hold_next();
        scope.spawn(move || submit_checked(2));
        gate.wait_entered();
        for qi in 3..5u32 {
            scope.spawn(move || submit_checked(qi));
            wait_until("the rider to enqueue", || queue.depth() == qi as usize - 2);
        }
        assert_eq!(queue.stats().batches_total, 2, "nothing closed behind it");
        gate.release();
    });
    let stats = queue.stats();
    assert_eq!(stats.queries_total, 5);
    assert_eq!(stats.batches_total, 4);
    assert_eq!(
        exec.gated.seen(),
        [
            queries_as_rows(&queries, 0..1),
            queries_as_rows(&queries, 1..2),
            queries_as_rows(&queries, 2..3),
            queries_as_rows(&queries, 3..5),
        ]
    );
}

/// A lane-free batch that panics had no lane to give back: the count of
/// batches holding it must not move (an underflow would read as "busy"
/// for ever). Afterwards a batch that does fan out still takes the lane
/// and still frees it — the lone query behind it is dispatched on its
/// return, not after the 30 s budget.
#[test]
fn queue_lane_free_panic_leaves_the_lane_count_alone() {
    let (base, queries) = dataset(300, 3);
    let beam = base.len();
    let set = two_exact_shards(&base);
    let engine = ShardedEngine::new(&set);
    let panicky = PanicsOnMarker { inner: &engine };
    let (gated, gate) = Gated::new(&panicky);
    gated.hold_next.store(false, Ordering::SeqCst);
    let exec = Laned {
        gated,
        fans_out: AtomicBool::new(false),
    };
    let queue = BatchQueue::new(
        &exec,
        QueueOptions {
            max_batch: 64,
            max_delay: LONG,
            k: 10,
            beam,
        },
    );
    let marker = vec![MARKER; base.dim()];
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| queue.submit(&marker)));
    assert!(
        unwound.is_err(),
        "the marker batch must unwind its submitter"
    );

    exec.fans_out.store(true, Ordering::SeqCst);
    exec.gated.hold_next();
    std::thread::scope(|scope| {
        let gate = gate;
        let (queue, queries) = (&queue, &queries);
        scope.spawn(move || queue.submit(queries.point(0)));
        gate.wait_entered();
        let (tx, rx) = mpsc::channel();
        scope.spawn(move || {
            queue.submit(queries.point(1));
            tx.send(()).unwrap();
        });
        wait_until("the rider to enqueue", || queue.depth() == 1);
        assert_eq!(
            queue.stats().batches_total,
            0,
            "the rider waits for the lane"
        );
        gate.release();
        rx.recv_timeout(PROMPT)
            .expect("the returning batch must free the lane it took");
    });
    assert_eq!(
        queue.stats().batches_total,
        2,
        "the failed batch counts nowhere"
    );
}

fn neighbors_from(raw: &[(u32, f32)]) -> Vec<Neighbor> {
    raw.iter().map(|&(id, d)| Neighbor::new(id, d)).collect()
}

fn global_k_select(mut all: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    all.sort_unstable();
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The merge law in isolation: for any candidates, any assignment of
    /// them to shards, and any k, the scatter-gather merge equals the
    /// global k-select; it is commutative in its pools and folding
    /// pairwise (a gather tree) gives the same answer.
    #[test]
    fn merge_is_a_k_select_over_any_partition(
        raw in prop::collection::vec((0u32..5_000, 0.0f32..1_000.0), 0..60),
        assign in prop::collection::vec(0usize..4, 0..60),
        k in 1usize..20,
    ) {
        let all = neighbors_from(&raw);
        // Deal candidate i to pool assign[i % assign.len()] (pool 0 when
        // no assignment was generated): an arbitrary 4-way partition.
        let mut pools: Vec<Vec<Neighbor>> = vec![Vec::new(); 4];
        for (i, n) in all.iter().enumerate() {
            let p = if assign.is_empty() { 0 } else { assign[i % assign.len()] };
            pools[p].push(*n);
        }
        // Pools arrive nearest-first from real shards; sort to match.
        for p in &mut pools {
            p.sort_unstable();
        }

        let want = global_k_select(all, k);
        let merged = merge_topk(&pools, k);
        prop_assert_eq!(&merged, &want, "merge must equal the global k-select");

        let mut reversed = pools.clone();
        reversed.reverse();
        prop_assert_eq!(merge_topk(&reversed, k), want.clone(), "commutativity");

        let mut acc: Vec<Neighbor> = Vec::new();
        for p in &pools {
            acc = merge_two(&acc, p, k);
        }
        prop_assert_eq!(acc, want, "pairwise fold (gather tree) association");
    }

    /// Shard-count bit-identity as a property: random seeds and shard
    /// counts, results always equal the 1-shard deal.
    #[test]
    fn any_shard_count_matches_single_shard(
        seed in 0u64..u64::MAX,
        shards in 2usize..6,
    ) {
        let (base, queries) = dataset(120, 3);
        let build = exact_builder(Router::BestFirst);
        let run = |s: usize| {
            let set = ShardSet::build(&base, s, seed, NodeLayout::Split, false, 1, &build)
                .unwrap();
            let engine = ShardedEngine::new(&set);
            engine.search_batch(&queries, 8, base.len()).results
        };
        let single = run(1);
        let multi = run(shards);
        for (a, b) in single.iter().zip(&multi) {
            prop_assert_eq!(a, b);
        }
    }
}
