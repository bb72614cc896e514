//! Integration suite for the per-query flight recorder.
//!
//! The contracts under test, per the observability design:
//!
//! - **compile-away**: the recorded and plain batch paths return
//!   bit-identical results (what recording costs is the benchmark's
//!   `trace.overhead_share` and `flight.*_share` rows on `serve-open`);
//! - **deterministic sampling**: the stable dump of seed-sampled
//!   flights is byte-identical at 1/2/8 workers and across repeated
//!   runs at 1/2/4 shards, and the sampled fingerprint *set* is
//!   identical across shard counts;
//! - **stage attribution**: sharded flights carry scatter, one
//!   shard-search span per shard (with that shard's NDC), and merge;
//!   queue-admitted flights carry a queue-wait span;
//! - **Chrome export**: the trace-event JSON round-trips through the
//!   in-tree parser with the fields `chrome://tracing` requires.

use weavess_core::components::SeedStrategy;
use weavess_core::index::FlatIndex;
use weavess_core::search::Router;
use weavess_core::serve::{EngineOptions, QueryEngine};
use weavess_core::shard::{BatchExecutor, BatchQueue, QueueOptions, ShardSet, ShardedEngine};
use weavess_core::telemetry::flight::{parse_json, query_fingerprint, Flight, SpanRec, Stage};
use weavess_core::telemetry::{FlightOptions, FlightRecorder};
use weavess_core::NodeLayout;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::Dataset;
use weavess_graph::base::exact_knng;

const K: usize = 10;
const BEAM: usize = 40;

fn dataset(n: usize, nq: usize) -> (Dataset, Dataset) {
    MixtureSpec::table10(12, n, 3, 5.0, nq)
        .with_seed(777)
        .generate()
}

fn flat(ds: &Dataset) -> FlatIndex {
    FlatIndex {
        name: "flight-test",
        graph: exact_knng(ds, 10, 2),
        seeds: SeedStrategy::Random { count: 8 },
        router: Router::BestFirst,
    }
}

fn recorder() -> FlightRecorder {
    FlightRecorder::new(FlightOptions {
        sample_every: 4,
        capacity: 512,
        seed: 0xF11C47,
    })
}

#[test]
fn recorded_path_returns_identical_results() {
    let (ds, qs) = dataset(500, 30);
    let idx = flat(&ds);
    let engine = QueryEngine::new(&idx, &ds);
    let plain = engine.search_batch(&qs, K, BEAM);
    let rec = recorder();
    let recorded = engine.search_batch_flights(&qs, K, BEAM, &rec);
    assert_eq!(plain.results, recorded.results);
    assert_eq!(plain.stats, recorded.stats);
    assert!(rec.recorded_total() > 0, "vacuous: nothing sampled");
}

#[test]
fn stable_dump_is_byte_identical_at_1_2_8_workers() {
    let (ds, qs) = dataset(500, 40);
    let idx = flat(&ds);
    let run = |workers: usize| {
        let engine = QueryEngine::with_options(
            &idx,
            &ds,
            EngineOptions {
                workers,
                seed: 0xFEED,
            },
        );
        let rec = recorder();
        // Several batches: batch sequence numbers must line up too.
        engine.search_batch_flights(&qs, K, BEAM, &rec);
        engine.search_batch_flights(&qs.subset(&[3, 1, 4]), K, BEAM, &rec);
        rec.dump_stable()
    };
    let one = run(1);
    assert!(!one.is_empty(), "vacuous: no sampled flights");
    for workers in [2usize, 8] {
        assert_eq!(run(workers), one, "workers={workers}");
    }
    // And across repeated runs at the same worker count.
    assert_eq!(run(2), run(2));
}

fn sharded_set(ds: &Dataset, shards: usize) -> ShardSet {
    ShardSet::build(ds, shards, 0xD15C0, NodeLayout::Fused, false, 1, |d, _| {
        FlatIndex {
            name: "flight-shard",
            graph: exact_knng(d, 6, 1),
            seeds: SeedStrategy::Fixed((0..d.len() as u32).collect()),
            router: Router::BestFirst,
        }
    })
    .expect("shard build")
}

#[test]
fn sharded_dumps_are_stable_and_sample_the_same_queries_across_shard_counts() {
    let (ds, qs) = dataset(400, 40);
    let mut sampled_sets: Vec<Vec<String>> = Vec::new();
    for shards in [1usize, 2, 4] {
        let set = sharded_set(&ds, shards);
        let run = || {
            let engine = ShardedEngine::with_options(
                &set,
                EngineOptions {
                    workers: 2,
                    seed: 0xFEED,
                },
            );
            let rec = recorder();
            engine.search_batch_flights(&qs, K, BEAM, &rec);
            rec
        };
        let dump = run().dump_stable();
        // Byte-stable across repeated runs at this shard count.
        assert_eq!(run().dump_stable(), dump, "shards={shards}");
        assert!(!dump.is_empty(), "vacuous at shards={shards}");
        // Per-shard NDC differs across shard counts; the sampled
        // fingerprint set must not.
        let fps: Vec<String> = dump
            .lines()
            .filter(|l| l.starts_with("flight "))
            .map(|l| l.split_whitespace().nth(3).unwrap().to_string())
            .collect();
        sampled_sets.push(fps);
        // Stage attribution: every flight carries scatter, one
        // shard-search per shard, and merge.
        let rec = run();
        for f in rec.flights().iter().filter(|f| f.sampled) {
            let shard_spans = f
                .spans
                .iter()
                .filter(|s| s.stage == Stage::ShardSearch)
                .count();
            assert_eq!(shard_spans, shards, "shards={shards}");
            assert!(f.spans.iter().any(|s| s.stage == Stage::Scatter));
            assert!(f.spans.iter().any(|s| s.stage == Stage::Merge));
            assert!(f
                .spans
                .iter()
                .filter(|s| s.stage == Stage::ShardSearch)
                .all(|s| s.ndc > 0));
        }
    }
    assert_eq!(sampled_sets[0], sampled_sets[1]);
    assert_eq!(sampled_sets[0], sampled_sets[2]);
}

#[test]
fn sharded_recorded_results_match_plain() {
    let (ds, qs) = dataset(400, 25);
    let set = sharded_set(&ds, 3);
    let engine = ShardedEngine::new(&set);
    let plain = engine.search_batch(&qs, K, BEAM);
    let rec = recorder();
    let recorded = engine.search_batch_flights(&qs, K, BEAM, &rec);
    assert_eq!(plain.results, recorded.results);
}

#[test]
fn flight_results_match_the_batch_report() {
    let (ds, qs) = dataset(400, 40);
    let idx = flat(&ds);
    let engine = QueryEngine::new(&idx, &ds);
    let rec = recorder();
    let report = engine.search_batch_flights(&qs, K, BEAM, &rec);
    let mut checked = 0;
    for f in rec.flights().iter().filter(|f| f.sampled) {
        let expect: Vec<u32> = report.results[f.qi as usize].iter().map(|n| n.id).collect();
        assert_eq!(f.results, expect, "qi={}", f.qi);
        assert_eq!(f.fingerprint, query_fingerprint(qs.point(f.qi)));
        checked += 1;
    }
    assert!(checked > 0, "vacuous: no sampled flights");
}

#[test]
fn queue_admitted_flights_carry_a_queue_wait_span() {
    let (ds, qs) = dataset(400, 16);
    let idx = flat(&ds);
    let engine = QueryEngine::with_options(
        &idx,
        &ds,
        EngineOptions {
            workers: 2,
            seed: 7,
        },
    );
    // sample_every=1: every admitted query gets a flight.
    let rec = FlightRecorder::new(FlightOptions {
        sample_every: 1,
        capacity: 64,
        seed: 1,
    });
    let queue = BatchQueue::with_flights(
        &engine,
        QueueOptions {
            max_batch: 4,
            max_delay: std::time::Duration::from_millis(5),
            k: K,
            beam: BEAM,
        },
        &rec,
    );
    std::thread::scope(|scope| {
        for qi in 0..qs.len() as u32 {
            let queue = &queue;
            let q = qs.point(qi);
            let engine = &engine;
            scope.spawn(move || {
                let got = queue.submit(q);
                assert_eq!(got, engine.search_one(q, K, BEAM));
            });
        }
    });
    let flights = rec.flights();
    assert_eq!(
        flights.iter().filter(|f| f.sampled).count(),
        qs.len(),
        "every query should fly at sample_every=1"
    );
    for f in flights.iter().filter(|f| f.sampled) {
        assert_eq!(f.spans[0].stage, Stage::QueueWait, "fp={:x}", f.fingerprint);
        assert!(f.spans.iter().any(|s| s.stage == Stage::Search));
    }
    // Queue satellite: the admission delay histogram recorded each wait.
    let snap = queue.snapshot();
    assert_eq!(snap.stats.queue_delay_ns.count(), qs.len() as u64);
    assert_eq!(snap.depth, 0);
}

#[test]
fn chrome_trace_export_round_trips() {
    let (ds, qs) = dataset(400, 30);
    let set = sharded_set(&ds, 2);
    let engine = ShardedEngine::new(&set);
    let rec = recorder();
    engine.search_batch_flights(&qs, K, BEAM, &rec);
    let json = rec.chrome_trace_json();
    let doc = parse_json(&json).expect("export must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        // The complete-event fields chrome://tracing requires.
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        for key in ["name", "ts", "dur", "pid", "tid", "args"] {
            assert!(e.get(key).is_some(), "missing {key}");
        }
        names.insert(e.get("name").unwrap().as_str().unwrap().to_string());
    }
    for stage in ["scatter", "shard_search", "merge"] {
        assert!(names.contains(stage), "no {stage} events in export");
    }
}

#[test]
fn slowest_query_is_kept_even_when_not_sampled() {
    let (ds, qs) = dataset(400, 40);
    let idx = flat(&ds);
    let engine = QueryEngine::new(&idx, &ds);
    // sample_every=0: seeded sampling off, only the slowest rule keeps.
    let rec = FlightRecorder::new(FlightOptions {
        sample_every: 0,
        capacity: 64,
        seed: 1,
    });
    engine.search_batch_flights(&qs, K, BEAM, &rec);
    let flights = rec.flights();
    assert!(
        !flights.is_empty(),
        "the batch's slowest query must be kept"
    );
    assert!(flights.iter().all(|f| !f.sampled));
    // And the stable dump excludes them (they are timing-dependent).
    assert!(rec.dump_stable().is_empty());
}

// ---------------------------------------------------------------------
// Absolute pins: the stable dumps and the timing shape of every flight
// layout (unsharded or sharded, sampled or slowest, with or without an
// admission wait).

/// FNV-1a over a stable dump's bytes.
fn dump_digest(dump: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in dump.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The golden digest for the kernel tier this process runs: result ids
/// and per-span NDC move by float reassociation across tiers, so an
/// absolute pin is one constant per tier.
fn golden_for_tier([scalar, unrolled, simd]: [u64; 3]) -> u64 {
    match weavess_data::KernelTier::active() {
        weavess_data::KernelTier::Scalar => scalar,
        weavess_data::KernelTier::Unrolled => unrolled,
        weavess_data::KernelTier::Simd => simd,
    }
}

fn pinned_options() -> EngineOptions {
    EngineOptions {
        workers: 2,
        seed: 0xFEED,
    }
}

/// Feeds `qs` through a recording queue one submit at a time, so every
/// batch holds one query and every sampled flight carries a queue wait.
fn submit_one_by_one<E: BatchExecutor>(exec: &E, qs: &Dataset, rec: &FlightRecorder) {
    let opts = QueueOptions {
        max_batch: 4,
        max_delay: std::time::Duration::from_millis(5),
        k: K,
        beam: BEAM,
    };
    let queue = BatchQueue::with_flights(exec, opts, rec);
    for qi in 0..qs.len() as u32 {
        queue.submit(qs.point(qi));
    }
}

/// The timing shape every flight has, sharded (`shards: Some(n)`) or
/// not: spans in lifecycle order, a queue wait only on a sampled flight
/// and only first, every search span starting where the wait ends, the
/// merge starting after the scatter, and `total_ns` the sum of the
/// stages on the critical path.
fn assert_timing_shape(f: &Flight, shards: Option<usize>) {
    let wait = match f.spans[0] {
        s if s.stage == Stage::QueueWait => {
            assert!(f.sampled, "a slowest-only flight carries no queue wait");
            assert_eq!(s.start_ns, 0);
            s.dur_ns
        }
        _ => 0,
    };
    let body: Vec<&SpanRec> = f
        .spans
        .iter()
        .filter(|s| s.stage != Stage::QueueWait)
        .collect();
    assert!(
        f.spans.iter().skip(1).all(|s| s.stage != Stage::QueueWait),
        "the queue wait comes first"
    );
    let stages: Vec<Stage> = body
        .iter()
        .map(|s| s.stage)
        .filter(|&s| s != Stage::Handoff)
        .collect();
    match shards {
        None => {
            assert_eq!(stages, [Stage::Search]);
            assert_eq!(body[0].shard, None);
            assert_eq!(body[0].start_ns, wait);
            assert_eq!(f.total_ns, wait + body[0].dur_ns);
        }
        Some(n) => {
            let searches = if f.sampled { n } else { 1 };
            let mut want = vec![Stage::Scatter];
            want.extend(std::iter::repeat_n(Stage::ShardSearch, searches));
            want.push(Stage::Merge);
            assert_eq!(stages, want);
            let scatter = body[0];
            assert_eq!(scatter.start_ns, wait);
            if let Some(h) = body.iter().position(|s| s.stage == Stage::Handoff) {
                assert_eq!(h, 1, "the hand-off follows its scatter");
                assert_eq!(body[1].start_ns, wait);
            }
            let shard_spans: Vec<&&SpanRec> = body
                .iter()
                .filter(|s| s.stage == Stage::ShardSearch)
                .collect();
            for (s, span) in shard_spans.iter().enumerate() {
                assert_eq!(span.start_ns, wait, "shard searches start at the wait");
                if f.sampled {
                    assert_eq!(span.shard, Some(s as u32), "shard order");
                } else {
                    assert!(span.shard.is_some_and(|x| (x as usize) < n));
                }
            }
            let merge = body.last().unwrap();
            assert_eq!(merge.start_ns, wait + scatter.dur_ns);
            assert_eq!(f.total_ns, wait + scatter.dur_ns + merge.dur_ns);
        }
    }
}

#[test]
fn unsharded_stable_dump_matches_golden_digest() {
    let (ds, qs) = dataset(500, 40);
    let idx = flat(&ds);
    let engine = QueryEngine::with_options(&idx, &ds, pinned_options());
    let rec = recorder();
    engine.search_batch_flights(&qs, K, BEAM, &rec);
    engine.search_batch_flights(&qs.subset(&[3, 1, 4]), K, BEAM, &rec);
    for f in &rec.flights() {
        assert_timing_shape(f, None);
    }
    let got = dump_digest(&rec.dump_stable());
    let want = golden_for_tier([
        0x0307_b087_0c28_5cb3,
        0x0307_b087_0c28_5cb3,
        0x0307_b087_0c28_5cb3,
    ]);
    assert_eq!(got, want, "{got:#018x} != golden {want:#018x}");
}

#[test]
fn sharded_stable_dumps_match_golden_digests() {
    let (ds, qs) = dataset(400, 40);
    let goldens: [[u64; 3]; 3] = [
        [
            0xce8b_2dfb_8701_927a,
            0xce8b_2dfb_8701_927a,
            0xce8b_2dfb_8701_927a,
        ],
        [
            0xf2db_9b82_4cca_3995,
            0xf2db_9b82_4cca_3995,
            0xf2db_9b82_4cca_3995,
        ],
        [
            0x2b81_bd96_84a6_5910,
            0x2b81_bd96_84a6_5910,
            0x2b81_bd96_84a6_5910,
        ],
    ];
    let mut wrong = Vec::new();
    for (shards, golden) in [1usize, 2, 4].into_iter().zip(goldens) {
        let set = sharded_set(&ds, shards);
        let engine = ShardedEngine::with_options(&set, pinned_options());
        let rec = recorder();
        engine.search_batch_flights(&qs, K, BEAM, &rec);
        for f in &rec.flights() {
            assert_timing_shape(f, Some(shards));
        }
        let (got, want) = (dump_digest(&rec.dump_stable()), golden_for_tier(golden));
        if got != want {
            wrong.push(format!(
                "{shards} shards: {got:#018x} != golden {want:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn queue_admitted_stable_dumps_match_golden_digests() {
    let (ds, qs) = dataset(400, 24);
    let idx = flat(&ds);
    let engine = QueryEngine::with_options(&idx, &ds, pinned_options());
    let set = sharded_set(&ds, 2);
    let sharded = ShardedEngine::with_options(&set, pinned_options());
    let (unsharded_rec, sharded_rec) = (recorder(), recorder());
    submit_one_by_one(&engine, &qs, &unsharded_rec);
    submit_one_by_one(&sharded, &qs, &sharded_rec);
    let mut wrong = Vec::new();
    for (name, rec, shards, golden) in [
        (
            "unsharded",
            &unsharded_rec,
            None,
            [
                0x59d2_b8c7_c89f_0caf,
                0x59d2_b8c7_c89f_0caf,
                0x59d2_b8c7_c89f_0caf,
            ],
        ),
        (
            "2 shards",
            &sharded_rec,
            Some(2),
            [
                0x2418_6691_4362_76ac,
                0x2418_6691_4362_76ac,
                0x2418_6691_4362_76ac,
            ],
        ),
    ] {
        let flights = rec.flights();
        assert!(flights.iter().any(|f| f.sampled), "vacuous: {name}");
        for f in &flights {
            assert_timing_shape(f, shards);
            if f.sampled {
                assert_eq!(f.spans[0].stage, Stage::QueueWait, "{name}");
            }
        }
        let (got, want) = (dump_digest(&rec.dump_stable()), golden_for_tier(golden));
        if got != want {
            wrong.push(format!("{name}: {got:#018x} != golden {want:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn slowest_flights_have_the_pinned_span_lists() {
    let (ds, qs) = dataset(400, 40);
    let slowest_only = || {
        FlightRecorder::new(FlightOptions {
            sample_every: 0,
            capacity: 64,
            seed: 1,
        })
    };
    let without_handoff = |f: &Flight| -> Vec<Stage> {
        f.spans
            .iter()
            .map(|s| s.stage)
            .filter(|&s| s != Stage::Handoff)
            .collect()
    };

    let idx = flat(&ds);
    let engine = QueryEngine::with_options(&idx, &ds, pinned_options());
    let rec = slowest_only();
    engine.search_batch_flights(&qs, K, BEAM, &rec);
    let flights = rec.flights();
    assert_eq!(flights.len(), 1, "one batch keeps one slowest flight");
    assert_eq!(without_handoff(&flights[0]), [Stage::Search]);
    assert_eq!(flights[0].spans.len(), 1);
    assert_timing_shape(&flights[0], None);

    let set = sharded_set(&ds, 2);
    let sharded = ShardedEngine::with_options(&set, pinned_options());
    let rec = slowest_only();
    sharded.search_batch_flights(&qs, K, BEAM, &rec);
    let flights = rec.flights();
    assert_eq!(flights.len(), 1, "one batch keeps one slowest flight");
    assert_eq!(
        without_handoff(&flights[0]),
        [Stage::Scatter, Stage::ShardSearch, Stage::Merge]
    );
    assert_timing_shape(&flights[0], Some(2));
    let f = &flights[0];
    assert!(!f.sampled);
    assert_eq!(
        f.results,
        sharded
            .search_one(qs.point(f.qi), K, BEAM)
            .iter()
            .map(|n| n.id)
            .collect::<Vec<_>>()
    );
}
