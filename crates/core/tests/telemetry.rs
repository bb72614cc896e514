//! Telemetry integration suite: the observability layer must never change
//! what it observes.
//!
//! - Tracing with a [`NoopTracer`] (or a [`RecordingTracer`]) through any
//!   of the five search routines is the identity: bit-identical neighbor
//!   pools and equal [`SearchStats`].
//! - A recorded route dumps byte-stably across runs and across indexes
//!   built at different thread counts, and replays against the dataset.
//! - Batch histograms and their percentiles are worker-count independent.
//! - Histogram merge is commutative and associative, so any partition of
//!   the samples yields the same distribution.
//! - [`profile_build`] attributes per-component wall time (and NDC for
//!   the search-based phases) for HNSW and every builder on the
//!   refinement skeleton, under the span names the benchmark maps.

use proptest::prelude::*;
use weavess_core::algorithms::dpg::{self, DpgParams};
use weavess_core::algorithms::efanna::{self, EfannaParams};
use weavess_core::algorithms::fanng::{self, FanngParams};
use weavess_core::algorithms::hnsw::{self, HnswParams};
use weavess_core::algorithms::ieh::{self, IehParams};
use weavess_core::algorithms::kgraph::{self, KGraphParams};
use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::algorithms::nssg::{self, NssgParams};
use weavess_core::algorithms::oa::{self, OaParams};
use weavess_core::algorithms::sptag::{self, SptagParams};
use weavess_core::index::AnnIndex;
use weavess_core::search::{
    filtered_beam_search, filtered_beam_search_traced, Router, SearchScratch, SearchStats,
};
use weavess_core::serve::{EngineOptions, QueryEngine};
use weavess_core::telemetry::{profile_build, Histogram, NoopTracer, RecordingTracer, RouteEvent};
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::base::exact_knng;
use weavess_graph::CsrGraph;

fn setup(seed: u64, n: usize) -> (Dataset, Dataset, CsrGraph) {
    let spec = MixtureSpec::table10(12, n, 3, 5.0, 4).with_seed(seed);
    let (base, queries) = spec.generate();
    let g = exact_knng(&base, 8, 1);
    (base, queries, g)
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

fn record_all(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merge is commutative and associative, and merging any partition
    /// equals recording every sample into one histogram — the property
    /// that makes batch distributions worker-count independent.
    #[test]
    fn histogram_merge_is_order_independent(
        a in prop::collection::vec(0u64..u64::MAX, 0..40),
        b in prop::collection::vec(0u64..u64::MAX, 0..40),
        c in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "commutativity");

        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associativity");

        let mut all: Vec<u64> = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&ab_c, &record_all(&all), "partition independence");
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(ab_c.percentile(p), a_bc.percentile(p));
        }
    }

    /// Tracing is the identity on every routine: same pools to the bit,
    /// same `SearchStats` (including `pool_peak`), whether the tracer is
    /// the no-op or a full recorder; and the recorder sees every scored
    /// seed once, then one event per hop.
    #[test]
    fn tracing_is_identity_for_all_five_routines(
        seed in 0u64..80,
        beam in 4usize..40,
    ) {
        let (ds, qs, g) = setup(seed, 300);
        let seeds = [0u32, 150, 299];
        let mut sc_a = SearchScratch::new(ds.len());
        let mut sc_b = SearchScratch::new(ds.len());
        let q = qs.point(0);

        // The five routers — `TwoStage` is the seeded continuation: stage
        // 1's seeds are traced once, stage 2's pre-scored pool entries are
        // not re-reported, and hop indices run on across the two stages.
        for router in [
            Router::BestFirst,
            Router::Backtrack { extra: 4 },
            Router::Guided,
            Router::Range { epsilon: 0.2 },
            Router::TwoStage { stage1_beam_frac: 0.5 },
        ] {
            let what = format!("{router:?}");
            let mut st_a = SearchStats::default();
            let mut st_b = SearchStats::default();
            sc_a.next_epoch();
            let a = router.search(&ds, &g, q, &seeds, beam, &mut sc_a, &mut st_a);
            sc_b.next_epoch();
            let b = router.search_traced(
                &ds, &g, q, &seeds, beam, &mut sc_b, &mut st_b, &mut NoopTracer,
            );
            assert_pools_identical(&a, &b, &format!("{what} noop"));
            prop_assert_eq!(st_a, st_b, "{} noop stats", what);

            let mut rec = RecordingTracer::new();
            let mut st_r = SearchStats::default();
            sc_b.next_epoch();
            let r = router.search_traced(&ds, &g, q, &seeds, beam, &mut sc_b, &mut st_r, &mut rec);
            assert_pools_identical(&a, &r, &format!("{what} recording"));
            prop_assert_eq!(st_a, st_r, "{} recording stats", what);
            prop_assert_eq!(rec.hops() as u64, st_r.hops, "{}: one event per hop", what);
            prop_assert!(rec.replay_check(&ds, q), "{}: recorded route must replay", what);
            let (head, tail) = rec.events.split_at(seeds.len());
            let seen: Vec<u32> = head
                .iter()
                .filter_map(|e| match *e {
                    RouteEvent::Seed { vertex, .. } => Some(vertex),
                    RouteEvent::Hop { .. } => None,
                })
                .collect();
            prop_assert_eq!(&seen[..], &seeds[..], "{}: each seed reported once, first", what);
            for (i, e) in tail.iter().enumerate() {
                match *e {
                    RouteEvent::Hop { hop, .. } => prop_assert_eq!(hop as usize, i, "{}", what),
                    RouteEvent::Seed { .. } => prop_assert!(false, "{}: seed after a hop", what),
                }
            }
        }

        // filtered.
        let pred = |id: u32| id.is_multiple_of(3);
        let mut st_a = SearchStats::default();
        let mut st_b = SearchStats::default();
        sc_a.next_epoch();
        let a = filtered_beam_search(&ds, &g, q, &seeds, 5, beam, &pred, &mut sc_a, &mut st_a);
        sc_b.next_epoch();
        let b = filtered_beam_search_traced(
            &ds, &g, q, &seeds, 5, beam, &pred, &mut sc_b, &mut st_b, &mut NoopTracer,
        );
        assert_pools_identical(&a, &b, "filtered noop");
        prop_assert_eq!(st_a, st_b, "filtered noop stats");
    }
}

/// The same query over the same (deterministically built) index produces
/// the same route dump, byte for byte, whether the index was built with 1
/// or 4 threads, and the dump replays against the dataset.
#[test]
fn route_dump_is_byte_stable_across_runs_and_build_threads() {
    let spec = MixtureSpec::table10(12, 900, 4, 4.0, 6).with_seed(11);
    let (base, queries) = spec.generate();
    let q = queries.point(0);

    let mut dumps = Vec::new();
    for threads in [1usize, 4] {
        let idx = nsg::build(&base, &NsgParams::tuned(threads, 3));
        for _run in 0..2 {
            let mut tracer = RecordingTracer::new();
            let mut ctx = weavess_core::index::SearchContext::new(base.len());
            let res = idx.search_traced(&base, q, 10, 40, &mut ctx, &mut tracer);
            assert!(!res.is_empty());
            assert!(tracer.hops() > 0, "route must record expansions");
            assert!(tracer.replay_check(&base, q), "dump must replay");
            dumps.push(tracer.dump());
        }
    }
    for d in &dumps[1..] {
        assert_eq!(&dumps[0], d, "route dump diverged across runs/threads");
    }
}

/// Batch NDC/hop histograms, their percentiles, and the merged stats are
/// identical at 1, 2, and 8 workers; only the dynamic assignment of
/// queries to workers may differ.
#[test]
fn batch_histograms_are_worker_count_independent() {
    let spec = MixtureSpec::table10(10, 800, 4, 4.0, 60).with_seed(5);
    let (base, queries) = spec.generate();
    let idx = nsg::build(&base, &NsgParams::tuned(2, 9));

    let mut reference: Option<(Histogram, Histogram, SearchStats, Vec<Vec<Neighbor>>)> = None;
    for workers in [1usize, 2, 8] {
        let engine = QueryEngine::with_options(
            &idx,
            &base,
            EngineOptions {
                workers,
                ..EngineOptions::default()
            },
        );
        let report = engine.search_batch(&queries, 10, 40);
        assert_eq!(report.workers, workers);
        let claimed: u64 = report.per_worker.iter().map(|w| w.queries_claimed).sum();
        assert_eq!(claimed, queries.len() as u64);
        let worker_ndc: u64 = report.per_worker.iter().map(|w| w.stats.ndc).sum();
        assert_eq!(
            worker_ndc, report.stats.ndc,
            "per-worker NDC must sum to the batch total"
        );
        match &reference {
            None => {
                reference = Some((
                    report.ndc_hist.clone(),
                    report.hops_hist.clone(),
                    report.stats,
                    report.results,
                ))
            }
            Some((ndc, hops, stats, results)) => {
                assert_eq!(&report.ndc_hist, ndc, "NDC histogram at {workers} workers");
                assert_eq!(
                    &report.hops_hist, hops,
                    "hop histogram at {workers} workers"
                );
                assert_eq!(&report.stats, stats, "merged stats at {workers} workers");
                for (a, b) in results.iter().zip(&report.results) {
                    assert_pools_identical(a, b, "batch results");
                }
                for p in [0.5, 0.95, 0.99] {
                    assert_eq!(report.ndc_hist.percentile(p), ndc.percentile(p));
                    assert_eq!(report.hops_hist.percentile(p), hops.percentile(p));
                }
            }
        }
    }
}

/// `profile_build` attributes per-component cost for representative
/// builders of all three construction strategies: HNSW (incremental
/// insertion), the refinement builders that run the shared per-point
/// skeleton (NSG, OA, NSSG, DPG, FANNG) and SPTAG-BKT (divide and
/// conquer, then the same skeleton).
#[test]
fn build_profiles_cover_hnsw_nsg_oa() {
    let spec = MixtureSpec::table10(10, 700, 3, 4.0, 2).with_seed(21);
    let (base, _) = spec.generate();

    let (_, hnsw_profile) = profile_build("HNSW", || hnsw::build(&base, &HnswParams::tuned(2, 4)));
    assert_eq!(hnsw_profile.name, "HNSW");
    for component in ["C1 init", "C2+C3 insertion", "freeze"] {
        assert!(
            hnsw_profile.span_secs(component).is_some(),
            "HNSW profile missing {component}: {:?}",
            hnsw_profile.spans
        );
    }
    let insertion = hnsw_profile
        .spans
        .iter()
        .find(|s| s.component == "C2+C3 insertion")
        .unwrap();
    assert!(insertion.ndc > 0, "insertion phase must attribute NDC");

    // The refinement and divide-and-conquer builders: every span, in
    // order — the benchmark harness maps `"C1 init"`, the `"C2+C3"` and
    // `"C5"` prefixes and `"freeze"` by name — and the distance
    // computations attributed to each per-point pass. Search-based C2
    // (NSG) counts its beam searches; expansion-only passes score through
    // `Dataset::dist` and have always reported 0 (ROADMAP 7(c)).
    const C2_C3: &str = "C2+C3 candidates+selection";
    type Build<'a> = &'a dyn Fn() -> Box<dyn AnnIndex>;
    let fanng_shortcut = FanngParams {
        exact_cutoff: 100,
        ..FanngParams::tuned(2, 4)
    };
    // (name, build, every span in order, (per-point pass, its NDC)).
    type Case<'a> = (&'a str, Build<'a>, &'a [&'a str], (&'a str, u64));
    let cases: [Case; 7] = [
        (
            "NSG",
            &|| Box::new(nsg::build(&base, &NsgParams::tuned(2, 4))),
            &["C1 init", C2_C3, "C5 connectivity", "freeze"],
            (C2_C3, 150_081),
        ),
        (
            "OA",
            &|| Box::new(oa::build(&base, &OaParams::tuned(2, 4))),
            &["C1 init", C2_C3, "C4 seeds", "C5 connectivity", "freeze"],
            (C2_C3, 0),
        ),
        (
            "NSSG",
            &|| Box::new(nssg::build(&base, &NssgParams::tuned(2, 4))),
            &["C1 init", C2_C3, "C4 seeds", "C5 connectivity", "freeze"],
            (C2_C3, 0),
        ),
        (
            "DPG",
            &|| Box::new(dpg::build(&base, &DpgParams::tuned(2, 4))),
            &["C1 init", "C3 selection", "C5 connectivity", "freeze"],
            ("C3 selection", 0),
        ),
        (
            "FANNG, exact",
            &|| Box::new(fanng::build(&base, &FanngParams::tuned(2, 4))),
            &[C2_C3, "freeze"],
            (C2_C3, 0),
        ),
        (
            "FANNG, shortcut",
            &|| Box::new(fanng::build(&base, &fanng_shortcut)),
            &["C1 init", "C3 selection", "freeze"],
            ("C3 selection", 0),
        ),
        (
            "SPTAG-BKT",
            &|| Box::new(sptag::build(&base, &SptagParams::bkt(2, 4))),
            &[
                "C1 init",
                "C2 candidates",
                "C3 selection",
                "freeze",
                "C4 seeds",
            ],
            ("C3 selection", 0),
        ),
    ];
    let mut profiles = vec![hnsw_profile];
    for (name, build, spans, (pass, ndc)) in cases {
        let (_, profile) = profile_build(name, build);
        let got: Vec<&str> = profile.spans.iter().map(|s| s.component).collect();
        assert_eq!(got, spans, "{name} spans");
        let pass_ndc = profile
            .spans
            .iter()
            .find(|s| s.component == pass)
            .unwrap()
            .ndc;
        assert_eq!(pass_ndc, ndc, "{name} {pass} NDC");
        profiles.push(profile);
    }

    for p in &profiles {
        assert!(p.total_secs > 0.0);
        assert!(p.spans.iter().all(|s| s.secs >= 0.0));
        let json = p.to_json();
        assert!(json.contains("\"total_secs\""));
        assert!(json.contains("\"spans\""));
    }
}

/// The builders that keep their C1 lists as the graph (KGraph, EFANNA,
/// IEH) report the same spans and per-span NDC in any order.
#[test]
fn build_profiles_cover_kgraph_efanna_ieh() {
    let spec = MixtureSpec::table10(10, 700, 3, 4.0, 2).with_seed(21);
    let (base, _) = spec.generate();
    type Build<'a> = &'a dyn Fn() -> Box<dyn AnnIndex>;
    // (name, build, every (span, NDC) sorted).
    type Case<'a> = (&'a str, Build<'a>, &'a [(&'a str, u64)]);
    let cases: [Case; 3] = [
        (
            "KGraph",
            &|| Box::new(kgraph::build(&base, &KGraphParams::tuned(2, 4))),
            &[("C1 init", 3_525_033), ("freeze", 0)],
        ),
        (
            "EFANNA",
            &|| Box::new(efanna::build(&base, &EfannaParams::tuned(2, 4))),
            &[("C1 init", 3_199_826), ("C4 seeds", 0), ("freeze", 0)],
        ),
        (
            "IEH",
            &|| Box::new(ieh::build(&base, &IehParams::tuned(2, 4))),
            &[("C1 init", 0), ("C4 seeds", 0), ("freeze", 0)],
        ),
    ];
    for (name, build, want) in cases {
        let (_, profile) = profile_build(name, build);
        let mut got: Vec<(&str, u64)> =
            profile.spans.iter().map(|s| (s.component, s.ndc)).collect();
        got.sort_unstable();
        assert_eq!(got, want, "{name} spans and NDC");
    }
}
