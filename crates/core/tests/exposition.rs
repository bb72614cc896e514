//! Parser-based conformance suite for the metrics exposition surfaces.
//!
//! Every Prometheus text block the serving tier can emit is checked
//! against the exposition-format rules a real scraper enforces:
//!
//! - every sample series has a matching `# HELP` and `# TYPE` line
//!   *above* its first sample, and each family is declared exactly once;
//! - histogram `le` buckets are cumulative, end with `le="+Inf"`, and
//!   the `+Inf` bucket equals the family's `_count`;
//! - series names are stable across snapshots of the same process (no
//!   per-scrape renames — dashboards key on them);
//! - every JSON surface parses with the in-tree JSON parser and has
//!   exactly one key per Prometheus family;
//! - the text of every family that existed before the renderers were
//!   folded into one `Exposition` still matches the golden recorded then;
//! - the README's "Metrics reference" table lists exactly the declared
//!   families.

use std::collections::{BTreeMap, BTreeSet};

use weavess_core::audit::{
    AuditConfig, AuditSnapshot, RecallAuditor, SloEngine, SloPolicy, SloReport, SloState,
};
use weavess_core::components::SeedStrategy;
use weavess_core::index::FlatIndex;
use weavess_core::parallel::PoolSnapshot;
use weavess_core::search::Router;
use weavess_core::serve::{EngineSnapshot, QueryEngine};
use weavess_core::shard::{
    BatchQueue, FleetReport, QueueOptions, QueueSnapshot, QueueStats, ShardSet, ShardedEngine,
};
use weavess_core::telemetry::expose::Exposition;
use weavess_core::telemetry::flight::{parse_json, JsonValue};
use weavess_core::telemetry::{query_fingerprint, Histogram};
use weavess_core::NodeLayout;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::Dataset;
use weavess_graph::base::exact_knng;

const K: usize = 10;
const BEAM: usize = 24;

/// One parsed sample line: family name (label-set and value stripped),
/// the optional `le` label, and the value.
struct Sample {
    family: String,
    series: String,
    le: Option<String>,
    value: f64,
}

fn parse_sample(line: &str) -> Sample {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    let name_end = series.find('{').unwrap_or(series.len());
    let name = &series[..name_end];
    // `_bucket`/`_sum`/`_count` samples belong to their histogram family.
    let family = name
        .strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
        .unwrap_or(name)
        .to_string();
    let le = series[name_end..]
        .split(&['{', ',', '}'][..])
        .filter_map(|kv| kv.trim().strip_prefix("le=\""))
        .map(|v| v.trim_end_matches('"').to_string())
        .next();
    Sample {
        family,
        series: series.to_string(),
        le,
        value: value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}")),
    }
}

/// Enforces the exposition-format rules and returns the set of series
/// names (for cross-snapshot stability checks). Bucket series are
/// excluded from the returned set: histograms render sparsely (only
/// occupied buckets), so the `le` set legitimately grows with traffic
/// while every other series name must stay fixed.
fn check_exposition(text: &str) -> BTreeSet<String> {
    let mut helped = BTreeSet::new();
    let mut typed = BTreeMap::new(); // family -> declared type
    let mut series = BTreeSet::new();
    let mut seen = BTreeSet::new();
    let mut buckets: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let fam = rest.split(' ').next().unwrap().to_string();
            assert!(helped.insert(fam.clone()), "duplicate HELP for {fam}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let fam = it.next().unwrap().to_string();
            let ty = it.next().expect("TYPE has a kind").to_string();
            assert!(
                ["counter", "gauge", "histogram"].contains(&ty.as_str()),
                "unknown type {ty} for {fam}"
            );
            assert!(
                typed.insert(fam.clone(), ty).is_none(),
                "duplicate TYPE for {fam}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let s = parse_sample(line);
        assert!(
            helped.contains(&s.family),
            "sample before/without HELP: {line}"
        );
        let ty = typed
            .get(&s.family)
            .unwrap_or_else(|| panic!("sample before/without TYPE: {line}"));
        if s.series.contains("_bucket") {
            assert_eq!(ty, "histogram", "{line}");
            // Bucket series carry exactly one le label each; group them
            // by everything except the le pair so labeled histograms
            // (if ever added) would still check per-series.
            let key = s.family.clone();
            buckets
                .entry(key)
                .or_default()
                .push((s.le.clone().expect("bucket has le"), s.value));
        } else if s.series.ends_with("_count") && *ty == "histogram" {
            counts.insert(s.family.clone(), s.value);
        }
        let is_bucket = s.series.contains("_bucket");
        assert!(
            seen.insert(s.series.clone()),
            "duplicate series: {}",
            s.series
        );
        if !is_bucket {
            series.insert(s.series.clone());
        }
    }

    // Histogram bucket discipline.
    for (fam, ty) in &typed {
        if ty != "histogram" {
            continue;
        }
        let bs = buckets
            .get(fam)
            .unwrap_or_else(|| panic!("histogram {fam} has no buckets"));
        assert_eq!(bs.last().unwrap().0, "+Inf", "{fam} must end at +Inf");
        let mut prev = f64::NEG_INFINITY;
        for (le, v) in bs {
            assert!(*v >= prev, "{fam} buckets not cumulative at le={le}");
            prev = *v;
        }
        let count = counts
            .get(fam)
            .unwrap_or_else(|| panic!("histogram {fam} has no _count"));
        assert_eq!(bs.last().unwrap().1, *count, "{fam}: +Inf bucket != _count");
    }
    series
}

/// `(family, type, label names)` of every family in `text`; the label
/// names are those of the family's first sample (`le` excluded).
fn declared_families(text: &str) -> BTreeSet<(String, String, Vec<String>)> {
    let mut out = BTreeSet::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let (family, kind) = rest.split_once(' ').expect("TYPE has a kind");
        let labels = match lines.peek() {
            Some(sample) if !sample.starts_with('#') => sample
                .split(&['{', ',', '}'][..])
                .filter_map(|kv| kv.split_once("=\""))
                .map(|(k, _)| k.to_string())
                .filter(|k| k != "le")
                .collect(),
            _ => Vec::new(),
        };
        out.insert((family.to_string(), kind.to_string(), labels));
    }
    out
}

/// The JSON rendering parses and is keyed by exactly the families the
/// Prometheus rendering declares.
fn assert_json_mirrors(prom: &str, json: &str) {
    let doc = parse_json(json).expect("exposition JSON is valid");
    let JsonValue::Obj(entries) = &doc else {
        panic!("exposition JSON is not an object");
    };
    let keys: BTreeSet<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys.len(), entries.len(), "duplicate JSON key");
    let families = declared_families(prom);
    let families: BTreeSet<&str> = families.iter().map(|(f, _, _)| f.as_str()).collect();
    assert_eq!(keys, families, "JSON keys != Prometheus families");
}

fn dataset(n: usize, nq: usize) -> (Dataset, Dataset) {
    MixtureSpec::table10(12, n, 3, 5.0, nq)
        .with_seed(321)
        .generate()
}

fn shard_builder(d: &Dataset, _s: usize) -> FlatIndex {
    FlatIndex {
        name: "expo-shard",
        graph: exact_knng(d, 6, 1),
        seeds: SeedStrategy::Fixed((0..d.len() as u32).collect()),
        router: Router::BestFirst,
    }
}

#[test]
fn engine_prometheus_exposition_conforms_and_is_stable() {
    let (ds, qs) = dataset(300, 40);
    let idx = FlatIndex {
        name: "expo",
        graph: exact_knng(&ds, 8, 2),
        seeds: SeedStrategy::Fixed(vec![0]),
        router: Router::BestFirst,
    };
    let engine = QueryEngine::new(&idx, &ds);
    engine.search_batch(&qs, K, BEAM);
    let first = check_exposition(&engine.metrics_prometheus());
    assert!(!first.is_empty());
    // More traffic must change values, never series names.
    engine.search_batch(&qs, K, BEAM);
    let second = check_exposition(&engine.metrics_prometheus());
    assert_eq!(first, second, "series names must be scrape-stable");
    assert_json_mirrors(&engine.metrics_prometheus(), &engine.metrics_json());
}

#[test]
fn fleet_exposition_with_queue_audit_and_slo_conforms() {
    let (ds, qs) = dataset(400, 60);
    let set = ShardSet::build(&ds, 2, 0xD15C0, NodeLayout::Fused, false, 1, shard_builder)
        .expect("shard build");
    let engine = ShardedEngine::new(&set);
    let report = engine.search_batch(&qs, K, BEAM);

    // Exercise the queue so its wait histogram is non-empty.
    let queue = BatchQueue::new(
        &engine,
        QueueOptions {
            max_batch: 4,
            max_delay: std::time::Duration::from_millis(2),
            k: K,
            beam: BEAM,
        },
    );
    std::thread::scope(|scope| {
        for qi in 0..16u32 {
            let queue = &queue;
            let q = qs.point(qi);
            scope.spawn(move || queue.submit(q));
        }
    });

    // And the auditor + SLO engine on real served traffic.
    let auditor = RecallAuditor::new(
        &ds,
        AuditConfig {
            sample_every: 2,
            ..AuditConfig::default()
        },
    )
    .with_shard_map(
        {
            let mut shard_of = vec![0u32; ds.len()];
            for (s, shard) in set.shards().iter().enumerate() {
                for &gid in shard.global_ids() {
                    shard_of[gid as usize] = s as u32;
                }
            }
            shard_of
        },
        2,
    );
    for qi in 0..qs.len() as u32 {
        let fp = query_fingerprint(qs.point(qi));
        auditor.observe(fp, qs.point(qi), &report.results[qi as usize], false);
    }
    while auditor.run_pending() > 0 {}
    let audit = auditor.snapshot();
    let mut slo = SloEngine::new(SloPolicy::default());
    let slo_report = slo.evaluate(&engine.fleet_report().merged.latency, &audit);

    let full = engine
        .fleet_report()
        .with_queue(queue.snapshot())
        .with_audit(audit.clone())
        .with_slo(slo_report.clone());
    let first = check_exposition(&full.to_prometheus());
    for expected in [
        "weavess_fleet_queries_total",
        "weavess_queue_depth",
        "weavess_queue_wait_nanoseconds",
        "weavess_audit_recall",
        "weavess_audit_shard_recall",
        "weavess_slo_recall_state",
        "weavess_slo_latency_burn",
    ] {
        assert!(
            first.iter().any(|s| s.starts_with(expected)),
            "missing series family {expected}"
        );
    }

    // Stability: another round of traffic, same series names.
    let report2 = engine.search_batch(&qs, K, BEAM);
    for qi in 0..qs.len() as u32 {
        let fp = query_fingerprint(qs.point(qi));
        auditor.observe(fp, qs.point(qi), &report2.results[qi as usize], false);
    }
    while auditor.run_pending() > 0 {}
    let audit2 = auditor.snapshot();
    let slo2 = slo.evaluate(&engine.fleet_report().merged.latency, &audit2);
    let again = engine
        .fleet_report()
        .with_queue(queue.snapshot())
        .with_audit(audit2)
        .with_slo(slo2);
    let second = check_exposition(&again.to_prometheus());
    assert_eq!(first, second, "series names must be scrape-stable");

    assert_json_mirrors(&full.to_prometheus(), &full.to_json());
    assert_json_mirrors(&again.to_prometheus(), &again.to_json());
}

fn hist(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A hand-built, timing-free fleet view with every optional block
/// attached: two shards, a queue, an audit with both shards and both
/// cohorts populated, and an SLO evaluation.
fn fixed_fleet_report() -> FleetReport {
    let per_shard = vec![
        EngineSnapshot {
            queries_total: 7,
            batches_total: 2,
            latency: hist(&[900, 1_500, 40_000, 41_000, 2_000_000]),
            ndc: hist(&[0, 1, 310, 512, 700]),
            hops: hist(&[12, 17, 33]),
        },
        EngineSnapshot {
            queries_total: 5,
            batches_total: 2,
            latency: hist(&[1_100, 38_000, u64::MAX]),
            ndc: hist(&[290, 295, 1_024]),
            hops: hist(&[9, 64]),
        },
    ];
    let mut merged = EngineSnapshot::default();
    for s in &per_shard {
        merged.queries_total += s.queries_total;
        merged.batches_total += s.batches_total;
        merged.latency.merge(&s.latency);
        merged.ndc.merge(&s.ndc);
        merged.hops.merge(&s.hops);
    }
    FleetReport {
        per_shard,
        merged,
        logical_queries: 7,
        logical_batches: 2,
        pool: PoolSnapshot {
            handoff_ns: Some(48_500),
            jobs_inline: 5,
            jobs_fanned_out: 2,
        },
        queue: None,
        audit: None,
        slo: None,
    }
    .with_queue(QueueSnapshot {
        stats: QueueStats {
            batches_total: 3,
            queries_total: 7,
            batch_size: hist(&[1, 2, 4]),
            queue_delay_ns: hist(&[0, 1_200, 1_900, 250_000]),
        },
        depth: 2,
    })
    .with_audit(AuditSnapshot {
        k: 10,
        sampled_total: 6,
        audited_total: 5,
        pending: 1,
        dropped_total: 1,
        window_hits: 43,
        window_trials: 50,
        recall: 0.86,
        ci_low: 0.738_125,
        ci_high: 0.930_5,
        lifetime_hits: 52,
        lifetime_trials: 60,
        per_shard: vec![(21, 24), (0, 0)],
        cohort_base: (30, 40),
        cohort_overlay: (13, 20),
    })
    .with_slo(SloReport {
        latency_state: SloState::Warn,
        latency_burn: 0.625,
        window_slow: 1.5,
        window_queries: 48,
        recall_state: SloState::Breach,
        recall_estimate: 0.86,
        recall_ci: (0.738_125, 0.930_5),
        recall_trials: 50,
    })
}

/// The fleet block's families in declaration order, as recorded on the
/// commit before the renderers were folded into one `Exposition`.
const FLEET_GOLDEN: &str = include_str!("golden/fleet_exposition.prom");

/// The engine block for an engine that has served three `search_one`
/// calls and no batch (so nothing in it is timing-dependent); `{tier}`
/// and `{host_features}` stand for the running host's values.
const ENGINE_GOLDEN: &str = include_str!("golden/engine_exposition.prom");

/// Asserts every line of `golden` occurs in `text`, in order, and that
/// every other line of `text` belongs to one of the `added` families.
fn assert_golden_holds(text: &str, golden: &str, added: &[&str]) {
    let mut want = golden.lines().peekable();
    for line in text.lines() {
        if want.peek() == Some(&line) {
            want.next();
            continue;
        }
        let name = line
            .trim_start_matches("# HELP ")
            .trim_start_matches("# TYPE ")
            .split(&[' ', '{'][..])
            .next()
            .unwrap();
        assert!(
            added.contains(&name),
            "line not in the golden and not of an added family: {line}\n(next golden line: {:?})",
            want.peek()
        );
    }
    assert_eq!(want.next(), None, "golden line missing from the exposition");
}

/// Families promoted from JSON-only fields when the renderers were
/// folded; the goldens predate them.
const PROMOTED: [&str; 5] = [
    "weavess_audit_hits_total",
    "weavess_audit_trials_total",
    "weavess_audit_k",
    "weavess_audit_window_trials",
    "weavess_slo_window_queries",
];

/// The pool families (hand-off gauge, jobs by mode) of the engine and of
/// the fleet, declared after the goldens were recorded.
const ENGINE_POOL: [&str; 2] = ["weavess_pool_handoff_seconds", "weavess_pool_jobs_total"];
const FLEET_POOL: [&str; 2] = [
    "weavess_fleet_pool_handoff_seconds",
    "weavess_fleet_pool_jobs_total",
];

/// Dataset, queries and index behind [`golden_engine`].
fn golden_index() -> (Dataset, Dataset, FlatIndex) {
    let (ds, qs) = dataset(120, 3);
    let idx = FlatIndex {
        name: "expo-golden",
        graph: exact_knng(&ds, 6, 1),
        seeds: SeedStrategy::Fixed(vec![0]),
        router: Router::BestFirst,
    };
    (ds, qs, idx)
}

/// An engine that has served three `search_one` calls and no batch.
fn golden_engine<'a>(ds: &'a Dataset, qs: &Dataset, idx: &'a FlatIndex) -> QueryEngine<'a> {
    let engine = QueryEngine::new(idx, ds);
    for qi in 0..3 {
        engine.search_one(qs.point(qi), K, BEAM);
    }
    engine
}

#[test]
fn prometheus_text_matches_the_recorded_golden() {
    let fleet = fixed_fleet_report();
    let text = fleet.to_prometheus();
    check_exposition(&text);
    assert_golden_holds(
        &text,
        FLEET_GOLDEN,
        &[&PROMOTED[..], &FLEET_POOL[..]].concat(),
    );
    assert!(text.contains("weavess_fleet_pool_handoff_seconds 0.0000485\n"));
    assert!(text.contains("weavess_fleet_pool_jobs_total{mode=\"inline\"} 5\n"));
    assert!(text.contains("weavess_fleet_pool_jobs_total{mode=\"fanned_out\"} 2\n"));
    let json = parse_json(&fleet.to_json()).expect("fleet JSON is valid");
    let num = |key: &str| json.get(key).and_then(JsonValue::as_num);
    assert_eq!(num("weavess_fleet_queries_total"), Some(7.0));
    assert_eq!(num("weavess_audit_hits_total"), Some(52.0));
    assert_eq!(num("weavess_audit_trials_total"), Some(60.0));
    assert_eq!(num("weavess_audit_k"), Some(10.0));
    assert_eq!(num("weavess_audit_window_trials"), Some(50.0));
    assert_eq!(num("weavess_slo_window_queries"), Some(48.0));
    let shard1 = &json
        .get("weavess_audit_shard_recall")
        .unwrap()
        .as_arr()
        .unwrap()[1];
    assert_eq!(shard1.get("shard"), Some(&JsonValue::Str("1".to_string())));
    assert_eq!(shard1.get("value").and_then(JsonValue::as_num), Some(0.0));
    let ndc = json.get("weavess_fleet_query_ndc").unwrap();
    assert_eq!(ndc.get("sum").and_then(JsonValue::as_num), Some(3132.0));

    let (ds, qs, idx) = golden_index();
    let engine = golden_engine(&ds, &qs, &idx);
    let golden = ENGINE_GOLDEN
        .replace("{tier}", &weavess_data::KernelTier::active().to_string())
        .replace("{host_features}", &weavess_data::host_features());
    let text = engine.metrics_prometheus();
    assert_golden_holds(&text, &golden, &ENGINE_POOL);
    // Three `search_one` calls publish no pool job and wake nobody.
    assert!(text.contains("weavess_pool_handoff_seconds NaN\n"));
    assert!(text.contains("weavess_pool_jobs_total{mode=\"inline\"} 0\n"));
    let json = parse_json(&engine.metrics_json()).expect("engine JSON is valid");
    assert_eq!(
        json.get("weavess_pool_handoff_seconds"),
        Some(&JsonValue::Null)
    );
}

/// The README's "Metrics reference" table is checked, not hand-copied:
/// its `(series, type, labels)` rows equal the families declared by an
/// exposition with every block attached.
#[test]
fn readme_metrics_reference_lists_exactly_the_declared_families() {
    let (ds, qs, idx) = golden_index();
    let engine = golden_engine(&ds, &qs, &idx);
    let all = Exposition::of(&[&engine, &fixed_fleet_report()]).to_prometheus();
    check_exposition(&all);

    let readme = include_str!("../../../README.md");
    let table = readme
        .split_once("#### Metrics reference")
        .expect("README has a Metrics reference section")
        .1;
    let code = |cell: &str| cell.trim().trim_matches('`').to_string();
    let documented: BTreeSet<_> = table
        .lines()
        .skip_while(|l| !l.starts_with("| `weavess_"))
        .take_while(|l| l.starts_with("| `weavess_"))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').collect();
            let labels = match cells[3].trim() {
                "—" => Vec::new(),
                cell => cell.split(',').map(code).collect(),
            };
            (code(cells[1]), cells[2].trim().to_string(), labels)
        })
        .collect();
    assert_eq!(documented, declared_families(&all));
}
