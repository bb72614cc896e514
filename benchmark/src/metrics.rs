//! The benchmark's metric and workload tables — the single source that
//! `BENCHMARK.json` is generated from (`benchmark manifest`) and checked
//! against (unit test), so the manifest and the harness cannot drift.

use std::collections::BTreeMap;

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction and, for end-to-end metrics, the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the benchmark contract), which is why the workload-specific
/// figures the issue listed (`qps_range` …, `insert_p99_us`) live in
/// [`PER_LAYER`] instead.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "ops/s", Higher, 0.2),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("recall_at_10", "ratio", Higher, 0.02),
    e2e("index_bytes_per_point", "B", Lower, 0.01),
];

/// Single-layer metrics from the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // data::distance
    layer("kernel.ns_per_dist_seq", "ns", Lower),
    layer("kernel.ns_per_dist_rand", "ns", Lower),
    layer("kernel.gbps_seq", "GB/s", Higher),
    layer("kernel.sq8_ns_per_dist", "ns", Lower),
    // core::search — the walk
    layer("walk.ndc_per_query", "count", Lower),
    layer("walk.hops_per_query", "count", Lower),
    layer("walk.pool_peak_mean", "count", Lower),
    layer("walk.speedup_vs_scan", "ratio", Higher),
    layer("walk.ns_per_query", "ns", Lower),
    layer("walk.ns_per_ndc", "ns", Lower),
    layer("walk.kernel_share_est", "ratio", Lower),
    layer("walk.memstall_share_est", "ratio", Lower),
    layer("walk.upkeep_share_est", "ratio", Lower),
    layer("walk.recall_at_10.beam16", "ratio", Higher),
    layer("walk.recall_at_10.beam32", "ratio", Higher),
    layer("walk.recall_at_10.beam64", "ratio", Higher),
    layer("walk.recall_at_10.beam128", "ratio", Higher),
    layer("walk.qps.beam16", "ops/s", Higher),
    layer("walk.qps.beam32", "ops/s", Higher),
    layer("walk.qps.beam64", "ops/s", Higher),
    layer("walk.qps.beam128", "ops/s", Higher),
    // graph / core::locality
    layer("graph.avg_degree", "count", Lower),
    layer("graph.max_degree", "count", Lower),
    layer("graph.bytes_per_point", "B", Lower),
    layer("graph.components", "count", Lower),
    layer("layout.fused_qps_ratio", "ratio", Higher),
    layer("layout.reordered_qps_ratio", "ratio", Higher),
    layer("layout.prefetch_qps_ratio", "ratio", Higher),
    layer("layout.arena_padding_share", "ratio", Lower),
    // the five ways `variants` serves one graph
    layer("qps_range", "ops/s", Higher),
    layer("qps_backtrack", "ops/s", Higher),
    layer("qps_guided", "ops/s", Higher),
    layer("qps_filtered", "ops/s", Higher),
    layer("qps_sq8_fused", "ops/s", Higher),
    // core::algorithms / rnndescent — construction
    layer("setup.gen_s", "s", Lower),
    layer("setup.ground_truth_s", "s", Lower),
    layer("build.index_s", "s", Lower),
    layer("build.points_per_s", "1/s", Higher),
    layer("build.ndc_per_point", "count", Lower),
    layer("build.span_s.c1_init", "s", Lower),
    layer("build.span_s.c2_c3", "s", Lower),
    layer("build.span_s.c5_connectivity", "s", Lower),
    layer("build.span_s.freeze", "s", Lower),
    // core::serve
    layer("engine.batch_qps_1w", "ops/s", Higher),
    layer("engine.batch_qps_nw", "ops/s", Higher),
    layer("engine.scaling_eff", "ratio", Higher),
    layer("engine.overhead_ns_per_query", "ns", Lower),
    // core::shard
    layer("shard.partition_s", "s", Lower),
    layer("shard.scatter_us_per_batch", "us", Lower),
    layer("shard.merge_ns_per_query", "ns", Lower),
    layer("shard.skew", "ratio", Lower),
    layer("shard.ndc_amplification", "ratio", Lower),
    // core::shard::queue + the generator
    layer("queue.wait_p50_us", "us", Lower),
    layer("queue.wait_p99_us", "us", Lower),
    layer("queue.mean_batch", "count", Higher),
    layer("gen.sched_lag_p99_us", "us", Lower),
    layer("serve.lat_p50_us.r1000", "us", Lower),
    layer("serve.lat_p50_us.r2000", "us", Lower),
    layer("serve.lat_p50_us.r4000", "us", Lower),
    layer("serve.lat_p99_us.r1000", "us", Lower),
    layer("serve.lat_p99_us.r2000", "us", Lower),
    layer("serve.lat_p99_us.r4000", "us", Lower),
    layer("serve.achieved_qps.r4000", "ops/s", Higher),
    layer("serve.slo_ok_rate_qps", "ops/s", Higher),
    // core::telemetry::flight
    layer("flight.queue_wait_share", "ratio", Lower),
    layer("flight.scatter_share", "ratio", Lower),
    layer("flight.shard_search_share", "ratio", Lower),
    layer("flight.merge_share", "ratio", Lower),
    layer("flight.unaccounted_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    // core::persist
    layer("persist.save_s", "s", Lower),
    layer("persist.load_s", "s", Lower),
    layer("persist.bytes_per_point", "B", Lower),
    // core::algorithms::hnsw_dynamic
    layer("dyn.search_ns", "ns", Lower),
    layer("dyn.insert_ns", "ns", Lower),
    layer("dyn.delete_ns", "ns", Lower),
    layer("dyn.insert_ndc", "count", Lower),
    layer("dyn.tombstone_fraction_end", "ratio", Lower),
    layer("dyn.recall_at_10_start", "ratio", Higher),
    layer("dyn.consolidate_s", "s", Lower),
    layer("insert_p99_us", "us", Lower),
    // host
    layer("host.peak_rss_mib", "MiB", Lower),
    layer("host.memcpy_gbps", "GB/s", Higher),
    layer("host.nproc", "count", Higher),
];

/// The five workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "hidim",
        "20k x 256 NSG, closed loop: 1 KiB vectors, the distance kernel and vector fetch are over half the walk",
    ),
    (
        "lodim",
        "120k x 32 HNSW, closed loop: working set far past L2, the kernel is ~6% and pool/visited upkeep dominates",
    ),
    (
        "variants",
        "one 20k x 128 NSG graph served five ways (range, backtrack, guided, filtered, SQ8 fused) in an even mix",
    ),
    (
        "serve-open",
        "30k x 64, 2 shards behind the batch queue, open-loop Poisson arrivals at 2000 QPS from nproc clients",
    ),
    (
        "churn",
        "50k x 64 dynamic HNSW, closed loop, 70% search / 20% insert / 10% delete on one mutable index",
    ),
];

/// True when `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values by metric name. Setting an undeclared name is a bug in
/// the harness, caught at once rather than silently dropped from output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` for the declared metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(def.name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The text of `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_use_the_contract_charset() {
        for ok in ["qps", "walk.qps.beam16", "serve-open", "9lives", "a_b-c.d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "-x", "µs", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("ops/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_declared_name_and_unit_is_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name} why");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark/run.sh manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
        weavess_core::telemetry::flight::parse_json(&committed).expect("valid JSON");
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metrics_are_rejected() {
        Metrics::default().set("qps_typo", 1.0);
    }
}
