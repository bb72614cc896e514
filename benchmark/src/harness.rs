//! What the five workloads share: the run environment, seeded input
//! generation, result checking, the closed-loop runner and the per-layer
//! probes that time public library calls from outside.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use weavess_core::index::{AnnIndex, SearchContext};
use weavess_core::search::SearchStats;
use weavess_core::serve::{EngineOptions, QueryEngine};
use weavess_core::telemetry::flight::splitmix64;
use weavess_core::telemetry::{profile_build, BuildProfile};
use weavess_data::ground_truth::ground_truth;
use weavess_data::metrics::recall;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::connectivity::weak_components;
use weavess_graph::metrics::degree_stats;
use weavess_graph::CsrGraph;

use crate::metrics::Metrics;
use crate::spans::SpanRecorder;
use crate::stats::{median, percentile};

/// Neighbours asked for, everywhere.
pub const K: usize = 10;

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Seed handed to the library's own randomized builders. The library is
/// the program under test: it sees generated inputs and fixed parameters,
/// never `--seed`.
pub const BUILD_SEED: u64 = 7;

/// One run's environment.
pub struct Env {
    /// `--seed`: the only source of randomness for inputs.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// `--trace 1`: record spans and report per-layer metrics.
    pub trace: bool,
    /// Hardware threads available to the generator.
    pub nproc: usize,
    /// `benchmark/out/`, for trace files and persisted indexes.
    pub out_dir: PathBuf,
}

impl Env {
    /// A sub-seed for one purpose, so streams never share state.
    pub fn sub_seed(&self, purpose: u64) -> u64 {
        splitmix64(self.seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct RunOutput {
    /// Operations attempted (timed calls plus checked warm-up calls).
    pub attempted: u64,
    /// Operations that failed (see the README for what counts).
    pub failed: u64,
    /// Correctness-gate violations, each naming the offending query.
    pub violations: Vec<String>,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Per-pass samples behind a metric, for quartiles in the record.
    pub passes: BTreeMap<&'static str, Vec<f64>>,
    /// Digest of every warm-up result: equal seeds give equal digests.
    pub digest: u64,
    /// The traced run's spans, written out by the caller.
    pub spans: Option<SpanRecorder>,
}

impl RunOutput {
    /// True when nothing failed and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Counts one failed operation and keeps the first few as messages.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }
}

/// Seed of the mixture's geometry (cluster centres and subspace). It is a
/// constant: how hard a dataset is depends on how its clusters happen to
/// overlap, and letting `--seed` redraw that made recall and throughput
/// differ between seeds by far more than between runs.
const GEOMETRY_SEED: u64 = 0x5EED_0001;

/// The inputs of one run: `n` base points and `n_queries` queries drawn by
/// `seed` from a fixed shared-subspace Gaussian mixture (the shape of the
/// repository's real-dataset stand-ins). The mixture generates a pool of
/// twice the size; `seed` chooses which half is used, so every seed gives
/// a different sample of the same distribution.
pub fn inputs(
    dim: usize,
    n: usize,
    n_queries: usize,
    clusters: usize,
    intrinsic: usize,
    seed: u64,
) -> (Dataset, Dataset) {
    let (pool, query_pool) = MixtureSpec {
        dim,
        n: 2 * n,
        n_queries: 2 * n_queries,
        clusters,
        std: 5.0,
        intrinsic_dim: Some(intrinsic),
        noise: 0.05,
        shared_subspace: true,
        seed: GEOMETRY_SEED,
    }
    .generate();
    let pick = |total: usize, keep: usize, seed: u64| {
        let mut ids = shuffled(total, seed);
        ids.truncate(keep);
        ids.sort_unstable();
        ids
    };
    (
        pool.subset(&pick(2 * n, n, seed)),
        query_pool.subset(&pick(2 * n_queries, n_queries, seed ^ 1)),
    )
}

/// A seeded permutation of `0..n`: the order queries are issued in.
pub fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// Set-up of one workload: generate the inputs, build the index.
///
/// An untraced run does it [`SETUP_REPEATS`] times, dropping each product
/// before the next is built, and reports the median wall time as
/// `setup_s`. A traced run does it once under `setup` → `setup.gen` /
/// `build.index` spans and reports the construction metrics read from the
/// library's own `profile_build`.
pub fn set_up<T>(
    env: &Env,
    name: &str,
    n_points: usize,
    rec: &mut SpanRecorder,
    out: &mut RunOutput,
    generate: impl Fn() -> (Dataset, Dataset),
    build: impl Fn(&Dataset) -> T,
) -> (Dataset, Dataset, T) {
    if env.trace {
        let setup = rec.open("setup", 0);
        let t = Instant::now();
        let (base, queries) = rec.within("setup.gen", 0, &generate);
        out.metrics.set("setup.gen_s", t.elapsed().as_secs_f64());
        let span = rec.open("build.index", 0);
        let (built, profile) = profile_build(name, || build(&base));
        rec.close(span);
        push_build_spans(rec, span, &profile);
        build_metrics(&profile, n_points, &mut out.metrics);
        rec.close(setup);
        return (base, queries, built);
    }
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let (base, queries) = generate();
        let built = build(&base);
        secs.push(t.elapsed().as_secs_f64());
        last = Some((base, queries, built));
    }
    out.metrics.set("setup_s", median(&secs));
    last.expect("SETUP_REPEATS is positive")
}

/// Exact top-[`K`] ids per query, timed.
pub fn timed_ground_truth(base: &Dataset, queries: &Dataset, nproc: usize) -> (Vec<Vec<u32>>, f64) {
    let t = Instant::now();
    let gt = ground_truth(base, queries, K, nproc);
    (gt, t.elapsed().as_secs_f64())
}

/// FNV-1a over a result's ids and distance bits.
pub fn result_hash(res: &[Neighbor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in res {
        for word in [n.id, n.dist.to_bits()] {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// Folds per-query hashes into one run digest.
pub fn fold_digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, x| splitmix64(h ^ x))
}

/// Why `res` is not a well-formed answer, if it is not: exactly [`K`]
/// admitted ids, finite distances, nearest first.
pub fn result_defect(res: &[Neighbor], admit: &dyn Fn(u32) -> bool) -> Option<&'static str> {
    if res.len() != K {
        Some("fewer than k results")
    } else if res.iter().any(|n| !n.dist.is_finite()) {
        Some("non-finite distance")
    } else if res.iter().any(|n| !admit(n.id)) {
        Some("id out of range, tombstoned or not admitted")
    } else if res.windows(2).any(|w| w[0].dist > w[1].dist) {
        Some("distances not ascending")
    } else {
        None
    }
}

fn recall_of(result: &[Neighbor], truth: &[u32]) -> f64 {
    let ids: Vec<u32> = result.iter().map(|n| n.id).collect();
    recall(&ids, truth)
}

/// Mean Recall@[`K`] of `results` against `truth`.
pub fn mean_recall(results: &[Vec<Neighbor>], truth: &[Vec<u32>]) -> f64 {
    let sum: f64 = results
        .iter()
        .zip(truth)
        .map(|(r, t)| recall_of(r, t))
        .sum();
    sum / truth.len() as f64
}

/// Position of the answer with the lowest recall: the query a recall-floor
/// violation names.
pub fn worst_answer(results: &[Vec<Neighbor>], truth: &[Vec<u32>]) -> usize {
    let recalls = results.iter().zip(truth).map(|(r, t)| recall_of(r, t));
    recalls
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(0, |(i, _)| i)
}

/// Answers one query and returns the work it counted.
pub type Call<'a> = Box<dyn FnMut(&[f32]) -> (Vec<Neighbor>, SearchStats) + 'a>;

/// One way of answering a query, with everything needed to check it.
pub struct Variant<'a> {
    /// Name in messages and per-variant metrics.
    pub name: &'static str,
    /// The call under test.
    pub call: Call<'a>,
    /// Ids this variant may return.
    pub admit: Box<dyn Fn(u32) -> bool + 'a>,
    /// Exact answers for this variant's admitted set.
    pub truth: &'a [Vec<u32>],
    /// Lowest acceptable recall.
    pub recall_floor: f64,
}

/// What the warm-up pass established for one variant.
pub struct Warm {
    /// Hash of each query's answer; later passes must reproduce it.
    pub expected: Vec<u64>,
    /// Recall of the warm-up answers (deterministic).
    pub recall: f64,
}

/// The untimed warm-up pass: answers every query once, checks each answer
/// and the recall floor, and records what later passes must reproduce.
pub fn warm_up(v: &mut Variant<'_>, queries: &Dataset, out: &mut RunOutput) -> Warm {
    let mut results = Vec::with_capacity(queries.len());
    for qi in 0..queries.len() as u32 {
        out.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| (v.call)(queries.point(qi)))) {
            Ok((res, _)) => {
                if let Some(defect) = result_defect(&res, &*v.admit) {
                    out.fail(format!("{}: query {qi}: {defect}", v.name));
                }
                results.push(res);
            }
            Err(_) => {
                out.fail(format!("{}: panic on query {qi}", v.name));
                results.push(Vec::new());
            }
        }
    }
    let recall = mean_recall(&results, v.truth);
    if recall < v.recall_floor {
        let worst = worst_answer(&results, v.truth);
        out.violations.push(format!(
            "{}: recall {recall:.4} below floor {} (worst query {worst})",
            v.name, v.recall_floor
        ));
    }
    Warm {
        expected: results.iter().map(|r| result_hash(r)).collect(),
        recall,
    }
}

/// Largest of `values`: the best pass of a throughput.
pub fn best_high(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Smallest of `values`: the best pass of a time.
pub fn best_low(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// p50 and p99 (microseconds) of one pass's call latencies, sorted in
/// place; `None` when the pass is too short to state a p99.
pub fn pass_latency_us(lat_ns: &mut [u64]) -> Option<(f64, f64)> {
    lat_ns.sort_unstable();
    Some((
        percentile(lat_ns, 0.50)?.value / 1e3,
        percentile(lat_ns, 0.99)?.value / 1e3,
    ))
}

/// Per-variant results of [`closed_loop`].
#[derive(Default)]
pub struct VariantRun {
    /// Queries per second of each untraced pass.
    pub pass_qps: Vec<f64>,
    /// Queries per second of each traced pass.
    pub traced_pass_qps: Vec<f64>,
    /// Fastest observed answer to each query over the untraced passes,
    /// nanoseconds, indexed by query.
    pub best_ns: Vec<u64>,
    /// What one pass counted. Every pass runs the same queries, so the
    /// counts repeat exactly from pass to pass.
    pub per_pass: WalkTotals,
}

/// Results of [`closed_loop`]. A round is one pass of every variant; with
/// one variant a round is a pass.
pub struct LoopRun {
    /// One entry per variant, in input order.
    pub variants: Vec<VariantRun>,
    /// Queries per second of each untraced round: the throughput of the
    /// even mix.
    pub round_qps: Vec<f64>,
    /// Median call latency of each untraced round, microseconds.
    pub round_p50_us: Vec<f64>,
}

/// The closed loop: one client issues the next query only after the
/// previous answer arrived. A pass is one sweep over `order`, so every
/// pass of a variant does identical work; variants take turns pass by
/// pass, until `seconds` have elapsed. Each call is timed on its own;
/// each answer is compared with the warm-up's. With `tracer`, every
/// second round runs inside spans, and only the other rounds feed the
/// timing results.
pub fn closed_loop(
    variants: &mut [Variant<'_>],
    warm: &[Warm],
    queries: &Dataset,
    order: &[u32],
    seconds: f64,
    mut tracer: Option<&mut SpanRecorder>,
    out: &mut RunOutput,
) -> LoopRun {
    let mut run = LoopRun {
        variants: variants
            .iter()
            .map(|_| VariantRun {
                best_ns: vec![u64::MAX; queries.len()],
                ..VariantRun::default()
            })
            .collect(),
        round_qps: Vec::new(),
        round_p50_us: Vec::new(),
    };
    let mut round_lat: Vec<u64> = Vec::with_capacity(order.len() * variants.len());
    let mut request_id = 0u64;
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let traced = tracer.is_some() && round % 2 == 1;
        round_lat.clear();
        let mut round_secs = 0.0f64;
        for (vi, v) in variants.iter_mut().enumerate() {
            let mut pass = WalkTotals::default();
            let pass_start = Instant::now();
            for &qi in order {
                let q = queries.point(qi);
                request_id += 1;
                let spans = match (&mut tracer, traced) {
                    (Some(rec), true) => Some(rec.open_request("walk.search", request_id)),
                    _ => None,
                };
                let t = Instant::now();
                let answer = catch_unwind(AssertUnwindSafe(|| (v.call)(q)));
                let nanos = t.elapsed().as_nanos() as u64;
                if let (Some(spans), Some(rec)) = (spans, &mut tracer) {
                    rec.close_request(spans);
                }
                out.attempted += 1;
                match answer {
                    Ok((res, stats)) => {
                        if result_hash(&res) != warm[vi].expected[qi as usize] {
                            out.fail(format!(
                                "{}: query {qi} answered differently than in the warm-up",
                                v.name
                            ));
                        }
                        if !traced {
                            let best = &mut run.variants[vi].best_ns[qi as usize];
                            *best = (*best).min(nanos);
                        }
                        round_lat.push(nanos);
                        pass.calls += 1;
                        pass.total_ns += nanos;
                        pass.ndc += stats.ndc;
                        pass.hops += stats.hops;
                        pass.pool_peak_sum += stats.pool_peak;
                    }
                    Err(_) => out.fail(format!("{}: panic on query {qi}", v.name)),
                }
            }
            let secs = pass_start.elapsed().as_secs_f64();
            let qps = order.len() as f64 / secs;
            let into = &mut run.variants[vi];
            if traced {
                into.traced_pass_qps.push(qps);
            } else {
                into.pass_qps.push(qps);
                into.per_pass = pass;
                round_secs += secs;
            }
        }
        if !traced {
            run.round_qps
                .push((order.len() * variants.len()) as f64 / round_secs);
            round_lat.sort_unstable();
            run.round_p50_us
                .push(round_lat[round_lat.len() / 2] as f64 / 1e3);
        }
        round += 1;
    }
    run
}

/// Records the three timing metrics of a closed loop over a fixed query
/// set from every call's fastest observation.
///
/// Timing noise on a shared host is one-sided — a neighbour or the
/// hypervisor only ever slows a call down, here by ±30 % for seconds at a
/// time — and every pass asks the same queries in the same order. So each
/// query's fastest answer over the run's passes is the closest estimate of
/// what the code takes for it, and the only one that repeats from run to
/// run: `qps` is the query count over the sum of those, `latency_p50_us`
/// and `latency_p99_us` are their percentiles (the p99 is the hard
/// queries' latency, not the host's hiccups). The per-pass samples go into
/// the record so `compare` can see how noisy the run was.
pub fn set_timing(run: LoopRun, out: &mut RunOutput) {
    let mut best: Vec<u64> = run
        .variants
        .iter()
        .flat_map(|v| v.best_ns.iter().copied())
        .collect();
    let total_ns: u64 = best.iter().sum();
    out.metrics
        .set("qps", best.len() as f64 / (total_ns as f64 / 1e9));
    match pass_latency_us(&mut best) {
        Some((p50, p99)) => {
            out.metrics.set("latency_p50_us", p50);
            out.metrics.set("latency_p99_us", p99);
        }
        None => out.violations.push(format!(
            "only {} queries: too few to state a p99",
            best.len()
        )),
    }
    out.passes.insert("qps", run.round_qps);
    out.passes.insert("latency_p50_us", run.round_p50_us);
}

/// An [`AnnIndex`] as a [`Variant`] call with its own reused context.
pub fn index_call<'a>(index: &'a dyn AnnIndex, base: &'a Dataset, beam: usize) -> Call<'a> {
    let mut ctx = SearchContext::new(base.len());
    Box::new(move |q| {
        let res = index.search(base, q, K, beam, &mut ctx);
        (res, ctx.take_stats())
    })
}

// --- per-layer probes ---------------------------------------------------

/// Fastest of `reps` timings of `f`, in seconds per call.
pub fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `data::distance` from outside: nanoseconds per distance over a block
/// that stays in cache, and over seeded random ids of the whole base set;
/// plus the host's copy bandwidth to read `kernel.gbps_seq` against.
pub fn kernel_probe(base: &Dataset, query: &[f32], seed: u64, m: &mut Metrics) {
    let dim = base.dim();
    let mut out = Vec::new();
    // 32 KiB of vectors: resident in L1d after the first pass.
    let block: Vec<u32> = (0..((32 * 1024) / (dim * 4)).clamp(8, base.len()) as u32).collect();
    let inner = 200_000 / block.len();
    let seq = best_secs(9, || {
        for _ in 0..inner {
            base.dist_to_many(std::hint::black_box(query), &block, &mut out);
            std::hint::black_box(&out);
        }
    }) / (inner * block.len()) as f64;

    // Gathers of 32 ids, the shape of one vertex expansion.
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<u32> = (0..1 << 17)
        .map(|_| rng.gen_range(0..base.len() as u32))
        .collect();
    let rand = best_secs(5, || {
        for chunk in ids.chunks_exact(32) {
            base.dist_to_many(std::hint::black_box(query), chunk, &mut out);
            std::hint::black_box(&out);
        }
    }) / ids.len() as f64;

    m.set("kernel.ns_per_dist_seq", seq * 1e9);
    m.set("kernel.ns_per_dist_rand", rand * 1e9);
    m.set("kernel.gbps_seq", (dim * 4) as f64 / (seq * 1e9));
    m.set("host.memcpy_gbps", memcpy_gbps());
}

/// Bytes copied per nanosecond between two 64 MiB buffers (far past L2).
fn memcpy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let secs = best_secs(5, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&dst);
    });
    BYTES as f64 / (secs * 1e9)
}

/// Totals over a set of timed walks.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkTotals {
    /// Timed queries.
    pub calls: u64,
    /// Wall time inside the search calls, nanoseconds.
    pub total_ns: u64,
    /// Distance computations.
    pub ndc: u64,
    /// Expanded vertices.
    pub hops: u64,
    /// Sum of per-query candidate-pool peaks (0 when not observable).
    pub pool_peak_sum: u64,
}

impl VariantRun {
    /// One pass's counts with the quiet-host time of a pass: the sum of
    /// every query's fastest observed answer.
    pub fn walk_totals(&self) -> WalkTotals {
        WalkTotals {
            total_ns: self.best_ns.iter().sum(),
            ..self.per_pass
        }
    }

    /// Queries per second at every query's fastest observed answer.
    pub fn quiet_qps(&self) -> f64 {
        self.best_ns.len() as f64 / (self.best_ns.iter().sum::<u64>() as f64 / 1e9)
    }
}

/// The walk's counts and its time budget. `kernel + memstall + upkeep`
/// sum to one by construction: kernel is NDC at the in-cache distance
/// cost, memstall is NDC at the extra cost of gathering from the whole
/// base set, upkeep is the remainder (pool insert, visited set, neighbour
/// fetch).
pub fn walk_metrics(w: WalkTotals, n_points: usize, m: &mut Metrics) {
    let calls = w.calls as f64;
    let ns_per_query = w.total_ns as f64 / calls;
    let ndc = w.ndc as f64 / calls;
    m.set("walk.ndc_per_query", ndc);
    m.set("walk.hops_per_query", w.hops as f64 / calls);
    m.set("walk.pool_peak_mean", w.pool_peak_sum as f64 / calls);
    m.set("walk.speedup_vs_scan", n_points as f64 / ndc);
    m.set("walk.ns_per_query", ns_per_query);
    m.set("walk.ns_per_ndc", ns_per_query / ndc);
    let seq = m.get("kernel.ns_per_dist_seq").expect("kernel probe ran");
    let rand = m.get("kernel.ns_per_dist_rand").expect("kernel probe ran");
    let kernel = ndc * seq / ns_per_query;
    let memstall = ndc * (rand - seq) / ns_per_query;
    m.set("walk.kernel_share_est", kernel);
    m.set("walk.memstall_share_est", memstall);
    m.set("walk.upkeep_share_est", 1.0 - kernel - memstall);
}

/// `trace.overhead_share`: 1 − traced ÷ untraced throughput, best pass
/// of each.
pub fn trace_overhead(untraced_qps: &[f64], traced_qps: &[f64], m: &mut Metrics) {
    if !untraced_qps.is_empty() && !traced_qps.is_empty() {
        m.set(
            "trace.overhead_share",
            1.0 - best_high(traced_qps) / best_high(untraced_qps),
        );
    }
}

/// The paper's QPS-vs-Recall curve at four beams: one sweep for the exact
/// recall, then timed sweeps for `seconds_per_beam`.
pub fn beam_ladder(
    queries: &Dataset,
    truth: &[Vec<u32>],
    seconds_per_beam: f64,
    mut search: impl FnMut(&[f32], usize) -> Vec<Neighbor>,
    m: &mut Metrics,
) {
    for beam in [16usize, 32, 64, 128] {
        let results: Vec<Vec<Neighbor>> = (0..queries.len() as u32)
            .map(|qi| search(queries.point(qi), beam))
            .collect();
        m.set(
            &format!("walk.recall_at_10.beam{beam}"),
            mean_recall(&results, truth),
        );
        let mut sweeps = Vec::new();
        let start = Instant::now();
        while sweeps.is_empty() || start.elapsed().as_secs_f64() < seconds_per_beam {
            let t = Instant::now();
            for qi in 0..queries.len() as u32 {
                std::hint::black_box(search(queries.point(qi), beam));
            }
            sweeps.push(queries.len() as f64 / t.elapsed().as_secs_f64());
        }
        m.set(&format!("walk.qps.beam{beam}"), best_high(&sweeps));
    }
}

/// Degree, size and connectivity of the search graph.
pub fn graph_metrics(graph: &CsrGraph, m: &mut Metrics) {
    let d = degree_stats(graph);
    m.set("graph.avg_degree", d.avg);
    m.set("graph.max_degree", d.max as f64);
    m.set(
        "graph.bytes_per_point",
        graph.memory_bytes() as f64 / graph.len() as f64,
    );
    m.set("graph.components", weak_components(graph) as f64);
}

/// `queries` cut into the 256-query batches the engine probes use.
pub fn batches_of(queries: &Dataset) -> Vec<Dataset> {
    let ids: Vec<u32> = (0..queries.len() as u32).collect();
    ids.chunks(256).map(|ids| queries.subset(ids)).collect()
}

/// `core::serve` from outside: `search_batch` on 256-query batches with
/// one worker and with `nproc`, and the per-query cost of batching itself
/// (batch wall × workers − Σ per-query latency from the `BatchReport`).
pub fn engine_probe(
    index: &dyn AnnIndex,
    base: &Dataset,
    queries: &Dataset,
    beam: usize,
    nproc: usize,
    seconds: f64,
    m: &mut Metrics,
) {
    let batches = batches_of(queries);
    let measure = |workers: usize| {
        let engine = QueryEngine::with_options(
            index,
            base,
            EngineOptions {
                workers,
                seed: BUILD_SEED,
            },
        );
        let (mut qps, mut overhead) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while qps.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
            for batch in &batches {
                let report = engine.search_batch(batch, K, beam);
                let wall_ns = report.wall.as_nanos() as f64;
                qps.push(batch.len() as f64 / (wall_ns / 1e9));
                let busy_ns = report.latency_hist.sum() as f64;
                overhead.push((wall_ns * report.workers as f64 - busy_ns) / batch.len() as f64);
            }
        }
        (best_high(&qps), best_low(&overhead))
    };
    let (qps_1w, _) = measure(1);
    let (qps_nw, overhead_nw) = measure(nproc);
    m.set("engine.batch_qps_1w", qps_1w);
    m.set("engine.batch_qps_nw", qps_nw);
    m.set("engine.overhead_ns_per_query", overhead_nw);
    // One hardware thread measures no parallel scaling; the ratio is
    // withheld (left at 0) rather than printed as ~1/n.
    if nproc > 1 {
        m.set("engine.scaling_eff", qps_nw / (nproc as f64 * qps_1w));
    }
}

/// Construction metrics from a timed, profiled build.
fn build_metrics(profile: &BuildProfile, n_points: usize, m: &mut Metrics) {
    m.set("build.index_s", profile.total_secs);
    m.set("build.points_per_s", n_points as f64 / profile.total_secs);
    let ndc: u64 = profile.spans.iter().map(|s| s.ndc).sum();
    m.set("build.ndc_per_point", ndc as f64 / n_points as f64);
    for (name, top_level) in [
        ("build.span_s.c1_init", "C1 init"),
        ("build.span_s.c2_c3", "C2+C3"),
        ("build.span_s.c5_connectivity", "C5"),
        ("build.span_s.freeze", "freeze"),
    ] {
        // A sharded build runs each phase once per shard: sum them. (The
        // 0.0 start keeps an absent phase at 0 rather than f64's -0 sum.)
        let secs = profile
            .spans
            .iter()
            .filter(|s| s.component.starts_with(top_level))
            .fold(0.0, |acc, s| acc + s.secs);
        m.set(name, secs);
    }
}

/// Replays a build profile's spans under `parent` in the harness trace:
/// top-level phases end to end, RNN-Descent's inner rounds (`C1 rnn …`)
/// end to end under the `C1 init` phase they belong to.
fn push_build_spans(rec: &mut SpanRecorder, parent: usize, profile: &BuildProfile) {
    let mut at = rec.spans()[parent].start_ns;
    let mut c1: Option<(usize, u64)> = None;
    for s in &profile.spans {
        let dur = (s.secs * 1e9) as u64;
        if s.component.starts_with("C1 rnn") {
            if let Some((c1_span, inner_at)) = c1.as_mut() {
                rec.push_measured("build.c1_rnn_round", *inner_at, dur, Some(*c1_span));
                *inner_at += dur;
            }
            continue;
        }
        let name = match s.component {
            "C1 init" => "build.c1_init",
            c if c.starts_with("C2+C3") => "build.c2_c3",
            c if c.starts_with("C5") => "build.c5_connectivity",
            "freeze" => "build.freeze",
            _ => "build.other",
        };
        let id = rec.push_measured(name, at, dur, Some(parent));
        if name == "build.c1_init" {
            c1 = Some((id, at));
        }
        at += dur;
    }
}

/// Peak resident set of this process (VmHWM), MiB; 0 where unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host metrics every traced run reports.
pub fn host_metrics(env: &Env, m: &mut Metrics) {
    m.set("host.peak_rss_mib", peak_rss_mib());
    m.set("host.nproc", env.nproc as f64);
}
