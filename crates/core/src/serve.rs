//! Concurrent batch query serving — the deployment-facing counterpart to
//! the paper's single-threaded evaluation loop.
//!
//! The survey measures every algorithm one query at a time on one core
//! (its QPS columns); a serving system answers query *batches* on many
//! cores. [`QueryEngine`] wraps any built [`AnnIndex`] behind a shared
//! read-only reference and fans each batch across a standing
//! [`WorkerPool`] in which the calling thread works beside the parked
//! workers (no thread is created per batch, no runtime dependency, and
//! none is woken for a batch the caller finishes sooner alone),
//! giving every worker a reusable [`SearchContext`] checked out of a
//! scratch pool so the hot path performs no per-query allocation of
//! search state.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of worker count and batch
//! order**. Two mechanisms make that hold:
//!
//! - every query re-seeds its context RNG from the engine's base seed
//!   mixed with a hash of the query vector itself (not its batch
//!   position), so random seed strategies (C4 "random" acquisition) draw
//!   an identical stream wherever and whenever the query runs;
//! - per-query [`SearchStats`] are aggregated with associative,
//!   commutative operations (sums and maxes), and the per-query
//!   NDC/hop [`Histogram`]s merge by element-wise addition, so every
//!   batch aggregate is independent of the partition.
//!
//! Fixed-seed indexes (NSG, HNSW, …) additionally match the plain
//! [`AnnIndex::search`] serial loop exactly; random-seeded indexes match
//! the engine's own 1-worker path (the plain loop advances one RNG
//! across queries and is therefore order-sensitive by construction).
//!
//! # Observability
//!
//! Each [`BatchReport`] carries the batch's latency/NDC/hop histograms
//! and per-worker claim counts; the engine additionally accumulates
//! cumulative metrics across batches, exposed via
//! [`QueryEngine::metrics_prometheus`] (Prometheus text format) and
//! [`QueryEngine::metrics_json`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::index::{AnnIndex, SearchContext};
use crate::parallel::{lock, PoolSnapshot, WorkerPool};
use crate::search::SearchStats;
use crate::telemetry::expose::{Expose, Exposition};
use crate::telemetry::flight::{query_fingerprint, FlightRecorder, QueryFlightPart};
use crate::telemetry::{Histogram, RouteTracer, ShardedCounter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use weavess_data::{Dataset, Neighbor};

/// Tuning knobs for a [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads per batch. `0` means one per available core.
    pub workers: usize,
    /// Base seed mixed into every query's RNG (affects random seed
    /// strategies only).
    pub seed: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workers: 0,
            seed: 0xC0FFEE,
        }
    }
}

impl EngineOptions {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

/// Latency distribution of one batch, read from its log2-bucketed
/// [`Histogram`]: percentiles are exact within one bucket (the bucket's
/// upper bound, clamped to the observed range), `mean` and `max` are
/// exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median per-query latency (bucket resolution).
    pub p50: Duration,
    /// 95th-percentile per-query latency (bucket resolution).
    pub p95: Duration,
    /// 99th-percentile per-query latency (bucket resolution).
    pub p99: Duration,
    /// Mean per-query latency (exact: histogram sum / count).
    pub mean: Duration,
    /// Worst per-query latency (exact).
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes a latency histogram (samples in nanoseconds). Returns
    /// the zero summary for an empty histogram.
    pub fn from_histogram(h: &Histogram) -> LatencySummary {
        if h.count() == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            p50: Duration::from_nanos(h.percentile(0.50)),
            p95: Duration::from_nanos(h.percentile(0.95)),
            p99: Duration::from_nanos(h.percentile(0.99)),
            mean: Duration::from_nanos((h.sum() / h.count() as u128) as u64),
            max: Duration::from_nanos(h.max().unwrap_or(0)),
        }
    }
}

/// One worker's share of a batch. The *assignment* of queries to workers
/// is dynamic (work stealing off an atomic cursor) and therefore not
/// deterministic — only the merged totals are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Queries this worker claimed.
    pub queries_claimed: u64,
    /// Work counters summed over this worker's claimed queries.
    pub stats: SearchStats,
}

/// Everything one batch returns: per-query results in input order, the
/// aggregated work counters, throughput/latency measurements, the
/// batch's work distributions, and per-worker breakdowns.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query nearest-first results, indexed like the input batch.
    pub results: Vec<Vec<Neighbor>>,
    /// Work counters over the whole batch (partition-independent: sums
    /// for `ndc`/`hops`, max for `pool_peak`).
    pub stats: SearchStats,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Per-query latency distribution (from [`BatchReport::latency_hist`]).
    pub latency: LatencySummary,
    /// Worker threads that served the batch.
    pub workers: usize,
    /// Per-worker claim counts and work counters, indexed by worker.
    pub per_worker: Vec<WorkerReport>,
    /// Per-query latency histogram, nanoseconds.
    pub latency_hist: Histogram,
    /// Per-query NDC histogram (deterministic at any worker count).
    pub ndc_hist: Histogram,
    /// Per-query hop histogram (deterministic at any worker count).
    pub hops_hist: Histogram,
}

impl BatchReport {
    /// Queries per second over the batch wall-clock.
    pub fn qps(&self) -> f64 {
        self.results.len() as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Cumulative (cross-batch) distributions, updated once per batch under
/// one short lock.
#[derive(Default)]
struct CumulativeHists {
    latency: Histogram,
    ndc: Histogram,
    hops: Histogram,
}

/// A point-in-time copy of one engine's cumulative metrics — the unit a
/// fleet-level aggregator (the sharded tier's
/// [`FleetReport`](crate::shard::FleetReport)) merges across engines.
/// All fields merge with associative, commutative operations.
#[derive(Debug, Clone, Default)]
pub struct EngineSnapshot {
    /// Queries served since engine creation.
    pub queries_total: u64,
    /// Batches served since engine creation.
    pub batches_total: u64,
    /// Per-query wall latency, nanoseconds.
    pub latency: Histogram,
    /// Per-query distance computations.
    pub ndc: Histogram,
    /// Per-query expanded vertices.
    pub hops: Histogram,
}

/// A concurrent batch query engine over one built index.
///
/// The engine is `Sync`: one instance may serve overlapping
/// [`search_batch`](QueryEngine::search_batch) calls from many caller
/// threads, sharing a single scratch pool of [`SearchContext`]s that is
/// reused across batches (contexts are created on demand up to the peak
/// worker concurrency, then recycled — the steady state allocates no
/// search state at all).
///
/// ```
/// use weavess_core::components::SeedStrategy;
/// use weavess_core::index::FlatIndex;
/// use weavess_core::search::Router;
/// use weavess_core::serve::QueryEngine;
/// use weavess_data::synthetic::MixtureSpec;
/// use weavess_graph::base::exact_knng;
///
/// let (base, queries) = MixtureSpec::table10(8, 500, 4, 3.0, 25).generate();
/// let index = FlatIndex {
///     name: "example",
///     graph: exact_knng(&base, 10, 2),
///     seeds: SeedStrategy::Fixed(vec![0]),
///     router: Router::BestFirst,
/// };
/// let engine = QueryEngine::new(&index, &base);
/// let report = engine.search_batch(&queries, 10, 40);
/// assert_eq!(report.results.len(), queries.len());
/// assert!(report.qps() > 0.0);
/// let metrics = engine.metrics_prometheus();
/// assert!(metrics.contains("weavess_queries_total 25"));
/// ```
pub struct QueryEngine<'a> {
    index: &'a dyn AnnIndex,
    ds: &'a Dataset,
    opts: EngineOptions,
    /// `opts.workers` resolved once (`0`: one per core at creation), so
    /// no batch asks the OS again.
    workers: usize,
    /// The `workers - 1` threads beside each `search_batch` caller.
    pool: WorkerPool,
    scratch: Mutex<Vec<SearchContext>>,
    queries_total: ShardedCounter,
    batches_total: ShardedCounter,
    cumulative: Mutex<CumulativeHists>,
}

impl<'a> QueryEngine<'a> {
    /// An engine with default options (one worker per core).
    pub fn new(index: &'a dyn AnnIndex, ds: &'a Dataset) -> Self {
        Self::with_options(index, ds, EngineOptions::default())
    }

    /// An engine with explicit options.
    pub fn with_options(index: &'a dyn AnnIndex, ds: &'a Dataset, opts: EngineOptions) -> Self {
        let workers = opts.effective_workers();
        QueryEngine {
            index,
            ds,
            workers,
            pool: WorkerPool::new(workers - 1),
            opts,
            scratch: Mutex::new(Vec::new()),
            queries_total: ShardedCounter::new(),
            batches_total: ShardedCounter::new(),
            cumulative: Mutex::new(CumulativeHists::default()),
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Number of pooled scratch contexts currently idle (observability;
    /// bounded by the peak worker concurrency reached so far).
    pub fn pooled_contexts(&self) -> usize {
        lock(&self.scratch).len()
    }

    /// Queries served since the engine was created (batched and
    /// [`search_one`](Self::search_one)).
    pub fn queries_served(&self) -> u64 {
        self.queries_total.get()
    }

    /// Batches served since the engine was created.
    pub fn batches_served(&self) -> u64 {
        self.batches_total.get()
    }

    /// The dataset this engine serves.
    pub fn dataset(&self) -> &Dataset {
        self.ds
    }

    /// A copy of the cumulative metrics, for fleet-level aggregation.
    pub fn snapshot(&self) -> EngineSnapshot {
        let cum = lock(&self.cumulative);
        EngineSnapshot {
            queries_total: self.queries_total.get(),
            batches_total: self.batches_total.get(),
            latency: cum.latency.clone(),
            ndc: cum.ndc.clone(),
            hops: cum.hops.clone(),
        }
    }

    /// The worker pool's hand-off estimate and job counts.
    pub(crate) fn pool_snapshot(&self) -> PoolSnapshot {
        self.pool.snapshot()
    }

    /// Test hook: see [`WorkerPool::pin_handoff_ns`].
    #[doc(hidden)]
    pub fn pin_handoff_ns(&self, ns: u64) {
        self.pool.pin_handoff_ns(ns);
    }

    /// Mean wall time of one walk over every batched query so far,
    /// nanoseconds; `None` until one has been timed. What the engines
    /// price a pool task with.
    pub(crate) fn mean_walk_ns(&self) -> Option<u64> {
        let cum = lock(&self.cumulative);
        let timed = cum.latency.count() as u128;
        (timed > 0).then(|| (cum.latency.sum() / timed) as u64)
    }

    /// Worker slots an `nq`-query batch is cut into, and what one slot is
    /// expected to cost: its even share of the queries at the mean walk.
    fn batch_job(&self, nq: usize) -> (usize, Option<u64>) {
        let workers = self.workers.min(nq).max(1);
        // One slot is the caller's own loop: nothing to price.
        let cost = (workers > 1)
            .then(|| self.mean_walk_ns())
            .flatten()
            .map(|walk| walk.saturating_mul(nq.div_ceil(workers) as u64));
        (workers, cost)
    }

    /// Whether an `nq`-query batch would wake a pool worker (the pool's
    /// wake rule on the job [`search_batch`](Self::search_batch) would
    /// publish) rather than run on the calling thread alone.
    pub(crate) fn fans_out(&self, nq: usize) -> bool {
        let (workers, cost) = self.batch_job(nq);
        self.pool.fans_out(workers, cost)
    }

    /// Cumulative metrics in Prometheus text exposition format: query and
    /// batch counters, pooled-context gauge, and latency/NDC/hop
    /// histograms over every batched query served so far.
    pub fn metrics_prometheus(&self) -> String {
        Exposition::of(&[self]).to_prometheus()
    }

    /// The same cumulative metrics as a JSON object.
    pub fn metrics_json(&self) -> String {
        Exposition::of(&[self]).to_json()
    }

    fn checkout(&self) -> SearchContext {
        match lock(&self.scratch).pop() {
            Some(mut ctx) => {
                ctx.scratch.ensure_len(self.ds.len());
                ctx
            }
            None => SearchContext::new(self.ds.len()),
        }
    }

    fn restore(&self, ctx: SearchContext) {
        lock(&self.scratch).push(ctx);
    }

    /// Answers one query with pooled scratch state. Results are identical
    /// to the same query inside any [`search_batch`](Self::search_batch)
    /// call (per-query seeding is position-independent).
    pub fn search_one(&self, query: &[f32], k: usize, beam: usize) -> Vec<Neighbor> {
        self.answer_one(query, k, beam, None)
    }

    /// [`search_one`](Self::search_one) with a [`RouteTracer`] observing
    /// the route — e.g. a [`crate::telemetry::RecordingTracer`] to capture
    /// a dumpable per-hop trace of exactly how the index answered `query`.
    pub fn search_one_traced(
        &self,
        query: &[f32],
        k: usize,
        beam: usize,
        tracer: &mut dyn RouteTracer,
    ) -> Vec<Neighbor> {
        self.answer_one(query, k, beam, Some(tracer))
    }

    fn answer_one(
        &self,
        query: &[f32],
        k: usize,
        beam: usize,
        tracer: Option<&mut dyn RouteTracer>,
    ) -> Vec<Neighbor> {
        let mut ctx = self.checkout();
        let fp = query_fingerprint(query);
        let out = self.run_query_fp(query, fp, k, beam, &mut ctx, tracer);
        self.restore(ctx);
        self.queries_total.incr();
        out
    }

    /// The single-query hot path, traced or not: deterministic RNG reseed,
    /// then search. `fp` is the query's [`query_fingerprint`] — the batch
    /// loop hashes each query exactly once and shares the value between
    /// RNG reseeding and flight sampling.
    fn run_query_fp(
        &self,
        query: &[f32],
        fp: u64,
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
        tracer: Option<&mut dyn RouteTracer>,
    ) -> Vec<Neighbor> {
        ctx.rng = StdRng::seed_from_u64(self.opts.seed ^ fp);
        match tracer {
            Some(tracer) => self
                .index
                .search_traced(self.ds, query, k, beam, ctx, tracer),
            None => self.index.search(self.ds, query, k, beam, ctx),
        }
    }

    /// Answers a whole batch across the worker pool, returning per-query
    /// results in input order plus aggregated counters, latency, work
    /// histograms, and per-worker breakdowns.
    ///
    /// Queries are claimed dynamically (an atomic cursor), so stragglers
    /// don't idle the other workers; determinism is unaffected because
    /// per-query state never depends on the claiming worker.
    pub fn search_batch(&self, queries: &Dataset, k: usize, beam: usize) -> BatchReport {
        self.search_batch_recorded(queries, k, beam, None)
    }

    /// [`search_batch`](Self::search_batch) with the per-query flight
    /// recorder enabled: every seed-sampled query (and the batch's
    /// slowest, when it beats the recorder's high-water mark) lands in
    /// `rec`'s ring as a single-[`Stage::Search`](crate::telemetry::Stage)
    /// -span flight. Results are identical to the plain path.
    pub fn search_batch_flights(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        rec: &FlightRecorder,
    ) -> BatchReport {
        self.search_batch_recorded(queries, k, beam, Some((rec, &[])))
    }

    /// The batch behind both public entry points and the admission
    /// queue's executor: with a recorder, the batch's flights are
    /// recorded, each sampled one led by its admission wait when `waits`
    /// (enqueue → close, nanoseconds, indexed like `queries`) has one.
    pub(crate) fn search_batch_recorded(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        flights: Option<(&FlightRecorder, &[u64])>,
    ) -> BatchReport {
        let (report, parts) = self.search_batch_obs(queries, k, beam, flights.is_some());
        if let Some((rec, waits)) = flights {
            rec.record_batch(&[parts], &report.results, k, beam, waits, None);
        }
        report
    }

    /// The batch loop behind every entry point. With `record` set, each
    /// query's walk time and counters come back as its flight part (in
    /// `qi` order) — a per-query copy beside the walk, not a per-hop one.
    /// Parts are *collected*, not pushed: [`FlightRecorder::record_batch`]
    /// samples and lays them out, gathered per shard on the sharded tier.
    pub(crate) fn search_batch_obs(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        record: bool,
    ) -> (BatchReport, Vec<QueryFlightPart>) {
        let nq = queries.len();
        let (workers, slot_cost_ns) = self.batch_job(nq);
        let mut results: Vec<Vec<Neighbor>> = Vec::with_capacity(nq);
        results.resize_with(nq, Vec::new);
        let mut stats = SearchStats::default();
        let mut per_worker = Vec::with_capacity(workers);
        let mut latency_hist = Histogram::new();
        let mut ndc_hist = Histogram::new();
        let mut hops_hist = Histogram::new();
        let mut flights = Vec::new();
        let t0 = Instant::now();

        if nq > 0 {
            let cursor = AtomicUsize::new(0);
            // Each worker slot returns (claimed queries with results, its
            // per-worker report, its local histograms, its flight parts);
            // the parent scatters results back into
            // input order and merges the aggregates (order-independent
            // by construction). The caller takes the first slot, so a
            // worker that wakes after the cursor ran dry — or is never
            // woken, the batch being too short to pay for it — reports
            // zero claims.
            let (mut slots, _) = self.pool.map_with_cost(workers, slot_cost_ns, |_| {
                let mut ctx = self.checkout();
                let mut got: Vec<(usize, Vec<Neighbor>)> = Vec::with_capacity(nq / workers + 1);
                let mut acc = SearchStats::default();
                let mut lat_h = Histogram::new();
                let mut ndc_h = Histogram::new();
                let mut hops_h = Histogram::new();
                let mut parts: Vec<QueryFlightPart> = Vec::new();
                loop {
                    let qi = cursor.fetch_add(1, Ordering::Relaxed);
                    if qi >= nq {
                        break;
                    }
                    let q = queries.point(qi as u32);
                    let fp = query_fingerprint(q);
                    let tq = Instant::now();
                    let res = self.run_query_fp(q, fp, k, beam, &mut ctx, None);
                    let nanos = tq.elapsed().as_nanos() as u64;
                    // Per-query counters: take what this query
                    // added, fold into the worker total.
                    let qstats = ctx.take_stats();
                    acc.merge(qstats);
                    lat_h.record(nanos);
                    ndc_h.record(qstats.ndc);
                    hops_h.record(qstats.hops);
                    if record {
                        parts.push(QueryFlightPart {
                            qi: qi as u32,
                            fingerprint: fp,
                            lat_ns: nanos,
                            ndc: qstats.ndc,
                            hops: qstats.hops,
                        });
                    }
                    got.push((qi, res));
                }
                self.restore(ctx);
                let report = WorkerReport {
                    queries_claimed: got.len() as u64,
                    stats: acc,
                };
                (got, report, lat_h, ndc_h, hops_h, parts)
            });
            for (got, report, lat_h, ndc_h, hops_h, parts) in slots.drain(..) {
                stats.merge(report.stats);
                latency_hist.merge(&lat_h);
                ndc_hist.merge(&ndc_h);
                hops_hist.merge(&hops_h);
                per_worker.push(report);
                flights.extend(parts);
                for (qi, res) in got {
                    results[qi] = res;
                }
            }
            // Claim order is not deterministic; batch position is.
            flights.sort_by_key(|p| p.qi);
        }

        let wall = t0.elapsed();
        self.queries_total.add(nq as u64);
        self.batches_total.incr();
        {
            let mut cum = lock(&self.cumulative);
            cum.latency.merge(&latency_hist);
            cum.ndc.merge(&ndc_hist);
            cum.hops.merge(&hops_hist);
        }
        let report = BatchReport {
            results,
            stats,
            wall,
            latency: LatencySummary::from_histogram(&latency_hist),
            workers,
            per_worker,
            latency_hist,
            ndc_hist,
            hops_hist,
        };
        (report, flights)
    }
}

impl Expose for QueryEngine<'_> {
    fn expose(&self, out: &mut Exposition) {
        let cum = lock(&self.cumulative);
        out.counter(
            "weavess_queries_total",
            "Queries served since engine creation.",
            self.queries_total.get(),
        );
        out.counter(
            "weavess_batches_total",
            "Batches served since engine creation.",
            self.batches_total.get(),
        );
        out.gauge(
            "weavess_pooled_contexts",
            "Idle pooled search contexts.",
            self.pooled_contexts() as f64,
        );
        // Adapted-vs-base signal: 0 means the served index is the base
        // graph; nonzero means a trace-mined catapult overlay is live.
        out.gauge(
            "weavess_overlay_edges",
            "Catapult shortcut edges in the served index's overlay segment.",
            self.index.overlay_edges() as f64,
        );
        // Info-style series: constant 1, identity in the labels. Lets a
        // dashboard join latency series against the kernel tier that
        // produced them.
        let identity = vec![
            ("tier", weavess_data::KernelTier::active().to_string()),
            ("host_features", weavess_data::host_features()),
        ];
        out.labeled_gauge(
            "weavess_kernel_info",
            "Active distance-kernel tier and detected host SIMD features.",
            [(identity, 1.0)],
        );
        out.histogram(
            "weavess_query_latency_nanoseconds",
            "Per-query wall latency in nanoseconds.",
            &cum.latency,
        );
        out.histogram(
            "weavess_query_ndc",
            "Distance computations per query.",
            &cum.ndc,
        );
        out.histogram(
            "weavess_query_hops",
            "Expanded vertices per query.",
            &cum.hops,
        );
        expose_pool(
            out,
            "weavess_pool_handoff_seconds",
            "weavess_pool_jobs_total",
            &self.pool.snapshot(),
        );
    }
}

/// Declares one [`PoolSnapshot`] under the given family names: the
/// hand-off gauge (`NaN` until a wake-up has been measured) and the job
/// counter labelled by how each job ran.
pub(crate) fn expose_pool(
    out: &mut Exposition,
    handoff_gauge: &'static str,
    jobs_counter: &'static str,
    pool: &PoolSnapshot,
) {
    out.gauge(
        handoff_gauge,
        "Median of the last eight measured times from waking a parked pool worker to that worker claiming, in seconds.",
        pool.handoff_ns.map_or(f64::NAN, |ns| ns as f64 / 1e9),
    );
    let mode = |m: &str| vec![("mode", m.to_string())];
    out.labeled_counter(
        jobs_counter,
        "Multi-task pool jobs by how they ran: on the calling thread alone, or waking a parked worker.",
        [
            (mode("inline"), pool.jobs_inline),
            (mode("fanned_out"), pool.jobs_fanned_out),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::SeedStrategy;
    use crate::index::FlatIndex;
    use crate::search::Router;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::base::exact_knng;

    fn setup(seeds: SeedStrategy) -> (Dataset, Dataset, FlatIndex) {
        let (ds, qs) = MixtureSpec::table10(8, 600, 4, 3.0, 30).generate();
        let graph = exact_knng(&ds, 10, 4);
        let idx = FlatIndex {
            name: "serve-test",
            graph,
            seeds,
            router: Router::BestFirst,
        };
        (ds, qs, idx)
    }

    #[test]
    fn batch_matches_across_worker_counts_with_random_seeds() {
        let (ds, qs, idx) = setup(SeedStrategy::Random { count: 8 });
        let run = |workers: usize| {
            let engine = QueryEngine::with_options(
                &idx,
                &ds,
                EngineOptions {
                    workers,
                    seed: 0xFEED,
                },
            );
            engine.search_batch(&qs, 10, 40)
        };
        let one = run(1);
        for workers in [2usize, 4, 8] {
            let multi = run(workers);
            assert_eq!(multi.results, one.results, "workers={workers}");
            assert_eq!(multi.stats, one.stats, "workers={workers}");
        }
    }

    /// The satellite determinism check: merged per-worker totals and the
    /// per-query work histograms (and hence every derived percentile) are
    /// identical at 1, 2, and 8 workers, even though each worker's own
    /// claim set is scheduling-dependent.
    #[test]
    fn merged_worker_totals_and_histograms_are_partition_independent() {
        let (ds, qs, idx) = setup(SeedStrategy::Random { count: 8 });
        let run = |workers: usize| {
            let engine = QueryEngine::with_options(
                &idx,
                &ds,
                EngineOptions {
                    workers,
                    seed: 0xFEED,
                },
            );
            engine.search_batch(&qs, 10, 40)
        };
        let one = run(1);
        assert_eq!(one.per_worker.len(), 1);
        assert_eq!(one.per_worker[0].stats, one.stats);
        assert_eq!(one.per_worker[0].queries_claimed, qs.len() as u64);
        for workers in [2usize, 8] {
            let multi = run(workers);
            assert_eq!(multi.per_worker.len(), workers.min(qs.len()));
            let mut merged = SearchStats::default();
            let mut claimed = 0u64;
            for w in &multi.per_worker {
                merged.merge(w.stats);
                claimed += w.queries_claimed;
            }
            assert_eq!(merged, one.stats, "workers={workers}");
            assert_eq!(claimed, qs.len() as u64, "workers={workers}");
            // Per-query NDC/hop distributions merge order-independently.
            assert_eq!(multi.ndc_hist, one.ndc_hist, "workers={workers}");
            assert_eq!(multi.hops_hist, one.hops_hist, "workers={workers}");
            assert_eq!(
                multi.ndc_hist.percentile(0.95),
                one.ndc_hist.percentile(0.95)
            );
        }
    }

    #[test]
    fn batch_matches_plain_serial_loop_with_fixed_seeds() {
        let (ds, qs, idx) = setup(SeedStrategy::Fixed(vec![0, 100, 200]));
        let mut ctx = SearchContext::new(ds.len());
        let serial: Vec<Vec<Neighbor>> = (0..qs.len() as u32)
            .map(|qi| idx.search(&ds, qs.point(qi), 10, 40, &mut ctx))
            .collect();
        let serial_stats = ctx.take_stats();
        for workers in [1, 4] {
            let engine = QueryEngine::with_options(&idx, &ds, EngineOptions { workers, seed: 1 });
            let report = engine.search_batch(&qs, 10, 40);
            assert_eq!(report.results, serial, "workers={workers}");
            assert_eq!(report.stats, serial_stats, "workers={workers}");
        }
    }

    #[test]
    fn batch_order_does_not_change_per_query_results() {
        let (ds, qs, idx) = setup(SeedStrategy::Random { count: 6 });
        let engine = QueryEngine::with_options(
            &idx,
            &ds,
            EngineOptions {
                workers: 3,
                seed: 9,
            },
        );
        let forward = engine.search_batch(&qs, 5, 30);
        let rev_ids: Vec<u32> = (0..qs.len() as u32).rev().collect();
        let reversed = engine.search_batch(&qs.subset(&rev_ids), 5, 30);
        for qi in 0..qs.len() {
            assert_eq!(
                forward.results[qi],
                reversed.results[qs.len() - 1 - qi],
                "query {qi} changed with batch order"
            );
        }
    }

    #[test]
    fn search_one_agrees_with_batch() {
        let (ds, qs, idx) = setup(SeedStrategy::Random { count: 8 });
        let engine = QueryEngine::new(&idx, &ds);
        let report = engine.search_batch(&qs, 10, 40);
        for qi in 0..qs.len() as u32 {
            assert_eq!(
                engine.search_one(qs.point(qi), 10, 40),
                report.results[qi as usize]
            );
        }
    }

    #[test]
    fn traced_search_matches_untraced_and_replays() {
        let (ds, qs, idx) = setup(SeedStrategy::Random { count: 8 });
        let engine = QueryEngine::new(&idx, &ds);
        let mut tracer = crate::telemetry::RecordingTracer::new();
        for qi in 0..4u32 {
            let q = qs.point(qi);
            tracer.clear();
            let traced = engine.search_one_traced(q, 10, 40, &mut tracer);
            assert_eq!(traced, engine.search_one(q, 10, 40), "query {qi}");
            assert!(tracer.hops() > 0);
            assert!(tracer.replay_check(&ds, q));
        }
    }

    #[test]
    fn empty_and_single_query_batches() {
        let (ds, qs, idx) = setup(SeedStrategy::Fixed(vec![0]));
        // More workers than queries in both batches.
        let engine = QueryEngine::with_options(
            &idx,
            &ds,
            EngineOptions {
                workers: 16,
                seed: 0,
            },
        );
        let empty = engine.search_batch(&qs.subset(&[]), 10, 40);
        assert!(empty.results.is_empty());
        assert_eq!(empty.stats, SearchStats::default());
        assert_eq!(empty.latency, LatencySummary::default());
        assert!(empty.per_worker.iter().all(|w| w.queries_claimed == 0));
        assert_eq!(empty.latency_hist.count(), 0);
        let single = engine.search_batch(&qs.subset(&[3]), 10, 40);
        assert_eq!(single.results.len(), 1);
        assert_eq!(single.results[0].len(), 10);
        assert!(single.latency.p50 > Duration::ZERO);
        // A single sample is exact at every percentile.
        assert_eq!(single.latency.p50, single.latency.max);
        assert_eq!(single.ndc_hist.count(), 1);
    }

    #[test]
    fn scratch_pool_is_bounded_and_reused() {
        let (ds, qs, idx) = setup(SeedStrategy::Fixed(vec![0]));
        let engine = QueryEngine::with_options(
            &idx,
            &ds,
            EngineOptions {
                workers: 4,
                seed: 0,
            },
        );
        for _ in 0..5 {
            engine.search_batch(&qs, 5, 20);
        }
        let pooled = engine.pooled_contexts();
        assert!((1..=4).contains(&pooled), "pooled={pooled}");
    }

    #[test]
    fn report_measurements_are_sane() {
        let (ds, qs, idx) = setup(SeedStrategy::Fixed(vec![0, 50]));
        let engine = QueryEngine::new(&idx, &ds);
        let r = engine.search_batch(&qs, 10, 60);
        assert!(r.qps() > 0.0);
        assert!(r.stats.ndc > 0);
        assert!(r.stats.pool_peak > 0);
        assert!(r.latency.p50 <= r.latency.p95);
        assert!(r.latency.p95 <= r.latency.p99);
        assert!(r.latency.p99 <= r.latency.max);
        assert!(r.latency.mean <= r.latency.max);
        assert!(r.wall >= r.latency.max / (r.workers as u32));
        assert_eq!(r.latency_hist.count(), qs.len() as u64);
        assert_eq!(r.ndc_hist.sum(), r.stats.ndc as u128);
        assert_eq!(r.hops_hist.sum(), r.stats.hops as u128);
    }

    #[test]
    fn latency_summary_percentiles_at_bucket_resolution() {
        // Samples 1..=100ns: rank 50 lands in bucket 6 (32..=63) and
        // interpolates to ~50ns; p95/p99 land in bucket 7 (64..=127),
        // clamped to the observed max of 100. Mean and max are exact.
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.p50, Duration::from_nanos(50));
        assert_eq!(s.p95, Duration::from_nanos(100));
        assert_eq!(s.p99, Duration::from_nanos(100));
        assert_eq!(s.max, Duration::from_nanos(100));
        assert_eq!(s.mean, Duration::from_nanos(50));
    }

    #[test]
    fn engine_metrics_accumulate_and_expose() {
        let (ds, qs, idx) = setup(SeedStrategy::Fixed(vec![0]));
        let engine = QueryEngine::new(&idx, &ds);
        engine.search_batch(&qs, 5, 20);
        engine.search_batch(&qs, 5, 20);
        engine.search_one(qs.point(0), 5, 20);
        let expect = 2 * qs.len() as u64 + 1;
        assert_eq!(engine.queries_served(), expect);
        let prom = engine.metrics_prometheus();
        assert!(prom.contains(&format!("weavess_queries_total {expect}")));
        assert!(prom.contains("weavess_batches_total 2"));
        assert!(prom.contains("weavess_query_ndc_bucket{le=\"+Inf\"}"));
        assert!(prom.contains("weavess_query_latency_nanoseconds_count"));
        let tier_label = format!(
            "weavess_kernel_info{{tier=\"{}\"",
            weavess_data::KernelTier::active()
        );
        assert!(prom.contains(&tier_label));
        let json = engine.metrics_json();
        assert!(json.contains(&format!("\"weavess_queries_total\": {expect}")));
        assert!(json.contains("\"weavess_query_ndc\": {\"count\":"));
        assert!(json.contains(&format!(
            "\"weavess_kernel_info\": [{{\"tier\": \"{}\"",
            weavess_data::KernelTier::active()
        )));
    }

    /// A query of the wrong dimensionality panics at the distance kernel
    /// under every tier, instead of reading past the matrix.
    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn search_one_rejects_a_wrong_dimension_query() {
        // Seeded at the last row, where an unchecked read runs furthest.
        let (ds, _, idx) = setup(SeedStrategy::Fixed(vec![599]));
        QueryEngine::new(&idx, &ds).search_one(&[0.5; 64], 10, 40);
    }
}
