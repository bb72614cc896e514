//! The sharded scatter-gather engine: N per-shard engines behind one
//! query surface.
//!
//! A [`ShardSet`] owns the partitioned data — per shard: the ascending
//! global-id map, the shard's [`Dataset`] slice, and a built
//! [`LayoutIndex`]. A [`ShardedEngine`] borrows the set and hosts one
//! [`QueryEngine`] per shard; a query is scattered to every shard,
//! answered locally, mapped back to global ids, and gathered through the
//! order-stable [`merge_topk`] — so whenever every shard returns its true
//! local top-k, the merged result is the true global top-k, *independent
//! of the shard count* (the determinism invariant
//! `crates/core/tests/sharding.rs` certifies at 1/2/4/8 shards).

use std::time::{Duration, Instant};

use super::merge::merge_topk;
use super::partition::partition_ids;
use super::ShardError;
use crate::index::{AnnIndex, FlatIndex};
use crate::locality::{LayoutIndex, NodeLayout};
use crate::parallel::{PoolSnapshot, WorkerPool};
use crate::search::SearchStats;
use crate::serve::{
    expose_pool, BatchReport, EngineOptions, EngineSnapshot, LatencySummary, QueryEngine,
};
use crate::telemetry::expose::{Expose, Exposition};
use crate::telemetry::flight::{FlightRecorder, QueryFlightPart, ScatterTimes};
use crate::telemetry::{Histogram, ShardedCounter};
use weavess_data::{Dataset, Neighbor};

/// One shard: its slice of the dataset, the global ids that slice came
/// from (ascending, so local id order mirrors global id order), and the
/// index built over the slice.
pub struct Shard {
    global_ids: Vec<u32>,
    data: Dataset,
    index: LayoutIndex,
}

impl Shard {
    /// Points in this shard.
    pub fn len(&self) -> usize {
        self.global_ids.len()
    }

    /// True when the shard holds no points (never constructed by
    /// [`ShardSet::build`], which rejects empty shards with a typed
    /// error).
    pub fn is_empty(&self) -> bool {
        self.global_ids.is_empty()
    }

    /// Global dataset ids of this shard's points; `global_ids()[local]`
    /// is the global id of shard-local point `local`.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// The shard's dataset slice (local id space).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The shard's index (local id space).
    pub fn index(&self) -> &LayoutIndex {
        &self.index
    }

    /// Maps a shard-local id to its global id.
    #[inline]
    pub fn to_global(&self, local: u32) -> u32 {
        self.global_ids[local as usize]
    }
}

/// A deterministic partition of one dataset into built shards.
pub struct ShardSet {
    shards: Vec<Shard>,
    partition_seed: u64,
    total_points: usize,
    dim: usize,
}

impl ShardSet {
    /// Partitions `ds` into `shards` deterministic shards (seeded
    /// pseudo-random deal, balanced to within one point) and builds one
    /// index per shard.
    ///
    /// `build_shard` receives each shard's dataset slice and shard number
    /// and returns the [`FlatIndex`] to host (graph, seeds, and router in
    /// the shard's *local* id space); it is then re-hosted on `layout`
    /// (optionally BFS-`reorder`ed) via [`LayoutIndex::try_from_flat`].
    /// `threads` feeds the parallel partition keying pass (0 = auto);
    /// shard builds run sequentially here because every in-tree builder
    /// already parallelizes internally and deterministically.
    pub fn build<F>(
        ds: &Dataset,
        shards: usize,
        partition_seed: u64,
        layout: NodeLayout,
        reorder: bool,
        threads: usize,
        build_shard: F,
    ) -> Result<ShardSet, ShardError>
    where
        F: Fn(&Dataset, usize) -> FlatIndex,
    {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        if ds.is_empty() {
            return Err(ShardError::EmptyDataset);
        }
        let parts = partition_ids(ds.len(), shards, partition_seed, threads);
        if let Some(s) = parts.iter().position(|p| p.is_empty()) {
            return Err(ShardError::EmptyShard {
                shard: s,
                shards,
                points: ds.len(),
            });
        }
        let mut built = Vec::with_capacity(shards);
        for (s, global_ids) in parts.into_iter().enumerate() {
            let data = ds.subset(&global_ids);
            let flat = build_shard(&data, s);
            let index = LayoutIndex::try_from_flat(flat, &data, layout, reorder).map_err(|e| {
                ShardError::Index {
                    shard: s,
                    source: e,
                }
            })?;
            built.push(Shard {
                global_ids,
                data,
                index,
            });
        }
        Ok(ShardSet {
            shards: built,
            partition_seed,
            total_points: ds.len(),
            dim: ds.dim(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total points across all shards.
    pub fn total_points(&self) -> usize {
        self.total_points
    }

    /// The seed the partition was dealt with.
    pub fn partition_seed(&self) -> u64 {
        self.partition_seed
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Index heap bytes summed over all shards.
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.index.memory_bytes() + s.global_ids.len() * 4)
            .sum()
    }

    /// Catapult overlay edges summed over all shards (0 until adapted).
    pub fn overlay_edges(&self) -> usize {
        self.shards.iter().map(|s| s.index.overlay_edges()).sum()
    }

    /// Adapts every shard in place from its own trace aggregate (one per
    /// shard, in shard order, each in that shard's index id space — the
    /// ids [`crate::serve::QueryEngine::search_one_traced`] records on the
    /// per-shard engines). Entry refresh is per shard: each shard's
    /// entries move toward *its* observed hubs. Must run before a
    /// [`ShardedEngine`] borrows the set; per-shard adaptation inherits
    /// the single-index determinism contract, so the adapted set is a
    /// pure function of `(set, aggregates, params)`.
    pub fn adapt(
        &mut self,
        aggs: &[crate::telemetry::TraceAggregate],
        params: &crate::adapt::AdaptParams,
    ) -> Result<Vec<crate::adapt::AdaptReport>, crate::adapt::AdaptError> {
        if aggs.len() != self.shards.len() {
            return Err(crate::adapt::AdaptError::ShardCount {
                shards: self.shards.len(),
                aggs: aggs.len(),
            });
        }
        self.shards
            .iter_mut()
            .zip(aggs)
            .map(|(shard, agg)| shard.index.adapt(&shard.data, agg, params))
            .collect()
    }
}

/// Everything one scattered batch returns: merged per-query results in
/// input order (global ids), fleet-aggregated counters, and the full
/// per-shard [`BatchReport`]s.
#[derive(Debug)]
pub struct ShardedBatchReport {
    /// Per-query global-id results, nearest-first, indexed like the input
    /// batch.
    pub results: Vec<Vec<Neighbor>>,
    /// Work counters summed across shards (`ndc`/`hops` add, `pool_peak`
    /// maxes) — the same associative/commutative aggregation the
    /// per-shard engines use internally, so the total is independent of
    /// scatter order.
    pub stats: SearchStats,
    /// Wall-clock of the whole scatter-gather.
    pub wall: Duration,
    /// Summary of [`ShardedBatchReport::latency_hist`].
    pub latency: LatencySummary,
    /// Per-(query, shard) component latencies, merged across shards. A
    /// query's end-to-end latency under concurrent scatter is its slowest
    /// shard, not this histogram's sum; the serving-path numbers come
    /// from the admission queue (`benchmark/run.sh --workload serve-open`).
    pub latency_hist: Histogram,
    /// Per-(query, shard) NDC distribution, merged across shards.
    pub ndc_hist: Histogram,
    /// Per-(query, shard) hop distribution, merged across shards.
    pub hops_hist: Histogram,
    /// Per-shard reports, indexed by shard (results in *local* id space
    /// have already been consumed into the merged `results`).
    pub per_shard: Vec<BatchReport>,
}

impl ShardedBatchReport {
    /// Queries per second over the batch wall-clock.
    pub fn qps(&self) -> f64 {
        self.results.len() as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Fleet-level observability: per-shard [`EngineSnapshot`]s plus their
/// order-independent merge, renderable as Prometheus text or JSON, with
/// optional admission-queue, recall-audit, and SLO blocks attached by
/// the serving loop.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Snapshots in shard order.
    pub per_shard: Vec<EngineSnapshot>,
    /// Element-wise merge of every shard's snapshot. `queries_total`
    /// counts per-shard query *executions* (a scattered query counts once
    /// per shard); [`FleetReport::logical_queries`] counts queries once.
    pub merged: EngineSnapshot,
    /// Queries answered by the fleet (each scattered query counted once).
    pub logical_queries: u64,
    /// Batches answered by the fleet.
    pub logical_batches: u64,
    /// The scatter pool's and every shard pool's hand-off accounting,
    /// folded into one [`PoolSnapshot`].
    pub pool: PoolSnapshot,
    /// Admission-queue view, when a [`super::BatchQueue`] fronts the
    /// fleet (attach with [`FleetReport::with_queue`]).
    pub queue: Option<super::QueueSnapshot>,
    /// Live recall-audit view, when a
    /// [`RecallAuditor`](crate::audit::RecallAuditor) shadows the fleet
    /// (attach with [`FleetReport::with_audit`]).
    pub audit: Option<crate::audit::AuditSnapshot>,
    /// Latest SLO evaluation (attach with [`FleetReport::with_slo`]).
    pub slo: Option<crate::audit::SloReport>,
}

impl FleetReport {
    /// Queries answered by the fleet, counting a scattered query once.
    pub fn logical_queries(&self) -> u64 {
        self.logical_queries
    }

    /// Attaches the admission queue's snapshot to the exposition.
    pub fn with_queue(mut self, queue: super::QueueSnapshot) -> Self {
        self.queue = Some(queue);
        self
    }

    /// Attaches the recall auditor's snapshot to the exposition.
    pub fn with_audit(mut self, audit: crate::audit::AuditSnapshot) -> Self {
        self.audit = Some(audit);
        self
    }

    /// Attaches an SLO evaluation to the exposition.
    pub fn with_slo(mut self, slo: crate::audit::SloReport) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Fleet metrics in Prometheus text exposition format: logical
    /// counters, one labeled per-shard series per counter, the merged
    /// NDC/hop/latency histograms, then every attached block.
    pub fn to_prometheus(&self) -> String {
        Exposition::of(&[self]).to_prometheus()
    }

    /// The same fleet metrics as a JSON object.
    pub fn to_json(&self) -> String {
        Exposition::of(&[self]).to_json()
    }
}

impl Expose for FleetReport {
    fn expose(&self, out: &mut Exposition) {
        out.counter(
            "weavess_fleet_queries_total",
            "Queries served by the fleet (scatter counted once).",
            self.logical_queries,
        );
        out.counter(
            "weavess_fleet_batches_total",
            "Batches served by the fleet.",
            self.logical_batches,
        );
        let per_shard = |f: fn(&EngineSnapshot) -> u64| {
            let shards = self.per_shard.iter().enumerate();
            shards.map(move |(s, snap)| (vec![("shard", s.to_string())], f(snap)))
        };
        out.labeled_counter(
            "weavess_shard_queries_total",
            "Query executions per shard.",
            per_shard(|s| s.queries_total),
        );
        out.labeled_counter(
            "weavess_shard_batches_total",
            "Batch executions per shard.",
            per_shard(|s| s.batches_total),
        );
        out.histogram(
            "weavess_fleet_query_latency_nanoseconds",
            "Per-(query, shard) wall latency in nanoseconds, merged.",
            &self.merged.latency,
        );
        out.histogram(
            "weavess_fleet_query_ndc",
            "Distance computations per (query, shard), merged.",
            &self.merged.ndc,
        );
        out.histogram(
            "weavess_fleet_query_hops",
            "Expanded vertices per (query, shard), merged.",
            &self.merged.hops,
        );
        expose_pool(
            out,
            "weavess_fleet_pool_handoff_seconds",
            "weavess_fleet_pool_jobs_total",
            &self.pool,
        );
        if let Some(q) = &self.queue {
            q.expose(out);
        }
        if let Some(a) = &self.audit {
            a.expose(out);
        }
        if let Some(s) = &self.slo {
            s.expose(out);
        }
    }
}

/// The scatter-gather serving engine over a built [`ShardSet`].
///
/// Every shard gets its own [`QueryEngine`] with the same
/// [`EngineOptions`]; per-query RNG reseeding (a function of the engine
/// seed and the query vector only) therefore behaves identically at any
/// shard count. Batches scatter as one task per shard, each running that
/// shard's own engine, on a standing [`WorkerPool`] the caller works
/// beside — concurrently when the batch is long enough to pay for waking
/// a worker, back to back on the caller when it is not — and gather
/// through [`merge_topk`], whose `(distance-bits, global id)` order makes
/// the merged results independent of shard response order.
pub struct ShardedEngine<'a> {
    set: &'a ShardSet,
    engines: Vec<QueryEngine<'a>>,
    /// The scatter workers beside each `search_batch` caller.
    pool: WorkerPool,
    queries_total: ShardedCounter,
    batches_total: ShardedCounter,
}

impl<'a> ShardedEngine<'a> {
    /// An engine with default per-shard options.
    pub fn new(set: &'a ShardSet) -> Self {
        Self::with_options(set, EngineOptions::default())
    }

    /// An engine with explicit per-shard options (`workers` applies
    /// within each shard; size it so `shards × workers` fits the host).
    pub fn with_options(set: &'a ShardSet, opts: EngineOptions) -> Self {
        let engines: Vec<_> = set
            .shards
            .iter()
            .map(|s| QueryEngine::with_options(&s.index, &s.data, opts.clone()))
            .collect();
        ShardedEngine {
            set,
            pool: WorkerPool::new(engines.len() - 1),
            engines,
            queries_total: ShardedCounter::new(),
            batches_total: ShardedCounter::new(),
        }
    }

    /// The shard set this engine serves.
    pub fn shard_set(&self) -> &ShardSet {
        self.set
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// The per-shard engine (per-shard metrics, traced search, …).
    pub fn engine(&self, shard: usize) -> &QueryEngine<'a> {
        &self.engines[shard]
    }

    /// Queries answered since creation (a scattered query counts once).
    pub fn queries_served(&self) -> u64 {
        self.queries_total.get()
    }

    /// What one shard's task of an `nq`-query batch is expected to cost:
    /// `nq` walks at the shards' mean walk time. Unknown until every
    /// shard has timed a query.
    fn shard_task_cost_ns(&self, nq: usize) -> Option<u64> {
        let walks = self.engines.iter().map(|e| e.mean_walk_ns());
        let total = walks.sum::<Option<u64>>()?;
        Some((total / self.engines.len() as u64).saturating_mul(nq as u64))
    }

    /// Whether an `nq`-query batch would wake a worker — of the scatter
    /// pool or of any shard's own — rather than run on the calling thread
    /// alone: the pools' wake rule on the jobs
    /// [`search_batch`](Self::search_batch) would publish.
    pub(crate) fn fans_out(&self, nq: usize) -> bool {
        self.pool
            .fans_out(self.engines.len(), self.shard_task_cost_ns(nq))
            || self.engines.iter().any(|e| e.fans_out(nq))
    }

    /// Test hook: [`WorkerPool::pin_handoff_ns`] on the scatter pool and
    /// every shard's.
    #[doc(hidden)]
    pub fn pin_handoff_ns(&self, ns: u64) {
        self.pool.pin_handoff_ns(ns);
        self.engines.iter().for_each(|e| e.pin_handoff_ns(ns));
    }

    /// Answers one query: scatter to every shard, gather the global
    /// top-`k`. Results carry global ids and are identical to the same
    /// query inside any [`search_batch`](Self::search_batch).
    pub fn search_one(&self, query: &[f32], k: usize, beam: usize) -> Vec<Neighbor> {
        let pools: Vec<Vec<Neighbor>> = self
            .engines
            .iter()
            .zip(&self.set.shards)
            .map(|(engine, shard)| {
                let mut pool = engine.search_one(query, k, beam);
                for n in &mut pool {
                    n.id = shard.to_global(n.id);
                }
                pool
            })
            .collect();
        self.queries_total.incr();
        merge_topk(&pools, k)
    }

    /// Answers a whole batch: every shard runs the batch through its own
    /// worker pool concurrently, then per-query pools are gathered in
    /// input order.
    pub fn search_batch(&self, queries: &Dataset, k: usize, beam: usize) -> ShardedBatchReport {
        self.search_batch_obs(queries, k, beam, None)
    }

    /// [`search_batch`](Self::search_batch) with the per-query flight
    /// recorder enabled: every seed-sampled query lands in `rec`'s ring
    /// as one flight whose spans attribute the batch-scoped scatter, one
    /// [`Stage::ShardSearch`](crate::telemetry::Stage) per shard (with
    /// that shard's latency, NDC, and hops for this query), and the
    /// per-query top-k merge. Results are identical to the plain path.
    pub fn search_batch_flights(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        rec: &FlightRecorder,
    ) -> ShardedBatchReport {
        self.search_batch_obs(queries, k, beam, Some((rec, &[])))
    }

    /// The scatter-gather behind both entry points and the admission
    /// queue's executor. With a recorder it also times each merge and
    /// records the batch's flights, each sampled one led by its
    /// admission wait when `waits` (indexed like `queries`) has one.
    pub(crate) fn search_batch_obs(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        flights: Option<(&FlightRecorder, &[u64])>,
    ) -> ShardedBatchReport {
        let record = flights.is_some();
        let nq = queries.len();
        let t0 = Instant::now();
        // Scatter: one task per shard; results come back slotted by shard
        // index, so the gather below is independent of completion order
        // and of whether the pool found a second thread worth waking.
        type ShardResult = (Vec<Vec<Neighbor>>, BatchReport, Vec<QueryFlightPart>);
        let (mut shard_results, handoff_ns): (Vec<ShardResult>, _) =
            self.pool
                .map_with_cost(self.engines.len(), self.shard_task_cost_ns(nq), |s| {
                    let shard = &self.set.shards[s];
                    let (mut report, parts) =
                        self.engines[s].search_batch_obs(queries, k, beam, record);
                    let mut globalized = std::mem::take(&mut report.results);
                    for pool in &mut globalized {
                        for n in pool.iter_mut() {
                            n.id = shard.to_global(n.id);
                        }
                    }
                    (globalized, report, parts)
                });
        let scatter_ns = t0.elapsed().as_nanos() as u64;

        // Gather: order-stable per-query merge plus associative aggregate
        // merges, all in shard order (any order would give the same
        // answer; shard order keeps `per_shard` indexable).
        let mut per_query: Vec<Vec<Vec<Neighbor>>> = Vec::with_capacity(nq);
        per_query.resize_with(nq, || Vec::with_capacity(self.engines.len()));
        for (globalized, _, _) in &mut shard_results {
            for (qi, pool) in globalized.drain(..).enumerate() {
                per_query[qi].push(pool);
            }
        }
        // Merges are timed only for the flights.
        let mut merge_ns: Vec<u64> = Vec::with_capacity(if record { nq } else { 0 });
        let results: Vec<Vec<Neighbor>> = per_query
            .iter()
            .map(|p| {
                let tm = record.then(Instant::now);
                let merged = merge_topk(p, k);
                merge_ns.extend(tm.map(|tm| tm.elapsed().as_nanos() as u64));
                merged
            })
            .collect();
        if let Some((rec, waits)) = flights {
            let parts: Vec<Vec<QueryFlightPart>> = shard_results
                .iter_mut()
                .map(|(_, _, p)| std::mem::take(p))
                .collect();
            let times = ScatterTimes {
                scatter_ns,
                handoff_ns,
                merge_ns: &merge_ns,
            };
            rec.record_batch(&parts, &results, k, beam, waits, Some(times));
        }

        let mut stats = SearchStats::default();
        let mut latency_hist = Histogram::new();
        let mut ndc_hist = Histogram::new();
        let mut hops_hist = Histogram::new();
        let per_shard: Vec<BatchReport> = shard_results
            .drain(..)
            .map(|(_, report, _)| {
                stats.merge(report.stats);
                latency_hist.merge(&report.latency_hist);
                ndc_hist.merge(&report.ndc_hist);
                hops_hist.merge(&report.hops_hist);
                report
            })
            .collect();
        self.queries_total.add(nq as u64);
        self.batches_total.incr();
        ShardedBatchReport {
            results,
            stats,
            wall: t0.elapsed(),
            latency: LatencySummary::from_histogram(&latency_hist),
            latency_hist,
            ndc_hist,
            hops_hist,
            per_shard,
        }
    }

    /// Fleet-level cumulative metrics: per-shard snapshots and their
    /// merge.
    pub fn fleet_report(&self) -> FleetReport {
        let per_shard: Vec<EngineSnapshot> = self.engines.iter().map(|e| e.snapshot()).collect();
        let mut pool = self.pool.snapshot();
        for e in &self.engines {
            pool.absorb(e.pool_snapshot());
        }
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
            logical_queries: self.queries_total.get(),
            logical_batches: self.batches_total.get(),
            pool,
            queue: None,
            audit: None,
            slo: None,
        }
    }

    /// [`FleetReport::to_prometheus`] on the current snapshots.
    pub fn metrics_prometheus(&self) -> String {
        self.fleet_report().to_prometheus()
    }

    /// [`FleetReport::to_json`] on the current snapshots.
    pub fn metrics_json(&self) -> String {
        self.fleet_report().to_json()
    }
}
