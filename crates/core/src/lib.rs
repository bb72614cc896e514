#![warn(missing_docs)]

//! The survey's primary contribution, reimplemented: a unified
//! seven-component pipeline for graph-based ANNS and the seventeen
//! algorithms the paper analyzes through it.
//!
//! # Layout
//!
//! - [`search`]: routing strategies (C7) — best-first beam search
//!   (Algorithm 1), NGT range search, FANNG backtracking, HCNNG guided
//!   search, OA two-stage routing — plus the per-query accounting
//!   ([`search::SearchStats`]) behind the paper's NDC/speedup/path-length
//!   metrics.
//! - [`nndescent`]: NN-Descent graph refinement (KGraph's engine; shared by
//!   EFANNA, DPG, NSG, NSSG and the optimized algorithm).
//! - [`rnndescent`]: Relative NN-Descent — the faster C1 alternative that
//!   interleaves RNG-style pruning into the descent loop itself; same
//!   output shape and determinism contract as [`nndescent`], selectable
//!   as [`pipeline::InitChoice::RnnDescent`] on any component pipeline,
//!   NSG's included (`NsgParams::with_rnn_c1`).
//! - [`components`]: the C1–C6 pipeline stages as free functions and
//!   strategy enums, so any combination can be composed.
//! - [`pipeline`]: the §5.4 benchmark algorithm — a
//!   [`pipeline::PipelineBuilder`] holding one choice per component, used
//!   for controlled single-component ablations (Figure 10) and, as
//!   presets, by every refinement algorithm.
//! - [`index`]: the uniform [`index::AnnIndex`] trait every built index
//!   implements, and the [`index::FlatIndex`] (graph + seeds + router) that
//!   covers all single-layer algorithms.
//! - [`algorithms`]: one module per surveyed algorithm (Table 2 plus the
//!   appendix's k-DR and §6's optimized algorithm OA), and the dynamic
//!   HNSW extension ([`algorithms::hnsw_dynamic`]).
//! - [`parallel`] (re-exported from `weavess_data`): the deterministic
//!   fork-join layer — fixed chunking, in-order combination, and the
//!   prefix-doubling batch scheduler; every builder's threading goes
//!   through it, so built graphs are bit-identical at any thread count.
//!   All of it runs on [`parallel::WorkerPool`]: builds on one standing
//!   process-wide pool, each serving engine on its own, which wakes a
//!   worker only when its measured hand-off latency pays for the task
//!   that worker would take.
//! - [`persist`]: save/load built indexes without rebuilding.
//! - [`quantized`]: SQ8-routed search with full-precision rerank (the §6
//!   "data encoding" challenge).
//! - [`locality`]: the cache-locality layer — BFS vertex reordering and
//!   the fused node arena behind a runtime-selectable
//!   [`locality::LayoutIndex`], results identical to the split layout.
//! - [`serve`]: the concurrent batch query engine
//!   ([`serve::QueryEngine`]) — per-worker scratch pooling, deterministic
//!   results at any worker count, batch QPS/latency accounting.
//! - [`shard`]: the sharded scatter-gather serving tier — seeded
//!   deterministic partitioning, one engine per shard behind
//!   [`shard::ShardedEngine`], an order-stable top-k merge (results
//!   independent of shard count when shards answer exactly), a
//!   work-conserving admission queue ([`shard::BatchQueue`]), and
//!   fleet-level metrics ([`shard::FleetReport`]).
//! - [`telemetry`]: the observability layer — log2-bucketed histograms,
//!   sharded counters, per-hop route tracing
//!   ([`telemetry::RouteTracer`]), build-phase spans
//!   ([`telemetry::BuildProfile`]), and Prometheus/JSON exposition.
//! - [`adapt`]: trace-driven graph adaptation — mines recorded routes
//!   ([`telemetry::TraceAggregate`]) for catapult shortcut edges (kept in
//!   an overlay segment, base graph untouched) and hub-aware entry
//!   refresh; deterministic at any mining thread count.
//! - [`audit`]: the online recall auditor and SLO engine — a shadow
//!   audit path that exact-scans a deterministic sample of served
//!   queries on a budget, maintains a rolling live `Recall@k` with
//!   Wilson confidence intervals (per-shard and overlay-vs-base
//!   attribution), and evaluates latency/recall burn rates into
//!   ok/warn/breach states on the existing exposition surface.

pub mod adapt;
pub mod algorithms;
pub mod audit;
pub mod components;
pub mod index;
pub mod locality;
pub mod nndescent;
pub mod persist;
pub mod pipeline;
pub mod quantized;
pub mod rnndescent;
pub mod search;
pub mod serve;
pub mod shard;
pub mod telemetry;

pub use adapt::{AdaptError, AdaptParams, AdaptReport};
pub use audit::{
    wilson_interval, AuditConfig, AuditSnapshot, RecallAuditor, SloEngine, SloPolicy, SloReport,
    SloState,
};
pub use index::{AnnIndex, FlatIndex, IndexError, SearchContext};
pub use locality::{LayoutIndex, LayoutStats, NodeLayout};
pub use search::{Router, SearchStats};
pub use serve::{
    BatchReport, EngineOptions, EngineSnapshot, LatencySummary, QueryEngine, WorkerReport,
};
pub use shard::{
    BatchQueue, FleetReport, QueueOptions, QueueSnapshot, ShardError, ShardSet, ShardedBatchReport,
    ShardedEngine,
};
pub use telemetry::{
    query_fingerprint, BuildProfile, Flight, FlightOptions, FlightRecorder, NoopTracer,
    RecordingTracer, RouteTracer, TraceAggregate,
};
/// The workspace's one fork-join runtime, re-exported from the data crate
/// so builders and engines keep reaching it as `crate::parallel`.
pub use weavess_data::parallel;
