//! The in-tree, dependency-free observability layer.
//!
//! The survey's methodology is measurement — NDC, path length,
//! candidate-set size, per-component construction cost (§5, §6) — and
//! this module makes the same introspection available *online*:
//!
//! - [`Histogram`]: log2-bucketed latency/NDC/hop distributions with
//!   deterministic (order-independent) merge across workers;
//! - [`ShardedCounter`]: cache-padded atomic counters for cumulative
//!   serving metrics;
//! - [`RouteTracer`] / [`NoopTracer`] / [`RecordingTracer`]: per-hop
//!   route capture threaded through every routing strategy as a
//!   monomorphized generic, free when off;
//! - [`TraceAggregate`]: the compact, order-invariant fold of a trace
//!   set (visit/terminal counts + hop-pair stats) that feeds the
//!   [`crate::adapt`] mining pass without retaining event streams;
//! - [`BuildProfile`] + [`span`]/[`profile_build`]: per-component
//!   construction spans for all builders;
//! - [`expose`]: Prometheus text + JSON exposition renderers behind
//!   [`crate::serve::QueryEngine`]'s metrics surface;
//! - [`flight`]: the per-query flight recorder — stage-attributed
//!   lifecycle spans (queue wait → scatter → shard search → merge) with
//!   deterministic seeded sampling, a bounded ring, Chrome trace-event
//!   export, and a byte-stable dump; an optional recorder the serving
//!   paths branch on once per query.

pub mod aggregate;
pub mod counter;
pub mod expose;
pub mod flight;
pub mod histogram;
pub mod profile;
pub mod tracer;

pub use aggregate::{PairStat, TraceAggregate};
pub use counter::ShardedCounter;
pub use flight::{query_fingerprint, Flight, FlightOptions, FlightRecorder, SpanRec, Stage};
pub use histogram::Histogram;
pub use profile::{add_span_ndc, profile_build, span, BuildProfile, BuildSpan};
pub use tracer::{NoopTracer, RecordingTracer, RouteEvent, RouteTracer};
