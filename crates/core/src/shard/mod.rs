//! The sharded scatter-gather serving tier — the "millions of users"
//! milestone.
//!
//! One machine-sized [`crate::serve::QueryEngine`] answers batches over
//! one index; production traffic is a stream against a dataset that may
//! not fit one index. This module partitions the dataset into N
//! deterministic shards and serves them behind a single query surface:
//!
//! - [`partition`]: seeded pseudo-random deal of point ids to shards —
//!   a pure function of `(n, shards, seed)`, balanced to within one
//!   point, keyed in parallel through [`crate::parallel`];
//! - [`ShardSet`]: the built artifact — per shard a dataset slice, an
//!   ascending global-id map, and a [`crate::locality::LayoutIndex`];
//! - [`ShardedEngine`]: scatter a query (or batch) to every shard's
//!   [`crate::serve::QueryEngine`], gather through the order-stable
//!   [`merge_topk`];
//! - [`BatchQueue`]: the admission queue — a query is dispatched at once
//!   when the lane is free, and streaming arrivals coalesce into one
//!   engine batch only while a batch that fanned out over other cores
//!   executes ahead of them (one the engine runs on its leader's thread
//!   alone holds nobody back);
//! - [`FleetReport`]: per-shard + merged observability on the existing
//!   Prometheus/JSON exposition.
//!
//! # The determinism invariant
//!
//! For a fixed partition seed, results are **independent of the shard
//! count** whenever each shard answers exactly (returns its true local
//! top-k): the merge is a k-select under the total `(distance-bits,
//! global id)` order, and a k-select over any partition of the candidates
//! equals the global k-select. `crates/core/tests/sharding.rs` certifies
//! this bit-for-bit at 1/2/4/8 shards against the unsharded engine for
//! all five search routines, and property-tests the merge law in
//! isolation. With approximate per-shard search the invariant degrades
//! gracefully into "merged recall ≥ per-shard recall"; the benchmark's
//! `serve-open` workload gates the merged `recall_at_10`.

pub mod engine;
pub mod merge;
pub mod partition;
pub mod queue;

pub use engine::{FleetReport, Shard, ShardSet, ShardedBatchReport, ShardedEngine};
pub use merge::{merge_topk, merge_two};
pub use partition::{partition_ids, partition_key};
pub use queue::{BatchExecutor, BatchQueue, QueueOptions, QueueSnapshot, QueueStats};

use crate::index::IndexError;

/// A typed sharding failure: partition or per-shard build rejected the
/// input. Matching on this (rather than catching a panic) is what lets a
/// serving control plane degrade — retry with fewer shards, or refuse the
/// configuration — instead of dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// A shard count of zero was requested.
    NoShards,
    /// The dataset holds no points.
    EmptyDataset,
    /// The partition produced an empty shard (`points < shards`).
    EmptyShard {
        /// Which shard came up empty.
        shard: usize,
        /// Requested shard count.
        shards: usize,
        /// Points available.
        points: usize,
    },
    /// A per-shard index build failed.
    Index {
        /// Which shard's build failed.
        shard: usize,
        /// The underlying index error.
        source: IndexError,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "shard count must be positive"),
            ShardError::EmptyDataset => write!(f, "cannot shard an empty dataset"),
            ShardError::EmptyShard {
                shard,
                shards,
                points,
            } => write!(
                f,
                "shard {shard} of {shards} is empty ({points} points cannot fill {shards} shards)"
            ),
            ShardError::Index { shard, source } => {
                write!(f, "building shard {shard} failed: {source}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Index { source, .. } => Some(source),
            _ => None,
        }
    }
}
