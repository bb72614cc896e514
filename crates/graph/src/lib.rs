#![warn(missing_docs)]

//! Graph substrate for the WEAVESS reproduction.
//!
//! Owns everything graph-shaped that the algorithms share:
//!
//! - [`adjacency`]: the flat CSR search graph ([`CsrGraph`]) and the
//!   mutable fixed-stride graph of the incremental indexes
//!   ([`SlotGraph`]).
//! - [`unionfind`]: disjoint sets (connected components, Kruskal).
//! - [`base`]: exact base graphs from §3.1 — KNNG, RNG, MST — used as
//!   baselines, inside algorithms (HCNNG's per-cluster MSTs), and as the
//!   reference for the graph-quality metric.
//! - [`connectivity`]: weakly-connected components and DFS reachability
//!   (the C5 component and the Table 4 "CC" column).
//! - [`metrics`]: graph quality, degree statistics, index size.
//! - [`reorder`]: deterministic BFS-from-medoid vertex renumbering for
//!   cache locality, with the inverse map that keeps caller-visible ids
//!   in the original space.
//! - [`fused`]: the cache-line-aligned fused node arena (degree +
//!   neighbors + vector in one block).
//! - [`overlay`]: the catapult overlay segment — budget-bounded shortcut
//!   edges kept apart from the base graph and merged into a combined
//!   routing graph, so trace-driven adaptation never mutates base bytes.

pub mod adjacency;
pub mod base;
pub mod connectivity;
pub mod fused;
pub mod metrics;
pub mod overlay;
pub mod reorder;
pub mod unionfind;

pub use adjacency::{CsrGraph, SlotGraph};
pub use fused::FusedArena;
pub use overlay::{merge_overlay, strip_overlay, GraphOverlay, OverlayError};
pub use reorder::{bfs_order, Permutation};
pub use unionfind::UnionFind;
