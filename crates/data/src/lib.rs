#![warn(missing_docs)]

//! Vector dataset substrate for the WEAVESS graph-ANNS reproduction.
//!
//! This crate owns everything the survey's evaluation layer needs *below* the
//! graph level:
//!
//! - [`Dataset`]: a flat, row-major `f32` matrix of base vectors.
//! - [`distance`]: Euclidean kernels in three tiers — survey-faithful
//!   scalar, autovectorizer-friendly unrolled, and explicit AVX2+FMA SIMD —
//!   dispatched at runtime through [`KernelTier`].
//! - [`Neighbor`]: the ubiquitous `(id, distance)` pair ordered by distance.
//! - [`synthetic`]: seeded Gaussian-mixture generators reproducing the
//!   paper's synthetic datasets (Table 10) and stand-ins for its eight
//!   real-world datasets (Table 3).
//! - [`io`]: TexMex `fvecs`/`ivecs` readers and writers so the real datasets
//!   drop in unchanged when available.
//! - [`ground_truth`]: parallel brute-force exact k-NN.
//! - [`parallel`]: the workspace's one fork-join runtime — fixed-chunk
//!   deterministic maps over a standing [`parallel::WorkerPool`], which
//!   every build, scan and generator phase and every serving engine runs
//!   on.
//! - [`metrics`]: `Recall@k`, local intrinsic dimensionality (LID), and the
//!   distance-computation counter that underlies the paper's *speedup*
//!   metric (`|S| / NDC`).

pub mod dataset;
pub mod distance;
pub mod ground_truth;
pub mod io;
pub mod metrics;
pub mod neighbor;
pub mod parallel;
pub mod pq;
pub mod prefetch;
pub mod quant;
pub mod synthetic;
#[cfg(test)]
mod synthetic_goldens;
pub mod vectors;

pub use dataset::Dataset;
pub use distance::{host_features, KernelTier};
pub use neighbor::Neighbor;
pub use vectors::VectorView;
