//! The fine-grained pipeline components of §4 as composable pieces.
//!
//! | component | module | implementations |
//! |-----------|--------|-----------------|
//! | C1 initialization | [`init`] | random, NN-Descent, KD-forest, brute force |
//! | C2 candidate acquisition | [`candidates`] | graph search, 2-hop expansion, direct neighbors, every point |
//! | C3 neighbor selection | [`selection`] | distance-only, RNG rule (α-generalized), NSSG angle, DPG angular, MST |
//! | C4 seed preprocessing + C6 seed acquisition | [`seeds`] | random, fixed, farthest-point spread, KD-forest, VP-tree, BK-tree, LSH |
//! | C5 connectivity | [`connectivity`] | DFS repair, reverse edges |
//! | C7 routing | [`crate::search`] | best-first, range, backtrack, guided, two-stage |
//!
//! The per-point loop that runs C2 + C3 for every vertex, and the freeze
//! of the resulting lists, are the crate-private `refine` skeleton.

pub mod candidates;
pub mod connectivity;
pub mod init;
pub(crate) mod refine;
pub mod seeds;
pub mod selection;

pub use seeds::SeedStrategy;
