//! Seeded, deterministic dataset partitioning.
//!
//! The partition is a pure function of `(n, shards, seed)` — never of
//! thread count, insertion order, or wall clock. Every point gets a
//! 64-bit mixing key (computed in parallel over the fixed chunks of
//! [`crate::parallel`]); ids are then ranked by `(key, id)` — a seeded
//! pseudo-random permutation — and dealt round-robin across shards, so
//! shard sizes differ by at most one and no shard is empty whenever
//! `n >= shards`.

use crate::parallel::{self, CHUNK};

/// SplitMix64 finalizer over `seed ^ id`: the per-point partition key.
/// Stateless, so any subrange of keys can be computed independently and
/// in parallel. NSW's builder seeds each point's RNG stream with it too.
#[inline]
pub fn partition_key(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Assigns `0..n` to `shards` shards: ascending global ids per shard,
/// balanced to within one point, deterministic for a fixed `seed`.
///
/// The keying pass runs through [`parallel::par_chunks_map`] with fixed
/// chunks combined in chunk order; the rank-and-deal tail is a sequential
/// sort of `(key, id)` pairs, so the whole partition is identical at any
/// `threads` (0 = auto).
pub fn partition_ids(n: usize, shards: usize, seed: u64, threads: usize) -> Vec<Vec<u32>> {
    assert!(shards > 0, "need at least one shard");
    let threads = parallel::resolve_threads(threads);
    let keyed_chunks = parallel::par_chunks_map(
        n,
        CHUNK,
        threads,
        || (),
        |_, range| {
            range
                .map(|i| (partition_key(seed, i as u64), i as u32))
                .collect::<Vec<_>>()
        },
    );
    let mut keyed: Vec<(u64, u32)> = keyed_chunks.into_iter().flatten().collect();
    // (key, id) pairs are distinct (ids are), so the order is total and
    // the resulting permutation is unique.
    keyed.sort_unstable();
    let mut out: Vec<Vec<u32>> = (0..shards)
        .map(|s| Vec::with_capacity(n / shards + usize::from(s < n % shards)))
        .collect();
    for (rank, &(_, id)) in keyed.iter().enumerate() {
        out[rank % shards].push(id);
    }
    // Ascending ids per shard: local id order mirrors global id order,
    // which keeps per-shard graph builds and the local→global map simple.
    for ids in &mut out {
        ids.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_id_exactly_once() {
        let parts = partition_ids(1_003, 8, 42, 0);
        assert_eq!(parts.len(), 8);
        let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1_003).collect::<Vec<u32>>());
    }

    #[test]
    fn partition_is_balanced_to_within_one() {
        for (n, shards) in [(1_000usize, 8usize), (17, 4), (8, 8), (9, 8)] {
            let parts = partition_ids(n, shards, 7, 0);
            let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "n={n} shards={shards} sizes={sizes:?}");
            assert!(*lo >= 1, "no shard may be empty when n >= shards");
        }
    }

    #[test]
    fn partition_is_thread_count_independent_and_seed_sensitive() {
        let a = partition_ids(2_000, 4, 99, 1);
        for threads in [2usize, 8] {
            assert_eq!(partition_ids(2_000, 4, 99, threads), a, "threads={threads}");
        }
        assert_ne!(partition_ids(2_000, 4, 100, 1), a, "seed must matter");
    }

    #[test]
    fn shard_ids_are_ascending() {
        for ids in partition_ids(500, 3, 5, 0) {
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn more_shards_than_points_leaves_trailing_shards_empty() {
        let parts = partition_ids(3, 5, 1, 0);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 3);
    }
}
