//! Cross-kernel-tier identity guard.
//!
//! The workspace runs one of three distance-kernel tiers: scalar
//! (`WEAVESS_KERNEL=scalar`, the survey-faithful loops), unrolled, or
//! explicit AVX2 simd — selected at runtime via [`KernelTier`]. These
//! tests pin a golden FNV-1a digest of full search traces; the SAME
//! constant must hold under every tier, so one `cargo test` run on an
//! AVX2 host proves all three kernel flavors route searches identically.
//!
//! The dataset uses small-integer coordinates: every squared difference and
//! every partial sum is an integer far below 2^24, so f32 arithmetic is
//! exact in ANY summation order and all kernel flavors are bit-equal by
//! construction, not merely close.
//!
//! The kernel tier is process-wide state; tests that force it serialize
//! on [`TIER_LOCK`] so libtest's parallel runner cannot interleave them.

use std::sync::Mutex;
use weavess_core::search::{
    beam_search, filtered_beam_search_traced, Router, SearchScratch, SearchStats,
};
use weavess_core::telemetry::RecordingTracer;
use weavess_data::{Dataset, KernelTier};
use weavess_graph::base::exact_knng;

/// Serializes tests that force the process-wide kernel tier.
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Runs `check` under each tier this host can run (`simd` needs
/// AVX2+FMA), forced in turn and serialized on [`TIER_LOCK`], then
/// restores the tier the process started with.
fn under_every_tier(mut check: impl FnMut(KernelTier)) {
    let _guard = TIER_LOCK.lock().unwrap();
    let initial = KernelTier::active();
    for tier in KernelTier::ALL.into_iter().filter(|t| t.is_available()) {
        KernelTier::force(tier).unwrap();
        check(tier);
    }
    KernelTier::force(initial).unwrap();
}

/// Deterministic small-integer dataset: coordinates in [-16, 16].
fn integer_dataset(n: usize, dim: usize) -> Dataset {
    let mut state = 0x9e37_79b9_u64;
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 33) as f32 - 16.0
                })
                .collect()
        })
        .collect();
    Dataset::from_rows(&rows)
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs beam search for a block of queries and digests ids, distance bits,
/// and work counters.
fn search_digest() -> u64 {
    let base = integer_dataset(600, 24);
    let queries = integer_dataset(40, 24);
    let g = exact_knng(&base, 10, 2);
    let mut scratch = SearchScratch::new(base.len());
    let mut stats = SearchStats::default();
    let seeds = [0u32, 151, 313, 599];
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for qi in 0..queries.len() as u32 {
        scratch.next_epoch();
        let res = beam_search(
            &base,
            &g,
            queries.point(qi),
            &seeds,
            32,
            &mut scratch,
            &mut stats,
        );
        for n in &res {
            fnv1a(&mut digest, &n.id.to_le_bytes());
            fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
        }
    }
    fnv1a(&mut digest, &stats.ndc.to_le_bytes());
    fnv1a(&mut digest, &stats.hops.to_le_bytes());
    digest
}

/// The same recipe for each of the six routing routines, traced: per query
/// the result ids and distance bits plus the [`RecordingTracer::dump`] bytes
/// (seed order, hop order, `ndc_so_far` and the reported pool length — range
/// search reports its *queue* length), then the block's `ndc`, `hops` and
/// `pool_peak`. A relative test (traced == untraced, layout A == layout B)
/// passes when both sides are wrong the same way; these constants do not.
fn routine_digests() -> Vec<String> {
    let base = integer_dataset(600, 24);
    let queries = integer_dataset(40, 24);
    let g = exact_knng(&base, 10, 2);
    let seeds = [0u32, 151, 313, 599];
    let even = |id: u32| id.is_multiple_of(2);
    let routers = [
        ("best-first", Some(Router::BestFirst)),
        ("range", Some(Router::Range { epsilon: 0.1 })),
        ("backtrack", Some(Router::Backtrack { extra: 8 })),
        ("guided", Some(Router::Guided)),
        (
            "two-stage",
            Some(Router::TwoStage {
                stage1_beam_frac: 0.5,
            }),
        ),
        ("filtered", None),
    ];
    let mut scratch = SearchScratch::new(base.len());
    let mut tracer = RecordingTracer::new();
    routers
        .iter()
        .map(|(name, router)| {
            let mut stats = SearchStats::default();
            let mut digest = 0xcbf2_9ce4_8422_2325_u64;
            for qi in 0..queries.len() as u32 {
                let q = queries.point(qi);
                scratch.next_epoch();
                tracer.clear();
                let res = match router {
                    Some(r) => r.search_traced(
                        &base,
                        &g,
                        q,
                        &seeds,
                        32,
                        &mut scratch,
                        &mut stats,
                        &mut tracer,
                    ),
                    None => filtered_beam_search_traced(
                        &base,
                        &g,
                        q,
                        &seeds,
                        10,
                        32,
                        &even,
                        &mut scratch,
                        &mut stats,
                        &mut tracer,
                    ),
                };
                for n in &res {
                    fnv1a(&mut digest, &n.id.to_le_bytes());
                    fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
                }
                fnv1a(&mut digest, tracer.dump().as_bytes());
            }
            fnv1a(&mut digest, &stats.ndc.to_le_bytes());
            fnv1a(&mut digest, &stats.hops.to_le_bytes());
            fnv1a(&mut digest, &stats.pool_peak.to_le_bytes());
            format!("{name} {digest:#018x}")
        })
        .collect()
}

/// Golden digest: identical under every runnable kernel tier — the test
/// forces each available tier in turn (scalar, unrolled, simd) and
/// demands the same constant from all of them.
/// If one tier diverges, that kernel flavor changed results; if every
/// tier diverges, the search itself changed (update the constant).
#[test]
fn search_trace_digest_is_kernel_tier_independent() {
    under_every_tier(|tier| {
        assert_eq!(
            search_digest(),
            0xc37d_01d6_cc76_4036,
            "search trace diverged on tier {tier}"
        );
    });
}

/// Golden digests of all six routines, recorded before the routers were
/// folded into one loop and held under every runnable tier: a change to
/// any of these constants is a change to what a router returns, counts or
/// reports to its tracer.
#[test]
fn every_routine_digest_is_pinned_under_every_tier() {
    const GOLDEN: [&str; 6] = [
        "best-first 0xda88d259ae36c866",
        "range 0x7151761be5f3c4fe",
        "backtrack 0x3d2482f0e108e4d9",
        "guided 0x413ea0693f5eb40c",
        "two-stage 0x461288ceead4fe3f",
        "filtered 0xb7efa5807ddfa53b",
    ];
    under_every_tier(|tier| {
        assert_eq!(routine_digests(), GOLDEN, "diverged on tier {tier}");
    });
}

/// Recall parity across tiers on *non-integer* data, where tiers are
/// only tolerance-close rather than bit-equal: reordered summation may
/// flip individual comparisons, but recall@10 over a query block must
/// agree within 0.0005 between any pair of tiers.
#[test]
fn recall_parity_across_tiers() {
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;

    let (base, queries) = MixtureSpec::table10(48, 1_200, 4, 5.0, 60).generate();
    let g = exact_knng(&base, 12, 2);
    let truth: Vec<Vec<u32>> = (0..queries.len() as u32)
        .map(|qi| {
            knn_scan(&base, queries.point(qi), 10, None)
                .iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();

    let mut recalls = Vec::new();
    under_every_tier(|tier| {
        let mut scratch = SearchScratch::new(base.len());
        let mut stats = SearchStats::default();
        let mut total = 0.0f64;
        for qi in 0..queries.len() as u32 {
            scratch.next_epoch();
            let res = beam_search(
                &base,
                &g,
                queries.point(qi),
                &[0, 599, 1_199],
                40,
                &mut scratch,
                &mut stats,
            );
            let got: Vec<u32> = res.iter().take(10).map(|n| n.id).collect();
            total += recall(&truth[qi as usize], &got);
        }
        recalls.push((tier, total / queries.len() as f64));
    });

    for (ta, ra) in &recalls {
        for (tb, rb) in &recalls {
            assert!(
                (ra - rb).abs() <= 0.0005,
                "recall diverged: {ta}={ra:.5} vs {tb}={rb:.5}"
            );
        }
    }
}

/// On integer data the two kernel flavors must be bit-equal — this holds in
/// both compile modes and certifies the digest constant above is valid for
/// both.
#[test]
fn kernel_flavors_bit_equal_on_integer_data() {
    use weavess_data::distance::{scalar, unrolled};
    let a = integer_dataset(64, 100);
    let b = integer_dataset(64, 100);
    for i in 0..64u32 {
        let (x, y) = (a.point(i), b.point(i));
        assert_eq!(
            scalar::squared_euclidean(x, y).to_bits(),
            unrolled::squared_euclidean(x, y).to_bits()
        );
        assert_eq!(scalar::dot(x, y).to_bits(), unrolled::dot(x, y).to_bits());
    }
}
