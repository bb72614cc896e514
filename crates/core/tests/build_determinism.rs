//! Thread-count-independence guard for parallel construction.
//!
//! Every builder routes its parallelism through `weavess_core::parallel`
//! (fixed chunking, in-order combination, prefix-doubling batch
//! insertion), which promises a graph that is a pure function of the
//! input — never of the worker count. These tests enforce the promise the
//! same way `kernel_modes.rs` guards the distance kernels: build each
//! index at 1, 2, and 8 threads and require byte-identical results, via
//! an FNV-1a digest of the adjacency (and, where an index persists, of
//! the exact serialized bytes).
//!
//! CI runs this file under every kernel tier (the `kernel-matrix` job's
//! `WEAVESS_KERNEL=scalar|unrolled|simd`), so the guarantee holds for each
//! distance flavor.

use proptest::prelude::*;
use weavess_core::algorithms::hnsw::{self, HnswParams};
use weavess_core::algorithms::hnsw_dynamic::DynamicHnsw;
use weavess_core::algorithms::{
    dpg, efanna, fanng, hcnng, ieh, kdr, kgraph, nsg, nssg, nsw, oa, sptag, vamana, Algo,
};
use weavess_core::components::init::init_random;
use weavess_core::index::{AnnIndex, FlatIndex, SearchContext};
use weavess_core::nndescent::{nn_descent, NnDescentParams};
use weavess_core::persist::{write_hnsw, write_index, PersistError};
use weavess_core::pipeline::{CandidateChoice, ConnectivityChoice, PipelineBuilder};
use weavess_core::rnndescent::{rnn_descent, RnnDescentParams};
use weavess_data::ground_truth::ground_truth;
use weavess_data::metrics::recall;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, KernelTier, Neighbor};

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of a graph's full adjacency, order included.
fn adjacency_digest(lists: &[Vec<u32>]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for l in lists {
        fnv1a(&mut digest, &(l.len() as u32).to_le_bytes());
        for &x in l {
            fnv1a(&mut digest, &x.to_le_bytes());
        }
    }
    digest
}

fn dataset(n: usize) -> Dataset {
    MixtureSpec::table10(12, n, 4, 3.0, 5).generate().0
}

/// The headline guarantee: all seventeen algorithms build bit-identical
/// adjacency at 1, 2, and 8 construction threads, and at 0 ("one per
/// available core", which every builder must resolve rather than clamp).
#[test]
fn every_algorithm_builds_identically_at_1_2_8_threads() {
    let ds = dataset(350);
    for &algo in Algo::all() {
        let digests: Vec<u64> = THREAD_SWEEP
            .iter()
            .chain(&[0])
            .map(|&t| adjacency_digest(&algo.build(&ds, t, 7).graph().to_lists()))
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{} diverges across thread counts: {digests:x?}",
            algo.name()
        );
    }
}

/// Stronger check for persistable indexes: the *serialized bytes* (name,
/// router, seeds, adjacency) are identical, not just the graph.
#[test]
fn persisted_bytes_are_thread_count_independent() {
    let ds = dataset(400);
    let flat_bytes = |threads: usize| -> (Vec<u8>, Vec<u8>) {
        let mut nsw_buf = Vec::new();
        write_index(
            &mut nsw_buf,
            &nsw::build(&ds, &nsw::NswParams::tuned(threads, 3)),
        )
        .unwrap();
        let mut nsg_buf = Vec::new();
        write_index(
            &mut nsg_buf,
            &nsg::build(&ds, &nsg::NsgParams::tuned(threads, 3)),
        )
        .unwrap();
        (nsw_buf, nsg_buf)
    };
    let hnsw_bytes = |threads: usize| -> Vec<u8> {
        let mut buf = Vec::new();
        write_hnsw(&mut buf, &hnsw::build(&ds, &HnswParams::tuned(threads, 3))).unwrap();
        buf
    };
    let (nsw1, nsg1) = flat_bytes(1);
    let h1 = hnsw_bytes(1);
    for &t in &THREAD_SWEEP[1..] {
        let (nsw_t, nsg_t) = flat_bytes(t);
        assert_eq!(nsw1, nsw_t, "NSW bytes diverge at {t} threads");
        assert_eq!(nsg1, nsg_t, "NSG bytes diverge at {t} threads");
        assert_eq!(h1, hnsw_bytes(t), "HNSW bytes diverge at {t} threads");
    }
}

/// NN-Descent's pools are content-deterministic under concurrent joins;
/// the emitted k-NN lists (ids AND distance bits) must not move with the
/// thread count.
#[test]
fn nn_descent_is_thread_count_independent() {
    let ds = dataset(400);
    let run = |threads: usize| -> u64 {
        let params = NnDescentParams {
            k: 10,
            l: 20,
            iters: 4,
            sample: 8,
            reverse: 10,
            seed: 11,
            threads,
        };
        knn_digest(&nn_descent(&ds, &params, None))
    };
    let base = run(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(base, run(t), "NN-Descent diverges at {t} threads");
    }
}

/// Digest of emitted k-NN rows: row length, ids and distance bits.
fn knn_digest(g: &[Vec<Neighbor>]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for row in g {
        fnv1a(&mut digest, &(row.len() as u32).to_le_bytes());
        for n in row {
            fnv1a(&mut digest, &n.id.to_le_bytes());
            fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
        }
    }
    digest
}

/// The golden digest for the kernel tier this process runs: kernels are
/// bit-stable within a tier and differ by reassociation across tiers
/// (float data), so an absolute pin is one constant per tier.
fn golden_for_tier([scalar, unrolled, simd]: [u64; 3]) -> u64 {
    match KernelTier::active() {
        KernelTier::Scalar => scalar,
        KernelTier::Unrolled => unrolled,
        KernelTier::Simd => simd,
    }
}

/// Thread counts the absolute RNN-Descent pins hold at.
const RNN_THREADS: [usize; 4] = [1, 2, 3, 8];

/// RNN-Descent shares NN-Descent's determinism contract: the two-phase
/// update pass (own-chunk rewrites, then order-independent offer
/// application) must emit the same lists — ids AND distance bits — at any
/// worker count. Pinned absolutely (recorded before the flat-table
/// rewrite), so a rewrite that is wrong the same way at every thread
/// count still fails.
#[test]
fn rnn_descent_is_thread_count_independent() {
    let ds = dataset(400);
    let golden = golden_for_tier([
        0x42e8_a327_0772_66b2,
        0x42e8_a327_0772_66b2,
        0xbf86_46c7_1cfc_c014,
    ]);
    for threads in RNN_THREADS {
        let params = RnnDescentParams {
            k: 10,
            r: 12,
            l: 24,
            outer: 3,
            inner: 6,
            seed: 11,
            threads,
        };
        let got = knn_digest(&rnn_descent(&ds, &params, None));
        assert_eq!(
            got, golden,
            "RNN-Descent at {threads} threads: {got:016x} != golden {golden:016x}"
        );
    }
}

/// Absolute pins for `rnn_descent` on the `matching` configuration NSG
/// and friends run, from random initialization and with the first
/// output fed back as `initial` (the EFANNA path): one chunk, an odd
/// size, several chunks, and a size spanning several staging waves and
/// twenty owner buckets with `n` not a multiple of 256.
#[test]
fn rnn_descent_matches_golden_digests() {
    // (dim, n, [scalar, unrolled, simd] random-init, same for seeded).
    type Golden = [u64; 3];
    let cases: [(usize, usize, Golden, Golden); 4] = [
        (
            16,
            400,
            [
                0xded4_e5b8_c1b3_e5d2,
                0x0d0c_63a5_8cc3_5684,
                0x5c14_9592_aa01_4314,
            ],
            [
                0xae84_a21d_d15f_91ee,
                0xc2ca_4d47_6ac4_101f,
                0x48a9_ba35_82a3_1632,
            ],
        ),
        (
            8,
            777,
            [
                0xe414_c2d9_b388_bc79,
                0xe414_c2d9_b388_bc79,
                0x11e9_d5b9_9645_96e8,
            ],
            [
                0x2b1d_26c4_5be2_e136,
                0x2b1d_26c4_5be2_e136,
                0xdc3a_a4c4_a569_81e2,
            ],
        ),
        (
            24,
            1000,
            [
                0x4237_f2cf_aa97_2762,
                0x81f3_6b94_80de_364f,
                0x329c_a5a8_96bc_6198,
            ],
            [
                0x24dd_c460_d835_77af,
                0x54fd_4dd9_3d61_7e2c,
                0xb7ef_e583_8b94_9e9d,
            ],
        ),
        (
            32,
            5000,
            [
                0x5e93_cae4_30fe_5a1d,
                0x8ead_4f6e_88ca_c5a9,
                0xfd8a_3576_7ca5_03a5,
            ],
            [
                0x85b3_8ba7_4c3d_3878,
                0xb178_63fe_9ff3_d279,
                0x9507_bae0_1628_b04a,
            ],
        ),
    ];
    for (dim, n, random, seeded) in cases {
        let ds = MixtureSpec::table10(dim, n, 5, 1.0, 1)
            .with_seed(5)
            .generate()
            .0;
        let (want_random, want_seeded) = (golden_for_tier(random), golden_for_tier(seeded));
        for threads in RNN_THREADS {
            let params = RnnDescentParams::matching(&NnDescentParams {
                k: 20,
                l: 30,
                iters: 6,
                sample: 10,
                reverse: 15,
                seed: 9,
                threads,
            });
            let first = rnn_descent(&ds, &params, None);
            let got = knn_digest(&first);
            assert_eq!(
                got, want_random,
                "{n}x{dim} random init, {threads} threads: {got:016x} != {want_random:016x}"
            );
            let got = knn_digest(&rnn_descent(&ds, &params, Some(&first)));
            assert_eq!(
                got, want_seeded,
                "{n}x{dim} seeded, {threads} threads: {got:016x} != {want_seeded:016x}"
            );
        }
    }
}

/// Absolute pins for `nn_descent` on the shapes of
/// `rnn_descent_matches_golden_digests`, from random initialization and
/// with the first output fed back as `initial` (the EFANNA path). Two
/// iterations stop short of convergence, so the pins see the sampling and
/// reverse-sampling streams, not just the exact KNN graph; the 5000-point
/// shape spans many join chunks, so one row's offers come from several.
#[test]
fn nn_descent_matches_golden_digests() {
    // (dim, n, [scalar, unrolled, simd] random-init, same for seeded).
    type Golden = [u64; 3];
    let cases: [(usize, usize, Golden, Golden); 4] = [
        (
            16,
            400,
            [
                0x19b2_f146_6d87_cd42,
                0x45e5_b4f7_b830_edf3,
                0x29fa_2228_44ff_5f9a,
            ],
            [
                0x4d53_808f_be9b_3bb7,
                0x0599_df44_e9c5_155c,
                0x9a75_1dba_b08e_3035,
            ],
        ),
        (
            8,
            777,
            [
                0x60f7_a542_f812_77a5,
                0x60f7_a542_f812_77a5,
                0x59e0_26ec_d0b4_70af,
            ],
            [
                0xb3f3_3c80_8c19_d0d9,
                0xb3f3_3c80_8c19_d0d9,
                0x3766_fb46_e7c3_88b2,
            ],
        ),
        (
            24,
            1000,
            [
                0xe044_f1b5_90f3_d1b8,
                0x25ef_9602_120c_745a,
                0xe075_ba87_5505_cd54,
            ],
            [
                0xe578_1fd4_86e0_4239,
                0xd60c_162b_1f6a_a5c5,
                0x02d9_6bd7_961f_f713,
            ],
        ),
        (
            32,
            5000,
            [
                0x8382_2411_84f0_2489,
                0xa356_ea8f_009a_a81b,
                0xce75_8718_7b6f_d28e,
            ],
            [
                0xb105_0a6b_d452_f0d1,
                0xaa72_1125_41b7_2a77,
                0xbd0f_9388_4ea5_ffbd,
            ],
        ),
    ];
    for (dim, n, random, seeded) in cases {
        let ds = MixtureSpec::table10(dim, n, 5, 1.0, 1)
            .with_seed(5)
            .generate()
            .0;
        let (want_random, want_seeded) = (golden_for_tier(random), golden_for_tier(seeded));
        for threads in RNN_THREADS {
            let params = NnDescentParams {
                k: 20,
                l: 30,
                iters: 2,
                sample: 10,
                reverse: 15,
                seed: 9,
                threads,
            };
            let first = nn_descent(&ds, &params, None);
            let got = knn_digest(&first);
            assert_eq!(
                got, want_random,
                "{n}x{dim} random init, {threads} threads: {got:016x} != {want_random:016x}"
            );
            let got = knn_digest(&nn_descent(&ds, &params, Some(&first)));
            assert_eq!(
                got, want_seeded,
                "{n}x{dim} seeded, {threads} threads: {got:016x} != {want_seeded:016x}"
            );
        }
    }
}

/// Absolute pin for `init_random` (Vamana's C1, `InitChoice::Random`).
#[test]
fn init_random_matches_golden_digest() {
    let ds = MixtureSpec::table10(24, 1000, 5, 1.0, 1)
        .with_seed(5)
        .generate()
        .0;
    let want = golden_for_tier([
        0x512d_2136_29c2_2292,
        0x993f_4a48_9030_6652,
        0xa82e_8349_210d_9818,
    ]);
    let got = knn_digest(&init_random(&ds, 20, 9));
    assert_eq!(got, want, "init_random: {got:016x} != {want:016x}");
}

/// Digest of everything a [`FlatIndex`] persists (name, router, seeds,
/// adjacency) where its seed strategy serialises; of the adjacency alone
/// where the seeds are a tree or hash table the format does not carry.
fn index_digest(idx: &FlatIndex) -> u64 {
    let mut buf = Vec::new();
    match write_index(&mut buf, idx) {
        Ok(()) => {
            let mut digest = 0xcbf2_9ce4_8422_2325_u64;
            fnv1a(&mut digest, &buf);
            digest
        }
        Err(PersistError::UnsupportedSeeds(_)) => adjacency_digest(&idx.graph.to_lists()),
        Err(e) => panic!("{}: {e}", idx.name),
    }
}

/// Absolute pins for every builder that runs a per-point C2/C3 pass or
/// freezes neighbor lists into a CSR (recorded on the commit before those
/// loops were folded into one skeleton): thread-count *equality* alone
/// passes a rewrite that changes every graph the same way at 1, 2 and 8
/// threads. Three chunks of work, `n` not a multiple of the chunk size.
#[test]
fn refinement_builders_match_golden_digests() {
    type Build = fn(&Dataset, usize) -> u64;
    // (name, build at `threads`, [scalar, unrolled, simd]).
    let cases: [(&str, Build, [u64; 3]); 18] = [
        (
            "KGraph",
            |ds, t| index_digest(&kgraph::build(ds, &kgraph::KGraphParams::tuned(t, 7))),
            [
                0x1ac0_a0e9_620e_e15a,
                0x1ac0_a0e9_620e_e15a,
                0x9cf3_cfb9_710d_1eda,
            ],
        ),
        (
            "EFANNA",
            |ds, t| index_digest(&efanna::build(ds, &efanna::EfannaParams::tuned(t, 7))),
            [
                0x172e_5062_2df7_58c1,
                0x172e_5062_2df7_58c1,
                0xdcc5_87e5_a61f_0221,
            ],
        ),
        (
            "IEH",
            |ds, t| index_digest(&ieh::build(ds, &ieh::IehParams::tuned(t, 7))),
            [
                0xca3b_9e11_af8e_d16d,
                0xca3b_9e11_af8e_d16d,
                0xaf00_b633_a78d_c84d,
            ],
        ),
        (
            "FANNG exact (n <= exact_cutoff)",
            |ds, t| index_digest(&fanng::build(ds, &fanng::FanngParams::tuned(t, 7))),
            [
                0xc7a1_eb84_0e10_2e62,
                0xc7a1_eb84_0e10_2e62,
                0xc7a1_eb84_0e10_2e62,
            ],
        ),
        (
            "FANNG shortcut (n > exact_cutoff)",
            |ds, t| {
                let mut p = fanng::FanngParams::tuned(t, 7);
                p.exact_cutoff = 100;
                index_digest(&fanng::build(ds, &p))
            },
            [
                0xe4c1_01b6_027c_933b,
                0xe4c1_01b6_027c_933b,
                0xe4c1_01b6_027c_933b,
            ],
        ),
        (
            "DPG",
            |ds, t| index_digest(&dpg::build(ds, &dpg::DpgParams::tuned(t, 7))),
            [
                0x8cb5_dc40_b481_650e,
                0x8cb5_dc40_b481_650e,
                0x8cb5_dc40_b481_650e,
            ],
        ),
        (
            "NSG",
            |ds, t| index_digest(&nsg::build(ds, &nsg::NsgParams::tuned(t, 7))),
            [
                0xba73_73a3_1214_81e0,
                0xba73_73a3_1214_81e0,
                0xba73_73a3_1214_81e0,
            ],
        ),
        (
            "NSG (RNN-C1)",
            |ds, t| index_digest(&nsg::build(ds, &nsg::NsgParams::tuned(t, 7).with_rnn_c1())),
            [
                0x3b5a_8d46_d9b1_7917,
                0x3b5a_8d46_d9b1_7917,
                0x3b5a_8d46_d9b1_7917,
            ],
        ),
        (
            "NSSG",
            |ds, t| index_digest(&nssg::build(ds, &nssg::NssgParams::tuned(t, 7))),
            [
                0xbbc1_2f3c_90ee_3b7f,
                0xbbc1_2f3c_90ee_3b7f,
                0xbbc1_2f3c_90ee_3b7f,
            ],
        ),
        (
            "OA",
            |ds, t| index_digest(&oa::build(ds, &oa::OaParams::tuned(t, 7))),
            [
                0xb311_e849_69e8_64cc,
                0xb311_e849_69e8_64cc,
                0xb311_e849_69e8_64cc,
            ],
        ),
        (
            "Vamana",
            |ds, t| index_digest(&vamana::build(ds, &vamana::VamanaParams::tuned(t, 7))),
            [
                0xf804_4333_60b6_8eb2,
                0xf804_4333_60b6_8eb2,
                0x19d4_c878_f4cf_ba32,
            ],
        ),
        (
            "HCNNG",
            |ds, t| index_digest(&hcnng::build(ds, &hcnng::HcnngParams::tuned(t, 7))),
            [
                0x7af3_0b43_772d_7e7e,
                0x7af3_0b43_772d_7e7e,
                0x7af3_0b43_772d_7e7e,
            ],
        ),
        (
            "SPTAG-KDT",
            |ds, t| {
                let idx = sptag::build(ds, &sptag::SptagParams::kdt(t, 7));
                adjacency_digest(&idx.graph().to_lists())
            },
            [
                0x29a3_713a_747e_17f0,
                0x29a3_713a_747e_17f0,
                0x29a3_713a_747e_17f0,
            ],
        ),
        (
            "SPTAG-BKT",
            |ds, t| {
                let idx = sptag::build(ds, &sptag::SptagParams::bkt(t, 7));
                adjacency_digest(&idx.graph().to_lists())
            },
            [
                0x9cc8_78bf_05d5_1115,
                0x9cc8_78bf_05d5_1115,
                0x9cc8_78bf_05d5_1115,
            ],
        ),
        (
            "SPTAG-BKT, one division, two propagation passes",
            |ds, t| {
                let mut p = sptag::SptagParams::bkt(t, 7);
                p.divisions = 1;
                p.propagation_passes = 2;
                adjacency_digest(&sptag::build(ds, &p).graph().to_lists())
            },
            [
                0x5ee8_ddae_8510_b5ec,
                0x5ee8_ddae_8510_b5ec,
                0x5ee8_ddae_8510_b5ec,
            ],
        ),
        (
            "k-DR",
            |ds, t| index_digest(&kdr::build(ds, &kdr::KdrParams::tuned(t, 7))),
            [
                0x94db_443e_0f67_c03b,
                0x94db_443e_0f67_c03b,
                0x94db_443e_0f67_c03b,
            ],
        ),
        (
            "PipelineBuilder::benchmark",
            |ds, t| index_digest(&PipelineBuilder::benchmark(4, t).build(ds)),
            [
                0x7e4d_3c4c_add2_714c,
                0x7e4d_3c4c_add2_714c,
                0x7e4d_3c4c_add2_714c,
            ],
        ),
        (
            "pipeline, C2 search + C5 DFS repair",
            |ds, t| {
                let mut b = PipelineBuilder::benchmark(4, t);
                b.candidates = CandidateChoice::Search { beam: 40, cap: 80 };
                b.connectivity = ConnectivityChoice::DfsRepair;
                index_digest(&b.build(ds))
            },
            [
                0xa5bd_2b0b_1467_5e4a,
                0xa5bd_2b0b_1467_5e4a,
                0xa5bd_2b0b_1467_5e4a,
            ],
        ),
    ];
    let ds = dataset(700);
    let mut wrong = Vec::new();
    for (name, build, golden) in cases {
        let want = golden_for_tier(golden);
        for threads in [1, 8] {
            let got = build(&ds, threads);
            if got != want {
                wrong.push(format!(
                    "{name} at {threads} threads: {got:#018x} != golden {want:#018x}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Digest of a fixed query set's answers: per query, the ids and distance
/// bits of the top 10 at beam 40 and the NDC spent, seeding included.
fn answer_digest(idx: &FlatIndex, ds: &Dataset, qs: &Dataset) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut ctx = SearchContext::new(ds.len());
    for qi in 0..qs.len() as u32 {
        for n in idx.search(ds, qs.point(qi), 10, 40, &mut ctx) {
            fnv1a(&mut digest, &n.id.to_le_bytes());
            fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
        }
        fnv1a(&mut digest, &ctx.take_stats().ndc.to_le_bytes());
    }
    digest
}

/// `index_digest` sees only the adjacency of EFANNA and IEH, whose seed
/// structures (a KD-forest, LSH tables) do not persist; their answers see
/// the structures too. Absolute per tier, at 1, 2 and 8 threads.
#[test]
fn tree_and_hash_seeded_answers_match_golden_digests() {
    type Build = fn(&Dataset, usize) -> FlatIndex;
    let cases: [(&str, Build, [u64; 3]); 2] = [
        (
            "EFANNA",
            |ds, t| efanna::build(ds, &efanna::EfannaParams::tuned(t, 7)),
            [
                0xfd8c_5cf9_68f5_ca57,
                0xfd8c_5cf9_68f5_ca57,
                0xc54d_97be_fe28_be69,
            ],
        ),
        (
            "IEH",
            |ds, t| ieh::build(ds, &ieh::IehParams::tuned(t, 7)),
            [
                0x9255_d61f_3682_5b66,
                0x9255_d61f_3682_5b66,
                0xe16b_d237_9319_f808,
            ],
        ),
    ];
    let (ds, qs) = MixtureSpec::table10(12, 700, 4, 3.0, 40).generate();
    let mut wrong = Vec::new();
    for (name, build, golden) in cases {
        let want = golden_for_tier(golden);
        for threads in THREAD_SWEEP {
            let got = answer_digest(&build(&ds, threads), &ds, &qs);
            if got != want {
                wrong.push(format!(
                    "{name} at {threads} threads: {got:#018x} != golden {want:#018x}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// NSW has no refinement pass, so the table above does not cover it:
/// its parallel insertion seeds every point's search from a per-point
/// mixed RNG stream, and thread-count equality alone passes a change to
/// that mixer which moves every graph the same way at every thread count.
#[test]
fn nsw_matches_golden_digest() {
    let ds = dataset(700);
    let want = golden_for_tier([
        0xa685_f9fc_b48a_64f2,
        0xa685_f9fc_b48a_64f2,
        0xa685_f9fc_b48a_64f2,
    ]);
    for threads in [1, 8] {
        let got = index_digest(&nsw::build(&ds, &nsw::NswParams::tuned(threads, 3)));
        assert_eq!(
            got, want,
            "NSW at {threads} threads: {got:#018x} != golden {want:#018x}"
        );
    }
}

/// Swapping C1 keeps the persisted-bytes guarantee: an NSG built from
/// RNN-Descent serializes to identical bytes at 1, 2, and 8 threads.
#[test]
fn rnn_built_nsg_persisted_bytes_are_thread_count_independent() {
    let ds = dataset(400);
    let bytes = |threads: usize| -> Vec<u8> {
        let mut buf = Vec::new();
        write_index(
            &mut buf,
            &nsg::build(&ds, &nsg::NsgParams::tuned(threads, 3).with_rnn_c1()),
        )
        .unwrap();
        buf
    };
    let b1 = bytes(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(b1, bytes(t), "NSG(RNN-C1) bytes diverge at {t} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance criterion of the C1 swap, as a property over
    /// datasets: an NSG built from RNN-Descent answers queries with
    /// end-to-end Recall@10 close to the NN-Descent-built one. (The
    /// builds dominate the runtime, so the case count stays small.)
    #[test]
    fn rnn_c1_recall_stays_near_nn_descent_c1(seed in 0u64..50) {
        let (ds, qs) = MixtureSpec::table10(12, 700, 3, 3.0, 25)
            .with_seed(seed)
            .generate();
        let nnd = nsg::build(&ds, &nsg::NsgParams::tuned(4, 3));
        let rnn = nsg::build(&ds, &nsg::NsgParams::tuned(4, 3).with_rnn_c1());
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut measure = |idx: &dyn AnnIndex| -> f64 {
            let mut total = 0.0;
            for qi in 0..qs.len() as u32 {
                let ids: Vec<u32> = idx
                    .search(&ds, qs.point(qi), 10, 80, &mut ctx)
                    .iter()
                    .map(|n| n.id)
                    .collect();
                total += recall(&ids, &gt[qi as usize]);
            }
            total / qs.len() as f64
        };
        let r_nnd = measure(&nnd);
        let r_rnn = measure(&rnn);
        prop_assert!(
            r_rnn >= r_nnd - 0.02,
            "RNN-C1 recall {r_rnn:.4} fell more than 0.02 below NND-C1 {r_nnd:.4}"
        );
    }
}

/// Regression for the dynamic index: inserts, deletes, and searches after
/// a parallel bulk load behave exactly as after a single-threaded one —
/// including the mass-delete beam-escalation path, which searches through
/// a tombstone-dominated graph.
#[test]
fn dynamic_hnsw_behaves_identically_after_parallel_bulk_load() {
    let (base, extra) = MixtureSpec::table10(12, 400, 3, 3.0, 60).generate();
    let run = |threads: usize| -> (Vec<Vec<u32>>, Vec<u64>) {
        let mut idx = DynamicHnsw::bulk_load(&base, HnswParams::tuned(threads, 5));
        // Incremental inserts continue the bulk load's RNG stream.
        for i in 0..30u32 {
            idx.insert(extra.point(i));
        }
        // Mass delete: tombstone 60% of the original points, exercising
        // the escalated-beam search over a mostly-dead graph.
        for id in 0..(base.len() as u32 * 6 / 10) {
            idx.delete(id);
        }
        let mut results = Vec::new();
        let mut ndcs = Vec::new();
        for i in 30..60u32 {
            let r: Vec<u32> = idx
                .search(extra.point(i), 10, 40)
                .iter()
                .map(|n| n.id)
                .collect();
            ndcs.push(idx.take_stats().ndc);
            results.push(r);
        }
        (results, ndcs)
    };
    let (r1, s1) = run(1);
    for &t in &THREAD_SWEEP[1..] {
        let (rt, st) = run(t);
        assert_eq!(r1, rt, "search results diverge after {t}-thread bulk load");
        assert_eq!(s1, st, "search work diverges after {t}-thread bulk load");
    }
}

/// A bulk load must equal the equivalent sequence of single inserts — the
/// batch construction is an optimization, not a different algorithm
/// family (levels come from the same RNG stream either way).
#[test]
fn bulk_load_matches_index_shape_of_incremental_build() {
    let (base, qs) = MixtureSpec::table10(12, 300, 3, 3.0, 20).generate();
    let params = HnswParams::tuned(4, 9);
    let mut bulk = DynamicHnsw::bulk_load(&base, params.clone());
    let mut incr = DynamicHnsw::new(base.dim(), params);
    for i in 0..base.len() as u32 {
        incr.insert(base.point(i));
    }
    assert_eq!(bulk.len(), incr.len());
    assert_eq!(bulk.live_len(), incr.live_len());
    // The graphs differ (batch points don't see same-batch points during
    // their searches), but both must answer well: identical k, and a
    // shared majority of true neighbors.
    for qi in 0..qs.len() as u32 {
        let a: Vec<u32> = bulk
            .search(qs.point(qi), 10, 60)
            .iter()
            .map(|n| n.id)
            .collect();
        let b: Vec<u32> = incr
            .search(qs.point(qi), 10, 60)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(a.len(), b.len());
        let overlap = a.iter().filter(|x| b.contains(x)).count();
        assert!(overlap >= 5, "query {qi}: only {overlap}/10 shared");
    }
}
