//! `hidim` and `lodim`: one static index, one client, closed loop.
//!
//! The two differ only in their inputs and the index under test, which is
//! the point: `hidim` streams 1 KiB vectors through the distance kernel,
//! `lodim` chases 128-byte vectors through a working set far past L2, so
//! kernel work shows on the first and memory/upkeep work on the second.

use std::path::Path;
use std::time::Instant;

use weavess_core::algorithms::hnsw::{self, HnswParams};
use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::index::{AnnIndex, SearchContext};
use weavess_core::persist::{self, PersistError};
use weavess_core::{LayoutIndex, NodeLayout};
use weavess_data::Dataset;

use crate::harness::{
    beam_ladder, closed_loop, engine_probe, fold_digest, graph_metrics, host_metrics, index_call,
    inputs, kernel_probe, result_hash, set_timing, set_up, shuffled, timed_ground_truth,
    trace_overhead, walk_metrics, warm_up, Env, RunOutput, Variant, BUILD_SEED, K,
};
use crate::spans::SpanRecorder;

/// Inputs and search settings of one static-index workload.
struct Spec {
    name: &'static str,
    dim: usize,
    n: usize,
    n_queries: usize,
    clusters: usize,
    intrinsic: usize,
    beam: usize,
    recall_floor: f64,
}

/// `hidim`: 20 000 × 256 (UQ-V stand-in shape), NSG with RNN-Descent C1 on
/// the original+split layout, beam 64.
pub fn hidim(env: &Env) -> RunOutput {
    let spec = Spec {
        name: "hidim",
        dim: 256,
        n: 20_000,
        n_queries: 2_000,
        clusters: 20,
        intrinsic: 12,
        beam: 64,
        recall_floor: 0.95,
    };
    let threads = env.nproc;
    run(
        env,
        &spec,
        |ds| {
            let flat = nsg::build(ds, &NsgParams::tuned(threads, BUILD_SEED).with_rnn_c1());
            LayoutIndex::from_flat(flat, ds, NodeLayout::Split, false)
        },
        persist::save_layout_index,
        persist::load_layout_index,
    )
}

/// `lodim`: 120 000 × 32, HNSW (`HnswParams::tuned`), beam 32. The issue
/// asked for 400 000 points; three timed builds of that size do not fit
/// the contract's per-run time, and 120 000 keeps the property that
/// matters (≈ 31 MB of vectors + adjacency against a 4 MiB L2).
pub fn lodim(env: &Env) -> RunOutput {
    let spec = Spec {
        name: "lodim",
        dim: 32,
        n: 120_000,
        n_queries: 2_000,
        clusters: 50,
        intrinsic: 10,
        beam: 32,
        recall_floor: 0.97,
    };
    let threads = env.nproc;
    run(
        env,
        &spec,
        |ds| hnsw::build(ds, &HnswParams::tuned(threads, BUILD_SEED)),
        persist::save_hnsw,
        |path, _| persist::load_hnsw(path),
    )
}

fn run<I: AnnIndex>(
    env: &Env,
    spec: &Spec,
    build: impl Fn(&Dataset) -> I,
    save: impl Fn(&Path, &I) -> Result<(), PersistError>,
    load: impl Fn(&Path, &Dataset) -> Result<I, PersistError>,
) -> RunOutput {
    let mut out = RunOutput::default();
    let generate = || {
        inputs(
            spec.dim,
            spec.n,
            spec.n_queries,
            spec.clusters,
            spec.intrinsic,
            env.sub_seed(1),
        )
    };

    let mut rec = SpanRecorder::new(Instant::now(), 0);
    let (base, queries, index) =
        set_up(env, spec.name, spec.n, &mut rec, &mut out, generate, build);
    let (truth, truth_s) = rec.within("setup.ground_truth", 0, || {
        timed_ground_truth(&base, &queries, env.nproc)
    });

    let n = spec.n;
    let mut variants = [Variant {
        name: spec.name,
        call: index_call(&index, &base, spec.beam),
        admit: Box::new(move |id| (id as usize) < n),
        truth: &truth,
        recall_floor: spec.recall_floor,
    }];
    let warm = [warm_up(&mut variants[0], &queries, &mut out)];
    out.digest = fold_digest(warm[0].expected.iter().copied());
    let order = shuffled(queries.len(), env.sub_seed(2));

    if !env.trace {
        let run = closed_loop(
            &mut variants,
            &warm,
            &queries,
            &order,
            env.seconds,
            None,
            &mut out,
        );
        set_timing(run, &mut out);
        out.metrics.set("recall_at_10", warm[0].recall);
        out.metrics.set(
            "index_bytes_per_point",
            (index.memory_bytes() + base.memory_bytes()) as f64 / n as f64,
        );
        return out;
    }

    out.metrics.set("setup.ground_truth_s", truth_s);

    // core::persist: save, load, and the loaded index must answer every
    // query exactly as the built one did.
    std::fs::create_dir_all(&env.out_dir).expect("create benchmark/out");
    let path = env.out_dir.join(format!(
        "{}-{}-{}.idx",
        spec.name,
        env.seed,
        std::process::id()
    ));
    let t = Instant::now();
    let saved = rec.within("persist.save", 0, || save(&path, &index));
    out.metrics.set("persist.save_s", t.elapsed().as_secs_f64());
    let bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
    out.metrics
        .set("persist.bytes_per_point", bytes as f64 / n as f64);
    let t = Instant::now();
    let loaded = rec.within("persist.load", 0, || load(&path, &base));
    out.metrics.set("persist.load_s", t.elapsed().as_secs_f64());
    let _ = std::fs::remove_file(&path);
    out.attempted += 1;
    match (saved, loaded) {
        (Ok(()), Ok(loaded)) => {
            let mut call = index_call(&loaded, &base, spec.beam);
            let differs = (0..queries.len() as u32).find(|&qi| {
                result_hash(&call(queries.point(qi)).0) != warm[0].expected[qi as usize]
            });
            if let Some(qi) = differs {
                out.fail(format!(
                    "{}: loaded index answers query {qi} differently",
                    spec.name
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => out.fail(format!("{}: persist failed: {e}", spec.name)),
    }

    kernel_probe(&base, queries.point(0), env.sub_seed(3), &mut out.metrics);
    let run = closed_loop(
        &mut variants,
        &warm,
        &queries,
        &order,
        env.seconds * 0.4,
        Some(&mut rec),
        &mut out,
    );
    let v = &run.variants[0];
    walk_metrics(v.walk_totals(), n, &mut out.metrics);
    trace_overhead(&v.pass_qps, &v.traced_pass_qps, &mut out.metrics);

    let mut ctx = SearchContext::new(n);
    beam_ladder(
        &queries,
        &truth,
        env.seconds * 0.08,
        |q, beam| index.search(&base, q, K, beam, &mut ctx),
        &mut out.metrics,
    );
    engine_probe(
        &index,
        &base,
        &queries,
        spec.beam,
        env.nproc,
        env.seconds * 0.15,
        &mut out.metrics,
    );
    graph_metrics(index.graph(), &mut out.metrics);
    host_metrics(env, &mut out.metrics);
    out.spans = Some(rec);
    out
}
