//! `churn`: searches, inserts and deletes interleaved on one mutable
//! HNSW, closed loop, one client.
//!
//! Writes run beside reads on the HNSW code the static path shares: a
//! search gain that slows inserts, or lets tombstones erode recall, shows
//! here. The op stream is seeded — 70 % search, 20 % insert (fresh points
//! of the same mixture), 10 % delete (uniform over live ids) — and runs
//! in fixed-size epochs. Recall and space are read at a fixed op count
//! (the checkpoint), outside the timed window, so they repeat exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_core::algorithms::hnsw::HnswParams;
use weavess_core::algorithms::hnsw_dynamic::DynamicHnsw;
use weavess_core::search::SearchStats;
use weavess_data::neighbor::insert_into_pool;
use weavess_data::{Dataset, Neighbor};

use crate::harness::{
    beam_ladder, best_low, fold_digest, host_metrics, inputs, kernel_probe, mean_recall,
    pass_latency_us, result_defect, result_hash, set_up, shuffled, timed_ground_truth,
    trace_overhead, walk_metrics, worst_answer, Env, RunOutput, WalkTotals, BUILD_SEED, K,
};
use crate::spans::SpanRecorder;
use crate::stats::percentile;

const N: usize = 50_000;
const DIM: usize = 64;
/// Fresh points available to insert: more than a run can consume.
const INSERT_POOL: usize = 80_000;
const N_QUERIES: usize = 2_000;
const BEAM: usize = 64;
const EPOCH_OPS: usize = 2_000;
/// Ops per timing block: per-kind means and the search median are read per
/// block (a quiet 25 ms is far likelier on a shared host than a quiet
/// epoch); a p99 needs the whole epoch's searches.
const BLOCK_OPS: usize = 500;
/// Ops after which recall and space are read.
const CHECKPOINT_OPS: usize = 20_000;
/// Queries the checkpoint scores against the exact live top-k.
const CHECKPOINT_QUERIES: usize = 200;
const RECALL_FLOOR: f64 = 0.90;

#[derive(Clone, Copy)]
enum Op {
    Search(u32),
    Insert(u32),
    Delete(u32),
}

/// The seeded op stream and the harness's own view of which ids are live,
/// against which every search answer is checked.
struct Stream {
    rng: StdRng,
    order: Vec<u32>,
    searches: usize,
    inserted: usize,
    live: Vec<u32>,
    deleted: Vec<bool>,
}

impl Stream {
    fn new(seed: u64, order: Vec<u32>) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(seed),
            order,
            searches: 0,
            inserted: 0,
            live: (0..N as u32).collect(),
            deleted: vec![false; N + INSERT_POOL],
        }
    }

    /// The next op, or `None` once the insert pool is spent.
    fn next(&mut self) -> Option<Op> {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < 0.7 {
            let qi = self.order[self.searches % self.order.len()];
            self.searches += 1;
            Some(Op::Search(qi))
        } else if u < 0.9 {
            (self.inserted < INSERT_POOL).then(|| {
                self.inserted += 1;
                Op::Insert((N + self.inserted - 1) as u32)
            })
        } else {
            let at = self.rng.gen_range(0..self.live.len());
            Some(Op::Delete(self.live.swap_remove(at)))
        }
    }
}

/// Exact top-[`K`] of `query` over the live ids, by linear scan.
fn live_top_k(data: &Dataset, live: &[u32], query: &[f32]) -> Vec<u32> {
    let mut pool: Vec<Neighbor> = Vec::with_capacity(K + 1);
    let mut dists = Vec::new();
    for ids in live.chunks(256) {
        data.dist_to_many(query, ids, &mut dists);
        for (&id, &d) in ids.iter().zip(&dists) {
            insert_into_pool(&mut pool, K, Neighbor::new(id, d));
        }
    }
    pool.iter().map(|n| n.id).collect()
}

/// Per-kind timings of the untraced epochs.
#[derive(Default)]
struct Timings {
    search_ns: Vec<u64>,
    insert_ns: Vec<u64>,
    delete_ns: Vec<u64>,
    search: SearchStats,
    pool_peak_sum: u64,
    insert_ndc: u64,
    epoch_qps: Vec<f64>,
    traced_epoch_qps: Vec<f64>,
    /// Mean nanoseconds per search, insert and delete of each block.
    block_mean_ns: Vec<[f64; 3]>,
    block_search_p50_us: Vec<f64>,
    epoch_search_p99_us: Vec<f64>,
}

/// Runs one epoch of ops; returns false when the insert pool ran out.
fn run_epoch(
    index: &mut DynamicHnsw,
    points: &Dataset,
    queries: &Dataset,
    stream: &mut Stream,
    mut tracer: Option<&mut SpanRecorder>,
    t: &mut Timings,
    out: &mut RunOutput,
) -> bool {
    let first_search = t.search_ns.len();
    let mut block = [t.search_ns.len(), t.insert_ns.len(), t.delete_ns.len()];
    let epoch_start = Instant::now();
    for i in 0..EPOCH_OPS {
        let Some(op) = stream.next() else {
            return false;
        };
        out.attempted += 1;
        let request = out.attempted;
        let name = match op {
            Op::Search(_) => "dyn.search",
            Op::Insert(_) => "dyn.insert",
            Op::Delete(_) => "dyn.delete",
        };
        let spans = tracer.as_mut().map(|r| r.open_request(name, request));
        let started = Instant::now();
        let done = catch_unwind(AssertUnwindSafe(|| match op {
            Op::Search(qi) => Some(index.search(queries.point(qi), K, BEAM)),
            Op::Insert(p) => {
                let id = index.insert(points.point(p));
                (id == p).then(Vec::new)
            }
            Op::Delete(id) => index.delete(id).then(Vec::new),
        }));
        let nanos = started.elapsed().as_nanos() as u64;
        if let (Some(spans), Some(r)) = (spans, tracer.as_mut()) {
            r.close_request(spans);
        }
        let stats = index.take_stats();
        let untraced = tracer.is_none();
        match (op, done) {
            (Op::Search(qi), Ok(Some(res))) => {
                if let Some(defect) = result_defect(&res, &|id| !stream.deleted[id as usize]) {
                    out.fail(format!("churn: op {i} of the epoch, query {qi}: {defect}"));
                }
                if untraced {
                    t.search_ns.push(nanos);
                    t.search.ndc += stats.ndc;
                    t.search.hops += stats.hops;
                    t.pool_peak_sum += stats.pool_peak;
                }
            }
            (Op::Insert(p), Ok(Some(_))) => {
                stream.live.push(p);
                if untraced {
                    t.insert_ns.push(nanos);
                    t.insert_ndc += stats.ndc;
                }
            }
            (Op::Delete(id), Ok(Some(_))) => {
                stream.deleted[id as usize] = true;
                if untraced {
                    t.delete_ns.push(nanos);
                }
            }
            _ => out.fail(format!("churn: op {i} of the epoch failed or panicked")),
        }
        if untraced && (i + 1) % BLOCK_OPS == 0 {
            let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
            t.block_mean_ns.push([
                mean(&t.search_ns[block[0]..]),
                mean(&t.insert_ns[block[1]..]),
                mean(&t.delete_ns[block[2]..]),
            ]);
            let mut lat = t.search_ns[block[0]..].to_vec();
            lat.sort_unstable();
            t.block_search_p50_us.push(lat[lat.len() / 2] as f64 / 1e3);
            block = [t.search_ns.len(), t.insert_ns.len(), t.delete_ns.len()];
        }
    }
    let qps = EPOCH_OPS as f64 / epoch_start.elapsed().as_secs_f64();
    if tracer.is_some() {
        t.traced_epoch_qps.push(qps);
    } else {
        t.epoch_qps.push(qps);
        let mut lat = t.search_ns[first_search..].to_vec();
        match pass_latency_us(&mut lat) {
            Some((_, p99)) => t.epoch_search_p99_us.push(p99),
            None => out
                .violations
                .push("churn: too few searches in an epoch for a p99".to_string()),
        }
    }
    true
}

/// Recall over the first [`CHECKPOINT_QUERIES`] queries against the exact
/// live top-k, and the answers' hashes for the digest.
fn checkpoint(
    index: &mut DynamicHnsw,
    queries: &Dataset,
    stream: &Stream,
    out: &mut RunOutput,
) -> (f64, Vec<u64>) {
    let mut live = stream.live.clone();
    live.sort_unstable();
    let mut results = Vec::with_capacity(CHECKPOINT_QUERIES);
    let mut truth = Vec::with_capacity(CHECKPOINT_QUERIES);
    for &qi in stream.order.iter().take(CHECKPOINT_QUERIES) {
        let q = queries.point(qi);
        results.push(index.search(q, K, BEAM));
        truth.push(live_top_k(index.dataset(), &live, q));
    }
    index.take_stats();
    let recall = mean_recall(&results, &truth);
    if recall < RECALL_FLOOR {
        let worst = stream.order[worst_answer(&results, &truth)];
        out.violations.push(format!(
            "churn: recall {recall:.4} below floor {RECALL_FLOOR} (worst query {worst})"
        ));
    }
    (recall, results.iter().map(|r| result_hash(r)).collect())
}

/// Runs the workload.
pub fn run(env: &Env) -> RunOutput {
    let mut out = RunOutput::default();
    let generate = || inputs(DIM, N + INSERT_POOL, N_QUERIES, 20, 12, env.sub_seed(1));
    let load = |points: &Dataset| {
        let base = points.subset(&(0..N as u32).collect::<Vec<u32>>());
        DynamicHnsw::bulk_load(&base, HnswParams::tuned(env.nproc, BUILD_SEED))
    };

    let mut rec = SpanRecorder::new(Instant::now(), 0);
    let (points, queries, mut index) = set_up(env, "churn", N, &mut rec, &mut out, generate, load);

    // Warm-up and start-of-run recall: every query once, all points live.
    let (truth, truth_s) = rec.within("setup.ground_truth", 0, || {
        timed_ground_truth(index.dataset(), &queries, env.nproc)
    });
    let mut warm = Vec::with_capacity(queries.len());
    for qi in 0..queries.len() as u32 {
        out.attempted += 1;
        let res = index.search(queries.point(qi), K, BEAM);
        if let Some(defect) = result_defect(&res, &|id| (id as usize) < N) {
            out.fail(format!("churn: query {qi} at start: {defect}"));
        }
        warm.push(res);
    }
    index.take_stats();
    let recall_start = mean_recall(&warm, &truth);
    if recall_start < RECALL_FLOOR {
        out.violations.push(format!(
            "churn: start recall {recall_start:.4} below floor {RECALL_FLOOR}"
        ));
    }
    let mut hashes: Vec<u64> = warm.iter().map(|r| result_hash(r)).collect();

    if env.trace {
        out.metrics.set("setup.ground_truth_s", truth_s);
        out.metrics.set("dyn.recall_at_10_start", recall_start);
        kernel_probe(
            index.dataset(),
            queries.point(0),
            env.sub_seed(3),
            &mut out.metrics,
        );
        beam_ladder(
            &queries,
            &truth,
            env.seconds * 0.05,
            |q, beam| index.search(q, K, beam),
            &mut out.metrics,
        );
        index.take_stats();
    }

    let order = shuffled(queries.len(), env.sub_seed(2));
    let mut stream = Stream::new(env.sub_seed(4), order);
    let mut timings = Timings::default();
    let budget = if env.trace {
        env.seconds * 0.6
    } else {
        env.seconds
    };
    let (mut timed, mut ops, mut epoch) = (0.0f64, 0usize, 0usize);
    let mut at_checkpoint = None;
    while timed < budget {
        let started = Instant::now();
        let tracer = (env.trace && epoch % 2 == 1).then_some(&mut rec);
        let more = run_epoch(
            &mut index,
            &points,
            &queries,
            &mut stream,
            tracer,
            &mut timings,
            &mut out,
        );
        timed += started.elapsed().as_secs_f64();
        ops += EPOCH_OPS;
        epoch += 1;
        if ops == CHECKPOINT_OPS {
            let sizes = (index.len(), index.live_len());
            at_checkpoint = Some((checkpoint(&mut index, &queries, &stream, &mut out), sizes));
        }
        if !more {
            break;
        }
    }
    // A host too slow to reach the checkpoint in time reads it at the end.
    let ((recall, checkpoint_hashes), (stored, live)) = at_checkpoint.unwrap_or_else(|| {
        let sizes = (index.len(), index.live_len());
        (checkpoint(&mut index, &queries, &stream, &mut out), sizes)
    });
    hashes.extend(checkpoint_hashes);
    out.digest = fold_digest(hashes);

    if !env.trace {
        // Timing from the epochs after the checkpoint, when the index has
        // churned. Host noise only ever slows an epoch down (see
        // `harness::set_timing`) and ops cannot be repeated on a mutating
        // index, so each op kind is read at its best block mean and `qps`
        // is the nominal 70/20/10 mix at those costs.
        let after = |per: usize, len: usize| (CHECKPOINT_OPS / per).min(len.saturating_sub(1));
        let kind = |k: usize| {
            let from = after(BLOCK_OPS, timings.block_mean_ns.len());
            let means: Vec<f64> = timings.block_mean_ns[from..].iter().map(|m| m[k]).collect();
            best_low(&means)
        };
        out.metrics
            .set("qps", 1e9 / (0.7 * kind(0) + 0.2 * kind(1) + 0.1 * kind(2)));
        let churned = |v: &[f64], per: usize| v[after(per, v.len())..].to_vec();
        let (p50s, p99s) = (
            churned(&timings.block_search_p50_us, BLOCK_OPS),
            churned(&timings.epoch_search_p99_us, EPOCH_OPS),
        );
        if p50s.is_empty() || p99s.is_empty() {
            out.violations
                .push("churn: no complete epoch to read latency from".to_string());
        } else {
            out.metrics.set("latency_p50_us", best_low(&p50s));
            out.metrics.set("latency_p99_us", best_low(&p99s));
        }
        out.passes
            .insert("qps", churned(&timings.epoch_qps, EPOCH_OPS));
        out.passes.insert("latency_p50_us", p50s);
        out.metrics.set("recall_at_10", recall);
        // Tombstoned vectors are never reclaimed, so bytes per *live*
        // point is the space amplification churn causes. Adjacency has no
        // public size read-out on the dynamic index and is not counted.
        out.metrics.set(
            "index_bytes_per_point",
            (stored * DIM * 4) as f64 / live as f64,
        );
        return out;
    }

    // Per-kind cost at each kind's best (untraced) block mean.
    let kind = |k: usize| {
        let means: Vec<f64> = timings.block_mean_ns.iter().map(|m| m[k]).collect();
        best_low(&means)
    };
    out.metrics.set("dyn.search_ns", kind(0));
    out.metrics.set("dyn.insert_ns", kind(1));
    out.metrics.set("dyn.delete_ns", kind(2));
    out.metrics.set(
        "dyn.insert_ndc",
        timings.insert_ndc as f64 / timings.insert_ns.len().max(1) as f64,
    );
    timings.insert_ns.sort_unstable();
    match percentile(&timings.insert_ns, 0.99) {
        Some(p) => out.metrics.set("insert_p99_us", p.value / 1e3),
        None => out
            .violations
            .push("churn: too few inserts for a p99".to_string()),
    }
    walk_metrics(
        WalkTotals {
            calls: timings.search_ns.len() as u64,
            total_ns: (kind(0) * timings.search_ns.len() as f64) as u64,
            ndc: timings.search.ndc,
            hops: timings.search.hops,
            pool_peak_sum: timings.pool_peak_sum,
        },
        index.live_len(),
        &mut out.metrics,
    );
    trace_overhead(
        &timings.epoch_qps,
        &timings.traced_epoch_qps,
        &mut out.metrics,
    );
    out.metrics
        .set("dyn.tombstone_fraction_end", index.tombstone_fraction());
    let t = Instant::now();
    rec.within("dyn.consolidate", 0, || index.consolidate());
    out.metrics
        .set("dyn.consolidate_s", t.elapsed().as_secs_f64());
    // The repaired graph must still answer with live points only.
    for &qi in stream.order.iter().take(CHECKPOINT_QUERIES) {
        out.attempted += 1;
        let res = index.search(queries.point(qi), K, BEAM);
        if let Some(defect) = result_defect(&res, &|id| !stream.deleted[id as usize]) {
            out.fail(format!("churn: query {qi} after consolidate: {defect}"));
        }
    }
    host_metrics(env, &mut out.metrics);
    out.spans = Some(rec);
    out
}
