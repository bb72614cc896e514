//! `serve-open`: the sharded serving tier under an open-loop arrival
//! process.
//!
//! Each request crosses queue → scatter → per-shard walk → merge in
//! batches of one or two, so per-batch fixed costs dominate: serving-tier
//! work (worker reuse, admission bound, shedding) shows here and not on
//! `hidim`/`lodim`. Arrivals follow a seeded Poisson schedule fired by
//! `nproc` client threads (thread `j` owns arrivals `i ≡ j mod nproc`);
//! latency is charged from the *scheduled* instant.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::index::{AnnIndex, SearchContext};
use weavess_core::serve::EngineOptions;
use weavess_core::shard::{merge_topk, partition_ids, BatchQueue, QueueOptions};
use weavess_core::telemetry::flight::Stage;
use weavess_core::telemetry::{FlightOptions, FlightRecorder};
use weavess_core::{LayoutIndex, NodeLayout, ShardSet, ShardedEngine};
use weavess_data::{Dataset, Neighbor};

use crate::harness::{
    batches_of, best_low, best_secs, engine_probe, fold_digest, graph_metrics, host_metrics,
    inputs, kernel_probe, mean_recall, pass_latency_us, result_defect, result_hash, set_up,
    shuffled, timed_ground_truth, trace_overhead, walk_metrics, Env, RunOutput, WalkTotals,
    BUILD_SEED, K,
};
use crate::schedule::{charge, poisson_schedule};
use crate::spans::SpanRecorder;
use crate::stats::{median, percentile};

const N: usize = 30_000;
const DIM: usize = 64;
const N_QUERIES: usize = 2_000;
const SHARDS: usize = 2;
const BEAM: usize = 64;
const RECALL_FLOOR: f64 = 0.95;
const PARTITION_SEED: u64 = 0xD15C0;
/// The rate the end-to-end latency is read at.
const RATE_QPS: f64 = 2_000.0;
/// The fixed rates of the traced sweep.
const SWEEP_QPS: [(f64, &str); 3] = [(1_000.0, "r1000"), (2_000.0, "r2000"), (4_000.0, "r4000")];
/// Arrivals per latency window: the fewest that still leave ten samples
/// beyond the p99.
const SLICE_ARRIVALS: usize = 1_000;
/// The latency limit a rate must meet at p99 to count as sustained.
const SLO_P99_US: f64 = 2_000.0;

type Queue<'a> = BatchQueue<'a, ShardedEngine<'a>>;

fn build_shards(base: &Dataset, threads: usize) -> ShardSet {
    ShardSet::build(
        base,
        SHARDS,
        PARTITION_SEED,
        NodeLayout::Split,
        false,
        threads,
        |ds: &Dataset, s| {
            nsg::build(
                ds,
                &NsgParams::tuned(threads, BUILD_SEED + s as u64).with_rnn_c1(),
            )
        },
    )
    .expect("40 000 points fill two shards")
}

fn queue_options(nproc: usize) -> QueueOptions {
    QueueOptions {
        max_batch: nproc,
        max_delay: Duration::from_micros(200),
        k: K,
        beam: BEAM,
    }
}

/// One open-loop request.
struct Sample {
    arrival: usize,
    latency_ns: u64,
    lag_ns: u64,
    service_ns: u64,
}

/// Everything the open loop needs besides the queue.
struct Traffic<'a> {
    queries: &'a Dataset,
    order: &'a [u32],
    expected: &'a [u64],
    clients: usize,
}

/// Fires `schedule` at `queue` from `clients` threads, regardless of
/// completions. Returns the samples in arrival order and the phase's wall
/// time. With `epoch`, every request is recorded as `request` →
/// `queue.submit` spans into per-thread recorders absorbed by `rec`.
fn open_loop(
    queue: &Queue<'_>,
    traffic: &Traffic<'_>,
    schedule: &[u64],
    mut rec: Option<&mut SpanRecorder>,
    out: &mut RunOutput,
) -> (Vec<Sample>, f64) {
    let epoch = rec.as_ref().map(|r| r.epoch());
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<u32>, Option<SpanRecorder>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..traffic.clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut spans = epoch.map(|e| SpanRecorder::new(e, c as u32 + 1));
                        let mut samples = Vec::with_capacity(schedule.len() / traffic.clients + 1);
                        let mut wrong = Vec::new();
                        for (i, &sched) in
                            schedule.iter().enumerate().skip(c).step_by(traffic.clients)
                        {
                            let now = start.elapsed().as_nanos() as u64;
                            if sched > now {
                                std::thread::sleep(Duration::from_nanos(sched - now));
                            }
                            let qi = traffic.order[i % traffic.order.len()];
                            let q = traffic.queries.point(qi);
                            let fired = start.elapsed().as_nanos() as u64;
                            let open = spans
                                .as_mut()
                                .map(|r| r.open_request("queue.submit", i as u64 + 1));
                            let answer = catch_unwind(AssertUnwindSafe(|| queue.submit(q)));
                            if let (Some(open), Some(r)) = (open, spans.as_mut()) {
                                r.close_request(open);
                            }
                            let done = start.elapsed().as_nanos() as u64;
                            let cost = charge(sched, fired, done);
                            samples.push(Sample {
                                arrival: i,
                                latency_ns: cost.latency_ns,
                                lag_ns: cost.lag_ns,
                                service_ns: done - fired,
                            });
                            match answer {
                                Ok(res) if result_hash(&res) == traffic.expected[qi as usize] => {}
                                _ => wrong.push(qi),
                            }
                        }
                        (samples, wrong, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::with_capacity(schedule.len());
    for (s, wrong, spans) in per_client {
        samples.extend(s);
        for qi in wrong {
            out.fail(format!(
                "serve-open: query {qi} answered differently through the queue"
            ));
        }
        if let (Some(rec), Some(spans)) = (rec.as_mut(), spans) {
            rec.absorb(spans);
        }
    }
    out.attempted += samples.len() as u64;
    samples.sort_unstable_by_key(|s| s.arrival);
    (samples, wall)
}

/// `clients` threads each submitting back to back for `seconds`: the
/// queue's saturated throughput, the one place a traced and an untraced
/// run of this workload differ in throughput rather than latency.
fn burst_qps(queue: &Queue<'_>, traffic: &Traffic<'_>, seconds: f64, traced: bool) -> f64 {
    let start = Instant::now();
    let done: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..traffic.clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut spans = traced.then(|| SpanRecorder::new(start, c as u32 + 1));
                    let mut calls = 0usize;
                    let mut i = c;
                    while start.elapsed().as_secs_f64() < seconds {
                        let q = traffic
                            .queries
                            .point(traffic.order[i % traffic.order.len()]);
                        match spans.as_mut() {
                            Some(r) => {
                                let open = r.open_request("queue.submit", i as u64);
                                std::hint::black_box(queue.submit(q));
                                r.close_request(open);
                            }
                            None => {
                                std::hint::black_box(queue.submit(q));
                            }
                        }
                        calls += 1;
                        i += traffic.clients;
                    }
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    done as f64 / start.elapsed().as_secs_f64()
}

/// Summary of one open-loop phase.
struct PhaseStats {
    p50_us: f64,
    p99_us: f64,
    achieved_qps: f64,
    /// Median latency of the last quarter of arrivals more than twice the
    /// first quarter's: the backlog is growing, the rate is not sustained.
    backlog_growing: bool,
}

fn phase_stats(samples: &[Sample], wall: f64) -> Option<PhaseStats> {
    let mut lat: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    lat.sort_unstable();
    let quarter = samples.len() / 4;
    let med = |part: &[Sample]| {
        let mut v: Vec<u64> = part.iter().map(|s| s.latency_ns).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };
    Some(PhaseStats {
        p50_us: percentile(&lat, 0.50)?.value / 1e3,
        p99_us: percentile(&lat, 0.99)?.value / 1e3,
        achieved_qps: samples.len() as f64 / wall,
        backlog_growing: quarter > 0
            && med(&samples[samples.len() - quarter..]) > 2 * med(&samples[..quarter]),
    })
}

/// Runs the workload.
pub fn run(env: &Env) -> RunOutput {
    let mut out = RunOutput::default();
    let generate = || inputs(DIM, N, N_QUERIES, 20, 12, env.sub_seed(1));

    let mut rec = SpanRecorder::new(Instant::now(), 0);
    let (base, queries, set) = set_up(env, "serve-open", N, &mut rec, &mut out, generate, |base| {
        build_shards(base, env.nproc)
    });
    let (truth, truth_s) = rec.within("setup.ground_truth", 0, || {
        timed_ground_truth(&base, &queries, env.nproc)
    });
    let engine = ShardedEngine::with_options(
        &set,
        EngineOptions {
            workers: 1,
            seed: BUILD_SEED,
        },
    );

    // Reference answers from one big batch; every answer through the
    // queue must reproduce them. Gate: they equal merging the per-shard
    // `search_batch` pools with `merge_topk`.
    let reference = engine.search_batch(&queries, K, BEAM);
    let mut per_query: Vec<Vec<Vec<Neighbor>>> = vec![Vec::with_capacity(SHARDS); queries.len()];
    for (s, shard) in set.shards().iter().enumerate() {
        let pools = engine.engine(s).search_batch(&queries, K, BEAM).results;
        for (qi, mut pool) in pools.into_iter().enumerate() {
            for n in &mut pool {
                n.id = shard.to_global(n.id);
            }
            per_query[qi].push(pool);
        }
    }
    for (qi, res) in reference.results.iter().enumerate() {
        out.attempted += 1;
        if let Some(defect) = result_defect(res, &|id| (id as usize) < N) {
            out.fail(format!("serve-open: query {qi}: {defect}"));
        }
        if merge_topk(&per_query[qi], K) != *res {
            out.fail(format!(
                "serve-open: query {qi} differs from the merge of its per-shard pools"
            ));
        }
    }
    let recall = mean_recall(&reference.results, &truth);
    if recall < RECALL_FLOOR {
        out.violations.push(format!(
            "serve-open: recall {recall:.4} below floor {RECALL_FLOOR}"
        ));
    }
    let expected: Vec<u64> = reference.results.iter().map(|r| result_hash(r)).collect();
    out.digest = fold_digest(expected.iter().copied());
    let order = shuffled(queries.len(), env.sub_seed(2));
    let traffic = Traffic {
        queries: &queries,
        order: &order,
        expected: &expected,
        clients: env.nproc,
    };

    // Warm the shard engines and the queue path before timing.
    let warm_queue = BatchQueue::new(&engine, queue_options(env.nproc));
    for &qi in order.iter().take(256) {
        std::hint::black_box(warm_queue.submit(queries.point(qi)));
    }

    if !env.trace {
        let queue = BatchQueue::new(&engine, queue_options(env.nproc));
        let arrivals = (RATE_QPS * env.seconds) as usize;
        let schedule = poisson_schedule(env.sub_seed(3), RATE_QPS, arrivals);
        let (samples, wall) = open_loop(&queue, &traffic, &schedule, None, &mut out);
        // Throughput over the whole window (it tracks the offered rate
        // while the tier keeps up); latency from the quietest window of
        // 1 000 consecutive arrivals (windows start every 100), for the
        // reason `set_timing` gives.
        out.metrics.set("qps", samples.len() as f64 / wall);
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for slice in samples.windows(SLICE_ARRIVALS).step_by(SLICE_ARRIVALS / 10) {
            let mut lat: Vec<u64> = slice.iter().map(|s| s.latency_ns).collect();
            if let Some((p50, p99)) = pass_latency_us(&mut lat) {
                p50s.push(p50);
                p99s.push(p99);
            }
        }
        if p50s.is_empty() {
            out.violations
                .push("serve-open: no complete window of arrivals".to_string());
        } else {
            out.metrics.set("latency_p50_us", best_low(&p50s));
            out.metrics.set("latency_p99_us", best_low(&p99s));
            out.passes.insert("latency_p50_us", p50s);
        }
        out.metrics.set("recall_at_10", recall);
        let payload: usize = set.shards().iter().map(|s| s.data().memory_bytes()).sum();
        out.metrics.set(
            "index_bytes_per_point",
            (set.memory_bytes() + payload) as f64 / N as f64,
        );
        return out;
    }

    out.metrics.set("setup.ground_truth_s", truth_s);
    let t = Instant::now();
    std::hint::black_box(partition_ids(N, SHARDS, PARTITION_SEED, env.nproc));
    out.metrics
        .set("shard.partition_s", t.elapsed().as_secs_f64());
    kernel_probe(&base, queries.point(0), env.sub_seed(4), &mut out.metrics);

    // core::shard::queue + generator: three fixed rates, untraced.
    let mut lags: Vec<u64> = Vec::new();
    let mut sustained = 0.0f64;
    for (rate, tag) in SWEEP_QPS {
        let queue = BatchQueue::new(&engine, queue_options(env.nproc));
        let arrivals = (rate * env.seconds * 0.15) as usize;
        let schedule = poisson_schedule(env.sub_seed(5), rate, arrivals);
        let failed_before = out.failed;
        let (samples, wall) = open_loop(&queue, &traffic, &schedule, None, &mut out);
        lags.extend(samples.iter().map(|s| s.lag_ns));
        let Some(stats) = phase_stats(&samples, wall) else {
            out.violations
                .push(format!("serve-open: too few arrivals at {tag} for a p99"));
            continue;
        };
        out.metrics
            .set(&format!("serve.lat_p50_us.{tag}"), stats.p50_us);
        out.metrics
            .set(&format!("serve.lat_p99_us.{tag}"), stats.p99_us);
        if tag == "r4000" {
            out.metrics
                .set("serve.achieved_qps.r4000", stats.achieved_qps);
        }
        if tag == "r2000" {
            let snap = queue.snapshot().stats;
            out.metrics.set(
                "queue.wait_p50_us",
                snap.queue_delay_ns.percentile(0.50) as f64 / 1e3,
            );
            out.metrics.set(
                "queue.wait_p99_us",
                snap.queue_delay_ns.percentile(0.99) as f64 / 1e3,
            );
            out.metrics.set(
                "queue.mean_batch",
                snap.queries_total as f64 / snap.batches_total.max(1) as f64,
            );
        }
        if stats.p99_us <= SLO_P99_US && out.failed == failed_before && !stats.backlog_growing {
            sustained = sustained.max(rate);
        }
    }
    out.metrics.set("serve.slo_ok_rate_qps", sustained);
    lags.sort_unstable();
    if let Some(p) = percentile(&lags, 0.99) {
        out.metrics.set("gen.sched_lag_p99_us", p.value / 1e3);
    }

    // core::telemetry::flight: one traced phase at the end-to-end rate,
    // every query's flight kept, harness spans around every submit.
    let flights = FlightRecorder::new(FlightOptions {
        sample_every: 1,
        capacity: 1 << 14,
        seed: env.sub_seed(6),
    });
    let traced_queue = BatchQueue::with_flights(&engine, queue_options(env.nproc), &flights);
    let arrivals = (RATE_QPS * env.seconds * 0.15) as usize;
    let schedule = poisson_schedule(env.sub_seed(7), RATE_QPS, arrivals);
    let (samples, _) = open_loop(&traced_queue, &traffic, &schedule, Some(&mut rec), &mut out);
    flight_shares(&flights, &samples, &mut out);

    // Traced against untraced throughput, in alternating saturated bursts.
    let plain_queue = BatchQueue::new(&engine, queue_options(env.nproc));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        untraced.push(burst_qps(&plain_queue, &traffic, env.seconds * 0.04, false));
        traced.push(burst_qps(&traced_queue, &traffic, env.seconds * 0.04, true));
    }
    trace_overhead(&untraced, &traced, &mut out.metrics);

    // core::shard: 256-query batches through the scatter-gather, the
    // merge timed alone on the recorded per-shard pools, and the work
    // sharding wastes against one unsharded index over the same data.
    let batches = batches_of(&queries);
    let (mut scatter_us, mut skew) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while scatter_us.is_empty() || start.elapsed().as_secs_f64() < env.seconds * 0.08 {
        for batch in &batches {
            let report = engine.search_batch(batch, K, BEAM);
            let walls: Vec<f64> = report
                .per_shard
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .collect();
            let slowest = walls.iter().copied().fold(0.0, f64::max);
            scatter_us.push((report.wall.as_secs_f64() - slowest) * 1e6);
            skew.push(slowest / (walls.iter().sum::<f64>() / walls.len() as f64));
        }
    }
    out.metrics
        .set("shard.scatter_us_per_batch", median(&scatter_us));
    out.metrics.set("shard.skew", median(&skew));
    let merge_secs = best_secs(9, || {
        for pools in &per_query {
            std::hint::black_box(merge_topk(std::hint::black_box(pools), K));
        }
    });
    out.metrics.set(
        "shard.merge_ns_per_query",
        merge_secs * 1e9 / queries.len() as f64,
    );

    let whole = rec.within("build.unsharded", 0, || {
        let flat = nsg::build(
            &base,
            &NsgParams::tuned(env.nproc, BUILD_SEED).with_rnn_c1(),
        );
        LayoutIndex::from_flat(flat, &base, NodeLayout::Split, false)
    });
    let mut ctx = SearchContext::new(N);
    for qi in 0..queries.len() as u32 {
        std::hint::black_box(whole.search(&base, queries.point(qi), K, BEAM, &mut ctx));
    }
    let unsharded_ndc = ctx.take_stats().ndc;
    out.metrics.set(
        "shard.ndc_amplification",
        reference.stats.ndc as f64 / unsharded_ndc as f64,
    );
    // The walk as this workload runs it: both shards' walks per query.
    walk_metrics(
        WalkTotals {
            calls: queries.len() as u64,
            total_ns: reference.latency_hist.sum() as u64,
            ndc: reference.stats.ndc,
            hops: reference.stats.hops,
            pool_peak_sum: 0,
        },
        N,
        &mut out.metrics,
    );
    engine_probe(
        &whole,
        &base,
        &queries,
        BEAM,
        env.nproc,
        env.seconds * 0.08,
        &mut out.metrics,
    );
    graph_metrics(set.shards()[0].index().graph(), &mut out.metrics);
    host_metrics(env, &mut out.metrics);
    out.spans = Some(rec);
    out
}

/// Splits the mean time a request spent inside `submit` by flight stage.
/// The blocking shard walk is the slowest shard's; scatter is what the
/// scatter span holds beyond it (thread start/join, the batch's other
/// query); whatever `submit` took beyond queue wait + scatter + merge is
/// unaccounted (batch assembly, wake-ups, result hand-off). The five
/// shares sum to one by construction.
fn flight_shares(flights: &FlightRecorder, samples: &[Sample], out: &mut RunOutput) {
    let recorded = flights.flights();
    if recorded.is_empty() || samples.is_empty() {
        out.violations
            .push("serve-open: the flight recorder kept no flights".to_string());
        return;
    }
    let mean_of = |f: &dyn Fn(&weavess_core::Flight) -> u64| {
        recorded.iter().map(|fl| f(fl) as f64).sum::<f64>() / recorded.len() as f64
    };
    let stage_sum = |fl: &weavess_core::Flight, stage: Stage| -> u64 {
        fl.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_ns)
            .sum()
    };
    let slowest_shard = |fl: &weavess_core::Flight| -> u64 {
        fl.spans
            .iter()
            .filter(|s| s.stage == Stage::ShardSearch)
            .map(|s| s.dur_ns)
            .max()
            .unwrap_or(0)
    };
    let service = samples.iter().map(|s| s.service_ns as f64).sum::<f64>() / samples.len() as f64;
    let queue_wait = mean_of(&|fl| stage_sum(fl, Stage::QueueWait)) / service;
    let shard_search = mean_of(&|fl| slowest_shard(fl)) / service;
    let scatter =
        mean_of(&|fl| stage_sum(fl, Stage::Scatter).saturating_sub(slowest_shard(fl))) / service;
    let merge = mean_of(&|fl| stage_sum(fl, Stage::Merge)) / service;
    out.metrics.set("flight.queue_wait_share", queue_wait);
    out.metrics.set("flight.scatter_share", scatter);
    out.metrics.set("flight.shard_search_share", shard_search);
    out.metrics.set("flight.merge_share", merge);
    out.metrics.set(
        "flight.unaccounted_share",
        1.0 - queue_wait - scatter - shard_search - merge,
    );
}
