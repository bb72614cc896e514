//! `weavess` — command-line interface over the library.
//!
//! ```text
//! weavess build  --algo NSG --base base.fvecs --out index.wvss [--threads N] [--seed S]
//! weavess search --index index.wvss --base base.fvecs --queries q.fvecs \
//!                [--k 10] [--beam 60] [--out results.ivecs]
//! weavess eval   --algo HNSW --base base.fvecs --queries q.fvecs --gt gt.ivecs \
//!                [--k 10] [--threads N]
//! weavess gt     --base base.fvecs --queries q.fvecs --k 100 --out gt.ivecs
//! weavess info   --index index.wvss
//! weavess serve  --index index.wvss --base base.fvecs --queries q.fvecs \
//!                [--k 10] [--beam 60] [--workers N] [--sample-every 64] \
//!                [--audit-every 16] [--trace-out trace.json] [--metrics-out m.prom]
//! ```
//!
//! Only algorithms with self-contained seed strategies can round-trip
//! through `build`/`search` files (see `weavess::core::persist`); `eval`
//! works for every algorithm because it builds in-process.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use weavess::core::algorithms::Algo;
use weavess::core::index::{AnnIndex, SearchContext};
use weavess::core::persist::{load_index, save_index};
use weavess::data::ground_truth::ground_truth;
use weavess::data::io::{read_fvecs, read_ivecs, write_ivecs};
use weavess::data::metrics::mean_recall;
use weavess::graph::connectivity::weak_components;
use weavess::graph::metrics::degree_stats;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "build" => cmd_build(&opts),
        "search" => cmd_search(&opts),
        "eval" => cmd_eval(&opts),
        "gt" => cmd_gt(&opts),
        "info" => cmd_info(&opts),
        "serve" => cmd_serve(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
weavess — graph-based approximate nearest neighbor search

USAGE:
  weavess build  --algo <NAME> --base <fvecs> --out <wvss> [--threads N] [--seed S]
  weavess search --index <wvss> --base <fvecs> --queries <fvecs> [--k 10] [--beam 60] [--out <ivecs>]
  weavess eval   --algo <NAME> --base <fvecs> --queries <fvecs> --gt <ivecs> [--k 10] [--beam 60] [--threads N]
  weavess gt     --base <fvecs> --queries <fvecs> [--k 100] [--threads N] --out <ivecs>
  weavess info   --index <wvss>
  weavess serve  --index <wvss> --base <fvecs> --queries <fvecs> [--k 10] [--beam 60]
                 [--workers N] [--sample-every 64] [--audit-every 16]
                 [--trace-out <json>] [--metrics-out <prom>]

Algorithms: KGraph NGT-panng NGT-onng SPTAG-KDT SPTAG-BKT NSW IEH FANNG
            HNSW EFANNA DPG NSG HCNNG Vamana NSSG k-DR OA";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{flag}'"));
        };
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

fn need<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
    }
}

fn algo_by_name(name: &str) -> Result<Algo, String> {
    Algo::all()
        .iter()
        .copied()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown algorithm '{name}'"))
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn cmd_build(opts: &Opts) -> Result<(), String> {
    let algo = algo_by_name(need(opts, "algo")?)?;
    let base = read_fvecs(Path::new(need(opts, "base")?)).map_err(|e| e.to_string())?;
    let out = PathBuf::from(need(opts, "out")?);
    let threads = num(opts, "threads", default_threads())?;
    let seed = num(opts, "seed", 1u64)?;
    eprintln!(
        "building {} on {} points (dim {}, {threads} threads)...",
        algo.name(),
        base.len(),
        base.dim()
    );
    let t0 = std::time::Instant::now();
    // Persisting needs a FlatIndex with self-contained seeds.
    let flat = build_flat(algo, &base, threads, seed).ok_or_else(|| {
        format!(
            "{} cannot be persisted (auxiliary seed structure); use 'eval' instead",
            algo.name()
        )
    })?;
    eprintln!("built in {:.2}s", t0.elapsed().as_secs_f64());
    save_index(&out, &flat).map_err(|e| e.to_string())?;
    eprintln!("saved {}", out.display());
    Ok(())
}

/// Builds the subset of algorithms whose indexes are persistable.
fn build_flat(
    algo: Algo,
    base: &weavess::data::Dataset,
    threads: usize,
    seed: u64,
) -> Option<weavess::core::index::FlatIndex> {
    use weavess::core::algorithms::*;
    match algo {
        Algo::KGraph => Some(kgraph::build(
            base,
            &kgraph::KGraphParams::tuned(threads, seed),
        )),
        Algo::Nsw => Some(nsw::build(base, &nsw::NswParams::tuned(threads, seed))),
        Algo::Fanng => Some(fanng::build(
            base,
            &fanng::FanngParams::tuned(threads, seed),
        )),
        Algo::Dpg => Some(dpg::build(base, &dpg::DpgParams::tuned(threads, seed))),
        Algo::Nsg => Some(nsg::build(base, &nsg::NsgParams::tuned(threads, seed))),
        Algo::Vamana => Some(vamana::build(
            base,
            &vamana::VamanaParams::tuned(threads, seed),
        )),
        Algo::Nssg => Some(nssg::build(base, &nssg::NssgParams::tuned(threads, seed))),
        Algo::Kdr => Some(kdr::build(base, &kdr::KdrParams::tuned(threads, seed))),
        Algo::Oa => Some(oa::build(base, &oa::OaParams::tuned(threads, seed))),
        _ => None,
    }
}

fn cmd_search(opts: &Opts) -> Result<(), String> {
    let index = load_index(Path::new(need(opts, "index")?)).map_err(|e| e.to_string())?;
    let base = read_fvecs(Path::new(need(opts, "base")?)).map_err(|e| e.to_string())?;
    let queries = read_fvecs(Path::new(need(opts, "queries")?)).map_err(|e| e.to_string())?;
    let k = num(opts, "k", 10usize)?;
    let beam = num(opts, "beam", 60usize)?;
    if base.len() != index.graph.len() {
        return Err(format!(
            "index covers {} points but base file holds {}",
            index.graph.len(),
            base.len()
        ));
    }
    let mut ctx = SearchContext::new(base.len());
    let t0 = std::time::Instant::now();
    let results: Vec<Vec<u32>> = (0..queries.len() as u32)
        .map(|qi| {
            index
                .search(&base, queries.point(qi), k, beam, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "{} queries in {:.3}s ({:.0} QPS, {:.0} distance computations/query)",
        queries.len(),
        secs,
        queries.len() as f64 / secs,
        ctx.stats.ndc as f64 / queries.len() as f64
    );
    match opts.get("out") {
        Some(out) => {
            write_ivecs(Path::new(out), &results).map_err(|e| e.to_string())?;
            eprintln!("wrote {out}");
        }
        None => {
            for (qi, row) in results.iter().enumerate() {
                println!("{qi}: {row:?}");
            }
        }
    }
    Ok(())
}

fn cmd_eval(opts: &Opts) -> Result<(), String> {
    let algo = algo_by_name(need(opts, "algo")?)?;
    let base = read_fvecs(Path::new(need(opts, "base")?)).map_err(|e| e.to_string())?;
    let queries = read_fvecs(Path::new(need(opts, "queries")?)).map_err(|e| e.to_string())?;
    let gt = read_ivecs(Path::new(need(opts, "gt")?)).map_err(|e| e.to_string())?;
    let k = num(opts, "k", 10usize)?;
    let beam = num(opts, "beam", 60usize)?;
    let threads = num(opts, "threads", default_threads())?;
    let seed = num(opts, "seed", 1u64)?;
    if gt.len() != queries.len() {
        return Err("ground truth and query counts differ".into());
    }
    let t0 = std::time::Instant::now();
    let index = algo.build(&base, threads, seed);
    let build_secs = t0.elapsed().as_secs_f64();
    let mut ctx = SearchContext::new(base.len());
    let t0 = std::time::Instant::now();
    let results: Vec<Vec<u32>> = (0..queries.len() as u32)
        .map(|qi| {
            index
                .search(&base, queries.point(qi), k, beam, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let truth: Vec<Vec<u32>> = gt
        .iter()
        .map(|row| row[..k.min(row.len())].to_vec())
        .collect();
    println!(
        "{}: build {:.2}s | Recall@{k} {:.4} | {:.0} QPS | {:.0} NDC/query | speedup {:.1}x",
        algo.name(),
        build_secs,
        mean_recall(&results, &truth),
        queries.len() as f64 / secs,
        ctx.stats.ndc as f64 / queries.len() as f64,
        base.len() as f64 / (ctx.stats.ndc as f64 / queries.len() as f64)
    );
    Ok(())
}

fn cmd_gt(opts: &Opts) -> Result<(), String> {
    let base = read_fvecs(Path::new(need(opts, "base")?)).map_err(|e| e.to_string())?;
    let queries = read_fvecs(Path::new(need(opts, "queries")?)).map_err(|e| e.to_string())?;
    let k = num(opts, "k", 100usize)?;
    let threads = num(opts, "threads", default_threads())?;
    let out = need(opts, "out")?;
    eprintln!("computing exact {k}-NN for {} queries...", queries.len());
    let gt = ground_truth(&base, &queries, k, threads);
    write_ivecs(Path::new(out), &gt).map_err(|e| e.to_string())?;
    eprintln!("wrote {out}");
    Ok(())
}

/// Serves the query file through the batch engine with the full
/// observability stack attached: per-query flight recorder (seeded
/// tail-sampling), online recall auditor (exact shadow re-answers), and
/// the latency/recall SLO engine. Prometheus exposition goes to stdout
/// or `--metrics-out`; `--trace-out` writes the sampled flights as
/// Chrome trace-event JSON for `chrome://tracing` / Perfetto.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use weavess::core::audit::{AuditConfig, RecallAuditor, SloEngine, SloPolicy};
    use weavess::core::serve::{EngineOptions, QueryEngine};
    use weavess::core::telemetry::expose::Exposition;
    use weavess::core::telemetry::{query_fingerprint, FlightOptions, FlightRecorder};

    let index = load_index(Path::new(need(opts, "index")?)).map_err(|e| e.to_string())?;
    let base = read_fvecs(Path::new(need(opts, "base")?)).map_err(|e| e.to_string())?;
    let queries = read_fvecs(Path::new(need(opts, "queries")?)).map_err(|e| e.to_string())?;
    let k = num(opts, "k", 10usize)?;
    let beam = num(opts, "beam", 60usize)?;
    let workers = num(opts, "workers", default_threads())?;
    let sample_every = num(opts, "sample-every", 64u64)?;
    let audit_every = num(opts, "audit-every", 16u64)?;
    if base.len() != index.graph.len() {
        return Err(format!(
            "index covers {} points but base file holds {}",
            index.graph.len(),
            base.len()
        ));
    }

    let engine = QueryEngine::with_options(
        &index,
        &base,
        EngineOptions {
            workers,
            ..EngineOptions::default()
        },
    );
    let recorder = FlightRecorder::new(FlightOptions {
        sample_every,
        ..FlightOptions::default()
    });
    let t0 = std::time::Instant::now();
    let report = engine.search_batch_flights(&queries, k, beam, &recorder);
    let secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "{} queries in {:.3}s ({:.0} QPS); {} flights recorded ({} sampled)",
        queries.len(),
        secs,
        queries.len() as f64 / secs,
        recorder.recorded_total(),
        recorder.sampled_total(),
    );

    let auditor = RecallAuditor::new(
        &base,
        AuditConfig {
            sample_every: audit_every,
            k,
            ..AuditConfig::default()
        },
    );
    for qi in 0..queries.len() as u32 {
        let q = queries.point(qi);
        auditor.observe(
            query_fingerprint(q),
            q,
            &report.results[qi as usize],
            index.overlay_edges() > 0,
        );
    }
    while auditor.run_pending() > 0 {}
    let audit = auditor.snapshot();
    let mut slo = SloEngine::new(SloPolicy::default());
    let slo_report = slo.evaluate(&engine.snapshot().latency, &audit);
    eprintln!(
        "audit: {} exact re-answers, live Recall@{k} {:.4} [{:.4}, {:.4}]; \
         SLO latency={} recall={}",
        audit.audited_total,
        audit.recall,
        audit.ci_low,
        audit.ci_high,
        slo_report.latency_state.name(),
        slo_report.recall_state.name(),
    );

    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, recorder.chrome_trace_json()).map_err(|e| e.to_string())?;
        eprintln!("wrote Chrome trace to {path}");
    }
    let prom = Exposition::of(&[&engine, &audit, &slo_report]).to_prometheus();
    match opts.get("metrics-out") {
        Some(path) => {
            std::fs::write(path, &prom).map_err(|e| e.to_string())?;
            eprintln!("wrote metrics to {path}");
        }
        None => print!("{prom}"),
    }
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let index = load_index(Path::new(need(opts, "index")?)).map_err(|e| e.to_string())?;
    let s = degree_stats(&index.graph);
    println!("algorithm : {}", index.name);
    println!("vertices  : {}", index.graph.len());
    println!("edges     : {}", index.graph.num_edges());
    println!("degree    : avg {:.1}, max {}, min {}", s.avg, s.max, s.min);
    println!("components: {}", weak_components(&index.graph));
    println!("router    : {:?}", index.router);
    println!("seeds     : {}", index.seeds.label());
    println!("memory    : {:.1} MB", index.memory_bytes() as f64 / 1e6);
    Ok(())
}
