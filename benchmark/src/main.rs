//! The repository's one benchmark harness. See `README.md`.
//!
//! Modes (all through `benchmark/run.sh`, which builds this binary and
//! passes `--dir <benchmark directory>` first):
//!
//! - `--workload W --seed N --seconds S --trace 0|1`: one run of one
//!   workload, the last stdout line being the result object of the
//!   benchmark contract (`--trace 0`: every end-to-end metric,
//!   `--trace 1`: every per-layer metric).
//! - `[--seed S] [--workload W|all] [--out FILE] [--repeat N]`: an
//!   untraced then a traced run of each workload, every metric printed as
//!   `workload metric value unit`, one JSON record written to `--out` and,
//!   for `all`, appended to `history.jsonl`; `--repeat 2` does it twice
//!   and compares the two records.
//! - `compare A.json B.json`: the noise-aware regression gate.
//! - `manifest`: prints `BENCHMARK.json`.

mod harness;
mod metrics;
mod record;
mod schedule;
mod spans;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use weavess_core::telemetry::flight::{parse_json, JsonValue};
use weavess_data::{host_features, KernelTier};

use harness::{Env, RunOutput};
use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use record::{compare, json_num, print_comparison, record_json, workload_json, Header};

/// Spans written to a trace file; totals always use every span.
const TRACE_FILE_EVENTS: usize = 20_000;

struct Args {
    dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    repeat: usize,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: PathBuf::from("benchmark"),
        workload: "all".to_string(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        out: None,
        repeat: 1,
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3_600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=10).contains(&args.repeat) {
                    return Err("--repeat must be 1 to 10".to_string());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn header(args: &Args) -> Header {
    // Outside a git checkout (the driver's copy) the revision is unknown.
    let git_rev = std::process::Command::new("git")
        .arg("-C")
        .arg(&args.dir)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Header {
        git_rev,
        date: record::iso_utc(now),
        nproc: nproc(),
        host_features: host_features(),
        kernel_tier: KernelTier::active().name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
    }
}

/// Runs one workload once and writes its trace file when traced.
fn run_once(args: &Args, workload: &str, trace: bool) -> Result<RunOutput, String> {
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        nproc: nproc(),
        out_dir: args.dir.join("out"),
    };
    // A full run makes every run in one process: reset the kernel's
    // peak-RSS mark so `host.peak_rss_mib` is this run's own (a no-op where
    // the interface is absent).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut out =
        workloads::run(workload, &env).ok_or_else(|| format!("unknown workload {workload}"))?;
    if let Some(spans) = out.spans.take() {
        // Where the traced run's time went, layer by layer: total time
        // under each span name and the part no child span accounts for.
        for (name, t) in spans::totals(spans.spans()) {
            eprintln!(
                "# span {workload} {name} count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        std::fs::create_dir_all(&env.out_dir).map_err(|e| format!("create out/: {e}"))?;
        let path = env.out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, spans.chrome_trace_json(TRACE_FILE_EVENTS))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// The value of every metric of `table`, in table order. A missing
/// end-to-end value is a violation; a missing per-layer value means the
/// workload does not exercise that layer and reads 0.
fn values(table: &'static [MetricDef], out: &mut RunOutput) -> Vec<(&'static MetricDef, f64)> {
    table
        .iter()
        .map(|def| {
            let value = match out.metrics.get(def.name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    out.violations.push(format!("{} is {v}", def.name));
                    0.0
                }
                None if def.bound.is_some() => {
                    out.violations
                        .push(format!("{} was not measured", def.name));
                    0.0
                }
                None => 0.0,
            };
            (def, value)
        })
        .collect()
}

fn print_metric_lines(workload: &str, values: &[(&MetricDef, f64)]) {
    for (def, value) in values {
        println!("{workload} {} {} {}", def.name, json_num(*value), def.unit);
    }
}

fn report_violations(workload: &str, out: &RunOutput) {
    for v in &out.violations {
        eprintln!("VIOLATION {workload}: {v}");
    }
}

/// The benchmark contract's single run.
fn contract_run(args: &Args, trace: bool) -> Result<bool, String> {
    let h = header(args);
    eprintln!(
        "# weavess benchmark: workload={} seed={} seconds={} trace={} nproc={} kernel={} \
         features={} rev={}",
        args.workload,
        h.seed,
        h.seconds,
        u8::from(trace),
        h.nproc,
        h.kernel_tier,
        h.host_features,
        h.git_rev
    );
    let mut out = run_once(args, &args.workload, trace)?;
    let table = if trace { PER_LAYER } else { END_TO_END };
    let values = values(table, &mut out);
    print_metric_lines(&args.workload, &values);
    report_violations(&args.workload, &out);
    let metrics: Vec<String> = values
        .iter()
        .map(|(def, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_num(*v),
                def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    Ok(out.correct())
}

/// One pass over the chosen workloads: untraced then traced run of each.
/// Returns the record and whether every gate held.
fn full_pass(args: &Args, names: &[&str]) -> Result<(String, bool), String> {
    let h = header(args);
    println!(
        "# weavess benchmark: seed={} seconds={} nproc={} kernel={} features={} rev={} date={}",
        h.seed, h.seconds, h.nproc, h.kernel_tier, h.host_features, h.git_rev, h.date
    );
    if h.nproc == 1 {
        println!("# one hardware thread: parallel-scaling ratios are withheld (printed as 0)");
    }
    let mut blocks = Vec::new();
    let mut all_correct = true;
    for &name in names {
        let mut untraced = run_once(args, name, false)?;
        print_metric_lines(name, &values(END_TO_END, &mut untraced));
        let mut traced = run_once(args, name, true)?;
        print_metric_lines(name, &values(PER_LAYER, &mut traced));
        report_violations(name, &untraced);
        report_violations(name, &traced);
        all_correct &= untraced.correct() && traced.correct();
        blocks.push((name.to_string(), workload_json(&untraced, &traced)));
    }
    Ok((record_json(&h, &blocks), all_correct))
}

fn full_run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let manifest = load_json(&args.dir.join("../BENCHMARK.json"))?;
    let mut ok = true;
    let mut records = Vec::new();
    for pass in 0..args.repeat {
        let (record, correct) = full_pass(args, &names)?;
        ok &= correct;
        println!("{record}");
        let out = args.out.clone().unwrap_or_else(|| {
            args.dir
                .join("out")
                .join(format!("record-seed{}-run{pass}.json", args.seed))
        });
        if let Some(parent) = out.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
        }
        std::fs::write(&out, format!("{record}\n"))
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        if args.workload == "all" {
            let mut history = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(args.dir.join("history.jsonl"))
                .map_err(|e| format!("open history.jsonl: {e}"))?;
            writeln!(history, "{record}").map_err(|e| format!("append history.jsonl: {e}"))?;
        }
        records.push(parse_json(&record)?);
    }
    for pair in records.windows(2) {
        let (rows, mismatches) = compare(&pair[0], &pair[1], &manifest);
        ok &= print_comparison(&rows, &mismatches);
    }
    Ok(ok)
}

/// Reads one JSON document; for a `.jsonl` history, its last record.
fn load_json(path: &Path) -> Result<JsonValue, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = if path.extension().is_some_and(|e| e == "jsonl") {
        text.lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("")
    } else {
        text.as_str()
    };
    parse_json(doc).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    match args.positional.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: compare A.json B.json".to_string());
            };
            let manifest = load_json(&args.dir.join("../BENCHMARK.json"))?;
            let (rows, mismatches) = compare(
                &load_json(Path::new(a))?,
                &load_json(Path::new(b))?,
                &manifest,
            );
            Ok(print_comparison(&rows, &mismatches))
        }
        Some(other) => Err(format!("unknown command {other}")),
        None => match args.trace {
            Some(trace) => contract_run(&args, trace),
            None => full_run(&args),
        },
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
