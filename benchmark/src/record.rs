//! The one record schema: what a full run writes to `--out` and appends
//! to `history.jsonl`, and what `compare` reads back.

use std::fmt::Write as _;

use weavess_core::telemetry::flight::JsonValue;

use crate::harness::RunOutput;
use crate::metrics::{find, Better, END_TO_END, PER_LAYER};
use crate::stats::quartiles;

/// Where and how a record was produced.
pub struct Header {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// UTC time the run started, ISO 8601.
    pub date: String,
    /// Hardware threads available.
    pub nproc: usize,
    /// `weavess_data::host_features()`.
    pub host_features: String,
    /// The active distance-kernel tier.
    pub kernel_tier: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
}

/// A float as JSON: every digit measured, `0` for a non-finite value
/// (which the caller has already reported as a violation).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// UTC `YYYY-MM-DDTHH:MM:SSZ` for seconds since the Unix epoch (the
/// civil-from-days algorithm; the harness has no date dependency).
pub fn iso_utc(unix_secs: u64) -> String {
    let (days, rem) = (unix_secs / 86_400, unix_secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// One workload's block of a record, from its untraced and traced runs.
pub fn workload_json(untraced: &RunOutput, traced: &RunOutput) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \
         \"end_to_end\": {{",
        untraced.correct() && traced.correct(),
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
        untraced.digest,
    );
    let mut first = true;
    for def in END_TO_END {
        let Some(value) = untraced.metrics.get(def.name) else {
            continue;
        };
        if !std::mem::take(&mut first) {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            def.name,
            json_num(value),
            def.unit
        );
        if let Some(passes) = untraced.passes.get(def.name) {
            let (q1, _, q3) = quartiles(passes);
            let _ = write!(
                s,
                ", \"q1\": {}, \"q3\": {}, \"passes\": {}",
                json_num(q1),
                json_num(q3),
                passes.len()
            );
        }
        s.push('}');
    }
    s.push_str("}, \"per_layer\": {");
    let mut first = true;
    for def in PER_LAYER {
        let Some(value) = traced.metrics.get(def.name) else {
            continue;
        };
        if !std::mem::take(&mut first) {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_num(value),
            def.unit
        );
    }
    s.push_str("}}");
    s
}

/// A whole record on one line.
pub fn record_json(header: &Header, workloads: &[(String, String)]) -> String {
    let blocks: Vec<String> = workloads
        .iter()
        .map(|(name, block)| format!("\"{name}\": {block}"))
        .collect();
    format!(
        "{{\"schema\": 1, \"git_rev\": \"{}\", \"date\": \"{}\", \"nproc\": {}, \
         \"host_features\": \"{}\", \"kernel_tier\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"workloads\": {{{}}}}}",
        header.git_rev,
        header.date,
        header.nproc,
        header.host_features,
        header.kernel_tier,
        header.seed,
        json_num(header.seconds),
        blocks.join(", ")
    )
}

/// What `compare` concluded about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// The per-pass quartile spread is wider than the bound: the pair
    /// cannot be told apart, and is reported as such, not as unchanged.
    Unresolved,
}

/// One row of `compare`'s table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's value: the base of the ratio.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// The allowed worsening.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

fn spread(metric: &JsonValue) -> f64 {
    let num = |key| metric.get(key).and_then(JsonValue::as_num);
    match (num("q1"), num("q3"), num("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => (q3 - q1).abs() / v.abs(),
        _ => 0.0,
    }
}

/// Compares record `b` against record `a` on every end-to-end metric of
/// `manifest` (the parsed `BENCHMARK.json`). Returns the rows plus
/// messages for result digests that differ between equal-seed records.
pub fn compare(a: &JsonValue, b: &JsonValue, manifest: &JsonValue) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    let same_seed =
        a.get("seed").and_then(JsonValue::as_num) == b.get("seed").and_then(JsonValue::as_num);
    let bounds: Vec<(&str, f64)> = manifest
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?,
                m.get("bound").and_then(JsonValue::as_num)?,
            ))
        })
        .collect();
    let Some(JsonValue::Obj(workloads)) = a.get("workloads") else {
        return (rows, vec!["record A has no workloads".to_string()]);
    };
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        let digest = |w: &JsonValue| {
            w.get("digest")
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
        };
        if same_seed && digest(wa) != digest(wb) {
            mismatches.push(format!(
                "{name}: result digests differ for the same seed ({:?} vs {:?})",
                digest(wa),
                digest(wb)
            ));
        }
        for &(metric, bound) in &bounds {
            let get = |w: &JsonValue| w.get("end_to_end").and_then(|e| e.get(metric)).cloned();
            let (Some(ma), Some(mb)) = (get(wa), get(wb)) else {
                continue;
            };
            let value = |m: &JsonValue| m.get("value").and_then(JsonValue::as_num);
            let (Some(va), Some(vb)) = (value(&ma), value(&mb)) else {
                continue;
            };
            let higher = find(metric).is_some_and(|d| d.better == Better::Higher);
            let worse_by = if va == 0.0 {
                0.0
            } else if higher {
                (va - vb) / va.abs()
            } else {
                (vb - va) / va.abs()
            };
            let verdict = if spread(&ma).max(spread(&mb)) > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: name.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                bound,
                verdict,
            });
        }
    }
    (rows, mismatches)
}

/// Prints `compare`'s table; returns true when nothing regressed and no
/// digest differed.
pub fn print_comparison(rows: &[Row], mismatches: &[String]) -> bool {
    println!(
        "{:<11} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        };
        println!(
            "{:<11} {:<22} {:>14.4} {:>14.4} {:>9.4} {:>6.1}%  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a == 0.0 { 1.0 } else { r.b / r.a },
            r.bound * 100.0
        );
    }
    for m in mismatches {
        println!("DIGEST MISMATCH {m}");
    }
    mismatches.is_empty() && rows.iter().all(|r| r.verdict != Verdict::Regression)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_core::telemetry::flight::parse_json;

    const MANIFEST: &str = r#"{"end_to_end": [
        {"name": "qps", "unit": "ops/s", "better": "higher", "bound": 0.05},
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.05}]}"#;

    fn record(seed: u64, digest: &str, qps: f64, q1: f64, q3: f64, p50: f64) -> JsonValue {
        parse_json(&format!(
            r#"{{"seed": {seed}, "workloads": {{"hidim": {{"digest": "{digest}", "end_to_end": {{
            "qps": {{"value": {qps}, "unit": "ops/s", "q1": {q1}, "q3": {q3}, "passes": 10}},
            "latency_p50_us": {{"value": {p50}, "unit": "us"}}}}}}}}}}"#
        ))
        .expect("test record parses")
    }

    fn verdicts(a: &JsonValue, b: &JsonValue) -> Vec<Verdict> {
        let manifest = parse_json(MANIFEST).unwrap();
        compare(a, b, &manifest)
            .0
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn within_bound_is_ok_in_both_directions() {
        let a = record(1, "aa", 1000.0, 995.0, 1005.0, 50.0);
        let slower = record(1, "aa", 960.0, 955.0, 965.0, 52.0);
        assert_eq!(verdicts(&a, &slower), vec![Verdict::Ok, Verdict::Ok]);
        let faster = record(1, "aa", 1500.0, 1495.0, 1505.0, 30.0);
        assert_eq!(verdicts(&a, &faster), vec![Verdict::Ok, Verdict::Ok]);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression_whichever_way_is_better() {
        let a = record(1, "aa", 1000.0, 995.0, 1005.0, 50.0);
        let b = record(1, "aa", 940.0, 935.0, 945.0, 53.0);
        assert_eq!(
            verdicts(&a, &b),
            vec![Verdict::Regression, Verdict::Regression]
        );
        let manifest = parse_json(MANIFEST).unwrap();
        let (rows, mismatches) = compare(&a, &b, &manifest);
        assert!(!print_comparison(&rows, &mismatches));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = record(1, "aa", 1000.0, 960.0, 1040.0, 50.0);
        let b = record(1, "aa", 900.0, 895.0, 905.0, 50.0);
        assert_eq!(verdicts(&a, &b), vec![Verdict::Unresolved, Verdict::Ok]);
        let manifest = parse_json(MANIFEST).unwrap();
        let (rows, mismatches) = compare(&a, &b, &manifest);
        assert!(
            print_comparison(&rows, &mismatches),
            "unresolved does not fail"
        );
    }

    #[test]
    fn equal_seeds_must_give_equal_digests() {
        let manifest = parse_json(MANIFEST).unwrap();
        let a = record(1, "aa", 1000.0, 995.0, 1005.0, 50.0);
        let b = record(1, "bb", 1000.0, 995.0, 1005.0, 50.0);
        let (rows, mismatches) = compare(&a, &b, &manifest);
        assert_eq!(mismatches.len(), 1);
        assert!(!print_comparison(&rows, &mismatches));
        let other_seed = record(2, "bb", 1000.0, 995.0, 1005.0, 50.0);
        assert!(compare(&a, &other_seed, &manifest).1.is_empty());
    }

    #[test]
    fn dates_are_civil() {
        assert_eq!(iso_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_utc(1_790_361_045), "2026-09-25T18:30:45Z");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(18406.123456789), "18406.123456789");
    }
}
