//! Metric exposition: every series declared once, rendered two ways.
//!
//! A snapshot type implements [`Expose`] by declaring each of its series
//! (name, HELP text, value) into an [`Exposition`] — an ordered list of
//! metric families. The list has exactly two renderers:
//! [`Exposition::to_prometheus`] follows the text exposition format
//! (`# HELP` / `# TYPE` headers, cumulative `_bucket{le="…"}` series plus
//! `_sum` and `_count` for histograms) and [`Exposition::to_json`] is the
//! same families as one JSON object keyed by series name. Blocks compose
//! by exposing into the same list ([`Exposition::of`]), never by joining
//! rendered strings.

use std::fmt::{Display, Write};

use super::histogram::{bucket_upper_bound, Histogram, BUCKETS};

/// A type that declares its metric series into an [`Exposition`].
pub trait Expose {
    /// Appends this value's families to `out`, each exactly once.
    fn expose(&self, out: &mut Exposition);
}

/// The `(label, value)` pairs of one sample, in render order.
pub type Labels = Vec<(&'static str, String)>;

enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Histogram>),
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    samples: Vec<(Labels, Value)>,
}

/// An ordered list of metric families (counter / gauge / histogram).
#[derive(Default)]
pub struct Exposition {
    families: Vec<Family>,
}

impl Exposition {
    /// The families of `parts`, exposed in order into one list.
    pub fn of(parts: &[&dyn Expose]) -> Exposition {
        let mut out = Exposition::default();
        for part in parts {
            part.expose(&mut out);
        }
        out
    }

    /// Declares a counter with one unlabelled sample.
    pub fn counter(&mut self, name: &'static str, help: &'static str, value: u64) {
        self.labeled_counter(name, help, [(Labels::new(), value)]);
    }

    /// Declares a gauge with one unlabelled sample.
    pub fn gauge(&mut self, name: &'static str, help: &'static str, value: f64) {
        self.labeled_gauge(name, help, [(Labels::new(), value)]);
    }

    /// Declares a counter family with one sample per label set — the
    /// shape the sharded tier uses for per-shard series.
    pub fn labeled_counter(
        &mut self,
        name: &'static str,
        help: &'static str,
        samples: impl IntoIterator<Item = (Labels, u64)>,
    ) {
        let samples = samples.into_iter().map(|(l, v)| (l, Value::Counter(v)));
        self.family(name, help, "counter", samples.collect());
    }

    /// Declares a gauge family with one sample per label set.
    pub fn labeled_gauge(
        &mut self,
        name: &'static str,
        help: &'static str,
        samples: impl IntoIterator<Item = (Labels, f64)>,
    ) {
        let samples = samples.into_iter().map(|(l, v)| (l, Value::Gauge(v)));
        self.family(name, help, "gauge", samples.collect());
    }

    /// Declares a histogram family with one unlabelled sample.
    pub fn histogram(&mut self, name: &'static str, help: &'static str, h: &Histogram) {
        let samples = vec![(Labels::new(), Value::Histogram(Box::new(h.clone())))];
        self.family(name, help, "histogram", samples);
    }

    fn family(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: &'static str,
        samples: Vec<(Labels, Value)>,
    ) {
        self.families.push(Family {
            name,
            help,
            kind,
            samples,
        });
    }

    /// Prometheus text exposition format. A histogram renders one
    /// cumulative `_bucket` line per non-empty octave (plus the mandatory
    /// `+Inf` bucket), then `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let name = f.name;
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                f.help, f.kind
            ));
            for (labels, value) in &f.samples {
                let labels: Vec<String> =
                    labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                match value {
                    Value::Counter(v) => push_sample(&mut out, name, "", &labels, v),
                    Value::Gauge(v) => push_sample(&mut out, name, "", &labels, v),
                    Value::Histogram(h) => {
                        let bucket = |out: &mut String, le: &dyn Display, cum: u64| {
                            let mut labels = labels.clone();
                            labels.push(format!("le=\"{le}\""));
                            push_sample(out, name, "_bucket", &labels, cum);
                        };
                        let mut cum = 0u64;
                        for (b, &c) in h.bucket_counts().iter().enumerate().take(BUCKETS - 1) {
                            cum += c;
                            if c > 0 {
                                bucket(&mut out, &bucket_upper_bound(b), cum);
                            }
                        }
                        bucket(&mut out, &"+Inf", h.count());
                        push_sample(&mut out, name, "_sum", &labels, h.sum());
                        push_sample(&mut out, name, "_count", &labels, h.count());
                    }
                }
            }
        }
        out
    }

    /// The same families as one JSON object keyed by series name: a
    /// family with a single unlabelled sample is that sample's value (a
    /// number, or the [`Histogram`] object with count/sum/min/max/mean,
    /// headline percentiles and the non-empty buckets); a labelled family
    /// is an array of `{"<label>": "<value>", …, "value": …}` objects.
    /// Non-finite gauges render as `null`.
    pub fn to_json(&self) -> String {
        let mut families = Vec::new();
        for f in &self.families {
            let mut samples = Vec::new();
            for (labels, value) in &f.samples {
                let value = match value {
                    Value::Counter(v) => v.to_string(),
                    Value::Gauge(v) if v.is_finite() => v.to_string(),
                    Value::Gauge(_) => "null".to_string(),
                    Value::Histogram(h) => json_histogram(h),
                };
                let labels: String = labels
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": \"{v}\", "))
                    .collect();
                samples.push(if labels.is_empty() {
                    value
                } else {
                    format!("{{{labels}\"value\": {value}}}")
                });
            }
            let unlabelled = matches!(f.samples.as_slice(), [(l, _)] if l.is_empty());
            families.push(if unlabelled {
                format!("\"{}\": {}", f.name, samples[0])
            } else {
                format!("\"{}\": [{}]", f.name, samples.join(", "))
            });
        }
        format!("{{{}}}", families.join(", "))
    }
}

/// One sample line: `name{labels} value`, or `name value` without labels.
fn push_sample(out: &mut String, name: &str, suffix: &str, labels: &[String], value: impl Display) {
    let labels = match labels {
        [] => String::new(),
        _ => format!("{{{}}}", labels.join(",")),
    };
    writeln!(out, "{name}{suffix}{labels} {value}").expect("writing to a String cannot fail");
}

/// A [`Histogram`] as a JSON object with count/sum/min/max/mean,
/// headline percentiles, and the non-empty buckets.
fn json_histogram(h: &Histogram) -> String {
    let mut buckets = String::new();
    for (b, &c) in h.bucket_counts().iter().enumerate() {
        if c > 0 {
            if !buckets.is_empty() {
                buckets.push_str(", ");
            }
            buckets.push_str(&format!(
                "{{\"le\": {}, \"count\": {c}}}",
                bucket_upper_bound(b)
            ));
        }
    }
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \
         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [{buckets}]}}",
        h.count(),
        h.sum(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.mean(),
        h.percentile(0.50),
        h.percentile(0.95),
        h.percentile(0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal line-format check: every non-comment line is
    /// `name{labels} value` or `name value`, HELP/TYPE precede samples,
    /// and bucket counts are cumulative and end with `+Inf == count`.
    fn assert_prometheus_parses(text: &str) {
        let mut saw_type = false;
        for line in text.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                saw_type |= line.starts_with("# TYPE ");
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment: {line}");
            let (name_part, value) = line.rsplit_once(' ').expect("sample needs a value");
            assert!(!name_part.is_empty());
            if let Some(open) = name_part.find('{') {
                assert!(name_part.ends_with('}'), "unclosed labels: {line}");
                let labels = &name_part[open + 1..name_part.len() - 1];
                for kv in labels.split(',') {
                    let (k, v) = kv.split_once('=').expect("label needs =");
                    assert!(!k.is_empty());
                    assert!(v.starts_with('"') && v.ends_with('"'), "unquoted: {line}");
                }
            }
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value: {line}"
            );
        }
        assert!(saw_type, "no TYPE line");
    }

    #[test]
    fn counter_and_gauge_parse() {
        let mut e = Exposition::default();
        e.counter("weavess_queries_total", "Queries.", 42);
        e.gauge("weavess_up", "Up.", 1.0);
        let text = e.to_prometheus();
        assert_prometheus_parses(&text);
        assert_eq!(
            text,
            "# HELP weavess_queries_total Queries.\n# TYPE weavess_queries_total counter\n\
             weavess_queries_total 42\n\
             # HELP weavess_up Up.\n# TYPE weavess_up gauge\nweavess_up 1\n"
        );
        assert_eq!(
            e.to_json(),
            "{\"weavess_queries_total\": 42, \"weavess_up\": 1}"
        );
    }

    #[test]
    fn labeled_families_render_one_series_per_label_set() {
        let mut e = Exposition::default();
        let shard = |s: u32| vec![("shard", s.to_string())];
        e.labeled_counter(
            "weavess_shard_queries_total",
            "Queries per shard.",
            [(shard(0), 3), (shard(1), 4)],
        );
        e.labeled_gauge(
            "weavess_info",
            "Identity.",
            [(
                vec![("a", "x".to_string()), ("b", "y".to_string())],
                f64::INFINITY,
            )],
        );
        let text = e.to_prometheus();
        assert_prometheus_parses(&text);
        assert!(text.contains("weavess_shard_queries_total{shard=\"0\"} 3\n"));
        assert!(text.contains("weavess_shard_queries_total{shard=\"1\"} 4\n"));
        assert!(text.contains("weavess_info{a=\"x\",b=\"y\"} inf\n"));
        assert_eq!(
            e.to_json(),
            "{\"weavess_shard_queries_total\": [{\"shard\": \"0\", \"value\": 3}, \
             {\"shard\": \"1\", \"value\": 4}], \
             \"weavess_info\": [{\"a\": \"x\", \"b\": \"y\", \"value\": null}]}"
        );
    }

    #[test]
    fn histogram_parses_and_is_cumulative() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 100, 5000] {
            h.record(v);
        }
        let mut e = Exposition::default();
        e.histogram("weavess_ndc", "NDC per query.", &h);
        let text = e.to_prometheus();
        assert_prometheus_parses(&text);
        // Cumulative buckets: last finite bucket <= +Inf == count.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("weavess_ndc_bucket{le=\"") {
                let (le, v) = rest.split_once("\"} ").unwrap();
                let v: u64 = v.parse().unwrap();
                if le == "+Inf" {
                    assert_eq!(v, h.count());
                } else {
                    assert!(v >= last, "not cumulative: {line}");
                    last = v;
                }
            }
        }
        assert!(text.contains("weavess_ndc_sum 5105\n"));
        assert!(text.contains("weavess_ndc_count 5\n"));
    }

    #[test]
    fn json_histogram_carries_percentiles() {
        let mut h = Histogram::new();
        h.record(10);
        let mut e = Exposition::default();
        e.histogram("weavess_ndc", "NDC per query.", &h);
        let j = e.to_json();
        assert!(j.starts_with("{\"weavess_ndc\": {\"count\": 1"));
        assert!(j.contains("\"p50\": 10"));
        assert!(j.contains("\"le\": 15"));
    }
}
