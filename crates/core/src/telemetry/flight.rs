//! Per-query flight recorder: stage-attributed lifecycle spans for the
//! serving tier.
//!
//! A *flight* is one served query's lifecycle — queue admission →
//! scatter → per-shard search → top-k merge — recorded as a small list
//! of [`SpanRec`]s plus the query's deterministic identity (fingerprint,
//! k/beam, result ids). The serving paths carry the recorder as an
//! `Option<&FlightRecorder>` — the same one
//! [`BatchQueue`](crate::shard::BatchQueue) holds, handed to the engine
//! with the batch's admission waits — and branch on it once per query,
//! beside a walk of tens of microseconds; per-hop observation is
//! [`RouteTracer`](crate::telemetry::RouteTracer)'s job, and that one
//! compiles away. The engines only collect per-query parts; one
//! function here lays every flight out from them.
//!
//! # Sampling
//!
//! Two keep rules, both allocation-free on the unsampled path:
//!
//! - **seeded 1-in-N**: a query is sampled iff
//!   `splitmix64(seed ^ fingerprint) % sample_every == 0`. The decision
//!   is a pure function of `(seed, query bytes)` — independent of worker
//!   count, shard count, batch position, and wall clock — so the sampled
//!   set is replayable and byte-stable across runs;
//! - **always-keep-slowest**: each batch's slowest query is offered to
//!   the recorder, which keeps it iff it is slower than every flight
//!   kept so far (a lock-free `fetch_max` high-water mark). Tail
//!   outliers are therefore never lost to sampling, at the cost of the
//!   kept-slowest set being timing-dependent — which is why
//!   [`FlightRecorder::dump_stable`] excludes it.
//!
//! # Storage and export
//!
//! Completed flights land in a bounded ring: `capacity` slots, a
//! lock-free atomic cursor claiming slots round-robin, one tiny mutex
//! per slot for the write itself (never contended with the claim). The
//! ring exports two ways: [`FlightRecorder::chrome_trace_json`] emits
//! Chrome trace-event JSON loadable in `chrome://tracing` / Perfetto,
//! and [`FlightRecorder::dump_stable`] emits a byte-stable text dump of
//! the seed-sampled flights (deterministic fields only) for golden
//! tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::parallel::lock;
use weavess_data::Neighbor;

/// FNV-1a over a query's raw f32 bits: the stable, position-independent
/// per-query identity used for RNG reseeding, flight sampling, and audit
/// sampling. Equal vectors always fingerprint equally.
pub fn query_fingerprint(query: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in query {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// SplitMix64 finalizer: decorrelates the sampling decision from raw
/// fingerprint bits so `% sample_every` is unbiased even for structured
/// query sets.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lifecycle stage a [`SpanRec`] is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Admission-queue wait (enqueue → batch close), from
    /// [`BatchQueue`](crate::shard::BatchQueue).
    QueueWait,
    /// Whole-batch scatter across shards (batch-scoped: every flight in
    /// the batch carries the same scatter duration).
    Scatter,
    /// Inside [`Stage::Scatter`], on a batch that woke a scatter worker:
    /// wake-up call sent → that worker could claim a shard's task
    /// (batch-scoped). Whether a batch wakes one depends on measured
    /// timings, so the span is left out of the stable dump.
    Handoff,
    /// One shard's search of this query (per-query, per-shard).
    ShardSearch,
    /// Global top-k merge of the per-shard pools (per-query).
    Merge,
    /// Unsharded single-engine search (per-query).
    Search,
}

impl Stage {
    /// Stable lowercase name used in dumps and trace events.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Scatter => "scatter",
            Stage::Handoff => "handoff",
            Stage::ShardSearch => "shard_search",
            Stage::Merge => "merge",
            Stage::Search => "search",
        }
    }
}

/// One recorded span within a flight. `start_ns`/`dur_ns` are wall-clock
/// (flight-relative offsets) and therefore excluded from the stable
/// dump; `stage`, `shard`, `ndc`, and `hops` are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Which lifecycle stage this span covers.
    pub stage: Stage,
    /// Shard that executed the span (`None` for unsharded / global
    /// stages).
    pub shard: Option<u32>,
    /// Offset from the flight's start, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
    /// Distance computations attributed to the span (search stages).
    pub ndc: u64,
    /// Expanded vertices attributed to the span (search stages).
    pub hops: u64,
}

/// A completed query flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Flight {
    /// Recorder-global batch sequence number.
    pub batch: u64,
    /// Query index within its batch.
    pub qi: u32,
    /// [`query_fingerprint`] of the query vector.
    pub fingerprint: u64,
    /// Neighbors requested.
    pub k: usize,
    /// Candidate-set size used.
    pub beam: usize,
    /// Result ids, nearest-first (deterministic).
    pub results: Vec<u32>,
    /// `true` when seed-sampled (deterministic set); `false` when kept
    /// only by the slowest-query rule (timing-dependent set).
    pub sampled: bool,
    /// End-to-end duration, nanoseconds.
    pub total_ns: u64,
    /// Stage spans, in lifecycle order.
    pub spans: Vec<SpanRec>,
}

/// Tuning knobs for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightOptions {
    /// Keep 1 in this many queries by the seeded rule (0 disables seeded
    /// sampling; the slowest-query rule still applies).
    pub sample_every: u64,
    /// Ring capacity: completed flights kept before overwrite.
    pub capacity: usize,
    /// Sampling seed; the sampled set is a pure function of
    /// `(seed, query bytes)`.
    pub seed: u64,
}

impl Default for FlightOptions {
    fn default() -> Self {
        FlightOptions {
            sample_every: 64,
            capacity: 256,
            seed: 0xF11C47,
        }
    }
}

/// The bounded ring of completed flights plus the sampling state.
///
/// Shared by reference between the serving engines and the admission
/// queue; every operation on the hot path is lock-free (atomic cursor,
/// atomic high-water mark) except the per-slot store, which takes an
/// uncontended slot mutex after the claim.
pub struct FlightRecorder {
    opts: FlightOptions,
    slots: Vec<Mutex<Option<Flight>>>,
    cursor: AtomicU64,
    batch_seq: AtomicU64,
    slowest_ns: AtomicU64,
    sampled_total: AtomicU64,
    recorded_total: AtomicU64,
}

/// One query's deterministic counters and walk time on one engine (one
/// shard), as collected inside that engine's worker loop. An engine
/// hands the recorder every query's part, in `qi` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryFlightPart {
    /// Query index within the batch.
    pub qi: u32,
    /// [`query_fingerprint`] of the query vector.
    pub fingerprint: u64,
    /// This engine's search latency for the query, nanoseconds.
    pub lat_ns: u64,
    /// Distance computations for the query on this engine.
    pub ndc: u64,
    /// Expanded vertices for the query on this engine.
    pub hops: u64,
}

/// A sharded batch's batch-scoped timings, nanoseconds: the whole
/// scatter, the hand-off inside it when the batch woke a worker, and
/// each query's merge (indexed by `qi`).
pub(crate) struct ScatterTimes<'a> {
    pub scatter_ns: u64,
    pub handoff_ns: Option<u64>,
    pub merge_ns: &'a [u64],
}

impl FlightRecorder {
    /// A recorder with the given knobs.
    pub fn new(opts: FlightOptions) -> Self {
        assert!(opts.capacity > 0, "flight ring needs at least one slot");
        let mut slots = Vec::with_capacity(opts.capacity);
        slots.resize_with(opts.capacity, || Mutex::new(None));
        FlightRecorder {
            opts,
            slots,
            cursor: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
            slowest_ns: AtomicU64::new(0),
            sampled_total: AtomicU64::new(0),
            recorded_total: AtomicU64::new(0),
        }
    }

    /// The recorder's knobs.
    pub fn options(&self) -> &FlightOptions {
        &self.opts
    }

    /// The seeded sampling decision: pure function of
    /// `(self.opts.seed, fingerprint)`, independent of workers, shards,
    /// batch position, and time.
    #[inline]
    pub fn is_sampled(&self, fingerprint: u64) -> bool {
        self.opts.sample_every > 0
            && splitmix64(self.opts.seed ^ fingerprint).is_multiple_of(self.opts.sample_every)
    }

    /// Claims the next batch sequence number.
    pub fn next_batch(&self) -> u64 {
        self.batch_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The always-keep-slowest rule: returns `true` (and raises the
    /// high-water mark) iff `total_ns` beats every flight kept so far.
    pub fn keep_slowest(&self, total_ns: u64) -> bool {
        self.slowest_ns.fetch_max(total_ns, Ordering::Relaxed) < total_ns
    }

    /// Stores a completed flight into the ring (round-robin overwrite).
    pub fn push(&self, flight: Flight) {
        if flight.sampled {
            self.sampled_total.fetch_add(1, Ordering::Relaxed);
        }
        self.recorded_total.fetch_add(1, Ordering::Relaxed);
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *lock(&self.slots[slot]) = Some(flight);
    }

    /// Flights recorded since creation (including those since evicted).
    pub fn recorded_total(&self) -> u64 {
        self.recorded_total.load(Ordering::Relaxed)
    }

    /// Seed-sampled flights recorded since creation.
    pub fn sampled_total(&self) -> u64 {
        self.sampled_total.load(Ordering::Relaxed)
    }

    /// Samples, lays out and pushes one batch's flights — the one place
    /// a [`Flight`] is built. `parts` holds every query's part per shard
    /// (one list for an unsharded engine); `scatter` is `Some` exactly on
    /// the sharded tier. A seed-sampled query flies with every shard's
    /// search and, when the batch came through the admission queue, its
    /// wait `waits[qi]` (`waits` is empty otherwise); the batch's slowest
    /// search, kept only above the high-water mark, flies with that one
    /// shard's search and no wait. Spans start where the wait ends; the
    /// merge, where the scatter ends.
    pub(crate) fn record_batch(
        &self,
        parts: &[Vec<QueryFlightPart>],
        results: &[Vec<Neighbor>],
        k: usize,
        beam: usize,
        waits: &[u64],
        scatter: Option<ScatterTimes<'_>>,
    ) {
        let batch = self.next_batch();
        let timed = |stage, start_ns, dur_ns| SpanRec {
            stage,
            shard: None,
            start_ns,
            dur_ns,
            ndc: 0,
            hops: 0,
        };
        let flight = |searches: &[(u32, QueryFlightPart)], sampled: bool| {
            let lead = searches[0].1;
            let wait = waits.get(lead.qi as usize).copied().filter(|_| sampled);
            let t = wait.unwrap_or(0);
            let mut spans = Vec::with_capacity(searches.len() + 4);
            spans.extend(wait.map(|w| timed(Stage::QueueWait, 0, w)));
            if let Some(sc) = &scatter {
                spans.push(timed(Stage::Scatter, t, sc.scatter_ns));
                spans.extend(sc.handoff_ns.map(|h| timed(Stage::Handoff, t, h)));
            }
            for &(s, p) in searches {
                let (stage, shard) = match scatter {
                    Some(_) => (Stage::ShardSearch, Some(s)),
                    None => (Stage::Search, None),
                };
                spans.push(SpanRec {
                    stage,
                    shard,
                    start_ns: t,
                    dur_ns: p.lat_ns,
                    ndc: p.ndc,
                    hops: p.hops,
                });
            }
            let total_ns = match &scatter {
                Some(sc) => {
                    let m = sc.merge_ns.get(lead.qi as usize).copied().unwrap_or(0);
                    spans.push(timed(Stage::Merge, t + sc.scatter_ns, m));
                    t + sc.scatter_ns + m
                }
                None => t + lead.lat_ns,
            };
            Flight {
                batch,
                qi: lead.qi,
                fingerprint: lead.fingerprint,
                k,
                beam,
                results: results[lead.qi as usize].iter().map(|n| n.id).collect(),
                sampled,
                total_ns,
                spans,
            }
        };
        debug_assert!(parts.iter().all(|p| p.len() == results.len()));
        for (qi, lead) in parts[0].iter().enumerate() {
            if self.is_sampled(lead.fingerprint) {
                let searches: Vec<(u32, QueryFlightPart)> =
                    parts.iter().zip(0..).map(|(p, s)| (s, p[qi])).collect();
                self.push(flight(&searches, true));
            }
        }
        let slowest = (parts.iter().zip(0..))
            .flat_map(|(p, s)| p.iter().map(move |&x| (s, x)))
            .max_by_key(|(_, x)| x.lat_ns);
        if let Some((s, p)) = slowest {
            if !self.is_sampled(p.fingerprint) && self.keep_slowest(p.lat_ns) {
                self.push(flight(&[(s, p)], false));
            }
        }
    }

    /// A snapshot of the ring's current flights, ordered by
    /// `(batch, qi)` so the view is independent of slot assignment.
    pub fn flights(&self) -> Vec<Flight> {
        let mut out: Vec<Flight> = self.slots.iter().filter_map(|s| lock(s).clone()).collect();
        out.sort_by_key(|f| (f.batch, f.qi));
        out
    }

    /// Byte-stable text dump of the *seed-sampled* flights: one line per
    /// flight (deterministic fields only — fingerprint, k/beam, span
    /// stages with shard/NDC/hop attribution, result ids), ordered by
    /// `(batch, qi)`. Slowest-kept flights, [`Stage::Handoff`] spans and
    /// all wall-clock fields are excluded, so for a fixed workload + seed
    /// the dump is identical at any worker count and across repeated runs.
    pub fn dump_stable(&self) -> String {
        let mut out = String::new();
        for f in self.flights().iter().filter(|f| f.sampled) {
            out.push_str(&format!(
                "flight batch={} qi={} fp={:016x} k={} beam={}\n",
                f.batch, f.qi, f.fingerprint, f.k, f.beam
            ));
            for s in f.spans.iter().filter(|s| s.stage != Stage::Handoff) {
                out.push_str(&format!("  span stage={}", s.stage.name()));
                if let Some(shard) = s.shard {
                    out.push_str(&format!(" shard={shard}"));
                }
                if matches!(s.stage, Stage::Search | Stage::ShardSearch) {
                    out.push_str(&format!(" ndc={} hops={}", s.ndc, s.hops));
                }
                out.push('\n');
            }
            let ids: Vec<String> = f.results.iter().map(|id| id.to_string()).collect();
            out.push_str(&format!("  results [{}]\n", ids.join(",")));
        }
        out
    }

    /// The ring as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto format): one complete (`"X"`) event per span, `ts`/`dur`
    /// in microseconds, one `tid` lane per flight, deterministic
    /// attribution in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = String::new();
        for (lane, f) in self.flights().iter().enumerate() {
            for s in &f.spans {
                if !events.is_empty() {
                    events.push_str(",\n");
                }
                let shard = s.shard.map_or("null".to_string(), |x| x.to_string());
                events.push_str(&format!(
                    "{{\"name\": \"{}\", \"cat\": \"flight\", \"ph\": \"X\", \
                     \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \
                     \"args\": {{\"batch\": {}, \"qi\": {}, \"fingerprint\": \"{:016x}\", \
                     \"shard\": {}, \"ndc\": {}, \"hops\": {}, \"sampled\": {}}}}}",
                    s.stage.name(),
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    lane,
                    f.batch,
                    f.qi,
                    f.fingerprint,
                    shard,
                    s.ndc,
                    s.hops,
                    f.sampled,
                ));
            }
        }
        format!("{{\"traceEvents\": [\n{events}\n]}}")
    }
}

/// A minimal JSON value for validating trace exports without a JSON
/// dependency: just enough of the grammar (objects, arrays, strings,
/// numbers, booleans, null) for round-trip tests.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string (escape sequences are decoded for `\"` and `\\` only —
    /// all the exporter emits).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array, when it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed). Returns a
/// descriptive error string on malformed input — used by the Chrome
/// trace round-trip test and any consumer wanting to validate exports
/// in-tree.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut kvs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(kvs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                kvs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(kvs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at {pos}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number '{s}' at {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(&c) => return Err(format!("unsupported escape '\\{}'", c as char)),
                    None => return Err("unterminated escape".into()),
                }
                *pos += 1;
            }
            c => {
                out.push(c as char);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_content_addressed() {
        let q = [1.0f32, -2.5, 3.25];
        assert_eq!(query_fingerprint(&q), query_fingerprint(&q));
        assert_ne!(query_fingerprint(&q), query_fingerprint(&[1.0, -2.5, 3.5]));
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_fingerprint() {
        let rec = FlightRecorder::new(FlightOptions {
            sample_every: 8,
            capacity: 4,
            seed: 42,
        });
        let rec2 = FlightRecorder::new(FlightOptions {
            sample_every: 8,
            capacity: 999,
            seed: 42,
        });
        let mut kept = 0;
        for fp in 0..10_000u64 {
            assert_eq!(rec.is_sampled(fp), rec2.is_sampled(fp));
            if rec.is_sampled(fp) {
                kept += 1;
            }
        }
        // ~1/8 of 10k with slack for hash variance.
        assert!((900..=1600).contains(&kept), "kept={kept}");
        // Different seed, different set.
        let rec3 = FlightRecorder::new(FlightOptions {
            sample_every: 8,
            capacity: 4,
            seed: 43,
        });
        assert!((0..10_000u64).any(|fp| rec.is_sampled(fp) != rec3.is_sampled(fp)));
    }

    #[test]
    fn zero_sample_every_disables_seeded_sampling() {
        let rec = FlightRecorder::new(FlightOptions {
            sample_every: 0,
            capacity: 4,
            seed: 0,
        });
        assert!((0..1000u64).all(|fp| !rec.is_sampled(fp)));
    }

    #[test]
    fn keep_slowest_is_a_high_water_mark() {
        let rec = FlightRecorder::new(FlightOptions::default());
        assert!(rec.keep_slowest(100));
        assert!(!rec.keep_slowest(100));
        assert!(!rec.keep_slowest(50));
        assert!(rec.keep_slowest(200));
    }

    fn flight(batch: u64, qi: u32, sampled: bool) -> Flight {
        Flight {
            batch,
            qi,
            fingerprint: 0xABCD + qi as u64,
            k: 5,
            beam: 32,
            results: vec![qi, qi + 1],
            sampled,
            total_ns: 1000,
            spans: vec![SpanRec {
                stage: Stage::Search,
                shard: None,
                start_ns: 0,
                dur_ns: 1000,
                ndc: 17,
                hops: 4,
            }],
        }
    }

    #[test]
    fn ring_is_bounded_and_overwrites_oldest() {
        let rec = FlightRecorder::new(FlightOptions {
            sample_every: 1,
            capacity: 3,
            seed: 0,
        });
        for qi in 0..5u32 {
            rec.push(flight(0, qi, true));
        }
        let kept = rec.flights();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept.iter().map(|f| f.qi).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(rec.recorded_total(), 5);
    }

    #[test]
    fn stable_dump_excludes_slowest_kept_and_timing() {
        let rec = FlightRecorder::new(FlightOptions::default());
        rec.push(flight(0, 0, true));
        rec.push(flight(0, 1, false));
        let dump = rec.dump_stable();
        assert!(dump.contains("qi=0"));
        assert!(!dump.contains("qi=1"));
        assert!(!dump.contains("ns"));
        assert!(dump.contains("ndc=17 hops=4"));
        assert!(dump.contains("results [0,1]"));
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let rec = FlightRecorder::new(FlightOptions::default());
        rec.push(flight(0, 0, true));
        rec.push(flight(0, 3, false));
        let doc = parse_json(&rec.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert_eq!(e.get("name").unwrap().as_str(), Some("search"));
            assert!(e.get("ts").unwrap().as_num().is_some());
            assert!(e.get("dur").unwrap().as_num().is_some());
            let args = e.get("args").unwrap();
            assert_eq!(args.get("ndc").unwrap().as_num(), Some(17.0));
        }
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{\"a\":1} x",
            "\"unterminated",
        ] {
            assert!(parse_json(bad).is_err(), "accepted: {bad}");
        }
        // And accepts the shapes the exporters emit.
        assert!(parse_json("{\"a\": [1, -2.5e3, null, true, \"s\"]}").is_ok());
    }
}
