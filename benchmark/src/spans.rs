//! The harness's own span recorder.
//!
//! Every call the harness makes into a library layer is wrapped in a span
//! (`name, start_ns, end_ns, parent, request_id`); spans of one request
//! share its id. Spans live in memory and are written as Chrome
//! trace-event JSON when the run ends. Spans *inside* the library are a
//! later change — these are recorded from outside, around public calls.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `walk.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for set-up work).
    pub request_id: u64,
    /// Recording thread, one trace lane each.
    pub tid: u32,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus the part children cover).
    pub self_ns: u64,
}

/// A single-threaded span recorder; threads record into their own and
/// [`SpanRecorder::absorb`] joins them.
pub struct SpanRecorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder whose clock starts at `epoch`, recording lane `tid`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        SpanRecorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant this recorder's clock started; threads that record
    /// into their own recorder share it so lanes line up.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn open(&mut self, name: &'static str, request_id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id,
            tid: self.tid,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Opens the two spans of one request: `request` and, under it, the
    /// layer call `name` it makes.
    pub fn open_request(&mut self, name: &'static str, request_id: u64) -> (usize, usize) {
        let outer = self.open("request", request_id);
        (outer, self.open(name, request_id))
    }

    /// Closes what [`Self::open_request`] opened.
    pub fn close_request(&mut self, (outer, inner): (usize, usize)) {
        self.close(inner);
        self.close(outer);
    }

    /// Runs `f` inside a span.
    pub fn within<R>(&mut self, name: &'static str, request_id: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request_id);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval (used for stages whose times
    /// come from a library read-out, such as `BuildProfile` spans).
    pub fn push_measured(
        &mut self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            request_id: 0,
            tid: self.tid,
        });
        self.spans.len() - 1
    }

    /// Moves another thread's spans into this recorder, keeping their
    /// parent links.
    pub fn absorb(&mut self, other: SpanRecorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"X"`) event per span, `ts`/`dur` in microseconds. At
    /// most `max_events` spans are written, earliest first, so a long run
    /// stays loadable; totals always use every span. Each event carries
    /// its self time (`args.self_us`).
    pub fn chrome_trace_json(&self, max_events: usize) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().take(max_events).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"harness\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \"args\": {{\"span\": {i}, \
                 \"parent\": {parent}, \"request_id\": {}, \"self_us\": {:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.request_id,
                selfs[i] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap one another (two
/// shards searched concurrently) and may stick out of the parent; covered
/// time is the measure of the union of the children clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two shard walks run concurrently: [10, 60) and [40, 90) cover
        // [10, 90) = 80 ns, not 100.
        let spans = vec![
            span("scatter", 0, 100, None),
            span("shard", 10, 60, Some(0)),
            span("shard", 40, 90, Some(0)),
            span("shard", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 400, Some(0)),
            span("outside", 300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = vec![
            span("request", 0, 100, None),
            span("queue.submit", 10, 90, Some(0)),
            span("inner", 20, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 20]);
        let t = totals(&spans);
        assert_eq!(
            t["request"].self_ns + t["queue.submit"].self_ns + t["inner"].self_ns,
            100
        );
    }

    #[test]
    fn recorder_links_parents_and_survives_absorb() {
        let epoch = Instant::now();
        let mut a = SpanRecorder::new(epoch, 0);
        a.within("request", 7, || {});
        let mut b = SpanRecorder::new(epoch, 1);
        let outer = b.open("request", 8);
        b.within("walk.search", 8, || {});
        b.close(outer);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].tid, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = a.chrome_trace_json(2);
        let doc = weavess_core::telemetry::flight::parse_json(&json).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
