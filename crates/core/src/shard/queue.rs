//! The admission queue: coalesces in-flight single queries into engine
//! batches under a latency budget.
//!
//! Streaming traffic arrives one query at a time, but both engines are at
//! their best answering batches (one scatter, one gather and one scratch
//! checkout per worker serve every query in the batch).
//! [`BatchQueue::submit`] blocks the caller until its
//! answer is ready; internally, concurrent submitters coalesce by a
//! leader–follower protocol:
//!
//! - the first submitter into an empty queue becomes the **leader** and
//!   closes the batch the moment the lane is free. The lane is held by a
//!   batch closed by this queue that spread over other cores — one for
//!   which [`BatchExecutor::occupies_lane`] said so — until its executor
//!   call returns. Only while one does, the leader waits: for that batch
//!   to return, for the forming batch to reach
//!   [`QueueOptions::max_batch`] queries, or for the
//!   [`QueueOptions::max_delay`] budget (the upper bound on the wait,
//!   measured from the forming batch's oldest enqueue) to lapse,
//!   whichever comes first. Idle traffic is dispatched on arrival; a
//!   batch the executor runs on its leader's thread alone leaves the
//!   other cores free and takes no lane, so the next arrival closes and
//!   runs at once on *its* thread; behind a batch that fanned out,
//!   arrivals coalesce for exactly as long as it runs;
//! - the leader then closes the batch, releases leadership (so a next
//!   batch can form, and a full, overdue or lane-free one even execute
//!   concurrently, while this one runs), executes the batch through the
//!   engine, and publishes per-ticket results;
//! - followers wake on publication and collect their own ticket. If the
//!   executor panicked, the leader publishes the batch's tickets as
//!   failed before unwinding, so each follower unwinds too instead of
//!   sleeping forever, and the queue keeps serving.
//!
//! A queue built [`with_flights`](BatchQueue::with_flights) measures each
//! query's admission wait (enqueue → close) once, when the batch closes,
//! and hands the waits to the executor beside the recorder,
//! index-aligned with the batch; the same values feed
//! [`QueueStats::queue_delay_ns`]. A wait reaches its flight as data
//! passed down the call, never as state kept elsewhere.
//!
//! Queries enter the closed batch in submission order, and results are
//! keyed by ticket, so every caller gets exactly its own query's answer.
//! Coalescing never changes results: both engines answer each query
//! independently of its batch (per-query RNG reseeding), so a query
//! returns bit-identical neighbors whether it rode alone through an idle
//! queue or inside a full batch — the property the queue tests assert.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use super::engine::ShardedEngine;
use crate::serve::QueryEngine;
use crate::telemetry::expose::{Expose, Exposition};
use crate::telemetry::flight::FlightRecorder;
use crate::telemetry::Histogram;
use weavess_data::{Dataset, Neighbor};

/// Anything the queue can execute a coalesced batch against.
pub trait BatchExecutor: Sync {
    /// Query dimensionality the executor expects.
    fn dim(&self) -> usize;
    /// Answers `queries`, one result pool per query, in input order.
    /// `flights` is the queue's flight recorder, when it has one, with
    /// each query's admission wait (enqueue → batch close, nanoseconds)
    /// index-aligned with `queries`: an executor that records per-query
    /// flights pushes them there, leading each sampled one with its wait;
    /// any other ignores both. Results must not depend on them.
    fn execute(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        flights: Option<(&FlightRecorder, &[u64])>,
    ) -> Vec<Vec<Neighbor>>;
    /// Whether executing an `nq`-query batch spreads over other cores, so
    /// that the queue should hold arrivals back (to coalesce) while it
    /// runs. An executor that answers `false` runs the batch on the
    /// calling thread alone; a next batch may then execute concurrently,
    /// on its own leader's thread. A prediction, asked at close under the
    /// queue's lock (so it must neither block nor panic): results never
    /// depend on it.
    fn occupies_lane(&self, _nq: usize) -> bool {
        true
    }
}

impl BatchExecutor for QueryEngine<'_> {
    fn dim(&self) -> usize {
        self.dataset().dim()
    }

    fn execute(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        flights: Option<(&FlightRecorder, &[u64])>,
    ) -> Vec<Vec<Neighbor>> {
        self.search_batch_recorded(queries, k, beam, flights)
            .results
    }

    fn occupies_lane(&self, nq: usize) -> bool {
        self.fans_out(nq)
    }
}

impl BatchExecutor for ShardedEngine<'_> {
    fn dim(&self) -> usize {
        self.shard_set().dim()
    }

    fn execute(
        &self,
        queries: &Dataset,
        k: usize,
        beam: usize,
        flights: Option<(&FlightRecorder, &[u64])>,
    ) -> Vec<Vec<Neighbor>> {
        self.search_batch_obs(queries, k, beam, flights).results
    }

    fn occupies_lane(&self, nq: usize) -> bool {
        self.fans_out(nq)
    }
}

/// Tuning knobs for a [`BatchQueue`].
#[derive(Debug, Clone)]
pub struct QueueOptions {
    /// Close a batch as soon as it holds this many queries.
    pub max_batch: usize,
    /// Upper bound on the wait while a batch holds the lane: a forming
    /// batch closes this long after its oldest query arrived even if the
    /// batch ahead of it has not returned. An idle queue never waits it
    /// out — with the lane free a batch closes at once.
    pub max_delay: Duration,
    /// Neighbors per query.
    pub k: usize,
    /// Candidate-set size per query.
    pub beam: usize,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions {
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            k: 10,
            beam: 64,
        }
    }
}

/// Cumulative queue accounting.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Batches executed.
    pub batches_total: u64,
    /// Queries admitted.
    pub queries_total: u64,
    /// Distribution of closed-batch sizes.
    pub batch_size: Histogram,
    /// Per-query admission delay (enqueue → batch close), nanoseconds.
    pub queue_delay_ns: Histogram,
}

/// A point-in-time queue view: the cumulative [`QueueStats`] plus the
/// instantaneous depth gauge — the unit
/// [`FleetReport`](crate::shard::FleetReport) exposes on the
/// Prometheus/JSON surface.
#[derive(Debug, Clone, Default)]
pub struct QueueSnapshot {
    /// Cumulative accounting at snapshot time.
    pub stats: QueueStats,
    /// Queries pending admission right now.
    pub depth: usize,
}

impl Expose for QueueSnapshot {
    fn expose(&self, out: &mut Exposition) {
        out.counter(
            "weavess_queue_batches_total",
            "Coalesced batches executed by the admission queue.",
            self.stats.batches_total,
        );
        out.counter(
            "weavess_queue_queries_total",
            "Queries admitted through the queue.",
            self.stats.queries_total,
        );
        out.gauge(
            "weavess_queue_depth",
            "Queries pending admission right now.",
            self.depth as f64,
        );
        out.histogram(
            "weavess_queue_batch_size",
            "Closed-batch sizes.",
            &self.stats.batch_size,
        );
        out.histogram(
            "weavess_queue_wait_nanoseconds",
            "Per-query admission delay (enqueue to batch close) in nanoseconds.",
            &self.stats.queue_delay_ns,
        );
    }
}

struct PendingQuery {
    ticket: u64,
    query: Vec<f32>,
    enqueued: Instant,
}

#[derive(Default)]
struct QueueInner {
    pending: Vec<PendingQuery>,
    /// Answered tickets awaiting collection; `None` marks a ticket whose
    /// batch the executor panicked on.
    done: HashMap<u64, Option<Vec<Neighbor>>>,
    next_ticket: u64,
    has_leader: bool,
    /// Batches closed by this queue that occupy the lane (see
    /// [`BatchExecutor::occupies_lane`]) and whose executor call has
    /// neither returned nor unwound yet.
    in_flight: usize,
    stats: QueueStats,
}

/// A blocking admission/batching queue in front of a [`BatchExecutor`].
pub struct BatchQueue<'a, E: BatchExecutor + ?Sized> {
    exec: &'a E,
    opts: QueueOptions,
    inner: Mutex<QueueInner>,
    cv: Condvar,
    flights: Option<&'a FlightRecorder>,
}

impl<'a, E: BatchExecutor + ?Sized> BatchQueue<'a, E> {
    /// A queue over `exec` with the given knobs.
    pub fn new(exec: &'a E, opts: QueueOptions) -> Self {
        assert!(opts.max_batch > 0, "max_batch must be positive");
        BatchQueue {
            exec,
            opts,
            inner: Mutex::new(QueueInner::default()),
            cv: Condvar::new(),
            flights: None,
        }
    }

    /// A queue that records per-query flights: `rec` is handed to
    /// [`BatchExecutor::execute`] with every batch, beside the batch's
    /// admission waits (each sampled query's surfaces as a
    /// [`Stage::QueueWait`](crate::telemetry::Stage) span on its flight).
    pub fn with_flights(exec: &'a E, opts: QueueOptions, rec: &'a FlightRecorder) -> Self {
        let mut q = Self::new(exec, opts);
        q.flights = Some(rec);
        q
    }

    /// The queue's knobs.
    pub fn options(&self) -> &QueueOptions {
        &self.opts
    }

    /// A copy of the cumulative queue accounting.
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().unwrap().stats.clone()
    }

    /// Queries pending admission right now (the queue-depth gauge).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().pending.len()
    }

    /// Stats plus the instantaneous depth, read under one lock.
    pub fn snapshot(&self) -> QueueSnapshot {
        let g = self.inner.lock().unwrap();
        QueueSnapshot {
            stats: g.stats.clone(),
            depth: g.pending.len(),
        }
    }

    /// Submits one query and blocks until its batch has been answered.
    /// Results are identical to the executor answering the query alone.
    ///
    /// # Panics
    /// Panics on a query dimensionality mismatch, and when the executor
    /// panicked on the batch this query rode in (the leader re-raises the
    /// executor's own payload).
    pub fn submit(&self, query: &[f32]) -> Vec<Neighbor> {
        let dim = self.exec.dim();
        assert_eq!(query.len(), dim, "query dimensionality mismatch");
        let mut g = self.inner.lock().unwrap();
        let ticket = g.next_ticket;
        g.next_ticket += 1;
        g.pending.push(PendingQuery {
            ticket,
            query: query.to_vec(),
            enqueued: Instant::now(),
        });
        // A sleeping leader may now be able to close a full batch.
        self.cv.notify_all();

        loop {
            match g.done.remove(&ticket) {
                Some(Some(res)) => return res,
                Some(None) => {
                    // Unlock first: unwinding through the guard would
                    // poison the queue for every later submit.
                    drop(g);
                    panic!("the batch executor panicked on this query's batch");
                }
                None => {}
            }
            // Tickets are issued in order and a close takes all of
            // `pending`, so ours is still there iff the oldest is no newer.
            let still_pending = g.pending.first().is_some_and(|p| p.ticket <= ticket);
            if still_pending && !g.has_leader {
                // Lead the batch currently forming: wait only while a
                // batch holds the lane (its return is published by the
                // `notify_all` below), and then no longer than the budget.
                g.has_leader = true;
                let deadline = g.pending[0].enqueued + self.opts.max_delay;
                while g.in_flight > 0 && g.pending.len() < self.opts.max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    g = self.cv.wait_timeout(g, deadline - now).unwrap().0;
                }
                // Close the batch in submission order and hand leadership
                // back before executing, so the next batch forms (and may
                // run) while this one is in flight.
                let mut batch = std::mem::take(&mut g.pending);
                g.has_leader = false;
                let holds_lane = self.exec.occupies_lane(batch.len());
                g.in_flight += usize::from(holds_lane);
                self.cv.notify_all();
                drop(g);

                // Each query's admission wait, measured once: the queue's
                // delay histogram and the executor's flights share it.
                let closed_at = Instant::now();
                let waits: Vec<u64> = batch
                    .iter()
                    .map(|p| closed_at.saturating_duration_since(p.enqueued).as_nanos() as u64)
                    .collect();
                // The vectors move out of the tickets: the oldest query's
                // buffer (the leader's own is pending, so there is one)
                // becomes the batch and the riders are appended to it.
                let mut flat = std::mem::take(&mut batch[0].query);
                flat.reserve_exact((batch.len() - 1) * dim);
                for p in &mut batch[1..] {
                    flat.append(&mut p.query);
                }
                let queries = Dataset::from_flat(flat, batch.len(), dim);
                let flights = self.flights.map(|rec| (rec, &waits[..]));
                let results = catch_unwind(AssertUnwindSafe(|| {
                    self.exec
                        .execute(&queries, self.opts.k, self.opts.beam, flights)
                }));

                // Returned or unwound, the lane (if held) is free again;
                // whichever `notify_all` follows tells a waiting leader.
                g = self.inner.lock().unwrap();
                g.in_flight -= usize::from(holds_lane);
                let results = match results {
                    Ok(results) => results,
                    Err(payload) => {
                        // The followers' tickets are in neither `pending`
                        // nor `done`: fail them so they wake and unwind.
                        for p in batch.iter().filter(|p| p.ticket != ticket) {
                            g.done.insert(p.ticket, None);
                        }
                        self.cv.notify_all();
                        drop(g);
                        resume_unwind(payload);
                    }
                };
                debug_assert_eq!(results.len(), batch.len());
                g.stats.batches_total += 1;
                g.stats.queries_total += batch.len() as u64;
                g.stats.batch_size.record(batch.len() as u64);
                for ((p, res), waited) in batch.into_iter().zip(results).zip(waits) {
                    g.stats.queue_delay_ns.record(waited);
                    g.done.insert(p.ticket, Some(res));
                }
                self.cv.notify_all();
                // Loop back: the next pass collects this thread's own
                // ticket from `done`.
            } else {
                // Either a leader is forming our batch or our batch is in
                // flight; sleep until something changes.
                g = self.cv.wait(g).unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::flight::FlightOptions;

    /// A third-party executor: ignores the recorder and the admission
    /// waits handed to it.
    struct Echo;

    impl BatchExecutor for Echo {
        fn dim(&self) -> usize {
            2
        }

        fn execute(
            &self,
            queries: &Dataset,
            _k: usize,
            _beam: usize,
            _rec: Option<(&FlightRecorder, &[u64])>,
        ) -> Vec<Vec<Neighbor>> {
            (0..queries.len() as u32)
                .map(|qi| vec![Neighbor::new(qi, queries.point(qi)[0])])
                .collect()
        }
    }

    #[test]
    fn an_executor_that_ignores_the_recorder_still_serves_and_times_every_query() {
        let rec = FlightRecorder::new(FlightOptions {
            sample_every: 1,
            ..FlightOptions::default()
        });
        let queue = BatchQueue::with_flights(&Echo, QueueOptions::default(), &rec);
        for i in 0..1000 {
            let got = queue.submit(&[i as f32, 0.0]);
            assert_eq!(got[0].dist, i as f32);
        }
        let stats = queue.stats();
        assert_eq!(stats.queries_total, 1000);
        assert_eq!(stats.queue_delay_ns.count(), 1000);
        assert_eq!(rec.recorded_total(), 0, "nothing flies past Echo");
    }
}
