//! The workspace's one fork-join runtime: deterministic maps over
//! fixed-size work chunks, combined in chunk order, on a standing
//! [`WorkerPool`].
//!
//! Every parallel phase of every builder, the data crate's scans and the
//! generator route through here, and all of them share one invariant:
//! **results are a pure function of the input, never of the thread
//! count**. Two rules enforce it:
//!
//! 1. **Fixed chunk sizes.** Work is cut into chunks of a constant size,
//!    not `n.div_ceil(threads)` — so the partition of work units is
//!    identical whether 1 or 64 workers pull from the queue.
//! 2. **In-order combination.** Each chunk's result lands in a slot keyed
//!    by its chunk index; callers see results in chunk order regardless of
//!    which worker finished first.
//!
//! Workers pull chunks from a shared atomic counter, so a slow chunk
//! never stalls the rest of the queue. Each worker builds its state once
//! (for search-based builders: a reusable search scratch) and carries it
//! across every chunk it processes.
//!
//! The third piece is [`prefix_doubling`], the batch schedule ParlayANN
//! uses to parallelize *incremental* constructions (HNSW/NSW): insert
//! points in rounds of doubling size, where every point in a round
//! searches the frozen graph of all prior rounds.
//!
//! [`WorkerPool`] is the only thing in the workspace's library code that
//! starts a thread: parked `'static` threads beside a calling thread that
//! works too. Construction runs on one process-wide pool ([`par_fill`]);
//! each serving engine keeps its own, which wakes a
//! thread only when the pool's measured hand-off latency says it would
//! arrive in time to take a task off the caller.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// Locks `m`, ignoring poisoning: no task runs under a lock in the
/// workspace, so a panicking task never leaves the guarded state half
/// updated.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default work-unit size for per-point construction loops. Small enough
/// to load-balance skewed work (beam searches vary), large enough that the
/// queue counter is not contended.
pub const CHUNK: usize = 256;

/// Cap on auto-detected construction threads — beyond this, queue and
/// allocator contention eat the gains at harness scales.
const MAX_AUTO_THREADS: usize = 16;

/// The most threads one [`par_fill`] runs on: the build pool's helpers
/// plus the caller. At least [`MAX_AUTO_THREADS`], so an explicit request
/// up to 16 gets that many threads even on one core.
fn max_build_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .max(MAX_AUTO_THREADS)
}

/// The process-wide pool construction runs on. A helper starts when a
/// caller first asks for that many threads and is never stopped; the wake
/// rule is the eager one, since no caller states a cost.
pub(crate) fn build_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(max_build_threads() - 1))
}

/// Resolves a requested construction thread count: `0` means "one per
/// available core" (capped at 16), any other value is taken as-is. The
/// phases run on the build pool, so a request above max(cores, 16) runs
/// on at most that many threads.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(MAX_AUTO_THREADS)
    }
}

/// Maps fixed-size chunks of `0..n` through `f` on up to `threads`
/// workers; returns one result per chunk, **in chunk order**.
///
/// `init` builds each worker's reusable state (scratch buffers, stats)
/// once; `f` receives that state and the chunk's index range. Because the
/// chunk partition is fixed and results are slotted by chunk index, the
/// output is identical for any thread count — workers only decide *who*
/// computes a chunk, never *what* a chunk is.
pub fn par_chunks_map<R, S, I, F>(n: usize, chunk: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) -> R + Sync,
{
    // The index range is [`par_fill`]'s chunk of a zero-sized slice.
    par_fill(
        &mut vec![(); n],
        chunk,
        threads,
        init,
        |state, start, slot| f(state, start..start + slot.len()),
    )
}

/// Hands `out` to `f` in place by fixed-size chunks — `f(state, start,
/// slot)` owns `slot = out[start..start+slot.len()]` — and returns what
/// each call produced, **in chunk order**. Same determinism contract as
/// [`par_chunks_map`]; used where each work unit owns a disjoint output
/// range (per-point neighbor lists) and, through the return value, where
/// it also emits something for other ranges (staged offers).
///
/// The calling thread and up to `threads − 1` build-pool helpers claim
/// the chunks; `threads` above max(cores, 16) runs on that many. A chunk
/// that panics re-raises its own payload here once every other claimed
/// chunk has finished.
pub fn par_fill<T, R, S, I, F>(out: &mut [T], chunk: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) -> R + Sync,
{
    let chunk = chunk.max(1);
    // Each chunk's mutable slice goes out through a one-shot slot and its
    // result comes back through another, keyed by chunk index; the slices
    // are disjoint so workers never alias.
    let work: Vec<Mutex<Option<&mut [T]>>> =
        out.chunks_mut(chunk).map(|s| Mutex::new(Some(s))).collect();
    let done: Vec<Mutex<Option<R>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(work.len()).clamp(1, max_build_threads());
    build_pool().run(workers, |_| {
        let mut state = init();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= work.len() {
                break;
            }
            let slot = lock(&work[c]).take().expect("chunk taken twice");
            let value = f(&mut state, c * chunk, slot);
            *lock(&done[c]) = Some(value);
        }
    });
    done.into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("chunk not processed")
        })
        .collect()
}

/// Stands for "not measured" wherever a hand-off latency sits in an
/// atomic; real samples saturate one below it.
const HANDOFF_UNKNOWN: u64 = u64::MAX;

/// Samples the hand-off estimate is the median of, and how many must
/// have been taken before there is one.
const HANDOFF_WINDOW: usize = 8;

fn known(handoff_ns: u64) -> Option<u64> {
    (handoff_ns != HANDOFF_UNKNOWN).then_some(handoff_ns)
}

/// How many parked helpers a job of `n_tasks` wakes: one for every task
/// the caller, working alone, would not have reached by the time a helper
/// could — `n_tasks − 1 − ⌊h / c⌋` for a hand-off latency `h` and a
/// per-task cost `c`, held between 0 and `parked`. With either unknown
/// the caller is credited no head start, which is the eager
/// `min(parked, n_tasks − 1)`. A free hand-off (`h = 0`) is eager too,
/// whatever the tasks cost; free tasks (`c = 0`) behind a hand-off that
/// costs anything wake nobody.
fn wake_count(
    n_tasks: usize,
    parked: usize,
    handoff_ns: Option<u64>,
    task_cost_ns: Option<u64>,
) -> usize {
    let head_start = match (handoff_ns, task_cost_ns) {
        (Some(h), Some(c)) if h > 0 => h.checked_div(c).unwrap_or(u64::MAX),
        _ => 0,
    };
    let head_start = usize::try_from(head_start).unwrap_or(usize::MAX);
    parked.min(n_tasks.saturating_sub(1).saturating_sub(head_start))
}

/// The pool's running estimate of its own hand-off latency: wake-up call
/// sent → a woken helper holds the pool's lock and can claim.
struct Handoff {
    /// Median of `window`, nanoseconds, or [`HANDOFF_UNKNOWN`].
    /// `Relaxed`: a statistic, it publishes nothing else.
    estimate_ns: AtomicU64,
    window: Mutex<HandoffWindow>,
}

#[derive(Default)]
struct HandoffWindow {
    recent: [u64; HANDOFF_WINDOW],
    /// Samples taken so far; the ring holds the last `HANDOFF_WINDOW`.
    taken: usize,
    /// Set by [`WorkerPool::pin_handoff_ns`]: samples no longer count.
    pinned: bool,
}

impl Default for Handoff {
    fn default() -> Self {
        Handoff {
            estimate_ns: AtomicU64::new(HANDOFF_UNKNOWN),
            window: Mutex::default(),
        }
    }
}

impl Handoff {
    fn estimate(&self) -> Option<u64> {
        known(self.estimate_ns.load(Ordering::Relaxed))
    }

    fn record(&self, ns: u64) {
        let mut w = lock(&self.window);
        if w.pinned {
            return;
        }
        let at = w.taken % HANDOFF_WINDOW;
        w.recent[at] = ns.min(HANDOFF_UNKNOWN - 1);
        w.taken += 1;
        // No estimate from a partly filled window: a job the estimate
        // keeps inline takes no sample, so one stall among the first few
        // wake-ups would otherwise be believed for good.
        if w.taken >= HANDOFF_WINDOW {
            let mut sorted = w.recent;
            sorted.sort_unstable();
            self.estimate_ns
                .store(sorted[HANDOFF_WINDOW / 2], Ordering::Relaxed);
        }
    }

    fn pin(&self, ns: u64) {
        lock(&self.window).pinned = true;
        self.estimate_ns
            .store(ns.min(HANDOFF_UNKNOWN - 1), Ordering::Relaxed);
    }
}

/// One [`WorkerPool::run`] call: the task cursor the caller and the
/// workers claim from, and what the caller waits on.
struct Job {
    /// The caller's closure with its lifetime erased; see the `SAFETY`
    /// contract in [`WorkerPool::run_with_cost`]. Read only after claiming
    /// a task.
    task: &'static (dyn Fn(usize) + Sync),
    n_tasks: usize,
    /// Next unclaimed task. `Relaxed`: a claim publishes nothing — the
    /// job itself reaches a worker through the pool's state lock.
    next: AtomicUsize,
    /// Claimed-or-unclaimed tasks not yet finished. Every finisher
    /// decrements with `Release` and the caller reads 0 with `Acquire`,
    /// so everything the tasks wrote is visible once `run` returns.
    unfinished: AtomicUsize,
    /// Panic payloads of the tasks, first first. Kept rather than
    /// dropped so that no payload's destructor runs inside `work`.
    panics: Mutex<Vec<Box<dyn Any + Send>>>,
    /// The thread blocked in `run`, unparked by whichever worker
    /// finishes the last task.
    caller: Thread,
    /// Parked helpers this job's publication woke.
    woken: usize,
    /// The hand-off a woken helper measured on reaching this job, or
    /// [`HANDOFF_UNKNOWN`]. `Relaxed`: read by the caller for a flight
    /// span, after the `Acquire` load of `unfinished`.
    handoff_ns: AtomicU64,
}

impl Job {
    /// Claims and executes tasks until the cursor is exhausted.
    fn work(&self, is_caller: bool) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                lock(&self.panics).push(payload);
            }
            if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 && !is_caller {
                self.caller.unpark();
            }
        }
    }
}

#[derive(Default)]
struct PoolState {
    /// Jobs that may still hold unclaimed tasks, oldest first.
    jobs: VecDeque<Arc<Job>>,
    /// Workers asleep on `wake` (so `run` pays no wake-up call when
    /// every worker is busy).
    parked: usize,
    shutdown: bool,
    /// When the latest wake-up call was decided; taken by the first
    /// helper it rouses, whose clock reading then is one hand-off sample
    /// — whether or not the job is still there, so a hand-off longer
    /// than the job it was paid for is measured like any other.
    wake_sent: Option<Instant>,
    /// The workers started so far, joined on drop.
    handles: Vec<JoinHandle<()>>,
}

impl PoolState {
    fn retire(&mut self, job: &Arc<Job>) {
        self.jobs.retain(|j| !Arc::ptr_eq(j, job));
    }
}

#[derive(Default)]
struct PoolShared {
    /// No task runs under this lock and every update is a single queue
    /// operation, so a guard is valid even after a poisoning panic.
    state: Mutex<PoolState>,
    wake: Condvar,
    handoff: Handoff,
    /// Jobs published that woke nobody / somebody. `Relaxed` statistics.
    jobs_inline: AtomicU64,
    jobs_fanned_out: AtomicU64,
}

impl PoolShared {
    fn worker_loop(&self) {
        let mut state = lock(&self.state);
        // A hand-off this worker measured on waking, until it is noted on
        // the job it was paid for.
        let mut measured: Option<u64> = None;
        loop {
            if let Some(job) = state.jobs.front().cloned() {
                drop(state);
                if let Some(ns) = measured.take().filter(|_| job.woken > 0) {
                    // Only the first arrival's: the span reads "how long
                    // until a second thread was working on this batch".
                    let _ = job.handoff_ns.compare_exchange(
                        HANDOFF_UNKNOWN,
                        ns,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
                job.work(false);
                state = lock(&self.state);
                state.retire(&job);
            } else if state.shutdown {
                return;
            } else {
                state.parked += 1;
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
                measured = state
                    .wake_sent
                    .take()
                    .map(|sent| u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                if let Some(ns) = measured {
                    self.handoff.record(ns);
                }
            }
        }
    }
}

/// A point-in-time copy of one pool's hand-off accounting, or of several
/// pools' folded together (a fleet's: the job counts add, the hand-off is
/// the largest known).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// The current hand-off estimate, nanoseconds: the median of the last
    /// eight times a wake-up call took to put a helper where it could
    /// claim a task. `None` until the pool has measured eight.
    pub handoff_ns: Option<u64>,
    /// Jobs published that woke no helper: they ran on the thread that
    /// called, beside whichever helpers happened to be awake.
    pub jobs_inline: u64,
    /// Jobs published that woke at least one parked helper.
    pub jobs_fanned_out: u64,
}

impl PoolSnapshot {
    /// Folds another pool's view into this one (pools of one process wake
    /// threads of one host; the slowest is what a dashboard should see).
    pub fn absorb(&mut self, other: PoolSnapshot) {
        self.handoff_ns = self.handoff_ns.max(other.handoff_ns);
        self.jobs_inline += other.jobs_inline;
        self.jobs_fanned_out += other.jobs_fanned_out;
    }
}

/// A standing fork-join pool: parked `'static` threads plus the calling
/// thread, all claiming task indices from one atomic cursor. Each serving
/// engine owns one; construction shares one process-wide pool.
///
/// Because the caller participates, [`run`](WorkerPool::run) is at worst
/// the inline loop plus the wake-up calls it chose to make, and it makes
/// one only for a task the caller would not have reached by the time the
/// woken thread could (`wake_count`): the pool measures what a wake-up
/// takes on this host (`h`, [`PoolSnapshot::handoff_ns`]) and
/// [`run_with_cost`](WorkerPool::run_with_cost) callers say what one
/// task costs (`c`). Where a sleeping core needs 50 µs, a batch of two
/// 25 µs tasks runs on the thread that brought it and a 2 000-task batch
/// spreads over every worker; where it needs 5 µs both spread. With
/// either number unknown every parked worker a task could use is woken.
/// Concurrent `run` calls are served oldest-first; a task may call `run`
/// again, since every caller works its own job to the end. A run starts
/// the workers its tasks could use that have not started yet, so a pool
/// sized for the largest job any caller may bring (the build pool's)
/// holds only as many threads as its callers have asked for; they are
/// joined on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
}

impl WorkerPool {
    /// A pool of up to `threads` workers beside each caller (`0`: every
    /// run is the caller's inline loop). Spawns nothing yet.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared::default()),
            threads,
        }
    }

    /// Runs `task(0) … task(n_tasks - 1)`, each exactly once, on the
    /// caller and the pool's workers; returns when all have finished.
    /// With one task or no workers nothing is locked or woken. This is
    /// [`run_with_cost`](Self::run_with_cost) for a caller that cannot
    /// say what a task costs.
    ///
    /// # Panics
    /// Re-raises the first panic of any task, after every task has
    /// finished; the pool stays usable.
    pub fn run<F: Fn(usize) + Sync>(&self, n_tasks: usize, task: F) {
        self.run_with_cost(n_tasks, None, task);
    }

    /// [`run`](Self::run) for a caller that expects one task to take
    /// `task_cost_ns` (`None`: unknown, wake eagerly). Returns the
    /// hand-off a helper woken for this job measured on reaching it, when
    /// one was woken and got there before the job was over.
    pub fn run_with_cost<F: Fn(usize) + Sync>(
        &self,
        n_tasks: usize,
        task_cost_ns: Option<u64>,
        task: F,
    ) -> Option<u64> {
        if n_tasks <= 1 || self.threads == 0 {
            (0..n_tasks).for_each(task);
            return None;
        }
        let task: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: this extends `task`'s borrow to `'static` so parked
        // `'static` threads can call it. Workers reach it only through
        // `Job::task`, which `Job::work` reads only after claiming an
        // index below `n_tasks`, and each claim is matched by one
        // decrement of `unfinished` after the call returns or unwinds
        // (`catch_unwind`). This function leaves — by return or by
        // `resume_unwind` — only after reading `unfinished == 0`, and
        // nothing between publishing the job and that read can panic
        // (poison-ignoring locks, `park`, atomics), so no call of `task`
        // is running or can start once the borrow ends. The wait is this
        // function's own control flow, not a destructor, so
        // `mem::forget` cannot skip it. `F: Sync` makes the shared calls
        // sound; `Job` is private to this module.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let handoff = self.shared.handoff.estimate();
        let job = {
            let mut state = lock(&self.shared.state);
            // A new worker finds the job once this lock is released. One
            // that cannot be spawned is one the caller stands in for.
            while state.handles.len() < self.threads.min(n_tasks - 1) {
                let shared = Arc::clone(&self.shared);
                match std::thread::Builder::new()
                    .name("weavess-pool".into())
                    .spawn(move || shared.worker_loop())
                {
                    Ok(handle) => state.handles.push(handle),
                    Err(_) => break,
                }
            }
            let woken = wake_count(n_tasks, state.parked, handoff, task_cost_ns);
            if woken > 0 {
                state.wake_sent = Some(Instant::now());
            }
            let job = Arc::new(Job {
                task,
                n_tasks,
                next: AtomicUsize::new(0),
                unfinished: AtomicUsize::new(n_tasks),
                panics: Mutex::new(Vec::new()),
                caller: std::thread::current(),
                woken,
                handoff_ns: AtomicU64::new(HANDOFF_UNKNOWN),
            });
            state.jobs.push_back(Arc::clone(&job));
            job
        };
        // Outside the lock, so a woken worker does not block on it again.
        for _ in 0..job.woken {
            self.shared.wake.notify_one();
        }
        let mode = match job.woken {
            0 => &self.shared.jobs_inline,
            _ => &self.shared.jobs_fanned_out,
        };
        mode.fetch_add(1, Ordering::Relaxed);
        job.work(true);
        lock(&self.shared.state).retire(&job);
        while job.unfinished.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        let mut panics = std::mem::take(&mut *lock(&job.panics));
        if !panics.is_empty() {
            resume_unwind(panics.swap_remove(0));
        }
        known(job.handoff_ns.load(Ordering::Relaxed))
    }

    /// [`run`](Self::run) collecting each task's value, in task order.
    pub fn map<T: Send, F: Fn(usize) -> T + Sync>(&self, n_tasks: usize, task: F) -> Vec<T> {
        self.map_with_cost(n_tasks, None, task).0
    }

    /// [`run_with_cost`](Self::run_with_cost) collecting each task's
    /// value, in task order.
    pub fn map_with_cost<T: Send, F: Fn(usize) -> T + Sync>(
        &self,
        n_tasks: usize,
        task_cost_ns: Option<u64>,
        task: F,
    ) -> (Vec<T>, Option<u64>) {
        let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
        let handoff = self.run_with_cost(n_tasks, task_cost_ns, |i| {
            *lock(&slots[i]) = Some(task(i));
        });
        let values = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("run finished every task")
            })
            .collect();
        (values, handoff)
    }

    /// Whether a job of `n_tasks` costing `task_cost_ns` each would wake
    /// a helper were every worker parked — the pool's own rule, asked
    /// ahead of the job by whoever must know if it will spread over other
    /// cores (the admission queue's lane).
    pub fn fans_out(&self, n_tasks: usize, task_cost_ns: Option<u64>) -> bool {
        let handoff = self.shared.handoff.estimate();
        wake_count(n_tasks, self.threads, handoff, task_cost_ns) > 0
    }

    /// The pool's hand-off estimate and job counts right now.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            handoff_ns: self.shared.handoff.estimate(),
            jobs_inline: self.shared.jobs_inline.load(Ordering::Relaxed),
            jobs_fanned_out: self.shared.jobs_fanned_out.load(Ordering::Relaxed),
        }
    }

    /// Test hook: fixes the hand-off estimate at `ns` and stops measuring,
    /// so a test can hold the wake rule on one side (`0`: every job fans
    /// out; `u64::MAX`: every job whose cost is known runs inline) while
    /// it compares answers. Not an option: nothing in the tree calls it
    /// outside tests.
    #[doc(hidden)]
    pub fn pin_handoff_ns(&self, ns: u64) {
        self.shared.handoff.pin(ns);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let handles = {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            std::mem::take(&mut state.handles)
        };
        self.shared.wake.notify_all();
        for h in handles {
            // Workers catch every task panic, so this cannot fail — and
            // a destructor must not panic if it somehow did.
            let _ = h.join();
        }
    }
}

/// The prefix-doubling batch schedule for incremental builders: point 0
/// seeds the graph, then batches `[1,2), [2,4), [4,8), ...` — each batch
/// at most `max_batch` points and at most as large as the already-built
/// prefix, so every inserted point searches a frozen graph of at least its
/// own batch's size.
pub fn prefix_doubling(n: usize, max_batch: usize) -> Vec<Range<usize>> {
    let max_batch = max_batch.max(1);
    let mut batches = Vec::new();
    let mut start = 1usize;
    while start < n {
        let size = start.min(max_batch).min(n - start);
        batches.push(start..start + size);
        start += size;
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn resolve_threads_passes_explicit_and_caps_auto() {
        assert_eq!(resolve_threads(3), 3);
        let auto = resolve_threads(0);
        assert!((1..=MAX_AUTO_THREADS).contains(&auto));
    }

    #[test]
    fn par_chunks_map_is_thread_count_independent() {
        let expect: Vec<usize> = (0..1_000).step_by(64).map(|s| 64.min(1_000 - s)).collect();
        for threads in [1, 2, 8] {
            let got = par_chunks_map(1_000, 64, threads, || 0usize, |_, r| r.len());
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_fill_writes_every_slot_once() {
        for threads in [1, 3, 8] {
            let mut out = vec![usize::MAX; 997];
            par_fill(
                &mut out,
                100,
                threads,
                || (),
                |_, start, slot| {
                    for (j, x) in slot.iter_mut().enumerate() {
                        *x = start + j;
                    }
                },
            );
            assert!(out.iter().enumerate().all(|(i, &x)| x == i));
        }
    }

    #[test]
    fn par_fill_mutates_chunks_and_returns_their_values_in_chunk_order() {
        // Each chunk rewrites its own slots and reports (start, sum of
        // what it found there): the phase-A shape — owned rows mutated,
        // a per-chunk product collected.
        let input: Vec<u64> = (0..997).map(|i| i * i % 31).collect();
        let expect: Vec<(usize, u64)> = input
            .chunks(100)
            .enumerate()
            .map(|(c, s)| (c * 100, s.iter().sum()))
            .collect();
        for threads in [1, 2, 8] {
            let mut out = input.clone();
            let got = par_fill(
                &mut out,
                100,
                threads,
                || (),
                |_, start, slot| {
                    let sum = slot.iter().sum::<u64>();
                    slot.iter_mut().for_each(|x| *x += 1);
                    (start, sum)
                },
            );
            assert_eq!(got, expect, "threads={threads}");
            assert!(out.iter().zip(&input).all(|(o, i)| *o == i + 1));
        }
        let none: Vec<u8> = par_fill(&mut [0u8; 0], 4, 3, || (), |_, _, _| 1u8);
        assert!(none.is_empty());
    }

    #[test]
    fn worker_state_is_reused_across_chunks() {
        // Each worker counts how many chunks it handled; totals must cover
        // every chunk exactly once.
        let counts = par_chunks_map(
            512,
            16,
            4,
            || 0usize,
            |seen, _| {
                *seen += 1;
                1usize
            },
        );
        assert_eq!(counts.iter().sum::<usize>(), 512usize.div_ceil(16));
    }

    #[test]
    fn a_chunk_panic_reaches_the_caller_verbatim_and_the_build_pool_survives() {
        for threads in [1, 4] {
            let mut out = vec![0u8; 100];
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_fill(
                    &mut out,
                    10,
                    threads,
                    || (),
                    |_, start, _| {
                        if start == 30 {
                            panic!("chunk at 30 failed");
                        }
                    },
                )
            }))
            .expect_err("the chunk's panic must reach the caller");
            assert_eq!(
                err.downcast_ref::<&str>(),
                Some(&"chunk at 30 failed"),
                "threads={threads}"
            );
            let mut hits = vec![0u8; 1_000];
            par_fill(
                &mut hits,
                7,
                threads,
                || (),
                |_, _, slot| {
                    slot.iter_mut().for_each(|h| *h += 1);
                },
            );
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
        }
    }

    #[test]
    fn prefix_doubling_covers_exactly_once_and_doubles() {
        let batches = prefix_doubling(1_000, 256);
        assert_eq!(batches.first().unwrap().clone(), 1..2);
        let mut next = 1usize;
        for b in &batches {
            assert_eq!(b.start, next, "batches must be contiguous");
            assert!(b.len() <= 256);
            assert!(b.len() <= b.start, "batch may not outsize its prefix");
            next = b.end;
        }
        assert_eq!(next, 1_000);
    }

    #[test]
    fn prefix_doubling_handles_tiny_inputs() {
        assert!(prefix_doubling(0, 64).is_empty());
        assert!(prefix_doubling(1, 64).is_empty());
        assert_eq!(prefix_doubling(2, 64), vec![1..2]);
    }

    fn spawned(pool: &WorkerPool) -> usize {
        lock(&pool.shared.state).handles.len()
    }

    /// Runs `n` tasks on `pool` and asserts each index ran exactly once.
    fn assert_each_task_once(pool: &WorkerPool, n: usize) {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "n={n}: some task ran zero or several times"
        );
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        for threads in [0usize, 1, 3] {
            let pool = WorkerPool::new(threads);
            for n in [0usize, 1, 2, 1000] {
                assert_each_task_once(&pool, n);
                let squares = pool.map(n, |i| i * i);
                assert!(squares.iter().enumerate().all(|(i, &v)| v == i * i));
                assert_eq!(squares.len(), n);
            }
        }
    }

    #[test]
    fn pool_spawns_lazily_and_single_task_runs_touch_no_thread() {
        let pool = WorkerPool::new(3);
        let me = std::thread::current().id();
        pool.run(1, |_| assert_eq!(std::thread::current().id(), me));
        assert_eq!(spawned(&pool), 0, "a 1-task run spawned");
        pool.run(2, |_| {});
        assert_eq!(spawned(&pool), 1, "a 2-task run can use one helper");
        pool.run(9, |_| {});
        assert_eq!(spawned(&pool), 3, "never more than the pool's size");
        pool.run(2, |_| {});
        assert_eq!(spawned(&pool), 3, "started workers stay");
    }

    #[test]
    fn concurrent_runs_see_only_their_own_tasks() {
        let pool = WorkerPool::new(3);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..20 {
                        let n = 50 + caller * 7 + round;
                        assert_each_task_once(pool, n);
                        let tagged = pool.map(n, |i| (caller, i));
                        assert!(tagged.iter().enumerate().all(|(i, &t)| t == (caller, i)));
                    }
                });
            }
        });
    }

    #[test]
    fn run_waits_for_tasks_claimed_by_workers() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        // The barrier holds both tasks until two threads are inside one
        // each, so the worker is certain to be mid-task when the caller's
        // own task returns.
        let both_inside = std::sync::Barrier::new(2);
        let worker_done = std::sync::atomic::AtomicBool::new(false);
        pool.run(2, |_| {
            both_inside.wait();
            if std::thread::current().id() != caller {
                std::thread::sleep(std::time::Duration::from_millis(50));
                worker_done.store(true, Ordering::SeqCst);
            }
        });
        assert!(
            worker_done.load(Ordering::SeqCst),
            "run returned while a claimed task was executing"
        );
    }

    #[test]
    fn task_panic_is_reraised_verbatim_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 3 {
                    panic!("task three failed");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("the task's panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"task three failed"));
        assert_eq!(ran.load(Ordering::Relaxed), 63, "the other tasks still ran");
        assert_each_task_once(&pool, 1000);
        assert_eq!(spawned(&pool), 2);
    }

    #[test]
    fn drop_joins_every_worker() {
        let pool = WorkerPool::new(3);
        let shared = Arc::clone(&pool.shared);
        assert_eq!(Arc::strong_count(&shared), 2, "nothing spawned yet");
        assert_each_task_once(&pool, 100);
        // Each live worker owns one reference to the shared state.
        assert_eq!(Arc::strong_count(&shared), 2 + 3);
        drop(pool);
        assert_eq!(Arc::strong_count(&shared), 1, "a worker outlived drop");
    }

    #[test]
    fn wake_count_is_the_tasks_the_caller_would_not_reach_in_time() {
        const US: u64 = 1_000;
        // (n_tasks, parked, h, c) -> helpers woken
        let table = [
            // Either number unknown: min(parked, n_tasks - 1), as before.
            (2, 1, None, None, 1),
            (2, 1, Some(50 * US), None, 1),
            (2, 1, None, Some(25 * US), 1),
            (8, 3, None, None, 3),
            (3, 8, None, Some(US), 2),
            // h < c: the caller finishes nothing first, every spare task
            // gets a helper.
            (2, 1, Some(5 * US), Some(25 * US), 1),
            (4, 8, Some(24 * US), Some(25 * US), 3),
            // h >= c: one task off per whole c in h.
            (2, 1, Some(50 * US), Some(25 * US), 0),
            (2, 1, Some(25 * US), Some(25 * US), 0),
            (4, 3, Some(50 * US), Some(25 * US), 1),
            (256, 1, Some(50 * US), Some(25 * US), 1),
            (2, 1, Some(50 * US), Some(5_000 * US), 1),
            // h >> c: nobody, however many tasks and workers.
            (64, 16, Some(u64::MAX - 1), Some(1), 0),
            (2, 1, Some(60_000 * US), Some(20 * US), 0),
            // c = 0: free tasks are done before any hand-off that costs
            // something; a free hand-off is eager whatever tasks cost.
            (8, 4, Some(US), Some(0), 0),
            (8, 4, Some(0), Some(0), 4),
            (8, 4, Some(0), Some(u64::MAX), 4),
            // One task, no task, no worker parked.
            (1, 4, None, None, 0),
            (0, 4, Some(0), Some(US), 0),
            (9, 0, None, None, 0),
        ];
        for (n_tasks, parked, h, c, want) in table {
            assert_eq!(
                wake_count(n_tasks, parked, h, c),
                want,
                "n_tasks={n_tasks} parked={parked} h={h:?} c={c:?}"
            );
        }
    }

    #[test]
    fn handoff_estimate_is_the_median_of_the_last_eight_until_pinned() {
        let h = Handoff::default();
        // Seven samples are not an estimate yet, whatever they say.
        for ns in [9_000_000, 40, 50, 45, 41, 52, 48] {
            h.record(ns);
            assert_eq!(h.estimate(), None);
        }
        // One stall among fast wake-ups does not move the median.
        h.record(47);
        assert_eq!(h.estimate(), Some(48), "upper median of 40..52 and 9e6");
        // Eight newer samples push every older one out.
        for ns in 100..108 {
            h.record(ns);
        }
        assert_eq!(h.estimate(), Some(104));
        h.record(u64::MAX);
        assert_eq!(
            h.estimate(),
            Some(105),
            "a sample saturates, it is not 'unknown'"
        );
        h.pin(0);
        h.record(77);
        assert_eq!(h.estimate(), Some(0), "a pinned estimate ignores samples");
        h.pin(u64::MAX);
        assert_eq!(h.estimate(), Some(u64::MAX - 1));
    }

    /// Spins until every worker of a started pool is asleep on the
    /// condvar, so the next job's wake count is the rule's alone.
    fn wait_all_parked(pool: &WorkerPool) {
        let spawned = spawned(pool);
        assert!(spawned > 0, "the pool has started");
        while lock(&pool.shared.state).parked < spawned {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_woken_helper_measures_the_handoff_and_the_job_counts_by_mode() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.snapshot(), PoolSnapshot::default());
        pool.run(2, |_| {});
        // Both tasks wait for each other, so the helper must arrive; with
        // no estimate yet every such job wakes it, and the eighth sample
        // makes one.
        let both_inside = std::sync::Barrier::new(2);
        let before = pool.snapshot();
        for sample in 1..=HANDOFF_WINDOW {
            wait_all_parked(&pool);
            let measured = pool
                .run_with_cost(2, Some(1), |_| {
                    both_inside.wait();
                })
                .expect("the helper this job woke reached it");
            assert!(measured < 60_000_000_000, "nanoseconds, not garbage");
            let known = pool.snapshot().handoff_ns.is_some();
            assert_eq!(known, sample == HANDOFF_WINDOW, "sample {sample}");
        }
        let after = pool.snapshot();
        assert_eq!(
            after.jobs_fanned_out,
            before.jobs_fanned_out + HANDOFF_WINDOW as u64
        );
        assert_eq!(after.jobs_inline, before.jobs_inline);
        // With the estimate far above what the tasks cost, the same job
        // runs on the caller alone and says so.
        pool.pin_handoff_ns(u64::MAX);
        wait_all_parked(&pool);
        let me = std::thread::current().id();
        let inline = pool.run_with_cost(2, Some(1_000), |_| {
            assert_eq!(std::thread::current().id(), me);
        });
        assert_eq!(inline, None);
        assert!(!pool.fans_out(2, Some(1_000)));
        assert!(pool.fans_out(2, None), "unknown cost stays eager");
        assert_eq!(pool.snapshot().jobs_inline, after.jobs_inline + 1);
        assert_eq!(pool.snapshot().jobs_fanned_out, after.jobs_fanned_out);
    }

    /// A stale or absurd estimate changes who runs a task, never whether:
    /// every task of every job runs exactly once, from several callers at
    /// a time, and `map` stays the serial map.
    #[test]
    fn absurd_handoff_estimates_never_lose_or_repeat_a_task() {
        for threads in [0usize, 1, 3] {
            for pinned in [0u64, 1, u64::MAX] {
                let pool = WorkerPool::new(threads);
                pool.pin_handoff_ns(pinned);
                std::thread::scope(|scope| {
                    for caller in 0..3usize {
                        let pool = &pool;
                        scope.spawn(move || {
                            for cost in [None, Some(0), Some(1), Some(25_000), Some(u64::MAX)] {
                                for n in [0usize, 1, 2, 3, 64] {
                                    let hits: Vec<AtomicUsize> =
                                        (0..n).map(|_| AtomicUsize::new(0)).collect();
                                    pool.run_with_cost(n, cost, |i| {
                                        hits[i].fetch_add(1, Ordering::Relaxed);
                                    });
                                    assert!(
                                        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                                        "threads={threads} h={pinned} c={cost:?} n={n}"
                                    );
                                    let (tagged, _) = pool.map_with_cost(n, cost, |i| (caller, i));
                                    assert!(tagged
                                        .iter()
                                        .enumerate()
                                        .all(|(i, &t)| t == (caller, i)));
                                }
                            }
                        });
                    }
                });
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any sequence of runs on one pool, panicking tasks included:
        /// every task of every run executes exactly once and `map` is
        /// the serial map.
        #[test]
        fn pool_equals_the_serial_loop(
            threads in 0usize..4,
            sizes in prop::collection::vec(0usize..200, 1..5),
            panic_at in 0usize..400,
        ) {
            let pool = WorkerPool::new(threads);
            for &n in &sizes {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.run(n, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        if i == panic_at {
                            panic!("task {i}");
                        }
                    })
                }));
                prop_assert_eq!(outcome.is_err(), panic_at < n);
                // The inline path (one task or no workers) stops at the
                // panic like any loop; the pooled path finishes the rest.
                let pooled = threads > 0 && n > 1;
                for (i, h) in hits.iter().enumerate() {
                    let want = usize::from(pooled || i <= panic_at);
                    prop_assert_eq!(h.load(Ordering::Relaxed), want, "task {}", i);
                }
                let serial: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
                prop_assert_eq!(pool.map(n, |i| i * 3 + 1), serial);
            }
        }
    }
}
