//! Deterministic parallel construction: a scoped worker pool over
//! fixed-size work chunks, combined in chunk order.
//!
//! Every parallel phase of every builder routes through here, and all of
//! them share one invariant: **results are a pure function of the input,
//! never of the thread count**. Two rules enforce it:
//!
//! 1. **Fixed chunk sizes.** Work is cut into chunks of a constant size
//!    (like the PR-2 `Dataset::centroid`/`medoid` scheme), not
//!    `n.div_ceil(threads)` — so the partition of work units is identical
//!    whether 1 or 64 workers pull from the queue.
//! 2. **In-order combination.** Each chunk's result lands in a slot keyed
//!    by its chunk index; callers see results in chunk order regardless of
//!    which worker finished first.
//!
//! Workers are spawned with [`std::thread::scope`] (no runtime dependency)
//! and pull chunks from a shared atomic counter, so a slow chunk never
//! stalls the rest of the queue. Each worker builds its state once (for
//! search-based builders: a reusable [`crate::search::SearchScratch`]) and
//! carries it across every chunk it processes.
//!
//! The third piece is [`prefix_doubling`], the batch schedule ParlayANN
//! uses to parallelize *incremental* constructions (HNSW/NSW): insert
//! points in rounds of doubling size, where every point in a round
//! searches the frozen graph of all prior rounds.
//!
//! The serving tier's fork-join is [`WorkerPool`]: builds run for seconds
//! and can afford a scope's thread creation per phase, a 100 µs query
//! batch cannot, so the engines keep parked threads and the calling
//! thread works beside them.

use parking_lot::Mutex;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};

/// Default work-unit size for per-point construction loops. Small enough
/// to load-balance skewed work (beam searches vary), large enough that the
/// queue counter is not contended.
pub const CHUNK: usize = 256;

/// Cap on auto-detected construction threads — beyond this, queue and
/// allocator contention eat the gains at harness scales.
const MAX_AUTO_THREADS: usize = 16;

/// Resolves a requested construction thread count: `0` means "one per
/// available core" (capped at 16), any other value is taken as-is.
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
pub fn par_fill<T, R, S, I, F>(out: &mut [T], chunk: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) -> R + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = out.len().div_ceil(chunk);
    let threads = threads.max(1).min(n_chunks.max(1));
    if threads <= 1 {
        let mut state = init();
        return out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, slot)| f(&mut state, c * chunk, slot))
            .collect();
    }
    // Each chunk's mutable slice goes out through a one-shot slot and its
    // result comes back through another, keyed by chunk index; the slices
    // are disjoint so workers never alias.
    let work: Vec<Mutex<Option<&mut [T]>>> =
        out.chunks_mut(chunk).map(|s| Mutex::new(Some(s))).collect();
    let done: Vec<Mutex<Option<R>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= work.len() {
                        break;
                    }
                    let slot = work[c].lock().take().expect("chunk taken twice");
                    *done[c].lock() = Some(f(&mut state, c * chunk, slot));
                }
            });
        }
    });
    done.into_iter()
        .map(|s| s.into_inner().expect("chunk not processed"))
        .collect()
}

/// One [`WorkerPool::run`] call: the task cursor the caller and the
/// workers claim from, and what the caller waits on.
struct Job {
    /// The caller's closure with its lifetime erased; see the `SAFETY`
    /// contract in [`WorkerPool::run`]. Read only after claiming a task.
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
                self.panics.lock().push(payload);
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
}

impl PoolShared {
    fn worker_loop(&self) {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.jobs.front().cloned() {
                drop(state);
                job.work(false);
                state = self.state.lock();
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
            }
        }
    }
}

/// A standing fork-join pool for the serving path: parked `'static`
/// threads plus the calling thread, all claiming task indices from one
/// atomic cursor.
///
/// Because the caller participates, [`run`](WorkerPool::run) is at worst
/// the inline loop: a batch of two 35 µs tasks is over before a sleeping
/// core has woken, a 2 000-task batch spreads over every worker, and
/// neither case needs a threshold. Concurrent `run` calls are served
/// oldest-first. Threads start on the first multi-task run and are
/// joined on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: OnceLock<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// A pool of up to `threads` workers beside each caller (`0`: every
    /// run is the caller's inline loop). Spawns nothing yet.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared::default()),
            threads,
            handles: OnceLock::new(),
        }
    }

    /// Runs `task(0) … task(n_tasks - 1)`, each exactly once, on the
    /// caller and the pool's workers; returns when all have finished.
    /// With one task or no workers nothing is locked or woken.
    ///
    /// # Panics
    /// Re-raises the first panic of any task, after every task has
    /// finished; the pool stays usable.
    pub fn run<F: Fn(usize) + Sync>(&self, n_tasks: usize, task: F) {
        if n_tasks <= 1 || self.threads == 0 {
            (0..n_tasks).for_each(task);
            return;
        }
        // A worker that cannot be spawned is one the caller stands in for.
        self.handles.get_or_init(|| {
            (0..self.threads)
                .filter_map(|_| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name("weavess-pool".into())
                        .spawn(move || shared.worker_loop())
                        .ok()
                })
                .collect()
        });
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
        let job = Arc::new(Job {
            task,
            n_tasks,
            next: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(n_tasks),
            panics: Mutex::new(Vec::new()),
            caller: std::thread::current(),
        });
        let wake = {
            let mut state = self.shared.state.lock();
            state.jobs.push_back(Arc::clone(&job));
            state.parked.min(n_tasks - 1)
        };
        // Outside the lock, so a woken worker does not block on it again.
        for _ in 0..wake {
            self.shared.wake.notify_one();
        }
        job.work(true);
        self.shared.state.lock().retire(&job);
        while job.unfinished.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        let mut panics = std::mem::take(&mut *job.panics.lock());
        if !panics.is_empty() {
            resume_unwind(panics.swap_remove(0));
        }
    }

    /// [`run`](Self::run) collecting each task's value, in task order.
    pub fn map<T: Send, F: Fn(usize) -> T + Sync>(&self, n_tasks: usize, task: F) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
        self.run(n_tasks, |i| *slots[i].lock() = Some(task(i)));
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("run finished every task"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(handles) = self.handles.take() {
            self.shared.state.lock().shutdown = true;
            self.shared.wake.notify_all();
            for h in handles {
                // Workers catch every task panic, so this cannot fail —
                // and a destructor must not panic if it somehow did.
                let _ = h.join();
            }
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
        assert!(pool.handles.get().is_none(), "a 1-task run spawned");
        pool.run(2, |_| {});
        assert_eq!(pool.handles.get().map(Vec::len), Some(3));
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
        assert_eq!(pool.handles.get().map(Vec::len), Some(2));
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
