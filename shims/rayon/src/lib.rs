//! Offline subset of `rayon` (see `shims/README.md`).
//!
//! Backed by one lazily started, process-wide pool of
//! `available_parallelism() − 1` worker threads (at least one) that live for
//! the whole process. Every parallel entry point is a recursive [`join`]:
//!
//! * `join(a, b)` publishes `b` as a job on the caller's stack, runs `a`,
//!   then takes `b` back and runs it inline if no worker has started it.
//!   If a worker has, the caller runs other queued jobs until `b` is done,
//!   so nested joins never deadlock the fixed pool.
//! * **Caller runs.** `b` is handed off only while a worker sits idle;
//!   otherwise it runs inline at once. In this workspace the callers are
//!   simulated rank threads that already fill the host's cores, so most
//!   joins cost one atomic load instead of a thread.
//! * A panic in `a` or `b` resumes in the caller with its original payload.
//!
//! `par_iter().for_each`, `par_iter().map().collect()` and
//! `par_chunks_mut().for_each` split their items into **fixed, contiguous
//! spans** whose bounds depend only on the item count and the span count,
//! and join over them. Any kernel whose per-item math is deterministic is
//! therefore bit-identical across `RAYON_NUM_THREADS` settings.
//!
//! `current_num_threads` re-reads `RAYON_NUM_THREADS` on *every* call
//! (upstream rayon latches it at pool construction), which lets tests sweep
//! thread counts within a single process. It picks serial (`1`: no job
//! reaches the pool) or pooled execution and sets the span count; the pool
//! itself never resizes.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once};
use std::thread::{self, Thread};

/// Number of worker threads parallel calls may use right now.
///
/// Honours `RAYON_NUM_THREADS` (re-read on each call); falls back to the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

fn available_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    fork(a, b)
}

/// The pooled half of [`join`]: hand `b` to an idle worker if there is one,
/// otherwise run both closures inline.
fn fork<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = Pool::get();
    let job = StackJob::new(b);
    // SAFETY: `job` lives on this frame, which does not return or unwind
    // before the job is either taken back by `reclaim` or reported done by
    // `wait_for` (both below, with `a`'s panic caught in between).
    if !pool.offer(unsafe { job.as_job_ref() }) {
        let ra = a();
        let rb = job.into_func()();
        return (ra, rb);
    }
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    let rb = if pool.reclaim(&job) {
        // Back in our hands: no other thread ever saw the closure, and if
        // `a` panicked, `b` is dropped unrun as on the inline path.
        ra.is_ok().then(|| job.into_func()())
    } else {
        pool.wait_for(&job);
        Some(
            job.into_result()
                .unwrap_or_else(|p| panic::resume_unwind(p)),
        )
    };
    match ra {
        Ok(ra) => (ra, rb.expect("`b` ran because `a` returned")),
        Err(p) => panic::resume_unwind(p),
    }
}

/// The process-wide pool: a FIFO of published jobs and the workers that
/// sleep on it.
struct Pool {
    queue: Mutex<VecDeque<JobRef>>,
    work: Condvar,
    /// Workers blocked in `work.wait`. Written only with `queue` locked;
    /// `offer` first reads it without, so a busy pool costs no lock.
    sleeping: AtomicUsize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    work: Condvar::new(),
    sleeping: AtomicUsize::new(0),
};
static START: Once = Once::new();

impl Pool {
    /// The pool, starting its workers on first use.
    fn get() -> &'static Pool {
        START.call_once(|| {
            for i in 0..available_parallelism().saturating_sub(1).max(1) {
                // Workers live as long as the process, so their handles are
                // dropped. One that fails to spawn only shrinks the pool:
                // jobs are handed off only to workers known to be asleep.
                let _ = thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(|| POOL.work_loop());
            }
        });
        &POOL
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<JobRef>> {
        // Jobs run outside the lock and catch their own panics, so a
        // poisoned queue still holds only whole `JobRef`s.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish `job` if a sleeping worker is free to take it; `false` means
    /// the caller must run it itself.
    fn offer(&self, job: JobRef) -> bool {
        // Unlocked hint: a stale answer only runs `job` inline or takes the
        // lock in vain.
        if self.sleeping.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut queue = self.lock();
        if self.sleeping.load(Ordering::Relaxed) <= queue.len() {
            return false;
        }
        queue.push_back(job);
        drop(queue);
        self.work.notify_one();
        true
    }

    /// Take `job` back if no thread has started it yet.
    fn reclaim<F, R>(&self, job: &StackJob<F, R>) -> bool {
        let mut queue = self.lock();
        let at = queue.iter().position(|j| j.is(job));
        at.map(|i| queue.remove(i)).is_some()
    }

    /// Block until another thread has finished `job`, running other queued
    /// jobs meanwhile.
    fn wait_for<F, R>(&self, job: &StackJob<F, R>) {
        while !job.done.load(Ordering::Acquire) {
            // Bind first: a guard in the `match` scrutinee would stay
            // locked while the popped job runs.
            let next = self.lock().pop_front();
            match next {
                // SAFETY: a queued `JobRef` is popped exactly once, and its
                // publisher keeps it alive until it observes `done`.
                Some(other) => unsafe { other.execute() },
                // The finishing thread unparks us after setting `done`; a
                // spurious wake-up just re-runs the loop.
                None => thread::park(),
            }
        }
    }

    fn work_loop(&self) -> ! {
        loop {
            let job = {
                let mut queue = self.lock();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    self.sleeping.fetch_add(1, Ordering::Relaxed);
                    queue = self.work.wait(queue).unwrap_or_else(|e| e.into_inner());
                    self.sleeping.fetch_sub(1, Ordering::Relaxed);
                }
            };
            // SAFETY: as in `wait_for`, this thread popped the job, so it is
            // its only runner, and the publisher is still waiting on it.
            unsafe { job.execute() };
        }
    }
}

/// A `join` right half that lives on the publishing caller's stack.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    done: AtomicBool,
    owner: Thread,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    fn new(func: F) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            owner: thread::current(),
        }
    }

    /// A type-erased handle another thread can run.
    ///
    /// # Safety
    ///
    /// `self` must stay in place and alive until the handle is either taken
    /// back by [`Pool::reclaim`] or has run and set `done`.
    unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            ptr: (self as *const Self).cast(),
            execute: Self::execute,
        }
    }

    /// # Safety
    ///
    /// `ptr` comes from `as_job_ref` on a live `StackJob<F, R>`, and this is
    /// the one call made through that handle.
    unsafe fn execute(ptr: *const ()) {
        // SAFETY: the caller guarantees `ptr` points to a live job of this
        // type; being its only runner, we have exclusive use of `func` and
        // `result` until `done` is set, and the owner reads them only after.
        unsafe {
            let job = &*ptr.cast::<Self>();
            let func = (*job.func.get()).take().expect("a job runs once");
            *job.result.get() = Some(panic::catch_unwind(AssertUnwindSafe(func)));
            // Once `done` is visible the owner may pop its frame, freeing
            // `job`: take what we need before, touch nothing after.
            let owner = job.owner.clone();
            job.done.store(true, Ordering::Release);
            owner.unpark();
        }
    }

    /// The closure, for a job that no other thread ran.
    fn into_func(self) -> F {
        self.func
            .into_inner()
            .expect("a job that was never run still holds its closure")
    }

    /// The result of a job another thread ran, after `done`.
    fn into_result(self) -> thread::Result<R> {
        self.result
            .into_inner()
            .expect("a finished job holds its result")
    }
}

/// Type-erased pointer to a [`StackJob`] plus the function that runs it.
struct JobRef {
    ptr: *const (),
    execute: unsafe fn(*const ()),
}

// SAFETY: a `JobRef` is only made from a `StackJob` whose closure and
// result are `Send` (see `StackJob::new`'s bounds), and the job's owner
// keeps it alive until the handle is reclaimed or has run.
unsafe impl Send for JobRef {}

impl JobRef {
    fn is<F, R>(&self, job: &StackJob<F, R>) -> bool {
        std::ptr::eq(self.ptr, (job as *const StackJob<F, R>).cast())
    }

    /// # Safety
    ///
    /// As for `StackJob::execute`: the handle was popped from the queue by
    /// this thread and its publisher is still waiting on it.
    unsafe fn execute(self) {
        // SAFETY: forwarded from this function's contract.
        unsafe { (self.execute)(self.ptr) }
    }
}

/// Run `run(offset, span)` over consecutive spans of `items`, in parallel
/// when more than one thread is allowed. Spans have `n.div_ceil(spans)`
/// items each, so their bounds depend only on `n` and the span count, and
/// side effects into disjoint per-item slots are deterministic.
fn for_each_span<T: Send, F: Fn(usize, &mut [T]) + Sync>(items: &mut [T], run: F) {
    let n = items.len();
    if n == 0 {
        return;
    }
    let spans = current_num_threads().min(n);
    split(items, 0, n.div_ceil(spans), &run);
}

fn split<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    items: &mut [T],
    offset: usize,
    per: usize,
    run: &F,
) {
    let spans = items.len().div_ceil(per);
    if spans <= 1 {
        return run(offset, items);
    }
    let mid = spans / 2 * per;
    let (lo, hi) = items.split_at_mut(mid);
    fork(
        || split(lo, offset, per, run),
        || split(hi, offset + mid, per, run),
    );
}

pub mod iter {
    use super::for_each_span;

    /// `&[T] -> par_iter()`.
    pub trait IntoParallelRefIterator<'data> {
        type Item: 'data;
        type Iter;
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = &'data T;
        type Iter = ParIter<'data, T>;
        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { slice: self }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = &'data T;
        type Iter = ParIter<'data, T>;
        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { slice: self }
        }
    }

    pub struct ParIter<'data, T> {
        slice: &'data [T],
    }

    impl<'data, T: Sync> ParIter<'data, T> {
        pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
        where
            F: Fn(&'data T) -> R + Sync,
            R: Send,
        {
            ParMap {
                slice: self.slice,
                f,
            }
        }

        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'data T) + Sync,
        {
            let slice = self.slice;
            // Zero-sized placeholders: the spans carry only their bounds.
            for_each_span(&mut vec![(); slice.len()], |lo, span| {
                for item in &slice[lo..lo + span.len()] {
                    f(item);
                }
            });
        }
    }

    pub struct ParMap<'data, T, F> {
        slice: &'data [T],
        f: F,
    }

    impl<'data, T: Sync, F> ParMap<'data, T, F> {
        /// Collect mapped results **in input order** (parallelism never
        /// changes the output sequence).
        pub fn collect<C, R>(self) -> C
        where
            F: Fn(&'data T) -> R + Sync,
            R: Send,
            C: FromParVec<R>,
        {
            let (slice, f) = (self.slice, &self.f);
            let mut out: Vec<Option<R>> = slice.iter().map(|_| None).collect();
            for_each_span(&mut out, |lo, span| {
                for (slot, item) in span.iter_mut().zip(&slice[lo..]) {
                    *slot = Some(f(item));
                }
            });
            C::from_par_vec(
                out.into_iter()
                    .map(|r| r.expect("every span fills its slots"))
                    .collect(),
            )
        }
    }

    /// Targets of `ParMap::collect` (stands in for `FromParallelIterator`).
    pub trait FromParVec<R> {
        fn from_par_vec(v: Vec<R>) -> Self;
    }

    impl<R> FromParVec<R> for Vec<R> {
        fn from_par_vec(v: Vec<R>) -> Self {
            v
        }
    }

    /// `&mut [T] -> par_chunks_mut(n)`.
    pub trait ParallelSliceMut<T: Send> {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            ParChunksMut {
                slice: self,
                chunk_size,
            }
        }
    }

    pub struct ParChunksMut<'data, T> {
        slice: &'data mut [T],
        chunk_size: usize,
    }

    impl<'data, T: Send> ParChunksMut<'data, T> {
        pub fn enumerate(self) -> EnumeratedChunksMut<'data, T> {
            EnumeratedChunksMut {
                slice: self.slice,
                chunk_size: self.chunk_size,
            }
        }

        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&mut [T]) + Sync,
        {
            self.enumerate().for_each(|(_, chunk)| f(chunk));
        }
    }

    pub struct EnumeratedChunksMut<'data, T> {
        slice: &'data mut [T],
        chunk_size: usize,
    }

    impl<'data, T: Send> EnumeratedChunksMut<'data, T> {
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &mut [T])) + Sync,
        {
            let mut chunks: Vec<&mut [T]> = self.slice.chunks_mut(self.chunk_size).collect();
            for_each_span(&mut chunks, |lo, span| {
                for (i, chunk) in (lo..).zip(span) {
                    f((i, &mut **chunk));
                }
            });
        }
    }
}

pub mod prelude {
    pub use crate::iter::{FromParVec, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Tests that set `RAYON_NUM_THREADS` serialise on this lock; the rest
    /// hold for any thread count.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        std::env::remove_var("RAYON_NUM_THREADS");
        r.unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    /// The panic message `f` raised, which must reach the caller intact.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the closure panics");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map(|s| s.to_string()).unwrap(),
        }
    }

    /// Leaves `lo..lo + 2^depth`, in order, from a `depth`-level join tree.
    fn tree(depth: u32, lo: usize) -> Vec<usize> {
        if depth == 0 {
            return vec![lo];
        }
        let (mut a, b) = super::join(
            || tree(depth - 1, lo),
            || tree(depth - 1, lo + (1 << (depth - 1))),
        );
        a.extend(b);
        a
    }

    fn fill_chunks(n: usize) -> Vec<usize> {
        let mut v = vec![0usize; n];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = i * 10 + j;
            }
        });
        v
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 2 + 2, || "x".repeat(3));
        assert_eq!(a, 4);
        assert_eq!(b, "xxx");
    }

    #[test]
    fn par_chunks_mut_covers_all_in_order() {
        let v = fill_chunks(103);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let input: Vec<usize> = (0..257).collect();
        let out: Vec<usize> = input.par_iter().map(|&x| x * 3).collect();
        assert_eq!(out.len(), input.len());
        for (i, x) in out.iter().enumerate() {
            assert_eq!(*x, i * 3);
        }
    }

    #[test]
    fn panics_reach_the_caller_with_their_own_payload() {
        with_threads(8, || {
            let msg = panic_message(|| {
                super::join(|| -> usize { panic!("left {}", 1) }, || tree(7, 0));
            });
            assert_eq!(msg, "left 1");
            let msg = panic_message(|| {
                super::join(|| tree(7, 0), || -> usize { panic!("right {}", 2) });
            });
            assert_eq!(msg, "right 2");
            let input: Vec<usize> = (0..257).collect();
            let msg = panic_message(|| {
                let _: Vec<usize> = input
                    .par_iter()
                    .map(|&x| if x == 200 { panic!("map {x}") } else { x })
                    .collect();
            });
            assert_eq!(msg, "map 200");
            let msg = panic_message(|| {
                let mut v = [0u8; 103];
                v.par_chunks_mut(10).for_each(|chunk| {
                    if chunk.len() < 10 {
                        panic!("short chunk of {}", chunk.len());
                    }
                });
            });
            assert_eq!(msg, "short chunk of 3");
        });
    }

    #[test]
    fn idle_workers_take_jobs_and_keep_their_panics() {
        with_threads(8, || {
            let me = thread::current().id();
            // `a` waits for `b` to start, so a `b` that runs at all before
            // the wait times out ran on a worker. Retry until a worker was
            // idle: other tests may be keeping it busy.
            let handed_off = (0..200).any(|_| {
                let started = AtomicBool::new(false);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    super::join(
                        || {
                            let t = Instant::now();
                            while !started.load(Ordering::SeqCst)
                                && t.elapsed() < Duration::from_millis(50)
                            {
                                thread::yield_now();
                            }
                        },
                        || {
                            started.store(true, Ordering::SeqCst);
                            if thread::current().id() != me {
                                panic!("on a worker");
                            }
                        },
                    )
                }));
                match r {
                    Ok(_) => false,
                    Err(p) => *p.downcast::<&str>().unwrap() == "on a worker",
                }
            });
            assert!(handed_off, "no join reached an idle worker");
        });
    }

    #[test]
    fn concurrent_callers_get_their_own_results_in_order() {
        const CALLERS: usize = 8;
        with_threads(8, || {
            let start = Barrier::new(CALLERS);
            thread::scope(|s| {
                for c in 0..CALLERS {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        for _ in 0..20 {
                            let base = c * 1000;
                            assert_eq!(tree(7, base), (base..base + 128).collect::<Vec<_>>());
                            assert_eq!(fill_chunks(103), (0..103).collect::<Vec<_>>());
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn one_thread_keeps_every_job_on_the_caller() {
        fn leaf_threads(depth: u32) -> Vec<ThreadId> {
            if depth == 0 {
                return vec![thread::current().id()];
            }
            let (mut a, b) = super::join(|| leaf_threads(depth - 1), || leaf_threads(depth - 1));
            a.extend(b);
            a
        }
        with_threads(1, || {
            assert_eq!(super::current_num_threads(), 1);
            let me = thread::current().id();
            assert!(leaf_threads(7).into_iter().all(|t| t == me));
            let input: Vec<usize> = (0..103).collect();
            let ids: Vec<ThreadId> = input.par_iter().map(|_| thread::current().id()).collect();
            assert!(ids.into_iter().all(|t| t == me));
            let mut ids = vec![None; 103];
            ids.par_chunks_mut(10).for_each(|chunk| {
                chunk.fill(Some(thread::current().id()));
            });
            assert!(ids.into_iter().all(|t| t == Some(me)));
        });
    }
}
