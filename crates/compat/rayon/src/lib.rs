//! Offline API-compatible subset of the
//! [`rayon`](https://crates.io/crates/rayon) crate, vendored under
//! `crates/compat/` because the build environment has no registry access.
//!
//! Unlike the first-generation shim (which spawned scoped threads per
//! `collect` and *serialized* every nested parallel iterator inside its
//! workers), this is a real fixed-size **work-stealing thread pool**:
//!
//! * **Resident workers.** A process-global pool of worker threads is
//!   spawned lazily on first use, sized by
//!   [`ThreadPoolBuilder::build_global`] (the `serve_judge --workers` path)
//!   or `available_parallelism()` by default. Workers live for the process
//!   lifetime; building a [`ThreadPool`] handle spawns nothing.
//! * **Injector + per-worker deques.** Jobs submitted from outside the
//!   pool land on a shared injector queue; jobs submitted *by a worker*
//!   (a nested `par_iter` inside an outer parallel job) are pushed onto
//!   that worker's own deque. A worker pops its own deque LIFO (newest
//!   sub-job first, best cache locality), then takes from the injector,
//!   then steals the *oldest* job from a sibling's deque — so deep
//!   pipelines (connection → docket → batch shards → trees) spread across
//!   every core instead of serializing below the first fan-out level.
//! * **Caller participation.** A thread waiting for its jobs to finish
//!   executes queued jobs itself instead of blocking, which both recovers
//!   the waiting CPU and makes the pool deadlock-free by construction:
//!   any thread blocked on a nested fan-out is itself draining the
//!   queues, so forward progress never depends on a free worker (the
//!   pool even completes with zero workers).
//! * **Lazy binary splitting.** A fan-out starts as *one* job owning the
//!   whole item range. Between items the running job checks for demand —
//!   some thread parked idle on the pool's condvar — and only then splits
//!   off the far half of its remaining range as a new job for the idle
//!   thread to take. An uncontended fan-out therefore runs as a single
//!   straight loop with zero queue traffic, while a contended one keeps
//!   halving until either every thread is busy or the per-fan-out width
//!   limit is reached; task granularity adapts to the observed load
//!   instead of a fixed `width × 2` over-split.
//!
//! **Determinism contract** (unchanged from the first-generation shim,
//! and load-bearing for the verification semantics of the paper): results
//! are stitched back in input order whatever the steal schedule; callers
//! derive per-task RNG seeds *before* fanning out, so fixed-seed outputs
//! are bit-identical for any worker count; and `num_threads(1)` — via
//! [`ThreadPool::install`] or a global pool of one — runs every parallel
//! pipeline strictly serially on the calling thread. An `install`ed width
//! limit travels *with* the jobs it spawns: nested fan-outs obey the
//! innermost enclosing limit even when their job executes on a different
//! worker thread.
//!
//! A width limit > 1 bounds how many tasks each individual fan-out may
//! have outstanding at once (real rayon bounds concurrency by pool size
//! instead); `1` is the only strict limit, and the one the determinism
//! suite relies on: a width-1 fan-out never creates a job at all and runs
//! serially, in input order, on the calling thread.
//!
//! Synchronization is deliberately coarse — every queue lives under one
//! registry mutex — because the workspace's jobs are milliseconds of tree
//! training or batch inference, not nanosecond tasklets; the stealing
//! *policy* (own-LIFO / steal-FIFO) is what matters at this granularity,
//! not lock-free queue mechanics.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Type-erased jobs
// ---------------------------------------------------------------------------

/// A pointer to a [`StackJob`] living on some caller's stack, plus the
/// monomorphized function that executes it.
///
/// Safety contract: the caller that created the underlying `StackJob`
/// blocks (in [`TaskGroup::wait_until_done`]) until every job it pushed
/// has executed, so the pointee outlives every use of the pointer; the
/// queues hand each `JobRef` to exactly one executor, so the job runs
/// exactly once.
struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

// Safety: see the contract on `JobRef` — the pointee is kept alive by its
// blocked creator and consumed by exactly one thread.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Runs the job. Must be called exactly once, off the registry lock.
    ///
    /// # Safety
    /// The `StackJob` this points to must still be alive and not yet
    /// executed — guaranteed by the queue's exactly-once pop and the
    /// creator blocking until completion.
    unsafe fn run(self) {
        // SAFETY: the caller upholds this function's contract — `data`
        // points to a live, not-yet-executed job of exactly the type
        // `execute` was instantiated for.
        unsafe { (self.execute)(self.data) }
    }
}

/// A job allocated on the submitting thread's stack. The closure is taken
/// out exactly once by the executing thread.
struct StackJob<F> {
    func: UnsafeCell<Option<F>>,
}

impl<F: FnOnce() + Send> StackJob<F> {
    fn new(func: F) -> Self {
        Self {
            func: UnsafeCell::new(Some(func)),
        }
    }

    /// Type-erases this job for the queues.
    ///
    /// # Safety
    /// The returned `JobRef` must be executed (exactly once) before `self`
    /// is dropped; callers ensure this by waiting on the job's
    /// [`TaskGroup`] before returning.
    unsafe fn as_job_ref(&self) -> JobRef {
        unsafe fn execute_erased<F: FnOnce() + Send>(data: *const ()) {
            // Safety: `data` came from `as_job_ref` on a live, not-yet-run
            // StackJob<F>; the queue guarantees we are its only executor,
            // so the UnsafeCell access is unaliased.
            let func = unsafe { (*(*data.cast::<StackJob<F>>()).func.get()).take() };
            (func.expect("a queued job is executed exactly once"))();
        }
        JobRef {
            data: std::ptr::from_ref(self).cast(),
            execute: execute_erased::<F>,
        }
    }
}

// ---------------------------------------------------------------------------
// The registry: queues + resident workers
// ---------------------------------------------------------------------------

/// All job queues, guarded by one mutex (see the module docs for why the
/// coarse lock is the right trade at this job granularity).
struct Queues {
    /// Jobs submitted from threads outside the pool.
    injector: VecDeque<JobRef>,
    /// One deque per resident worker for its own nested sub-jobs.
    deques: Vec<VecDeque<JobRef>>,
}

impl Queues {
    /// Next job for the given executor: own deque LIFO, then the injector
    /// FIFO, then stealing the oldest job of a sibling (scan starting past
    /// our own slot so steal pressure spreads instead of piling onto
    /// worker 0).
    fn find_job(&mut self, me: Option<usize>) -> Option<JobRef> {
        if let Some(index) = me {
            if let Some(job) = self.deques[index].pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.pop_front() {
            return Some(job);
        }
        let workers = self.deques.len();
        let first = me.map_or(0, |index| index + 1);
        (0..workers).find_map(|offset| self.deques[(first + offset) % workers].pop_front())
    }
}

/// The process-global pool: queues, the wakeup condvar and the resident
/// worker count.
struct Registry {
    sync: Mutex<Queues>,
    work: Condvar,
    workers: usize,
    /// Threads currently parked on `work` with nothing to do — the demand
    /// signal lazy binary splitting reads: a running fan-out only splits
    /// off half its range when somebody is idle to take it.
    idle: AtomicUsize,
}

impl Registry {
    fn new(workers: usize) -> Self {
        Self {
            sync: Mutex::new(Queues {
                injector: VecDeque::new(),
                deques: (0..workers).map(|_| VecDeque::new()).collect(),
            }),
            work: Condvar::new(),
            workers,
            idle: AtomicUsize::new(0),
        }
    }

    /// Locks the queues, recovering from poisoning: a panic inside the
    /// lock's critical sections is impossible by inspection (queue ops
    /// only), but an abort-free best effort beats wedging the whole pool.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.sync.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pushes a batch of jobs: onto the submitting worker's own deque when
    /// called from inside the pool, onto the shared injector otherwise.
    fn inject(&self, jobs: impl Iterator<Item = JobRef>) {
        let me = WORKER_INDEX.get();
        let mut queues = self.lock();
        match me {
            Some(index) => queues.deques[index].extend(jobs),
            None => queues.injector.extend(jobs),
        }
        drop(queues);
        self.work.notify_all();
    }
}

thread_local! {
    /// Which resident worker this thread is, if any; routes nested job
    /// submission to the worker's own deque.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

thread_local! {
    /// Width limit installed by [`ThreadPool::install`] — or re-installed
    /// around a job whose *submitter* had a limit; `None` falls back to
    /// the global pool size.
    static THREAD_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Global-pool configuration handshake between
/// [`ThreadPoolBuilder::build_global`] and the lazy first spawn.
struct GlobalConfig {
    requested: Option<usize>,
    started: bool,
}

static CONFIG: Mutex<GlobalConfig> = Mutex::new(GlobalConfig {
    requested: None,
    started: false,
});
static REGISTRY: OnceLock<Registry> = OnceLock::new();
static WORKERS_SPAWNED: OnceLock<()> = OnceLock::new();

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// The registry, creating it (and spawning its resident workers) on first
/// use. Worker spawn failures are tolerated: callers participate in
/// draining the queues while they wait, so the pool completes its jobs
/// even with fewer (or zero) live workers.
fn global_registry() -> &'static Registry {
    let registry = REGISTRY.get_or_init(|| {
        let mut config = CONFIG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        config.started = true;
        Registry::new(config.requested.unwrap_or_else(default_parallelism))
    });
    WORKERS_SPAWNED.get_or_init(|| {
        for index in 0..registry.workers {
            let _ = std::thread::Builder::new()
                .name(format!("wdte-pool-{index}"))
                .spawn(move || worker_loop(registry, index));
        }
    });
    registry
}

/// A resident worker: execute anything findable, sleep otherwise.
fn worker_loop(registry: &'static Registry, index: usize) {
    WORKER_INDEX.set(Some(index));
    let mut queues = registry.lock();
    loop {
        if let Some(job) = queues.find_job(Some(index)) {
            drop(queues);
            // Safety: popped from a queue, so we are the unique executor.
            unsafe { job.run() };
            queues = registry.lock();
        } else {
            registry.idle.fetch_add(1, Ordering::Relaxed);
            queues = registry.work.wait(queues).unwrap_or_else(std::sync::PoisonError::into_inner);
            registry.idle.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Worker count governing parallel pipelines on the *current* thread,
/// mirroring `rayon::current_num_threads`: the limit installed by the
/// innermost enclosing [`ThreadPool::install`] (which also travels with
/// jobs into the pool), else the global pool's size.
pub fn current_num_threads() -> usize {
    THREAD_LIMIT.get().unwrap_or_else(|| {
        if let Some(registry) = REGISTRY.get() {
            registry.workers
        } else {
            let config = CONFIG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            config.requested.unwrap_or_else(default_parallelism)
        }
    })
}

/// Restores the previous thread-local width limit on drop; used both by
/// `install` and around job execution (jobs carry their submitter's
/// limit).
struct ScopedLimit(Option<usize>);

impl ScopedLimit {
    fn apply(limit: Option<usize>) -> Self {
        let previous = THREAD_LIMIT.get();
        THREAD_LIMIT.set(limit);
        ScopedLimit(previous)
    }
}

impl Drop for ScopedLimit {
    fn drop(&mut self) {
        THREAD_LIMIT.set(self.0);
    }
}

// ---------------------------------------------------------------------------
// Task groups: join-until-done with caller participation
// ---------------------------------------------------------------------------

/// Completion tracking for one fan-out: a countdown latch plus the first
/// captured panic. Lives on the submitting thread's stack; jobs hold
/// `&TaskGroup`.
struct TaskGroup<'r> {
    registry: &'r Registry,
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<'r> TaskGroup<'r> {
    fn new(tasks: usize, registry: &'r Registry) -> Self {
        Self {
            registry,
            remaining: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
        }
    }

    /// Registers one more task in the group, for jobs that split while
    /// running. Only sound while the caller itself holds an uncompleted
    /// task of this group — its own count keeps `remaining` above zero,
    /// so the waiter can never observe a spurious zero mid-increment.
    fn add_one(&self) {
        self.remaining.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a panic payload; the first one wins and is re-thrown on the
    /// submitting thread once every sibling task has finished.
    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.get_or_insert(payload);
    }

    /// Marks one task complete. Taking the registry lock before notifying
    /// serializes against a waiter's check-then-wait, so the final wakeup
    /// can never be lost.
    fn complete_one(&self) {
        let _queues = self.registry.lock();
        self.remaining.fetch_sub(1, Ordering::Release);
        self.registry.work.notify_all();
    }

    fn done(&self) -> bool {
        // Acquire pairs with `complete_one`'s Release: once we observe 0,
        // every task's writes (result slots) are visible.
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Blocks until every task in the group has run — by executing queued
    /// jobs (its own sub-jobs first if on a worker, anyone's otherwise)
    /// rather than sleeping, which is what makes nested fan-outs
    /// deadlock-free.
    fn wait_until_done(&self) {
        let me = WORKER_INDEX.get();
        let mut queues = self.registry.lock();
        loop {
            if self.done() {
                break;
            }
            if let Some(job) = queues.find_job(me) {
                drop(queues);
                // Safety: popped from a queue, so we are the unique
                // executor. The stolen job may belong to a *different*
                // group; its panics are caught and routed to that group.
                unsafe { job.run() };
                queues = self.registry.lock();
            } else {
                // A parked waiter will execute jobs once woken, so it
                // counts as splittable demand like an idle worker.
                self.registry.idle.fetch_add(1, Ordering::Relaxed);
                queues = self
                    .registry
                    .work
                    .wait(queues)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                self.registry.idle.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Re-throws the first captured panic, if any. Called after
    /// `wait_until_done`, so no sibling task still references the group.
    fn propagate_panic(&self) {
        let payload = {
            let mut slot = self.panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            slot.take()
        };
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// The data-parallel surface: parallel_map and join
// ---------------------------------------------------------------------------

/// State one `parallel_map` fan-out shares between its (dynamically
/// split) range jobs, reached through raw pointers because the jobs are
/// type-erased. The creator blocks on the fan-out's [`TaskGroup`] until
/// every job has completed, so the pointees strictly outlive every job.
struct MapShared<F> {
    f: *const F,
    /// The submitter's width limit, re-installed around every job so
    /// nested fan-outs obey it wherever the job executes.
    limit: Option<usize>,
    /// Maximum outstanding tasks of this fan-out (`min(width, items)`).
    width: usize,
    /// Tasks of this fan-out currently queued or running.
    outstanding: AtomicUsize,
    registry: &'static Registry,
    group: *const TaskGroup<'static>,
}

impl<F> MapShared<F> {
    /// A job should split off half its remaining range only when someone
    /// is parked idle to take it and the fan-out's width cap leaves room.
    /// Plain relaxed loads: the signal is a heuristic — a missed beat
    /// delays a split by one item, it never affects correctness.
    fn should_split(&self) -> bool {
        self.outstanding.load(Ordering::Relaxed) < self.width
            && self.registry.idle.load(Ordering::Relaxed) > 0
    }
}

/// A contiguous sub-range of one `parallel_map` fan-out: the items still
/// to process and the result slot of the first of them. Heap-allocated
/// (unlike [`StackJob`]) because a splitting job hands its tail half to
/// the queues and moves on — there is no stack frame that could own it.
struct RangeJob<T, U, F> {
    items: VecDeque<T>,
    /// Result slot of `items[0]`; successive items fill successive slots.
    /// Sibling jobs hold disjoint slot ranges of one live `Vec`.
    slots: *mut Option<U>,
    shared: *const MapShared<F>,
}

impl<T: Send, U: Send, F: Fn(T) -> U + Sync> RangeJob<T, U, F> {
    /// Type-erases this job for the queues; the executor reclaims (and
    /// frees) the box.
    ///
    /// # Safety
    /// The returned `JobRef` must be executed exactly once, and the
    /// `MapShared` (with its `f`, group and result slots) must stay alive
    /// until the fan-out's group completes — guaranteed by the creator
    /// blocking in `wait_until_done` before any of them drop.
    unsafe fn into_job_ref(self: Box<Self>) -> JobRef {
        unsafe fn execute_erased<T: Send, U: Send, F: Fn(T) -> U + Sync>(data: *const ()) {
            // Safety: `data` came from `Box::into_raw` in `into_job_ref`
            // and the queues hand each ref to exactly one executor, so
            // reclaiming the box here is unique.
            let job = unsafe { Box::from_raw(data.cast_mut().cast::<RangeJob<T, U, F>>()) };
            job.run();
        }
        JobRef {
            data: Box::into_raw(self).cast_const().cast(),
            execute: execute_erased::<T, U, F>,
        }
    }

    /// Processes the range front to back, lazily splitting off the far
    /// half whenever idle demand is observed between items.
    fn run(mut self) {
        // SAFETY: `shared` lives in the creator's frame, and the creator
        // blocks on the task group until this job completes, so it is
        // alive for the duration of `run`.
        let shared = unsafe { &*self.shared };
        // SAFETY: the group is the one the creator is blocked on, so it
        // outlives every job counted against it, this one included.
        let group = unsafe { &*shared.group };
        // SAFETY: the closure is borrowed by the creator for its whole
        // call, which blocks until the group completes; `F: Sync`, and
        // jobs only take shared references to it.
        let f = unsafe { &*shared.f };
        let shared_ptr = self.shared;
        let mut items = std::mem::take(&mut self.items);
        let mut slot = self.slots;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _scope = ScopedLimit::apply(shared.limit);
            while let Some(item) = {
                if items.len() > 1 && shared.should_split() {
                    let keep = items.len().div_ceil(2);
                    let tail = items.split_off(keep);
                    // Register the new task before queueing it; sound
                    // because this job still holds its own count, so the
                    // group cannot drain concurrently.
                    group.add_one();
                    shared.outstanding.fetch_add(1, Ordering::Relaxed);
                    let tail_job = Box::new(RangeJob {
                        items: tail,
                        // Safety: the first `keep` slots stay with this
                        // job; the tail's range starts right after them,
                        // still inside the fan-out's live results vector.
                        slots: unsafe { slot.add(keep) },
                        shared: shared_ptr,
                    });
                    // Safety: queued jobs are always drained (by workers
                    // or the waiting creator) before the fan-out returns.
                    shared.registry.inject(std::iter::once(unsafe { tail_job.into_job_ref() }));
                }
                items.pop_front()
            } {
                // Safety: `slot` walks this job's disjoint slot range in
                // lockstep with the items popped off its front.
                unsafe {
                    *slot = Some(f(item));
                    slot = slot.add(1);
                }
            }
        }));
        shared.outstanding.fetch_sub(1, Ordering::Relaxed);
        if let Err(payload) = outcome {
            group.store_panic(payload);
        }
        group.complete_one();
    }
}

fn parallel_map<T: Send, U: Send, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let width = current_num_threads().min(n);
    if width <= 1 || n <= 1 {
        // Strictly serial, in input order, on the calling thread — the
        // width-1 determinism contract.
        return items.into_iter().map(f).collect();
    }

    let registry = global_registry();
    let mut results: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let group = TaskGroup::new(1, registry);
    let shared = MapShared {
        f: std::ptr::from_ref(f),
        limit: THREAD_LIMIT.get(),
        width,
        outstanding: AtomicUsize::new(1),
        registry,
        group: std::ptr::from_ref(&group),
    };
    let root = Box::new(RangeJob {
        items: VecDeque::from(items),
        slots: results.as_mut_ptr(),
        shared: std::ptr::from_ref(&shared),
    });
    // Safety: executed exactly once (queues pop each ref once); we block
    // on `group` below until the root and every job split off from it
    // complete, so `shared`, `group` and `results` outlive every job.
    registry.inject(std::iter::once(unsafe { root.into_job_ref() }));
    group.wait_until_done();
    group.propagate_panic();

    results
        .into_iter()
        .map(|slot| slot.expect("every slot is written by exactly one task"))
        .collect()
}

/// A detached, heap-allocated job for [`spawn`]: owns its closure and is
/// freed by whichever thread executes it. Unlike [`StackJob`] there is no
/// submitting stack frame to outlive — the box is the job's lifetime.
struct HeapJob<F> {
    func: F,
}

impl<F: FnOnce() + Send + 'static> HeapJob<F> {
    /// Type-erases this job for the queues; the executor reclaims (and
    /// frees) the box.
    ///
    /// # Safety
    /// The returned `JobRef` must be executed exactly once — guaranteed by
    /// the queues handing each ref to exactly one executor. (Jobs still
    /// queued at process exit are leaked, never double-run.)
    unsafe fn into_job_ref(self: Box<Self>) -> JobRef {
        unsafe fn execute_erased<F: FnOnce() + Send + 'static>(data: *const ()) {
            // Safety: `data` came from `Box::into_raw` in `into_job_ref`
            // and the queues hand each ref to exactly one executor, so
            // reclaiming the box here is unique.
            let job = unsafe { Box::from_raw(data.cast_mut().cast::<HeapJob<F>>()) };
            // A detached job has no waiting creator to re-throw into: the
            // panic is swallowed here so it cannot unwind through (and
            // permanently kill) a resident worker. Detached closures that
            // care route their own panics, as `rayon::spawn` documents.
            let _ = catch_unwind(AssertUnwindSafe(job.func));
        }
        JobRef {
            data: Box::into_raw(self).cast_const().cast(),
            execute: execute_erased::<F>,
        }
    }
}

/// Queues a detached fire-and-forget job onto the global pool — the shim's
/// `rayon::spawn`, and the bridge the readiness-driven judge server uses
/// to hand decoded requests to the pool. The closure runs on some resident
/// worker (or any thread draining the queues while waiting on its own
/// fan-out); nothing joins it, and a panic inside it is caught rather than
/// propagated. The submitting thread's width limit travels with the job,
/// like every other submission path.
pub fn spawn<F: FnOnce() + Send + 'static>(f: F) {
    let registry = global_registry();
    let limit = THREAD_LIMIT.get();
    let job = Box::new(HeapJob {
        func: move || {
            let _scope = ScopedLimit::apply(limit);
            f();
        },
    });
    // Safety: executed exactly once by whichever thread pops it; the job
    // owns all of its state, so there is no lifetime to uphold.
    registry.inject(std::iter::once(unsafe { job.into_job_ref() }));
}

/// Runs the two closures, potentially in parallel, and returns both
/// results — the shim's `rayon::join`. `oper_a` runs on the calling
/// thread; `oper_b` is pushed onto the pool (and reclaimed by the caller
/// itself if no worker takes it first). Under a width limit of 1 both run
/// serially, in order, on the calling thread.
///
/// If either closure panics the panic is re-thrown on the caller, but
/// only after *both* closures have finished, so neither side ever
/// observes the other's borrows dangling.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let result_a = oper_a();
        let result_b = oper_b();
        return (result_a, result_b);
    }
    let registry = global_registry();
    let group = TaskGroup::new(1, registry);
    let limit = THREAD_LIMIT.get();
    let group_ref = &group;
    let slot_b: Mutex<Option<RB>> = Mutex::new(None);
    let slot_ref = &slot_b;
    let job = StackJob::new(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _scope = ScopedLimit::apply(limit);
            oper_b()
        }));
        match outcome {
            Ok(result) => {
                *slot_ref.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result)
            }
            Err(payload) => group_ref.store_panic(payload),
        }
        group_ref.complete_one();
    });
    // Safety: we wait on `group` before `job` drops.
    registry.inject(std::iter::once(unsafe { job.as_job_ref() }));
    let result_a = catch_unwind(AssertUnwindSafe(oper_a));
    group.wait_until_done();
    drop(job);
    match result_a {
        Err(payload) => resume_unwind(payload),
        Ok(result_a) => {
            group.propagate_panic();
            let result_b = slot_b
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("oper_b completed without panicking");
            (result_a, result_b)
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel iterators
// ---------------------------------------------------------------------------

/// An eager parallel iterator over an already-materialized list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// A parallel iterator with a pending `map` stage.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    /// Pairs this iterator with another, element by element.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Applies `f` to every element in parallel (on `collect`).
    pub fn map<U: Send, F>(self, f: F) -> ParMap<T, F>
    where
        F: Fn(T) -> U + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Collects the items back into a vector (no-op pass-through).
    pub fn collect(self) -> Vec<T> {
        self.items
    }
}

impl<T: Send, U: Send, F> ParMap<T, F>
where
    F: Fn(T) -> U + Sync,
{
    /// Runs the mapped pipeline across the pool and collects results in
    /// input order.
    pub fn collect(self) -> Vec<U> {
        parallel_map(self.items, &self.f)
    }
}

// ---------------------------------------------------------------------------
// ThreadPoolBuilder / ThreadPool
// ---------------------------------------------------------------------------

/// Configures a [`ThreadPool`] handle or the global pool, mirroring
/// rayon's builder API.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error of [`ThreadPoolBuilder::build`] / [`ThreadPoolBuilder::build_global`].
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    message: &'static str,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (automatic) worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker count; `0` keeps the automatic default.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds a pool handle. Never fails (the `Result` mirrors rayon's
    /// signature) and spawns no threads: the handle scopes a width limit
    /// over the shared global pool, so building and dropping pools is
    /// free, however often a caller churns them.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }

    /// Sizes the process-global pool, like rayon's `build_global`: the
    /// place a binary decides its parallelism once (`serve_judge
    /// --workers N`). Fails on every call after the first — whether the
    /// pool's resident threads already started or an earlier sizing is
    /// merely pending — matching rayon's first-call-wins contract.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let mut config = CONFIG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if config.started || config.requested.is_some() {
            return Err(ThreadPoolBuildError {
                message: "the global thread pool has already been initialized",
            });
        }
        config.requested = Some(if self.num_threads == 0 {
            default_parallelism()
        } else {
            self.num_threads
        });
        Ok(())
    }
}

/// A handle scoping a worker-count override over the shared global pool,
/// mirroring rayon's pool API. The handle owns no threads: jobs spawned
/// under [`install`](ThreadPool::install) run on the global pool's
/// resident workers, constrained to this handle's width.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's width limit in effect, restoring the
    /// previous limit afterwards (also on panic). The limit travels with
    /// every job `f` spawns, so nested fan-outs obey it on whichever
    /// worker thread they land; `num_threads(1)` runs every pipeline
    /// reached from `f` strictly serially on the calling thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _scope = ScopedLimit::apply((self.num_threads > 0).then_some(self.num_threads));
        f()
    }

    /// The pinned width (`0` = automatic, i.e. the global pool's size).
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for core::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Borrowing conversion into a parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed element type.
    type Item: Send + 'a;

    /// Returns a parallel iterator over borrowed elements.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The traits users import wholesale, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A pool wide enough that the single-core CI container still
    /// exercises the queue machinery (width 1 would short-circuit to the
    /// serial path).
    fn wide_pool() -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new().num_threads(4).build().unwrap()
    }

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = wide_pool().install(|| input.par_iter().map(|&x| x * 2).collect());
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_over_ranges() {
        let squares: Vec<usize> =
            wide_pool().install(|| (0..100usize).into_par_iter().map(|x| x * x).collect());
        assert_eq!(squares[9], 81);
        assert_eq!(squares.len(), 100);
    }

    #[test]
    fn zip_pairs_elements() {
        let a = vec![1, 2, 3];
        let b = vec!["x", "y", "z"];
        let pairs: Vec<(i32, &str)> = a.par_iter().zip(b.par_iter()).map(|(&n, &s)| (n, s)).collect();
        assert_eq!(pairs, vec![(1, "x"), (2, "y"), (3, "z")]);
    }

    #[test]
    fn nested_parallel_iterators_fan_out_and_stay_ordered() {
        // Three levels deep: the defining upgrade over the chunk-and-join
        // shim, which serialized everything below the first level.
        let out: Vec<Vec<Vec<usize>>> = wide_pool().install(|| {
            (0..4usize)
                .into_par_iter()
                .map(|i| -> Vec<Vec<usize>> {
                    (0..4usize)
                        .into_par_iter()
                        .map(|j| -> Vec<usize> {
                            (0..4usize).into_par_iter().map(|k| i * 100 + j * 10 + k).collect()
                        })
                        .collect()
                })
                .collect()
        });
        for (i, middle) in out.iter().enumerate() {
            for (j, inner) in middle.iter().enumerate() {
                for (k, &value) in inner.iter().enumerate() {
                    assert_eq!(value, i * 100 + j * 10 + k);
                }
            }
        }
    }

    #[test]
    fn nested_jobs_can_execute_on_pool_workers() {
        // With a wide pool, inner jobs are *allowed* to land on other
        // threads (the old shim pinned them to the outer worker). On a
        // single-core host everything may still run on one thread, so only
        // assert the distribution is sane, not that it spread.
        let ids: Vec<std::thread::ThreadId> = wide_pool().install(|| {
            let nested: Vec<Vec<std::thread::ThreadId>> = (0..8usize)
                .into_par_iter()
                .map(|_| -> Vec<std::thread::ThreadId> {
                    (0..8usize).into_par_iter().map(|_| std::thread::current().id()).collect()
                })
                .collect();
            nested.into_iter().flatten().collect()
        });
        assert_eq!(ids.len(), 64);
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(!distinct.is_empty());
    }

    #[test]
    fn single_thread_pool_runs_everything_on_the_calling_thread() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| {
                    // The limit must reach nested fan-outs too.
                    let inner: Vec<std::thread::ThreadId> =
                        (0..4usize).into_par_iter().map(|_| std::thread::current().id()).collect();
                    assert!(inner.iter().all(|&id| id == caller));
                    std::thread::current().id()
                })
                .collect()
        });
        assert!(ids.iter().all(|&id| id == caller));
        // The override is scoped: after install the limit is gone.
        assert_eq!(crate::THREAD_LIMIT.get(), None);
    }

    #[test]
    fn pool_results_match_the_serial_schedule() {
        let serial: Vec<usize> = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| (0..100usize).into_par_iter().map(|x| x * 3).collect());
        let parallel: Vec<usize> =
            wide_pool().install(|| (0..100usize).into_par_iter().map(|x| x * 3).collect());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn width_one_is_strictly_serial_in_input_order() {
        // The determinism contract: a width-1 fan-out never creates a
        // job — items run in input order on the calling thread, so even
        // side-effect order is the serial schedule's.
        let order = std::sync::Mutex::new(Vec::new());
        let pool = crate::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let out: Vec<usize> = pool.install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|i| {
                    order.lock().unwrap().push(i);
                    i * 2
                })
                .collect()
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn lazy_splitting_outputs_match_for_every_width() {
        // The split schedule adapts to observed idleness and so differs
        // run to run — the collected results must not. A small nested
        // fan-out plus a spin keeps jobs long enough for real splits.
        let reference: Vec<usize> =
            (0..200usize).map(|x| x.wrapping_mul(2654435761).rotate_left(7) % 977).collect();
        for width in 1..=8usize {
            let pool = crate::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let out: Vec<usize> = pool.install(|| {
                (0..200usize)
                    .into_par_iter()
                    .map(|x| {
                        std::hint::black_box((0..50).fold(0u64, |a, b| a ^ b));
                        x.wrapping_mul(2654435761).rotate_left(7) % 977
                    })
                    .collect()
            });
            assert_eq!(out, reference, "width {width}");
        }
    }

    #[test]
    fn lazy_splits_fill_every_slot_under_contention() {
        // Force genuine splitting: long-ish items, parked workers, and a
        // count that should leave split demand observable throughout.
        let hits = AtomicUsize::new(0);
        let out: Vec<usize> = wide_pool().install(|| {
            (0..512usize)
                .into_par_iter()
                .map(|i| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    std::hint::black_box((0..200).fold(i as u64, |a, b| a.wrapping_add(b)));
                    i
                })
                .collect()
        });
        assert_eq!(hits.load(Ordering::Relaxed), 512);
        assert_eq!(out, (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both_results_and_propagates_limits() {
        let (a, b): (Vec<usize>, Vec<usize>) = wide_pool().install(|| {
            crate::join(
                || (0..32usize).into_par_iter().map(|x| x + 1).collect(),
                || (0..32usize).into_par_iter().map(|x| x * 2).collect(),
            )
        });
        assert_eq!(a, (1..=32).collect::<Vec<_>>());
        assert_eq!(b, (0..32).map(|x| x * 2).collect::<Vec<_>>());

        let caller = std::thread::current().id();
        let pool = crate::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let (ta, tb) =
            pool.install(|| crate::join(|| std::thread::current().id(), || std::thread::current().id()));
        assert_eq!((ta, tb), (caller, caller));
    }

    #[test]
    fn panics_propagate_and_the_pool_survives() {
        let attempt = std::panic::catch_unwind(|| -> Vec<usize> {
            wide_pool().install(|| {
                (0..64usize)
                    .into_par_iter()
                    .map(|i| if i == 17 { panic!("boom at {i}") } else { i })
                    .collect()
            })
        });
        assert!(attempt.is_err(), "the job panic must reach the caller");
        // The pool keeps serving after a panicked fan-out.
        let recovered: Vec<usize> =
            wide_pool().install(|| (0..64usize).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(recovered.len(), 64);
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let a_panics =
            std::panic::catch_unwind(|| wide_pool().install(|| crate::join(|| panic!("left"), || 2)));
        assert!(a_panics.is_err());
        let b_panics = std::panic::catch_unwind(|| {
            wide_pool().install(|| crate::join(|| 1, || -> usize { panic!("right") }))
        });
        assert!(b_panics.is_err());
        let (a, b) = wide_pool().install(|| crate::join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn every_panicking_sibling_still_counts_down() {
        // All tasks panic; the caller must still be released (a lost
        // countdown would hang this test forever) and see a panic.
        let attempt = std::panic::catch_unwind(|| -> Vec<usize> {
            wide_pool().install(|| {
                (0..16usize).into_par_iter().map(|i| -> usize { panic!("task {i}") }).collect()
            })
        });
        assert!(attempt.is_err());
    }

    #[test]
    fn pool_churn_and_reuse_is_cheap_and_correct() {
        // Handles own no threads, so building hundreds of pools (the old
        // per-connection server pattern) costs nothing and every width
        // yields the same stitched output.
        let expected: Vec<usize> = (0..50).map(|x| x * 7).collect();
        for round in 0..200 {
            let pool = crate::ThreadPoolBuilder::new().num_threads(1 + round % 8).build().unwrap();
            let out: Vec<usize> = pool.install(|| (0..50usize).into_par_iter().map(|x| x * 7).collect());
            assert_eq!(out, expected, "round {round}");
        }
    }

    #[test]
    fn deep_nesting_under_contention_terminates() {
        // Many concurrent OS threads each drive a nested pipeline through
        // the one shared pool; every item must come back exactly once.
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let total: usize = wide_pool().install(|| {
                        let nested: Vec<Vec<usize>> = (0..8usize)
                            .into_par_iter()
                            .map(|i| -> Vec<usize> {
                                (0..8usize).into_par_iter().map(|j| i + j).collect()
                            })
                            .collect();
                        nested.into_iter().flatten().sum()
                    });
                    counter.fetch_add(total, Ordering::Relaxed);
                });
            }
        });
        // 4 threads × sum_{i,j in 0..8} (i+j) = 4 × 448.
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 448);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn spawn_runs_detached_jobs_and_survives_their_panics() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel::<usize>();
        for i in 0..16usize {
            let tx = tx.clone();
            crate::spawn(move || {
                // Detached jobs may themselves fan out on the pool.
                let doubled: Vec<usize> = vec![i, i].into_par_iter().map(|x| x * 2).collect();
                let _ = tx.send(doubled[0]);
            });
        }
        let mut seen: Vec<usize> = (0..16)
            .map(|_| rx.recv_timeout(std::time::Duration::from_secs(30)).expect("spawned job ran"))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        // A panicking detached job must not take a resident worker down:
        // jobs spawned afterwards still run.
        crate::spawn(|| panic!("detached boom"));
        let (tx2, rx2) = mpsc::channel::<u8>();
        crate::spawn(move || {
            let _ = tx2.send(7);
        });
        assert_eq!(rx2.recv_timeout(std::time::Duration::from_secs(30)), Ok(7));
    }
}
