//! Minimal deterministic data-parallel runtime (no external dependencies).
//!
//! The pool serves coarse-grained work only: [`par_map`] over whole
//! experiment cells, each of which runs a complete simulation. Tensor
//! kernels do not use it. Every kernel in a training step is small (the
//! largest CipherNet GEMM at LBS 32 is 4608×9×4), so a fork-join dispatch
//! per kernel cost more CPU than the arithmetic it spread out; the kernels
//! run on the thread that calls them.
//!
//! A lazily-spawned, persistent worker pool executes indexed task batches:
//! [`run`] hands each index in `0..n_tasks` to exactly one thread, with the
//! submitting thread participating. Determinism rule: tasks must write only
//! to disjoint data decided by their index, and every per-element reduction
//! must happen inside a single task with a fixed-order loop. Under that
//! rule the result is bit-identical to serial execution regardless of how
//! indices are interleaved across threads.
//!
//! The pool is intentionally simple:
//! * one batch in flight at a time — a second submitter (or a task that
//!   itself calls [`run`]) falls back to inline serial execution, so nesting
//!   can never deadlock;
//! * work is claimed from an atomic counter, so load balancing is dynamic
//!   while output placement stays index-addressed and deterministic;
//! * on single-core machines (`available_parallelism() == 1`) no worker
//!   threads are spawned and every batch runs inline.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// A `*const dyn Fn(usize)` that may cross thread boundaries. Validity is
/// guaranteed by [`run`]: the submitter does not return until every worker
/// has finished the batch, so the borrow outlives all uses.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync`, so sharing it across threads is sound, and
// `run` keeps the referent alive until every worker has dropped its use.
unsafe impl Send for JobPtr {}

struct PoolState {
    generation: u64,
    job: Option<JobPtr>,
    /// Workers still running the current generation.
    workers_left: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
    next_task: AtomicUsize,
    n_tasks: AtomicUsize,
    n_workers: usize,
}

/// Set while the pool is executing a batch; a concurrent submitter runs
/// its batch inline instead of queueing (prevents nested deadlock).
static BUSY: AtomicBool = AtomicBool::new(false);
static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on dedicated pool worker threads: nested `run` calls from
    /// inside a task body always execute inline.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker threads beyond the submitting thread.
pub fn extra_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(0)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let n_workers = extra_workers();
        Pool {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                workers_left: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next_task: AtomicUsize::new(0),
            n_tasks: AtomicUsize::new(0),
            n_workers,
        }
    })
}

fn spawn_workers(p: &'static Pool) {
    static SPAWNED: AtomicBool = AtomicBool::new(false);
    if SPAWNED.swap(true, Ordering::SeqCst) {
        return;
    }
    for w in 0..p.n_workers {
        std::thread::Builder::new()
            .name(format!("dlion-par-{w}"))
            .spawn(move || {
                IS_POOL_WORKER.with(|f| f.set(true));
                let mut seen_gen = 0u64;
                loop {
                    let job = {
                        let mut st = p.state.lock().expect("pool mutex");
                        while st.generation == seen_gen {
                            st = p.work_cv.wait(st).expect("pool condvar");
                        }
                        seen_gen = st.generation;
                        st.job.expect("generation advanced without a job")
                    };
                    // SAFETY: `run` published this pointer for the current
                    // generation and blocks until `workers_left` reaches
                    // zero, which happens only after this `drain` returns.
                    let f = unsafe { &*job.0 };
                    drain(p, f);
                    let mut st = p.state.lock().expect("pool mutex");
                    st.workers_left -= 1;
                    if st.workers_left == 0 {
                        p.done_cv.notify_all();
                    }
                }
            })
            .expect("spawn pool worker");
    }
}

/// Claim and execute tasks until the batch counter is exhausted.
fn drain(p: &Pool, f: &(dyn Fn(usize) + Sync)) {
    let n = p.n_tasks.load(Ordering::Acquire);
    loop {
        let i = p.next_task.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        f(i);
    }
}

/// Execute `f(0), f(1), ..., f(n_tasks - 1)` across the pool (or inline when
/// the pool is busy, nested, or the machine is single-core). Blocks until
/// every task has completed.
pub fn run(n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_tasks == 0 {
        return;
    }
    let serial = || {
        for i in 0..n_tasks {
            f(i);
        }
    };
    if n_tasks == 1 || extra_workers() == 0 || IS_POOL_WORKER.with(|w| w.get()) {
        return serial();
    }
    if BUSY
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        return serial();
    }
    let p = pool();
    spawn_workers(p);
    // Publish the batch: counters first, then the generation bump that
    // wakes workers (the mutex orders both for every waiter).
    let erased: &(dyn Fn(usize) + Sync) = f;
    // SAFETY: the transmute only erases the borrow's lifetime so it fits in
    // the `'static` pool state. `run` does not return before every worker
    // has finished the batch and `st.job` is cleared, so no use outlives `f`.
    let job = JobPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(erased)
    });
    {
        let mut st = p.state.lock().expect("pool mutex");
        p.next_task.store(0, Ordering::Relaxed);
        p.n_tasks.store(n_tasks, Ordering::Release);
        st.job = Some(job);
        st.generation += 1;
        st.workers_left = p.n_workers;
        p.work_cv.notify_all();
    }
    // The submitter is a full participant.
    drain(p, f);
    let mut st = p.state.lock().expect("pool mutex");
    while st.workers_left > 0 {
        st = p.done_cv.wait(st).expect("pool condvar");
    }
    st.job = None;
    drop(st);
    BUSY.store(false, Ordering::Release);
}

/// Raw pointer wrapper so task closures (which must be `Sync`) can carry a
/// mutable base pointer; soundness comes from tasks touching disjoint
/// index-derived regions only.
struct SendPtr<T>(*mut T);
// SAFETY: the one field is a base pointer that tasks only write through,
// each to its own index-derived slot, so no two threads touch the same `T`;
// `T: Send` makes it sound to store a `T` from another thread.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessed through a method so closures capture the `Sync` wrapper,
    /// not the raw pointer field (2021-edition disjoint capture).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Parallel map over a slice with results collected in input (index) order,
/// independent of execution interleaving.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let base = SendPtr(out.as_mut_ptr());
    run(items.len(), &|i| {
        let v = f(&items[i]);
        // SAFETY: `i < items.len() == out.len()`, `run` hands each index to
        // exactly one task, and `out` is neither moved nor read until `run`
        // returns, so this is the only access to slot `i`.
        unsafe { *base.get().add(i) = Some(v) };
    });
    out.into_iter()
        .map(|o| o.expect("pool task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_covers_every_index_once() {
        let n = 997;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<usize> = (0..2048).collect();
        let ys = par_map(&xs, |&x| x * x);
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(*y, i * i);
        }
    }

    #[test]
    fn nested_run_falls_back_to_serial() {
        let total = AtomicUsize::new(0);
        run(8, &|_| {
            run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_and_single() {
        run(0, &|_| panic!("no tasks to run"));
        let called = AtomicUsize::new(0);
        run(1, &|i| {
            assert_eq!(i, 0);
            called.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(called.load(Ordering::Relaxed), 1);
        let empty: Vec<u8> = vec![];
        assert!(par_map(&empty, |_| 0u8).is_empty());
    }
}
