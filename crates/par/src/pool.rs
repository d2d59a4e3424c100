//! The work-stealing pool: sharding, worker loops, steal protocol.
//!
//! Deques are `Mutex<VecDeque<usize>>` — the workspace forbids `unsafe`, so
//! a lock-free Chase-Lev deque is off the table. Campaign tasks are
//! milliseconds each, which dwarfs an uncontended lock; the steal protocol
//! moves half a victim's queue per steal so lock traffic stays O(log n) per
//! worker, not O(n).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{CancelToken, XorShift64};

/// How task indices are dealt onto worker deques before execution starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan {
    /// Contiguous, evenly-sized shards — one per worker. The default: keeps
    /// index locality (adjacent campaign cells share a layer) and lets
    /// stealing correct any cost imbalance.
    Balanced,
    /// Blocks of the given size dealt round-robin across workers. Smaller
    /// blocks raise steal pressure; used by the concurrency stress tests.
    RoundRobin(usize),
    /// Every task starts on worker 0, so all other workers can make
    /// progress only by stealing — maximum steal pressure, used to prove
    /// the steal path end to end.
    Funnel,
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// Worker threads. Clamped to `1..=tasks` at run time.
    pub workers: usize,
    /// Seed for the victim-probe streams (scheduling noise must be
    /// reproducible, never ambient).
    pub seed: u64,
    /// Initial task distribution.
    pub plan: ShardPlan,
    /// Cooperative cancellation. Once the token fires, queued tasks are
    /// drained without executing (counted in [`RunStats::skipped`]); tasks
    /// already executing run to completion. `None` never cancels.
    pub cancel: Option<CancelToken>,
}

impl PoolSpec {
    /// A balanced pool with the given worker count.
    pub fn new(workers: usize) -> Self {
        PoolSpec {
            workers,
            seed: 0x5EED_F1DE,
            plan: ShardPlan::Balanced,
            cancel: None,
        }
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// What a finished run did, aggregated over all workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Tasks executed (always equals the task count: exactly-once).
    pub executed: u64,
    /// Tasks that ran on a worker other than the one they were dealt to.
    pub stolen: u64,
    /// Tasks whose closure panicked (payload re-raised by [`WorkStealPool::run`]).
    pub panicked: u64,
    /// Tasks drained without executing because the run was cancelled.
    /// `executed + skipped` always equals the task count.
    pub skipped: u64,
    /// Workers that actually ran (after clamping).
    pub workers: usize,
}

/// A work-stealing thread pool executing indexed tasks.
///
/// The pool is configuration only; workers are spawned scoped inside each
/// [`WorkStealPool::run`] call and have all exited when it returns, so there
/// is nothing to shut down and no thread can leak.
#[derive(Debug, Clone)]
pub struct WorkStealPool {
    spec: PoolSpec,
}

/// Shared run state: per-worker deques plus the open-task count that drives
/// termination.
struct Shared {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks not yet finished (queued or executing). Workers exit when this
    /// reaches zero; a non-empty queue guarantees it is non-zero, so no task
    /// can be stranded.
    remaining: AtomicUsize,
    executed: AtomicU64,
    stolen: AtomicU64,
    panicked: AtomicU64,
    skipped: AtomicU64,
    /// First panic payload, re-raised after the run drains.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Locks, recovering from poisoning: the pool's own bookkeeping never
/// panics while holding a lock, and task panics are caught before any lock
/// is touched, so a poisoned mutex still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkStealPool {
    /// A pool with the given spec.
    pub fn new(spec: PoolSpec) -> Self {
        WorkStealPool { spec }
    }

    /// Executes `f(0), f(1), …, f(tasks - 1)`, each exactly once, across the
    /// configured workers, and blocks until all have finished.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic — after every other task has run, so
    /// callers that catch it still observe a fully-drained run.
    pub fn run<F>(&self, tasks: usize, f: F) -> RunStats
    where
        F: Fn(usize) + Sync,
    {
        let (stats, payload) = self.run_catching(tasks, f);
        if let Some(p) = payload {
            resume_unwind(p);
        }
        stats
    }

    /// Like [`WorkStealPool::run`], but returns the first panic payload
    /// instead of re-raising it. Used by callers (and the concurrency
    /// stress tests) that need the run statistics even on the panic path.
    pub fn run_catching<F>(
        &self,
        tasks: usize,
        f: F,
    ) -> (RunStats, Option<Box<dyn std::any::Any + Send>>)
    where
        F: Fn(usize) + Sync,
    {
        self.run_with_catching(tasks, |_| (), |(), idx| f(idx))
    }

    /// Like [`WorkStealPool::run`], but every worker owns a mutable state
    /// value built by `init(worker_index)` before its first task; each task
    /// the worker executes (own or stolen) receives `&mut` to that state.
    ///
    /// Worker state exists for allocation reuse only (e.g. one tensor
    /// workspace per campaign worker). Which tasks share a state value
    /// depends on scheduling, so state must never influence task results —
    /// the pool's determinism contract assumes exactly that.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic, as [`WorkStealPool::run`] does. A
    /// panicking task may leave its worker's state partially updated; the
    /// state is still reused for subsequent tasks, which is sound only
    /// under the results-independence rule above.
    pub fn run_with<S, I, F>(&self, tasks: usize, init: I, f: F) -> RunStats
    where
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        let (stats, payload) = self.run_with_catching(tasks, init, f);
        if let Some(p) = payload {
            resume_unwind(p);
        }
        stats
    }

    /// [`WorkStealPool::run_with`] returning the first panic payload instead
    /// of re-raising it.
    pub fn run_with_catching<S, I, F>(
        &self,
        tasks: usize,
        init: I,
        f: F,
    ) -> (RunStats, Option<Box<dyn std::any::Any + Send>>)
    where
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        let workers = self.spec.workers.clamp(1, tasks.max(1));
        let shared = Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(tasks),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            payload: Mutex::new(None),
        };
        distribute(&shared, tasks, workers, self.spec.plan);
        if tasks > 0 {
            std::thread::scope(|s| {
                for w in 0..workers {
                    let shared = &shared;
                    let init = &init;
                    let f = &f;
                    let seed = self.spec.seed;
                    let cancel = self.spec.cancel.clone();
                    s.spawn(move || {
                        let mut state = init(w);
                        worker_loop(w, seed, cancel, shared, &mut state, f);
                    });
                }
            });
        }
        let stats = RunStats {
            executed: shared.executed.load(Ordering::Relaxed),
            stolen: shared.stolen.load(Ordering::Relaxed),
            panicked: shared.panicked.load(Ordering::Relaxed),
            skipped: shared.skipped.load(Ordering::Relaxed),
            workers,
        };
        let payload = lock(&shared.payload).take();
        (stats, payload)
    }
}

/// Convenience: run `tasks` over `workers` balanced workers.
pub fn run_indexed<F>(workers: usize, tasks: usize, f: F) -> RunStats
where
    F: Fn(usize) + Sync,
{
    WorkStealPool::new(PoolSpec::new(workers)).run(tasks, f)
}

/// Deals task indices onto the worker deques per the shard plan.
fn distribute(shared: &Shared, tasks: usize, workers: usize, plan: ShardPlan) {
    match plan {
        ShardPlan::Balanced => {
            // Contiguous shards; the first `tasks % workers` shards take the
            // extra task.
            let base = tasks / workers;
            let extra = tasks % workers;
            let mut next = 0usize;
            for w in 0..workers {
                let len = base + usize::from(w < extra);
                lock(&shared.queues[w]).extend(next..next + len);
                next += len;
            }
        }
        ShardPlan::RoundRobin(block) => {
            let block = block.max(1);
            let mut w = 0usize;
            let mut idx = 0usize;
            while idx < tasks {
                let end = (idx + block).min(tasks);
                lock(&shared.queues[w]).extend(idx..end);
                idx = end;
                w = (w + 1) % workers;
            }
        }
        ShardPlan::Funnel => {
            lock(&shared.queues[0]).extend(0..tasks);
        }
    }
}

fn worker_loop<S, F: Fn(&mut S, usize) + Sync>(
    w: usize,
    seed: u64,
    cancel: Option<CancelToken>,
    shared: &Shared,
    state: &mut S,
    f: &F,
) {
    let nworkers = shared.queues.len();
    let mut rng = XorShift64::new(seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    loop {
        // Cooperative cancellation: drain the local deque without executing,
        // then spin down once every in-flight task elsewhere has finished.
        // Each queue is drained by its owning worker, so no task is stranded
        // and `remaining` still reaches zero.
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            let drained: Vec<usize> = lock(&shared.queues[w]).drain(..).collect();
            for _ in &drained {
                shared.skipped.fetch_add(1, Ordering::Relaxed);
                shared.remaining.fetch_sub(1, Ordering::Release);
            }
            if shared.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        // Own work first: pop the front of the local deque, so a worker
        // drains its shard in ascending index order. Consumers that commit
        // results in index order (the campaign's ordered checkpoint buffer)
        // rely on this: the single-worker schedule is exactly 0, 1, 2, …,
        // and under contention each shard still completes front-first.
        let own = lock(&shared.queues[w]).pop_front();
        if let Some(idx) = own {
            execute(idx, shared, state, f);
            continue;
        }
        if shared.remaining.load(Ordering::Acquire) == 0 {
            break;
        }
        // Steal round: probe victims from a seeded-random start so thieves
        // don't convoy on worker 0. Taking half the victim's back moves
        // O(queue) work per successful steal while leaving the victim the
        // low-indexed half it was about to commit.
        let mut got = None;
        if nworkers > 1 {
            let start = rng.below(nworkers as u64) as usize;
            for probe in 0..nworkers {
                let victim = (start + probe) % nworkers;
                if victim == w {
                    continue;
                }
                let batch = {
                    let mut q = lock(&shared.queues[victim]);
                    let keep = q.len() / 2;
                    q.split_off(keep).into_iter().collect::<Vec<usize>>()
                };
                if let Some((&first, rest)) = batch.split_first() {
                    shared
                        .stolen
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    if !rest.is_empty() {
                        lock(&shared.queues[w]).extend(rest.iter().copied());
                    }
                    got = Some(first);
                    break;
                }
            }
        }
        match got {
            Some(idx) => execute(idx, shared, state, f),
            None => {
                // Every queue looked empty but tasks are still executing on
                // other workers. Tasks never enqueue new work, so this tail
                // lasts at most one task's duration — yield, don't sleep.
                if shared.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
}

fn execute<S, F: Fn(&mut S, usize) + Sync>(idx: usize, shared: &Shared, state: &mut S, f: &F) {
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(state, idx))) {
        shared.panicked.fetch_add(1, Ordering::Relaxed);
        let mut slot = lock(&shared.payload);
        if slot.is_none() {
            *slot = Some(p);
        }
    }
    shared.executed.fetch_add(1, Ordering::Relaxed);
    // Release pairs with the Acquire in the exit check: a worker observing
    // zero sees every task's effects.
    shared.remaining.fetch_sub(1, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_every_task_exactly_once_balanced() {
        let counts: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
        let stats = run_indexed(4, counts.len(), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.executed, 257);
        assert_eq!(stats.panicked, 0);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// Under the funnel plan every task starts on worker 0's deque, so a
    /// task that runs on any other worker was stolen. Task 0 blocks until
    /// such a task has run, which makes `stolen > 0` hold by construction
    /// rather than racing busy work against thread start-up.
    #[test]
    fn funnel_forces_steals() {
        use std::sync::mpsc;
        use std::time::Duration;
        let pool = WorkStealPool::new(PoolSpec {
            workers: 4,
            seed: 1,
            plan: ShardPlan::Funnel,
            cancel: None,
        });
        let counts: Vec<AtomicU32> = (0..512).map(|_| AtomicU32::new(0)).collect();
        let (stolen_ran, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let stats = pool.run_with(
            counts.len(),
            |worker| worker,
            |&mut worker, i| {
                if worker != 0 {
                    let _ = stolen_ran.send(());
                }
                if i == 0 {
                    lock(&wait)
                        .recv_timeout(Duration::from_secs(60))
                        .expect("no stolen task ran within 60 s");
                }
                counts[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(stats.executed, 512);
        assert!(stats.stolen > 0, "funnel run must steal: {stats:?}");
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// A single worker must execute its shard in ascending index order —
    /// the campaign's ordered checkpoint commit depends on the serial
    /// schedule being exactly 0, 1, 2, … so an interrupted run leaves a
    /// deterministic prefix on disk.
    #[test]
    fn single_worker_runs_in_index_order() {
        let order = Mutex::new(Vec::new());
        for plan in [ShardPlan::Balanced, ShardPlan::Funnel] {
            lock(&order).clear();
            let pool = WorkStealPool::new(PoolSpec {
                workers: 1,
                seed: 5,
                plan,
                cancel: None,
            });
            pool.run(50, |i| lock(&order).push(i));
            assert_eq!(*lock(&order), (0..50).collect::<Vec<_>>(), "{plan:?}");
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let stats = run_indexed(8, 0, |_| panic!("must not run"));
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.panicked, 0);
    }

    /// Cancellation mid-run: every task is either executed or skipped
    /// (never lost, never both), and no task starts after the drain begins.
    #[test]
    fn cancel_drains_without_losing_tasks() {
        let token = CancelToken::new();
        let pool = WorkStealPool::new(PoolSpec {
            workers: 4,
            seed: 3,
            plan: ShardPlan::Balanced,
            cancel: Some(token.clone()),
        });
        let ran: Vec<AtomicU32> = (0..400).map(|_| AtomicU32::new(0)).collect();
        let stats = pool.run(ran.len(), |i| {
            if i == 5 {
                token.cancel();
            }
            // Slow tasks keep queues non-empty when the cancel lands.
            for s in 0..20_000u64 {
                std::hint::black_box(s.wrapping_mul(i as u64));
            }
            ran[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.executed + stats.skipped, 400, "{stats:?}");
        assert!(stats.skipped > 0, "cancel must skip queued work: {stats:?}");
        let executed: u64 = ran
            .iter()
            .map(|c| u64::from(c.load(Ordering::Relaxed)))
            .sum();
        assert_eq!(executed, stats.executed, "skipped tasks must not run");
        assert!(ran.iter().all(|c| c.load(Ordering::Relaxed) <= 1));
    }

    /// A token cancelled before the run starts skips everything.
    #[test]
    fn pre_cancelled_run_executes_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let pool = WorkStealPool::new(PoolSpec::new(4).with_cancel(token));
        let stats = pool.run(64, |_| panic!("must not run"));
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.skipped, 64);
    }

    #[test]
    fn workers_clamp_to_task_count() {
        let stats = run_indexed(64, 3, |_| {});
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.executed, 3);
    }

    #[test]
    fn panic_is_contained_then_reraised() {
        let counts: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let pool = WorkStealPool::new(PoolSpec::new(4));
        let (stats, payload) = pool.run_catching(counts.len(), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            if i == 17 {
                panic!("task 17 is poisoned");
            }
        });
        assert_eq!(stats.executed, 64, "panic must not lose tasks");
        assert_eq!(stats.panicked, 1);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        let text = payload
            .and_then(|p| p.downcast::<&str>().ok())
            .map(|s| *s)
            .unwrap_or_default();
        assert_eq!(text, "task 17 is poisoned");
    }

    #[test]
    fn run_reraises_the_payload() {
        let caught = catch_unwind(|| {
            run_indexed(2, 8, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn run_with_builds_one_state_per_worker() {
        let pool = WorkStealPool::new(PoolSpec::new(4));
        let inits = AtomicU32::new(0);
        let done = AtomicU32::new(0);
        let stats = pool.run_with(
            128,
            |_w| {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |local, _idx| {
                *local += 1;
                done.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(stats.executed, 128);
        assert_eq!(done.load(Ordering::Relaxed), 128);
        // One state per spawned worker, built exactly once.
        assert_eq!(inits.load(Ordering::Relaxed) as usize, stats.workers);
    }

    #[test]
    fn round_robin_small_blocks_cover_everything() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkStealPool::new(PoolSpec {
                workers,
                seed: 99,
                plan: ShardPlan::RoundRobin(1),
                cancel: None,
            });
            let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
            let stats = pool.run(counts.len(), |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(stats.executed, 100);
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }
}
