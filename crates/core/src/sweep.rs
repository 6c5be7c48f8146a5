//! Deterministic parallel execution of a measurement.
//!
//! One [`TaskPool`] runs a scalability measurement's chain of world
//! builds, annealing rounds and replications: tasks that spawn their
//! successors, run in priority order by a fixed set of workers. Tasks
//! share no mutable simulation state, so the schedule never reaches a
//! result.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One queued task of a [`TaskPool`].
type Task<'env, P> = Box<dyn FnOnce(&TaskPool<'env, P>) + Send + 'env>;

/// A fixed set of workers draining a priority queue of tasks that may
/// spawn more tasks — the one pool a whole measurement runs on.
///
/// Tasks are boxed closures that borrow from the caller's scope (`'env`)
/// and receive the pool, so a task spawns its successors the moment it
/// knows they are ready: no task ever blocks waiting for another, and a
/// worker is idle only when nothing is queued. The queue is ordered by
/// `(priority, spawn order)`, lowest first, so critical-path work goes
/// ahead of filler work. The pool runs until no task is queued or running.
///
/// A task that panics stops the pool: queued tasks are dropped, running
/// ones finish, and [`TaskPool::run`] re-raises the first panic on the
/// caller's thread.
pub struct TaskPool<'env, P> {
    state: Mutex<PoolState<'env, P>>,
    wake: Condvar,
}

struct PoolState<'env, P> {
    queue: BTreeMap<(P, u64), Task<'env, P>>,
    spawned: u64,
    running: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl<'env, P: Ord + Send> TaskPool<'env, P> {
    /// Runs `seed` (which spawns the first tasks) and then every task on
    /// `threads` workers (`0` is clamped to 1), the caller's thread being
    /// one of them; returns once the pool is drained.
    pub fn run(threads: usize, seed: impl FnOnce(&TaskPool<'env, P>)) {
        let pool = TaskPool {
            state: Mutex::new(PoolState {
                queue: BTreeMap::new(),
                spawned: 0,
                running: 0,
                panic: None,
            }),
            wake: Condvar::new(),
        };
        seed(&pool);
        std::thread::scope(|scope| {
            for _ in 1..threads.max(1) {
                scope.spawn(|| pool.work());
            }
            pool.work();
        });
        let panic = pool
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .panic;
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Queues `task` at `priority` (lower runs first; equal priorities run
    /// in spawn order).
    pub fn spawn(&self, priority: P, task: impl FnOnce(&TaskPool<'env, P>) + Send + 'env) {
        let mut st = self.lock();
        if st.panic.is_some() {
            return;
        }
        let seq = st.spawned;
        st.spawned += 1;
        st.queue.insert((priority, seq), Box::new(task));
        drop(st);
        self.wake.notify_one();
    }

    fn lock(&self) -> MutexGuard<'_, PoolState<'env, P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: run the first queued task until the pool is drained or
    /// a task has panicked.
    fn work(&self) {
        let mut st = self.lock();
        loop {
            if st.panic.is_some() {
                return;
            }
            if let Some((_, task)) = st.queue.pop_first() {
                st.running += 1;
                drop(st);
                let outcome = catch_unwind(AssertUnwindSafe(|| task(self)));
                st = self.lock();
                st.running -= 1;
                if let Err(payload) = outcome {
                    st.panic.get_or_insert(payload);
                    st.queue.clear();
                }
                if st.panic.is_some() || (st.running == 0 && st.queue.is_empty()) {
                    self.wake.notify_all();
                }
                continue;
            }
            // Only a running task can queue more work.
            if st.running == 0 {
                return;
            }
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A sensible worker count for sweeps: the machine's available parallelism
/// capped at `cap`.
pub fn default_threads(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cap.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn task_pool_runs_spawned_chains_to_completion() {
        // Each task spawns its successor until a chain of 50 is done, on
        // several widths; every link runs exactly once.
        for threads in [1usize, 2, 5] {
            let ran: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            fn link<'e>(pool: &TaskPool<'e, usize>, ran: &'e [AtomicUsize], i: usize) {
                ran[i].fetch_add(1, Ordering::Relaxed);
                if i + 1 < ran.len() {
                    pool.spawn(i + 1, move |p| link(p, ran, i + 1));
                }
            }
            TaskPool::run(threads, |pool| pool.spawn(0, |p| link(p, &ran, 0)));
            assert!(ran.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn task_pool_runs_lower_priorities_first() {
        let order = Mutex::new(Vec::new());
        TaskPool::run(1, |pool| {
            for p in [3u32, 1, 2, 1] {
                let order = &order;
                pool.spawn(p, move |_| order.lock().unwrap().push(p));
            }
        });
        assert_eq!(order.into_inner().unwrap(), vec![1, 1, 2, 3]);
    }

    #[test]
    fn task_pool_passes_a_panic_on_instead_of_hanging() {
        // One worker parks on the condvar while another task panics: the
        // pool must wake it, stop, and re-raise the panic.
        for threads in [1usize, 2, 4] {
            let out = std::panic::catch_unwind(|| {
                TaskPool::run(threads, |pool| {
                    pool.spawn(0u8, |p| {
                        p.spawn(1, |_| panic!("task failed"));
                        p.spawn(2, |_| {
                            std::thread::sleep(std::time::Duration::from_millis(5))
                        });
                    });
                });
            });
            let payload = out.expect_err("the task's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failed"));
        }
    }

    #[test]
    fn default_threads_capped() {
        assert!(default_threads(4) <= 4);
        assert!(default_threads(1) == 1);
        assert!(default_threads(usize::MAX) >= 1);
    }
}
