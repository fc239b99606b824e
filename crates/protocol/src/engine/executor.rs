//! Runs batches of per-shard protocol work in parallel.
//!
//! Every parallel stage of a round — intra-committee consensus, recovery
//! retries, the inter-committee pairs and per-shard block application —
//! hands [`ShardExecutor::execute`] a batch of closures that borrow the
//! round's state, and gets their results back in task-index order. A batch
//! runs on the calling thread plus at most `min(worker_count, tasks) − 1`
//! threads started with [`std::thread::scope`] for that batch alone, so the
//! borrow checker proves the borrows outlive the tasks, and a large
//! `worker_count` never starts more threads than a batch has tasks.
//!
//! # Determinism
//!
//! Tasks may run on any thread in any interleaving, but:
//!
//! * every task is a pure function of its explicitly captured inputs (each
//!   gets its own seed and returns its own metrics sink), and
//! * [`ShardExecutor::execute`] returns results indexed by *submission order*,
//!   never completion order.
//!
//! Together these make round output byte-identical for any worker count,
//! which the determinism tests in `simulation.rs` assert for 1/2/8 workers.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs indexed task batches on scoped threads with deterministic result
/// order.
#[derive(Debug)]
pub struct ShardExecutor {
    worker_count: usize,
    batches_executed: AtomicUsize,
}

impl ShardExecutor {
    /// Creates the executor. `worker_threads` caps the threads one batch
    /// runs on, the calling thread included: `0` takes the machine's
    /// available parallelism, `1` runs every batch inline on the caller.
    pub fn new(worker_threads: usize) -> Self {
        let worker_count = if worker_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            worker_threads
        };
        ShardExecutor {
            worker_count,
            batches_executed: AtomicUsize::new(0),
        }
    }

    /// The most threads one batch runs on (1 for inline mode).
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Number of `execute` batches run so far (observability for tests).
    pub fn batches_executed(&self) -> usize {
        self.batches_executed.load(Ordering::Relaxed)
    }

    /// Runs a batch of tasks, returning their results in submission order.
    ///
    /// Tasks may borrow from the caller's stack. Each thread claims tasks
    /// one at a time from a shared queue — tasks differ in cost (inter-shard
    /// pairs vary in size), so fixed chunks would leave threads idle. A
    /// thread the OS refuses to start just leaves more tasks for the others.
    /// A panicking task does not stop the batch: every other task still
    /// runs, then the first panic in submission order is resumed on the
    /// caller.
    pub fn execute<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        let threads = self.worker_count.min(tasks.len());
        if threads <= 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                // Hold the lock only while claiming; run the task outside.
                // Claiming cannot panic, so a poisoned lock still guards a
                // valid queue.
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((index, task)) = next else {
                    return done;
                };
                done.push((index, catch_unwind(AssertUnwindSafe(task))));
            }
        };
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
                .collect();
            let mut done = work();
            for helper in helpers {
                // `work` catches task panics, so a helper never unwinds.
                match helper.join() {
                    Ok(finished) => done.extend(finished),
                    Err(payload) => resume_unwind(payload),
                }
            }
            done
        });
        done.sort_unstable_by_key(|&(index, _)| index);
        match done.into_iter().map(|(_, result)| result).collect() {
            Ok(results) => results,
            Err(payload) => resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 8] {
            let executor = ShardExecutor::new(workers);
            let inputs: Vec<usize> = (0..32).collect();
            let tasks: Vec<_> = inputs
                .iter()
                .map(|&i| {
                    move || {
                        // Vary per-task runtime to shake up completion order.
                        if i % 3 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        i * 10
                    }
                })
                .collect();
            let results = executor.execute(tasks);
            assert_eq!(results, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let executor = ShardExecutor::new(4);
        let data: Vec<Vec<u64>> = (0..8).map(|i| vec![i; 100]).collect();
        let tasks: Vec<_> = data
            .iter()
            .map(|row| move || row.iter().sum::<u64>())
            .collect();
        let sums = executor.execute(tasks);
        assert_eq!(sums, (0..8).map(|i| i * 100).collect::<Vec<u64>>());
    }

    #[test]
    fn tasks_can_mutate_disjoint_borrows() {
        let executor = ShardExecutor::new(4);
        let mut shards: Vec<u64> = vec![0; 16];
        let tasks: Vec<_> = shards
            .iter_mut()
            .enumerate()
            .map(|(i, shard)| move || *shard = i as u64 + 1)
            .collect();
        let _: Vec<()> = executor.execute(tasks);
        assert_eq!(shards, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn executor_is_reusable_across_batches() {
        let executor = ShardExecutor::new(3);
        for round in 0..20u64 {
            let tasks: Vec<_> = (0..5).map(|i| move || round * 100 + i).collect();
            let results = executor.execute(tasks);
            assert_eq!(results, (0..5).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
        assert_eq!(executor.batches_executed(), 20);
    }

    #[test]
    fn execute_uses_at_most_one_thread_per_task() {
        let executor = ShardExecutor::new(64);
        let tasks: Vec<_> = (0..3).map(|_| || std::thread::current().id()).collect();
        let ids: std::collections::HashSet<_> = executor.execute(tasks).into_iter().collect();
        assert!(
            ids.len() <= 3,
            "a 3-task batch ran on {} threads",
            ids.len()
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let executor = ShardExecutor::new(2);
        let results: Vec<u8> = executor.execute(Vec::<fn() -> u8>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn auto_sizing_uses_available_parallelism() {
        let executor = ShardExecutor::new(0);
        assert!(executor.worker_count() >= 1);
    }

    #[test]
    fn task_panics_propagate_after_the_batch_completes() {
        let executor = ShardExecutor::new(4);
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6)
                .map(|i| {
                    let finished = &finished;
                    let task: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        i
                    });
                    task
                })
                .collect();
            executor.execute(tasks)
        }));
        assert!(outcome.is_err(), "the panic must surface on the caller");
        assert_eq!(finished.load(Ordering::SeqCst), 5, "other tasks still ran");
        // The pool survives a panicking batch.
        let results = executor.execute(vec![|| 1, || 2]);
        assert_eq!(results, vec![1, 2]);
    }
}
