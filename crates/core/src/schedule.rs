//! Cell-granular work-stealing scheduler for the experiment engine.
//!
//! A campaign is a matrix of independent (benchmark, model) cells, each
//! a pure function of its inputs. The engine turns that matrix into a
//! flat task list and drains it with a pool of scoped workers:
//!
//! * **Shared injector** — a single atomic cursor over the task list.
//!   Workers steal the next unclaimed index; there is no per-worker
//!   queue to balance, so a slow cell (the compressed x264 run) never
//!   idles the other workers the way the old one-thread-per-benchmark
//!   fan-out did.
//! * **Indexed slots** — every task writes its result into the
//!   pre-sized slot for its index. Output order is structural (the task
//!   list order), not reconstructed by sorting after a mutex-guarded
//!   push, so scheduling order can never leak into results.
//! * **`jobs = 1` runs inline** — no thread is spawned at all, making
//!   the single-job configuration literally the sequential engine that
//!   parallel runs are compared against in `tests/determinism.rs`.
//!
//! This is the only module in the workspace that spawns threads
//! (`clippy.toml` disallows `std::thread::{spawn, scope, Builder}`
//! elsewhere; the one allow is here). Cursor
//! uniqueness and slot integrity under oversubscription are stressed by
//! `tests/stress_schedule.rs`, which the nightly ThreadSanitizer job
//! also runs.

use std::num::NonZeroUsize;

use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared injector over `count` tasks: workers steal ascending
/// indices until the list is drained. Claiming is a single
/// `fetch_add`, so contention is one atomic per cell regardless of
/// worker count.
#[derive(Debug)]
pub struct Injector {
    next: AtomicUsize,
    count: usize,
}

impl Injector {
    /// An injector over `count` tasks, none yet claimed.
    pub fn new(count: usize) -> Self {
        Injector {
            next: AtomicUsize::new(0),
            count,
        }
    }

    /// Claim the next unclaimed task index, or `None` when drained.
    pub fn steal(&self) -> Option<usize> {
        // Relaxed is enough: the index handoff itself is the only
        // synchronization needed for claiming, and result visibility is
        // ordered by the scope join (and `OnceLock::set`), not by this
        // counter.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.count).then_some(i)
    }

    /// Total tasks the injector was created with.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Worker count to use when the caller does not specify one: the
/// machine's available parallelism (1 if that cannot be determined).
pub fn default_jobs() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Run `count` independent tasks on up to `jobs` workers and return
/// their results in index order.
///
/// `task(i)` must be a pure function of `i` for the index-ordered
/// output to be deterministic; the scheduler guarantees each index is
/// claimed exactly once and its result lands in slot `i`. With
/// `jobs = 1` the tasks run inline on the caller's thread in ascending
/// order. A panicking task aborts the whole schedule (the scope join
/// propagates the panic), matching the previous fan-out's behavior.
#[allow(
    clippy::panic,
    reason = "scheduler invariant: every slot is filled exactly once"
)]
pub fn run_indexed<T, F>(jobs: NonZeroUsize, count: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = jobs.get().min(count);
    if workers == 1 {
        return (0..count).map(task).collect();
    }

    let injector = Injector::new(count);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    #[allow(
        clippy::disallowed_methods,
        reason = "the cell scheduler is the workspace's one fan-out point: tests/stress_schedule.rs \
                  and the nightly ThreadSanitizer job cover it"
    )]
    std::thread::scope(|scope| {
        // Workers return their (index, result) batches through their
        // join handles; the claiming injector guarantees the index sets
        // are disjoint, so the merge below is plain indexed writes into
        // the pre-sized slots — no locks, no sort.
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut batch = Vec::new();
                    while let Some(i) = injector.steal() {
                        batch.push((i, task(i)));
                    }
                    batch
                })
            })
            .collect();
        for worker in workers {
            let batch = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, value) in batch {
                let slot = slots.get_mut(i).expect("slots are pre-sized to count");
                debug_assert!(slot.is_none(), "cell {i} scheduled twice");
                *slot = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("cell {i} was never executed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use std::sync::Mutex;

    fn jobs(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("test job counts are positive")
    }

    #[test]
    fn injector_hands_out_each_index_once() {
        let inj = Injector::new(3);
        assert_eq!(inj.count(), 3);
        assert_eq!(inj.steal(), Some(0));
        assert_eq!(inj.steal(), Some(1));
        assert_eq!(inj.steal(), Some(2));
        assert_eq!(inj.steal(), None);
        assert_eq!(inj.steal(), None);
    }

    #[test]
    fn results_are_in_index_order_regardless_of_jobs() {
        for j in [1, 2, 4, 16] {
            let out = run_indexed(jobs(j), 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>(), "jobs={j}");
        }
    }

    #[test]
    fn empty_schedule_is_empty() {
        let out: Vec<u32> = run_indexed(jobs(8), 0, |_| unreachable!("no tasks to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        run_indexed(jobs(7), 100, |i| {
            seen.lock().expect("test mutex").push(i);
        });
        let seen = seen.into_inner().expect("test mutex");
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().copied().collect::<BTreeSet<_>>().len(), 100);
    }

    #[test]
    fn single_job_runs_inline_in_ascending_order() {
        let order = Mutex::new(Vec::new());
        let main_thread = std::thread::current().id();
        run_indexed(jobs(1), 5, |i| {
            assert_eq!(
                std::thread::current().id(),
                main_thread,
                "jobs=1 must not spawn"
            );
            order.lock().expect("test mutex").push(i);
        });
        assert_eq!(order.into_inner().expect("test mutex"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        let out = run_indexed(jobs(64), 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
