//! The workspace's one worker pool: [`map_claimed`] runs a wave's
//! evaluations, an archipelago's island legs and a multi-dataset run's
//! studies, and turns a panic in any of them into a value.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A panic caught by [`map_claimed`] in one call of its task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic's message (empty for a payload that is not text).
    pub message: String,
}

impl WorkerPanic {
    /// Re-raise the panic on this thread with the message as payload
    /// (the panic hook, which reported the original, does not run again).
    pub fn resume(self) -> ! {
        resume_unwind(Box::new(self.message))
    }
}

/// Run `f(0..n)` on up to `workers` threads that claim indices from
/// one atomic counter, and return the results in index order. With one
/// worker every call runs inline on the caller's thread, in order.
/// Every call runs under `catch_unwind`: a panic is that index's `Err`,
/// and every other index still runs.
pub fn map_claimed<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, WorkerPanic>> {
    let call = |index| {
        catch_unwind(AssertUnwindSafe(|| f(index))).map_err(|payload| WorkerPanic {
            message: match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload.downcast_ref::<&str>().map_or("", |s| s).to_owned(),
            },
        })
    };
    if workers.min(n) <= 1 {
        return (0..n).map(call).collect();
    }
    // `Relaxed` suffices: the counter only hands out indices, and the
    // results reach this thread through `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let index = next.fetch_add(1, Ordering::Relaxed);
        (index < n).then(|| (index, call(index)))
    };
    let mut done: Vec<(usize, Result<T, WorkerPanic>)> = std::thread::scope(|scope| {
        let claimers: Vec<_> = (0..workers.min(n))
            .map(|_| scope.spawn(|| std::iter::from_fn(claim).collect::<Vec<_>>()))
            .collect();
        let joined = claimers.into_iter().map(|claimer| claimer.join());
        joined
            .flat_map(|claimed| claimed.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Split a thread `budget` between a pool over `n` tasks and the pools
/// those tasks run: `budget.clamp(1, n)` workers, each with `budget /
/// workers` threads (at least 1), so the levels multiply to ~`budget`.
#[must_use]
pub fn split_budget(budget: usize, n: usize) -> (usize, usize) {
    let workers = budget.clamp(1, n.max(1));
    (workers, (budget / workers).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panics_at_three(index: usize) -> usize {
        assert_ne!(index, 3, "index {index} fails");
        index * 10
    }

    #[test]
    fn a_panic_is_its_own_index_error_in_order() {
        for workers in [1, 3] {
            let results = map_claimed(8, workers, panics_at_three);
            assert_eq!(results.len(), 8);
            for (index, result) in results.into_iter().enumerate() {
                if index == 3 {
                    let panic = result.expect_err("index 3 panics");
                    assert!(
                        panic.message.contains("index 3 fails"),
                        "{workers} workers: {panic:?}"
                    );
                } else {
                    assert_eq!(result, Ok(index * 10), "{workers} workers");
                }
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_and_in_order() {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let results = map_claimed(4, 1, |index| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().expect("unpoisoned").push(index);
        });
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(seen.into_inner().expect("unpoisoned"), [0, 1, 2, 3]);
    }

    #[test]
    fn string_and_str_payloads_keep_their_message() {
        let results = map_claimed(3, 2, |index| match index {
            0 => panic!("static text"),
            1 => panic!("formatted {index}"),
            _ => std::panic::panic_any(7_u8),
        });
        let messages: Vec<String> = results
            .into_iter()
            .map(|r| r.expect_err("every index panics").message)
            .collect();
        assert_eq!(messages, ["static text", "formatted 1", ""]);
    }

    #[test]
    fn a_resumed_panic_carries_the_message() {
        let panic = WorkerPanic {
            message: "again".into(),
        };
        let caught = map_claimed(1, 1, |_| panic.clone().resume());
        assert_eq!(caught[0].as_ref().expect_err("resumed").message, "again");
    }

    #[test]
    fn budget_splits_over_two_levels() {
        assert_eq!(split_budget(1, 5), (1, 1));
        assert_eq!(split_budget(4, 2), (2, 2));
        assert_eq!(split_budget(5, 2), (2, 2));
        assert_eq!(split_budget(2, 5), (2, 1));
        assert_eq!(split_budget(3, 0), (1, 3));
        assert_eq!(split_budget(0, 3), (1, 1));
    }
}
