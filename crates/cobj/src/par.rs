//! Deterministic fan-out over scoped threads.
//!
//! [`run_indexed`] is used by the linker's per-object and per-function
//! steps here and by every parallel phase of the Knit build above
//! (parsing, compiling, symbol surgery, flattening, analysis); [`join`]
//! overlaps two independent steps. Results come back in a fixed order
//! whatever the scheduling, so callers that merge them in order produce
//! the same output — and report the same first error — for every worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `task(0..n)` on up to `jobs` scoped worker threads and return the
/// results in index order. With `jobs <= 1` (or a single task) everything
/// runs inline on the caller's thread — the serial baseline pays no thread
/// overhead.
///
/// Workers claim indices in blocks of about `n / (64 * workers)`, so tens
/// of thousands of microsecond-sized tasks (the linker's functions) do not
/// contend on the shared counter, while the last blocks stay small enough
/// to balance the load.
pub fn run_indexed<T, F>(jobs: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    let block = (n / (64 * workers)).max(1);
    let next = AtomicUsize::new(0);
    let mut blocks: Vec<(usize, Vec<T>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let start = next.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        mine.push((start, (start..n.min(start + block)).map(&task).collect()));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(n);
    for (_, block) in blocks {
        results.extend(block);
    }
    results
}

/// Run `a` and `b` and return both results: `a` on a scoped thread of
/// its own when `jobs > 1`, else `a` then `b` on the caller's thread.
pub fn join<A, B>(jobs: usize, a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B)
where
    A: Send,
{
    if jobs <= 1 {
        let a = a();
        return (a, b());
    }
    std::thread::scope(|s| {
        let a = s.spawn(a);
        let b = b();
        (a.join().expect("worker panicked"), b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_every_worker_count() {
        for jobs in [0, 1, 2, 4] {
            for n in [1, 2, 100, 1000] {
                let squares: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(run_indexed(jobs, n, |i| i * i), squares, "jobs={jobs} n={n}");
            }
        }
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn join_returns_both_results_for_every_worker_count() {
        for jobs in [0, 1, 2] {
            assert_eq!(join(jobs, || "a", || 2), ("a", 2), "jobs={jobs}");
        }
    }
}
