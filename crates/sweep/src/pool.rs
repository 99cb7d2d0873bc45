//! In-process parallel execution.
//!
//! Experiment grids are embarrassingly parallel (each cell is an
//! independent, seeded simulation), so we fan them out over OS threads.
//! Results come back in input order regardless of completion order, so
//! tables and CSVs are deterministic. The supervisor's `--shards 0` path
//! and the experiments that fan out closures rather than specs share it.

use std::sync::mpsc;
use std::sync::Mutex;

/// Runs `f` over every item on up to `threads` worker threads, returning
/// results in input order.
///
/// Workers pull `(index, item)` pairs from a shared queue (one short lock
/// per item — the closure runs outside the lock) and push results through
/// a channel; the caller reassembles them by index. If a worker panics,
/// the panic propagates to the caller when the thread scope joins, instead
/// of surfacing as a confusing poisoned-mutex error.
///
/// # Panics
///
/// Re-raises the first panic raised inside `f` on any worker.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    let work = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let tx = tx.clone();
            let work = &work;
            let f = &f;
            handles.push(scope.spawn(move || loop {
                // A poisoned queue means a sibling panicked while holding
                // the lock; just stop — the join below re-raises it.
                let next = match work.lock() {
                    Ok(mut it) => it.next(),
                    Err(_) => None,
                };
                let Some((i, item)) = next else { break };
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            }));
        }
        drop(tx);
        // Collect while workers run; ends when every sender is dropped.
        for (i, r) in rx {
            results[i] = Some(r);
        }
        // Join everyone, then re-raise the first worker panic with its
        // original payload (the scope's implicit join would replace it
        // with a generic "a scoped thread panicked").
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("worker dropped an item without panicking"))
        .collect()
}

/// A sensible default worker count for experiment sweeps.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 8, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![5], 32, |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    #[should_panic(expected = "boom 3")]
    fn worker_panics_propagate_with_payload() {
        let _ = parallel_map((0..16).collect::<Vec<u32>>(), 4, |x| {
            if x == 3 {
                panic!("boom {x}");
            }
            x
        });
    }

    #[test]
    fn heavy_closure_results_consistent() {
        // Same computation in parallel and serial must agree exactly.
        let items: Vec<u64> = (0..50).collect();
        let f = |x: u64| {
            let mut acc = x;
            for i in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let par = parallel_map(items.clone(), 8, f);
        let ser: Vec<u64> = items.into_iter().map(f).collect();
        assert_eq!(par, ser);
    }
}
