//! A thread-pool map over partitions — the Spark-skeleton substitute.
//!
//! [`par_map`] spawns scoped threads per call, which is fine for
//! coarse batch jobs but too expensive for a runtime delivering many
//! record batches per second; the sharded consumer runtime keeps one
//! persistent thread per shard instead.

use bsync::channel;

/// Map `f` over `items` on `workers` threads, preserving input order
/// in the output. Panics in `f` propagate.
pub fn par_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let (task_tx, task_rx) = channel::unbounded::<(usize, T)>();
    let (res_tx, res_rx) = channel::unbounded::<(usize, R)>();
    for pair in items.into_iter().enumerate() {
        // xcheck:allow(unwrap) — task_rx is still alive in this scope
        task_tx.send(pair).expect("queue open");
    }
    drop(task_tx);
    // `thread::scope` joins every worker and re-raises a worker panic.
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let task_rx = task_rx.clone();
            let res_tx = res_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok((idx, item)) = task_rx.recv() {
                    let out = f(item);
                    if res_tx.send((idx, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);
    });
    let mut results: Vec<(usize, R)> = res_rx.iter().collect();
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect(), 8, |x: u64| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_works() {
        let out = par_map(vec![3, 1, 2], 1, |x: i32| x + 1);
        assert_eq!(out, vec![4, 2, 3]);
    }

    #[test]
    fn more_workers_than_items() {
        let out = par_map(vec![1, 2], 16, |x: i32| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates_to_the_caller() {
        par_map((0..8).collect(), 2, |x: u32| {
            assert_ne!(x, 5, "boom");
            x
        });
    }
}
