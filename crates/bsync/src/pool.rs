//! [`ShardPool`] — the persistent, addressed worker pool used by the
//! sharded consumer runtime (`corsaro::runtime`).
//!
//! The pool lives in `bsync` because it is built entirely from the
//! facade's own primitives (bounded [`channel`]s and named [`thread`]
//! spawns), so under `--features loom-lite` a pool inside a model test
//! is fully instrumented, and because it sits below every crate that
//! needs it (`analytics` re-exports it unchanged).

use std::sync::Arc;

use crate::{channel, thread};

/// A persistent pool of addressed workers.
///
/// Every worker has its *own* bounded input queue: message `m` sent
/// with [`ShardPool::send`]`(w, m)` is processed by worker `w` and no
/// other, and messages to one worker are processed strictly in send
/// order. That addressed-FIFO property is what lets the sharded
/// consumer runtime keep per-shard plugin state on a fixed worker and
/// still guarantee deterministic results.
///
/// Workers run until the pool is dropped (or [`ShardPool::join`]ed):
/// they drain their queues, then exit when the senders disconnect.
pub struct ShardPool<M: Send + 'static> {
    txs: Vec<channel::Sender<M>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl<M: Send + 'static> ShardPool<M> {
    /// Spawn `workers` threads (at least 1), each with a queue bounded
    /// at `queue_cap` messages. `init(w)` builds worker `w`'s private
    /// state on the calling thread; `handler(w, &mut state, msg)` runs
    /// on the worker for every message.
    pub fn spawn<S, I, F>(workers: usize, queue_cap: usize, mut init: I, handler: F) -> Self
    where
        S: Send + 'static,
        I: FnMut(usize) -> S,
        F: Fn(usize, &mut S, M) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let handler = Arc::new(handler);
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::bounded::<M>(queue_cap.max(1));
            let mut state = init(w);
            let handler = Arc::clone(&handler);
            txs.push(tx);
            handles.push(thread::spawn_named("shard-worker", move || {
                while let Ok(msg) = rx.recv() {
                    handler(w, &mut state, msg);
                }
            }));
        }
        ShardPool { txs, handles }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Deliver `msg` to worker `w`, blocking while its queue is full
    /// (backpressure). Returns false if the worker is gone.
    pub fn send(&self, w: usize, msg: M) -> bool {
        self.txs[w].send(msg).is_ok()
    }

    /// Non-blocking [`ShardPool::send`]: a full queue returns
    /// [`channel::TrySendError::Full`] instead of parking the caller.
    /// The supervised runtime polls this so a stalled worker shows up
    /// as a bounded-time stall instead of wedging the coordinator.
    pub fn try_send(&self, w: usize, msg: M) -> Result<(), channel::TrySendError<M>> {
        self.txs[w].try_send(msg)
    }

    /// Deliver a copy of `msg` to every worker (used for barriers and
    /// shared-batch fan-out; `M` is typically an `Arc`, so a "copy" is
    /// a reference-count bump).
    pub fn broadcast(&self, msg: M) -> bool
    where
        M: Clone,
    {
        let mut ok = true;
        for tx in &self.txs {
            ok &= tx.send(msg.clone()).is_ok();
        }
        ok
    }

    /// Disconnect the queues and wait for every worker to drain and
    /// exit (same as dropping the pool, but explicit at call sites
    /// that rely on the barrier). Returns how many workers exited by
    /// panic — the caller decides whether that is fatal, so a
    /// supervised restart can drain a crashed pool and rebuild it
    /// instead of cascading the panic.
    pub fn join(mut self) -> usize {
        self.txs.clear();
        let mut panicked = 0;
        for h in self.handles.drain(..) {
            panicked += usize::from(h.join().is_err());
        }
        panicked
    }

    /// Abandon the pool without waiting: disconnect the queues and
    /// detach the worker threads. For workers that are *stalled* (stuck
    /// inside a handler), where [`ShardPool::join`] would block
    /// forever; the zombie thread keeps its private state but can never
    /// receive another message.
    pub fn detach(mut self) {
        self.txs.clear();
        self.handles.clear();
    }
}

impl<M: Send + 'static> Drop for ShardPool<M> {
    fn drop(&mut self) {
        self.txs.clear();
        // Worker panics are surfaced through the pool's message
        // contract (the runtime's `ResMsg::Panicked`) or the explicit
        // `join` count — never by panicking out of a destructor, which
        // would poison every caller holding a pool across an unwind.
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_pool_routes_to_addressed_worker_in_order() {
        let (res_tx, res_rx) = channel::unbounded::<(usize, u64, u64)>();
        let pool = ShardPool::spawn(
            3,
            2,
            |_| 0u64, // per-worker running sum
            move |w, sum, v: u64| {
                *sum += v;
                res_tx.send((w, v, *sum)).unwrap();
            },
        );
        for i in 0..30u64 {
            assert!(pool.send((i % 3) as usize, i));
        }
        pool.join();
        let mut per_worker: Vec<Vec<(u64, u64)>> = vec![vec![]; 3];
        for (w, v, sum) in res_rx.iter() {
            per_worker[w].push((v, sum));
        }
        for (w, seen) in per_worker.iter().enumerate() {
            // Only this worker's residue class, in send order, with
            // state accumulated across messages.
            let expect: Vec<u64> = (0..30).filter(|v| (v % 3) as usize == w).collect();
            assert_eq!(seen.iter().map(|(v, _)| *v).collect::<Vec<_>>(), expect);
            let mut running = 0;
            for (v, sum) in seen {
                running += v;
                assert_eq!(*sum, running);
            }
        }
    }

    #[test]
    fn shard_pool_broadcast_reaches_every_worker() {
        let (res_tx, res_rx) = channel::unbounded::<usize>();
        let pool = ShardPool::spawn(
            4,
            1,
            |_| (),
            move |w, _, _msg: Arc<String>| {
                res_tx.send(w).unwrap();
            },
        );
        assert!(pool.broadcast(Arc::new("tick".to_string())));
        pool.join();
        let mut seen: Vec<usize> = res_rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_pool_join_drains_pending_messages() {
        let (res_tx, res_rx) = channel::unbounded::<u64>();
        let pool = ShardPool::spawn(
            1,
            64,
            |_| (),
            move |_, _, v: u64| {
                res_tx.send(v).unwrap();
            },
        );
        for i in 0..50 {
            pool.send(0, i);
        }
        pool.join(); // must block until the queue is fully drained
        assert_eq!(
            res_rx.iter().collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shard_pool_reports_worker_panics_on_join() {
        let pool = ShardPool::spawn(
            2,
            1,
            |_| (),
            |w, _, _msg: u32| {
                if w == 0 {
                    panic!("boom")
                }
            },
        );
        pool.send(0, 1);
        pool.send(1, 2);
        assert_eq!(pool.join(), 1);
    }

    #[test]
    fn shard_pool_rebuilds_cleanly_after_a_panicked_join() {
        // The crash-recovery contract: a pool whose worker panicked can
        // be drained and a fresh pool spawned in its place, with no
        // panic cascading out of join or drop.
        let crashed = ShardPool::spawn(1, 1, |_| (), |_, _, _msg: u32| panic!("boom"));
        crashed.send(0, 1);
        assert_eq!(crashed.join(), 1);

        let (res_tx, res_rx) = channel::unbounded::<u32>();
        let rebuilt = ShardPool::spawn(
            1,
            1,
            |_| (),
            move |_, _, v: u32| {
                res_tx.send(v).unwrap();
            },
        );
        rebuilt.send(0, 7);
        assert_eq!(rebuilt.join(), 0);
        assert_eq!(res_rx.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn shard_pool_try_send_reports_full_queue() {
        use crate::channel::TrySendError;

        let (gate_tx, gate_rx) = channel::bounded::<()>(1);
        let pool = ShardPool::spawn(
            1,
            1,
            |_| (),
            move |_, _, _msg: u32| {
                let _ = gate_rx.recv(); // hold the worker until released
            },
        );
        // First message occupies the worker; second fills its queue.
        assert!(pool.send(0, 1));
        // The worker may or may not have picked up msg 1 yet; fill
        // until Full is observed, bounded by queue (1) + in-flight (1).
        let mut sent = 1;
        loop {
            match pool.try_send(0, 9) {
                Ok(()) => {
                    sent += 1;
                    assert!(sent <= 2, "queue cap 1 + one in-flight message");
                }
                Err(TrySendError::Full(9)) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        for _ in 0..sent {
            gate_tx.send(()).unwrap();
        }
        drop(gate_tx);
        assert_eq!(pool.join(), 0);
    }
}
