//! loom-lite model tests: ShardPool shutdown vs in-flight sends.
//!
//! Run with `cargo test -p bsync --features loom-lite`.
#![cfg(feature = "loom-lite")]
#![forbid(unsafe_code)]

use std::sync::Arc;

use bsync::model::{explore, Builder};
use bsync::pool::ShardPool;
use bsync::Mutex;

fn budget() -> Builder {
    Builder {
        max_preemptions: 2,
        max_iters: 50_000,
        max_steps: 20_000,
        schedule: None,
    }
}

/// Messages sent right before `join` are in flight when shutdown
/// begins: the worker may not have picked them up yet. `join` must
/// block until the queue is fully drained — no interleaving may lose
/// a message or process one out of order.
#[test]
fn shutdown_drains_in_flight_sends() {
    let report = explore(&budget(), || {
        let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let pool = ShardPool::spawn(
            1,
            1, // capacity 1: the second send exercises backpressure
            |_| (),
            move |_, _, v: u32| sink.lock().push(v),
        );
        assert!(pool.send(0, 1));
        assert!(pool.send(0, 2));
        pool.join(); // shutdown must drain both
        assert_eq!(*seen.lock(), vec![1, 2], "in-flight send lost on shutdown");
    })
    .expect("no interleaving may lose an in-flight message");
    assert!(report.iterations > 1, "must explore multiple interleavings");
}

/// Canary: a worker that drains with `try_recv` and exits on `Empty`
/// instead of blocking until disconnect. On schedules where the
/// worker runs before the producer's send, the message is lost — the
/// checker must find that schedule and reproduce it from the seed.
#[test]
fn canary_try_recv_worker_drops_in_flight_message() {
    let racy = || {
        let seen: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let (tx, rx) = bsync::channel::bounded::<u32>(1);
        let worker = bsync::thread::spawn_named("worker", move || {
            // BUG: Empty also covers "producer not scheduled yet".
            while let Ok(v) = rx.try_recv() {
                sink.lock().push(v);
            }
        });
        let _ = tx.send(1);
        drop(tx);
        worker.join().expect("worker ran");
        assert_eq!(*seen.lock(), vec![1], "shutdown lost an in-flight message");
    };
    let failure = explore(&budget(), racy).expect_err("checker must catch the lossy worker");
    assert!(
        failure.kind.contains("lost an in-flight message"),
        "unexpected failure kind: {}",
        failure.kind
    );
    let replay = Builder {
        schedule: Some(failure.schedule.clone()),
        ..budget()
    };
    let again = explore(&replay, racy).expect_err("replay must reproduce the loss");
    assert!(again.kind.contains("lost an in-flight message"));
}
