//! loom-lite model tests: bounded-channel backpressure vs cooperative
//! shutdown, and a consumer that drains before it exits (the contract
//! every shard worker of the sharded runtime relies on).
//!
//! Run with `cargo test -p bsync --features loom-lite`.
#![cfg(feature = "loom-lite")]
#![forbid(unsafe_code)]

use std::sync::Arc;

use bsync::channel;
use bsync::model::{explore, Builder};
use bsync::Mutex;

fn budget() -> Builder {
    Builder {
        max_preemptions: 2,
        max_iters: 50_000,
        max_steps: 20_000,
        schedule: None,
    }
}

/// A producer pushes three messages through a capacity-1 channel (so
/// at least one send blocks on backpressure), then disconnects; the
/// consumer drains until disconnect. No interleaving may lose,
/// duplicate, or reorder a message — and none may deadlock.
#[test]
fn backpressure_and_shutdown_deliver_everything_in_order() {
    let report = explore(&budget(), || {
        let (tx, rx) = channel::bounded::<u32>(1);
        let consumer =
            bsync::thread::spawn_named("consumer", move || rx.iter().collect::<Vec<_>>());
        for v in 1..=3 {
            assert!(tx.send(v).is_ok(), "receiver vanished early");
        }
        drop(tx); // cooperative shutdown: disconnect ends the iterator
        let got = consumer.join().expect("consumer ran");
        assert_eq!(got, vec![1, 2, 3], "messages lost, duplicated or reordered");
    })
    .expect("no interleaving may break bounded-channel delivery");
    assert!(report.iterations > 1, "must explore multiple interleavings");
}

/// Canary: a producer that holds an unrelated lock across a blocking
/// send while the consumer needs that lock before receiving — a
/// lock-order/backpressure deadlock. The checker must report the
/// deadlock and reproduce it from the seed.
#[test]
fn canary_blocking_send_under_lock_deadlocks() {
    let racy = || {
        let (tx, rx) = channel::bounded::<u32>(1);
        let gate = Arc::new(bsync::Mutex::new(()));
        let consumer = {
            let gate = gate.clone();
            bsync::thread::spawn_named("consumer", move || {
                let _g = gate.lock(); // consumer takes the gate first…
                let _ = rx.recv(); // …then drains
            })
        };
        // BUG: holding the gate across sends that can block on a full
        // queue; the consumer cannot drain without the gate.
        let g = gate.lock();
        let _ = tx.send(1);
        let _ = tx.send(2); // queue full, consumer gated: deadlock
        drop(g);
        consumer.join().expect("consumer ran");
    };
    let failure = explore(&budget(), racy).expect_err("checker must catch the deadlock");
    assert!(
        failure.kind.contains("deadlock"),
        "unexpected failure kind: {}",
        failure.kind
    );
    let replay = Builder {
        schedule: Some(failure.schedule.clone()),
        ..budget()
    };
    let again = explore(&replay, racy).expect_err("replay must reproduce the deadlock");
    assert!(again.kind.contains("deadlock"));
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
