//! loom-lite model tests: LiveCursor exactly-once delivery under
//! concurrent re-publication.
//!
//! Run with `cargo test -p broker --features loom-lite`.
#![cfg(feature = "loom-lite")]
#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use broker::index::{DumpMeta, DumpType, Index, Query};
use broker::lease::LeaseTable;
use broker::live::{LiveCursor, ReleasePolicy};
use bsync::model::{explore, Builder};
use bsync::time::Clock;
use bsync::Mutex;

fn budget() -> Builder {
    Builder {
        max_preemptions: 2,
        max_iters: 50_000,
        max_steps: 20_000,
        schedule: None,
    }
}

fn meta(start: u64) -> DumpMeta {
    DumpMeta {
        project: "ris".into(),
        collector: "rrc01".into(),
        dump_type: DumpType::Updates,
        interval_start: start,
        duration: 50,
        path: PathBuf::from(format!("/tmp/rrc01-{start}")),
        available_at: start,
        size: 1,
    }
}

/// Two publishers register the SAME dump concurrently (re-publication)
/// while a poller drives the live cursor through its lease. No
/// interleaving may deliver the dump twice — or lose it.
#[test]
fn live_cursor_is_exactly_once_under_concurrent_republication() {
    let report = explore(&budget(), || {
        let idx = Arc::new(Index::with_window(100));
        let table = Arc::new(LeaseTable::immortal(Clock::manual(0)));
        let id = table.open(LiveCursor::new(
            idx.clone(),
            Query::default(),
            ReleasePolicy::Watermark,
        ));
        let publisher = |idx: Arc<Index>| {
            move || {
                idx.register(meta(10));
                idx.advance_watermark(1_000);
            }
        };
        let p1 = bsync::thread::spawn_named("pub1", publisher(idx.clone()));
        let p2 = bsync::thread::spawn_named("pub2", publisher(idx.clone()));
        // Poll concurrently with publication, then drain after both
        // publishers finished (the watermark is then certainly past
        // the dump's window, so it must have been released).
        let mut seen: Vec<DumpMeta> = Vec::new();
        for _ in 0..2 {
            if let Some(poll) = table.with_lease(id, |c| c.poll(u64::MAX)) {
                seen.extend(poll.files);
                seen.extend(poll.late);
            }
        }
        p1.join().expect("publisher 1 ran");
        p2.join().expect("publisher 2 ran");
        for _ in 0..3 {
            if let Some(poll) = table.with_lease(id, |c| c.poll(u64::MAX)) {
                seen.extend(poll.files);
                seen.extend(poll.late);
            }
        }
        assert_eq!(
            seen.len(),
            1,
            "re-published dump delivered {} times (want exactly once)",
            seen.len()
        );
    })
    .expect("no interleaving may break exactly-once delivery");
    assert!(report.iterations > 1, "must explore multiple interleavings");
}

/// A publisher registers a dump into a window past a gap of empty
/// windows, then advances the watermark over it, while the poller
/// crosses the gap. The poll's lookup and release scan read the
/// watermark and the entries under one lock, so no interleaving may
/// cross the dump's window without releasing it: it is delivered
/// exactly once, in order, as a released file — never lost and never
/// a straggler.
#[test]
fn crossing_a_gap_never_skips_a_dump_registered_into_it() {
    let report = explore(&budget(), || {
        let idx = Arc::new(Index::with_window(100));
        idx.register(meta(10));
        idx.advance_watermark(100);
        let table = Arc::new(LeaseTable::immortal(Clock::manual(0)));
        let id = table.open(LiveCursor::new(
            idx.clone(),
            Query::default(),
            ReleasePolicy::Watermark,
        ));
        let publisher = bsync::thread::spawn_named("pub", {
            let idx = idx.clone();
            move || {
                idx.register(meta(550));
                idx.advance_watermark(1_000);
            }
        });
        let mut files: Vec<u64> = Vec::new();
        let mut late: Vec<u64> = Vec::new();
        let mut poll = || {
            if let Some(poll) = table.with_lease(id, |c| c.poll(u64::MAX)) {
                files.extend(poll.files.iter().map(|m| m.interval_start));
                late.extend(poll.late.iter().map(|m| m.interval_start));
            }
        };
        poll();
        poll();
        publisher.join().expect("publisher ran");
        for _ in 0..3 {
            poll();
        }
        assert_eq!(files, vec![10, 550], "released files (late: {late:?})");
        assert!(late.is_empty(), "straggler behind the watermark: {late:?}");
    })
    .expect("no interleaving may skip or double a dump past the gap");
    assert!(report.iterations > 1, "must explore multiple interleavings");
}

/// Canary: a delivered-set that is consulted and updated in two
/// separate lock acquisitions. Two pollers draining the same session
/// can both see "not yet delivered" and both deliver — the checker
/// must find it and reproduce it from the seed.
#[test]
fn canary_split_delivered_set_double_delivers() {
    let racy = || {
        let delivered: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let poller = |delivered: Arc<Mutex<HashSet<u64>>>, out: Arc<Mutex<Vec<u64>>>| {
            move || {
                // BUG: membership test and insertion are separate
                // critical sections — a concurrent poller interleaves.
                let fresh = !delivered.lock().contains(&10);
                if fresh {
                    delivered.lock().insert(10);
                    out.lock().push(10);
                }
            }
        };
        let other = bsync::thread::spawn_named("poller", poller(delivered.clone(), out.clone()));
        poller(delivered.clone(), out.clone())();
        other.join().expect("poller ran");
        assert!(
            out.lock().len() <= 1,
            "dump delivered twice — split delivered-set race"
        );
    };
    let failure = explore(&budget(), racy).expect_err("checker must catch the seeded race");
    assert!(
        failure.kind.contains("delivered twice"),
        "unexpected failure kind: {}",
        failure.kind
    );
    let replay = Builder {
        schedule: Some(failure.schedule.clone()),
        ..budget()
    };
    let again = explore(&replay, racy).expect_err("replay must reproduce the race");
    assert!(again.kind.contains("delivered twice"));
}
