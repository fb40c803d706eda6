//! End-to-end tests: collector simulator → archive → broker →
//! libBGPStream sorted stream (historical and live).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bgp_types::trie::PrefixMatch;
use bgpstream::sort::partition_overlap_groups;
use bgpstream::{
    BatchStep, BgpStream, BgpStreamRecord, Clock, ElemType, RecordStatus, StreamStats,
};
use broker::{BrokerCursor, DumpMeta, DumpType, Index, LocalBroker, Query};
use collector_sim::{standard_collectors, SimConfig, Simulator};
use topology::control::ControlPlane;
use topology::events::{Event, EventKind, Scenario};
use topology::gen::{generate, TopologyConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bgpstream-e2e-{}-{}-{}",
        tag,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Build a two-project world (1 RIS + 1 RouteViews collector), run one
/// hour with some flapping, return (index, archive dir).
fn build_world(tag: &str, seed: u64, horizon: u64) -> (Arc<Index>, PathBuf) {
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(seed))), u64::MAX);
    let specs = standard_collectors(&cp, 1, 1, 4, 0.8, seed);
    let dir = tmpdir(tag);
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let idx = Index::shared();
    sim.attach_index(idx.clone());
    // Flap a few prefixes for update traffic.
    let mut sc = Scenario::new();
    let topo = sim.control_plane().topology().clone();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(6)
        .enumerate()
    {
        sc.flap(60 + 37 * k as u64, 3, 600, n.asn, n.prefixes_v4[0].prefix);
    }
    sim.schedule(&sc);
    sim.run_until(horizon);
    (idx, dir)
}

#[test]
fn historical_stream_is_time_sorted_across_collectors() {
    let (idx, dir) = build_world("sorted", 31, 3600);
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .record_type(DumpType::Updates)
        .interval(0, Some(3600))
        .start();
    let mut last_ts = 0;
    let mut n = 0;
    let mut collectors = std::collections::HashSet::new();
    let mut group_floor = 0u64; // sorting holds within each overlap group
    let mut prev_group_max = 0u64;
    while let Some(rec) = stream.next_record() {
        collectors.insert(rec.collector().to_string());
        // Our simulated updates are strictly within window bounds, and
        // all windows overlap transitively, so global ordering holds.
        assert!(
            rec.timestamp >= last_ts,
            "timestamp regression: {} < {}",
            rec.timestamp,
            last_ts
        );
        last_ts = rec.timestamp;
        n += 1;
        prev_group_max = prev_group_max.max(rec.timestamp);
        group_floor = group_floor.max(1);
    }
    assert!(n > 10, "too few records: {n}");
    assert_eq!(
        collectors.len(),
        2,
        "expected both collectors: {collectors:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rib_and_updates_interleave_and_positions_mark_dumps() {
    let (idx, dir) = build_world("interleave", 32, 3600);
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .interval(0, Some(3600))
        .start();
    let mut rib_starts = 0;
    let mut rib_ends = 0;
    let mut rib_elems = 0;
    let mut upd_elems = 0;
    while let Some(rec) = stream.next_record() {
        match rec.dump_type() {
            DumpType::Rib => {
                if rec.position.is_start() {
                    rib_starts += 1;
                }
                if rec.position.is_end() {
                    rib_ends += 1;
                }
                rib_elems += rec.elems().len();
            }
            DumpType::Updates => upd_elems += rec.elems().len(),
        }
    }
    // 1 RIS RIB (t=0) + 1 RV RIB (t=0): both dumped immediately;
    // RV also dumps at 7200 > horizon.
    assert_eq!(rib_starts, 2);
    assert_eq!(rib_ends, 2);
    assert!(rib_elems > 0, "no RIB elems");
    assert!(upd_elems > 0, "no update elems");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefix_filter_limits_elems() {
    let (idx, dir) = build_world("filter", 33, 1800);
    // Find some prefix present in the world.
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(33))), u64::MAX);
    let target = cp.topology().nodes[12].prefixes_v4[0].prefix;
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .interval(0, Some(1800))
        .filter_prefix(target, PrefixMatch::MoreSpecific)
        .start();
    let mut matched = 0;
    while let Some(rec) = stream.next_matching_record() {
        for e in rec.elems() {
            if e.elem_type == ElemType::PeerState {
                continue;
            }
            let p = e.prefix.expect("route elems carry prefixes");
            assert!(target.contains(&p), "{p} escaped the filter");
            matched += 1;
        }
    }
    assert!(matched > 0, "filter matched nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_files_surface_as_invalid_records() {
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(34))), u64::MAX);
    let specs = standard_collectors(&cp, 1, 0, 3, 1.0, 34);
    let dir = tmpdir("corrupt");
    let mut cfg = SimConfig::new(&dir);
    cfg.faults.truncate_prob = 1.0;
    let mut sim = Simulator::new(cp, specs, cfg);
    let idx = Index::shared();
    sim.attach_index(idx.clone());
    sim.run_until(20);
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .interval(0, Some(3600))
        .start();
    let mut corrupt = 0;
    let mut valid = 0;
    while let Some(rec) = stream.next_record() {
        match rec.status {
            RecordStatus::CorruptedRecord | RecordStatus::CorruptedSource => corrupt += 1,
            RecordStatus::Valid => valid += 1,
            RecordStatus::Unsupported => {}
        }
    }
    assert!(corrupt > 0, "no corruption surfaced");
    assert!(
        valid > 0,
        "corruption should not hide earlier valid records"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_stream_delivers_as_clock_advances() {
    // Publish 30 minutes of data, then replay it "live" by advancing
    // a shared manual clock.
    let (idx, dir) = build_world("live", 35, 1800);
    let clock = Clock::manual(0);
    let stream_clock = clock.clone();
    let idx2 = idx.clone();
    let reader = std::thread::spawn(move || {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx2))
            .record_type(DumpType::Updates)
            .project("ris")
            .live(0)
            .clock(stream_clock)
            .live_grace(500) // RIS window (300 s) + max publication delay
            .poll_interval(Duration::from_millis(1))
            .start();
        // Expect at least the records of the first two update windows.
        let mut got = Vec::new();
        while got.len() < 2 {
            match stream.next_record() {
                Some(rec) => got.push((rec.dump_time, rec.timestamp)),
                None => break,
            }
        }
        got
    });
    // Advance virtual time in steps; the reader unblocks once a whole
    // broker window (2 h) plus the grace period has elapsed.
    let mut t = 0u64;
    while !reader.is_finished() && t <= 16_000 {
        t += 400;
        clock.advance_to(t);
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(reader.is_finished(), "live reader starved");
    let got = reader.join().unwrap();
    assert!(got.len() >= 2, "live stream starved: {got:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn withdrawal_events_visible_in_stream() {
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(36))), u64::MAX);
    let topo = cp.topology().clone();
    let victim = topo
        .nodes
        .iter()
        .find(|n| !n.prefixes_v4.is_empty())
        .unwrap();
    let prefix = victim.prefixes_v4[0].prefix;
    let specs = standard_collectors(&cp, 1, 0, 4, 1.0, 36);
    let dir = tmpdir("wd");
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let idx = Index::shared();
    sim.attach_index(idx.clone());
    let mut sc = Scenario::new();
    sc.push(Event::at(
        100,
        EventKind::Withdraw {
            origin: victim.asn,
            prefix,
        },
    ));
    sim.schedule(&sc);
    sim.run_until(900);
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .record_type(DumpType::Updates)
        .interval(0, Some(900))
        .filter_prefix(prefix, PrefixMatch::Exact)
        .filter_elem_type(ElemType::Withdrawal)
        .start();
    let mut withdrawals = 0;
    while let Some(rec) = stream.next_matching_record() {
        withdrawals += rec.elems().len();
    }
    assert!(withdrawals > 0, "withdrawal invisible in stream");
    std::fs::remove_dir_all(&dir).ok();
}

/// Read every update record of `[0, end]` and the stream's stats.
fn read_updates(idx: &Arc<Index>, end: u64) -> (Vec<BgpStreamRecord>, StreamStats) {
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx.clone()))
        .record_type(DumpType::Updates)
        .interval(0, Some(end))
        .start();
    let records: Vec<_> = stream.by_ref().collect();
    (records, stream.stats())
}

#[test]
fn missing_dump_in_a_middle_group_becomes_one_corrupted_source_record() {
    let end = 3600;
    let (idx, dir) = build_world("missing", 37, end);
    // The overlap groups the stream will merge: one broker window
    // (2 h) covers the whole interval, so one page lists every dump.
    let query = Query {
        dump_types: vec![DumpType::Updates],
        start: 0,
        end: Some(end),
        ..Query::default()
    };
    let resp = idx.query(&query, &mut BrokerCursor { window_start: 0 }, u64::MAX);
    assert!(resp.exhausted, "one page must list the whole interval");
    let groups = partition_overlap_groups(&resp.files);
    assert!(groups.len() >= 3, "need a middle group: {}", groups.len());

    let (baseline, base_stats) = read_updates(&idx, end);
    let from = |r: &BgpStreamRecord, m: &broker::DumpMeta| {
        r.source == m.source_id() && r.dump_time == m.interval_start
    };
    // Delete a dump of a middle group that delivered records.
    let victim = groups[1]
        .iter()
        .find(|m| baseline.iter().any(|r| from(r, m)))
        .expect("middle group has a non-empty dump")
        .clone();
    std::fs::remove_file(&victim.path).unwrap();
    let (got, stats) = read_updates(&idx, end);

    // Exactly one placeholder, for the deleted dump, at its start.
    let corrupted: Vec<usize> = (0..got.len())
        .filter(|&i| got[i].status == RecordStatus::CorruptedSource)
        .collect();
    assert_eq!(corrupted.len(), 1, "one CorruptedSource record");
    let at = corrupted[0];
    assert!(
        from(&got[at], &victim),
        "placeholder names the deleted dump"
    );
    assert_eq!(got[at].timestamp, victim.interval_start);
    // In the dump's place: after every other record older than the
    // dump's start, before everything else (RIS ranks before
    // RouteViews at equal timestamps).
    let others: Vec<String> = got
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != at)
        .map(|(_, r)| format!("{r:?}"))
        .collect();
    let older = got[..at]
        .iter()
        .filter(|r| r.timestamp < victim.interval_start)
        .count();
    assert_eq!(at, older, "placeholder sits at the dump's start");
    // Every other record equals the run without the deletion.
    let expected: Vec<String> = baseline
        .iter()
        .filter(|r| !from(r, &victim))
        .map(|r| format!("{r:?}"))
        .collect();
    assert_eq!(others, expected);
    assert!(
        got.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
        "timestamps must never decrease"
    );

    // Stats are exact, and a missing dump still counts as opened.
    let width = groups.iter().map(Vec::len).max().unwrap();
    for s in [base_stats, stats] {
        assert_eq!(s.groups, groups.len() as u64);
        assert_eq!(s.files_opened, resp.files.len() as u64);
        assert_eq!(s.max_group_width, width);
    }
    assert_eq!(stats.records, got.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// How a reader drains a stream: record by record, or in batches of
/// at most `k` records.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Records,
    Batches(usize),
}

const DRIVERS: [Driver; 4] = [
    Driver::Records,
    Driver::Batches(1),
    Driver::Batches(3),
    Driver::Batches(64),
];

/// Read `stream` with `driver` into `out` until it ends or `out`
/// holds `limit` records. Returns the watermark of every
/// `BatchStep::Idle` seen.
fn drain(
    stream: &mut BgpStream,
    driver: Driver,
    limit: usize,
    out: &mut Vec<BgpStreamRecord>,
) -> Vec<u64> {
    let mut idles = Vec::new();
    while out.len() < limit {
        match driver {
            Driver::Records => match stream.next_record() {
                Some(rec) => out.push(rec),
                None => break,
            },
            Driver::Batches(k) => match stream.next_batch_step(k) {
                BatchStep::Records(recs) => {
                    assert!(
                        !recs.is_empty() && recs.len() <= k,
                        "batch of {}",
                        recs.len()
                    );
                    out.extend(recs);
                }
                BatchStep::Idle { released_through } => idles.push(released_through),
                BatchStep::End => break,
            },
        }
    }
    idles
}

/// Every driver delivered the same records (as `Debug` text) in
/// non-decreasing time and ended with the same stats. Returns the
/// common records and stats.
fn assert_drivers_agree(
    runs: Vec<(Driver, Vec<BgpStreamRecord>, StreamStats)>,
) -> (Vec<BgpStreamRecord>, StreamStats) {
    let text = |recs: &[BgpStreamRecord]| -> Vec<String> {
        recs.iter().map(|r| format!("{r:?}")).collect()
    };
    let mut runs = runs.into_iter();
    let (first, records, stats) = runs.next().unwrap();
    assert!(
        records.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
        "{first:?}: timestamps must never decrease"
    );
    for (driver, got, got_stats) in runs {
        assert_eq!(text(&got), text(&records), "{driver:?} vs {first:?}");
        assert_eq!(
            format!("{got_stats:?}"),
            format!("{stats:?}"),
            "{driver:?} vs {first:?}"
        );
    }
    assert_eq!(stats.records, records.len() as u64);
    (records, stats)
}

/// Every dump `idx` lists for `[0, end]`, paging its windows.
fn all_dumps(idx: &Index, end: u64) -> Vec<DumpMeta> {
    let query = Query {
        start: 0,
        end: Some(end),
        ..Query::default()
    };
    let mut cursor = BrokerCursor { window_start: 0 };
    let mut dumps = Vec::new();
    loop {
        let resp = idx.query(&query, &mut cursor, u64::MAX);
        dumps.extend(resp.files);
        if resp.exhausted {
            return dumps;
        }
    }
}

/// A fresh index with window `window` holding `dumps`.
fn index_of(window: u64, dumps: &[DumpMeta]) -> Arc<Index> {
    let idx = Arc::new(Index::with_window(window));
    for m in dumps {
        idx.register(m.clone());
    }
    idx
}

#[test]
fn every_driver_reads_the_same_historical_stream() {
    // Two broker windows of RIS + RouteViews data.
    let end = 3 * 3600;
    let (idx, dir) = build_world("pin-hist", 38, end);
    let runs = DRIVERS
        .into_iter()
        .map(|driver| {
            let mut stream = BgpStream::builder()
                .broker_client(LocalBroker::shared(idx.clone()))
                .interval(0, Some(end))
                .start();
            let mut out = Vec::new();
            let idles = drain(&mut stream, driver, usize::MAX, &mut out);
            assert!(idles.is_empty(), "a historical stream never idles");
            (driver, out, stream.stats())
        })
        .collect();
    let (records, stats) = assert_drivers_agree(runs);
    assert!(stats.groups >= 3, "several overlap groups: {stats:?}");
    assert!(stats.broker_queries >= 2, "two windows paged: {stats:?}");
    let collectors: std::collections::HashSet<_> = records.iter().map(|r| r.collector()).collect();
    assert_eq!(collectors.len(), 2, "both projects: {collectors:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_driver_reads_the_same_live_stream_with_a_straggler() {
    let (world, dir) = build_world("pin-grace", 39, 3600);
    let dumps = all_dumps(&world, 3600);
    // A copy of the first RIS updates dump, published long after its
    // window was released: the live cursor hands it out as a
    // straggler.
    let first = dumps
        .iter()
        .find(|m| m.project == "ris" && m.dump_type == DumpType::Updates)
        .unwrap();
    let late_dir = dir.join("late");
    std::fs::create_dir_all(&late_dir).unwrap();
    let late_path = late_dir.join(first.path.file_name().unwrap());
    std::fs::copy(&first.path, &late_path).unwrap();
    let grace = 500;
    // A fixed clock releasing the first broker window only, so each
    // drain ends once the released data is delivered.
    let now = broker::index::DEFAULT_WINDOW + grace + 100;
    let late = DumpMeta {
        path: late_path,
        available_at: now,
        ..first.clone()
    };
    let runs: Vec<_> = DRIVERS
        .into_iter()
        .map(|driver| {
            let idx = index_of(broker::index::DEFAULT_WINDOW, &dumps);
            let mut stream = BgpStream::builder()
                .broker_client(LocalBroker::shared(idx.clone()))
                .live(0)
                .clock(Clock::Fixed(now))
                .live_grace(grace)
                .poll_interval(Duration::from_millis(1))
                .start();
            let mut out = Vec::new();
            let idles = drain(&mut stream, driver, usize::MAX, &mut out);
            assert!(idles.is_empty(), "a fixed clock ends instead of idling");
            let before = out.len();
            assert!(before > 0);
            assert!(idx.register(late.clone()));
            drain(&mut stream, driver, usize::MAX, &mut out);
            assert!(out.len() > before, "{driver:?}: straggler not delivered");
            // Every straggler record predates what was already
            // delivered, so each is re-stamped forward.
            let floor = out[before - 1].timestamp;
            assert!(late.interval_end() < floor);
            assert!(out[before..].iter().all(|r| r.timestamp >= floor
                && r.source == late.source_id()
                && r.dump_time == late.interval_start));
            (driver, out, stream.stats())
        })
        .collect();
    assert_drivers_agree(runs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_driver_reads_the_same_live_stream_across_a_long_gap() {
    // One-minute broker windows: update dumps in the first 20
    // minutes, then nothing until the RIB dumps at 24 h, more than
    // 1 400 empty windows later. One live poll crosses every
    // releasable window that holds no file, so the gap costs no
    // polls of its own: a fixed-clock stream, which ends once a
    // poll finds nothing releasable, still reaches the RIB records,
    // and a live stream counts one broker query per window of files
    // (plus at most the crossing to the end of releasable time).
    let window = 60;
    let rib_at = 24 * 3600;
    let (world, dir) = build_world("pin-gap", 40, rib_at + 600);
    let dumps: Vec<DumpMeta> = all_dumps(&world, rib_at + 600)
        .into_iter()
        .filter(|m| match m.dump_type {
            DumpType::Updates => m.interval_start < 1200,
            DumpType::Rib => m.interval_start == rib_at,
        })
        .collect();
    assert!(dumps.iter().any(|m| m.interval_start == rib_at));
    let windows_with_files = dumps
        .iter()
        .map(|m| m.interval_start / window)
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    // A clock at which every dump is published and the RIB's window
    // released. A manual-clock live reader never ends, so each driver
    // stops at the number of records a historical read of the same
    // dumps yields.
    let now = dumps.iter().map(|m| m.available_at).max().unwrap();
    assert!(now >= rib_at + window);
    let total = BgpStream::builder()
        .broker_client(LocalBroker::shared(index_of(window, &dumps)))
        .interval(0, Some(rib_at + 600))
        .start()
        .count();
    let mut reads = Vec::new();
    for (name, clock) in [("manual", Clock::manual(now)), ("fixed", Clock::Fixed(now))] {
        let runs: Vec<_> = DRIVERS
            .into_iter()
            .map(|driver| {
                let mut stream = BgpStream::builder()
                    .broker_client(LocalBroker::shared(index_of(window, &dumps)))
                    .live(0)
                    .clock(clock.clone())
                    .live_grace(0)
                    .poll_interval(Duration::from_millis(1))
                    .start();
                let mut out = Vec::new();
                drain(&mut stream, driver, total, &mut out);
                assert_eq!(out.len(), total, "{driver:?} on a {name} clock");
                let stats = stream.stats();
                assert!(
                    stats.broker_queries <= windows_with_files + 2,
                    "{driver:?} on a {name} clock: {} broker queries for \
                     {windows_with_files} windows of files",
                    stats.broker_queries
                );
                (driver, out, stats)
            })
            .collect();
        reads.push(assert_drivers_agree(runs));
    }
    let (fixed, fixed_stats) = reads.pop().unwrap();
    let (manual, manual_stats) = reads.pop().unwrap();
    assert!(manual.iter().any(|r| r.timestamp >= rib_at));
    assert_eq!(
        format!("{fixed:?} {fixed_stats:?}"),
        format!("{manual:?} {manual_stats:?}"),
        "a fixed clock reads what a manual one does"
    );
    std::fs::remove_dir_all(&dir).ok();
}
