//! Ablation (§3.3.4) — why libBGPStream partitions the dump-file set
//! into disjoint overlap groups before multi-way merging.
//!
//! "The computational cost of the multi-way merging is proportional to
//! the number of queues (files) considered. We therefore break the
//! dump file set in disjoint subsets." This ablation runs the same
//! archive through (a) the paper's partitioned merge, (b) a single
//! merge with every file open at once, and (c) a raw unsorted
//! sequential read, reporting wall time and merge width.

use std::sync::Arc;
use std::time::Instant;

use bench::{header, scaled};
use bgpstream_repro::bgpstream::sort::{partition_overlap_groups, GroupMerger};
use bgpstream_repro::bgpstream::Filters;
use bgpstream_repro::broker::index::{BrokerCursor, Query};
use bgpstream_repro::mrt::ChunkedReader;
use bgpstream_repro::worlds;

fn main() {
    header(
        "Ablation §3.3.4",
        "overlap-partitioned merge vs single k-way merge",
    );
    let dir = worlds::scratch_dir("ablation");
    let mut world = worlds::quickstart(dir.clone(), 14);
    let horizon = scaled(12 * 3600);
    world.sim.run_until(horizon);

    let q = Query {
        start: 0,
        end: Some(horizon),
        ..Default::default()
    };
    let mut cursor = BrokerCursor { window_start: 0 };
    let mut files = Vec::new();
    loop {
        let resp = world.index.query(&q, &mut cursor, u64::MAX);
        files.extend(resp.files);
        if resp.exhausted {
            break;
        }
    }
    println!(
        "archive: {} files, {} bytes",
        files.len(),
        world.sim.stats().bytes
    );
    let filters = Arc::new(Filters::none().compile());

    // (a) Partitioned merge (the paper's design).
    let t = Instant::now();
    let groups = partition_overlap_groups(&files);
    let max_width = groups.iter().map(|g| g.len()).max().unwrap_or(0);
    let mut n_a = 0u64;
    let mut inversions_a = 0u64;
    let mut last = 0u64;
    for g in groups.iter().cloned() {
        for rec in GroupMerger::open(g, filters.clone()) {
            if rec.timestamp < last {
                inversions_a += 1;
            }
            last = rec.timestamp;
            n_a += 1;
        }
    }
    let time_a = t.elapsed();

    // (b) Single merge: every file open simultaneously.
    let t = Instant::now();
    let m = GroupMerger::open(files.clone(), filters.clone());
    let single_width = m.width();
    let mut n_b = 0u64;
    let mut inversions_b = 0u64;
    last = 0;
    for rec in m {
        if rec.timestamp < last {
            inversions_b += 1;
        }
        last = rec.timestamp;
        n_b += 1;
    }
    let time_b = t.elapsed();

    // (c) Raw unsorted sequential read.
    let t = Instant::now();
    let mut n_c = 0u64;
    for f in &files {
        let (recs, err) = ChunkedReader::open(&f.path).expect("dump file").read_all();
        assert!(err.is_none());
        n_c += recs.len() as u64;
    }
    let time_c = t.elapsed();

    println!("\nvariant                      records  merge-width  sorted  time");
    println!(
        "partitioned merge (paper)  {n_a:9} {:12} {:7} {time_a:?}",
        max_width,
        inversions_a == 0
    );
    println!(
        "single k-way merge         {n_b:9} {:12} {:7} {time_b:?}",
        single_width,
        inversions_b == 0
    );
    println!(
        "raw sequential (unsorted)  {n_c:9} {:12} {:7} {time_c:?}",
        "-", "-"
    );
    println!(
        "\npartitioning caps the merge width at {max_width} instead of {single_width} \
         ({} groups); both produce identical sorted output.",
        groups.len()
    );
    assert_eq!(n_a, n_b);
    assert_eq!(n_a, n_c);
    assert_eq!(inversions_a, 0);
    assert_eq!(inversions_b, 0);
    std::fs::remove_dir_all(&dir).ok();
}
