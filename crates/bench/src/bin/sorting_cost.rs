//! §3.3.4 — "the cost of sorting is negligible compared to the cost of
//! actually reading records from the dump files".
//!
//! Processes the same archive twice: once through the full sorted
//! stream (overlap grouping + multi-way merge + elem extraction) and
//! once by sequentially parsing every file with the raw MRT reader.
//! Reports the relative overhead.

use std::time::Instant;

use bench::{header, scaled};
use bgpstream_repro::bgpstream::BgpStream;
use bgpstream_repro::broker::LocalBroker;
use bgpstream_repro::mrt::ChunkedReader;
use bgpstream_repro::worlds;

fn main() {
    header("§3.3.4", "sorting cost vs reading cost");
    let dir = worlds::scratch_dir("sortcost");
    let mut world = worlds::quickstart(dir.clone(), 13);
    let horizon = scaled(6 * 3600);
    world.sim.run_until(horizon);
    let manifest: Vec<_> = world.sim.manifest().to_vec();
    println!(
        "archive: {} files, {} records, {} bytes",
        world.sim.stats().files,
        world.sim.stats().records,
        world.sim.stats().bytes
    );

    // Warm the page cache so neither pass pays cold-read costs the
    // other does not.
    for m in &manifest {
        std::fs::read(&m.path).expect("dump file");
    }

    // Baseline: raw sequential parse (no sorting, no annotation),
    // streaming records without collecting them.
    let t0 = Instant::now();
    let mut raw_records = 0u64;
    for m in &manifest {
        let mut reader = ChunkedReader::open(&m.path).expect("dump file");
        while let Some(r) = reader.next() {
            r.expect("clean archive");
            raw_records += 1;
        }
    }
    let raw_time = t0.elapsed();

    // Full sorted stream.
    let t1 = Instant::now();
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(horizon))
        .start();
    let mut stream_records = 0u64;
    while let Some(_rec) = stream.next_record() {
        stream_records += 1;
    }
    let stream_time = t1.elapsed();

    println!("raw sequential parse:   {raw_records:8} records in {raw_time:?}");
    println!("sorted stream:          {stream_records:8} records in {stream_time:?}");
    let overhead = stream_time.as_secs_f64() / raw_time.as_secs_f64().max(1e-9);
    println!(
        "sorted/raw time ratio:  {overhead:.2}x (includes elem extraction + annotation; \
         paper: sorting negligible vs reading)"
    );
    assert_eq!(
        raw_records, stream_records,
        "both paths must see every record"
    );
    std::fs::remove_dir_all(&dir).ok();
}
