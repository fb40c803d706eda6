//! Criterion benchmarks for the RIB layer (PR 10): folding a full
//! archive into Loc-RIB state (`rib/fold_throughput`), and the
//! time-travel claim — answering `RibQuery::at(T)` from a sealed
//! snapshot plus a bounded event delta (`rib/time_travel_query`) must
//! beat replaying the whole journal from genesis
//! (`rib/full_replay`). CI gates the latter pair at >=5x via
//! `bench_gate --min-speedup` (same-run ratio, no parallelism, never
//! self-skips). A prefix query at the same instant
//! (`rib/narrowed_query`) binary-searches each vantage point's rows in
//! the snapshot's index, and an origin query (`rib/origin_query`)
//! decodes only the rows its origin's posting list names; CI gates
//! each against the full-table `rib/time_travel_query`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bgpstream_repro::bgpstream::BgpStream;
use bgpstream_repro::broker::LocalBroker;
use bgpstream_repro::corsaro::{run_pipeline, RibFeeder};
use bgpstream_repro::rib::{MemoryRibStore, RibQuery, RibStore, RibTable};
use bgpstream_repro::topology::events::Scenario;
use bgpstream_repro::worlds;

const BIN: u64 = 300;
const SNAPSHOT_EVERY: u64 = 900;
const HORIZON: u64 = 3 * 3600;

fn mk_stream(world: &worlds::World) -> BgpStream {
    BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(HORIZON))
        .start()
}

/// Fold the whole archive into a fresh store the way historical runs
/// do: the `RibFeeder` plugin under `run_pipeline`.
fn fold_archive(world: &worlds::World) -> (std::sync::Arc<MemoryRibStore>, RibFeeder) {
    let store = MemoryRibStore::shared();
    let mut feeder = RibFeeder::new(SNAPSHOT_EVERY, store.clone());
    run_pipeline(&mut mk_stream(world), BIN, &mut [&mut feeder]);
    (store, feeder)
}

fn bench_rib(c: &mut Criterion) {
    let dir = worlds::scratch_dir("bench-rib");
    let mut world = worlds::quickstart(dir, 77);
    // Pile heavy route flapping on top of the quickstart scenario:
    // the time-travel claim is about churny archives, where the
    // journal dwarfs the table and a from-genesis replay drowns in
    // updates that a sealed snapshot has already absorbed.
    {
        let topo = world.sim.control_plane().topology().clone();
        let mut sc = Scenario::new();
        for (k, n) in topo
            .nodes
            .iter()
            .filter(|n| !n.prefixes_v4.is_empty())
            .enumerate()
        {
            for (j, p) in n.prefixes_v4.iter().take(2).enumerate() {
                sc.flap(60 + 17 * k as u64 + 7 * j as u64, 32, 300, n.asn, p.prefix);
            }
        }
        world.sim.schedule(&sc);
    }
    world.sim.run_until(HORIZON);
    let bytes = world.sim.stats().bytes;

    let mut g = c.benchmark_group("rib");
    g.throughput(Throughput::Bytes(bytes));

    // The fold hot path: full sorted stream -> per-(collector, peer)
    // Loc-RIB state, journal + sealed snapshots published per bin.
    g.bench_function("fold_throughput", |b| {
        b.iter(|| {
            let (store, feeder) = fold_archive(&world);
            black_box((feeder.fold().stats().records, store.event_count()))
        })
    });

    // One folded store shared by the query benches: what a long-lived
    // service holds after ingesting the archive.
    let (store, _) = fold_archive(&world);
    // Query at the last complete instant: the worst case for a replay
    // (longest journal prefix), the typical case for snapshot+delta
    // (one sealed frame + under one cadence worth of events).
    let t = store.watermark() - 1;

    // The old answer: replay the whole journal from genesis.
    g.bench_function("full_replay", |b| {
        b.iter(|| {
            let mut table = RibTable::new();
            for ev in store.events_in(0, t) {
                table.apply(&ev);
            }
            black_box(table.view(t).encode().len())
        })
    });

    // The PR 10 answer: nearest snapshot <= T plus the event delta.
    g.bench_function("time_travel_query", |b| {
        b.iter(|| {
            let view = RibQuery::new()
                .at(t)
                .table(&*store)
                .expect("below watermark");
            black_box(view.encode().len())
        })
    });

    // The same instant narrowed to one prefix: only that prefix's rows
    // of the snapshot are decoded and the delta touches only its cells.
    let latest = RibQuery::new()
        .at(t)
        .table(&*store)
        .expect("below watermark");
    let prefix = latest.rows[0].prefix;
    g.bench_function("narrowed_query", |b| {
        b.iter(|| {
            let view = RibQuery::new()
                .at(t)
                .prefix(prefix)
                .table(&*store)
                .expect("below watermark");
            black_box(view.encode().len())
        })
    });

    // The same instant narrowed to one origin the table holds: only
    // the rows its posting list names are decoded.
    let origin = latest.origin_asns()[0];
    g.bench_function("origin_query", |b| {
        b.iter(|| {
            let view = RibQuery::new()
                .at(t)
                .origin_asn(origin)
                .table(&*store)
                .expect("below watermark");
            black_box(view.encode().len())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_rib);
criterion_main!(benches);
