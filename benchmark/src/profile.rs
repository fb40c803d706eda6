//! The traced run: where the time of a world's path goes, layer by
//! layer, taken from outside the crates by timing calls into their
//! public functions.
//!
//! The read path is a cumulative ladder over the same files — each
//! rung calls one more public entry point, a layer's self time is its
//! rung minus the rung below. Plugin, store and query layers are
//! measured directly by the adapters of `pipeline.rs`. Every workload
//! of a world reports the same profile (the README says which layers
//! each workload exercises); `live_tail` adds what only a live session
//! has.

use std::io::Read;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bgpstream_repro::bgpstream::elem::extract_into;
use bgpstream_repro::broker::index::{BrokerCursor, Query};
use bgpstream_repro::mrt::table_dump_v2::TableDumpV2;
use bgpstream_repro::mrt::{ChunkedReader, MrtBody};
use bgpstream_repro::prelude::*;
use bgpstream_repro::rib::Snapshot;

use crate::json::Json;
use crate::pipeline::{Kind, LayerClock, TimedStore};
use crate::stats::median;
use crate::workloads::{
    fold_store, live_run, pipeline_pass, scan_pass, Pass, QueryMix, QUERY_KINDS,
};
use crate::world::World;

const ROUNDS: usize = 5;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn rss_bytes() -> u64 {
    crate::proc_status_kib("VmRSS:") * 1024
}

/// One cumulative pass per rung; returns its wall in ms.
struct Ladder<'a> {
    world: &'a World,
    gz_bytes: u64,
    plain_bytes: u64,
    records: u64,
    corrupt: u64,
    elems: u64,
}

impl Ladder<'_> {
    fn each_file(&self, mut f: impl FnMut(&Path)) -> f64 {
        let t = Instant::now();
        for m in &self.world.manifest {
            f(&m.path);
        }
        ms_since(t)
    }

    fn read(&mut self) -> f64 {
        let mut n = 0;
        let ms = self.each_file(|p| n += std::fs::read(p).expect("dump readable").len() as u64);
        self.gz_bytes = n;
        ms
    }

    fn inflate(&mut self) -> f64 {
        let (mut n, mut buf) = (0, vec![0u8; 64 * 1024]);
        let ms = self.each_file(|p| {
            let file = std::fs::File::open(p).expect("dump opens");
            let mut gz = flate_lite::read::MultiGzDecoder::new(file);
            loop {
                match gz.read(&mut buf).expect("dump inflates") {
                    0 => break,
                    k => n += k as u64,
                }
            }
        });
        self.plain_bytes = n;
        ms
    }

    fn frame(&mut self) -> f64 {
        let mut n = 0;
        let ms = self.each_file(|p| {
            let mut r = ChunkedReader::open(p).expect("dump opens");
            while let Some(raw) = r.next_raw() {
                n += u64::from(std::hint::black_box(raw).is_ok());
            }
        });
        std::hint::black_box(n);
        ms
    }

    /// Decode every record; with `extract`, also turn it into elems.
    fn decode(&mut self, extract: bool) -> f64 {
        let (mut records, mut corrupt, mut elems) = (0, 0, 0);
        let mut scratch = Vec::new();
        let ms = self.each_file(|p| {
            let mut r = ChunkedReader::open(p).expect("dump opens");
            let mut pit = None;
            while let Some(rec) = r.next() {
                let Ok(rec) = rec else {
                    corrupt += 1;
                    continue;
                };
                records += 1;
                if !extract {
                    std::hint::black_box(&rec);
                    continue;
                }
                if let MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(table)) = &rec.body {
                    pit = Some(table.clone());
                }
                scratch.clear();
                extract_into(rec, pit.as_ref(), &mut scratch);
                elems += std::hint::black_box(&scratch).len() as u64;
            }
        });
        (self.records, self.corrupt) = (records, corrupt);
        if extract {
            self.elems = elems;
        }
        ms
    }
}

fn broker_paging(world: &World, index: &Arc<Index>) -> (f64, u64) {
    let broker = LocalBroker::shared(index.clone());
    let query = Query {
        start: 0,
        end: Some(world.horizon + crate::pipeline::BIN),
        ..Query::default()
    };
    let mut dumps = 0;
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let mut cursor = BrokerCursor { window_start: 0 };
            dumps = 0;
            loop {
                let page = broker
                    .query(&query, &mut cursor, u64::MAX)
                    .expect("local broker answers");
                dumps += page.files.len() as u64;
                if page.exhausted {
                    break;
                }
            }
            ms_since(t)
        })
        .collect();
    (median(&times), dumps)
}

/// Every per-layer metric of `world`, by name, plus the spans behind
/// them for the trace file.
pub fn profile(world: &World, live: bool, seconds: f64) -> (Vec<(&'static str, f64)>, Vec<Json>) {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut spans: Vec<Json> = Vec::new();
    let index = world.index();

    // Read path: ROUNDS rounds of the whole ladder. Self times are taken
    // within a round (so a slow spell of the host cancels out), then
    // their medians across rounds.
    let mut ladder = Ladder {
        world,
        gz_bytes: 0,
        plain_bytes: 0,
        records: 0,
        corrupt: 0,
        elems: 0,
    };
    let mut selfs: [Vec<f64>; 7] = Default::default();
    let mut reject_share = 0.0;
    for round in 0..ROUNDS {
        let filtered = scan_pass(world, &index, true);
        reject_share = filtered.elemless as f64 / filtered.records.max(1) as f64;
        let walls = [
            ladder.read(),
            ladder.inflate(),
            ladder.frame(),
            ladder.decode(false),
            ladder.decode(true),
            scan_pass(world, &index, false).wall.as_secs_f64() * 1e3,
            filtered.wall.as_secs_f64() * 1e3,
        ];
        let names = [
            "read", "inflate", "frame", "decode", "extract", "stream", "filtered",
        ];
        // Each rung's self time is its wall minus the rung below; the
        // filtered pass bypasses decode and extract, so it sits on frame.
        let below = [
            0.0, walls[0], walls[1], walls[2], walls[3], walls[4], walls[2],
        ];
        for (k, (name, ms)) in names.iter().zip(walls).enumerate() {
            selfs[k].push(ms - below[k]);
            spans.push(Json::obj([
                ("span", Json::from("ladder")),
                ("rung", Json::from(*name)),
                ("round", Json::from(round as u64)),
                ("cumulative_ms", Json::from(ms)),
                ("self_ms", Json::from(ms - below[k])),
            ]));
        }
    }
    let [read, inflate, frame, decode, extract, merge, filter] = selfs.map(|r| median(&r));
    let (broker_ms, dumps) = broker_paging(world, &index);
    m.extend([
        ("io.read_ms", read),
        ("inflate.ms", inflate),
        (
            "inflate.out_mib_per_s",
            ladder.plain_bytes as f64 / (1 << 20) as f64 / (inflate / 1e3),
        ),
        ("mrt.frame_ms", frame),
        ("mrt.decode_ms", decode),
        ("mrt.records", ladder.records as f64),
        ("mrt.corrupt_records", ladder.corrupt as f64),
        ("core.extract_ms", extract),
        ("core.elems", ladder.elems as f64),
        ("core.merge_ms", merge),
        ("core.filter_ms", filter),
        ("core.prefilter_reject_share", reject_share),
        ("broker.query_ms", broker_ms),
        ("broker.dumps", dumps as f64),
    ]);

    // Plugin and RIB-write layers: untraced passes for the overhead,
    // passes through the adapters for the layers; alternating, and the
    // faster of two each, so that a slow spell does not pass for
    // overhead (or hide it).
    let mut plain_ms = f64::INFINITY;
    let mut best: Option<(Pass, _, _, _)> = None;
    for _ in 0..2 {
        let (plain, _) = pipeline_pass(world, &index, MemoryRibStore::shared(), None);
        plain_ms = plain_ms.min(plain.wall.as_secs_f64() * 1e3);
        let clock = Arc::new(LayerClock::default());
        let store = TimedStore::new();
        let (traced, set) = pipeline_pass(world, &index, store.clone(), Some(&clock));
        if best.as_ref().is_none_or(|b| traced.wall < b.0.wall) {
            best = Some((traced, set, clock, store));
        }
    }
    let (traced, set, clock, store) = best.expect("two passes ran");
    let traced_ms = traced.wall.as_secs_f64() * 1e3;
    let plugins_ms: f64 = [Kind::Stats, Kind::PfxMonitor, Kind::Rt, Kind::Rib]
        .iter()
        .map(|k| clock.busy_ms(*k))
        .sum();
    let seal: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Snapshot::seal(world.horizon, set.feeder.fold().table()));
            ms_since(t)
        })
        .collect();
    m.extend([
        ("corsaro.stats_ms", clock.busy_ms(Kind::Stats)),
        ("corsaro.pfxmonitor_ms", clock.busy_ms(Kind::PfxMonitor)),
        ("corsaro.rt_ms", clock.busy_ms(Kind::Rt)),
        // What is left of a pass for the stream: against the untraced
        // wall, so that the adapters' own clock reads do not land here.
        ("corsaro.stream_wait_ms", plain_ms - plugins_ms),
        ("rib.fold_ms", clock.process_ms(Kind::Rib)),
        ("rib.seal_publish_ms", clock.end_bin_ms(Kind::Rib)),
        (
            "rib.store_publish_ms",
            store.publish_ns.load(Ordering::Relaxed) as f64 / 1e6,
        ),
        ("rib.seal_ms", median(&seal)),
        (
            "rib.snapshot_bytes",
            store.snapshot_bytes.load(Ordering::Relaxed) as f64,
        ),
        ("rib.snapshots", store.inner.snapshot_count() as f64),
        ("rib.journal_events", store.inner.event_count() as f64),
        ("rib.routes", set.feeder.fold().table().route_count() as f64),
        ("trace.overhead_share", traced_ms / plain_ms - 1.0),
    ]);
    spans.push(Json::obj([
        ("span", Json::from("pipeline_pass")),
        ("untraced_ms", Json::from(plain_ms)),
        ("traced_ms", Json::from(traced_ms)),
    ]));
    drop((set, store));

    // RIB read layer, on a store folded the way `rib_query` folds it.
    let before = rss_bytes();
    let (store, feeder) = fold_store(world, &index);
    let routes = feeder.fold().table().route_count().max(1);
    m.push((
        "rib.resident_bytes_per_route",
        rss_bytes().saturating_sub(before) as f64 / routes as f64,
    ));
    drop(feeder);
    let mut mix = QueryMix::new(&*store, world.seed);
    for (kind, name) in QUERY_KINDS.iter().zip([
        "rib.q_table_ms",
        "rib.q_prefix_ms",
        "rib.q_origin_ms",
        "rib.q_history_ms",
    ]) {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let args = mix.draw(*kind);
                let t = Instant::now();
                std::hint::black_box(args.resolve(&*store)).expect("query resolves");
                ms_since(t)
            })
            .collect();
        m.push((name, median(&times)));
    }
    // The resolve steps of a table query, replayed one public call at a
    // time (an instant below the first snapshot starts from genesis).
    let (mut decode, mut events, mut apply, mut encode) = (vec![], vec![], vec![], vec![]);
    for k in 1..=5u64 {
        let at = store.watermark() * k / 6;
        let snap = store.snapshot_at(at);
        let t = Instant::now();
        let mut table = match &snap {
            Some(snap) => snap.table().expect("sealed snapshot opens"),
            None => RibTable::new(),
        };
        decode.push(ms_since(t));
        let delta = store.events_in(snap.map_or(0, |s| s.at), at);
        events.push(delta.len() as f64);
        let t = Instant::now();
        for ev in &delta {
            table.apply(ev);
        }
        apply.push(ms_since(t));
        let t = Instant::now();
        std::hint::black_box(table.view(at).encode());
        encode.push(ms_since(t));
    }
    m.extend([
        ("rib.snapshot_decode_ms", median(&decode)),
        ("rib.delta_events", median(&events)),
        ("rib.delta_apply_ms", median(&apply)),
        ("rib.view_encode_ms", median(&encode)),
    ]);
    drop(store);

    // What only a live session has; on the historical workloads there
    // is no feeder, no shard and no merge, and these read zero.
    let mut live_metrics = [0.0; 7];
    if live {
        let clock = Arc::new(LayerClock::default());
        let run = live_run(world, seconds, MemoryRibStore::shared(), Some(&clock));
        let wall_ns = run.wall.as_nanos() as f64;
        live_metrics = [
            run.late_max.as_secs_f64() / run.interval.as_secs_f64(),
            run.publish.as_nanos() as f64 / wall_ns,
            clock.shard_ns.load(Ordering::Relaxed) as f64 / wall_ns,
            clock.merge_ns.load(Ordering::Relaxed) as f64 / wall_ns,
            clock.partial_bytes.load(Ordering::Relaxed) as f64,
            run.report.bins_closed as f64,
            run.backlog_max as f64,
        ];
        for s in clock.spans.lock().expect("span log").iter() {
            spans.push(span_json("live", s));
        }
    }
    m.extend(
        [
            "live.gen_late_share_max",
            "broker.publish_share",
            "corsaro.shard_busy_share",
            "corsaro.merge_share",
            "corsaro.partial_bytes",
            "corsaro.bins_closed",
            "corsaro.backlog_bins_max",
        ]
        .into_iter()
        .zip(live_metrics),
    );
    for s in clock.spans.lock().expect("span log").iter() {
        spans.push(span_json("pipeline", s));
    }
    (m, spans)
}

fn span_json(run: &str, s: &crate::pipeline::Span) -> Json {
    Json::obj([
        ("span", Json::from(run)),
        ("layer", Json::from(format!("{:?}", s.kind))),
        ("parent", Json::from(if s.shard { "shard" } else { "root" })),
        ("bin_start", Json::from(s.bin_start)),
        ("busy_ns", Json::from(s.busy_ns)),
        ("calls", Json::from(s.calls)),
    ])
}
