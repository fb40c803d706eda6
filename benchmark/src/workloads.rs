//! The measured sections: what runs, untraced, between "inputs are on
//! disk" and "outputs are checked". Each returns its timing samples and
//! how many of its operations gave a wrong answer.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgpstream_repro::bgpstream::Clock;
use bgpstream_repro::collector_sim::{FaultPlan, LiveFeeder};
use bgpstream_repro::prelude::*;
use bgpstream_repro::rib::RibEvent;

use crate::json::Json;
use crate::pipeline::{store_checksum, BinClock, LayerClock, PluginSet, BIN, SNAPSHOT_EVERY};
use crate::stats::{median, percentile, spread};
use crate::world::{Rng, World};

/// The tail every workload reports next to its median. The live bins
/// (97 a run) and the queries put about ten samples beyond it; the few
/// dozen passes of a historical workload fewer, and its tail says how
/// uneven the passes of one run were, no more.
pub const TAIL: f64 = 90.0;

/// What one measured section produced.
pub struct Outcome {
    /// Operations checked (passes, bins or queries) and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Set-up only this process could do (the `rib_query` fold).
    pub prepare_s: f64,
    pub throughput_per_s: f64,
    /// One sample per pass over the archive (historical workloads), per
    /// bin (live) or per query.
    pub latency_ms: Vec<f64>,
    /// Shown in the result document, not compared.
    pub detail: Vec<(&'static str, Json)>,
}

pub fn stream(world: &World, index: &Arc<Index>) -> BgpStreamBuilder {
    BgpStream::builder()
        .broker_client(LocalBroker::shared(index.clone()))
        .interval(0, Some(world.horizon + BIN))
}

/// One read of the whole archive.
pub struct Pass {
    pub wall: Duration,
    pub records: u64,
    pub elems: u64,
    pub invalid: u64,
    /// Records delivered without an elem (all filtered away, or none to begin with).
    pub elemless: u64,
}

/// bgpreader's loop: pull every record, look at its elems.
pub fn scan_pass(world: &World, index: &Arc<Index>, filtered: bool) -> Pass {
    let mut builder = stream(world, index);
    if filtered {
        builder = builder
            .filter_prefix(world.filter_prefix, PrefixMatch::MoreSpecific)
            .filter_elem_type(ElemType::Announcement);
    }
    let start = Instant::now();
    let mut s = builder.start();
    let mut pass = Pass {
        wall: Duration::ZERO,
        records: 0,
        elems: 0,
        invalid: 0,
        elemless: 0,
    };
    while let Some(rec) = s.next_record() {
        pass.records += 1;
        let elems = std::hint::black_box(rec.elems()).len() as u64;
        pass.elems += elems;
        pass.elemless += u64::from(elems == 0);
        pass.invalid += u64::from(!rec.status.is_valid());
    }
    pass.wall = start.elapsed();
    pass
}

/// `run_pipeline` with a fresh plugin set publishing into `store`;
/// with a `clock`, through the timing adapters.
pub fn pipeline_pass(
    world: &World,
    index: &Arc<Index>,
    store: Arc<dyn RibStore>,
    clock: Option<&Arc<LayerClock>>,
) -> (Pass, PluginSet) {
    let mut set = PluginSet::new(world, store);
    let start = Instant::now();
    let mut s = stream(world, index).start();
    let records = set.with_roots(clock, None, |roots| {
        let mut plugins: Vec<&mut dyn Plugin> = roots
            .iter_mut()
            .map(|r| &mut **r as &mut dyn Plugin)
            .collect();
        run_pipeline(&mut s, BIN, &mut plugins)
    });
    let pass = Pass {
        wall: start.elapsed(),
        records,
        elems: set.total_elems(),
        invalid: 0,
        elemless: 0,
    };
    (pass, set)
}

fn expect(world: &World, key: &str) -> u64 {
    *world
        .expect
        .get(key)
        .unwrap_or_else(|| panic!("world.txt lacks expect.{key}: built for another workload?"))
}

/// Passes over the archive until `seconds` are used, the first of them
/// an untimed warm-up, at least three timed; each checked by `wrong`.
fn repeat_passes(
    seconds: f64,
    records: u64,
    mut pass: impl FnMut() -> Pass,
    mut wrong: impl FnMut(&Pass) -> Vec<String>,
) -> Outcome {
    let begin = Instant::now();
    let warm = pass();
    let mut mismatches = wrong(&warm);
    let (mut walls, mut failed) = (Vec::new(), 0);
    while walls.len() < 3 || begin.elapsed().as_secs_f64() < seconds {
        let p = pass();
        let bad = wrong(&p);
        failed += u64::from(!bad.is_empty());
        mismatches.extend(bad);
        walls.push(p.wall.as_secs_f64());
    }
    mismatches.truncate(8);
    Outcome {
        attempted: walls.len() as u64,
        failed,
        prepare_s: 0.0,
        throughput_per_s: records as f64 / median(&walls),
        latency_ms: walls.iter().map(|s| s * 1e3).collect(),
        detail: vec![
            ("passes", Json::from(walls.len() as u64)),
            ("pass_s_median", Json::from(median(&walls))),
            ("pass_s_q1", Json::from(percentile(&walls, 25.0))),
            ("pass_s_q3", Json::from(percentile(&walls, 75.0))),
            ("throughput_spread", Json::from(spread(&walls))),
            (
                "mismatches",
                Json::Arr(mismatches.into_iter().map(Json::from).collect()),
            ),
        ],
    }
}

fn differs(what: &str, got: u64, want: u64) -> Option<String> {
    (got != want).then(|| format!("{what}: got {got}, reference {want}"))
}

pub fn hist_scan(world: &World, seconds: f64, filtered: bool) -> Outcome {
    let index = world.index();
    let records = expect(world, "sim_records");
    let elems = expect(world, if filtered { "filtered_elems" } else { "elems" });
    repeat_passes(
        seconds,
        records,
        || scan_pass(world, &index, filtered),
        |p| {
            [
                differs("records", p.records, records),
                differs("elems", p.elems, elems),
                differs("invalid records", p.invalid, 0),
            ]
            .into_iter()
            .flatten()
            .collect()
        },
    )
}

pub fn hist_pipeline(world: &World, seconds: f64) -> Outcome {
    let index = world.index();
    let records = expect(world, "sim_records");
    let mut last_store: Option<(Arc<MemoryRibStore>, PluginSet)> = None;
    let mut out = repeat_passes(
        seconds,
        records,
        || {
            // Free the last pass's outputs first: a pass starts from
            // the memory a fresh process would have.
            last_store = None;
            let store = MemoryRibStore::shared();
            let (pass, set) = pipeline_pass(world, &index, store.clone(), None);
            last_store = Some((store, set));
            pass
        },
        |p| {
            [
                differs("records", p.records, records),
                differs("elems", p.elems, expect(world, "elems")),
            ]
            .into_iter()
            .flatten()
            .collect()
        },
    );
    // The series and the store of the last pass stand for all: every
    // pass ran the same code over the same bytes.
    let (store, set) = last_store.expect("at least one pass ran");
    out.attempted += 3;
    for bad in [
        differs("bins", set.bins(), expect(world, "bins")),
        differs(
            "plugin series",
            set.checksum(),
            expect(world, "series_checksum"),
        ),
        differs(
            "rib store",
            store_checksum(&*store),
            expect(world, "store_checksum"),
        ),
    ]
    .into_iter()
    .flatten()
    {
        out.failed += 1;
        out.detail.push(("mismatch", Json::from(bad)));
    }
    out
}

/// What the open-loop feeder and the runtime did in one live session.
pub struct LiveRun {
    pub report: bgpstream_repro::corsaro::LiveRunReport,
    pub set: PluginSet,
    pub wall: Duration,
    /// Milliseconds from the instant a bin was due to its close.
    pub latency_ms: Vec<f64>,
    /// Wall time between two publication steps.
    pub interval: Duration,
    /// The furthest the feeder ran behind its own schedule.
    pub late_max: Duration,
    /// Time inside `LiveFeeder::publish_until`, all steps.
    pub publish: Duration,
    /// Most bins that were due and not yet closed.
    pub backlog_max: u64,
}

/// Re-publish the archive on a fixed schedule — one five-minute window
/// of virtual time per `interval`, however the consumer fares — and
/// tail it with a watermark-released live stream into `run_live`.
pub fn live_run(
    world: &World,
    seconds: f64,
    store: Arc<dyn RibStore>,
    clock: Option<&Arc<LayerClock>>,
) -> LiveRun {
    let live_index = Arc::new(Index::with_window(3 * BIN));
    let mut feeder = LiveFeeder::new(
        &world.manifest,
        live_index.clone(),
        &FaultPlan::none(),
        world.seed,
    );
    let stop = (expect(world, "max_ts") / BIN + 1) * BIN;
    let steps = feeder.horizon().div_ceil(BIN) + 1;
    let interval = Duration::from_secs_f64(seconds / steps as f64);
    let stream_clock = Clock::manual(0);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .clamp(1, 2);

    let mut set = PluginSet::new(world, store);
    let mut bins = BinClock::default();
    let start = Instant::now();
    let feeder_clock = stream_clock.clone();
    let feeder_index = live_index.clone();
    let publisher = std::thread::spawn(move || {
        let mut due_log: Vec<(u64, Instant)> = Vec::new();
        let (mut late_max, mut publish) = (Duration::ZERO, Duration::ZERO);
        let mut next_end = BIN;
        for k in 1..=steps {
            let due = start + interval * k as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = Instant::now();
            late_max = late_max.max(now.saturating_duration_since(due));
            feeder.publish_until(k * BIN);
            publish += now.elapsed();
            feeder_clock.advance_to(k * BIN);
            // Latency is timed from when the schedule, not the thread,
            // let the watermark pass a bin's end.
            let watermark = feeder_index.watermark();
            while next_end <= watermark.min(stop) {
                due_log.push((next_end, due));
                next_end += BIN;
            }
        }
        assert!(feeder.done(), "schedule shorter than the feed");
        (due_log, late_max, publish)
    });

    let mut s = BgpStream::builder()
        .broker_client(LocalBroker::shared(live_index))
        .live(0)
        .watermark_release()
        .clock(stream_clock)
        .poll_interval(Duration::from_millis(1))
        .start();
    let runtime = ShardedRuntime::builder()
        .workers(workers)
        .bin_size(BIN)
        .build();
    let report = set
        .with_roots(clock, Some(&mut bins), |roots| {
            runtime.run_live(&mut s, stop, None, roots)
        })
        .expect("run_live");
    let wall = start.elapsed();
    let (due_log, late_max, publish) = publisher.join().expect("feeder thread");

    let due: BTreeMap<u64, Instant> = due_log.iter().copied().collect();
    let latency_ms = bins
        .closed
        .iter()
        .filter_map(|(bin_start, at)| {
            Some(
                at.saturating_duration_since(*due.get(&(bin_start + BIN))?)
                    .as_secs_f64()
                    * 1e3,
            )
        })
        .collect();
    let mut due_sorted: Vec<Instant> = due_log.iter().map(|d| d.1).collect();
    due_sorted.sort();
    let backlog_max = bins
        .closed
        .iter()
        .enumerate()
        .map(|(closed_before, (_, at))| {
            (due_sorted.partition_point(|d| d <= at) as u64).saturating_sub(closed_before as u64)
        })
        .max()
        .unwrap_or(0);
    LiveRun {
        report,
        set,
        wall,
        latency_ms,
        interval,
        late_max,
        publish,
        backlog_max,
    }
}

pub fn live_tail(world: &World, seconds: f64) -> Outcome {
    let store = MemoryRibStore::shared();
    let run = live_run(world, seconds, store.clone(), None);
    let bins = expect(world, "bins");
    let checks = [
        differs("records", run.report.records, expect(world, "sim_records")),
        differs("elems", run.set.total_elems(), expect(world, "elems")),
        differs("bins closed", run.report.bins_closed, bins),
        differs("bins timed", run.latency_ms.len() as u64, bins),
        differs("partial bins", run.report.partial_bins.len() as u64, 0),
        differs(
            "plugin series",
            run.set.checksum(),
            expect(world, "series_checksum"),
        ),
        differs(
            "rib store",
            store_checksum(&*store),
            expect(world, "store_checksum"),
        ),
    ];
    let mismatches: Vec<Json> = checks
        .iter()
        .flatten()
        .map(|m| Json::from(m.as_str()))
        .collect();
    Outcome {
        // Every bin is an operation; a bin fails when it closed partial,
        // and any reference mismatch fails one more.
        attempted: bins + checks.len() as u64,
        failed: mismatches.len() as u64,
        prepare_s: 0.0,
        throughput_per_s: run.report.records as f64 / run.wall.as_secs_f64(),
        latency_ms: run.latency_ms,
        detail: vec![
            ("wall_s", Json::from(run.wall.as_secs_f64())),
            (
                "window_interval_ms",
                Json::from(run.interval.as_secs_f64() * 1e3),
            ),
            (
                "gen_late_ms_max",
                Json::from(run.late_max.as_secs_f64() * 1e3),
            ),
            ("backlog_bins_max", Json::from(run.backlog_max)),
            ("mismatches", Json::Arr(mismatches)),
        ],
    }
}

/// Fold the archive into a fresh store: what a RIB service does before
/// it can answer anything.
pub fn fold_store(world: &World, index: &Arc<Index>) -> (Arc<MemoryRibStore>, RibFeeder) {
    let store = MemoryRibStore::shared();
    let mut feeder = RibFeeder::new(SNAPSHOT_EVERY, store.clone());
    let mut s = stream(world, index).start();
    run_pipeline(&mut s, BIN, &mut [&mut feeder]);
    (store, feeder)
}

/// The four query shapes, in the order the client cycles through them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    Table,
    Prefix,
    Origin,
    History,
}

pub const QUERY_KINDS: [QueryKind; 4] = [
    QueryKind::Table,
    QueryKind::Prefix,
    QueryKind::Origin,
    QueryKind::History,
];

/// Seeded query arguments drawn from what the store actually holds.
pub struct QueryMix {
    rng: Rng,
    watermark: u64,
    prefixes: Vec<Prefix>,
    origins: Vec<Asn>,
}

/// One drawn query. `at` is the instant (the range start for history).
#[derive(Clone, Copy, Debug)]
pub struct QueryArgs {
    pub kind: QueryKind,
    pub at: u64,
    pub prefix: Prefix,
    pub origin: Asn,
}

/// A resolved answer in comparable form.
#[derive(PartialEq, Eq, Debug)]
pub enum Answer {
    Table(Vec<u8>),
    Events(Vec<RibEvent>),
}

const HISTORY_SPAN: u64 = 1800;

impl QueryMix {
    pub fn new(store: &dyn RibStore, seed: u64) -> QueryMix {
        let latest = RibQuery::new().table(store).expect("folded store resolves");
        let mut prefixes: Vec<Prefix> = latest.rows.iter().map(|r| r.prefix).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        QueryMix {
            rng: Rng(seed ^ 0x5152_5942),
            watermark: store.watermark(),
            prefixes,
            origins: latest.origin_asns(),
        }
    }

    /// T uniform below the watermark, prefix and origin uniform over
    /// what the final table holds.
    pub fn draw(&mut self, kind: QueryKind) -> QueryArgs {
        let mut at = self.rng.below(self.watermark);
        if kind == QueryKind::History {
            at = at.min(self.watermark.saturating_sub(HISTORY_SPAN + 1));
        }
        QueryArgs {
            kind,
            at,
            prefix: self.prefixes[self.rng.below(self.prefixes.len() as u64) as usize],
            origin: self.origins[self.rng.below(self.origins.len() as u64) as usize],
        }
    }
}

impl QueryArgs {
    pub fn resolve(&self, store: &dyn RibStore) -> Result<Answer, RibError> {
        let table = |q: RibQuery| {
            q.at(self.at)
                .table(store)
                .map(|v| Answer::Table(v.encode()))
        };
        match self.kind {
            QueryKind::Table => table(RibQuery::new()),
            QueryKind::Prefix => table(RibQuery::new().prefix(self.prefix)),
            QueryKind::Origin => table(RibQuery::new().origin_asn(self.origin)),
            QueryKind::History => RibQuery::new()
                .history(self.at, self.at + HISTORY_SPAN)
                .prefix(self.prefix)
                .events(store)
                .map(Answer::Events),
        }
    }

    /// The same answer the slow way: the journal replayed from genesis
    /// through `RibTable::apply`, no snapshot and no `RibQuery` involved.
    fn replayed(&self, store: &dyn RibStore) -> Answer {
        if self.kind == QueryKind::History {
            let mut events = store.events_in(self.at, self.at + HISTORY_SPAN);
            events.retain(|ev| ev.prefix() == Some(&self.prefix));
            return Answer::Events(events);
        }
        let mut table = RibTable::new();
        for ev in store.events_in(0, self.at) {
            table.apply(&ev);
        }
        let mut view = table.view(self.at);
        view.rows.retain(|row| match self.kind {
            QueryKind::Prefix => row.prefix == self.prefix,
            QueryKind::Origin => row.route.origin_asn() == Some(self.origin),
            _ => true,
        });
        Answer::Table(view.encode())
    }
}

/// One closed-loop client: the next query goes out when the previous
/// answer is in.
pub fn rib_query(world: &World, seconds: f64) -> Outcome {
    let index = world.index();
    let t = Instant::now();
    let (store, feeder) = fold_store(world, &index);
    let prepare_s = t.elapsed().as_secs_f64();
    drop(feeder);

    let mut mix = QueryMix::new(&*store, world.seed);
    let (mut latency_ms, mut failed, mut mismatches) = (Vec::new(), 0, Vec::new());
    let mut busy = Duration::ZERO;
    // Two answers of each kind are compared with a from-genesis replay
    // (a replay costs as much as a dozen queries, hence not all).
    let mut to_check = [2u32; 4];
    let begin = Instant::now();
    let mut k = 0;
    while k < 8 || begin.elapsed().as_secs_f64() < seconds {
        let args = mix.draw(QUERY_KINDS[k % 4]);
        let t = Instant::now();
        let answer = args.resolve(&*store);
        let took = t.elapsed();
        busy += took;
        latency_ms.push(took.as_secs_f64() * 1e3);
        match answer {
            Err(e) => {
                failed += 1;
                mismatches.push(format!("{args:?}: {e}"));
            }
            Ok(answer) if to_check[k % 4] > 0 => {
                to_check[k % 4] -= 1;
                if answer != args.replayed(&*store) {
                    failed += 1;
                    mismatches.push(format!("{args:?}: differs from genesis replay"));
                }
            }
            Ok(_) => {}
        }
        k += 1;
    }
    mismatches.truncate(8);
    Outcome {
        attempted: k as u64,
        failed,
        prepare_s,
        throughput_per_s: k as f64 / busy.as_secs_f64(),
        latency_ms,
        detail: vec![
            ("queries", Json::from(k as u64)),
            ("routes", Json::from(store_routes(&*store))),
            ("journal_events", Json::from(store.event_count() as u64)),
            (
                "mismatches",
                Json::Arr(mismatches.into_iter().map(Json::from).collect()),
            ),
        ],
    }
}

fn store_routes(store: &dyn RibStore) -> u64 {
    RibQuery::new().table(store).map_or(0, |v| v.len() as u64)
}
