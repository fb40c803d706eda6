//! The plugin set every pipeline workload drives, how its outputs are
//! condensed into checksums, and the benchmark-owned adapters that time
//! calls into each layer's public functions (the crates themselves
//! carry no instrumentation).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bgpstream_repro::corsaro::runtime::ShardedPlugin;
use bgpstream_repro::corsaro::{ElemCounter, Partitioning, PfxMonitor, RtPlugin};
use bgpstream_repro::prelude::*;
use bgpstream_repro::rib::{RibEvent, Snapshot};

use crate::world::{fnv, World, FNV_SEED};

/// Bin size of every pipeline workload: the paper's five minutes.
pub const BIN: u64 = 300;
/// Seconds of stream time between sealed RIB snapshots.
pub const SNAPSHOT_EVERY: u64 = 3600;

/// `ElemCounter`, three `PfxMonitor`s over disjoint thirds of the
/// announced space, one `RtPlugin` per collector, and a `RibFeeder`
/// sealing hourly into `store`.
pub struct PluginSet {
    pub stats: ElemCounter,
    pub monitors: Vec<PfxMonitor>,
    pub rts: Vec<RtPlugin>,
    pub feeder: RibFeeder,
}

/// Which layer a plugin of the set is accounted to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Stats,
    PfxMonitor,
    Rt,
    Rib,
}

impl PluginSet {
    pub fn new(world: &World, store: Arc<dyn RibStore>) -> PluginSet {
        PluginSet {
            stats: ElemCounter::new(),
            monitors: world
                .ranges
                .iter()
                .map(|r| PfxMonitor::new(r.iter().copied()))
                .collect(),
            rts: world.collectors.iter().map(|c| RtPlugin::new(c)).collect(),
            feeder: RibFeeder::new(SNAPSHOT_EVERY, store),
        }
    }

    /// Hand `f` the plugins in pipeline order — behind the timing
    /// adapters when there is a `clock` — followed by `last`.
    pub fn with_roots<R>(
        &mut self,
        clock: Option<&Arc<LayerClock>>,
        last: Option<&mut (dyn ShardedPlugin + 'static)>,
        f: impl FnOnce(&mut [&mut dyn ShardedPlugin]) -> R,
    ) -> R {
        let mut timed: Vec<_>;
        let mut roots: Vec<&mut dyn ShardedPlugin> = match clock {
            None => self
                .plugins()
                .into_iter()
                .map(|(_, p)| p as &mut dyn ShardedPlugin)
                .collect(),
            Some(clock) => {
                timed = self
                    .plugins()
                    .into_iter()
                    .map(|(kind, p)| Timed::root(kind, p, clock.clone()))
                    .collect();
                timed
                    .iter_mut()
                    .map(|t| t as &mut dyn ShardedPlugin)
                    .collect()
            }
        };
        if let Some(last) = last {
            roots.push(last);
        }
        f(&mut roots)
    }

    /// The plugins in pipeline order, each with its layer.
    fn plugins(&mut self) -> Vec<(Kind, &mut (dyn ShardedPlugin + 'static))> {
        let mut v: Vec<(Kind, &mut (dyn ShardedPlugin + 'static))> =
            vec![(Kind::Stats, &mut self.stats)];
        v.extend(
            self.monitors
                .iter_mut()
                .map(|m| (Kind::PfxMonitor, m as &mut (dyn ShardedPlugin + 'static))),
        );
        v.extend(
            self.rts
                .iter_mut()
                .map(|r| (Kind::Rt, r as &mut (dyn ShardedPlugin + 'static))),
        );
        v.push((Kind::Rib, &mut self.feeder));
        v
    }

    /// Every per-bin output series of the set, condensed.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_SEED;
        fnv(&mut h, format!("{:?}", self.stats.series).as_bytes());
        for m in &self.monitors {
            fnv(&mut h, format!("{:?}", m.series).as_bytes());
        }
        for r in &self.rts {
            fnv(
                &mut h,
                format!("{:?}{:?}", r.bin_series, r.error_stats).as_bytes(),
            );
        }
        h
    }

    pub fn total_elems(&self) -> u64 {
        self.stats.total_elems()
    }

    pub fn bins(&self) -> u64 {
        self.stats.series.len() as u64
    }
}

/// What a store holds, condensed: journal and snapshot counts plus the
/// canonical encoding of the table resolved mid-way and at the end —
/// which takes the journal, the snapshots and the resolver to agree.
pub fn store_checksum(store: &dyn RibStore) -> u64 {
    let mut h = FNV_SEED;
    fnv(&mut h, &(store.event_count() as u64).to_le_bytes());
    fnv(&mut h, &(store.snapshot_count() as u64).to_le_bytes());
    let last = store.watermark().saturating_sub(1);
    for at in [last / 2, last] {
        match RibQuery::new().at(at).table(store) {
            Ok(view) => fnv(&mut h, &view.encode()),
            Err(e) => fnv(&mut h, e.to_string().as_bytes()),
        }
    }
    h
}

/// Records when each bin closed. Put last in a plugin list, it fires
/// after every other plugin has closed (or merged) the bin.
#[derive(Default)]
pub struct BinClock {
    /// `(bin_start, instant)` in close order.
    pub closed: Vec<(u64, Instant)>,
}

impl Plugin for BinClock {
    fn name(&self) -> &'static str {
        "binclock"
    }
    fn process_record(&mut self, _record: &BgpStreamRecord) {}
    fn end_bin(&mut self, bin_start: u64, _bin_end: u64) {
        self.closed.push((bin_start, Instant::now()));
    }
}

impl ShardedPlugin for BinClock {
    fn fork(&self, _shard: usize, _shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(BinClock::default())
    }
    fn take_partial(&mut self) -> Vec<u8> {
        self.closed.clear();
        Vec::new()
    }
    fn merge_bin(&mut self, bin_start: u64, bin_end: u64, _partials: Vec<Vec<u8>>) {
        self.end_bin(bin_start, bin_end);
    }
}

/// One aggregated span: the time one plugin kind spent on one bin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// `root` for the calling thread's instance, `shard` for a fork.
    pub shard: bool,
    pub bin_start: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// Time accumulated by the [`Timed`] adapters of one run, by layer.
#[derive(Default)]
pub struct LayerClock {
    process_ns: [AtomicU64; 4],
    end_bin_ns: [AtomicU64; 4],
    /// Everything forked shard instances did, all workers summed.
    pub shard_ns: AtomicU64,
    /// Root `merge_bin` calls.
    pub merge_ns: AtomicU64,
    pub partial_bytes: AtomicU64,
    pub spans: Mutex<Vec<Span>>,
}

impl LayerClock {
    /// Milliseconds in `process_record` + `end_bin` of a layer's
    /// plugins on the calling thread.
    pub fn busy_ms(&self, kind: Kind) -> f64 {
        (self.process_ns[kind as usize].load(Ordering::Relaxed)
            + self.end_bin_ns[kind as usize].load(Ordering::Relaxed)) as f64
            / 1e6
    }

    pub fn process_ms(&self, kind: Kind) -> f64 {
        self.process_ns[kind as usize].load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn end_bin_ms(&self, kind: Kind) -> f64 {
        self.end_bin_ns[kind as usize].load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Delegates to a plugin and accumulates `Instant` deltas around each
/// call, locally; the sums reach the shared [`LayerClock`] once per bin,
/// as one aggregated span (one span per call would be millions).
pub struct Timed<P> {
    inner: P,
    kind: Kind,
    shard: bool,
    clock: Arc<LayerClock>,
    process_ns: u64,
    end_bin_ns: u64,
    calls: u64,
    bin_start: u64,
}

impl<'a> Timed<&'a mut (dyn ShardedPlugin + 'static)> {
    fn root(
        kind: Kind,
        inner: &'a mut (dyn ShardedPlugin + 'static),
        clock: Arc<LayerClock>,
    ) -> Self {
        Timed {
            inner,
            kind,
            shard: false,
            clock,
            process_ns: 0,
            end_bin_ns: 0,
            calls: 0,
            bin_start: 0,
        }
    }
}

impl<P> Timed<P> {
    /// Move this bin's sums to the shared clock and log its span.
    fn flush(&mut self) {
        let (process, end_bin) = (
            std::mem::take(&mut self.process_ns),
            std::mem::take(&mut self.end_bin_ns),
        );
        if self.shard {
            self.clock
                .shard_ns
                .fetch_add(process + end_bin, Ordering::Relaxed);
        } else {
            self.clock.process_ns[self.kind as usize].fetch_add(process, Ordering::Relaxed);
            self.clock.end_bin_ns[self.kind as usize].fetch_add(end_bin, Ordering::Relaxed);
        }
        let span = Span {
            kind: self.kind,
            shard: self.shard,
            bin_start: self.bin_start,
            busy_ns: process + end_bin,
            calls: std::mem::take(&mut self.calls),
        };
        self.clock
            .spans
            .lock()
            .expect("span log poisoned: an adapter panicked")
            .push(span);
    }
}

/// The two plugin traits, written once over "something that derefs to
/// a sharded plugin": a borrowed root or a boxed fork.
impl<P: std::ops::DerefMut<Target = dyn ShardedPlugin + 'static> + Send> Plugin for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn process_record(&mut self, record: &BgpStreamRecord) {
        let t = Instant::now();
        self.inner.process_record(record);
        self.process_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
    fn end_bin(&mut self, bin_start: u64, bin_end: u64) {
        let t = Instant::now();
        self.inner.end_bin(bin_start, bin_end);
        self.end_bin_ns += t.elapsed().as_nanos() as u64;
        self.bin_start = bin_start;
        // A fork's bin is over only after `take_partial`.
        if !self.shard {
            self.flush();
        }
    }
    fn partitioning(&self) -> Partitioning {
        self.inner.partitioning()
    }
    fn checkpoint(&self) -> Vec<u8> {
        self.inner.checkpoint()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore(bytes)
    }
}

impl<P: std::ops::DerefMut<Target = dyn ShardedPlugin + 'static> + Send> ShardedPlugin
    for Timed<P>
{
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(Timed {
            inner: self.inner.fork(shard, shards),
            kind: self.kind,
            shard: true,
            clock: self.clock.clone(),
            process_ns: 0,
            end_bin_ns: 0,
            calls: 0,
            bin_start: 0,
        })
    }
    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        let t = Instant::now();
        self.inner.process_sharded(record, mask);
        self.process_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
    fn take_partial(&mut self) -> Vec<u8> {
        let t = Instant::now();
        let partial = self.inner.take_partial();
        self.end_bin_ns += t.elapsed().as_nanos() as u64;
        self.clock
            .partial_bytes
            .fetch_add(partial.len() as u64, Ordering::Relaxed);
        self.flush();
        partial
    }
    fn merge_bin(&mut self, bin_start: u64, bin_end: u64, partials: Vec<Vec<u8>>) {
        let t = Instant::now();
        self.inner.merge_bin(bin_start, bin_end, partials);
        self.clock
            .merge_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A `RibStore` that times `publish` and sizes the snapshots passing
/// through, in front of the real store.
pub struct TimedStore {
    pub inner: Arc<MemoryRibStore>,
    pub publish_ns: AtomicU64,
    pub snapshot_bytes: AtomicU64,
}

impl TimedStore {
    pub fn new() -> Arc<TimedStore> {
        Arc::new(TimedStore {
            inner: MemoryRibStore::shared(),
            publish_ns: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
        })
    }
}

impl RibStore for TimedStore {
    fn watermark(&self) -> u64 {
        self.inner.watermark()
    }
    fn publish(&self, upto: u64, events: Vec<RibEvent>, snapshot: Option<Snapshot>) -> bool {
        if let Some(s) = &snapshot {
            self.snapshot_bytes
                .fetch_add(s.frame().len() as u64, Ordering::Relaxed);
        }
        let t = Instant::now();
        let accepted = self.inner.publish(upto, events, snapshot);
        self.publish_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        accepted
    }
    fn snapshot_at(&self, t: u64) -> Option<Snapshot> {
        self.inner.snapshot_at(t)
    }
    fn events_in(&self, from: u64, to: u64) -> Vec<RibEvent> {
        self.inner.events_in(from, to)
    }
    fn event_count(&self) -> usize {
        self.inner.event_count()
    }
    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }
}
