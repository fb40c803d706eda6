//! The sharded, multi-core consumer runtime (§6's scale-out
//! deployment: "more BGPCorsaro instances than cores" becomes "more
//! shards than one core can absorb").
//!
//! [`run_pipeline`](crate::run_pipeline) drives every plugin on the
//! calling thread; once the sorted stream outruns the consumers, the
//! plugin layer is the bottleneck. A [`ShardedRuntime`] keeps the
//! stream read sequential (time order is the product §3.3.4 sells)
//! but fans the *processing* out:
//!
//! 1. the coordinator (the calling thread) pulls record **batches**
//!    from the stream ([`BgpStream::next_batch_step`]) — under selective
//!    filters the stream's compiled pushdown has already rejected
//!    non-matching records before decode, so most envelopes arrive
//!    elem-less and broadcast for pennies — and broadcasts each
//!    batch — behind an `Arc`, so a broadcast is a refcount bump per
//!    worker — into N per-worker bounded queues (each worker is one
//!    thread draining one [`bsync::channel::bounded`] queue); bounded
//!    queues mean a slow worker backpressures the reader instead of
//!    buffering without limit;
//! 2. every worker owns one **shard instance** of each partitioned
//!    plugin (forked via [`ShardedPlugin::fork`]). A shard instance
//!    sees every record envelope (so record-level events — corrupted
//!    dumps, RIB dump start/end — replay identically on every shard)
//!    but processes only the elems its shard owns, per the plugin's
//!    [`Partitioning`]: hash of the prefix, hash of the peer address,
//!    or pinned to a single worker;
//! 3. at each bin boundary the coordinator broadcasts a barrier;
//!    every shard instance closes its bin and ships a serialized
//!    **partial** back; the coordinator merges the partials *in shard
//!    order* on the root plugin ([`ShardedPlugin::merge_bin`]), so
//!    per-bin outputs are byte-identical to the sequential pipeline
//!    regardless of worker count or queue interleaving.
//!
//! Determinism argument: each worker's queue is FIFO, batches and
//! barriers are enqueued in stream order, shard ownership is a pure
//! hash, and the merge consumes partials indexed by `(bin, plugin,
//! shard)` — no step observes scheduling order.
//!
//! The coordinator loop and its workers live in `session`; crash
//! recovery ([`Supervisor`]) is a layer over it in `supervisor`, and
//! the crash schedule tests inject ([`Chaos`]) lives in `chaos`.
//!
//! ```
//! use bgpstream::BgpStream;
//! use broker::{Index, LocalBroker};
//! use corsaro::runtime::ShardedRuntime;
//! use corsaro::PfxMonitor;
//!
//! let mut stream = BgpStream::builder()
//!     .broker_client(LocalBroker::shared(Index::shared()))
//!     .interval(0, Some(3600))
//!     .start();
//! let mut monitor = PfxMonitor::new(["193.204.0.0/15".parse().unwrap()]);
//! let runtime = ShardedRuntime::builder()
//!     .workers(4)
//!     .bin_size(300)
//!     .build();
//! let records = runtime.run(&mut stream, &mut [&mut monitor]);
//! assert_eq!(records, 0); // the index above is empty
//! // `monitor.series` now holds exactly what `run_pipeline` would
//! // have produced, merged deterministically from the shards.
//! ```

use bsync::atomic::AtomicBool;
use std::net::IpAddr;

use bgp_types::Prefix;
use bgpstream::{BgpStream, BgpStreamRecord};
use broker::BrokerError;

use crate::pipeline::{Partitioning, Plugin};

mod chaos;
mod session;
mod supervisor;

pub use chaos::{Chaos, KillSpec};
pub use supervisor::{Supervisor, SupervisorConfig};

/// A plugin the sharded runtime can fan out.
///
/// The contract mirrors a map-reduce over time bins: shard instances
/// (created by [`fork`](ShardedPlugin::fork)) process disjoint elem
/// subsets, emit a serialized partial per bin
/// ([`take_partial`](ShardedPlugin::take_partial), called right after
/// `end_bin`), and the root instance folds the partials — always in
/// shard order — into its canonical per-bin output
/// ([`merge_bin`](ShardedPlugin::merge_bin)). For a correct
/// implementation, merging the partials of N shards must reproduce
/// the sequential output byte-for-byte; `fork(0, 1)` (one shard that
/// owns everything) is the degenerate case tests lean on.
pub trait ShardedPlugin: Plugin + Send {
    /// A fresh instance that owns shard `shard` of `shards` (same
    /// configuration, empty state). Pinned plugins are forked as
    /// `fork(0, 1)`. A partitioned fork is driven only through
    /// [`process_sharded`](ShardedPlugin::process_sharded): the
    /// runtime's ownership mask is its one shard gate, so a fork need
    /// not remember which shard it is.
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin>;

    /// Process a record on a shard instance: `mask[i]` is true iff
    /// this shard owns elem `i` of the record. The runtime computes
    /// the mask *once per record per partitioning mode* and shares it
    /// across all same-mode plugins on the worker, so the per-elem
    /// shard hash is not replicated per plugin. Implementations must
    /// touch owned elems only; record-level state (corruption flags,
    /// dump boundaries) is fair game for every shard.
    ///
    /// The default ignores the mask and processes everything — only
    /// correct for `Pinned` plugins (whose mask is all-true).
    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        let _ = mask;
        self.process_record(record);
    }

    /// Serialized partial output of the bin that just closed; called
    /// on shard instances immediately after their `end_bin`.
    fn take_partial(&mut self) -> Vec<u8>;

    /// Fold shard partials (ordered by shard index) into the
    /// canonical output for `[bin_start, bin_end)`, recording it on
    /// `self` exactly as a sequential `end_bin` would have.
    fn merge_bin(&mut self, bin_start: u64, bin_end: u64, partials: Vec<Vec<u8>>);
}

/// A fork is a plugin too, so an adapter's fork can wrap its inner
/// plugin's fork (see [`crate::tag::Tagged`]).
impl Plugin for Box<dyn ShardedPlugin> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        (**self).process_record(record);
    }

    fn end_bin(&mut self, bin_start: u64, bin_end: u64) {
        (**self).end_bin(bin_start, bin_end);
    }

    fn partitioning(&self) -> Partitioning {
        (**self).partitioning()
    }

    fn checkpoint(&self) -> Vec<u8> {
        (**self).checkpoint()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore(bytes)
    }
}

impl ShardedPlugin for Box<dyn ShardedPlugin> {
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        (**self).fork(shard, shards)
    }

    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        (**self).process_sharded(record, mask);
    }

    fn take_partial(&mut self) -> Vec<u8> {
        (**self).take_partial()
    }

    fn merge_bin(&mut self, bin_start: u64, bin_end: u64, partials: Vec<Vec<u8>>) {
        (**self).merge_bin(bin_start, bin_end, partials);
    }
}

/// Stable shard hash for a prefix (a splitmix64-style mix over the
/// prefix bits and length — deliberately *not* `DefaultHasher`, so
/// shard placement is a documented function of the data, nothing
/// else; and cheap enough to run once per elem on every worker).
pub fn shard_of_prefix(prefix: &Prefix, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let bits = prefix.raw_bits();
    let key = (bits as u64)
        ^ ((bits >> 64) as u64)
        ^ ((prefix.len() as u64) << 1)
        ^ prefix.is_ipv4() as u64;
    (mix64(key) % shards as u64) as usize
}

/// Stable shard hash for a VP address.
pub fn shard_of_peer(peer: &IpAddr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let key = match peer {
        IpAddr::V4(a) => u32::from_be_bytes(a.octets()) as u64,
        IpAddr::V6(a) => {
            let b = u128::from_be_bytes(a.octets());
            (b as u64) ^ ((b >> 64) as u64) ^ 1
        }
    };
    (mix64(key) % shards as u64) as usize
}

/// splitmix64 finalizer: full-avalanche 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Configuration for a [`ShardedRuntime`].
pub struct ShardedRuntimeBuilder {
    workers: usize,
    bin_size: u64,
    batch_records: usize,
    queue_batches: usize,
}

impl Default for ShardedRuntimeBuilder {
    fn default() -> Self {
        ShardedRuntimeBuilder {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            bin_size: 60,
            batch_records: 256,
            queue_batches: 4,
        }
    }
}

impl ShardedRuntimeBuilder {
    /// Number of shard workers (default: available parallelism).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Time-bin size in seconds (default 60), aligned like
    /// [`run_pipeline`](crate::run_pipeline).
    pub fn bin_size(mut self, seconds: u64) -> Self {
        self.bin_size = seconds;
        self
    }

    /// Records per broadcast batch (default 256). Larger batches
    /// amortise channel traffic; smaller ones reduce latency.
    pub fn batch_records(mut self, n: usize) -> Self {
        self.batch_records = n.max(1);
        self
    }

    /// Bounded queue depth per worker, in batches (default 4): the
    /// backpressure window between the reader and a slow worker.
    pub fn queue_batches(mut self, n: usize) -> Self {
        self.queue_batches = n.max(1);
        self
    }

    /// Finish configuration.
    pub fn build(self) -> ShardedRuntime {
        ShardedRuntime { cfg: self }
    }
}

/// The sharded consumer runtime. See the [module docs](self) for the
/// execution model; construct via [`ShardedRuntime::builder`].
pub struct ShardedRuntime {
    cfg: ShardedRuntimeBuilder,
}

/// Why a live session ended early. A [`Supervisor`] recovers worker
/// panics and stalls itself (restart from checkpoint, counted in
/// [`LiveRunReport`]), so what reaches its caller is a checkpoint that
/// would not restore or a stream failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuntimeError {
    /// A shard worker panicked while processing a plugin, in an
    /// unsupervised run: the session tears down cleanly and reports it.
    WorkerPanicked {
        /// Worker index that died.
        worker: usize,
    },
    /// A stored checkpoint failed to restore into a fresh shard
    /// instance: the runtime's own recovery state is corrupt.
    Checkpoint(String),
    /// The underlying stream died with a broker error.
    Stream(BrokerError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::WorkerPanicked { worker } => {
                write!(
                    f,
                    "shard worker {worker} panicked while processing a plugin"
                )
            }
            RuntimeError::Checkpoint(msg) => write!(f, "checkpoint restore failed: {msg}"),
            RuntimeError::Stream(e) => write!(f, "stream failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Whether a merged bin carries the full shard set or degraded
/// (synthesized-empty) partials from dead workers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinStatus {
    /// Every shard's real partial was merged.
    Complete,
    /// At least one shard was dead past its restart budget; its slots
    /// were filled with empty partials so the bin could close instead
    /// of wedging the session. The bin start is recorded in
    /// [`LiveRunReport::partial_bins`].
    Partial,
}

/// What a [`ShardedRuntime::run_live`] session did.
#[derive(Clone, Debug, Default)]
pub struct LiveRunReport {
    /// Records processed (same meaning as the return value of
    /// [`ShardedRuntime::run_until`]).
    pub records: u64,
    /// Time bins closed and merged onto the root plugins.
    pub bins_closed: u64,
    /// True when the session ended because the shutdown flag was
    /// raised (as opposed to reaching `stop`).
    pub shutdown: bool,
    /// Worker respawns performed by a [`Supervisor`] (0 when
    /// unsupervised or nothing crashed).
    pub restarts: u64,
    /// Panic/stall events observed, including those that exhausted a
    /// restart budget and degraded the worker instead of respawning.
    pub retries: u64,
    /// Bin starts merged with [`BinStatus::Partial`], in close order.
    pub partial_bins: Vec<u64>,
}

impl ShardedRuntime {
    /// Start configuring a runtime.
    pub fn builder() -> ShardedRuntimeBuilder {
        ShardedRuntimeBuilder::default()
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Drive `plugins` over the whole stream. Returns the number of
    /// records processed; per-bin outputs land on the root plugins
    /// exactly as under [`run_pipeline`](crate::run_pipeline).
    pub fn run(&self, stream: &mut BgpStream, plugins: &mut [&mut dyn ShardedPlugin]) -> u64 {
        self.run_until(stream, u64::MAX, plugins)
    }

    /// [`ShardedRuntime::run`] with the stop semantics of
    /// [`run_pipeline_until`](crate::run_pipeline_until): returns once
    /// a record timestamped at or after `stop` arrives (that record is
    /// not processed).
    ///
    /// Panics on a [`RuntimeError`] (worker panic or stream failure) —
    /// the historical runners keep their infallible `u64` signature;
    /// callers that want to *handle* failure use
    /// [`ShardedRuntime::run_live`] or a [`Supervisor`].
    pub fn run_until(
        &self,
        stream: &mut BgpStream,
        stop: u64,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> u64 {
        match self.run_live(stream, stop, None, roots) {
            Ok(report) => report.records,
            Err(e) => panic!("sharded runtime failed: {e}"),
        }
    }

    /// Drive `roots` over a **live** stream, closing time bins off the
    /// broker's completeness watermark instead of stream EOF (which a
    /// live stream never reaches).
    ///
    /// The loop is built on [`BgpStream::next_batch_step`], so the
    /// coordinator regains control whenever the stream would block:
    ///
    /// * records are batched, broadcast and binned exactly as in
    ///   [`ShardedRuntime::run_until`] — bins close when a record of a
    ///   later bin arrives;
    /// * on [`BatchStep::Idle`](bgpstream::BatchStep::Idle) the
    ///   runtime additionally closes every bin whose end lies at or
    ///   below the stream's `released_through` watermark: the broker
    ///   has vouched that nothing older can arrive, so the bin is
    ///   complete even though no later record has been seen yet. Quiet
    ///   periods therefore emit dense (empty) bins promptly instead of
    ///   stalling the time series;
    /// * `shutdown` (checked between steps) requests a cooperative
    ///   exit: the current batch is flushed, workers join, and every
    ///   already-closed bin is merged — nothing hangs and no partials
    ///   are lost, but the in-progress bin is *not* closed (it is
    ///   incomplete by definition). Under a [`Supervisor`] this holds
    ///   too: a worker wedged in the in-progress bin is detached once
    ///   the stall rule catches it, not waited for.
    ///
    /// The session ends at `stop` with the exact semantics of
    /// [`ShardedRuntime::run_until`] (a record at or after `stop` is
    /// consumed but not processed; read-ahead goes back to the
    /// stream), or as soon as the watermark proves every record below
    /// `stop` has been delivered. For every closed bin the merged
    /// output on the root plugins is byte-identical to a historical
    /// [`run_pipeline`](crate::run_pipeline) over the same (final)
    /// archive — the live-vs-historical equivalence CI proves across
    /// fault schedules, crash schedules and worker counts.
    ///
    /// A worker panic ends the session with
    /// [`RuntimeError::WorkerPanicked`] after a clean teardown (the
    /// shards drain and rebuild on the next run — no poisoned state
    /// survives); a stream failure surfaces as
    /// [`RuntimeError::Stream`]. Wrap the runtime in a [`Supervisor`]
    /// to recover instead.
    pub fn run_live(
        &self,
        stream: &mut BgpStream,
        stop: u64,
        shutdown: Option<&AtomicBool>,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<LiveRunReport, RuntimeError> {
        self.run_session(stream, stop, shutdown, roots, None)
    }
}

#[cfg(test)]
mod tests {
    use super::session::{Placement, Shard};
    use super::*;
    use bsync::channel::{TryRecvError, TrySendError};
    use std::time::Duration;

    #[test]
    fn shard_hashes_are_stable_and_in_range() {
        let p: Prefix = "193.204.10.0/24".parse().unwrap();
        let a = shard_of_prefix(&p, 4);
        assert_eq!(a, shard_of_prefix(&p, 4));
        assert!(a < 4);
        assert_eq!(shard_of_prefix(&p, 1), 0);
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let b = shard_of_peer(&ip, 4);
        assert_eq!(b, shard_of_peer(&ip, 4));
        assert!(b < 4);
        assert_eq!(shard_of_peer(&ip, 0), 0);
    }

    #[test]
    fn prefix_shards_spread() {
        // Not a distribution-quality test, just "not everything lands
        // on one shard".
        let mut seen = [false; 4];
        for i in 0..64u8 {
            let p: Prefix = format!("10.{i}.0.0/16").parse().unwrap();
            seen[shard_of_prefix(&p, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn placement_pins_and_partitions() {
        let pl = Placement::new(
            vec![
                Partitioning::Pinned,
                Partitioning::ByPrefix,
                Partitioning::Pinned,
            ],
            3,
        );
        let slots = |p| (0..3).map(|w| pl.slot(p, w)).collect::<Vec<_>>();
        // Pinned plugins live on worker `p % workers`; flat slots are
        // unique and dense.
        assert_eq!(slots(0), vec![Some(0), None, None]);
        assert_eq!(slots(1), vec![Some(1), Some(2), Some(3)]);
        assert_eq!(slots(2), vec![None, None, Some(4)]);
        assert_eq!(pl.total(), 5);
    }

    #[test]
    fn shard_join_drains_queued_messages_in_order() {
        let (res_tx, res_rx) = bsync::channel::unbounded::<u64>();
        let shard = Shard::spawn(64, move |v: u64| res_tx.send(v).unwrap());
        for i in 0..50 {
            assert!(shard.send(i));
        }
        shard.join(); // must block until the queue is fully drained
        assert_eq!(
            res_rx.iter().collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shard_try_send_reports_full_at_capacity() {
        let (gate_tx, gate_rx) = bsync::channel::bounded::<()>(1);
        let shard = Shard::spawn(1, move |_: u32| {
            let _ = gate_rx.recv(); // hold the thread until released
        });
        assert!(shard.send(1));
        // The thread may or may not have picked up message 1 yet; fill
        // until Full, bounded by queue (1) + in-flight (1).
        let mut sent = 1;
        loop {
            match shard.try_send(9) {
                Ok(()) => {
                    sent += 1;
                    assert!(sent <= 2, "queue cap 1 + one in-flight message");
                }
                Err(TrySendError::Full(9)) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        for _ in 0..sent {
            gate_tx.send(()).unwrap();
        }
        shard.join();
    }

    #[test]
    fn a_shard_whose_handler_panicked_joins_and_respawns_cleanly() {
        // No panic cascades out of join (or drop), so a crashed shard
        // can be retired and a fresh one spawned in its place.
        let crashed = Shard::spawn(1, |_: u32| panic!("boom"));
        assert!(crashed.send(1));
        crashed.join();

        let (res_tx, res_rx) = bsync::channel::unbounded::<u32>();
        let rebuilt = Shard::spawn(1, move |v: u32| res_tx.send(v).unwrap());
        assert!(rebuilt.send(7));
        rebuilt.join();
        assert_eq!(res_rx.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn dropping_a_shard_joins_its_thread() {
        let (res_tx, res_rx) = bsync::channel::unbounded::<u32>();
        // A slow handler: a drop that did not wait would return with
        // messages still queued.
        let shard = Shard::spawn(8, move |v: u32| {
            std::thread::sleep(Duration::from_millis(2));
            res_tx.send(v).unwrap();
        });
        for i in 0..5 {
            assert!(shard.send(i));
        }
        drop(shard);
        // The thread has exited, so its handler (and the sender it
        // owns) is gone: everything queued was handled, then the
        // result channel disconnected.
        let mut got = Vec::new();
        loop {
            match res_rx.try_recv() {
                Ok(v) => got.push(v),
                Err(e) => {
                    assert_eq!(e, TryRecvError::Disconnected);
                    break;
                }
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
