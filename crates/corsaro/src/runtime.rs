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

use bsync::atomic::{AtomicBool, Ordering};
use std::collections::VecDeque;
use std::net::IpAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use bgp_types::codec;
use bgp_types::Prefix;
use bgpstream::{BatchStep, BgpStream, BgpStreamRecord};
use broker::BrokerError;
use bsync::channel::{Receiver, Sender, TryRecvError, TrySendError};
use bsync::time::Clock;

use crate::pipeline::{BinCursor, Partitioning, Plugin};

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

/// One scheduled worker crash for chaos testing: the worker panics
/// when it is about to process the record with global index
/// `at_record` (0-based arrival order), `times` times in a row. With
/// `times: 1` the respawned worker sails past the same record on
/// replay; larger values model a deterministically recurring crash
/// that exhausts the restart budget.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KillSpec {
    /// Worker index to kill.
    pub worker: usize,
    /// Global record index (arrival order) the kill fires at.
    pub at_record: u64,
    /// How many times the kill re-fires across restarts.
    pub times: u32,
}

/// A deterministic crash schedule injected into a supervised run:
/// which shard workers die, when, and which checkpoint writes are torn
/// mid-flush. The consumer-side complement of `collector-sim`'s
/// publication-layer `FaultPlan`.
#[derive(Clone, Default, Debug)]
pub struct Chaos {
    /// Worker kills (see [`KillSpec`]).
    pub kills: Vec<KillSpec>,
    /// `(worker, nth)`: tear the `nth` checkpoint taken by `worker`
    /// mid-write. `nth` is 1-based — the worker's first checkpoint is
    /// `1` — and keeps counting across restarts. The frame checksum
    /// rejects the torn one and the previous checkpoint stays
    /// authoritative, so recovery replays a wider window — output must
    /// not change.
    pub torn_checkpoints: Vec<(usize, u64)>,
}

impl Chaos {
    /// True when the schedule injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.torn_checkpoints.is_empty()
    }
}

/// Tuning for a [`Supervisor`]. All timing flows through the injected
/// [`Clock`], so tests drive backoff and stall detection on a manual
/// timeline.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Restart budget per worker; the attempt after the budget is
    /// exhausted degrades the worker instead (see [`BinStatus`]).
    pub max_restarts: u32,
    /// First-restart backoff; doubles per attempt (exponential).
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_max_ms: u64,
    /// A worker with outstanding messages and no progress for this
    /// long is declared stalled and restarted from its checkpoint.
    pub stall_timeout_ms: u64,
    /// Time source for backoff and stall deadlines.
    pub clock: Clock,
    /// Seed for backoff jitter (deterministic given the seed).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 3,
            backoff_base_ms: 200,
            backoff_max_ms: 5_000,
            stall_timeout_ms: 30_000,
            clock: Clock::system(),
            seed: 0x5eed_c0de,
        }
    }
}

/// Crash-safe wrapper around [`ShardedRuntime::run_live`]: detects
/// worker panics and stalls, restarts the shard from its last
/// checkpoint (workers checkpoint every hosted plugin at every bin
/// barrier through the deterministic plugin codec, sealed with a
/// checksum frame so torn writes are rejected), and replays the
/// coordinator's message log past the checkpoint — so a restored
/// worker is byte-identical to one that never died. When a worker
/// exhausts its restart budget the supervisor degrades it: later bins
/// close with [`BinStatus::Partial`] instead of wedging the session.
///
/// ```
/// use bgpstream::BgpStream;
/// use broker::{Index, LocalBroker};
/// use corsaro::runtime::{ShardedRuntime, Supervisor};
/// use corsaro::PfxMonitor;
///
/// let mut stream = BgpStream::builder()
///     .broker_client(LocalBroker::shared(Index::shared()))
///     .interval(0, Some(3600))
///     .start();
/// let mut monitor = PfxMonitor::new(["193.204.0.0/15".parse().unwrap()]);
/// let supervisor = Supervisor::new(ShardedRuntime::builder().workers(2).build());
/// let report = supervisor
///     .run_live(&mut stream, 3600, None, &mut [&mut monitor])
///     .expect("empty index cannot fail");
/// assert_eq!(report.records, 0);
/// assert_eq!(report.restarts, 0);
/// ```
pub struct Supervisor {
    runtime: ShardedRuntime,
    cfg: SupervisorConfig,
    chaos: Chaos,
}

impl Supervisor {
    /// Supervise `runtime` with the default [`SupervisorConfig`].
    pub fn new(runtime: ShardedRuntime) -> Self {
        Supervisor {
            runtime,
            cfg: SupervisorConfig::default(),
            chaos: Chaos::default(),
        }
    }

    /// Replace the supervision tuning.
    pub fn with_config(mut self, cfg: SupervisorConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Inject a crash schedule (chaos testing only; the default is no
    /// chaos).
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &ShardedRuntime {
        &self.runtime
    }

    /// [`ShardedRuntime::run_live`] under supervision: same stream,
    /// stop and shutdown semantics, but worker panics and stalls are
    /// absorbed by checkpoint-restore-replay instead of ending the
    /// session, up to the per-worker restart budget.
    pub fn run_live(
        &self,
        stream: &mut BgpStream,
        stop: u64,
        shutdown: Option<&AtomicBool>,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<LiveRunReport, RuntimeError> {
        self.runtime.run_live_inner(
            stream,
            stop,
            shutdown,
            roots,
            Some((&self.cfg, &self.chaos)),
        )
    }
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

/// Messages broadcast to shard workers. `seq` is the coordinator's
/// global message sequence number: workers echo it in progress acks
/// and checkpoints, and the supervisor's replay log is indexed by it.
#[derive(Clone)]
enum ShardMsg {
    /// A run of records, all belonging to the current bin. `base` is
    /// the global (arrival-order) index of the first record, used to
    /// anchor chaos kill points.
    Batch {
        seq: u64,
        base: u64,
        recs: Arc<Vec<BgpStreamRecord>>,
    },
    /// Close the bin `[bin_start, bin_end)` and ship partials.
    EndBin {
        seq: u64,
        bin_start: u64,
        bin_end: u64,
    },
}

impl ShardMsg {
    fn seq(&self) -> u64 {
        match self {
            ShardMsg::Batch { seq, .. } | ShardMsg::EndBin { seq, .. } => *seq,
        }
    }
}

/// Messages from shard workers back to the coordinator. Every message
/// carries the worker's `epoch` (bumped on each restart) so stragglers
/// from a detached zombie worker are filtered out.
enum ResMsg {
    Partial {
        plugin: usize,
        worker: usize,
        epoch: u64,
        bin_start: u64,
        bytes: Vec<u8>,
    },
    /// Sealed checkpoint frames (one per hosted plugin, in hosted
    /// order) taken right after the `EndBin` with sequence `seq`.
    /// Supervised runs only.
    Checkpoint {
        worker: usize,
        epoch: u64,
        seq: u64,
        frames: Vec<Vec<u8>>,
    },
    /// Heartbeat: the worker finished handling message `seq`.
    /// Supervised runs only.
    Progress { worker: usize, epoch: u64, seq: u64 },
    Panicked {
        worker: usize,
        epoch: u64,
        /// Set when a chaos kill fired: the global record index, so
        /// the coordinator decrements the matching [`KillSpec`].
        killed_at: Option<u64>,
    },
}

/// One hosted shard instance.
struct Hosted {
    /// Index of the root plugin this instance shards.
    root_idx: usize,
    partitioning: Partitioning,
    plugin: Box<dyn ShardedPlugin>,
}

/// One shard worker's private state.
struct WorkerState {
    plugins: Vec<Hosted>,
    res_tx: Sender<ResMsg>,
    worker: usize,
    workers: usize,
    /// Restart generation this worker belongs to; echoed in every
    /// result message so the coordinator can discard zombie output.
    epoch: u64,
    /// Supervised workers emit progress acks and per-bin checkpoints.
    supervised: bool,
    /// Remaining chaos kills for this worker: `(at_record, times)`.
    kills: Vec<(u64, u32)>,
    /// Global record index of the chaos kill that is about to fire,
    /// recorded just before the injected panic so the panic handler
    /// can report it.
    pending_kill: Option<u64>,
    /// Reusable per-record ownership masks, one per partitioning mode
    /// in use: computed once per record, shared by every same-mode
    /// plugin instance on this worker.
    mask_prefix: Vec<bool>,
    mask_peer: Vec<bool>,
    need_prefix_mask: bool,
    need_peer_mask: bool,
    /// Set after a plugin panicked: remaining messages are drained
    /// without processing so the coordinator never deadlocks.
    poisoned: bool,
}

impl WorkerState {
    fn handle(&mut self, msg: ShardMsg) {
        if self.poisoned {
            return;
        }
        let worker = self.worker;
        let epoch = self.epoch;
        let seq = msg.seq();
        // The worker loop is the one sanctioned isolation boundary: a
        // plugin panic becomes ResMsg::Panicked and the supervisor
        // decides recovery.
        // xcheck:allow(catch-unwind) — see above
        let r = catch_unwind(AssertUnwindSafe(|| match msg {
            ShardMsg::Batch { base, recs, .. } => {
                for (i, rec) in recs.iter().enumerate() {
                    let global = base + i as u64;
                    if self.supervised {
                        if let Some(kill) = self.kills.iter_mut().find(|k| k.1 > 0 && k.0 == global)
                        {
                            kill.1 -= 1;
                            self.pending_kill = Some(global);
                            panic!("chaos: kill worker {worker} at record {global}");
                        }
                    }
                    self.process(rec);
                }
            }
            ShardMsg::EndBin {
                bin_start, bin_end, ..
            } => {
                for hosted in self.plugins.iter_mut() {
                    hosted.plugin.end_bin(bin_start, bin_end);
                    let bytes = hosted.plugin.take_partial();
                    let _ = self.res_tx.send(ResMsg::Partial {
                        plugin: hosted.root_idx,
                        worker,
                        epoch,
                        bin_start,
                        bytes,
                    });
                }
                if self.supervised {
                    // Checkpoint at the bin barrier: plugin state is
                    // exactly what an uninterrupted worker would carry
                    // into the next bin, and the sealed frames reject
                    // torn writes on restore.
                    let frames: Vec<Vec<u8>> = self
                        .plugins
                        .iter()
                        .map(|h| codec::seal_frame(&h.plugin.checkpoint()))
                        .collect();
                    let _ = self.res_tx.send(ResMsg::Checkpoint {
                        worker,
                        epoch,
                        seq,
                        frames,
                    });
                }
            }
        }));
        match r {
            Ok(()) => {
                if self.supervised {
                    let _ = self.res_tx.send(ResMsg::Progress { worker, epoch, seq });
                }
            }
            Err(_) => {
                self.poisoned = true;
                let _ = self.res_tx.send(ResMsg::Panicked {
                    worker,
                    epoch,
                    killed_at: self.pending_kill.take(),
                });
            }
        }
    }

    fn process(&mut self, rec: &BgpStreamRecord) {
        let elems = rec.elems();
        if self.need_prefix_mask {
            self.mask_prefix.clear();
            self.mask_prefix
                .extend(elems.iter().map(|e| match &e.prefix {
                    // Prefix-less elems (state messages) broadcast to
                    // every shard: per-VP bookkeeping must replay
                    // everywhere a VP's prefixes might live.
                    None => true,
                    Some(p) => shard_of_prefix(p, self.workers) == self.worker,
                }));
        }
        if self.need_peer_mask {
            self.mask_peer.clear();
            self.mask_peer.extend(
                elems
                    .iter()
                    .map(|e| shard_of_peer(&e.peer_address, self.workers) == self.worker),
            );
        }
        for hosted in self.plugins.iter_mut() {
            match hosted.partitioning {
                Partitioning::Pinned => hosted.plugin.process_record(rec),
                Partitioning::ByPrefix => hosted.plugin.process_sharded(rec, &self.mask_prefix),
                Partitioning::ByPeer => hosted.plugin.process_sharded(rec, &self.mask_peer),
            }
        }
    }
}

/// An open bin barrier awaiting shard partials.
struct PendingBin {
    bin_start: u64,
    bin_end: u64,
    /// One slot per hosted plugin instance (flat index).
    slots: Vec<Option<Vec<u8>>>,
    missing: usize,
    status: BinStatus,
}

/// Per-plugin placement: which workers host a shard instance, and
/// where each `(plugin, worker)` pair lives in the flat slot array.
struct Placement {
    /// `holders[p]` = sorted worker indexes hosting plugin `p`.
    holders: Vec<Vec<usize>>,
    /// `base[p]` = first flat slot of plugin `p`.
    base: Vec<usize>,
    total_instances: usize,
}

impl Placement {
    fn new(partitionings: &[Partitioning], workers: usize) -> Self {
        let mut holders = Vec::with_capacity(partitionings.len());
        let mut base = Vec::with_capacity(partitionings.len());
        let mut total = 0usize;
        for (p, part) in partitionings.iter().enumerate() {
            let h: Vec<usize> = match part {
                Partitioning::Pinned => vec![p % workers],
                Partitioning::ByPrefix | Partitioning::ByPeer => (0..workers).collect(),
            };
            base.push(total);
            total += h.len();
            holders.push(h);
        }
        Placement {
            holders,
            base,
            total_instances: total,
        }
    }

    fn slot(&self, plugin: usize, worker: usize) -> usize {
        let pos = self.holders[plugin]
            .iter()
            .position(|&w| w == worker)
            // xcheck:allow(unwrap) — placement routed this worker to the plugin
            .expect("partial from a worker that does not host this plugin");
        self.base[plugin] + pos
    }
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
        // One coordinator loop serves both runners: on a historical
        // stream `next_batch_step` never reports Idle, so run_live's
        // extra watermark-driven closing is unreachable and the flow
        // reduces to exactly the historical batching/binning/stop
        // semantics (the determinism suite pins this equivalence).
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
    /// * on [`BatchStep::Idle`] the runtime additionally closes every
    ///   bin whose end lies at or below the stream's
    ///   `released_through` watermark: the broker has vouched that
    ///   nothing older can arrive, so the bin is complete even though
    ///   no later record has been seen yet. Quiet periods therefore
    ///   emit dense (empty) bins promptly instead of stalling the time
    ///   series;
    /// * `shutdown` (checked between steps) requests a cooperative
    ///   exit: the current batch is flushed, workers join, and every
    ///   already-closed bin is merged — nothing hangs and no partials
    ///   are lost, but the in-progress bin is *not* closed (it is
    ///   incomplete by definition).
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
        self.run_live_inner(stream, stop, shutdown, roots, None)
    }

    fn run_live_inner(
        &self,
        stream: &mut BgpStream,
        stop: u64,
        shutdown: Option<&AtomicBool>,
        roots: &mut [&mut dyn ShardedPlugin],
        sup: Option<(&SupervisorConfig, &Chaos)>,
    ) -> Result<LiveRunReport, RuntimeError> {
        let supervised = sup.is_some();
        let mut session = LiveSession::new(self, roots, sup);
        let mut bins = BinCursor::new(self.cfg.bin_size);
        let mut batch: Vec<BgpStreamRecord> = Vec::with_capacity(self.cfg.batch_records);

        'read: loop {
            if shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
                session.report.shutdown = true;
                break 'read;
            }
            match stream.next_batch_step(self.cfg.batch_records) {
                BatchStep::Records(recs) => {
                    let mut recs = recs.into_iter();
                    while let Some(rec) = recs.next() {
                        if rec.timestamp >= stop {
                            stream.unread(recs.collect());
                            break 'read;
                        }
                        session.close_bins(&mut batch, roots, bins.enter(rec.timestamp))?;
                        batch.push(rec);
                        session.report.records += 1;
                        if batch.len() >= self.cfg.batch_records {
                            session.flush(&mut batch, roots)?;
                        }
                    }
                    session.drain_results(roots, false)?;
                }
                BatchStep::Idle { released_through } => {
                    // Watermark-driven closing: everything below the
                    // watermark has been delivered, so bins ending at
                    // or below it are complete — including empty ones.
                    let closing = bins.release(released_through.min(stop));
                    session.close_bins(&mut batch, roots, closing)?;
                    session.drain_results(roots, false)?;
                    if supervised {
                        // Heartbeat check: a worker sitting on
                        // unacknowledged messages past the stall
                        // timeout is restarted from its checkpoint.
                        session.check_stalls(roots)?;
                    }
                    if released_through >= stop {
                        // Every record below `stop` has been released
                        // and delivered: the session is complete.
                        break 'read;
                    }
                }
                BatchStep::End => {
                    if let Some(e) = stream.last_error() {
                        return Err(RuntimeError::Stream(e.clone()));
                    }
                    break 'read;
                }
            }
        }
        session.flush(&mut batch, roots)?;
        if !session.report.shutdown {
            session.close_bins(&mut batch, roots, bins.finish())?;
        }
        session.finish(roots)
    }
}

/// Deterministic xorshift64 for backoff jitter (no OS entropy — runs
/// must replay identically from the seed).
fn jitter_rng(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x
}

/// Supervision state carried by a [`LiveSession`] when run through a
/// [`Supervisor`].
struct SupState {
    cfg: SupervisorConfig,
    /// Master kill schedule; `times` decremented as kills fire so a
    /// respawned worker re-arms only the remaining budget.
    kills: Vec<KillSpec>,
    torn: Vec<(usize, u64)>,
    /// Checkpoints received per worker (all epochs), for torn-write
    /// injection accounting.
    ckpt_seen: Vec<u64>,
    /// Latest valid checkpoint per worker: `(seq of the EndBin it was
    /// taken at, opened frame payloads in hosted-plugin order)`.
    ckpt: Vec<Option<(u64, Vec<Vec<u8>>)>>,
    attempts: Vec<u32>,
    epochs: Vec<u64>,
    /// Replay log: every broadcast message since the oldest checkpoint
    /// any live worker might restart from (batches hold `Arc`s, so an
    /// entry is cheap).
    log: VecDeque<ShardMsg>,
    sent_seq: Vec<u64>,
    acked_seq: Vec<u64>,
    last_progress_ms: Vec<u64>,
    rng: u64,
}

impl SupState {
    fn new(cfg: &SupervisorConfig, chaos: &Chaos, workers: usize) -> Self {
        let now = cfg.clock.now_millis();
        SupState {
            cfg: cfg.clone(),
            kills: chaos.kills.clone(),
            torn: chaos.torn_checkpoints.clone(),
            ckpt_seen: vec![0; workers],
            ckpt: (0..workers).map(|_| None).collect(),
            attempts: vec![0; workers],
            epochs: vec![0; workers],
            log: VecDeque::new(),
            sent_seq: vec![0; workers],
            acked_seq: vec![0; workers],
            last_progress_ms: vec![now; workers],
            rng: cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    fn ckpt_seq(&self, w: usize) -> u64 {
        self.ckpt[w].as_ref().map(|(s, _)| *s).unwrap_or(0)
    }
}

/// One shard worker: a thread named `shard-worker` draining one
/// bounded queue. Messages are handled strictly in send order, which
/// is what lets a worker keep its shard instances' state and still
/// produce deterministic partials. Dropping a shard (or [`Shard::join`])
/// disconnects the queue and waits for the thread to drain it and
/// exit; [`Shard::detach`] abandons a stalled thread instead.
struct Shard<M> {
    /// `None` once the queue is disconnected.
    tx: Option<Sender<M>>,
    handle: Option<bsync::thread::JoinHandle<()>>,
}

impl<M: Send + 'static> Shard<M> {
    /// Spawn the thread with a queue bounded at `queue_cap` messages
    /// (at least 1); `handler` runs on it for every message.
    fn spawn(queue_cap: usize, mut handler: impl FnMut(M) + Send + 'static) -> Self {
        let (tx, rx) = bsync::channel::bounded::<M>(queue_cap.max(1));
        let handle = bsync::thread::spawn_named("shard-worker", move || {
            while let Ok(msg) = rx.recv() {
                handler(msg);
            }
        });
        Shard {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Enqueue `msg`, blocking while the queue is full (backpressure).
    /// Returns false if the thread is gone.
    fn send(&self, msg: M) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(msg).is_ok())
    }

    /// Non-blocking [`Shard::send`]: a full queue returns
    /// [`TrySendError::Full`] instead of parking the caller, so the
    /// supervised runtime sees a stalled worker as a bounded-time
    /// stall instead of wedging the coordinator.
    fn try_send(&self, msg: M) -> Result<(), TrySendError<M>> {
        match &self.tx {
            Some(tx) => tx.try_send(msg),
            None => Err(TrySendError::Disconnected(msg)),
        }
    }

    /// Disconnect the queue and wait for the thread to drain it and
    /// exit (what dropping does, spelled out where the barrier matters).
    fn join(self) {
        drop(self);
    }

    /// Disconnect the queue without waiting. For a *stalled* thread
    /// (stuck inside the handler), where [`Shard::join`] would block
    /// forever; the zombie keeps its state but can never receive
    /// another message.
    fn detach(mut self) {
        self.handle = None;
    }
}

impl<M> Drop for Shard<M> {
    fn drop(&mut self) {
        self.tx = None;
        // A panic in the handler reaches the coordinator as
        // `ResMsg::Panicked`, never by panicking out of a destructor,
        // which would poison every caller holding a shard across an
        // unwind.
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Coordinator state for one `run_live` session: one [`Shard`] per
/// worker (so a restart is literally "detach one shard and spawn a
/// fresh one"), the pending-bin merge queue, and optional supervision
/// state.
struct LiveSession<'rt> {
    rt: &'rt ShardedRuntime,
    workers: usize,
    partitionings: Vec<Partitioning>,
    placement: Placement,
    /// `None` = degraded: the worker exhausted its restart budget and
    /// its slots are synthesized from here on.
    shards: Vec<Option<Shard<ShardMsg>>>,
    dead: Vec<bool>,
    /// Kept for respawns under supervision; `None` from the start on
    /// unsupervised runs so `res_rx` disconnects once workers exit.
    res_tx: Option<Sender<ResMsg>>,
    res_rx: Receiver<ResMsg>,
    pending: VecDeque<PendingBin>,
    report: LiveRunReport,
    next_seq: u64,
    next_base: u64,
    sup: Option<SupState>,
}

impl<'rt> LiveSession<'rt> {
    fn new(
        rt: &'rt ShardedRuntime,
        roots: &mut [&mut dyn ShardedPlugin],
        sup: Option<(&SupervisorConfig, &Chaos)>,
    ) -> Self {
        let workers = rt.cfg.workers.max(1);
        let partitionings: Vec<Partitioning> = roots.iter().map(|p| p.partitioning()).collect();
        let placement = Placement::new(&partitionings, workers);
        let (res_tx, res_rx) = bsync::channel::unbounded::<ResMsg>();
        let mut session = LiveSession {
            rt,
            workers,
            partitionings,
            placement,
            shards: (0..workers).map(|_| None).collect(),
            dead: vec![false; workers],
            res_tx: Some(res_tx),
            res_rx,
            pending: VecDeque::new(),
            report: LiveRunReport::default(),
            next_seq: 0,
            next_base: 0,
            sup: sup.map(|(cfg, chaos)| SupState::new(cfg, chaos, workers)),
        };
        for w in 0..workers {
            let state = session.make_worker_state(w, roots, 0);
            session.shards[w] = Some(session.spawn_one(state));
        }
        if session.sup.is_none() {
            // Unsupervised: the final blocking drain detects worker
            // exit via channel disconnect, so the coordinator must not
            // hold a sender.
            session.res_tx = None;
        }
        session
    }

    /// Fork a fresh shard instance set for worker `w` (same grouping
    /// the original spawn used, so checkpoint frames line up with
    /// hosted order across restarts).
    fn make_worker_state(
        &self,
        w: usize,
        roots: &[&mut dyn ShardedPlugin],
        epoch: u64,
    ) -> WorkerState {
        let mut plugins = Vec::new();
        for (p, part) in self.partitionings.iter().enumerate() {
            match part {
                Partitioning::Pinned if p % self.workers == w => plugins.push(Hosted {
                    root_idx: p,
                    partitioning: Partitioning::Pinned,
                    plugin: roots[p].fork(0, 1),
                }),
                part @ (Partitioning::ByPrefix | Partitioning::ByPeer) => plugins.push(Hosted {
                    root_idx: p,
                    partitioning: *part,
                    plugin: roots[p].fork(w, self.workers),
                }),
                _ => {}
            }
        }
        let need_prefix_mask = plugins
            .iter()
            .any(|h| h.partitioning == Partitioning::ByPrefix);
        let need_peer_mask = plugins
            .iter()
            .any(|h| h.partitioning == Partitioning::ByPeer);
        let kills = self
            .sup
            .as_ref()
            .map(|s| {
                s.kills
                    .iter()
                    .filter(|k| k.worker == w && k.times > 0)
                    .map(|k| (k.at_record, k.times))
                    .collect()
            })
            .unwrap_or_default();
        WorkerState {
            plugins,
            res_tx: self
                .res_tx
                .clone()
                // xcheck:allow(unwrap) — res_tx lives until finish()
                .expect("worker spawned while the session is open"),
            worker: w,
            workers: self.workers,
            epoch,
            supervised: self.sup.is_some(),
            kills,
            pending_kill: None,
            mask_prefix: Vec::new(),
            mask_peer: Vec::new(),
            need_prefix_mask,
            need_peer_mask,
            poisoned: false,
        }
    }

    fn spawn_one(&self, mut state: WorkerState) -> Shard<ShardMsg> {
        Shard::spawn(self.rt.cfg.queue_batches, move |msg| state.handle(msg))
    }

    fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Broadcast `msg` to every live worker (and the replay log).
    fn broadcast(
        &mut self,
        msg: ShardMsg,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<(), RuntimeError> {
        if let Some(sup) = &mut self.sup {
            sup.log.push_back(msg.clone());
        }
        for w in 0..self.workers {
            if self.dead[w] {
                continue;
            }
            self.send_to(w, msg.clone(), roots)?;
        }
        Ok(())
    }

    /// Deliver one message to worker `w`. Unsupervised: a plain
    /// blocking send (backpressure). Supervised: a `try_send` poll
    /// loop so a worker that stops draining its queue is detected as a
    /// stall within `stall_timeout_ms` and restarted; a restart's
    /// replay may deliver the message for us, which `sent_seq` tracks.
    fn send_to(
        &mut self,
        w: usize,
        msg: ShardMsg,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<(), RuntimeError> {
        if self.sup.is_none() {
            // xcheck:allow(unwrap) — unsupervised shards are never degraded
            self.shards[w].as_ref().expect("shard alive").send(msg);
            return Ok(());
        }
        let seq = msg.seq();
        let mut msg = msg;
        let mut full_since: Option<u64> = None;
        loop {
            let sup = self.sup.as_ref().expect("supervised"); // xcheck:allow(unwrap) — Some on the supervised path by construction
            if self.dead[w] || sup.sent_seq[w] >= seq {
                return Ok(());
            }
            let shard = self.shards[w].as_ref().expect("live worker has a shard"); // xcheck:allow(unwrap) — guarded by !self.dead[w] above
            match shard.try_send(msg) {
                Ok(()) => {
                    let sup = self.sup.as_mut().expect("supervised"); // xcheck:allow(unwrap) — Some on the supervised path by construction
                    sup.sent_seq[w] = sup.sent_seq[w].max(seq);
                    return Ok(());
                }
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    let now = sup.cfg.clock.now_millis();
                    let timeout = sup.cfg.stall_timeout_ms;
                    let since = *full_since.get_or_insert(now);
                    self.drain_results(roots, false)?;
                    if now.saturating_sub(since) >= timeout {
                        self.report.retries += 1;
                        self.restart_worker(w, roots)?;
                        full_since = None;
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(TrySendError::Disconnected(m)) => {
                    // The worker thread itself died (not a caught
                    // plugin panic — those keep draining). Restart it.
                    msg = m;
                    self.report.retries += 1;
                    self.restart_worker(w, roots)?;
                }
            }
        }
    }

    fn flush(
        &mut self,
        batch: &mut Vec<BgpStreamRecord>,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<(), RuntimeError> {
        if batch.is_empty() {
            return Ok(());
        }
        let cap = self.rt.cfg.batch_records;
        let recs = Arc::new(std::mem::replace(batch, Vec::with_capacity(cap)));
        let base = self.next_base;
        self.next_base += recs.len() as u64;
        let seq = self.alloc_seq();
        self.broadcast(ShardMsg::Batch { seq, base, recs }, roots)
    }

    /// Close every bin in `closing`, after shipping the records that
    /// precede the first boundary.
    fn close_bins(
        &mut self,
        batch: &mut Vec<BgpStreamRecord>,
        roots: &mut [&mut dyn ShardedPlugin],
        closing: impl Iterator<Item = (u64, u64)>,
    ) -> Result<(), RuntimeError> {
        for (bin_start, bin_end) in closing {
            self.flush(batch, roots)?;
            self.close_bin(roots, bin_start, bin_end)?;
        }
        Ok(())
    }

    fn close_bin(
        &mut self,
        roots: &mut [&mut dyn ShardedPlugin],
        bin_start: u64,
        bin_end: u64,
    ) -> Result<(), RuntimeError> {
        let seq = self.alloc_seq();
        let total = self.placement.total_instances;
        let mut bin = PendingBin {
            bin_start,
            bin_end,
            slots: (0..total).map(|_| None).collect(),
            missing: total,
            status: BinStatus::Complete,
        };
        for w in 0..self.workers {
            if self.dead[w] {
                fill_dead_slots(
                    &self.placement,
                    &self.partitionings,
                    self.workers,
                    &mut bin,
                    w,
                    roots,
                );
            }
        }
        // Queue the bin before broadcasting so partials from a
        // mid-broadcast restart replay find their slots.
        self.pending.push_back(bin);
        self.report.bins_closed += 1;
        self.broadcast(
            ShardMsg::EndBin {
                seq,
                bin_start,
                bin_end,
            },
            roots,
        )
    }

    /// Restart worker `w` from its last checkpoint: bump the epoch
    /// (zombie output is discarded by epoch filtering), back off with
    /// seeded jitter, detach the old shard, fork-and-restore a fresh
    /// shard instance set, and replay every logged message past the
    /// checkpoint. Past the restart budget the worker degrades
    /// instead.
    fn restart_worker(
        &mut self,
        w: usize,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<(), RuntimeError> {
        let sup = self.sup.as_mut().expect("supervised"); // xcheck:allow(unwrap) — Some on the supervised path by construction
        sup.attempts[w] += 1;
        sup.epochs[w] += 1;
        if sup.attempts[w] > sup.cfg.max_restarts {
            if let Some(shard) = self.shards[w].take() {
                shard.detach();
            }
            self.degrade(w, roots);
            return Ok(());
        }
        self.report.restarts += 1;
        let exp = (sup.attempts[w] - 1).min(20);
        let backoff = sup
            .cfg
            .backoff_base_ms
            .saturating_mul(1u64 << exp)
            .min(sup.cfg.backoff_max_ms);
        let jitter = if backoff == 0 {
            0
        } else {
            jitter_rng(&mut sup.rng) % (backoff / 2 + 1)
        };
        if backoff + jitter > 0 {
            sup.cfg.clock.sleep(Duration::from_millis(backoff + jitter));
        }
        // Detach rather than join: a *stalled* worker never exits, and
        // a panicked one is poisoned and drains on its own.
        if let Some(shard) = self.shards[w].take() {
            shard.detach();
        }
        let epoch = sup.epochs[w];
        let from_seq = sup.ckpt_seq(w);
        let frames = sup.ckpt[w].as_ref().map(|(_, f)| f.clone());
        let mut state = self.make_worker_state(w, roots, epoch);
        if let Some(frames) = frames {
            if frames.len() != state.plugins.len() {
                return Err(RuntimeError::Checkpoint(format!(
                    "worker {w}: {} checkpoint frames for {} hosted plugins",
                    frames.len(),
                    state.plugins.len()
                )));
            }
            for (hosted, frame) in state.plugins.iter_mut().zip(frames.iter()) {
                hosted
                    .plugin
                    .restore(frame)
                    .map_err(RuntimeError::Checkpoint)?;
            }
        }
        self.shards[w] = Some(self.spawn_one(state));
        let sup = self.sup.as_mut().expect("supervised"); // xcheck:allow(unwrap) — Some on the supervised path by construction
        sup.sent_seq[w] = from_seq;
        sup.acked_seq[w] = from_seq;
        sup.last_progress_ms[w] = sup.cfg.clock.now_millis();
        let replay: Vec<ShardMsg> = sup
            .log
            .iter()
            .filter(|m| m.seq() > from_seq)
            .cloned()
            .collect();
        for m in replay {
            self.send_to(w, m, roots)?;
        }
        Ok(())
    }

    /// Graceful degradation: mark `w` dead and complete its slots in
    /// every pending bin with synthesized empty partials so the
    /// session keeps closing bins (marked [`BinStatus::Partial`])
    /// instead of wedging.
    fn degrade(&mut self, w: usize, roots: &mut [&mut dyn ShardedPlugin]) {
        self.dead[w] = true;
        let mut bins = std::mem::take(&mut self.pending);
        for bin in bins.iter_mut() {
            fill_dead_slots(
                &self.placement,
                &self.partitionings,
                self.workers,
                bin,
                w,
                roots,
            );
        }
        self.pending = bins;
    }

    /// Idle-path stall detection off worker heartbeats: a live worker
    /// with unacknowledged messages and no progress past the timeout
    /// is restarted (its shard is detached; the zombie thread parks on
    /// whatever wedged it).
    fn check_stalls(&mut self, roots: &mut [&mut dyn ShardedPlugin]) -> Result<(), RuntimeError> {
        let Some(sup) = &self.sup else {
            return Ok(());
        };
        let now = sup.cfg.clock.now_millis();
        let timeout = sup.cfg.stall_timeout_ms;
        let stalled: Vec<usize> = (0..self.workers)
            .filter(|&w| {
                !self.dead[w]
                    && sup.sent_seq[w] > sup.acked_seq[w]
                    && now.saturating_sub(sup.last_progress_ms[w]) >= timeout
            })
            .collect();
        for w in stalled {
            let sup = self.sup.as_ref().expect("supervised"); // xcheck:allow(unwrap) — Some on the supervised path by construction
            if self.dead[w] || sup.sent_seq[w] <= sup.acked_seq[w] {
                continue;
            }
            self.report.retries += 1;
            self.restart_worker(w, roots)?;
        }
        Ok(())
    }

    /// Fold arrived partials into the roots, strictly in bin order.
    /// With `block` set, waits until every pending bin is merged.
    fn drain_results(
        &mut self,
        roots: &mut [&mut dyn ShardedPlugin],
        block: bool,
    ) -> Result<(), RuntimeError> {
        loop {
            self.merge_ready(roots);
            if block && self.pending.is_empty() {
                return Ok(());
            }
            let msg = if block {
                if self.sup.is_some() {
                    // Supervised blocking drain must keep crash and
                    // stall handling live, so it polls instead of
                    // parking on `recv`.
                    match self.res_rx.try_recv() {
                        Ok(m) => m,
                        Err(TryRecvError::Empty) => {
                            self.check_stalls(roots)?;
                            std::thread::yield_now();
                            continue;
                        }
                        Err(TryRecvError::Disconnected) => return Ok(()),
                    }
                } else {
                    match self.res_rx.recv() {
                        Ok(m) => m,
                        Err(_) => {
                            assert!(
                                self.pending.is_empty(),
                                "shard workers exited with {} bin(s) unmerged",
                                self.pending.len()
                            );
                            return Ok(());
                        }
                    }
                }
            } else {
                match self.res_rx.try_recv() {
                    Ok(m) => m,
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return Ok(()),
                }
            };
            self.on_msg(msg, roots)?;
        }
    }

    fn merge_ready(&mut self, roots: &mut [&mut dyn ShardedPlugin]) {
        while self
            .pending
            .front()
            .map(|b| b.missing == 0)
            .unwrap_or(false)
        {
            // xcheck:allow(unwrap) — front existence checked by the loop condition
            let done = self.pending.pop_front().expect("front checked");
            if done.status == BinStatus::Partial {
                self.report.partial_bins.push(done.bin_start);
            }
            let mut slots = done.slots;
            for (p, root) in roots.iter_mut().enumerate() {
                let partials: Vec<Vec<u8>> = self.placement.holders[p]
                    .iter()
                    .map(|&w| {
                        slots[self.placement.slot(p, w)]
                            .take()
                            // xcheck:allow(unwrap) — missing == 0 means every slot is filled
                            .expect("bin complete, slot filled")
                    })
                    .collect();
                root.merge_bin(done.bin_start, done.bin_end, partials);
            }
        }
    }

    fn on_msg(
        &mut self,
        msg: ResMsg,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<(), RuntimeError> {
        match msg {
            ResMsg::Partial {
                plugin,
                worker,
                epoch,
                bin_start,
                bytes,
            } => {
                if let Some(sup) = &mut self.sup {
                    if epoch != sup.epochs[worker] {
                        return Ok(()); // zombie epoch
                    }
                    sup.last_progress_ms[worker] = sup.cfg.clock.now_millis();
                }
                let slot = self.placement.slot(plugin, worker);
                let Some(bin) = self.pending.iter_mut().find(|b| b.bin_start == bin_start) else {
                    if self.sup.is_some() {
                        // Replay past a torn checkpoint re-answers a
                        // bin that already merged; deterministic
                        // replay makes the bytes identical, so the
                        // duplicate is dropped.
                        return Ok(());
                    }
                    panic!("partial for an unknown bin");
                };
                if bin.slots[slot].is_some() {
                    debug_assert!(
                        self.sup.is_some(),
                        "duplicate partial on an unsupervised run"
                    );
                    return Ok(());
                }
                bin.slots[slot] = Some(bytes);
                bin.missing -= 1;
                Ok(())
            }
            ResMsg::Progress { worker, epoch, seq } => {
                if let Some(sup) = &mut self.sup {
                    if epoch == sup.epochs[worker] {
                        sup.acked_seq[worker] = sup.acked_seq[worker].max(seq);
                        sup.last_progress_ms[worker] = sup.cfg.clock.now_millis();
                    }
                }
                Ok(())
            }
            ResMsg::Checkpoint {
                worker,
                epoch,
                seq,
                mut frames,
            } => {
                let Some(sup) = &mut self.sup else {
                    return Ok(());
                };
                if epoch != sup.epochs[worker] {
                    return Ok(());
                }
                sup.ckpt_seen[worker] += 1;
                let nth = sup.ckpt_seen[worker];
                if sup.torn.iter().any(|&(tw, tn)| tw == worker && tn == nth) {
                    // Chaos: simulate a write torn mid-flush on the
                    // last frame.
                    if let Some(last) = frames.last_mut() {
                        let cut = last.len().saturating_sub(5);
                        last.truncate(cut);
                    }
                }
                let opened: Result<Vec<Vec<u8>>, _> = frames
                    .iter()
                    .map(|f| codec::open_frame(f).map(|p| p.to_vec()))
                    .collect();
                match opened {
                    Ok(payloads) => {
                        sup.ckpt[worker] = Some((seq, payloads));
                        // Trim replay entries no live worker can need.
                        let min_seq = (0..self.workers)
                            .filter(|&w| !self.dead[w])
                            .map(|w| sup.ckpt_seq(w))
                            .min()
                            .unwrap_or(0);
                        while sup.log.front().is_some_and(|m| m.seq() <= min_seq) {
                            sup.log.pop_front();
                        }
                    }
                    Err(_) => {
                        // Torn write: the previous checkpoint stays
                        // authoritative and replay covers the gap.
                    }
                }
                Ok(())
            }
            ResMsg::Panicked {
                worker,
                epoch,
                killed_at,
            } => match &mut self.sup {
                None => Err(RuntimeError::WorkerPanicked { worker }),
                Some(sup) => {
                    if epoch != sup.epochs[worker] || self.dead[worker] {
                        return Ok(());
                    }
                    if let Some(at) = killed_at {
                        if let Some(k) = sup
                            .kills
                            .iter_mut()
                            .find(|k| k.worker == worker && k.at_record == at && k.times > 0)
                        {
                            k.times -= 1;
                        }
                    }
                    self.report.retries += 1;
                    self.restart_worker(worker, roots)
                }
            },
        }
    }

    /// End of session: merge everything still pending, retire the
    /// workers, and hand back the report.
    fn finish(
        mut self,
        roots: &mut [&mut dyn ShardedPlugin],
    ) -> Result<LiveRunReport, RuntimeError> {
        if self.sup.is_some() {
            // Crashes on the final bins are still recovered here; only
            // once nothing is pending do the workers retire.
            self.drain_results(roots, true)?;
            for shard in self.shards.iter_mut() {
                if let Some(s) = shard.take() {
                    s.join();
                }
            }
            self.res_tx = None;
            // Swallow stragglers (zombie epochs, trailing progress, a
            // kill that fired after the last barrier).
            while self.res_rx.try_recv().is_ok() {}
        } else {
            for shard in self.shards.iter_mut() {
                if let Some(s) = shard.take() {
                    s.join();
                }
            }
            // res_tx is already None: recv drains until disconnect.
            self.drain_results(roots, true)?;
        }
        Ok(std::mem::take(&mut self.report))
    }
}

/// Complete worker `w`'s slots in `bin` with partials synthesized from
/// empty forks (for [`crate::RtPlugin`]-style plugins the fork must
/// still see `end_bin` before `take_partial`). Marks the bin
/// [`BinStatus::Partial`].
fn fill_dead_slots(
    placement: &Placement,
    partitionings: &[Partitioning],
    workers: usize,
    bin: &mut PendingBin,
    w: usize,
    roots: &mut [&mut dyn ShardedPlugin],
) {
    for (p, holders) in placement.holders.iter().enumerate() {
        if !holders.contains(&w) {
            continue;
        }
        let slot = placement.slot(p, w);
        if bin.slots[slot].is_some() {
            continue;
        }
        let mut fork = match partitionings[p] {
            Partitioning::Pinned => roots[p].fork(0, 1),
            Partitioning::ByPrefix | Partitioning::ByPeer => roots[p].fork(w, workers),
        };
        fork.end_bin(bin.bin_start, bin.bin_end);
        bin.slots[slot] = Some(fork.take_partial());
        bin.missing -= 1;
        bin.status = BinStatus::Partial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            &[
                Partitioning::Pinned,
                Partitioning::ByPrefix,
                Partitioning::Pinned,
            ],
            3,
        );
        assert_eq!(pl.holders[0], vec![0]);
        assert_eq!(pl.holders[1], vec![0, 1, 2]);
        assert_eq!(pl.holders[2], vec![2]);
        assert_eq!(pl.total_instances, 5);
        // Flat slots are unique and dense.
        let mut slots: Vec<usize> = pl
            .holders
            .iter()
            .enumerate()
            .flat_map(|(p, hs)| hs.iter().map(move |&w| (p, w)))
            .map(|(p, w)| pl.slot(p, w))
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..5).collect::<Vec<_>>());
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
