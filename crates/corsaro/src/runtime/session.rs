//! One `run_live` session: the coordinator loop, its shard workers,
//! where each plugin's shard instances live, and the bin barriers that
//! merge their partials.
//!
//! A supervised session hands worker failures to its [`SupState`]; an
//! unsupervised one has none and never consults it. The coordinator
//! meets supervision in four places only: the duties a fresh worker
//! carries, and how a message is broadcast, results are drained and
//! the session ends.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bgp_types::codec;
use bgpstream::{BatchStep, BgpStream, BgpStreamRecord};
use bsync::atomic::{AtomicBool, Ordering};
use bsync::channel::{Receiver, Sender, TrySendError};

use super::chaos::{Chaos, WorkerKills};
use super::supervisor::{SupState, SupervisorConfig};
use super::{
    shard_of_peer, shard_of_prefix, BinStatus, LiveRunReport, RuntimeError, ShardedPlugin,
    ShardedRuntime, ShardedRuntimeBuilder,
};
use crate::pipeline::{BinCursor, Partitioning};

impl ShardedRuntime {
    /// The one coordinator loop behind every runner: on a historical
    /// stream `next_batch_step` never reports Idle, so the watermark
    /// closing below is unreachable and the flow reduces to exactly
    /// the historical batching, binning and stop semantics (the
    /// determinism suite pins this equivalence).
    pub(super) fn run_session(
        &self,
        stream: &mut BgpStream,
        stop: u64,
        shutdown: Option<&AtomicBool>,
        roots: &mut [&mut dyn ShardedPlugin],
        sup: Option<(&SupervisorConfig, &Chaos)>,
    ) -> Result<LiveRunReport, RuntimeError> {
        let mut session = LiveSession::new(&self.cfg, roots, sup);
        let mut bins = BinCursor::new(self.cfg.bin_size);
        let mut batch: Vec<BgpStreamRecord> = Vec::with_capacity(self.cfg.batch_records);

        'read: loop {
            if shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
                session.s.report.shutdown = true;
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
                        session.close_bins(&mut batch, bins.enter(rec.timestamp))?;
                        batch.push(rec);
                        session.s.report.records += 1;
                        if batch.len() >= self.cfg.batch_records {
                            session.flush(&mut batch)?;
                        }
                    }
                    session.drain_results()?;
                }
                BatchStep::Idle { released_through } => {
                    // Watermark-driven closing: everything below the
                    // watermark has been delivered, so bins ending at
                    // or below it are complete — including empty ones.
                    let closing = bins.release(released_through.min(stop));
                    session.close_bins(&mut batch, closing)?;
                    session.drain_results()?;
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
        session.flush(&mut batch)?;
        if !session.s.report.shutdown {
            session.close_bins(&mut batch, bins.finish())?;
        }
        session.finish()
    }
}

/// Messages broadcast to shard workers. `seq` is the coordinator's
/// global message sequence number: workers echo it in progress acks
/// and checkpoints, and the supervisor's replay log is indexed by it.
#[derive(Clone)]
pub(super) enum ShardMsg {
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
    pub(super) fn seq(&self) -> u64 {
        match self {
            ShardMsg::Batch { seq, .. } | ShardMsg::EndBin { seq, .. } => *seq,
        }
    }
}

/// Messages from shard workers back to the coordinator. Every message
/// carries the worker's `epoch` (bumped on each restart) so stragglers
/// from a detached zombie worker are filtered out.
pub(super) enum ResMsg {
    Partial {
        plugin: usize,
        worker: usize,
        epoch: u64,
        bin_start: u64,
        bytes: Vec<u8>,
    },
    /// Sealed checkpoint frames (one per hosted plugin, in hosted
    /// order) taken right after the `EndBin` with sequence `seq`.
    /// Supervised workers only.
    Checkpoint {
        worker: usize,
        epoch: u64,
        seq: u64,
        frames: Vec<Vec<u8>>,
    },
    /// Heartbeat: the worker finished handling message `seq`.
    /// Supervised workers only.
    Progress { worker: usize, epoch: u64, seq: u64 },
    Panicked {
        worker: usize,
        epoch: u64,
        /// Set when a chaos kill fired: the global record index, so
        /// the coordinator decrements the matching `KillSpec`.
        killed_at: Option<u64>,
    },
}

/// One hosted shard instance.
pub(super) struct Hosted {
    /// Index of the root plugin this instance shards.
    root_idx: usize,
    partitioning: Partitioning,
    pub(super) plugin: Box<dyn ShardedPlugin>,
}

/// One shard worker's private state.
pub(super) struct WorkerState {
    pub(super) plugins: Vec<Hosted>,
    res_tx: Sender<ResMsg>,
    worker: usize,
    workers: usize,
    /// Restart generation this worker belongs to; echoed in every
    /// result message so the coordinator can discard zombie output.
    epoch: u64,
    /// `Some` on a supervised worker, which acks every message,
    /// checkpoints at every bin barrier, and dies where its share of
    /// the chaos schedule says.
    duties: Option<WorkerKills>,
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
        // plugin panic becomes ResMsg::Panicked and the coordinator
        // decides what follows.
        // xcheck:allow(catch-unwind) — see above
        let r = catch_unwind(AssertUnwindSafe(|| match msg {
            ShardMsg::Batch { base, recs, .. } => {
                for (i, rec) in recs.iter().enumerate() {
                    if let Some(kills) = &mut self.duties {
                        kills.strike(worker, base + i as u64);
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
                if self.duties.is_some() {
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
            Ok(()) if self.duties.is_some() => {
                let _ = self.res_tx.send(ResMsg::Progress { worker, epoch, seq });
            }
            Ok(()) => {}
            Err(_) => {
                self.poisoned = true;
                let _ = self.res_tx.send(ResMsg::Panicked {
                    worker,
                    epoch,
                    killed_at: self.duties.as_mut().and_then(WorkerKills::take_fired),
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
pub(super) struct PendingBin {
    bin_start: u64,
    bin_end: u64,
    /// One slot per shard instance (see [`Placement::slot`]).
    slots: Vec<Option<Vec<u8>>>,
    missing: usize,
    status: BinStatus,
}

/// Which worker hosts which shard instance of each root plugin, and
/// where each instance's partial lands in a bin's flat slot array.
pub(super) struct Placement {
    parts: Vec<Partitioning>,
    workers: usize,
    /// `base[p]..base[p + 1]` are plugin `p`'s slots, in shard order.
    base: Vec<usize>,
}

impl Placement {
    pub(super) fn new(parts: Vec<Partitioning>, workers: usize) -> Self {
        let mut placement = Placement {
            parts,
            workers,
            base: vec![0],
        };
        for p in 0..placement.parts.len() {
            let hosts = (0..workers)
                .filter(|&w| placement.shard(p, w).is_some())
                .count();
            placement.base.push(placement.base[p] + hosts);
        }
        placement
    }

    /// The shard of plugin `p` that worker `w` hosts, as the
    /// `(shard, shards)` [`ShardedPlugin::fork`] takes: a pinned
    /// plugin is one whole instance on worker `p % workers`, a
    /// partitioned one has shard `w` on every worker.
    fn shard(&self, p: usize, w: usize) -> Option<(usize, usize)> {
        match self.parts[p] {
            Partitioning::Pinned => (p % self.workers == w).then_some((0, 1)),
            Partitioning::ByPrefix | Partitioning::ByPeer => Some((w, self.workers)),
        }
    }

    /// The flat slot of plugin `p`'s partial from worker `w`, if `w`
    /// hosts `p`.
    pub(super) fn slot(&self, p: usize, w: usize) -> Option<usize> {
        self.shard(p, w).map(|(shard, _)| self.base[p] + shard)
    }

    pub(super) fn total(&self) -> usize {
        self.base[self.parts.len()]
    }
}

/// One shard worker: a thread named `shard-worker` draining one
/// bounded queue. Messages are handled strictly in send order, which
/// is what lets a worker keep its shard instances' state and still
/// produce deterministic partials. Dropping a shard (or [`Shard::join`])
/// disconnects the queue and waits for the thread to drain it and
/// exit; [`Shard::detach`] abandons a stalled thread instead.
pub(super) struct Shard<M> {
    /// `None` once the queue is disconnected.
    tx: Option<Sender<M>>,
    handle: Option<bsync::thread::JoinHandle<()>>,
}

impl<M: Send + 'static> Shard<M> {
    /// Spawn the thread with a queue bounded at `queue_cap` messages
    /// (at least 1); `handler` runs on it for every message.
    pub(super) fn spawn(queue_cap: usize, mut handler: impl FnMut(M) + Send + 'static) -> Self {
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
    pub(super) fn send(&self, msg: M) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(msg).is_ok())
    }

    /// Non-blocking [`Shard::send`]: a full queue returns
    /// [`TrySendError::Full`] instead of parking the caller, so the
    /// supervisor sees a stalled worker as a bounded-time stall
    /// instead of wedging the coordinator.
    pub(super) fn try_send(&self, msg: M) -> Result<(), TrySendError<M>> {
        match &self.tx {
            Some(tx) => tx.try_send(msg),
            None => Err(TrySendError::Disconnected(msg)),
        }
    }

    /// Disconnect the queue and wait for the thread to drain it and
    /// exit (what dropping does, spelled out where the barrier matters).
    pub(super) fn join(self) {
        drop(self);
    }

    /// Disconnect the queue without waiting. For a *stalled* thread
    /// (stuck inside the handler), where [`Shard::join`] would block
    /// forever; the zombie keeps its state but can never receive
    /// another message.
    pub(super) fn detach(mut self) {
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

/// A session and, when supervised, its supervision state — two
/// fields, so a supervised operation borrows both at once.
struct LiveSession<'a, 'p> {
    s: Session<'a, 'p>,
    sup: Option<SupState>,
}

impl<'a, 'p> LiveSession<'a, 'p> {
    fn new(
        cfg: &'a ShardedRuntimeBuilder,
        roots: &'a mut [&'p mut dyn ShardedPlugin],
        sup: Option<(&SupervisorConfig, &Chaos)>,
    ) -> Self {
        let workers = cfg.workers.max(1);
        let (res_tx, res_rx) = bsync::channel::unbounded::<ResMsg>();
        let placement = Placement::new(roots.iter().map(|p| p.partitioning()).collect(), workers);
        let sup =
            sup.map(|(sup_cfg, chaos)| SupState::new(sup_cfg, chaos, workers, res_tx.clone()));
        let mut s = Session {
            cfg,
            roots,
            placement,
            shards: Vec::with_capacity(workers),
            res_rx,
            pending: VecDeque::new(),
            report: LiveRunReport::default(),
            next_seq: 0,
            next_base: 0,
        };
        for w in 0..workers {
            let duties = sup.as_ref().map(|sup| sup.duties(w));
            let shard = s.spawn(s.worker(w, 0, duties, &res_tx));
            s.shards.push(Some(shard));
        }
        // `res_tx` drops here: an unsupervised session's final drain
        // ends when its workers exit and the channel disconnects. A
        // supervised one keeps a sender for respawns.
        LiveSession { s, sup }
    }

    /// Broadcast the records batched so far, if any.
    fn flush(&mut self, batch: &mut Vec<BgpStreamRecord>) -> Result<(), RuntimeError> {
        if batch.is_empty() {
            return Ok(());
        }
        let cap = self.s.cfg.batch_records;
        let recs = Arc::new(std::mem::replace(batch, Vec::with_capacity(cap)));
        let base = self.s.next_base;
        self.s.next_base += recs.len() as u64;
        let seq = self.s.alloc_seq();
        self.broadcast(ShardMsg::Batch { seq, base, recs })
    }

    /// Close every bin in `closing`, after shipping the records that
    /// precede the first boundary.
    fn close_bins(
        &mut self,
        batch: &mut Vec<BgpStreamRecord>,
        closing: impl Iterator<Item = (u64, u64)>,
    ) -> Result<(), RuntimeError> {
        for (bin_start, bin_end) in closing {
            self.flush(batch)?;
            let end_bin = self.s.open_barrier(bin_start, bin_end);
            self.broadcast(end_bin)?;
        }
        Ok(())
    }

    fn broadcast(&mut self, msg: ShardMsg) -> Result<(), RuntimeError> {
        match &mut self.sup {
            None => {
                self.s.send_all(msg);
                Ok(())
            }
            Some(sup) => sup.broadcast(&mut self.s, msg),
        }
    }

    fn drain_results(&mut self) -> Result<(), RuntimeError> {
        match &mut self.sup {
            None => self.s.drain_results(false),
            Some(sup) => sup.drain_results(&mut self.s, false),
        }
    }

    fn finish(self) -> Result<LiveRunReport, RuntimeError> {
        match self.sup {
            None => self.s.finish(),
            Some(sup) => sup.finish(self.s),
        }
    }
}

/// What every session has: its workers, the pending bin barriers and
/// the report.
pub(super) struct Session<'a, 'p> {
    cfg: &'a ShardedRuntimeBuilder,
    roots: &'a mut [&'p mut dyn ShardedPlugin],
    placement: Placement,
    /// One shard per worker, so a restart is literally "detach one
    /// shard and spawn a fresh one". `None` once the worker is
    /// degraded: dead past its restart budget, its slots synthesized.
    pub(super) shards: Vec<Option<Shard<ShardMsg>>>,
    pub(super) res_rx: Receiver<ResMsg>,
    pub(super) pending: VecDeque<PendingBin>,
    pub(super) report: LiveRunReport,
    next_seq: u64,
    next_base: u64,
}

impl Session<'_, '_> {
    /// A fresh instance of the shard of plugin `p` that worker `w`
    /// hosts, if it hosts one.
    fn fork(&self, p: usize, w: usize) -> Option<Box<dyn ShardedPlugin>> {
        let (shard, shards) = self.placement.shard(p, w)?;
        Some(self.roots[p].fork(shard, shards))
    }

    /// Worker `w`'s state: the same forks in the same order at every
    /// spawn, so checkpoint frames line up with hosted order across
    /// restarts.
    pub(super) fn worker(
        &self,
        w: usize,
        epoch: u64,
        duties: Option<WorkerKills>,
        res_tx: &Sender<ResMsg>,
    ) -> WorkerState {
        let plugins: Vec<Hosted> = (0..self.roots.len())
            .filter_map(|p| {
                Some(Hosted {
                    root_idx: p,
                    partitioning: self.placement.parts[p],
                    plugin: self.fork(p, w)?,
                })
            })
            .collect();
        let needs = |part| plugins.iter().any(|h| h.partitioning == part);
        WorkerState {
            need_prefix_mask: needs(Partitioning::ByPrefix),
            need_peer_mask: needs(Partitioning::ByPeer),
            plugins,
            res_tx: res_tx.clone(),
            worker: w,
            workers: self.placement.workers,
            epoch,
            duties,
            mask_prefix: Vec::new(),
            mask_peer: Vec::new(),
            poisoned: false,
        }
    }

    pub(super) fn spawn(&self, mut state: WorkerState) -> Shard<ShardMsg> {
        Shard::spawn(self.cfg.queue_batches, move |msg| state.handle(msg))
    }

    fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Unsupervised delivery: a blocking send to every worker, so a
    /// slow worker backpressures the reader.
    fn send_all(&self, msg: ShardMsg) {
        for shard in self.shards.iter().flatten() {
            shard.send(msg.clone());
        }
    }

    /// Queue the barrier for bin `[bin_start, bin_end)` and return the
    /// message that closes the bin on every worker. The bin is queued
    /// before the broadcast, so partials from a restart's replay
    /// mid-broadcast find their slots.
    fn open_barrier(&mut self, bin_start: u64, bin_end: u64) -> ShardMsg {
        let seq = self.alloc_seq();
        let total = self.placement.total();
        let mut bin = PendingBin {
            bin_start,
            bin_end,
            slots: vec![None; total],
            missing: total,
            status: BinStatus::Complete,
        };
        for w in 0..self.shards.len() {
            if self.shards[w].is_none() {
                self.fill_dead_slots(&mut bin, w);
            }
        }
        self.pending.push_back(bin);
        self.report.bins_closed += 1;
        ShardMsg::EndBin {
            seq,
            bin_start,
            bin_end,
        }
    }

    /// Complete worker `w`'s slots in `bin` with partials synthesized
    /// from empty forks (for [`crate::RtPlugin`]-style plugins the fork
    /// must still see `end_bin` before `take_partial`). Marks the bin
    /// [`BinStatus::Partial`].
    fn fill_dead_slots(&self, bin: &mut PendingBin, w: usize) {
        for p in 0..self.roots.len() {
            // Fork only for a slot still empty: partials that arrived
            // before the worker died stay.
            let Some(slot) = self.placement.slot(p, w) else {
                continue;
            };
            if bin.slots[slot].is_some() {
                continue;
            }
            if let Some(mut fork) = self.fork(p, w) {
                fork.end_bin(bin.bin_start, bin.bin_end);
                bin.slots[slot] = Some(fork.take_partial());
                bin.missing -= 1;
                bin.status = BinStatus::Partial;
            }
        }
    }

    /// Graceful degradation: worker `w`'s shard is gone for good, so
    /// complete its slots in every pending bin (later bins get them at
    /// their barrier) and the session keeps closing bins, marked
    /// [`BinStatus::Partial`], instead of wedging.
    pub(super) fn degrade(&mut self, w: usize) {
        let mut pending = std::mem::take(&mut self.pending);
        for bin in pending.iter_mut() {
            self.fill_dead_slots(bin, w);
        }
        self.pending = pending;
    }

    /// Put a partial in its slot. False when its bin is no longer
    /// pending or the slot is filled: a replay re-answering.
    pub(super) fn place(
        &mut self,
        plugin: usize,
        worker: usize,
        bin_start: u64,
        bytes: Vec<u8>,
    ) -> bool {
        let Some(slot) = self.placement.slot(plugin, worker) else {
            return false;
        };
        let Some(bin) = self.pending.iter_mut().find(|b| b.bin_start == bin_start) else {
            return false;
        };
        if bin.slots[slot].is_some() {
            return false;
        }
        bin.slots[slot] = Some(bytes);
        bin.missing -= 1;
        true
    }

    /// Fold every complete bin at the front of the queue into the
    /// roots, strictly in bin order and each plugin's partials in
    /// shard order.
    pub(super) fn merge_ready(&mut self) {
        while self.pending.front().is_some_and(|b| b.missing == 0) {
            let Some(bin) = self.pending.pop_front() else {
                break;
            };
            if bin.status == BinStatus::Partial {
                self.report.partial_bins.push(bin.bin_start);
            }
            let mut partials = bin.slots.into_iter().flatten();
            for (p, root) in self.roots.iter_mut().enumerate() {
                let n = self.placement.base[p + 1] - self.placement.base[p];
                root.merge_bin(
                    bin.bin_start,
                    bin.bin_end,
                    partials.by_ref().take(n).collect(),
                );
            }
        }
    }

    /// Unsupervised: fold arrived partials into the roots; a worker
    /// panic ends the session. With `block`, read until every worker
    /// has exited and the channel disconnects.
    fn drain_results(&mut self, block: bool) -> Result<(), RuntimeError> {
        loop {
            self.merge_ready();
            let msg = match block {
                true => self.res_rx.recv().ok(),
                false => self.res_rx.try_recv().ok(),
            };
            match msg {
                None => {
                    assert!(
                        !block || self.pending.is_empty(),
                        "shard workers exited with {} bin(s) unmerged",
                        self.pending.len()
                    );
                    return Ok(());
                }
                Some(ResMsg::Partial {
                    plugin,
                    worker,
                    bin_start,
                    bytes,
                    ..
                }) => {
                    let placed = self.place(plugin, worker, bin_start, bytes);
                    assert!(placed, "unsupervised partial for no open slot");
                }
                Some(ResMsg::Panicked { worker, .. }) => {
                    return Err(RuntimeError::WorkerPanicked { worker })
                }
                // Only supervised workers ack and checkpoint.
                Some(ResMsg::Progress { .. } | ResMsg::Checkpoint { .. }) => {}
            }
        }
    }

    /// Unsupervised end of session: retire the workers, then merge
    /// everything they sent.
    fn finish(mut self) -> Result<LiveRunReport, RuntimeError> {
        for shard in self.shards.drain(..).flatten() {
            shard.join();
        }
        self.drain_results(true)?;
        Ok(self.report)
    }
}
