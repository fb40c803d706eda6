//! Crash recovery for the sharded runtime: a [`Supervisor`] runs a
//! session in which a worker that panics or stalls restarts from its
//! last checkpoint instead of ending the run.

use std::collections::VecDeque;
use std::time::Duration;

use bgp_types::codec;
use bgpstream::BgpStream;
use bsync::atomic::AtomicBool;
use bsync::channel::{Sender, TrySendError};
use bsync::time::Clock;

use super::chaos::{Chaos, ChaosRun, WorkerKills};
use super::session::{ResMsg, Session, ShardMsg, WorkerState};
use super::{LiveRunReport, RuntimeError, ShardedPlugin, ShardedRuntime};

/// Tuning for a [`Supervisor`]. All timing flows through the injected
/// [`Clock`], so tests drive backoff and stall detection on a manual
/// timeline.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Restart budget per worker: how many restarts in a row may fail
    /// to get the worker past its failure. The attempt after the budget
    /// is exhausted degrades the worker instead (see
    /// [`BinStatus`](super::BinStatus)). A worker that checkpoints past
    /// every message it had been sent when it last failed has its
    /// budget back, so far-apart failures in a long run each restart.
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
/// close with [`BinStatus::Partial`](super::BinStatus::Partial)
/// instead of wedging the session.
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
        let sup = Some((&self.cfg, &self.chaos));
        self.runtime.run_session(stream, stop, shutdown, roots, sup)
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

/// The supervision state of one session: replay log, checkpoints,
/// epochs, restart accounting and the stall clock.
pub(super) struct SupState {
    cfg: SupervisorConfig,
    chaos: ChaosRun,
    /// Kept for respawns; each worker holds its own clone.
    res_tx: Sender<ResMsg>,
    /// Latest valid checkpoint per worker: `(seq of the EndBin it was
    /// taken at, opened frame payloads in hosted-plugin order)`.
    ckpt: Vec<Option<(u64, Vec<Vec<u8>>)>>,
    /// Restarts in a row per worker, since it last got past a failure.
    attempts: Vec<u32>,
    /// Per worker, the last seq it had been sent when it last failed.
    failed_at: Vec<u64>,
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
    pub(super) fn new(
        cfg: &SupervisorConfig,
        chaos: &Chaos,
        workers: usize,
        res_tx: Sender<ResMsg>,
    ) -> Self {
        let now = cfg.clock.now_millis();
        SupState {
            cfg: cfg.clone(),
            chaos: ChaosRun::new(chaos, workers),
            res_tx,
            ckpt: vec![None; workers],
            attempts: vec![0; workers],
            failed_at: vec![0; workers],
            epochs: vec![0; workers],
            log: VecDeque::new(),
            sent_seq: vec![0; workers],
            acked_seq: vec![0; workers],
            last_progress_ms: vec![now; workers],
            rng: cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    /// What a fresh worker `w` carries besides its plugins: its share
    /// of the kill schedule (acks and checkpoints need no state).
    pub(super) fn duties(&self, w: usize) -> WorkerKills {
        self.chaos.kills_for(w)
    }

    fn ckpt_seq(&self, w: usize) -> u64 {
        self.ckpt[w].as_ref().map_or(0, |(seq, _)| *seq)
    }

    /// The one stall rule: worker `w` owes acks for messages it was
    /// sent and has shown no progress for `stall_timeout_ms`, counted
    /// from its last ack or partial, or from the send that ended an
    /// idle spell if that came later.
    fn stalled(&self, w: usize, now: u64) -> bool {
        self.sent_seq[w] > self.acked_seq[w]
            && now.saturating_sub(self.last_progress_ms[w]) >= self.cfg.stall_timeout_ms
    }

    /// Log `msg` for replay and deliver it to every live worker.
    pub(super) fn broadcast(&mut self, s: &mut Session, msg: ShardMsg) -> Result<(), RuntimeError> {
        self.log.push_back(msg.clone());
        for w in 0..s.shards.len() {
            self.send_to(s, w, msg.clone())?;
        }
        Ok(())
    }

    /// Deliver `msg` to worker `w` without parking on its queue: while
    /// the queue is full, drain results, which restarts the worker once
    /// the stall rule catches it. A restart's replay may deliver the
    /// message for us, which `sent_seq` tracks.
    fn send_to(
        &mut self,
        s: &mut Session,
        w: usize,
        mut msg: ShardMsg,
    ) -> Result<(), RuntimeError> {
        let seq = msg.seq();
        loop {
            let Some(shard) = &s.shards[w] else {
                return Ok(()); // degraded
            };
            if self.sent_seq[w] >= seq {
                return Ok(());
            }
            match shard.try_send(msg) {
                Ok(()) => {
                    if self.sent_seq[w] == self.acked_seq[w] {
                        // The debt starts now: a worker that owed
                        // nothing was idle, not stalled, however long.
                        self.last_progress_ms[w] = self.cfg.clock.now_millis();
                    }
                    self.sent_seq[w] = seq;
                    return Ok(());
                }
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    self.drain_results(s, false)?;
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(m)) => {
                    // The worker thread itself died (not a caught
                    // plugin panic — those keep draining). Restart it.
                    msg = m;
                    s.report.retries += 1;
                    self.restart(s, w)?;
                }
            }
        }
    }

    /// Fold arrived results into the session, polling instead of
    /// parking on `recv` so crash handling stays live, and restart
    /// every stalled worker whenever no result is waiting. With
    /// `block`, keep going until every pending bin is merged.
    pub(super) fn drain_results(
        &mut self,
        s: &mut Session,
        block: bool,
    ) -> Result<(), RuntimeError> {
        loop {
            s.merge_ready();
            if block && s.pending.is_empty() {
                return Ok(());
            }
            match s.res_rx.try_recv() {
                Ok(msg) => self.on_msg(s, msg)?,
                Err(_) => {
                    let now = self.cfg.clock.now_millis();
                    for w in 0..s.shards.len() {
                        if s.shards[w].is_some() && self.stalled(w, now) {
                            // The zombie thread parks on whatever
                            // wedged it; its output is filtered by epoch.
                            s.report.retries += 1;
                            self.restart(s, w)?;
                        }
                    }
                    if !block {
                        return Ok(());
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    fn on_msg(&mut self, s: &mut Session, msg: ResMsg) -> Result<(), RuntimeError> {
        let now = self.cfg.clock.now_millis();
        match msg {
            ResMsg::Partial {
                plugin,
                worker,
                epoch,
                bin_start,
                bytes,
            } if epoch == self.epochs[worker] => {
                self.last_progress_ms[worker] = now;
                // Replay past a torn checkpoint re-answers bins already
                // merged; deterministic replay makes the bytes
                // identical, so `place` drops the duplicate.
                s.place(plugin, worker, bin_start, bytes);
            }
            ResMsg::Progress { worker, epoch, seq } if epoch == self.epochs[worker] => {
                self.acked_seq[worker] = self.acked_seq[worker].max(seq);
                self.last_progress_ms[worker] = now;
            }
            ResMsg::Checkpoint {
                worker,
                epoch,
                seq,
                mut frames,
            } if epoch == self.epochs[worker] => {
                self.chaos.on_checkpoint(worker, &mut frames);
                let opened: Result<Vec<Vec<u8>>, _> = frames
                    .iter()
                    .map(|f| codec::open_frame(f).map(|p| p.to_vec()))
                    .collect();
                // A torn write fails to open: the previous checkpoint
                // stays authoritative and replay covers the gap.
                if let Ok(payloads) = opened {
                    self.ckpt[worker] = Some((seq, payloads));
                    // Past every message it had when it last failed:
                    // the worker recovered, and has its budget back.
                    if seq > self.failed_at[worker] {
                        self.attempts[worker] = 0;
                    }
                    // Trim replay entries no live worker can need.
                    let min_seq = (0..s.shards.len())
                        .filter(|&w| s.shards[w].is_some())
                        .map(|w| self.ckpt_seq(w))
                        .min()
                        .unwrap_or(0);
                    while self.log.front().is_some_and(|m| m.seq() <= min_seq) {
                        self.log.pop_front();
                    }
                }
            }
            ResMsg::Panicked {
                worker,
                epoch,
                killed_at,
            } if epoch == self.epochs[worker] => {
                if let Some(at) = killed_at {
                    self.chaos.kill_fired(worker, at);
                }
                s.report.retries += 1;
                return self.restart(s, worker);
            }
            // A zombie's output: its worker restarted or degraded since.
            _ => {}
        }
        Ok(())
    }

    /// Restart worker `w` from its last checkpoint: bump the epoch
    /// (zombie output is discarded by epoch filtering), detach the old
    /// shard, back off with seeded jitter, fork-and-restore a fresh
    /// shard instance set, and replay every logged message past the
    /// checkpoint. Past the restart budget the worker degrades
    /// instead.
    fn restart(&mut self, s: &mut Session, w: usize) -> Result<(), RuntimeError> {
        self.attempts[w] += 1;
        self.failed_at[w] = self.failed_at[w].max(self.sent_seq[w]);
        self.epochs[w] += 1;
        // Detach rather than join: a *stalled* worker never exits, and
        // a panicked one is poisoned and drains on its own.
        if let Some(shard) = s.shards[w].take() {
            shard.detach();
        }
        if self.attempts[w] > self.cfg.max_restarts {
            s.degrade(w);
            return Ok(());
        }
        s.report.restarts += 1;
        let exp = (self.attempts[w] - 1).min(20);
        let backoff =
            (self.cfg.backoff_base_ms.saturating_mul(1u64 << exp)).min(self.cfg.backoff_max_ms);
        let jitter = match backoff {
            0 => 0,
            _ => jitter_rng(&mut self.rng) % (backoff / 2 + 1),
        };
        if backoff + jitter > 0 {
            self.cfg
                .clock
                .sleep(Duration::from_millis(backoff + jitter));
        }
        let mut state = s.worker(w, self.epochs[w], Some(self.duties(w)), &self.res_tx);
        if let Some((_, frames)) = &self.ckpt[w] {
            restore(&mut state, w, frames)?;
        }
        s.shards[w] = Some(s.spawn(state));
        let from_seq = self.ckpt_seq(w);
        self.sent_seq[w] = from_seq;
        self.acked_seq[w] = from_seq;
        self.last_progress_ms[w] = self.cfg.clock.now_millis();
        let replay: Vec<ShardMsg> = (self.log.iter())
            .filter(|m| m.seq() > from_seq)
            .cloned()
            .collect();
        for m in replay {
            self.send_to(s, w, m)?;
        }
        Ok(())
    }

    /// Supervised end of session: crashes and stalls on the final bins
    /// are still recovered here; only once nothing is pending do the
    /// workers retire, each joined once it owes no acks. One the stall
    /// rule catches still owing is wedged in the open bin, which
    /// shutdown leaves unclosed: it is detached, not restarted.
    pub(super) fn finish(mut self, mut s: Session) -> Result<LiveRunReport, RuntimeError> {
        self.drain_results(&mut s, true)?;
        while s.shards.iter().any(Option::is_some) {
            let now = self.cfg.clock.now_millis();
            for w in 0..s.shards.len() {
                let owes = self.sent_seq[w] > self.acked_seq[w];
                match s.shards[w].take() {
                    Some(shard) if !owes => shard.join(),
                    Some(shard) if self.stalled(w, now) => shard.detach(),
                    shard => s.shards[w] = shard,
                }
            }
            match s.res_rx.try_recv() {
                Ok(msg) => self.on_msg(&mut s, msg)?,
                Err(_) => std::thread::yield_now(),
            }
        }
        Ok(s.report)
    }
}

/// Restore a fresh worker's shard instances from checkpoint `frames`,
/// one per hosted plugin in hosted order.
fn restore(state: &mut WorkerState, w: usize, frames: &[Vec<u8>]) -> Result<(), RuntimeError> {
    if frames.len() != state.plugins.len() {
        return Err(RuntimeError::Checkpoint(format!(
            "worker {w}: {} checkpoint frames for {} hosted plugins",
            frames.len(),
            state.plugins.len()
        )));
    }
    for (hosted, frame) in state.plugins.iter_mut().zip(frames) {
        (hosted.plugin.restore(frame)).map_err(RuntimeError::Checkpoint)?;
    }
    Ok(())
}
