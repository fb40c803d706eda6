//! Fault injection for supervised runs: the crash schedule a test
//! hands a [`Supervisor`](super::Supervisor), and the two points where
//! it strikes — a worker panicking on a record, and a checkpoint write
//! torn mid-flush.

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

/// A session's running copy of its [`Chaos`] schedule.
pub(super) struct ChaosRun {
    /// `times` is decremented as kills fire, so a respawned worker
    /// re-arms only the remaining budget.
    kills: Vec<KillSpec>,
    torn: Vec<(usize, u64)>,
    /// Checkpoints received per worker, across epochs.
    ckpt_seen: Vec<u64>,
}

impl ChaosRun {
    pub(super) fn new(chaos: &Chaos, workers: usize) -> Self {
        ChaosRun {
            kills: chaos.kills.clone(),
            torn: chaos.torn_checkpoints.clone(),
            ckpt_seen: vec![0; workers],
        }
    }

    /// The kills still due on worker `w`, for a fresh worker to carry.
    pub(super) fn kills_for(&self, w: usize) -> WorkerKills {
        WorkerKills {
            due: (self.kills.iter())
                .filter(|k| k.worker == w && k.times > 0)
                .map(|k| (k.at_record, k.times))
                .collect(),
            fired: None,
        }
    }

    /// A kill fired on `worker` at record `at`: one fewer to come.
    pub(super) fn kill_fired(&mut self, worker: usize, at: u64) {
        let due = |k: &&mut KillSpec| k.worker == worker && k.at_record == at && k.times > 0;
        if let Some(k) = self.kills.iter_mut().find(due) {
            k.times -= 1;
        }
    }

    /// The torn-write injection point: count a checkpoint `worker`
    /// took, and cut its last frame short if the schedule says so.
    pub(super) fn on_checkpoint(&mut self, worker: usize, frames: &mut [Vec<u8>]) {
        self.ckpt_seen[worker] += 1;
        let nth = self.ckpt_seen[worker];
        if self.torn.contains(&(worker, nth)) {
            if let Some(last) = frames.last_mut() {
                last.truncate(last.len().saturating_sub(5));
            }
        }
    }
}

/// One worker's share of the kill schedule.
pub(super) struct WorkerKills {
    /// `(at_record, times)` still due.
    due: Vec<(u64, u32)>,
    /// The record the last kill fired at, until the worker reports it.
    fired: Option<u64>,
}

impl WorkerKills {
    /// The kill injection point: panic if a kill is due at record
    /// `global`, remembering where for [`WorkerKills::take_fired`].
    pub(super) fn strike(&mut self, worker: usize, global: u64) {
        if let Some(kill) = self.due.iter_mut().find(|k| k.1 > 0 && k.0 == global) {
            kill.1 -= 1;
            self.fired = Some(global);
            panic!("chaos: kill worker {worker} at record {global}");
        }
    }

    /// Where a kill fired, if the panic being reported was one.
    pub(super) fn take_fired(&mut self) -> Option<u64> {
        self.fired.take()
    }
}
