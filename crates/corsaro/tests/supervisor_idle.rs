//! The supervisor's stall rule across quiet spells. A live feed is
//! silent for minutes between publications while the stall timeout is
//! seconds; a worker that owed nothing through such a spell was idle,
//! not stalled, so the records that end the spell must not restart it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use bgpstream::BgpStream;
use broker::{
    BrokerClient, BrokerCursor, BrokerError, DumpMeta, Index, LeaseId, LivePoll, LocalBroker,
    Query, ReleasePolicy, Response,
};
use collector_sim::{standard_collectors, SimConfig, Simulator};
use corsaro::runtime::{ShardedPlugin, ShardedRuntime};
use corsaro::{Partitioning, Plugin, Supervisor, SupervisorConfig};
use topology::control::ControlPlane;
use topology::gen::{generate, TopologyConfig};

const BIN: u64 = 300;
/// Broker window: one RouteViews updates dump or three RIS ones, so a
/// window never releases records past its end.
const WINDOW: u64 = 900;
const STALL_MS: u64 = 1_000;
const HORIZON: u64 = 2 * 3600;

/// Simulated archive for [`HORIZON`] seconds, written under `dir`,
/// and the end of the bin its first record falls in: no bin closes
/// before that.
fn archive(dir: &PathBuf) -> (Vec<DumpMeta>, u64) {
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(41))), u64::MAX);
    let specs = standard_collectors(&cp, 1, 1, 5, 1.0, 41);
    let mut sim = Simulator::new(cp, specs, SimConfig::new(dir));
    let index = Index::shared();
    sim.attach_index(index.clone());
    sim.run_until(HORIZON);
    let first = BgpStream::builder()
        .broker_client(LocalBroker::shared(index))
        .interval(0, Some(HORIZON))
        .start()
        .next_record()
        .expect("archive has records")
        .timestamp;
    (sim.manifest().to_vec(), first - first % BIN + BIN)
}

/// Takes a while over every record, so a worker handed the first
/// message after a quiet spell is still busy with it when the
/// coordinator next looks for stalls. The root reports the end of
/// every bin it merges.
struct Slow {
    merged: Option<Sender<u64>>,
}

impl Plugin for Slow {
    fn name(&self) -> &'static str {
        "slow"
    }

    fn process_record(&mut self, _record: &bgpstream::BgpStreamRecord) {
        std::thread::sleep(Duration::from_micros(100));
    }

    fn end_bin(&mut self, _s: u64, _e: u64) {}

    fn partitioning(&self) -> Partitioning {
        Partitioning::ByPrefix
    }
}

impl ShardedPlugin for Slow {
    fn fork(&self, _shard: usize, _shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(Slow { merged: None })
    }

    fn take_partial(&mut self) -> Vec<u8> {
        Vec::new()
    }

    fn merge_bin(&mut self, _s: u64, bin_end: u64, _partials: Vec<Vec<u8>>) {
        if let Some(tx) = &self.merged {
            let _ = tx.send(bin_end);
        }
    }
}

/// A local broker that reports each idle wait of the stream reading
/// from it: the stream calls `wait_for_new` only when it has nothing
/// to deliver, right after the coordinator drained its results.
struct IdleProbe {
    broker: Arc<LocalBroker>,
    idle: Sender<()>,
}

impl BrokerClient for IdleProbe {
    fn query(
        &self,
        query: &Query,
        cursor: &mut BrokerCursor,
        now: u64,
    ) -> Result<Response, BrokerError> {
        self.broker.query(query, cursor, now)
    }

    fn open_live(
        &self,
        query: &Query,
        policy: ReleasePolicy,
        resume: Option<LeaseId>,
    ) -> Result<LeaseId, BrokerError> {
        self.broker.open_live(query, policy, resume)
    }

    fn poll_live(&self, lease: LeaseId, now: u64) -> Result<LivePoll, BrokerError> {
        self.broker.poll_live(lease, now)
    }

    fn renew_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        self.broker.renew_lease(lease)
    }

    fn close_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        self.broker.close_lease(lease)
    }

    fn version(&self) -> u64 {
        self.broker.version()
    }

    fn wait_for_new(&self, last_version: u64, timeout: Duration) -> bool {
        let _ = self.idle.send(());
        self.broker.wait_for_new(last_version, timeout)
    }
}

/// Receive on `rx`, or shut the session down and fail after a minute:
/// a guard against a wedged consumer, not a synchronisation step.
fn recv_or_give_up<T>(rx: &Receiver<T>, give_up: &AtomicBool, what: &str) -> T {
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| {
            give_up.store(true, Ordering::SeqCst);
            panic!("feeder timed out waiting for {what}");
        })
}

#[test]
fn records_after_a_quiet_spell_longer_than_the_stall_timeout_restart_nothing() {
    // The feeder publishes one broker window at a time. Each time the
    // watermark closes a bin, it waits until the root has merged that
    // bin and the consumer has idled past the workers' last acks, then
    // moves the supervisor's clock ten stall timeouts on before it
    // publishes the next window: every worker sits out a spell far
    // longer than the timeout owing nothing, and then gets records.
    let dir = std::env::temp_dir().join(format!("bgpstream-sup-idle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (manifest, first_close) = archive(&dir);
    let live_index = Arc::new(Index::with_window(WINDOW));
    let mut feeder = collector_sim::LiveFeeder::new(
        &manifest,
        live_index.clone(),
        &collector_sim::FaultPlan::none(),
        5,
    );
    let stream_clock = bgpstream::Clock::manual(0);
    let sup_clock = bsync::time::Clock::manual(0);
    let (merged_tx, merged_rx) = mpsc::channel::<u64>();
    let (idle_tx, idle_rx) = mpsc::channel::<()>();
    let give_up = Arc::new(AtomicBool::new(false));
    let driver = {
        let (stream_clock, sup_clock) = (stream_clock.clone(), sup_clock.clone());
        let index = live_index.clone();
        let give_up = give_up.clone();
        std::thread::spawn(move || {
            let (mut t, mut waited_through, mut spells) = (0u64, 0u64, 0u32);
            while !feeder.done() {
                t += 60;
                feeder.publish_until(t);
                stream_clock.advance_to(t);
                let watermark = index.watermark();
                let through = watermark - watermark % WINDOW;
                if watermark == u64::MAX
                    || through >= HORIZON
                    || through < first_close
                    || through <= waited_through
                {
                    continue;
                }
                while recv_or_give_up(&merged_rx, &give_up, "the closed bin") < through {}
                // The acks follow the partials at once; two idle steps
                // after a pause mean the coordinator has drained them.
                std::thread::sleep(Duration::from_millis(10));
                while idle_rx.try_recv().is_ok() {}
                recv_or_give_up(&idle_rx, &give_up, "an idle step");
                recv_or_give_up(&idle_rx, &give_up, "a second idle step");
                sup_clock.advance_millis(10 * STALL_MS);
                waited_through = through;
                spells += 1;
            }
            stream_clock.advance_to(feeder.horizon().saturating_add(1));
            spells
        })
    };

    let probe = Arc::new(IdleProbe {
        broker: LocalBroker::shared(live_index),
        idle: idle_tx,
    });
    let mut stream = BgpStream::builder()
        .broker_client(probe)
        .live(0)
        .watermark_release()
        .clock(stream_clock)
        .poll_interval(Duration::from_millis(1))
        .start();
    let mut slow = Slow {
        merged: Some(merged_tx),
    };
    let runtime = ShardedRuntime::builder()
        .workers(2)
        .bin_size(BIN)
        .batch_records(16)
        .build();
    let cfg = SupervisorConfig {
        stall_timeout_ms: STALL_MS,
        clock: sup_clock,
        ..SupervisorConfig::default()
    };
    let report = Supervisor::new(runtime)
        .with_config(cfg)
        .run_live(&mut stream, HORIZON, Some(&give_up), &mut [&mut slow])
        .expect("supervised run_live");
    let spells = driver.join().expect("feeder");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!report.shutdown);
    assert!(report.records > 0);
    assert!(spells >= 3, "only {spells} quiet spells");
    assert_eq!(report.restarts, 0, "idle workers were restarted as stalled");
    assert_eq!(report.retries, 0);
    assert!(report.partial_bins.is_empty());
}
