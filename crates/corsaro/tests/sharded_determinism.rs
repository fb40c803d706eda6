//! Determinism contract of the sharded runtime: per-bin plugin
//! outputs — series *and* queue payload bytes — must be identical to
//! the sequential pipeline for every worker count and for any
//! interleaving of the shard queues.
//!
//! Interleavings are perturbed two ways: the batch/queue-depth matrix
//! spans degenerate configurations (1-record batches on 1-slot
//! queues force maximal contention; large batches exercise the
//! mid-bin flush path), and a jitter plugin injects data-dependent
//! sleeps on individual shards so workers drift apart in time.
//! Nothing observed downstream may depend on that drift.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use bgp_types::codec::Reader;
use bgpstream::BgpStream;
use broker::{
    BrokerClient, BrokerCursor, BrokerError, Index, LeaseId, LivePoll, LocalBroker, Query,
    ReleasePolicy, Response,
};
use bytes::{BufMut, BytesMut};
use collector_sim::{standard_collectors, SimConfig, Simulator};
use corsaro::runtime::{shard_of_prefix, ShardedPlugin, ShardedRuntime};
use corsaro::tag::{ClassifierTagger, Tagged, Tagger, TAG_ANNOUNCE};
use corsaro::{
    run_pipeline, ElemCounter, Partitioning, PfxMonitor, PfxPoint, Plugin, RtBinStats,
    RtErrorStats, RtPlugin,
};
use mq::Cluster;
use topology::control::ControlPlane;
use topology::events::Scenario;
use topology::gen::{generate, TopologyConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bgpstream-sharded-{}-{}-{}",
        tag,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A test plugin that deliberately desynchronises the shard workers:
/// data-dependent microsleeps on a single shard make worker progress
/// rates diverge, so any scheduling-order dependence in the runtime
/// would show up as output differences.
struct Jitter {
    shard: Option<(usize, usize)>,
    owned_elems: u64,
    /// Cumulative owned-elem count at each bin close.
    pub series: Vec<u64>,
    /// The root reports the end of every bin it merges here: the
    /// signal a lockstep feeder waits on.
    merged: Option<Sender<u64>>,
}

impl Jitter {
    fn new() -> Self {
        Jitter {
            shard: None,
            owned_elems: 0,
            series: Vec::new(),
            merged: None,
        }
    }
}

impl Plugin for Jitter {
    fn name(&self) -> &'static str {
        "jitter"
    }

    fn process_record(&mut self, record: &bgpstream::BgpStreamRecord) {
        for elem in record.elems() {
            let Some(prefix) = elem.prefix else { continue };
            if let Some((shard, shards)) = self.shard {
                if shard_of_prefix(&prefix, shards) != shard {
                    continue;
                }
                // Lag one shard behind the others, keyed by data so
                // the pattern is reproducible but uneven.
                if shard == 0 && elem.time % 13 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            self.owned_elems += 1;
        }
    }

    fn end_bin(&mut self, _s: u64, _e: u64) {
        self.series.push(self.owned_elems);
    }

    fn partitioning(&self) -> Partitioning {
        Partitioning::ByPrefix
    }

    fn checkpoint(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u64(self.owned_elems);
        out.put_u32(self.series.len() as u32);
        for v in &self.series {
            out.put_u64(*v);
        }
        out.to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes, "jitter checkpoint");
        let truncated = |_| "jitter checkpoint: truncated header".to_string();
        let owned = r.u64().map_err(truncated)?;
        let n = r.u32().map_err(truncated)? as usize;
        if r.len() != n * 8 {
            return Err("jitter checkpoint: bad series length".into());
        }
        self.owned_elems = owned;
        self.series = (0..n)
            .map(|_| r.u64())
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl ShardedPlugin for Jitter {
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        let mut j = Jitter::new();
        j.shard = Some((shard, shards));
        Box::new(j)
    }

    fn take_partial(&mut self) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u64(self.owned_elems);
        out.to_vec()
    }

    fn merge_bin(&mut self, _s: u64, bin_end: u64, partials: Vec<Vec<u8>>) {
        let total: u64 = partials
            .iter()
            .map(|p| Reader::new(p, "jitter partial").u64().unwrap())
            .sum();
        self.series.push(total);
        if let Some(merged) = &self.merged {
            let _ = merged.send(bin_end);
        }
    }
}

/// Everything one pipeline run produces, in comparable form. The
/// byte blobs are the canonical outputs the issue's "byte-identical"
/// claim is made over.
#[derive(PartialEq, Debug)]
struct RunOutput {
    records: u64,
    pfx_bytes: Vec<u8>,
    /// The `PfxMonitor` behind an announcement gate.
    gated_pfx: Vec<PfxPoint>,
    rt_series: Vec<RtBinStats>,
    rt_errors: Vec<RtErrorStats>,
    stats_bytes: Vec<u8>,
    jitter_series: Vec<u64>,
    /// Every `rt.tables` + `rt.meta` payload, per partition, in offset
    /// order.
    mq_payloads: Vec<Vec<Vec<u8>>>,
}

fn drain_topic(mq: &Cluster, topic: &str) -> Vec<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for part in 0..mq.partitions(topic).max(1) {
        let mut msgs = Vec::new();
        loop {
            let batch = mq.fetch(topic, part, msgs.len() as u64, 64);
            if batch.is_empty() {
                break;
            }
            msgs.extend(batch.into_iter().map(|m| m.payload));
        }
        out.push(msgs);
    }
    out
}

struct World {
    index: Arc<Index>,
    collectors: Vec<String>,
    ranges: Vec<bgp_types::Prefix>,
    horizon: u64,
    dir: PathBuf,
    /// The final archive, for replaying through a live feeder.
    manifest: Vec<broker::DumpMeta>,
}

fn build_world(seed: u64) -> World {
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(seed))), u64::MAX);
    let topo = cp.topology().clone();
    // Monitor every announced range so the prefix-sharded plugin has
    // real work on every shard.
    let ranges: Vec<bgp_types::Prefix> = topo
        .nodes
        .iter()
        .flat_map(|n| n.prefixes_v4.iter().map(|p| p.prefix))
        .collect();
    let specs = standard_collectors(&cp, 1, 1, 5, 1.0, seed);
    let collectors: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let dir = tmpdir(&format!("world{seed}"));
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let index = Index::shared();
    sim.attach_index(index.clone());
    let mut sc = Scenario::new();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(6)
        .enumerate()
    {
        sc.flap(100 + 173 * k as u64, 5, 700, n.asn, n.prefixes_v4[0].prefix);
    }
    sim.schedule(&sc);
    let horizon = 2 * 3600;
    sim.run_until(horizon);
    let manifest = sim.manifest().to_vec();
    World {
        index,
        collectors,
        ranges,
        horizon,
        dir,
        manifest,
    }
}

/// The plugin set every determinism run drives, built in one place so
/// the sequential, sharded, live and supervised runs compare like with
/// like.
struct Plugins {
    mq: Arc<Cluster>,
    pfx: PfxMonitor,
    /// A second `PfxMonitor` that sees only records carrying an
    /// announcement (no RIB dump, no withdrawal-only update): every
    /// shard must take the same gate decision.
    gated_pfx: Tagged<PfxMonitor>,
    rts: Vec<RtPlugin>,
    stats: ElemCounter,
    jitter: Jitter,
}

impl Plugins {
    fn new(world: &World) -> Self {
        let mq = Cluster::shared();
        let taggers: Arc<[Box<dyn Tagger>]> = Arc::new([Box::new(ClassifierTagger) as _]);
        Plugins {
            pfx: PfxMonitor::new(world.ranges.iter().copied()),
            gated_pfx: Tagged::new(
                taggers,
                TAG_ANNOUNCE,
                PfxMonitor::new(world.ranges.iter().copied()),
            ),
            rts: world
                .collectors
                .iter()
                .map(|c| RtPlugin::new(c).with_queue(mq.clone(), 3))
                .collect(),
            stats: ElemCounter::new(),
            jitter: Jitter::new(),
            mq,
        }
    }

    fn sequential(&mut self) -> Vec<&mut dyn Plugin> {
        self.sharded()
            .into_iter()
            .map(|p| p as &mut dyn Plugin)
            .collect()
    }

    fn sharded(&mut self) -> Vec<&mut dyn ShardedPlugin> {
        let mut plugins: Vec<&mut dyn ShardedPlugin> = vec![
            &mut self.pfx,
            &mut self.stats,
            &mut self.jitter,
            &mut self.gated_pfx,
        ];
        for rt in self.rts.iter_mut() {
            plugins.push(rt);
        }
        plugins
    }

    fn output(&self, records: u64) -> RunOutput {
        let mut mq_payloads = drain_topic(&self.mq, "rt.tables");
        mq_payloads.extend(drain_topic(&self.mq, "rt.meta"));
        RunOutput {
            records,
            pfx_bytes: format!("{:?}", self.pfx.series).into_bytes(),
            gated_pfx: self.gated_pfx.inner().series.clone(),
            rt_series: self
                .rts
                .iter()
                .flat_map(|rt| rt.bin_series.clone())
                .collect(),
            rt_errors: self.rts.iter().map(|rt| rt.error_stats).collect(),
            stats_bytes: format!("{:?}", self.stats.series).into_bytes(),
            jitter_series: self.jitter.series.clone(),
            mq_payloads,
        }
    }
}

/// Run the plugin set sequentially (`workers == None`) or sharded.
fn run_once(world: &World, workers: Option<(usize, usize, usize)>) -> RunOutput {
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(world.horizon))
        .start();
    let mut plugins = Plugins::new(world);
    let records = match workers {
        None => run_pipeline(&mut stream, 300, &mut plugins.sequential()),
        Some((n, batch, queue)) => ShardedRuntime::builder()
            .workers(n)
            .bin_size(300)
            .batch_records(batch)
            .queue_batches(queue)
            .build()
            .run(&mut stream, &mut plugins.sharded()),
    };
    plugins.output(records)
}

/// Last bin boundary strictly above every record of the archive —
/// the stop both the historical baseline and the live runs use, so
/// neither closes trailing empty bins the other does not.
fn stop_after_last_record(world: &World, bin: u64) -> u64 {
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(world.horizon))
        .start();
    let mut max = 0u64;
    while let Some(r) = stream.next_record() {
        max = max.max(r.timestamp);
    }
    (max / bin) * bin + bin
}

/// The sequential historical baseline over the final archive, stopped
/// at `stop` (the reference the live runs must reproduce bin for bin).
fn run_historical_until(world: &World, stop: u64) -> RunOutput {
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(world.horizon))
        .start();
    let mut plugins = Plugins::new(world);
    let records = corsaro::run_pipeline_until(&mut stream, 300, stop, &mut plugins.sequential());
    plugins.output(records)
}

/// Supervisor settings for deterministic tests: a manual clock makes
/// backoff sleeps instantaneous, and the stall timeout is parked far
/// beyond any virtual time the backoff sleeps can accumulate (the
/// driver advances the *stream* clock, not this one) so no false
/// stall restarts pollute the `restarts` accounting.
fn test_supervisor_config() -> corsaro::SupervisorConfig {
    corsaro::SupervisorConfig {
        max_restarts: 10,
        backoff_base_ms: 1,
        backoff_max_ms: 8,
        stall_timeout_ms: u64::MAX / 4,
        clock: bsync::time::Clock::manual(0),
        seed: 0xC0FFEE,
    }
}

/// Replay the archive through a faulty live feeder into a fresh index
/// and consume it with `run_live` at `workers` (under a [`Supervisor`]
/// when `chaos` schedules any crash); returns the same comparable
/// output as the historical runner plus the run report.
fn run_live_once(
    world: &World,
    workers: usize,
    plan: &collector_sim::FaultPlan,
    chaos: &corsaro::Chaos,
    seed: u64,
    stop: u64,
) -> (RunOutput, corsaro::LiveRunReport) {
    run_live_with(
        world,
        workers,
        plan,
        chaos,
        test_supervisor_config(),
        seed,
        stop,
    )
}

/// [`run_live_once`] with supervision tuned by `cfg`.
fn run_live_with(
    world: &World,
    workers: usize,
    plan: &collector_sim::FaultPlan,
    chaos: &corsaro::Chaos,
    cfg: corsaro::SupervisorConfig,
    seed: u64,
    stop: u64,
) -> (RunOutput, corsaro::LiveRunReport) {
    use bgpstream::Clock;

    let live_index = Index::shared();
    let mut feeder =
        collector_sim::LiveFeeder::new(&world.manifest, live_index.clone(), plan, seed);
    let clock = Clock::manual(0);
    let horizon = feeder.horizon();
    let driver = {
        let clock = clock.clone();
        std::thread::spawn(move || {
            let mut t = 0u64;
            while !feeder.done() {
                t += 600;
                feeder.publish_until(t);
                clock.advance_to(t);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            clock.advance_to(horizon.saturating_add(1));
            feeder.stats()
        })
    };

    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(live_index))
        .live(0)
        .watermark_release()
        .clock(clock)
        .poll_interval(std::time::Duration::from_millis(1))
        .start();
    let mut plugins = Plugins::new(world);
    let runtime = ShardedRuntime::builder()
        .workers(workers)
        .bin_size(300)
        .build();
    let report = if chaos.is_empty() {
        runtime
            .run_live(&mut stream, stop, None, &mut plugins.sharded())
            .expect("run_live")
    } else {
        corsaro::Supervisor::new(runtime)
            .with_config(cfg)
            .with_chaos(chaos.clone())
            .run_live(&mut stream, stop, None, &mut plugins.sharded())
            .expect("supervised run_live")
    };
    let feeder_stats = driver.join().expect("feeder driver");
    assert!(feeder_stats.published > 0);
    assert!(!report.shutdown);
    assert!(report.bins_closed > 0, "live run must close bins");
    let out = plugins.output(report.records);
    (out, report)
}

#[test]
fn run_live_output_is_byte_identical_to_historical_run() {
    // The PR 5 live-mode determinism contract: for every closed bin,
    // `run_live` over a faulty live replay of the archive produces
    // byte-identical plugin output (series and queue payloads) to the
    // sequential historical run over the final archive — across
    // worker counts and an injected fault schedule with delays,
    // stalls, out-of-order and duplicate publication.
    let world = build_world(83);
    let stop = stop_after_last_record(&world, 300);
    let baseline = run_historical_until(&world, stop);
    assert!(baseline.records > 0);
    let benign = collector_sim::FaultPlan::none();
    let faulty = collector_sim::FaultPlan {
        extra_delay: (0, 400),
        stalls: vec![collector_sim::Stall {
            start: 2000,
            duration: 1500,
            collector: Some(0),
        }],
        swap_prob: 0.25,
        duplicate_prob: 0.25,
    };
    for (workers, plan, seed) in [
        (1usize, &benign, 7u64),
        (2, &faulty, 11),
        (4, &faulty, 13),
        (4, &benign, 17),
    ] {
        let (live, _report) = run_live_once(
            &world,
            workers,
            plan,
            &corsaro::Chaos::default(),
            seed,
            stop,
        );
        assert_eq!(
            baseline, live,
            "live output diverged at workers={workers} seed={seed}"
        );
    }
    std::fs::remove_dir_all(&world.dir).ok();
}

/// A local broker that reports each idle wait of the stream reading
/// from it: `BgpStream::next_batch_step` calls `wait_for_new` only when
/// it has nothing to deliver, and returns `BatchStep::Idle` with its
/// last polled watermark right after.
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
            panic!("lockstep feeder timed out waiting for {what}");
        })
}

/// A live run in lockstep with its feeder, on 900-second broker
/// windows: one RouteViews updates dump or three RIS ones, so a window
/// never releases records past its end. Each time the stream's
/// watermark moves, the feeder waits until the root has merged the bin
/// the watermark closed, and then for one more idle step of the
/// stream: that step re-reports the same watermark, which now lies
/// inside the open bin. So the consumer idles with an open bin between
/// records, deterministically, before the next window is published.
/// Returns the output, the report and the number of such steps.
fn run_lockstep_once(
    world: &World,
    workers: usize,
    stop: u64,
) -> (RunOutput, corsaro::LiveRunReport, u32) {
    const BIN: u64 = 300;
    const WINDOW: u64 = 900;
    // No bin closes before the first record's bin has ended.
    let first_close = {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(world.index.clone()))
            .interval(0, Some(world.horizon))
            .start();
        let first = stream.next_record().expect("archive has records").timestamp;
        first - first % BIN + BIN
    };
    let live_index = Arc::new(Index::with_window(WINDOW));
    let mut feeder = collector_sim::LiveFeeder::new(
        &world.manifest,
        live_index.clone(),
        &collector_sim::FaultPlan::none(),
        5,
    );
    let clock = bgpstream::Clock::manual(0);
    let (merged_tx, merged_rx) = mpsc::channel::<u64>();
    let (idle_tx, idle_rx) = mpsc::channel::<()>();
    let give_up = Arc::new(AtomicBool::new(false));
    let driver = {
        let clock = clock.clone();
        let index = live_index.clone();
        let give_up = give_up.clone();
        std::thread::spawn(move || {
            let (mut t, mut waited_through, mut steps) = (0u64, 0u64, 0u32);
            while !feeder.done() {
                t += 60;
                feeder.publish_until(t);
                clock.advance_to(t);
                let watermark = index.watermark();
                let through = watermark - watermark % WINDOW;
                if watermark == u64::MAX
                    || through >= stop
                    || through < first_close
                    || through <= waited_through
                {
                    continue;
                }
                // The stream releases through `through`; no record at
                // or past it exists yet, so the watermark closes the
                // bin ending there.
                while recv_or_give_up(&merged_rx, &give_up, "the closed bin") < through {}
                while idle_rx.try_recv().is_ok() {}
                recv_or_give_up(&idle_rx, &give_up, "an idle step");
                waited_through = through;
                steps += 1;
            }
            clock.advance_to(feeder.horizon().saturating_add(1));
            steps
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
        .clock(clock)
        .poll_interval(Duration::from_millis(1))
        .start();
    let mut plugins = Plugins::new(world);
    plugins.jitter.merged = Some(merged_tx);
    let report = ShardedRuntime::builder()
        .workers(workers)
        .bin_size(BIN)
        .build()
        .run_live(&mut stream, stop, Some(&give_up), &mut plugins.sharded())
        .expect("run_live");
    let steps = driver.join().expect("lockstep feeder");
    assert!(!report.shutdown);
    let out = plugins.output(report.records);
    (out, report, steps)
}

#[test]
fn lockstep_live_run_idles_in_open_bins_and_matches_the_historical_run() {
    // The live loop's quiet-period path: between two records the
    // stream idles with a watermark inside the open bin, which must
    // close nothing and keep that bin open. A backlog replay never
    // idles between records; the lockstep feeder forces it every bin.
    let world = build_world(83);
    let stop = stop_after_last_record(&world, 300);
    let baseline = run_historical_until(&world, stop);
    assert!(baseline.records > 0);
    for workers in [1usize, 3] {
        let (live, report, steps) = run_lockstep_once(&world, workers, stop);
        assert!(
            steps >= 5,
            "only {steps} lockstep steps at workers={workers}"
        );
        assert!(report.bins_closed > 0);
        assert_eq!(
            baseline, live,
            "lockstep output diverged at workers={workers}"
        );
    }
    std::fs::remove_dir_all(&world.dir).ok();
}

#[test]
fn supervised_run_is_byte_identical_under_crash_schedules() {
    // The crash-safety contract: a supervised live run whose workers
    // are killed mid-bin (and whose checkpoint writes are torn) must
    // still produce byte-identical output to the uninterrupted
    // historical run — restarts recover from the last valid
    // checkpoint and replay the gap, so nothing is dropped or
    // duplicated. Kills use `times: 1` so the schedule never exhausts
    // the restart budget (degradation has its own test below).
    let world = build_world(83);
    let stop = stop_after_last_record(&world, 300);
    let baseline = run_historical_until(&world, stop);
    assert!(baseline.records > 0);
    let n = baseline.records;
    let kill = |worker: usize, at_record: u64| corsaro::KillSpec {
        worker,
        at_record,
        times: 1,
    };
    let schedules: Vec<(usize, corsaro::Chaos)> = vec![
        // Single worker killed early: restore-from-scratch + replay.
        (
            1,
            corsaro::Chaos {
                kills: vec![kill(0, n / 5)],
                torn_checkpoints: vec![],
            },
        ),
        // Two workers, kills on both plus a torn checkpoint write:
        // worker 0's first checkpoint is discarded, widening its
        // replay window.
        (
            2,
            corsaro::Chaos {
                kills: vec![kill(0, n / 3), kill(1, 2 * n / 3)],
                torn_checkpoints: vec![(0, 1)],
            },
        ),
        // Restart storm: the same worker dies repeatedly at different
        // records while its neighbours keep running.
        (
            4,
            corsaro::Chaos {
                kills: vec![
                    kill(2, n / 6),
                    kill(2, n / 3),
                    kill(2, n / 2),
                    kill(1, n / 4),
                ],
                torn_checkpoints: vec![(2, 2)],
            },
        ),
    ];
    for (workers, crash) in schedules {
        let expected_restarts = crash.kills.len() as u64;
        let plan = collector_sim::FaultPlan::none();
        let (live, report) = run_live_once(&world, workers, &plan, &crash, 11, stop);
        assert_eq!(
            report.restarts, expected_restarts,
            "every scheduled kill restarts exactly once at workers={workers}"
        );
        assert!(
            report.partial_bins.is_empty(),
            "no degradation under a times=1 schedule at workers={workers}"
        );
        assert_eq!(
            baseline, live,
            "supervised output diverged at workers={workers} crash={crash:?}"
        );
    }
    std::fs::remove_dir_all(&world.dir).ok();
}

#[test]
fn isolated_kills_past_the_restart_budget_each_recover() {
    // The budget counts restarts in a row that do not get past the
    // failure. A worker killed once in each of several well-separated
    // bins checkpoints past every kill before the next one, so it
    // restarts every time, however many kills there are in all.
    let world = build_world(83);
    let stop = stop_after_last_record(&world, 300);
    let baseline = run_historical_until(&world, stop);
    let n = baseline.records;
    let budget = 2u32;
    let kills = u64::from(budget) + 1;
    let crash = corsaro::Chaos {
        kills: (1..=kills)
            .map(|k| corsaro::KillSpec {
                worker: 1,
                at_record: k * n / (kills + 1),
                times: 1,
            })
            .collect(),
        torn_checkpoints: vec![],
    };
    let mut cfg = test_supervisor_config();
    cfg.max_restarts = budget;
    let plan = collector_sim::FaultPlan::none();
    let (live, report) = run_live_with(&world, 2, &plan, &crash, cfg, 11, stop);
    assert_eq!(report.restarts, kills, "every kill restarts the worker");
    assert!(report.partial_bins.is_empty(), "no worker degrades");
    assert_eq!(baseline, live);
    std::fs::remove_dir_all(&world.dir).ok();
}

#[test]
fn exhausted_restart_budget_degrades_to_partial_bins_without_wedging() {
    // A worker that keeps dying at the same record burns through the
    // restart budget; the supervisor must then mark it dead and keep
    // closing bins as `Partial` (synthesized empty slots) instead of
    // wedging the session.
    let world = build_world(83);
    let stop = stop_after_last_record(&world, 300);
    let baseline = run_historical_until(&world, stop);
    let budget = 2u32;
    let crash = corsaro::Chaos {
        // times > max_restarts + 1: the kill re-fires on every replay
        // until the budget is gone.
        kills: vec![corsaro::KillSpec {
            worker: 1,
            at_record: baseline.records / 4,
            times: budget + 2,
        }],
        torn_checkpoints: vec![],
    };
    let live_index = Index::shared();
    let mut feeder = collector_sim::LiveFeeder::new(
        &world.manifest,
        live_index.clone(),
        &collector_sim::FaultPlan::none(),
        3,
    );
    let clock = bgpstream::Clock::manual(0);
    let horizon = feeder.horizon();
    let driver = {
        let clock = clock.clone();
        std::thread::spawn(move || {
            let mut t = 0u64;
            while !feeder.done() {
                t += 600;
                feeder.publish_until(t);
                clock.advance_to(t);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            clock.advance_to(horizon.saturating_add(1));
        })
    };
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(live_index))
        .live(0)
        .watermark_release()
        .clock(clock)
        .poll_interval(std::time::Duration::from_millis(1))
        .start();
    let mut stats = ElemCounter::new();
    let mut jitter = Jitter::new();
    let mut plugins: Vec<&mut dyn ShardedPlugin> = vec![&mut stats, &mut jitter];
    let mut cfg = test_supervisor_config();
    cfg.max_restarts = budget;
    let report =
        corsaro::Supervisor::new(ShardedRuntime::builder().workers(2).bin_size(300).build())
            .with_config(cfg)
            .with_chaos(crash)
            .run_live(&mut stream, stop, None, &mut plugins)
            .expect("degraded session still completes");
    driver.join().unwrap();
    assert_eq!(report.restarts as u32, budget, "budget fully spent");
    assert!(
        !report.partial_bins.is_empty(),
        "bins after degradation are marked partial"
    );
    // The session kept closing every bin (no wedge), and the stats
    // plugin — pinned to the surviving worker — lost nothing: its
    // series is still identical to a sequential run.
    let (seq_series, seq_jitter_len) = {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(world.index.clone()))
            .interval(0, Some(world.horizon))
            .start();
        let mut stats = ElemCounter::new();
        let mut jitter = Jitter::new();
        corsaro::run_pipeline_until(
            &mut stream,
            300,
            stop,
            &mut [&mut stats as &mut dyn Plugin, &mut jitter],
        );
        (stats.series, jitter.series.len())
    };
    assert_eq!(report.bins_closed as usize, seq_series.len(), "no wedge");
    assert_eq!(stats.series, seq_series, "surviving worker lost nothing");
    assert_eq!(
        jitter.series.len(),
        seq_jitter_len,
        "degraded plugin still closes every bin, with partial data"
    );
    std::fs::remove_dir_all(&world.dir).ok();
}

/// A plugin that parks one worker's thread on one record, once: the
/// worker stops draining its queue without dying, so only the
/// supervisor's stall rule can recover it. `fired` is shared by every
/// fork, so the restored replacement sails past the same record.
struct Wedge {
    worker: usize,
    /// Arrival index of the record the wedge parks on.
    at_record: u64,
    shard: Option<usize>,
    seen: u64,
    fired: Arc<AtomicBool>,
    release: Arc<AtomicBool>,
}

/// Lets a parked [`Wedge`] go when dropped, so a test never leaves a
/// thread parked behind it, not even a failing one.
struct Release(Arc<AtomicBool>);

impl Drop for Release {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Plugin for Wedge {
    fn name(&self) -> &'static str {
        "wedge"
    }

    fn process_record(&mut self, _record: &bgpstream::BgpStreamRecord) {
        let here = self.seen;
        self.seen += 1;
        if self.shard == Some(self.worker)
            && here == self.at_record
            && !self.fired.swap(true, Ordering::SeqCst)
        {
            while !self.release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    fn end_bin(&mut self, _s: u64, _e: u64) {}

    fn partitioning(&self) -> Partitioning {
        Partitioning::ByPrefix
    }
}

impl ShardedPlugin for Wedge {
    fn fork(&self, shard: usize, _shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(Wedge {
            worker: self.worker,
            at_record: self.at_record,
            shard: Some(shard),
            seen: 0,
            fired: self.fired.clone(),
            release: self.release.clone(),
        })
    }

    fn take_partial(&mut self) -> Vec<u8> {
        Vec::new()
    }

    fn merge_bin(&mut self, _s: u64, _e: u64, _partials: Vec<Vec<u8>>) {}
}

#[test]
fn supervisor_restarts_a_wedged_worker_on_the_send_and_drain_paths() {
    // A worker that hangs (rather than panics) is found by the stall
    // rule alone: mid-stream, behind a one-batch queue, the
    // coordinator meets it while the queue is full; in the last bin
    // it meets it while draining the final partials. Either way the
    // worker restarts from its checkpoint and nothing is lost.
    let world = build_world(29);
    let sequential = run_once(&world, None);
    let n = sequential.records;
    assert!(n > 100);
    for (what, at_record, queue_batches) in [("send", n / 2, 1), ("drain", n - 1, 64)] {
        let release = Release(Arc::new(AtomicBool::new(false)));
        let fired = Arc::new(AtomicBool::new(false));
        let mut wedge = Wedge {
            worker: 1,
            at_record,
            shard: None,
            seen: 0,
            fired: fired.clone(),
            release: release.0.clone(),
        };
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(world.index.clone()))
            .interval(0, Some(world.horizon))
            .start();
        let mut plugins = Plugins::new(&world);
        let mut sharded = plugins.sharded();
        sharded.push(&mut wedge);
        let runtime = ShardedRuntime::builder()
            .workers(2)
            .bin_size(300)
            .batch_records(16)
            .queue_batches(queue_batches)
            .build();
        let cfg = corsaro::SupervisorConfig {
            stall_timeout_ms: 300,
            clock: bsync::time::Clock::system(),
            ..test_supervisor_config()
        };
        let report = corsaro::Supervisor::new(runtime)
            .with_config(cfg)
            .run_live(&mut stream, u64::MAX, None, &mut sharded)
            .expect("a wedged worker is restarted, not fatal");
        drop(sharded);
        assert!(fired.load(Ordering::SeqCst), "{what}: the wedge fired");
        assert!(report.restarts >= 1, "{what}: the stall was recovered");
        assert!(report.partial_bins.is_empty(), "{what}: nothing degraded");
        assert_eq!(
            sequential,
            plugins.output(report.records),
            "{what}: output diverged after a stall restart"
        );
    }
    std::fs::remove_dir_all(&world.dir).ok();
}

#[test]
fn supervised_shutdown_returns_with_a_worker_wedged_in_the_open_bin() {
    // A live stream that delivers its first broker window and then
    // idles, binned by the day so no bin closes: the shutdown flag
    // rises while worker 1 is parked inside the open bin, owing acks
    // for everything queued behind the wedge. Shutdown does not close
    // that bin, so the worker is detached once it counts as stalled,
    // and `run_live` returns.
    let world = build_world(31);
    let release = Release(Arc::new(AtomicBool::new(false)));
    let fired = Arc::new(AtomicBool::new(false));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = mpsc::channel();
    let index = world.index.clone();
    let mut wedge = Wedge {
        worker: 1,
        at_record: 10,
        shard: None,
        seen: 0,
        fired: fired.clone(),
        release: release.0.clone(),
    };
    let flag = shutdown.clone();
    std::thread::spawn(move || {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(index))
            .live(0)
            .clock(bgpstream::Clock::manual(
                broker::index::DEFAULT_WINDOW + 600,
            ))
            .live_grace(500)
            .poll_interval(Duration::from_millis(1))
            .start();
        let runtime = ShardedRuntime::builder()
            .workers(2)
            .bin_size(86_400)
            .batch_records(16)
            .queue_batches(1 << 12)
            .build();
        let cfg = corsaro::SupervisorConfig {
            stall_timeout_ms: 500,
            clock: bsync::time::Clock::system(),
            ..test_supervisor_config()
        };
        let report = corsaro::Supervisor::new(runtime).with_config(cfg).run_live(
            &mut stream,
            u64::MAX,
            Some(&flag),
            &mut [&mut wedge],
        );
        let _ = done_tx.send(report);
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !fired.load(Ordering::SeqCst) {
        assert!(
            std::time::Instant::now() < deadline,
            "the wedge never fired"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    shutdown.store(true, Ordering::SeqCst);
    let report = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("run_live must return after shutdown, not wait on a wedged worker")
        .expect("shutdown is not an error");
    assert!(report.shutdown);
    assert_eq!(report.bins_closed, 0, "the open bin stays open");
    assert_eq!(
        report.restarts, 0,
        "a wedged worker is detached, not restarted"
    );
    assert!(report.records > 10);
    drop(release);
    std::fs::remove_dir_all(&world.dir).ok();
}

/// A plugin whose shard 0 fork panics on its first owned elem —
/// simulating a plugin bug (not chaos injection), to pin the typed
/// error path and the pool-rebuild regression.
struct PanicOnShard0 {
    shard: Option<(usize, usize)>,
    seen: u64,
}

impl Plugin for PanicOnShard0 {
    fn name(&self) -> &'static str {
        "panic-on-shard0"
    }

    fn process_record(&mut self, record: &bgpstream::BgpStreamRecord) {
        for elem in record.elems() {
            let Some(prefix) = elem.prefix else { continue };
            if let Some((shard, shards)) = self.shard {
                if shard_of_prefix(&prefix, shards) != shard {
                    continue;
                }
                if shard == 0 {
                    panic!("plugin bug on shard 0");
                }
            }
            self.seen += 1;
        }
    }

    fn end_bin(&mut self, _s: u64, _e: u64) {}

    fn partitioning(&self) -> Partitioning {
        Partitioning::ByPrefix
    }
}

impl ShardedPlugin for PanicOnShard0 {
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(PanicOnShard0 {
            shard: Some((shard, shards)),
            seen: 0,
        })
    }

    fn take_partial(&mut self) -> Vec<u8> {
        Vec::new()
    }

    fn merge_bin(&mut self, _s: u64, _e: u64, _partials: Vec<Vec<u8>>) {}
}

#[test]
fn unsupervised_worker_panic_is_a_typed_error_and_does_not_poison_reruns() {
    // Regression: a worker panic mid-bin used to take the whole
    // process down (panic on join) and could leave the thread pool
    // poisoned for subsequent runs. `run_live` must instead return
    // `RuntimeError::WorkerPanicked`, tear the pool down cleanly, and
    // a fresh run right after must behave exactly as if the failed
    // run never happened.
    let world = build_world(29);
    let run = |poisonous: bool| {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(world.index.clone()))
            .interval(0, Some(world.horizon))
            .start();
        let mut stats = ElemCounter::new();
        let mut bad = PanicOnShard0 {
            shard: None,
            seen: 0,
        };
        let mut plugins: Vec<&mut dyn ShardedPlugin> = vec![&mut stats];
        if poisonous {
            plugins.push(&mut bad);
        }
        let res = ShardedRuntime::builder()
            .workers(2)
            .bin_size(300)
            .build()
            .run_live(&mut stream, u64::MAX, None, &mut plugins);
        (res, stats.series)
    };
    let (res, _) = run(true);
    match res {
        Err(corsaro::RuntimeError::WorkerPanicked { worker: 0 }) => {}
        other => panic!("expected WorkerPanicked on worker 0, got {other:?}"),
    }
    // Same process, fresh runtime: the failed run must not have
    // leaked poisoned threads or channels.
    let (res, series) = run(false);
    let report = res.expect("clean rerun succeeds");
    assert!(report.records > 0);
    assert!(!series.is_empty());
    std::fs::remove_dir_all(&world.dir).ok();
}

#[test]
fn run_live_shutdown_flag_exits_cleanly() {
    // Cooperative shutdown: raising the flag mid-session must return
    // (no hang), with every already-closed bin merged.
    let world = build_world(29);
    // Small broker windows, so the half-published archive still
    // releases data before the stream starves.
    let live_index = Arc::new(Index::with_window(900));
    let mut feeder = collector_sim::LiveFeeder::new(
        &world.manifest,
        live_index.clone(),
        &collector_sim::FaultPlan::none(),
        1,
    );
    let clock = bgpstream::Clock::manual(0);
    // Publish only half the archive, then leave the stream starving:
    // without the shutdown flag, run_live would wait forever.
    feeder.publish_until(world.horizon / 2);
    clock.advance_to(world.horizon / 2);
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(live_index))
        .live(0)
        .watermark_release()
        .clock(clock)
        .poll_interval(std::time::Duration::from_millis(1))
        .start();
    let stop_flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let raiser = {
        let flag = stop_flag.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(150));
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        })
    };
    let mut stats = ElemCounter::new();
    let report = ShardedRuntime::builder()
        .workers(2)
        .bin_size(300)
        .build()
        .run_live(
            &mut stream,
            u64::MAX,
            Some(&stop_flag),
            &mut [&mut stats as &mut dyn ShardedPlugin],
        )
        .expect("run_live");
    raiser.join().unwrap();
    assert!(report.shutdown, "must report the cooperative exit");
    assert!(report.records > 0, "half the archive was published");
    std::fs::remove_dir_all(&world.dir).ok();
}

#[test]
fn sharded_outputs_are_byte_identical_to_sequential() {
    for seed in [11u64, 29] {
        let world = build_world(seed);
        let sequential = run_once(&world, None);
        assert!(sequential.records > 0, "world must produce records");
        assert!(
            !sequential.mq_payloads.concat().is_empty(),
            "rt plugins must publish"
        );
        assert!(
            sequential.gated_pfx.iter().any(|p| p.prefixes > 0),
            "the gated monitor must see prefixes"
        );
        assert_ne!(
            format!("{:?}", sequential.gated_pfx).into_bytes(),
            sequential.pfx_bytes,
            "the announcement gate must change the series"
        );
        // Worker counts {1, 2, 4} across queue/batch shapes from
        // maximally contended (1, 1) to coarse (512, 8).
        for (workers, batch, queue) in [
            (1, 1, 1),
            (1, 256, 4),
            (2, 1, 1),
            (2, 32, 2),
            (4, 1, 1),
            (4, 7, 1),
            (4, 256, 4),
            (4, 512, 8),
        ] {
            let sharded = run_once(&world, Some((workers, batch, queue)));
            assert_eq!(
                sequential, sharded,
                "outputs diverged at workers={workers} batch={batch} queue={queue} seed={seed}"
            );
        }
        std::fs::remove_dir_all(&world.dir).ok();
    }
}

#[test]
fn sharded_runtime_closes_empty_bins_like_the_sequential_runner() {
    // Bin bookkeeping parity on a sparse stream: gaps between records
    // must close one bin per elapsed interval in both runners.
    let world = build_world(47);
    let run = |workers: Option<(usize, usize, usize)>| {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(world.index.clone()))
            .interval(0, Some(world.horizon))
            .start();
        let mut stats = ElemCounter::new();
        match workers {
            None => run_pipeline(&mut stream, 17, &mut [&mut stats]),
            Some((n, b, q)) => ShardedRuntime::builder()
                .workers(n)
                .bin_size(17)
                .batch_records(b)
                .queue_batches(q)
                .build()
                .run(&mut stream, &mut [&mut stats]),
        };
        stats.series
    };
    let seq = run(None);
    assert!(seq.len() > 10);
    for w in [1, 3] {
        assert_eq!(seq, run(Some((w, 64, 2))), "workers={w}");
    }
    std::fs::remove_dir_all(&world.dir).ok();
}

#[test]
fn run_until_consumes_exactly_what_the_sequential_runner_would() {
    // Stop-condition parity: `run_until` reads ahead in batches, so
    // it must hand the unconsumed tail back to the stream — a later
    // reader of the same stream sees exactly the records the
    // sequential `run_pipeline_until` would have left behind.
    let world = build_world(61);
    let stop = world.horizon / 2;
    let run = |workers: Option<usize>| {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(world.index.clone()))
            .interval(0, Some(world.horizon))
            .start();
        let mut stats = ElemCounter::new();
        let n = match workers {
            None => corsaro::run_pipeline_until(&mut stream, 300, stop, &mut [&mut stats]),
            Some(w) => ShardedRuntime::builder()
                .workers(w)
                .bin_size(300)
                .batch_records(7) // force mid-batch stops
                .build()
                .run_until(
                    &mut stream,
                    stop,
                    &mut [&mut stats as &mut dyn ShardedPlugin],
                ),
        };
        let tail: Vec<u64> =
            std::iter::from_fn(|| stream.next_record().map(|r| r.timestamp)).collect();
        (n, stats.series, tail)
    };
    let (n_seq, series_seq, tail_seq) = run(None);
    assert!(
        n_seq > 0 && !tail_seq.is_empty(),
        "stop must split the stream"
    );
    for w in [1, 2, 4] {
        let (n, series, tail) = run(Some(w));
        assert_eq!(n, n_seq, "records processed, workers={w}");
        assert_eq!(series, series_seq, "series, workers={w}");
        assert_eq!(tail, tail_seq, "stream tail, workers={w}");
    }
    std::fs::remove_dir_all(&world.dir).ok();
}
