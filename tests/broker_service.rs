//! The served-broker contract: a pipeline is **byte-identical**
//! whether its stream talks to the broker in-process
//! ([`LocalBroker`]) or across the message queue
//! ([`RemoteBroker`] → [`BrokerService`]) — in historical mode and in
//! live mode under publication faults — and the service's multi-tenant
//! behaviours (lease expiry, resume-by-lease exactly-once, admission
//! control) surface as typed errors on the stream.

use std::sync::Arc;
use std::time::Duration;

use bgpstream_repro::bgpstream::{BgpStream, Clock};
use bgpstream_repro::broker::{
    BrokerClient, BrokerError, BrokerService, DumpMeta, DumpType, Index, LocalBroker, RemoteBroker,
    RemoteConfig, ServiceConfig,
};
use bgpstream_repro::collector_sim::{FaultPlan, LiveFeeder, Stall};
use bgpstream_repro::corsaro::runtime::{ShardedPlugin, ShardedRuntime};
use bgpstream_repro::corsaro::{run_pipeline_until, ElemCounter, PfxMonitor, Plugin};
use bgpstream_repro::mq::Cluster;
use bgpstream_repro::worlds;

const BIN: u64 = 300;

/// The archive under test, simulated once and shared by every case.
struct Fixture {
    /// Final archive index (all dumps registered, fully published).
    index: Arc<Index>,
    manifest: Vec<DumpMeta>,
    ranges: Vec<bgpstream_repro::bgp_types::Prefix>,
    horizon: u64,
    /// Bin boundary just past the last record (all runs stop here).
    stop: u64,
    /// Historical output through the local broker — the baseline
    /// every other client/mode must reproduce byte for byte.
    baseline: Output,
}

#[derive(Clone, PartialEq, Debug)]
struct Output {
    records: u64,
    pfx_bytes: Vec<u8>,
    stats_bytes: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Statics are never dropped, so the world lives in cargo's
        // per-target scratch area under a fixed name, cleared here
        // for each run instead of left behind in the system temp dir.
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("broker-svc");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let mut world = worlds::quickstart(dir, 31);
        world.sim.run_until(world.info.horizon);
        let manifest = world.sim.manifest().to_vec();
        let ranges: Vec<_> = world
            .sim
            .control_plane()
            .topology()
            .nodes
            .iter()
            .flat_map(|n| n.prefixes_v4.iter().map(|p| p.prefix))
            .collect();
        let mut probe = BgpStream::builder()
            .broker_client(LocalBroker::shared(world.index.clone()))
            .interval(0, Some(world.info.horizon))
            .start();
        let mut max_ts = 0u64;
        while let Some(r) = probe.next_record() {
            max_ts = max_ts.max(r.timestamp);
        }
        let stop = (max_ts / BIN) * BIN + BIN;
        let baseline = run_historical(
            LocalBroker::shared(world.index.clone()),
            &ranges,
            world.info.horizon,
            stop,
        );
        assert!(baseline.records > 0, "fixture archive must hold records");
        Fixture {
            index: world.index.clone(),
            manifest,
            ranges,
            horizon: world.info.horizon,
            stop,
            baseline,
        }
        // Scratch dir intentionally kept: dump files must outlive the
        // fixture for every test (temp dir, cleaned by the OS).
    })
}

/// Run the full historical plugin pipeline through `client`.
fn run_historical(
    client: Arc<dyn BrokerClient>,
    ranges: &[bgpstream_repro::bgp_types::Prefix],
    horizon: u64,
    stop: u64,
) -> Output {
    let mut pfx = PfxMonitor::new(ranges.iter().copied());
    let mut stats = ElemCounter::new();
    let mut stream = BgpStream::builder()
        .broker_client(client)
        .interval(0, Some(horizon))
        .start();
    let records = run_pipeline_until(
        &mut stream,
        BIN,
        stop,
        &mut [&mut pfx as &mut dyn Plugin, &mut stats],
    );
    assert!(
        stream.last_error().is_none(),
        "historical run hit {:?}",
        stream.last_error()
    );
    Output {
        records,
        pfx_bytes: format!("{:?}", pfx.series).into_bytes(),
        stats_bytes: format!("{:?}", stats.series).into_bytes(),
    }
}

/// Replay the archive under `plan` live faults and run the sharded
/// live pipeline through `mk_client` (handed the live index so it can
/// build either a local or a served client over it).
fn run_live_through(
    plan: &FaultPlan,
    seed: u64,
    workers: usize,
    mk_client: impl FnOnce(Arc<Index>) -> Arc<dyn BrokerClient>,
) -> Output {
    let fx = fixture();
    let live_index = Arc::new(Index::with_window(900));
    let mut feeder = LiveFeeder::new(&fx.manifest, live_index.clone(), plan, seed);
    let clock = Clock::manual(0);
    let horizon = feeder.horizon();
    let driver = {
        let clock = clock.clone();
        std::thread::spawn(move || {
            let mut t = 0u64;
            while !feeder.done() {
                t += 500;
                feeder.publish_until(t);
                clock.advance_to(t);
                std::thread::sleep(Duration::from_micros(300));
            }
            clock.advance_to(horizon.saturating_add(1));
        })
    };
    let mut pfx = PfxMonitor::new(fx.ranges.iter().copied());
    let mut stats = ElemCounter::new();
    let mut stream = BgpStream::builder()
        .broker_client(mk_client(live_index))
        .live(0)
        .watermark_release()
        .clock(clock)
        .poll_interval(Duration::from_millis(1))
        .start();
    let report = ShardedRuntime::builder()
        .workers(workers)
        .bin_size(BIN)
        .build()
        .run_live(
            &mut stream,
            fx.stop,
            None,
            &mut [&mut pfx as &mut dyn ShardedPlugin, &mut stats],
        )
        .expect("run_live");
    driver.join().expect("feeder driver");
    assert!(!report.shutdown);
    assert!(
        stream.last_error().is_none(),
        "live run hit {:?}",
        stream.last_error()
    );
    Output {
        records: report.records,
        pfx_bytes: format!("{:?}", pfx.series).into_bytes(),
        stats_bytes: format!("{:?}", stats.series).into_bytes(),
    }
}

#[test]
fn historical_pipeline_identical_through_local_and_remote() {
    let fx = fixture();
    let cluster = Cluster::shared();
    let handle =
        BrokerService::new(cluster.clone(), fx.index.clone(), ServiceConfig::default()).spawn();

    // Two remote tenants page the same interval back to back: both
    // must equal the local baseline.
    for client_id in ["hist-a", "hist-b"] {
        let remote: Arc<dyn BrokerClient> = Arc::new(RemoteBroker::new(cluster.clone(), client_id));
        let out = run_historical(remote, &fx.ranges, fx.horizon, fx.stop);
        assert_eq!(out, fx.baseline, "remote {client_id} diverged from local");
    }

    let stats = handle.shutdown();
    assert!(stats.requests > 0);
    assert_eq!(stats.busy, 0, "no admission sheds expected at this load");
}

#[test]
fn live_pipeline_identical_through_local_and_remote_under_faults() {
    // The PR 5 live-equivalence invariant, extended across the wire:
    // the nastiest fixed fault schedule, run through a served broker,
    // must still produce the historical baseline byte for byte.
    let fx = fixture();
    let plan = FaultPlan {
        extra_delay: (0, 900),
        stalls: vec![
            Stall {
                start: fx.horizon / 4,
                duration: 1800,
                collector: None,
            },
            Stall {
                start: fx.horizon / 2,
                duration: 900,
                collector: Some(1),
            },
        ],
        swap_prob: 0.5,
        duplicate_prob: 0.5,
    };
    let local = run_live_through(&plan, 77, 2, |idx| LocalBroker::shared(idx));
    assert_eq!(local, fx.baseline, "local live diverged from historical");
    let remote = run_live_through(&plan, 77, 2, |idx| {
        let cluster = Cluster::shared();
        // Leak the handle: the service lives for the whole test; its
        // thread parks on the request topic once the run ends.
        let _ = BrokerService::new(cluster.clone(), idx, ServiceConfig::default()).spawn();
        Arc::new(RemoteBroker::new(cluster, "live-remote"))
    });
    assert_eq!(remote, fx.baseline, "remote live diverged from historical");
}

/// Write a tiny updates dump holding keepalives at `stamps`.
fn write_dump(dir: &std::path::Path, name: &str, stamps: &[u32]) -> std::path::PathBuf {
    use bgpstream_repro::mrt::{Bgp4mp, MrtRecord, MrtWriter};
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    let mut w = MrtWriter::new(std::fs::File::create(&path).unwrap());
    for &ts in stamps {
        w.write(&MrtRecord::bgp4mp(
            ts,
            Bgp4mp::Message {
                peer_asn: bgpstream_repro::bgp_types::Asn(65001),
                local_asn: bgpstream_repro::bgp_types::Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: bgpstream_repro::bgp_types::BgpMessage::Keepalive,
            },
        ))
        .unwrap();
    }
    path
}

fn register(idx: &Index, path: std::path::PathBuf, start: u64) {
    idx.register(DumpMeta {
        project: "ris".into(),
        collector: "rrc00".into(),
        dump_type: DumpType::Updates,
        interval_start: start,
        duration: 300,
        path,
        available_at: 0,
        size: 1,
    });
}

#[test]
fn lease_expiry_mid_window_ends_the_stream_with_a_typed_error() {
    let dir = worlds::scratch_dir("svc-expiry");
    let idx = Arc::new(Index::with_window(900));
    register(&idx, write_dump(&dir, "w0.mrt", &[10, 20]), 0);
    idx.advance_watermark(900);
    let cluster = Cluster::shared();
    let handle = BrokerService::new(
        cluster.clone(),
        idx.clone(),
        ServiceConfig {
            lease_ttl: Duration::from_millis(80),
            ..Default::default()
        },
    )
    .spawn();
    let mut stream = BgpStream::builder()
        .broker_client(Arc::new(RemoteBroker::new(cluster, "expiring")))
        .live(0)
        .watermark_release()
        .clock(Clock::manual(0))
        .poll_interval(Duration::from_millis(1))
        .start();
    assert_eq!(stream.next_record().unwrap().timestamp, 10);
    assert_eq!(stream.next_record().unwrap().timestamp, 20);
    // The client goes quiet past the TTL (no polls, no renews): the
    // service reaps the lease even though the session is mid-window.
    std::thread::sleep(Duration::from_millis(200));
    assert!(stream.next_record().is_none(), "expired session must end");
    assert_eq!(stream.last_error(), Some(&BrokerError::LeaseExpired));
    let stats = handle.shutdown();
    assert_eq!(stats.leases_expired, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_by_lease_id_is_exactly_once_across_reconnect() {
    let dir = worlds::scratch_dir("svc-resume");
    let idx = Arc::new(Index::with_window(900));
    register(&idx, write_dump(&dir, "w0.mrt", &[10, 20]), 0);
    register(&idx, write_dump(&dir, "w1.mrt", &[910, 920]), 900);
    idx.advance_watermark(900); // releases window [0, 900) only
    let cluster = Cluster::shared();
    let handle = BrokerService::new(cluster.clone(), idx.clone(), ServiceConfig::default()).spawn();

    let mk = |resume| {
        let mut b = BgpStream::builder()
            .broker_client(Arc::new(RemoteBroker::new(cluster.clone(), "phoenix")))
            .live(0)
            .watermark_release()
            .clock(Clock::manual(0))
            .poll_interval(Duration::from_millis(1));
        if let Some(lease) = resume {
            b = b.resume_live_lease(lease);
        }
        b.start()
    };

    // Incarnation one drains the first window, then "crashes".
    let mut first = mk(None);
    let lease = first.live_lease().expect("live stream holds a lease");
    assert_eq!(first.next_record().unwrap().timestamp, 10);
    assert_eq!(first.next_record().unwrap().timestamp, 20);
    drop(first);

    // The second window becomes releasable while nobody is connected.
    idx.advance_watermark(1800);

    // Incarnation two re-attaches by lease id: the server-side cursor
    // remembers the first window was delivered, so the resumed stream
    // sees ONLY the new window — nothing duplicated, nothing lost.
    let mut second = mk(Some(lease));
    assert_eq!(second.live_lease(), Some(lease));
    assert_eq!(second.next_record().unwrap().timestamp, 910);
    assert_eq!(second.next_record().unwrap().timestamp, 920);
    let stats = handle.shutdown();
    assert_eq!(stats.leases_opened, 1);
    assert_eq!(stats.leases_resumed, 1);
    assert_eq!(stats.leases_expired, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admission_control_surfaces_busy_on_the_stream() {
    // A service admitting nothing: every request is shed with Busy.
    // The remote client retries its configured budget, then the error
    // surfaces as stream termination with a typed cause.
    let cluster = Cluster::shared();
    let handle = BrokerService::new(
        cluster.clone(),
        Arc::new(Index::with_window(900)),
        ServiceConfig {
            max_inflight_global: 0,
            ..Default::default()
        },
    )
    .spawn();
    let remote = Arc::new(RemoteBroker::with_config(
        cluster,
        "shed-me",
        RemoteConfig {
            busy_retries: 2,
            busy_backoff: Duration::from_micros(100),
            ..Default::default()
        },
    ));
    let mut stream = BgpStream::builder()
        .broker_client(remote.clone())
        .interval(0, Some(1000))
        .start();
    assert!(stream.next_record().is_none());
    assert_eq!(stream.last_error(), Some(&BrokerError::Busy));
    // Initial attempt + 2 retries, all shed.
    assert_eq!(remote.busy_sheds_observed(), 3);
    let stats = handle.shutdown();
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.busy, 3);
}
