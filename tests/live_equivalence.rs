//! Property: for **any** publication fault schedule — delay jitter,
//! collector stalls, out-of-order and duplicate publication — the
//! live pipeline's output restricted to closed bins is byte-identical
//! to a historical run over the final archive, at any worker count.
//!
//! This is the PR 5 live-mode soundness argument, executed: the
//! `LiveFeeder` replays a finished archive under a generated fault
//! plan while maintaining a truthful publication watermark; the
//! watermark-released live stream delivers exactly the historical
//! window batches (late and duplicate publications dedup or hold
//! release back, never drop); and `run_live` closes bins off that
//! watermark, so the merged plugin outputs cannot observe the faults
//! at all.
//!
//! `tests/broker_service.rs` extends the same invariant across the
//! wire: the nastiest fixed schedule below is also replayed through a
//! served broker (`RemoteBroker` → `BrokerService`) and must still
//! reproduce the historical baseline byte for byte.

use std::sync::Arc;

use bgpstream_repro::bgpstream::{BgpStream, Clock};
use bgpstream_repro::broker::{Index, LocalBroker};
use bgpstream_repro::collector_sim::{FaultPlan, LiveFeeder, Stall};
use bgpstream_repro::corsaro::runtime::{ShardedPlugin, ShardedRuntime};
use bgpstream_repro::corsaro::{
    run_pipeline_until, Chaos, ElemCounter, KillSpec, PfxMonitor, Plugin, Supervisor,
    SupervisorConfig,
};
use bgpstream_repro::worlds;
use proptest::prelude::*;

/// The archive under test, simulated once and shared by every case.
struct Fixture {
    manifest: Vec<bgpstream_repro::broker::DumpMeta>,
    ranges: Vec<bgpstream_repro::bgp_types::Prefix>,
    horizon: u64,
    /// Bin boundary just past the last record (both runs stop here).
    stop: u64,
    /// Historical baseline output.
    baseline: Output,
}

#[derive(Clone, PartialEq, Debug)]
struct Output {
    records: u64,
    pfx_bytes: Vec<u8>,
    stats_bytes: Vec<u8>,
}

const BIN: u64 = 300;

fn fixture() -> &'static Fixture {
    static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = worlds::scratch_dir("live-equiv");
        let mut world = worlds::quickstart(dir.clone(), 23);
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
        let mk_stream = |index: &Arc<Index>, horizon| {
            BgpStream::builder()
                .broker_client(LocalBroker::shared(index.clone()))
                .interval(0, Some(horizon))
                .start()
        };
        let mut probe = mk_stream(&world.index, world.info.horizon);
        let mut max_ts = 0u64;
        while let Some(r) = probe.next_record() {
            max_ts = max_ts.max(r.timestamp);
        }
        let stop = (max_ts / BIN) * BIN + BIN;
        let mut pfx = PfxMonitor::new(ranges.iter().copied());
        let mut stats = ElemCounter::new();
        let mut stream = mk_stream(&world.index, world.info.horizon);
        let records = run_pipeline_until(
            &mut stream,
            BIN,
            stop,
            &mut [&mut pfx as &mut dyn Plugin, &mut stats],
        );
        assert!(records > 0, "fixture archive must hold records");
        let baseline = Output {
            records,
            pfx_bytes: format!("{:?}", pfx.series).into_bytes(),
            stats_bytes: format!("{:?}", stats.series).into_bytes(),
        };
        Fixture {
            manifest,
            ranges,
            horizon: world.info.horizon,
            stop,
            baseline,
        }
        // `dir` intentionally not removed: dump files must outlive the
        // fixture for every proptest case (temp dir, cleaned by the OS).
    })
}

fn run_live_under(plan: &FaultPlan, chaos: &Chaos, seed: u64, workers: usize) -> Output {
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
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            clock.advance_to(horizon.saturating_add(1));
        })
    };
    let mut pfx = PfxMonitor::new(fx.ranges.iter().copied());
    let mut stats = ElemCounter::new();
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(live_index))
        .live(0)
        .watermark_release()
        .clock(clock)
        .poll_interval(std::time::Duration::from_millis(1))
        .start();
    let runtime = ShardedRuntime::builder()
        .workers(workers)
        .bin_size(BIN)
        .build();
    let mut plugins: Vec<&mut dyn ShardedPlugin> = vec![&mut pfx, &mut stats];
    let report = if chaos.is_empty() {
        runtime
            .run_live(&mut stream, fx.stop, None, &mut plugins)
            .expect("run_live")
    } else {
        // Crash schedules run under supervision: a manual supervisor
        // clock makes backoff instant, and the stall timeout is parked
        // out of reach so the only restarts are the scheduled kills.
        let cfg = SupervisorConfig {
            max_restarts: 16,
            backoff_base_ms: 1,
            backoff_max_ms: 4,
            stall_timeout_ms: u64::MAX / 4,
            clock: bgpstream_repro::bsync::time::Clock::manual(0),
            seed: seed ^ 0x5eed,
        };
        let report = Supervisor::new(runtime)
            .with_config(cfg)
            .with_chaos(chaos.clone())
            .run_live(&mut stream, fx.stop, None, &mut plugins)
            .expect("supervised run_live");
        assert_eq!(
            report.restarts,
            chaos.kills.len() as u64,
            "every scheduled kill fires exactly once"
        );
        assert!(
            report.partial_bins.is_empty(),
            "times=1 kills never degrade"
        );
        report
    };
    driver.join().expect("feeder driver");
    assert!(!report.shutdown);
    Output {
        records: report.records,
        pfx_bytes: format!("{:?}", pfx.series).into_bytes(),
        stats_bytes: format!("{:?}", stats.series).into_bytes(),
    }
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let stall = (
        0u64..7200,
        0u64..2000,
        prop_oneof![Just(None), (0usize..2).prop_map(Some)],
    )
        .prop_map(|(start, duration, collector)| Stall {
            start,
            duration,
            collector,
        });
    (
        (0u64..600).prop_map(|hi| (0, hi)),
        proptest::collection::vec(stall, 0..3),
        0.0f64..0.6,
        0.0f64..0.6,
    )
        .prop_map(
            |(extra_delay, stalls, swap_prob, duplicate_prob)| FaultPlan {
                extra_delay,
                stalls,
                swap_prob,
                duplicate_prob,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fault schedule × random worker count × random seed:
    /// closed-bin output must equal the historical baseline, byte for
    /// byte.
    #[test]
    fn live_closed_bins_equal_historical_for_any_fault_schedule(
        plan in arb_plan(),
        seed in 0u64..1_000,
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let fx = fixture();
        let live = run_live_under(&plan, &Chaos::default(), seed, workers);
        prop_assert_eq!(
            &live, &fx.baseline,
            "diverged under plan {:?} seed {} workers {}", plan, seed, workers
        );
    }

    /// Random *crash* schedule on top of a random publication fault
    /// schedule: worker kills (single-fire) and torn checkpoint
    /// writes, recovered by the supervisor via checkpoint-restore-
    /// replay, must leave the closed-bin output byte-identical to the
    /// historical baseline — nothing dropped, nothing duplicated.
    #[test]
    fn live_closed_bins_survive_random_crash_schedules(
        plan in arb_plan(),
        kill_fracs in proptest::collection::vec((0usize..4, 1u64..100), 1..4),
        torn in proptest::collection::vec((0usize..4, 1u64..4), 0..3),
        seed in 0u64..1_000,
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let fx = fixture();
        // Kill points are generated as fractions of the record count
        // so schedules stay meaningful whatever the fixture's size.
        let chaos = Chaos {
            kills: kill_fracs
                .iter()
                .map(|&(w, frac)| KillSpec {
                    worker: w % workers,
                    at_record: fx.baseline.records * frac / 100,
                    times: 1,
                })
                .collect(),
            torn_checkpoints: torn.iter().map(|&(w, n)| (w % workers, n)).collect(),
        };
        let live = run_live_under(&plan, &chaos, seed, workers);
        prop_assert_eq!(
            &live, &fx.baseline,
            "diverged under plan {:?} chaos {:?} seed {} workers {}", plan, chaos, seed, workers
        );
    }
}

#[test]
fn live_equals_historical_under_the_nastiest_fixed_schedule() {
    // A deterministic worst case kept out of the generator so it always
    // runs: long delays, an all-collector stall, heavy reordering and
    // duplication — plus the full worker matrix.
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
    for workers in [1usize, 2, 4] {
        let live = run_live_under(&plan, &Chaos::default(), 4242, workers);
        assert_eq!(live, fx.baseline, "workers={workers}");
    }
}

#[test]
fn live_equals_historical_under_publication_faults_plus_crash_storm() {
    // The nastiest publication schedule *and* a crash storm on top:
    // every worker dies at least once (worker 0 twice), two checkpoint
    // writes are torn. The supervisor must absorb all of it without
    // the closed-bin output drifting a byte.
    let fx = fixture();
    let n = fx.baseline.records;
    let plan = FaultPlan {
        extra_delay: (0, 900),
        stalls: vec![Stall {
            start: fx.horizon / 4,
            duration: 1800,
            collector: None,
        }],
        swap_prob: 0.5,
        duplicate_prob: 0.5,
    };
    let chaos = Chaos {
        kills: vec![
            KillSpec {
                worker: 0,
                at_record: n / 7,
                times: 1,
            },
            KillSpec {
                worker: 1,
                at_record: n / 3,
                times: 1,
            },
            KillSpec {
                worker: 0,
                at_record: n / 2,
                times: 1,
            },
            KillSpec {
                worker: 1,
                at_record: 5 * n / 6,
                times: 1,
            },
        ],
        torn_checkpoints: vec![(0, 1), (1, 2)],
    };
    for workers in [2usize, 4] {
        let live = run_live_under(&plan, &chaos, 77, workers);
        assert_eq!(live, fx.baseline, "workers={workers}");
    }
}
