//! The end-to-end **live** pipeline: a simulated archive re-published
//! in compressed wall-clock time by a faulty `LiveFeeder`, tailed by a
//! watermark-released live stream, consumed by the sharded runtime's
//! `run_live` — which closes time bins off the broker watermark, not
//! stream EOF. This is also the binary CI's `live-soak` job drives.
//!
//! ```sh
//! # ~15 s of wall clock: one virtual hour at 240x (from a terminal;
//! # closing stdin — ctrl-d — requests a clean shutdown). With stdin
//! # redirected from /dev/null (CI), pass --no-stdin or the instant
//! # EOF reads as a shutdown request.
//! cargo run --release --example live_pipeline
//! # instant cooperative-shutdown check (the ctrl-c path):
//! cargo run --release --example live_pipeline -- --shutdown-test < /dev/null
//! ```
//!
//! Exit codes: `0` success; `2` records were dropped; `3` too few
//! bins; `4` the watchdog expired (livelock — the soak's reason to
//! exist); `5` peak RSS exceeded the cap (a reader went back to
//! slurping whole files instead of streaming bounded windows).
//! Shutdown is cooperative: closing stdin (the ctrl-c /
//! SIGTERM-equivalent path in this dependency-free setup) raises a
//! flag that `run_live` honours between steps, so teardown can never
//! hang.
//!
//! The archive is gzip-compressed **in place** after simulation, so
//! every open below — the historical ground-truth reads and the live
//! tail — exercises sniff → streaming inflate → framing, and the
//! zero-dropped-records check compares a historical and a live read of
//! the same gzip archive.

use std::sync::atomic::{AtomicBool, Ordering};
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

struct Args {
    /// Virtual seconds replayed per wall second.
    speed: u64,
    /// Minimum bins the soak must close.
    min_bins: u64,
    /// Shard workers.
    workers: usize,
    /// Watchdog: raise the stop flag (and fail) after this much wall
    /// time — a livelocked pipeline must fail loudly, not stall CI.
    max_wall_secs: u64,
    /// Only prove the cooperative-shutdown path: raise the stop flag
    /// up front and require a prompt, clean exit.
    shutdown_test: bool,
    /// Do not watch stdin for shutdown (CI soak: stdin is /dev/null,
    /// whose immediate EOF would otherwise abort the run — and piping
    /// from `sleep` to keep it open stalls the step for the sleep's
    /// full duration after the soak finishes).
    no_stdin: bool,
    /// Peak-RSS cap in MiB (`VmHWM` from `/proc/self/status`). The
    /// readers stream dumps through bounded windows; a regression to
    /// whole-file (or whole-decompressed-file) slurping shows up here.
    max_rss_mb: u64,
    /// Chaos soak: schedule worker kills (including a restart storm)
    /// and torn checkpoint writes, run under the supervisor, and
    /// require the zero-dropped-records claim to survive the crashes.
    chaos: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        speed: 240,
        min_bins: 10,
        workers: 2,
        max_wall_secs: 120,
        shutdown_test: false,
        no_stdin: false,
        max_rss_mb: 512,
        chaos: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{what} needs a numeric value"))
        };
        match a.as_str() {
            "--speed" => args.speed = num("--speed").max(1),
            "--min-bins" => args.min_bins = num("--min-bins"),
            "--workers" => args.workers = num("--workers").max(1) as usize,
            "--max-wall-secs" => args.max_wall_secs = num("--max-wall-secs").max(1),
            "--shutdown-test" => args.shutdown_test = true,
            "--no-stdin" => args.no_stdin = true,
            "--max-rss-mb" => args.max_rss_mb = num("--max-rss-mb").max(1),
            "--chaos" => args.chaos = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// Peak resident set (`VmHWM`) in KiB, where the platform exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let args = parse_args();
    const BIN: u64 = 300;

    // 1. Simulate the archive (one virtual hour, two collectors).
    let dir = worlds::scratch_dir("live-pipeline");
    let mut world = worlds::quickstart(dir.clone(), 42);
    world.sim.run_until(world.info.horizon);
    let manifest = world.sim.manifest().to_vec();
    println!(
        "# archive: {} files, {} records over {} virtual seconds",
        world.sim.stats().files,
        world.sim.stats().records,
        world.info.horizon
    );

    // 1b. Compress the archive in place, as the real projects publish
    //     it. Every open below — historical and live — must sniff the
    //     gzip magic and stream-decompress into bounded windows.
    let mut gz_bytes = 0u64;
    for m in &manifest {
        use std::io::Write as _;
        let plain = std::fs::read(&m.path).expect("archive file readable");
        let mut enc =
            flate_lite::write::GzEncoder::new(Vec::new(), flate_lite::Compression::fast());
        enc.write_all(&plain).expect("compress archive file");
        let gz = enc.finish().expect("finish gzip member");
        gz_bytes += gz.len() as u64;
        std::fs::write(&m.path, gz).expect("rewrite compressed file");
    }
    println!(
        "# archive gzip-compressed in place: {} -> {} bytes",
        world.sim.stats().bytes,
        gz_bytes
    );

    // 2. Historical ground truth: what a batch run over the final
    //    archive delivers. The soak's "zero dropped records" claim is
    //    live == this, to the record and to the elem.
    let mut hist_stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(world.info.horizon))
        .start();
    let mut max_ts = 0u64;
    let mut probe = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(world.info.horizon))
        .start();
    while let Some(r) = probe.next_record() {
        max_ts = max_ts.max(r.timestamp);
    }
    let stop = (max_ts / BIN) * BIN + BIN;
    let mut hist_stats = ElemCounter::new();
    let expected_records = run_pipeline_until(
        &mut hist_stream,
        BIN,
        stop,
        &mut [&mut hist_stats as &mut dyn Plugin],
    );
    let expected_elems = hist_stats.total_elems();

    // 3. Re-publish the archive live, with a deliberately hostile
    //    schedule: delay jitter, a mid-run stall, out-of-order and
    //    duplicate publications. The feeder maintains a truthful
    //    watermark, so none of this can drop records — only delay
    //    them.
    let live_index = Arc::new(Index::with_window(900));
    let plan = FaultPlan {
        extra_delay: (0, 120),
        stalls: vec![Stall {
            start: world.info.horizon / 3,
            duration: 400,
            collector: Some(0),
        }],
        swap_prob: 0.10,
        duplicate_prob: 0.20,
    };
    let feeder = LiveFeeder::new(&manifest, live_index.clone(), &plan, 7);
    let drain_to = feeder.horizon().saturating_add(1);
    let clock = Clock::manual(0);
    let stop_flag = Arc::new(AtomicBool::new(false));
    let timed_out = Arc::new(AtomicBool::new(false));

    // Cooperative shutdown: stdin EOF (the pipe closing is this
    // harness's ctrl-c) raises the same flag run_live polls.
    if !args.no_stdin {
        let flag = stop_flag.clone();
        std::thread::spawn(move || {
            use std::io::Read as _;
            let mut sink = Vec::new();
            let _ = std::io::stdin().read_to_end(&mut sink);
            flag.store(true, Ordering::SeqCst);
        });
    }
    // Watchdog: a livelock anywhere in the pipeline must fail the
    // process, not stall it.
    {
        let flag = stop_flag.clone();
        let timed_out = timed_out.clone();
        let max = args.max_wall_secs;
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(max));
            timed_out.store(true, Ordering::SeqCst);
            flag.store(true, Ordering::SeqCst);
        });
    }
    if args.shutdown_test {
        stop_flag.store(true, Ordering::SeqCst);
    }
    let feeder_handle = {
        let clock = clock.clone();
        feeder.spawn_compressed(
            move |t| clock.advance_to(t),
            args.speed,
            drain_to,
            stop_flag.clone(),
        )
    };

    // 4. Tail it: live stream (watermark release) into run_live.
    let ranges: Vec<_> = world
        .sim
        .control_plane()
        .topology()
        .nodes
        .iter()
        .flat_map(|n| n.prefixes_v4.iter().map(|p| p.prefix))
        .collect();
    let mut monitor = PfxMonitor::new(ranges);
    let mut stats = ElemCounter::new();
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(live_index))
        .live(0)
        .watermark_release()
        .clock(clock)
        .poll_interval(std::time::Duration::from_millis(2))
        .start();
    let runtime = ShardedRuntime::builder()
        .workers(args.workers)
        .bin_size(BIN)
        .build();
    let wall_start = std::time::Instant::now();
    let mut plugins: Vec<&mut dyn ShardedPlugin> = vec![&mut monitor, &mut stats];
    let report = if args.chaos {
        // Workers die mid-bin at fixed fractions of the record count —
        // including one record that kills its worker twice in a row (a
        // restart storm) — and two checkpoint writes are torn
        // mid-flush. The supervisor must absorb all of it.
        let n = expected_records;
        let chaos = Chaos {
            kills: vec![
                KillSpec {
                    worker: 0,
                    at_record: n / 6,
                    times: 1,
                },
                KillSpec {
                    worker: 1 % args.workers,
                    at_record: n / 3,
                    times: 1,
                },
                KillSpec {
                    worker: 0,
                    at_record: n / 2,
                    times: 1,
                },
                // Restart storm: re-fires on the post-restart replay.
                KillSpec {
                    worker: 1 % args.workers,
                    at_record: 3 * n / 4,
                    times: 2,
                },
            ],
            torn_checkpoints: vec![(0, 1), (1 % args.workers, 2)],
        };
        let expected_fires: u64 = chaos.kills.iter().map(|k| k.times as u64).sum();
        let report = Supervisor::new(runtime)
            .with_config(SupervisorConfig {
                max_restarts: 8,
                backoff_base_ms: 5,
                backoff_max_ms: 50,
                stall_timeout_ms: 60_000,
                ..SupervisorConfig::default()
            })
            .with_chaos(chaos)
            .run_live(&mut stream, stop, Some(&stop_flag), &mut plugins)
            .expect("supervised run_live");
        println!(
            "# chaos: {} restarts ({} kills scheduled), {} partial bins",
            report.restarts,
            expected_fires,
            report.partial_bins.len()
        );
        if !report.shutdown {
            assert_eq!(
                report.restarts, expected_fires,
                "every scheduled kill must fire and restart exactly once"
            );
            assert!(
                report.partial_bins.is_empty(),
                "bounded kill schedule must never exhaust the restart budget"
            );
        }
        report
    } else {
        runtime
            .run_live(&mut stream, stop, Some(&stop_flag), &mut plugins)
            .expect("run_live")
    };
    stop_flag.store(true, Ordering::SeqCst);
    let feeder_stats = feeder_handle.join().expect("feeder thread");
    println!(
        "# live: {} records, {} bins, {} elems in {:.1}s wall \
         (feeder: {} files published, {} duplicate publications)",
        report.records,
        report.bins_closed,
        stats.total_elems(),
        wall_start.elapsed().as_secs_f64(),
        feeder_stats.published,
        feeder_stats.duplicates,
    );
    std::fs::remove_dir_all(&dir).ok();

    if timed_out.load(Ordering::SeqCst) {
        eprintln!(
            "FAIL: watchdog expired after {}s — livelock",
            args.max_wall_secs
        );
        std::process::exit(4);
    }
    if args.shutdown_test {
        assert!(report.shutdown, "stop flag must be honoured");
        println!("OK: cooperative shutdown path clean (no hang, workers joined)");
        return;
    }
    if report.shutdown {
        // stdin closed early: a clean-but-shortened run. Still a
        // success for the shutdown path, but the soak assertions need
        // the full session.
        println!("OK: early cooperative shutdown (stdin closed)");
        return;
    }
    if report.records != expected_records || stats.total_elems() != expected_elems {
        eprintln!(
            "FAIL: dropped data — live {}/{} records, {}/{} elems",
            report.records,
            expected_records,
            stats.total_elems(),
            expected_elems
        );
        std::process::exit(2);
    }
    if report.bins_closed < args.min_bins {
        eprintln!(
            "FAIL: only {} bins closed, expected at least {}",
            report.bins_closed, args.min_bins
        );
        std::process::exit(3);
    }
    if let Some(kb) = peak_rss_kb() {
        let mb = kb / 1024;
        println!("# peak RSS: {mb} MiB (cap {} MiB)", args.max_rss_mb);
        if mb > args.max_rss_mb {
            eprintln!(
                "FAIL: peak RSS {mb} MiB exceeds {} MiB — a reader is \
                 slurping whole (decompressed) files instead of streaming",
                args.max_rss_mb
            );
            std::process::exit(5);
        }
    }
    println!(
        "OK: zero dropped records ({} == historical), {} bins closed",
        report.records, report.bins_closed
    );
}
