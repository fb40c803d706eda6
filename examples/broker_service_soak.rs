//! Multi-tenant broker soak: one served [`BrokerService`] fielding
//! ~100 concurrent synthetic tenants while a faulty `LiveFeeder`
//! re-publishes the archive in compressed wall time. This is the
//! binary CI's `broker-soak` job drives.
//!
//! The fleet is a mix (see `collector_sim::clients`):
//!
//! * **historical pagers** — each loops windowed interval queries over
//!   the growing index to exhaustion, again and again, like a batch
//!   analysis fleet; overlapping query shapes exercise the service's
//!   sorted index view;
//! * **live tailers** — each holds a live lease and polls it as the
//!   feeder's virtual clock advances; every third tailer *crashes*
//!   mid-session (drops its connection without closing) and a
//!   successor resumes the same lease id, which must stay
//!   exactly-once: across all incarnations each tailer sees every
//!   published dump exactly once.
//!
//! When the dust settles, the final served state is paged once more
//! through a fresh `RemoteBroker` and must match a `LocalBroker` over
//! the same index request for request, file for file.
//!
//! ```sh
//! cargo run --release --example broker_service_soak
//! cargo run --release --example broker_service_soak -- --clients 100 --speed 240
//! ```
//!
//! Exit codes: `0` success; `2` a tenant failed, a tailer broke
//! exactly-once, or served state diverged from local; `4` the
//! watchdog expired (livelock — the soak's reason to exist).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bgpstream_repro::broker::{
    BrokerClient, BrokerError, BrokerService, DumpType, Index, LocalBroker, Query, ReleasePolicy,
    RemoteBroker, ServiceConfig,
};
use bgpstream_repro::collector_sim::{page_history, FaultPlan, LiveTail, Stall};
use bgpstream_repro::collector_sim::{ClientReport, LiveFeeder};
use bgpstream_repro::mq::Cluster;
use bgpstream_repro::worlds;

struct Args {
    /// Total tenants (half pagers, half tailers).
    clients: usize,
    /// Virtual seconds replayed per wall second.
    speed: u64,
    /// Archive simulation seed.
    seed: u64,
    /// Watchdog: raise the stop flag (and fail) after this much wall
    /// time — a livelocked service must fail loudly, not stall CI.
    max_wall_secs: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 100,
        speed: 240,
        seed: 42,
        max_wall_secs: 120,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{what} needs a numeric value"))
        };
        match a.as_str() {
            "--clients" => args.clients = num("--clients").max(2) as usize,
            "--speed" => args.speed = num("--speed").max(1),
            "--seed" => args.seed = num("--seed"),
            "--max-wall-secs" => args.max_wall_secs = num("--max-wall-secs").max(1),
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    // 1. Simulate the archive the feeder will re-publish.
    let dir = worlds::scratch_dir("broker-soak");
    let mut world = worlds::quickstart(dir.clone(), args.seed);
    world.sim.run_until(world.info.horizon);
    let manifest = world.sim.manifest().to_vec();
    let expected_files = manifest.len() as u64;
    println!(
        "# archive: {} files over {} virtual seconds; fleet: {} tenants",
        expected_files, world.info.horizon, args.clients
    );

    // 2. Stand the service up over the live index the feeder fills.
    let live_index = Arc::new(Index::with_window(900));
    let cluster = Cluster::shared();
    let cfg = ServiceConfig {
        // Generous TTL: on a loaded 1-CPU runner a tailer thread may
        // go unscheduled for a while; expiry semantics have their own
        // deterministic tests (tests/broker_service.rs).
        lease_ttl: Duration::from_secs(args.max_wall_secs),
        // Tight per-client budget so admission control actually
        // trips under the flood and the RemoteBroker retry absorbs it.
        max_inflight_per_client: 4,
        ..ServiceConfig::default()
    };
    let service = BrokerService::new(cluster.clone(), live_index.clone(), cfg).spawn();

    // 3. Re-publish on a hostile schedule; the watermark stays
    //    truthful, so faults delay dumps but can never lose them.
    let plan = FaultPlan {
        extra_delay: (0, 120),
        stalls: vec![Stall {
            start: world.info.horizon / 3,
            duration: 400,
            collector: Some(0),
        }],
        swap_prob: 0.2,
        duplicate_prob: 0.2,
    };
    let feeder = LiveFeeder::new(&manifest, live_index.clone(), &plan, args.seed);
    let drain_to = feeder.horizon().saturating_add(1);
    let virtual_now = Arc::new(AtomicU64::new(0));
    let stop_flag = Arc::new(AtomicBool::new(false));
    let timed_out = Arc::new(AtomicBool::new(false));
    {
        let flag = stop_flag.clone();
        let timed_out = timed_out.clone();
        let max = args.max_wall_secs;
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(max));
            timed_out.store(true, Ordering::SeqCst);
            flag.store(true, Ordering::SeqCst);
        });
    }
    let feeder_handle = {
        let virtual_now = virtual_now.clone();
        feeder.spawn_compressed(
            move |t| {
                virtual_now.fetch_max(t, Ordering::SeqCst);
            },
            args.speed,
            drain_to,
            stop_flag.clone(),
        )
    };

    // 4. Unleash the fleet.
    let quiesce = Arc::new(AtomicBool::new(false));
    let n_tailers = args.clients / 2;
    let n_pagers = args.clients - n_tailers;
    let wall_start = std::time::Instant::now();

    let mut pagers = Vec::new();
    for i in 0..n_pagers {
        let cluster = cluster.clone();
        let quiesce = quiesce.clone();
        let horizon = world.info.horizon;
        pagers.push(std::thread::spawn(
            move || -> Result<ClientReport, BrokerError> {
                let client: Arc<dyn BrokerClient> =
                    Arc::new(RemoteBroker::new(cluster, format!("hist-{i}")));
                // Diversify shapes mildly: repeated and distinct
                // queries in one fleet.
                let query = Query {
                    start: (i as u64 % 4) * 900,
                    end: Some(horizon),
                    dump_types: if i % 3 == 0 {
                        vec![DumpType::Updates]
                    } else {
                        Vec::new()
                    },
                    ..Default::default()
                };
                let mut total = ClientReport::default();
                loop {
                    let page = page_history(&client, &query)?;
                    total.requests += page.requests;
                    total.files += page.files;
                    if quiesce.load(Ordering::SeqCst) {
                        return Ok(total);
                    }
                }
            },
        ));
    }

    let mut tailers = Vec::new();
    for i in 0..n_tailers {
        let cluster = cluster.clone();
        let stop = stop_flag.clone();
        let now = virtual_now.clone();
        tailers.push(std::thread::spawn(
            move || -> Result<ClientReport, BrokerError> {
                let query = Query {
                    start: 0,
                    end: None,
                    ..Default::default()
                };
                let client: Arc<dyn BrokerClient> =
                    Arc::new(RemoteBroker::new(cluster.clone(), format!("live-{i}-a")));
                let mut tail = LiveTail::open(client.clone(), &query, ReleasePolicy::Watermark)?;
                let mut total = ClientReport::default();
                let mut crashed = false;
                loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let got = tail.poll(now.load(Ordering::SeqCst))?;
                    let seen = total.files + tail.report().files;
                    if seen >= expected_files {
                        break;
                    }
                    // Crash a third of the fleet once, a third of the way
                    // in: drop the connection without closing the lease,
                    // then resume the same lease id through a *new* client
                    // incarnation. The broker-side delivered-set must make
                    // the handover exactly-once.
                    if i % 3 == 1 && !crashed && seen >= expected_files / 3 {
                        crashed = true;
                        let lease = tail.lease();
                        let report = tail.report();
                        total.requests += report.requests;
                        total.files += report.files;
                        drop(tail); // no close(): the "crash"
                        let successor: Arc<dyn BrokerClient> =
                            Arc::new(RemoteBroker::new(cluster.clone(), format!("live-{i}-b")));
                        tail =
                            LiveTail::resume(successor, &query, ReleasePolicy::Watermark, lease)?;
                        continue;
                    }
                    if got == 0 {
                        let v = client.version();
                        client.wait_for_new(v, Duration::from_millis(10));
                    }
                }
                let report = tail.report();
                total.requests += report.requests;
                total.files += report.files;
                total.released_through = report.released_through;
                tail.close()?;
                Ok(total)
            },
        ));
    }

    // 5. Wait out the feeder, then let the pagers finish one last full
    //    pass over the final archive before releasing them.
    let feeder_stats = feeder_handle.join().expect("feeder thread");
    quiesce.store(true, Ordering::SeqCst);
    let mut failures = 0u64;
    let mut page_requests = 0u64;
    for h in pagers {
        match h.join().expect("pager thread") {
            Ok(report) => page_requests += report.requests,
            Err(e) => {
                eprintln!("FAIL: historical pager error: {e}");
                failures += 1;
            }
        }
    }
    let mut exactly_once_broken = 0u64;
    let mut poll_requests = 0u64;
    for (i, h) in tailers.into_iter().enumerate() {
        match h.join().expect("tailer thread") {
            Ok(report) => {
                poll_requests += report.requests;
                if !timed_out.load(Ordering::SeqCst) && report.files != expected_files {
                    eprintln!(
                        "FAIL: tailer {i} saw {} files, expected exactly {expected_files}",
                        report.files
                    );
                    exactly_once_broken += 1;
                }
            }
            Err(e) => {
                eprintln!("FAIL: live tailer {i} error: {e}");
                failures += 1;
            }
        }
    }
    stop_flag.store(true, Ordering::SeqCst);

    if timed_out.load(Ordering::SeqCst) {
        eprintln!(
            "FAIL: watchdog expired after {}s — livelock",
            args.max_wall_secs
        );
        std::process::exit(4);
    }

    // 6. Served state must equal local state, request for request.
    let final_query = Query {
        start: 0,
        end: Some(world.info.horizon),
        ..Default::default()
    };
    let remote: Arc<dyn BrokerClient> = Arc::new(RemoteBroker::new(cluster, "final-check"));
    let local: Arc<dyn BrokerClient> = LocalBroker::shared(live_index);
    let via_remote = page_history(&remote, &final_query).expect("final served page");
    let via_local = page_history(&local, &final_query).expect("final local page");
    let divergence = via_remote.files != via_local.files
        || via_remote.requests != via_local.requests
        || via_remote.files != expected_files;

    let stats = service.shutdown();
    println!(
        "# soak: {} page requests + {} live polls in {:.1}s wall; service answered {} \
         ({} busy sheds, {} leases opened, {} resumed)",
        page_requests,
        poll_requests,
        wall_start.elapsed().as_secs_f64(),
        stats.requests,
        stats.busy,
        stats.leases_opened,
        stats.leases_resumed,
    );
    println!(
        "# feeder: {} files published, {} duplicate publications",
        feeder_stats.published, feeder_stats.duplicates
    );
    std::fs::remove_dir_all(&dir).ok();

    if divergence {
        eprintln!(
            "FAIL: served final state diverged — remote {}f/{}req, local {}f/{}req, \
             archive {expected_files}f",
            via_remote.files, via_remote.requests, via_local.files, via_local.requests
        );
        std::process::exit(2);
    }
    if failures > 0 || exactly_once_broken > 0 {
        eprintln!(
            "FAIL: {failures} tenant error(s), {exactly_once_broken} exactly-once breach(es)"
        );
        std::process::exit(2);
    }
    let expected_resumes = (0..n_tailers).filter(|i| i % 3 == 1).count() as u64;
    if stats.leases_resumed != expected_resumes {
        eprintln!(
            "FAIL: {} lease resumes recorded, expected {expected_resumes} \
             (every crashed tailer must have resumed by id)",
            stats.leases_resumed
        );
        std::process::exit(2);
    }
    println!(
        "OK: {} tenants served, every tailer exactly-once ({} files each), served == local",
        args.clients, expected_files
    );
}
