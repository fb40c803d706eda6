//! Broker-service benchmarks: what serving the broker costs.
//!
//! `queries_per_sec_local` pages a mixed historical query set through
//! an in-process [`LocalBroker`]; `queries_per_sec` pages the same
//! set through a [`RemoteBroker`] against a spawned [`BrokerService`]
//! (wire encode/decode, mq round trip, served sorted view).
//! Both report elements = broker requests, so `rate_per_sec` is
//! queries per second. CI caps the served/local ratio with
//! `bench_gate --max-latency-ratio broker/queries_per_sec
//! broker/queries_per_sec_local` — both numbers come from the same
//! run, so the gate is host-speed independent.
//!
//! The group also emits `broker/poll_live_p50` and
//! `broker/poll_live_p99` — percentile round-trip latencies of served
//! live-cursor polls, measured sample by sample (a median-of-batches
//! bench cannot see tails). CI caps p99/p50: admission control must
//! keep the tail a bounded multiple of the median, not a
//! timeout-and-retry cliff.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bgpstream_repro::broker::{
    BrokerClient, BrokerService, DumpMeta, DumpType, Index, LocalBroker, Query, ReleasePolicy,
    RemoteBroker, ServiceConfig,
};
use bgpstream_repro::collector_sim::page_history;
use bgpstream_repro::mq::Cluster;

/// A day of metadata: two collectors, 300 s update dumps plus
/// periodic RIBs — enough rows that a window scan does real work.
fn day_index() -> Arc<Index> {
    let idx = Arc::new(Index::with_window(3600));
    for (project, collector, rib_every) in
        [("ris", "rrc00", 8 * 3600), ("routeviews", "rv2", 2 * 3600)]
    {
        for start in (0..24 * 3600).step_by(300) {
            idx.register(DumpMeta {
                project: project.into(),
                collector: collector.into(),
                dump_type: DumpType::Updates,
                interval_start: start,
                duration: 300,
                path: PathBuf::from(format!("/a/{collector}/u.{start}.mrt")),
                available_at: start + 120,
                size: 1 << 20,
            });
            if start % rib_every == 0 {
                idx.register(DumpMeta {
                    project: project.into(),
                    collector: collector.into(),
                    dump_type: DumpType::Rib,
                    interval_start: start,
                    duration: 0,
                    path: PathBuf::from(format!("/a/{collector}/r.{start}.mrt")),
                    available_at: start + 120,
                    size: 1 << 24,
                });
            }
        }
    }
    idx.advance_watermark(u64::MAX);
    idx
}

/// The tenant mix: full-day sweeps, scoped sub-windows, filtered
/// shapes — what a population of analyses asks concurrently.
fn query_set() -> Vec<Query> {
    let mut queries = vec![Query {
        start: 0,
        end: Some(24 * 3600),
        ..Default::default()
    }];
    for k in 0..4u64 {
        queries.push(Query {
            start: k * 6 * 3600,
            end: Some((k + 1) * 6 * 3600),
            dump_types: vec![DumpType::Updates],
            ..Default::default()
        });
    }
    queries.push(Query {
        projects: vec!["ris".into()],
        start: 3 * 3600,
        end: Some(9 * 3600),
        ..Default::default()
    });
    queries.push(Query {
        collectors: vec!["rv2".into()],
        dump_types: vec![DumpType::Rib],
        start: 0,
        end: Some(24 * 3600),
        ..Default::default()
    });
    queries
}

fn page_all(client: &Arc<dyn BrokerClient>, queries: &[Query]) -> u64 {
    let mut requests = 0;
    for q in queries {
        requests += page_history(client, q).expect("bench page").requests;
    }
    requests
}

/// Append one line in the vendored-criterion mini-JSON schema for a
/// hand-measured number (the percentile latencies below), so
/// `bench_gate` reads it exactly like a `bench_function` result.
fn emit_mini_json(group: &str, bench: &str, ns_per_iter: f64) {
    println!("{group}/{bench}: {ns_per_iter:.0} ns/iter");
    if let Ok(path) = std::env::var("CRITERION_MINI_JSON") {
        use std::io::Write as _;
        let line = format!(
            "{{\"group\":\"{group}\",\"bench\":\"{bench}\",\"ns_per_iter\":{ns_per_iter:.1},\
             \"throughput_kind\":\"none\",\"throughput_per_iter\":0,\
             \"rate_per_sec\":0.0,\"rate_unit\":\"none\"}}"
        );
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(f, "{line}");
        }
    }
}

fn bench_broker(c: &mut Criterion) {
    let index = day_index();
    let queries = query_set();
    let local: Arc<dyn BrokerClient> = LocalBroker::shared(index.clone());
    let requests_per_pass = page_all(&local, &queries);

    let cluster = Cluster::shared();
    let handle = BrokerService::new(cluster.clone(), index, ServiceConfig::default()).spawn();
    let remote: Arc<dyn BrokerClient> = Arc::new(RemoteBroker::new(cluster, "bench"));

    let mut g = c.benchmark_group("broker");
    g.throughput(Throughput::Elements(requests_per_pass));
    g.bench_function("queries_per_sec_local", |b| {
        b.iter(|| black_box(page_all(&local, &queries)))
    });
    g.bench_function("queries_per_sec", |b| {
        b.iter(|| black_box(page_all(&remote, &queries)))
    });
    g.finish();

    // Tail latency of served live polls, one round trip per sample.
    let lease = remote
        .open_live(&Query::default(), ReleasePolicy::Watermark, None)
        .expect("bench lease");
    const SAMPLES: usize = 2000;
    let mut ns: Vec<f64> = Vec::with_capacity(SAMPLES);
    for k in 0..SAMPLES {
        let start = std::time::Instant::now();
        black_box(remote.poll_live(lease, k as u64).expect("bench poll"));
        ns.push(start.elapsed().as_nanos() as f64);
    }
    remote.close_lease(lease).expect("bench close");
    ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    emit_mini_json("broker", "poll_live_p50", ns[SAMPLES / 2]);
    emit_mini_json("broker", "poll_live_p99", ns[SAMPLES * 99 / 100]);

    handle.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_broker
}
criterion_main!(benches);
