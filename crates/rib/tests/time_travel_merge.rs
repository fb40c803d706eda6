//! Time-travel answers over a simulated archive equal the genesis
//! replay. One small archive (a RIS and a RouteViews collector, route
//! flaps, and session resets so journal tails hold peer-down events),
//! folded with a snapshot every 900 s; at every bin end the full table
//! and a prefix, an origin, a peer and a collector narrowing must each
//! equal the journal replayed from genesis through `RibTable::apply`,
//! filtered the same way.

use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::Arc;

use bgpstream::BgpStream;
use broker::{Index, LocalBroker};
use collector_sim::{standard_collectors, SimConfig, Simulator};
use corsaro::{run_pipeline_until, Plugin, RibFeeder};
use rib::{MemoryRibStore, RibAction, RibQuery, RibStore, RibTable, TableRow};
use topology::control::ControlPlane;
use topology::events::Scenario;
use topology::gen::{generate, TopologyConfig};

const BIN: u64 = 300;
const SNAPSHOT_EVERY: u64 = 900;
const HORIZON: u64 = 3600;
const SEED: u64 = 23;

fn scratch() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "rib-time-travel-merge-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Fold the archive into a store and answer the bin boundary past its
/// last record.
fn folded_store(dir: &PathBuf) -> (Arc<MemoryRibStore>, u64) {
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(SEED))), u64::MAX);
    let specs = standard_collectors(&cp, 1, 1, 3, 0.8, SEED);
    let (ris_vp, rv_vp) = (specs[0].vps[0].asn, specs[1].vps[1].asn);
    let mut cfg = SimConfig::new(dir);
    cfg.seed = SEED;
    let mut sim = Simulator::new(cp, specs, cfg);
    let index = Index::shared();
    sim.attach_index(index.clone());
    let topo = sim.control_plane().topology().clone();
    let mut sc = Scenario::new();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(6)
        .enumerate()
    {
        sc.flap(150 + 311 * k as u64, 4, 700, n.asn, n.prefixes_v4[0].prefix);
    }
    sim.schedule(&sc);
    // Resets that start after a snapshot and end before the next one,
    // and one that spans a snapshot.
    sim.schedule_session_reset(1000, 0, ris_vp, 250);
    sim.schedule_session_reset(1700, 1, rv_vp, 400);
    sim.schedule_session_reset(2950, 0, ris_vp, 150);
    sim.run_until(HORIZON);

    let stream = || -> BgpStream {
        BgpStream::builder()
            .broker_client(LocalBroker::shared(index.clone()))
            .interval(0, Some(HORIZON))
            .start()
    };
    let mut max_ts = 0;
    let mut probe = stream();
    while let Some(r) = probe.next_record() {
        max_ts = max_ts.max(r.timestamp);
    }
    let stop = (max_ts / BIN) * BIN + BIN;
    let store = MemoryRibStore::shared();
    let mut feeder = RibFeeder::new(SNAPSHOT_EVERY, store.clone());
    run_pipeline_until(
        &mut stream(),
        BIN,
        stop,
        &mut [&mut feeder as &mut dyn Plugin],
    );
    (store, stop)
}

/// Which rows of the replayed table a query keeps.
type Keep<'a> = &'a dyn Fn(&TableRow) -> bool;

#[test]
fn every_narrowing_at_every_bin_end_equals_the_genesis_replay() {
    let dir = scratch();
    let (store, stop) = folded_store(&dir);
    assert!(store.snapshot_count() >= 2, "tails must start at snapshots");
    let journal = store.events_in(0, stop);
    let downs: Vec<_> = (journal.iter())
        .filter(|ev| ev.action == RibAction::PeerDown && ev.time >= SNAPSHOT_EVERY)
        .collect();
    assert!(
        !downs.is_empty(),
        "journal tails must hold peer-down events"
    );

    // Narrowing arguments from what the store holds: the vantage point
    // and collector of a reset session, and a prefix and an origin of
    // the final table.
    let latest = RibQuery::new().table(&*store).unwrap();
    let row = &latest.rows[latest.len() / 2];
    let (prefix, origin) = (row.prefix, row.route.origin_asn().unwrap());
    let (peer, collector): (IpAddr, Arc<str>) = (downs[0].peer, downs[0].collector.clone());
    let kinds: [(RibQuery, Keep); 5] = [
        (RibQuery::new(), &|_| true),
        (RibQuery::new().prefix(prefix), &|r| r.prefix == prefix),
        (RibQuery::new().origin_asn(origin), &|r| {
            r.route.origin_asn() == Some(origin)
        }),
        (RibQuery::new().peer(peer), &|r| r.peer == peer),
        (RibQuery::new().collector(&*collector), &|r| {
            r.collector == collector
        }),
    ];

    let mut table = RibTable::new();
    let mut replayed = 0;
    for t in (BIN..=stop).step_by(BIN as usize).map(|end| end - 1) {
        for ev in &journal[replayed..] {
            if ev.time > t {
                break;
            }
            table.apply(ev);
            replayed += 1;
        }
        let full = table.view(t);
        for (query, keep) in &kinds {
            let mut want = full.clone();
            want.rows.retain(keep);
            let got = query.clone().at(t).table(&*store).unwrap();
            assert_eq!(got.encode(), want.encode(), "{query:?} at {t}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
