//! Ground-truth consistency: the MRT RIB dumps a collector publishes
//! must agree exactly with the control plane's routes at dump time,
//! and updates dumps must replay into the same state.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use bgp_types::{AsPath, Asn, Prefix};
use broker::DumpType;
use collector_sim::{standard_collectors, SimConfig, Simulator};
use mrt::table_dump_v2::TableDumpV2;
use mrt::{ChunkedReader, MrtBody};
use topology::control::ControlPlane;
use topology::events::Scenario;
use topology::gen::{generate, TopologyConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bgpstream-cons-{}-{}-{}",
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

/// Parse one RIB dump into (peer_asn, prefix) → AS path.
fn parse_rib(path: &std::path::Path) -> HashMap<(Asn, Prefix), AsPath> {
    let (records, err) = ChunkedReader::open(path).unwrap().read_all();
    assert!(err.is_none(), "corrupt RIB: {err:?}");
    let mut pit = None;
    let mut out = HashMap::new();
    for rec in records {
        match rec.body {
            MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(t)) => pit = Some(t),
            MrtBody::TableDumpV2(TableDumpV2::RibRow(row)) => {
                let pit = pit.as_ref().expect("PIT precedes rows");
                for e in row.entries {
                    let peer = pit.peers[e.peer_index as usize];
                    out.insert((peer.asn, row.prefix), e.attrs.as_path);
                }
            }
            _ => panic!("unexpected record type in RIB dump"),
        }
    }
    out
}

#[test]
fn second_rib_matches_control_plane_after_events() {
    let topo = Arc::new(generate(&TopologyConfig::tiny(71)));
    let cp = ControlPlane::new(topo.clone(), u64::MAX);
    let specs = standard_collectors(&cp, 1, 0, 4, 1.0, 71); // RIS, all full-feed
    let vps = specs[0].vps.clone();
    let dir = tmpdir("rib");
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));

    // Stir the control plane well before the 8 h RIB.
    let mut sc = Scenario::new();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(10)
        .enumerate()
    {
        sc.flap(600 + 77 * k as u64, 5, 1200, n.asn, n.prefixes_v4[0].prefix);
    }
    sim.schedule(&sc);
    sim.run_until(8 * 3600 + 30);

    let rib = sim
        .manifest()
        .iter()
        .filter(|m| m.dump_type == DumpType::Rib)
        .max_by_key(|m| m.interval_start)
        .expect("a RIB was dumped")
        .clone();
    assert_eq!(rib.interval_start, 8 * 3600);
    let dumped = parse_rib(&rib.path);

    // Ground truth: every VP's route for every announced prefix.
    let cp = sim.control_plane();
    let announced = cp.announced_prefixes();
    let mut expected: HashMap<(Asn, Prefix), AsPath> = HashMap::new();
    for vp in &vps {
        for p in &announced {
            if let Some(r) = cp.route(vp.asn, p) {
                expected.insert((vp.asn, *p), r.as_path);
            }
        }
    }
    assert_eq!(
        dumped.len(),
        expected.len(),
        "RIB row-entry count diverges from ground truth"
    );
    for (key, path) in &expected {
        assert_eq!(
            dumped.get(key),
            Some(path),
            "route mismatch for VP {} prefix {}",
            key.0,
            key.1
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replaying_updates_reaches_rib_state() {
    // First RIB + all updates replayed on top must equal the second
    // RIB (this is the invariant the RT plugin depends on).
    let topo = Arc::new(generate(&TopologyConfig::tiny(72)));
    let cp = ControlPlane::new(topo.clone(), u64::MAX);
    let specs = standard_collectors(&cp, 1, 0, 3, 1.0, 72);
    let dir = tmpdir("replay");
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let mut sc = Scenario::new();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(12)
        .enumerate()
    {
        sc.flap(
            500 + 311 * k as u64,
            4,
            2000,
            n.asn,
            n.prefixes_v4[0].prefix,
        );
    }
    sim.schedule(&sc);
    sim.run_until(8 * 3600 + 30);

    let ribs: Vec<_> = sim
        .manifest()
        .iter()
        .filter(|m| m.dump_type == DumpType::Rib)
        .cloned()
        .collect();
    assert_eq!(ribs.len(), 2);
    let mut table = parse_rib(&ribs[0].path);

    let mut updates: Vec<_> = sim
        .manifest()
        .iter()
        .filter(|m| m.dump_type == DumpType::Updates)
        .cloned()
        .collect();
    updates.sort_by_key(|m| m.interval_start);
    for u in updates {
        if u.interval_start >= ribs[1].interval_start {
            break;
        }
        let (records, err) = ChunkedReader::open(&u.path).unwrap().read_all();
        assert!(err.is_none());
        for rec in records {
            if let MrtBody::Bgp4mp(mrt::Bgp4mp::Message {
                peer_asn,
                message: bgp_types::BgpMessage::Update(up),
                ..
            }) = rec.body
            {
                {
                    for w in &up.withdrawals {
                        table.remove(&(peer_asn, *w));
                    }
                    if let Some(attrs) = up.attrs {
                        for a in &up.announcements {
                            table.insert((peer_asn, *a), attrs.as_path.clone());
                        }
                    }
                }
            }
        }
    }
    let second = parse_rib(&ribs[1].path);
    assert_eq!(table.len(), second.len(), "replayed table size diverges");
    for (key, path) in &second {
        assert_eq!(table.get(key), Some(path), "replay mismatch at {key:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
