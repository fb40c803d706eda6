//! Stream-level dump reads: the records, annotations, extracted elems
//! and corruption placeholders delivered for update dumps, RIB dumps
//! with peer-index-table resolution, gzip-compressed files, filtered
//! reads, and full broker-driven streams.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bgp_types::trie::PrefixMatch;
use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, PathAttributes};
use bgpstream::sort::GroupMerger;
use bgpstream::{BgpStream, Filters, RecordStatus};
use broker::{DumpMeta, DumpType, Index, LocalBroker};
use flate_lite::{write::GzEncoder, Compression};
use mrt::table_dump_v2::TableDumpV2;
use mrt::{Bgp4mp, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibRow};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bgpstream-dumpstream-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn keepalive(ts: u32) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Keepalive,
        },
    )
}

fn announce(ts: u32, third_octet: u8) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Update(BgpUpdate {
                withdrawals: vec![],
                attrs: Some(PathAttributes::route(
                    AsPath::from_sequence([65001, 3356, 137]),
                    "192.0.2.1".parse().unwrap(),
                )),
                announcements: vec![format!("203.0.{third_octet}.0/24").parse().unwrap()],
            }),
        },
    )
}

fn pit(ts: u32, peers: u16) -> MrtRecord {
    MrtRecord::table_dump_v2(
        ts,
        TableDumpV2::PeerIndexTable(PeerIndexTable {
            collector_bgp_id: 1,
            view_name: String::new(),
            peers: (0..peers)
                .map(|i| PeerEntry {
                    bgp_id: i as u32,
                    ip: format!("192.0.2.{}", i + 1).parse().unwrap(),
                    asn: Asn(65000 + i as u32),
                })
                .collect(),
        }),
    )
}

fn rib_row(ts: u32, seq: u32, peers: u16) -> MrtRecord {
    MrtRecord::table_dump_v2(
        ts,
        TableDumpV2::RibRow(RibRow {
            sequence: seq,
            prefix: format!("10.{}.0.0/16", seq % 200).parse().unwrap(),
            entries: (0..peers)
                .map(|peer_index| RibEntry {
                    peer_index,
                    originated_time: 1,
                    attrs: PathAttributes::route(
                        AsPath::from_sequence([65001, 3356, 137]),
                        "192.0.2.1".parse().unwrap(),
                    ),
                })
                .collect(),
        }),
    )
}

fn write_plain(path: &Path, records: &[MrtRecord]) {
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for r in records {
        w.write(r).unwrap();
    }
    std::fs::write(path, buf).unwrap();
}

fn write_gzip(path: &Path, records: &[MrtRecord]) {
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for r in records {
        w.write(r).unwrap();
    }
    let mut enc = GzEncoder::new(Vec::new(), Compression::fast());
    enc.write_all(&buf).unwrap();
    std::fs::write(path, enc.finish().unwrap()).unwrap();
}

fn meta(path: &Path, dump_type: DumpType, collector: &str) -> DumpMeta {
    DumpMeta {
        project: "ris".into(),
        collector: collector.into(),
        dump_type,
        interval_start: 0,
        duration: 900,
        path: path.to_path_buf(),
        available_at: 0,
        size: 0,
    }
}

#[test]
fn updates_dump_reads_every_record() {
    let dir = tmpdir("updates");
    let path = dir.join("updates.mrt");
    let recs: Vec<MrtRecord> = (0..40)
        .map(|i| {
            if i % 3 == 0 {
                keepalive(i)
            } else {
                announce(i, (i % 250) as u8)
            }
        })
        .collect();
    write_plain(&path, &recs);
    let out = GroupMerger::open(
        vec![meta(&path, DumpType::Updates, "rrc00")],
        Arc::new(Filters::default().compile()),
    )
    .collect::<Vec<_>>();
    assert_eq!(out.len(), 40);
    assert!(
        out.iter().any(|r| !r.elems().is_empty()),
        "updates carry elems"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rib_dump_resolves_peers_through_each_table() {
    let dir = tmpdir("rib");
    let path = dir.join("rib.mrt");
    let mut recs = vec![pit(0, 3)];
    recs.extend((0..30).map(|i| rib_row(1, i, 3)));
    // A second PIT mid-dump: rows after it must resolve against the
    // *new* table.
    recs.push(pit(2, 5));
    recs.extend((30..60).map(|i| rib_row(3, i, 5)));
    write_plain(&path, &recs);
    let out = GroupMerger::open(
        vec![meta(&path, DumpType::Rib, "rrc00")],
        Arc::new(Filters::default().compile()),
    )
    .collect::<Vec<_>>();
    assert_eq!(out.len(), recs.len());
    // Peer resolution must actually have happened: 3 then 5 elems per
    // row.
    assert_eq!(out[1].elems().len(), 3);
    assert_eq!(out[out.len() - 1].elems().len(), 5);
    assert_eq!(out[1].elems()[0].peer_asn, Asn(65000));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_tail_ends_with_stamped_placeholder() {
    let dir = tmpdir("corrupt");
    let path = dir.join("bad.mrt");
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for i in 0..10 {
        w.write(&announce(i, i as u8)).unwrap();
    }
    buf.extend_from_slice(&[0xff; 7]); // truncated garbage tail
    std::fs::write(&path, buf).unwrap();
    let out = GroupMerger::open(
        vec![meta(&path, DumpType::Updates, "rrc00")],
        Arc::new(Filters::default().compile()),
    )
    .collect::<Vec<_>>();
    assert_eq!(out.len(), 11, "10 records + corruption placeholder");
    let last = out.last().unwrap();
    assert_eq!(last.status, RecordStatus::CorruptedRecord);
    // The placeholder is stamped with the last good timestamp so it
    // cannot move stream time backwards.
    assert_eq!(last.timestamp, 9);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gzip_compressed_file_reads_every_record() {
    let dir = tmpdir("gz");
    let path = dir.join("updates.mrt.gz");
    let recs: Vec<MrtRecord> = (0..50).map(|i| announce(i, (i % 250) as u8)).collect();
    write_gzip(&path, &recs);
    let out = GroupMerger::open(
        vec![meta(&path, DumpType::Updates, "rrc00")],
        Arc::new(Filters::default().compile()),
    )
    .collect::<Vec<_>>();
    assert_eq!(out.len(), 50);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn filters_keep_only_matching_elems() {
    let dir = tmpdir("filters");
    let path = dir.join("updates.mrt");
    let recs: Vec<MrtRecord> = (0..30).map(|i| announce(i, (i % 4) as u8)).collect();
    write_plain(&path, &recs);
    let mut filters = Filters::default();
    filters
        .prefixes
        .push(("203.0.1.0/24".parse().unwrap(), PrefixMatch::Exact));
    let out = GroupMerger::open(
        vec![meta(&path, DumpType::Updates, "rrc00")],
        Arc::new(filters.compile()),
    )
    .collect::<Vec<_>>();
    // Pushdown must drop non-matching elems: only every-4th
    // announcement hits 203.0.1.0/24.
    let matched = out.iter().filter(|r| !r.elems().is_empty()).count();
    assert_eq!(matched, recs.len() / 4 + usize::from(recs.len() % 4 > 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn broker_stream_merges_every_dump() {
    let dir = tmpdir("stream");
    // Two collectors with overlapping windows plus a RIB: the full
    // merge + annotation pipeline, not just one file.
    let p0 = dir.join("rrc00-updates.mrt");
    let p1 = dir.join("rrc01-updates.mrt.gz");
    let p2 = dir.join("rrc00-rib.mrt");
    write_plain(
        &p0,
        &(0..25)
            .map(|i| announce(i * 2, i as u8))
            .collect::<Vec<_>>(),
    );
    write_gzip(
        &p1,
        &(0..25)
            .map(|i| announce(i * 2 + 1, i as u8))
            .collect::<Vec<_>>(),
    );
    let mut rib = vec![pit(0, 2)];
    rib.extend((0..10).map(|i| rib_row(0, i, 2)));
    write_plain(&p2, &rib);

    let idx = Index::shared();
    idx.register(meta(&p0, DumpType::Updates, "rrc00"));
    idx.register(meta(&p1, DumpType::Updates, "rrc01"));
    idx.register(meta(&p2, DumpType::Rib, "rrc00"));
    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .interval(0, Some(900))
        .start();
    let mut out = Vec::new();
    while let Some(rec) = stream.next_record() {
        out.push(rec);
    }
    assert_eq!(out.len(), 25 + 25 + 11);
    std::fs::remove_dir_all(&dir).ok();
}
