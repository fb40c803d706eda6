//! Filter-pushdown correctness: the compiled record-level prefilter
//! must be *sound* (never reject a record containing an elem the full
//! filter set accepts), and a stream read with pushdown enabled must
//! produce exactly the elem/envelope sequence of the old
//! decode-then-filter path.

use std::sync::Arc;

use bgp_types::trie::PrefixMatch;
use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, Community, PathAttributes, Prefix};
use bgpstream::elem::extract_into;
use bgpstream::record::RecordStatus;
use bgpstream::sort::GroupMerger;
use bgpstream::{AsPathRegex, CommunityFilter, ElemType, Filters, IpVersion};
use broker::index::DumpMeta;
use broker::DumpType;
use mrt::{
    Bgp4mp, MrtHeader, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RawMrtView, RibEntry,
    RibRow,
};
use proptest::prelude::*;

// ---- generators ---------------------------------------------------------

/// A small closed world of values so filters and records actually
/// collide: random-but-overlapping prefixes, ASNs and communities.
fn arb_v4_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..8, 8u8..28)
        .prop_map(|(net, len)| Prefix::v4(std::net::Ipv4Addr::from(0x0a00_0000 | (net << 21)), len))
}

fn arb_v6_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..4, 32u8..64).prop_map(|(net, len)| {
        Prefix::v6(
            std::net::Ipv6Addr::from((0x2001_0db8u128 << 96) | ((net as u128) << 88)),
            len,
        )
    })
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![arb_v4_prefix(), arb_v6_prefix()]
}

const PEER_POOL: [u32; 3] = [65001, 65002, 9];

fn arb_peer() -> impl Strategy<Value = Asn> {
    (0usize..PEER_POOL.len()).prop_map(|i| Asn(PEER_POOL[i]))
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        proptest::collection::vec(1u32..9999, 1..4),
        proptest::collection::vec((1u16..5, 0u16..1000), 0..3),
    )
        .prop_map(|(path, comms)| {
            let mut a =
                PathAttributes::route(AsPath::from_sequence(path), "192.0.2.1".parse().unwrap());
            for (asn, value) in comms {
                a.communities.insert(Community::new(asn, value));
            }
            a
        })
}

fn pit() -> PeerIndexTable {
    PeerIndexTable {
        collector_bgp_id: 1,
        view_name: String::new(),
        peers: PEER_POOL
            .iter()
            .enumerate()
            .map(|(i, &asn)| PeerEntry {
                bgp_id: i as u32,
                ip: format!("192.0.2.{}", i + 1).parse().unwrap(),
                asn: Asn(asn),
            })
            .collect(),
    }
}

fn arb_record() -> impl Strategy<Value = MrtRecord> {
    let session = |peer_asn: Asn| {
        (
            peer_asn,
            Asn(12654),
            "192.0.2.99".parse::<std::net::IpAddr>().unwrap(),
            "192.0.2.254".parse::<std::net::IpAddr>().unwrap(),
        )
    };
    let update = (
        arb_peer(),
        proptest::collection::vec(arb_prefix(), 0..3),
        proptest::collection::vec(arb_prefix(), 0..3),
        proptest::option::of(arb_attrs()),
        1u32..1000,
    )
        .prop_map(move |(peer, withdrawals, announcements, attrs, ts)| {
            let (peer_asn, local_asn, peer_ip, local_ip) = session(peer);
            MrtRecord::bgp4mp(
                ts,
                Bgp4mp::Message {
                    peer_asn,
                    local_asn,
                    peer_ip,
                    local_ip,
                    message: BgpMessage::Update(BgpUpdate {
                        withdrawals,
                        attrs,
                        announcements,
                    }),
                },
            )
        });
    let keepalive = (arb_peer(), 1u32..1000).prop_map(move |(peer, ts)| {
        let (peer_asn, local_asn, peer_ip, local_ip) = session(peer);
        MrtRecord::bgp4mp(
            ts,
            Bgp4mp::Message {
                peer_asn,
                local_asn,
                peer_ip,
                local_ip,
                message: BgpMessage::Keepalive,
            },
        )
    });
    let state = (arb_peer(), 1u32..1000).prop_map(move |(peer, ts)| {
        let (peer_asn, local_asn, peer_ip, local_ip) = session(peer);
        MrtRecord::bgp4mp(
            ts,
            Bgp4mp::StateChange {
                peer_asn,
                local_asn,
                peer_ip,
                local_ip,
                old_state: bgp_types::SessionState::Established,
                new_state: bgp_types::SessionState::Idle,
            },
        )
    });
    let rib_row = (
        arb_prefix(),
        proptest::collection::vec((0u16..PEER_POOL.len() as u16, arb_attrs()), 0..3),
        1u32..1000,
    )
        .prop_map(|(prefix, entries, ts)| {
            MrtRecord::table_dump_v2(
                ts,
                mrt::table_dump_v2::TableDumpV2::RibRow(RibRow {
                    sequence: 0,
                    prefix,
                    entries: entries
                        .into_iter()
                        .map(|(peer_index, attrs)| RibEntry {
                            peer_index,
                            originated_time: 1,
                            attrs,
                        })
                        .collect(),
                }),
            )
        });
    prop_oneof![update, keepalive, state, rib_row]
}

fn arb_filters() -> impl Strategy<Value = Filters> {
    (
        proptest::collection::vec(0usize..PEER_POOL.len(), 0..3),
        proptest::collection::vec((arb_prefix(), 0u8..4), 0..3),
        proptest::collection::vec((0u16..5, 0u16..1000, any::<bool>()), 0..2),
        proptest::collection::vec(0u8..4, 0..3),
        proptest::option::of(Just(())),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(peers, prefixes, comms, types, aspath, ipv)| {
            let mut f = Filters::none();
            for i in peers {
                f.peer_asns.insert(Asn(PEER_POOL[i]));
            }
            for (p, mode) in prefixes {
                let mode = match mode {
                    0 => PrefixMatch::Exact,
                    1 => PrefixMatch::MoreSpecific,
                    2 => PrefixMatch::LessSpecific,
                    _ => PrefixMatch::Any,
                };
                f.prefixes.push((p, mode));
            }
            for (asn, value, exact) in comms {
                f.communities.push(if exact {
                    CommunityFilter::exact(asn, value)
                } else {
                    CommunityFilter::any_asn(value)
                });
            }
            for t in types {
                f.elem_types.insert(match t {
                    0 => ElemType::RibEntry,
                    1 => ElemType::Announcement,
                    2 => ElemType::Withdrawal,
                    _ => ElemType::PeerState,
                });
            }
            if aspath.is_some() {
                f.as_paths.push(AsPathRegex::parse("_137$").unwrap());
            }
            f.ip_version = ipv.map(|v4| if v4 { IpVersion::V4 } else { IpVersion::V6 });
            f
        })
}

// ---- soundness: record_may_match never hides a passing elem -------------

proptest! {
    #[test]
    fn record_may_match_is_sound(
        records in proptest::collection::vec(arb_record(), 1..8),
        filters in arb_filters(),
    ) {
        let compiled = filters.compile();
        let table = pit();
        for rec in &records {
            let wire = rec.encode();
            let header = MrtHeader::decode(&wire).unwrap();
            let body = &wire[MrtHeader::LEN..];
            let Ok(view) = RawMrtView::parse(&header, body) else {
                // Unparseable views end the dump as corrupt before
                // any filter runs: nothing to prove.
                continue;
            };
            if !compiled.record_may_match(&view, Some(&table)) {
                let mut elems = Vec::new();
                extract_into(rec.clone(), Some(&table), &mut elems);
                for elem in &elems {
                    prop_assert!(
                        !filters.matches(elem),
                        "prefilter rejected a record with a passing elem: {elem:?}\nfilters: {filters:?}"
                    );
                }
            }
            // The compiled per-elem filter agrees with the
            // interpreted one on every extracted elem.
            let mut elems = Vec::new();
            extract_into(rec.clone(), Some(&table), &mut elems);
            for elem in &elems {
                prop_assert_eq!(compiled.matches(elem), filters.matches(elem));
            }
        }
    }
}

// ---- end-to-end: pushdown output is byte-identical ----------------------

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bgpstream-pushdown-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_archive(dir: &std::path::Path, records: &[MrtRecord]) -> DumpMeta {
    let path = dir.join("dump.mrt");
    let mut w = MrtWriter::new(std::fs::File::create(&path).unwrap());
    for r in records {
        w.write(r).unwrap();
    }
    DumpMeta {
        project: "ris".into(),
        collector: "rrc00".into(),
        dump_type: DumpType::Updates,
        interval_start: 0,
        duration: 1000,
        path,
        available_at: 0,
        size: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pushdown_stream_equals_filter_after_decode(
        mut records in proptest::collection::vec(arb_record(), 1..10),
        filters in arb_filters(),
        corrupt in proptest::option::of((any::<u32>(), 1u8..=255)),
    ) {
        // A RIB dump leads with its peer index table; timestamps
        // ascend so the single-file read is a valid sorted dump.
        records.sort_by_key(|r| r.timestamp);
        let mut all = vec![MrtRecord::table_dump_v2(
            0,
            mrt::table_dump_v2::TableDumpV2::PeerIndexTable(pit()),
        )];
        all.extend(records);
        let dir = scratch_dir("equiv");
        let meta = write_archive(&dir, &all);
        // Sometimes flip one byte of the archive: corruption
        // signalling (poisoned dumps, placeholder records) must also
        // be byte-identical between the two paths.
        if let Some((pos, mask)) = corrupt {
            let mut bytes = std::fs::read(&meta.path).unwrap();
            let i = pos as usize % bytes.len();
            bytes[i] ^= mask;
            std::fs::write(&meta.path, bytes).unwrap();
        }

        // Pushdown path: filters applied inside the stream read.
        let pushed = GroupMerger::open(vec![meta.clone()], Arc::new(filters.compile())).collect::<Vec<_>>();
        // Reference path: read everything, filter after decode.
        let reference = GroupMerger::open(vec![meta], Arc::new(Filters::none().compile())).collect::<Vec<_>>();

        prop_assert_eq!(pushed.len(), reference.len());
        for (p, r) in pushed.iter().zip(reference.iter()) {
            // Envelope annotations are untouched by pushdown.
            prop_assert_eq!(p.timestamp, r.timestamp);
            prop_assert_eq!(p.position, r.position);
            prop_assert_eq!(p.status, r.status);
            // Elems: exactly the reference elems that pass, in order.
            let want: Vec<_> = r.elems().iter().filter(|e| filters.matches(e)).collect();
            let got: Vec<_> = p.elems().iter().collect();
            prop_assert_eq!(got, want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- regressions --------------------------------------------------------

/// A pass-all filter set must compile to a no-op prefilter: the
/// pushdown path is bypassed entirely and every record decodes.
#[test]
fn pass_all_prefilter_is_noop() {
    let compiled = Filters::none().compile();
    assert!(compiled.is_pass_all());
    let rec = MrtRecord::bgp4mp(
        3,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Keepalive,
        },
    );
    let wire = rec.encode();
    let header = MrtHeader::decode(&wire).unwrap();
    let view = RawMrtView::parse(&header, &wire[MrtHeader::LEN..]).unwrap();
    // Even an elem-less record is accepted without inspection.
    assert!(compiled.record_may_match(&view, None));
}

/// Corrupted tails keep the PR 2 placeholder semantics under a
/// selective filter: the stream stays monotonic, the placeholder is
/// flagged, and no panic or cursor desync occurs.
#[test]
fn corrupt_tail_keeps_placeholder_semantics_under_filters() {
    let dir = scratch_dir("corrupt");
    let update = |ts: u32, prefix: &str| {
        MrtRecord::bgp4mp(
            ts,
            Bgp4mp::Message {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: BgpMessage::Update(BgpUpdate::announce(
                    vec![prefix.parse().unwrap()],
                    PathAttributes::route(
                        AsPath::from_sequence([65001, 137]),
                        "192.0.2.1".parse().unwrap(),
                    ),
                )),
            },
        )
    };
    let meta = write_archive(
        &dir,
        &[update(500, "10.0.0.0/8"), update(600, "11.0.0.0/8")],
    );
    // Append garbage so the third framing attempt is a corrupted read.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&meta.path)
            .unwrap();
        f.write_all(&[0xFF; 7]).unwrap();
    }
    // A selective filter that rejects the second record but keeps the
    // first: pushdown must not disturb the corruption signalling.
    let mut filters = Filters::none();
    filters
        .prefixes
        .push(("10.0.0.0/8".parse().unwrap(), PrefixMatch::MoreSpecific));
    let recs = GroupMerger::open(vec![meta], Arc::new(filters.compile())).collect::<Vec<_>>();
    assert_eq!(recs.len(), 3);
    assert_eq!(recs[0].elems().len(), 1);
    assert_eq!(recs[1].elems().len(), 0, "rejected record is elem-less");
    assert_eq!(recs[1].status, RecordStatus::Valid);
    assert_eq!(recs[2].status, RecordStatus::CorruptedRecord);
    assert_eq!(
        recs[2].timestamp, 600,
        "placeholder carries the last delivered timestamp"
    );
    assert!(recs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    std::fs::remove_dir_all(&dir).ok();
}

/// A record whose attributes are well-framed but content-invalid
/// (here: ORIGIN code 9 — raw framing fine, decoder rejects) must
/// poison the dump identically whether or not a filter would have
/// rejected the record: lazy decode may skip work, never corruption
/// signalling.
#[test]
fn content_corrupt_record_poisons_dump_even_when_filtered_out() {
    let dir = scratch_dir("content-corrupt");
    let rec = MrtRecord::bgp4mp(
        100,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Update(BgpUpdate::announce(
                vec!["10.0.0.0/8".parse().unwrap()],
                PathAttributes::route(
                    AsPath::from_sequence([65001, 137]),
                    "192.0.2.1".parse().unwrap(),
                ),
            )),
        },
    );
    let tail = MrtRecord::bgp4mp(
        200,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Keepalive,
        },
    );
    let meta = write_archive(&dir, &[rec, tail]);
    // Corrupt the ORIGIN attribute's value byte: the attr is encoded
    // as flags 0x40, type 1, len 1, value — a unique byte pattern in
    // this small archive.
    let mut bytes = std::fs::read(&meta.path).unwrap();
    let pos = bytes
        .windows(3)
        .position(|w| w == [0x40, 0x01, 0x01])
        .expect("ORIGIN attribute present");
    bytes[pos + 3] = 9; // invalid origin code
    std::fs::write(&meta.path, &bytes).unwrap();

    // A filter that rejects the record outright (wrong peer).
    let mut filters = Filters::none();
    filters.peer_asns.insert(Asn(9));
    let pushed =
        GroupMerger::open(vec![meta.clone()], Arc::new(filters.compile())).collect::<Vec<_>>();
    let reference =
        GroupMerger::open(vec![meta], Arc::new(Filters::none().compile())).collect::<Vec<_>>();
    assert_eq!(pushed.len(), reference.len());
    assert_eq!(reference.len(), 1, "corrupt read poisons the dump");
    assert_eq!(pushed[0].status, RecordStatus::CorruptedRecord);
    assert_eq!(reference[0].status, RecordStatus::CorruptedRecord);
    std::fs::remove_dir_all(&dir).ok();
}

/// A RIB row whose peer index is missing from the peer table must be
/// flagged `CorruptedRecord` even when the row's prefix fails the
/// configured filter — the prefilter may not hide missing-peer
/// corruption events from record-level consumers.
#[test]
fn missing_peer_rib_row_stays_flagged_under_filters() {
    let dir = scratch_dir("missing-peer");
    let records = vec![
        MrtRecord::table_dump_v2(0, mrt::table_dump_v2::TableDumpV2::PeerIndexTable(pit())),
        MrtRecord::table_dump_v2(
            5,
            mrt::table_dump_v2::TableDumpV2::RibRow(RibRow {
                sequence: 0,
                prefix: "10.0.0.0/8".parse().unwrap(),
                entries: vec![RibEntry {
                    peer_index: 42, // not in the 3-peer table
                    originated_time: 1,
                    attrs: PathAttributes::route(
                        AsPath::from_sequence([65001, 137]),
                        "192.0.2.1".parse().unwrap(),
                    ),
                }],
            }),
        ),
    ];
    let meta = write_archive(&dir, &records);
    // The prefix filter rejects the row; the missing peer must still
    // surface.
    let mut filters = Filters::none();
    filters
        .prefixes
        .push(("192.0.2.0/24".parse().unwrap(), PrefixMatch::Exact));
    let pushed =
        GroupMerger::open(vec![meta.clone()], Arc::new(filters.compile())).collect::<Vec<_>>();
    let reference =
        GroupMerger::open(vec![meta], Arc::new(Filters::none().compile())).collect::<Vec<_>>();
    assert_eq!(pushed.len(), 2);
    assert_eq!(pushed[1].status, RecordStatus::CorruptedRecord);
    assert_eq!(reference[1].status, RecordStatus::CorruptedRecord);
    std::fs::remove_dir_all(&dir).ok();
}

/// The prefilter actually prevents decode work: a stream scoped to a
/// prefix absent from the archive yields only elem-less envelopes.
#[test]
fn selective_filter_yields_empty_envelopes() {
    let dir = scratch_dir("selective");
    let mut records: Vec<MrtRecord> = Vec::new();
    for ts in 1..20u32 {
        records.push(MrtRecord::bgp4mp(
            ts,
            Bgp4mp::Message {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: BgpMessage::Update(BgpUpdate::announce(
                    vec![Prefix::v4(std::net::Ipv4Addr::new(10, ts as u8, 0, 0), 16)],
                    PathAttributes::route(
                        AsPath::from_sequence([65001, 137]),
                        "192.0.2.1".parse().unwrap(),
                    ),
                )),
            },
        ));
    }
    let meta = write_archive(&dir, &records);
    let mut filters = Filters::none();
    filters
        .prefixes
        .push(("198.51.100.0/24".parse().unwrap(), PrefixMatch::Any));
    let recs = GroupMerger::open(vec![meta], Arc::new(filters.compile())).collect::<Vec<_>>();
    assert_eq!(recs.len(), records.len());
    assert!(recs.iter().all(|r| r.elems().is_empty()));
    assert!(recs.iter().all(|r| r.status == RecordStatus::Valid));
    std::fs::remove_dir_all(&dir).ok();
}
