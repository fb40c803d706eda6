//! Property tests: MRT record and file round-trips.

use std::net::{IpAddr, Ipv4Addr};

use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, PathAttributes, Prefix, SessionState};
use mrt::{
    Bgp4mp, ChunkedReader, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibRow,
};
use proptest::prelude::*;

fn arb_prefix_v4() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 8u8..=32).prop_map(|(addr, len)| Prefix::v4(Ipv4Addr::from(addr), len))
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        proptest::collection::vec(1u32..1_000_000, 1..6),
        any::<u32>(),
    )
        .prop_map(|(path, nh)| {
            PathAttributes::route(AsPath::from_sequence(path), IpAddr::V4(Ipv4Addr::from(nh)))
        })
}

fn arb_record() -> impl Strategy<Value = MrtRecord> {
    prop_oneof![
        // BGP4MP update message
        (any::<u32>(), arb_prefix_v4(), arb_attrs(), 1u32..100_000).prop_map(
            |(ts, pfx, attrs, asn)| {
                MrtRecord::bgp4mp(
                    ts,
                    Bgp4mp::Message {
                        peer_asn: Asn(asn),
                        local_asn: Asn(6447),
                        peer_ip: "192.0.2.1".parse().unwrap(),
                        local_ip: "192.0.2.254".parse().unwrap(),
                        message: BgpMessage::Update(BgpUpdate::announce(vec![pfx], attrs)),
                    },
                )
            }
        ),
        // BGP4MP state change
        (any::<u32>(), 1u16..=6, 1u16..=6).prop_map(|(ts, old, new)| {
            MrtRecord::bgp4mp(
                ts,
                Bgp4mp::StateChange {
                    peer_asn: Asn(65001),
                    local_asn: Asn(12654),
                    peer_ip: "192.0.2.7".parse().unwrap(),
                    local_ip: "192.0.2.254".parse().unwrap(),
                    old_state: SessionState::from_code(old).unwrap(),
                    new_state: SessionState::from_code(new).unwrap(),
                },
            )
        }),
        // TABLE_DUMP_V2 RIB row
        (
            any::<u32>(),
            any::<u32>(),
            arb_prefix_v4(),
            proptest::collection::vec((any::<u16>(), any::<u32>(), arb_attrs()), 0..5)
        )
            .prop_map(|(ts, seq, prefix, entries)| {
                MrtRecord::table_dump_v2(
                    ts,
                    mrt::table_dump_v2::TableDumpV2::RibRow(RibRow {
                        sequence: seq,
                        prefix,
                        entries: entries
                            .into_iter()
                            .map(|(peer_index, originated_time, attrs)| RibEntry {
                                peer_index,
                                originated_time,
                                attrs,
                            })
                            .collect(),
                    }),
                )
            }),
        // Peer index table
        (
            any::<u32>(),
            proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..1_000_000), 0..8)
        )
            .prop_map(|(ts, peers)| {
                MrtRecord::table_dump_v2(
                    ts,
                    mrt::table_dump_v2::TableDumpV2::PeerIndexTable(PeerIndexTable {
                        collector_bgp_id: 7,
                        view_name: String::new(),
                        peers: peers
                            .into_iter()
                            .map(|(bgp_id, ip, asn)| PeerEntry {
                                bgp_id,
                                ip: IpAddr::V4(Ipv4Addr::from(ip)),
                                asn: Asn(asn),
                            })
                            .collect(),
                    }),
                )
            }),
    ]
}

proptest! {
    #[test]
    fn record_roundtrip(rec in arb_record()) {
        let wire = rec.encode();
        let header = mrt::MrtHeader::decode(&wire).unwrap();
        let back = MrtRecord::decode(&header, &wire[mrt::MrtHeader::LEN..]).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn file_roundtrip(recs in proptest::collection::vec(arb_record(), 0..20)) {
        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            for r in &recs {
                w.write(r).unwrap();
            }
        }
        let (out, err) = ChunkedReader::from_bytes(buf).read_all();
        prop_assert!(err.is_none());
        prop_assert_eq!(out, recs);
    }

    #[test]
    fn any_truncation_is_detected_not_misread(
        recs in proptest::collection::vec(arb_record(), 1..6),
        frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            for r in &recs {
                w.write(r).unwrap();
            }
        }
        let cut = ((buf.len() as f64) * frac) as usize;
        let (out, err) = ChunkedReader::from_bytes(buf[..cut].to_vec()).read_all();
        // Either the cut landed on a record boundary (clean prefix) or
        // the reader reports corruption; it must never fabricate records.
        prop_assert!(out.len() <= recs.len());
        for (a, b) in out.iter().zip(recs.iter()) {
            prop_assert_eq!(a, b);
        }
        if out.len() < recs.len() {
            let clean_boundary = {
                // Compute cumulative encoded sizes to see if `cut` is a boundary.
                let mut sizes = vec![0usize];
                let mut acc = 0;
                for r in &recs {
                    acc += r.encode().len();
                    sizes.push(acc);
                }
                sizes.contains(&cut)
            };
            prop_assert!(err.is_some() || clean_boundary);
        }
    }
}

proptest! {
    /// Arbitrary garbage never panics the reader: every byte sequence
    /// either decodes or reports an error.
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let (_out, _err) = ChunkedReader::from_bytes(bytes).read_all();
    }

    /// Single-byte corruption anywhere in a valid file never panics
    /// and never yields more records than were written; records before
    /// the corrupted one are returned intact.
    #[test]
    fn single_byte_corruption_is_contained(
        recs in proptest::collection::vec(arb_record(), 1..6),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            for r in &recs {
                w.write(r).unwrap();
            }
        }
        let pos = pos_seed % buf.len();
        buf[pos] ^= xor;
        let (out, err) = ChunkedReader::from_bytes(buf).read_all();
        // Corrupting a length field may cause over-read (reported as
        // corruption), but never fabrication of extra valid records
        // beyond the encoded count.
        prop_assert!(out.len() <= recs.len());
        if out.len() == recs.len() && err.is_none() {
            // The flip landed somewhere immaterial only if decode is
            // not canonical; re-encoding must reproduce one of the two
            // buffers' record sets. At minimum the records must still
            // round-trip individually.
            for r in &out {
                let wire = r.encode();
                let header = mrt::MrtHeader::decode(&wire).unwrap();
                let back = MrtRecord::decode(&header, &wire[mrt::MrtHeader::LEN..]).unwrap();
                prop_assert_eq!(&back, r);
            }
        }
    }
}
