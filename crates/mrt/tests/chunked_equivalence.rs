//! The streaming-reader equivalence harness.
//!
//! [`ChunkedReader`] must be *indistinguishable* from an independent
//! whole-buffer framer for every archive — valid, truncated
//! mid-record, or byte-mutated — and for every refill size: the same
//! records, the same single trailing error (if any), in the same
//! positions. These tests drive random archives and corruption
//! schedules through both and require identical result sequences,
//! plus a unit suite pinning the refill-boundary edge cases.

use bgp_types::{Asn, BgpMessage, SessionState};
use mrt::table_dump_v2::{PeerEntry, PeerIndexTable, RibEntry, RibRow, TableDumpV2};
use mrt::{Bgp4mp, ChunkedReader, MrtError, MrtHeader, MrtRecord, MrtWriter};
use proptest::prelude::*;

// ---------------------------------------------------------------- fixtures

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

fn state_change(ts: u32) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts,
        Bgp4mp::StateChange {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            old_state: SessionState::OpenConfirm,
            new_state: SessionState::Established,
        },
    )
}

fn pit(ts: u32, peers: u16) -> MrtRecord {
    MrtRecord::table_dump_v2(
        ts,
        TableDumpV2::PeerIndexTable(PeerIndexTable {
            collector_bgp_id: 0xC0_00_02_FF,
            view_name: String::new(),
            peers: (0..peers)
                .map(|i| PeerEntry {
                    bgp_id: 1000 + u32::from(i),
                    ip: format!("192.0.2.{}", i + 1).parse().unwrap(),
                    asn: Asn(65000 + u32::from(i)),
                })
                .collect(),
        }),
    )
}

fn rib_row(ts: u32, seq: u32, entries: u16) -> MrtRecord {
    MrtRecord::table_dump_v2(
        ts,
        TableDumpV2::RibRow(RibRow {
            sequence: seq,
            prefix: format!("10.{}.0.0/16", seq % 200).parse().unwrap(),
            entries: (0..entries)
                .map(|i| RibEntry {
                    peer_index: i,
                    originated_time: ts,
                    attrs: bgp_types::PathAttributes::route(
                        bgp_types::AsPath::from_sequence([65001, 3356, 137]),
                        "192.0.2.1".parse::<std::net::IpAddr>().unwrap(),
                    ),
                })
                .collect(),
        }),
    )
}

fn unknown(ts: u32, len: usize) -> MrtRecord {
    MrtRecord {
        timestamp: ts,
        body: mrt::MrtBody::Unknown(bytes::Bytes::from(vec![0xAB; len])),
    }
}

#[derive(Clone, Debug)]
enum Rec {
    Keepalive,
    StateChange,
    Pit(u16),
    Rib(u16),
    Unknown(usize),
}

fn build_archive(recs: &[Rec]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    let mut seq = 0u32;
    for (i, r) in recs.iter().enumerate() {
        let ts = i as u32 * 3;
        let rec = match r {
            Rec::Keepalive => keepalive(ts),
            Rec::StateChange => state_change(ts),
            Rec::Pit(peers) => pit(ts, *peers),
            Rec::Rib(entries) => {
                seq += 1;
                rib_row(ts, seq, *entries)
            }
            Rec::Unknown(len) => unknown(ts, *len),
        };
        w.write(&rec).unwrap();
    }
    buf
}

#[derive(Clone, Debug)]
enum Corruption {
    None,
    /// Cut the archive at this fraction (permille) of its length.
    Truncate(u32),
    /// XOR one byte at this fraction (permille) of the length.
    Mutate(u32, u8),
    /// Append raw garbage.
    GarbageTail(usize),
}

fn corrupt(mut bytes: Vec<u8>, c: &Corruption) -> Vec<u8> {
    match *c {
        Corruption::None => {}
        Corruption::Truncate(permille) => {
            let cut = (bytes.len() as u64 * u64::from(permille) / 1000) as usize;
            bytes.truncate(cut);
        }
        Corruption::Mutate(permille, xor) => {
            if !bytes.is_empty() {
                let at = ((bytes.len() - 1) as u64 * u64::from(permille) / 1000) as usize;
                bytes[at] ^= xor | 1; // never a no-op flip
            }
        }
        Corruption::GarbageTail(n) => bytes.extend(std::iter::repeat_n(0xEE, n)),
    }
    bytes
}

// ---------------------------------------------------------------- drivers

type Outcome = Vec<Result<MrtRecord, MrtError>>;

/// Gold reference: an independent whole-buffer framer — the RFC 6396
/// common header, the reader's body-size cap, poisoned after the first
/// error — decoding each body with `MrtRecord::decode`.
fn decode_slice(mut bytes: &[u8]) -> Outcome {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let item = if bytes.len() < MrtHeader::LEN {
            Err(MrtError::Truncated("MRT header"))
        } else {
            let header = MrtHeader::decode(bytes).unwrap();
            let end = MrtHeader::LEN + header.length as usize;
            if header.length > mrt::reader::MAX_RECORD_LEN {
                Err(MrtError::OversizedRecord(header.length))
            } else if bytes.len() < end {
                Err(MrtError::Truncated("MRT body"))
            } else {
                let rec = MrtRecord::decode(&header, &bytes[MrtHeader::LEN..end]);
                bytes = &bytes[end..];
                rec
            }
        };
        let failed = item.is_err();
        out.push(item);
        if failed {
            break;
        }
    }
    out
}

/// The streaming sequential reader, with a tiny refill window so
/// records routinely straddle refills.
fn decode_chunked(bytes: &[u8], read_size: usize) -> Outcome {
    let mut r = ChunkedReader::from_bytes(bytes.to_vec()).with_read_size(read_size);
    std::iter::from_fn(|| r.next()).collect()
}

fn assert_equivalent(bytes: &[u8]) {
    let gold = decode_slice(bytes);
    for read_size in [7, 64] {
        assert_eq!(
            decode_chunked(bytes, read_size),
            gold,
            "chunked reader (read_size {read_size}) diverged from the reference framer"
        );
    }
}

// ---------------------------------------------------------------- proptest

fn rec_strategy() -> impl Strategy<Value = Rec> {
    prop_oneof![
        Just(Rec::Keepalive),
        Just(Rec::StateChange),
        (1u16..4).prop_map(Rec::Pit),
        (0u16..3).prop_map(Rec::Rib),
        (0usize..32).prop_map(Rec::Unknown),
    ]
}

fn corruption_strategy() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::None),
        (1u32..1000).prop_map(Corruption::Truncate),
        ((1u32..1000), any::<u8>()).prop_map(|(p, x)| Corruption::Mutate(p, x)),
        (1usize..24).prop_map(Corruption::GarbageTail),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_matches_reference_for_any_archive_and_corruption(
        recs in proptest::collection::vec(rec_strategy(), 0..24),
        corruption in corruption_strategy(),
    ) {
        let bytes = corrupt(build_archive(&recs), &corruption);
        assert_equivalent(&bytes);
    }
}

// ------------------------------------------------------ refill boundaries

/// A record straddling a refill edge: a 7-byte read splits even the
/// 12-byte header; 64 cuts mid-record-stream. All must agree.
#[test]
fn record_straddles_refill_edge() {
    let bytes = build_archive(&[
        Rec::Keepalive,
        Rec::StateChange,
        Rec::Rib(2),
        Rec::Keepalive,
        Rec::Unknown(17),
    ]);
    assert_equivalent(&bytes);
}

/// A PIT as the very first record, and PITs next to each other or at
/// the tail, read back unchanged.
#[test]
fn leading_pit_reads_identically() {
    let bytes = build_archive(&[Rec::Pit(3), Rec::Rib(3), Rec::Rib(1), Rec::Keepalive]);
    assert_equivalent(&bytes);
    // And PIT-adjacent cuts: consecutive PITs, PIT at the tail.
    let bytes = build_archive(&[Rec::Pit(1), Rec::Pit(2), Rec::Keepalive, Rec::Pit(3)]);
    assert_equivalent(&bytes);
}

/// A final partial record (truncated header, truncated body) ends the
/// reader with the reference framer's trailing error.
#[test]
fn final_partial_record_truncates_identically() {
    let whole = build_archive(&[Rec::Keepalive, Rec::StateChange, Rec::Keepalive]);
    for cut in [whole.len() - 1, whole.len() - 5, whole.len() - 13, 5, 1] {
        let bytes = &whole[..cut];
        let gold = decode_slice(bytes);
        assert!(
            matches!(gold.last(), Some(Err(_))),
            "cut {cut} must end in an error"
        );
        assert_equivalent(bytes);
    }
}

/// Empty input: no records, no errors, at every refill size.
#[test]
fn empty_archive_yields_nothing() {
    assert_equivalent(&[]);
    assert!(decode_chunked(&[], 7).is_empty());
}

/// An oversized length field poisons the reader at the reference
/// framer's position.
#[test]
fn oversized_record_poisons_identically() {
    let mut bytes = build_archive(&[Rec::Keepalive]);
    // Hand-craft a header claiming a 2 MiB body.
    bytes.extend_from_slice(&7u32.to_be_bytes());
    bytes.extend_from_slice(&16u16.to_be_bytes());
    bytes.extend_from_slice(&4u16.to_be_bytes());
    bytes.extend_from_slice(&(2u32 << 20).to_be_bytes());
    let gold = decode_slice(&bytes);
    assert_eq!(gold.len(), 2);
    assert!(matches!(gold[1], Err(MrtError::OversizedRecord(_))));
    assert_equivalent(&bytes);
}
