//! Golden wire vectors for the RFC 6396 record formats.
//!
//! Every vector is written out byte by byte from the RFC layouts, not
//! produced by the encoder. Each test asserts the decoded value,
//! re-encodes it to the same bytes where the encoder emits that shape,
//! and pins the exact error at every truncation point: of the common
//! header, of the whole record as the reader frames it, and of the
//! body under a header whose length is fixed up to match the cut.

use std::fmt::Debug;
use std::net::IpAddr;
use std::ops::RangeInclusive;

use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, CodecError, Community, PathAttributes};
use bgp_types::{Prefix, SessionState};
use mrt::table_dump_v2::TableDumpV2;
use mrt::MrtError::{self, Bgp, Invalid, Truncated, Unsupported};
use mrt::{Bgp4mp, ChunkedReader, MrtBody, MrtHeader, MrtRecord, MrtType};
use mrt::{PeerEntry, PeerIndexTable, RibEntry, RibRow};

const TABLE_DUMP_V2: u16 = 13;
const BGP4MP: u16 = 16;

/// The cuts `0..len` grouped into runs with the same outcome.
type Cuts<E> = Vec<(RangeInclusive<usize>, Result<(), E>)>;

fn cuts<E: PartialEq + Debug>(len: usize, decode: impl Fn(usize) -> Result<(), E>) -> Cuts<E> {
    let mut out: Cuts<E> = Vec::new();
    for cut in 0..len {
        let got = decode(cut);
        match out.last_mut() {
            Some((range, last)) if *last == got => *range = *range.start()..=cut,
            _ => out.push((cut..=cut, got)),
        }
    }
    out
}

/// RFC 6396 §2: timestamp, type, subtype, length, then the body.
fn record(ty: u16, subtype: u16, body: &[u8]) -> Vec<u8> {
    let mut wire = vec![0x55, 0xbc, 0x7a, 0x28]; // 1438415400
    wire.extend_from_slice(&ty.to_be_bytes());
    wire.extend_from_slice(&subtype.to_be_bytes());
    wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
    wire.extend_from_slice(body);
    wire
}

const TIMESTAMP: u32 = 1_438_415_400;

fn header(ty: u16, subtype: u16, length: usize) -> MrtHeader {
    MrtHeader {
        timestamp: TIMESTAMP,
        mrt_type: MrtType::from_code(ty),
        subtype,
        length: length as u32,
    }
}

/// Decode `body` under a header of type `ty`/`subtype`.
fn decode(ty: u16, subtype: u16, body: &[u8]) -> Result<MrtBody, MrtError> {
    MrtRecord::decode(&header(ty, subtype, body.len()), body).map(|r| r.body)
}

/// Every cut of the body, under a header whose length matches it.
fn body_cuts(ty: u16, subtype: u16, body: &[u8]) -> Cuts<MrtError> {
    cuts(body.len(), |n| decode(ty, subtype, &body[..n]).map(drop))
}

/// Every cut of the whole record, framed by the reader.
fn framed_cuts(wire: &[u8]) -> Cuts<MrtError> {
    cuts(wire.len(), |n| {
        ChunkedReader::from_bytes(wire[..n].to_vec())
            .next()
            .map_or(Ok(()), |r| r.map(drop))
    })
}

/// Every cut of the whole record: reader framing, then the first
/// twelve bytes through `MrtHeader::decode`.
fn assert_framing_cuts(wire: &[u8]) {
    assert_eq!(
        framed_cuts(wire),
        [
            (0..=0, Ok(())),
            (1..=11, Err(Truncated("MRT header"))),
            (12..=wire.len() - 1, Err(Truncated("MRT body"))),
        ]
    );
    assert_eq!(
        cuts(MrtHeader::LEN, |n| MrtHeader::decode(&wire[..n]).map(drop)),
        [(0..=11, Err(Truncated("MRT header")))]
    );
}

/// The record decodes from `wire` (as one framed record) to `want`.
fn assert_decodes(wire: &[u8], want: &MrtBody) {
    let (ty, subtype) = (
        u16::from_be_bytes([wire[4], wire[5]]),
        u16::from_be_bytes([wire[6], wire[7]]),
    );
    assert_eq!(
        MrtHeader::decode(wire).unwrap(),
        header(ty, subtype, wire.len() - MrtHeader::LEN)
    );
    let (records, err) = ChunkedReader::from_bytes(wire.to_vec()).read_all();
    assert_eq!(err, None);
    assert_eq!(
        records,
        [MrtRecord {
            timestamp: TIMESTAMP,
            body: want.clone(),
        }]
    );
}

/// As [`assert_decodes`], and the encoder emits exactly `wire`.
fn assert_golden(wire: &[u8], want: &MrtBody) {
    assert_decodes(wire, want);
    let rec = MrtRecord {
        timestamp: TIMESTAMP,
        body: want.clone(),
    };
    assert_eq!(&rec.encode()[..], wire);
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

const PEER_INDEX_TABLE: &[u8] = &[
    10, 0, 0, 1, // collector BGP ID
    0, 5, b'r', b'r', b'c', b'0', b'0', // view name
    0, 2,    // peer count
    0x02, // peer type: IPv4 address, 4-byte ASN
    192, 0, 2, 1, // peer BGP ID
    192, 0, 2, 1, // peer address
    0, 0, 0xfd, 0xe9, // peer AS 65001
    0x03, // peer type: IPv6 address, 4-byte ASN
    192, 0, 2, 2, // peer BGP ID
    0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, // 2001:db8::2
    0, 6, 0x1a, 0xfb, // peer AS 400123
];

fn peer_index_table() -> PeerIndexTable {
    PeerIndexTable {
        collector_bgp_id: 0x0a00_0001,
        view_name: "rrc00".into(),
        peers: vec![
            PeerEntry {
                bgp_id: 0xc000_0201,
                ip: ip("192.0.2.1"),
                asn: Asn(65001),
            },
            PeerEntry {
                bgp_id: 0xc000_0202,
                ip: ip("2001:db8::2"),
                asn: Asn(400_123),
            },
        ],
    }
}

#[test]
fn peer_index_table_record() {
    let wire = record(TABLE_DUMP_V2, 1, PEER_INDEX_TABLE);
    let want = MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(peer_index_table()));
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(TABLE_DUMP_V2, 1, PEER_INDEX_TABLE),
        [
            (0..=7, Err(Truncated("peer index table header"))),
            (8..=12, Err(Truncated("peer index view name"))),
            (13..=13, Err(Truncated("peer entry flags"))),
            (14..=25, Err(Truncated("peer entry body"))),
            (26..=26, Err(Truncated("peer entry flags"))),
            (27..=50, Err(Truncated("peer entry body"))),
        ]
    );
}

#[test]
fn peer_index_table_with_a_two_byte_asn_peer() {
    // The decoder reads 2-byte peer ASNs; the encoder always writes
    // four, so this shape is decode-only.
    let body = [
        10, 0, 0, 1, // collector BGP ID
        0, 0, // empty view name
        0, 1,    // peer count
        0x00, // peer type: IPv4 address, 2-byte ASN
        192, 0, 2, 9, // peer BGP ID
        192, 0, 2, 9, // peer address
        0xfd, 0xea, // peer AS 65002
    ];
    let wire = record(TABLE_DUMP_V2, 1, &body);
    let want = MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(PeerIndexTable {
        collector_bgp_id: 0x0a00_0001,
        view_name: String::new(),
        peers: vec![PeerEntry {
            bgp_id: 0xc000_0209,
            ip: ip("192.0.2.9"),
            asn: Asn(65002),
        }],
    }));
    assert_decodes(&wire, &want);
    assert_eq!(
        body_cuts(TABLE_DUMP_V2, 1, &body),
        [
            (0..=7, Err(Truncated("peer index table header"))),
            (8..=8, Err(Truncated("peer entry flags"))),
            (9..=18, Err(Truncated("peer entry body"))),
        ]
    );
}

const RIB_IPV4_UNICAST: &[u8] = &[
    0, 0, 0, 7, // sequence number
    15, 193, 204, // 193.204.0.0/15
    0, 2, // entry count
    0, 0, // peer index
    0x55, 0xbc, 0x7a, 0x28, // originated time
    0, 35, // attribute length
    0x40, 1, 1, 0, // ORIGIN IGP
    0x40, 2, 14, // AS_PATH
    2, 3, 0, 0, 0xfd, 0xe9, 0, 0, 0x0d, 0x1c, 0, 0, 0, 137, // AS_SEQUENCE 65001 3356 137
    0x40, 3, 4, 192, 0, 2, 1, // NEXT_HOP
    0xc0, 8, 4, 0x0d, 0x1c, 0x07, 0xd1, // COMMUNITIES 3356:2001
    0, 1, // peer index
    0x55, 0xbc, 0x7a, 0x28, // originated time
    0, 24, // attribute length
    0x40, 1, 1, 0, // ORIGIN IGP
    0x40, 2, 10, // AS_PATH
    2, 2, 0, 6, 0x1a, 0xfb, 0, 0, 0, 137, // AS_SEQUENCE 400123 137
    0x40, 3, 4, 192, 0, 2, 2, // NEXT_HOP
];

#[test]
fn rib_ipv4_unicast_record() {
    let wire = record(TABLE_DUMP_V2, 2, RIB_IPV4_UNICAST);
    let mut first =
        PathAttributes::route(AsPath::from_sequence([65001, 3356, 137]), ip("192.0.2.1"));
    first.communities.insert(Community::new(3356, 2001));
    let want = MrtBody::TableDumpV2(TableDumpV2::RibRow(RibRow {
        sequence: 7,
        prefix: p("193.204.0.0/15"),
        entries: vec![
            RibEntry {
                peer_index: 0,
                originated_time: TIMESTAMP,
                attrs: first,
            },
            RibEntry {
                peer_index: 1,
                originated_time: TIMESTAMP,
                attrs: PathAttributes::route(
                    AsPath::from_sequence([400_123, 137]),
                    ip("192.0.2.2"),
                ),
            },
        ],
    }));
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(TABLE_DUMP_V2, 2, RIB_IPV4_UNICAST),
        [
            (0..=3, Err(Truncated("RIB row header"))),
            (4..=4, Err(Bgp(CodecError::Truncated("NLRI length")))),
            (5..=6, Err(Bgp(CodecError::Truncated("NLRI body")))),
            (7..=8, Err(Truncated("RIB entry count"))),
            (9..=16, Err(Truncated("RIB entry header"))),
            (17..=51, Err(Truncated("RIB entry attributes"))),
            (52..=59, Err(Truncated("RIB entry header"))),
            (60..=83, Err(Truncated("RIB entry attributes"))),
        ]
    );
}

const RIB_IPV6_UNICAST: &[u8] = &[
    0, 0, 0, 8, // sequence number
    40, 0x20, 0x01, 0x0d, 0xb8, 0x01, // 2001:db8:100::/40
    0, 1, // entry count
    0, 1, // peer index
    0x55, 0xbc, 0x7a, 0x28, // originated time
    0, 41, // attribute length
    0x40, 1, 1, 0, // ORIGIN IGP
    0x40, 2, 10, // AS_PATH
    2, 2, 0, 6, 0x1a, 0xfb, 0, 0, 0x1b, 0x1b, // AS_SEQUENCE 400123 6939
    0x80, 14, 21, // MP_REACH_NLRI, next hop only
    0, 2, 1, // AFI IPv6, SAFI unicast
    16, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, // next hop 2001:db8::2
    0, // reserved
];

#[test]
fn rib_ipv6_unicast_record() {
    let wire = record(TABLE_DUMP_V2, 4, RIB_IPV6_UNICAST);
    let want = MrtBody::TableDumpV2(TableDumpV2::RibRow(RibRow {
        sequence: 8,
        prefix: p("2001:db8:100::/40"),
        entries: vec![RibEntry {
            peer_index: 1,
            originated_time: TIMESTAMP,
            attrs: PathAttributes::route(AsPath::from_sequence([400_123, 6939]), ip("2001:db8::2")),
        }],
    }));
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(TABLE_DUMP_V2, 4, RIB_IPV6_UNICAST),
        [
            (0..=3, Err(Truncated("RIB row header"))),
            (4..=4, Err(Bgp(CodecError::Truncated("NLRI length")))),
            (5..=9, Err(Bgp(CodecError::Truncated("NLRI body")))),
            (10..=11, Err(Truncated("RIB entry count"))),
            (12..=19, Err(Truncated("RIB entry header"))),
            (20..=60, Err(Truncated("RIB entry attributes"))),
        ]
    );
}

/// BGP4MP_MESSAGE_AS4 over an IPv4 session, carrying an UPDATE.
const MESSAGE_AS4_V4: &[u8] = &[
    0, 0, 0xfd, 0xe9, // peer AS 65001
    0, 0, 0x19, 0x2f, // local AS 6447
    0, 0, // interface index
    0, 1, // address family IPv4
    192, 0, 2, 1, // peer address
    192, 0, 2, 254, // local address
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // BGP marker
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, //
    0, 51, 2, // BGP length and type UPDATE
    0, 0, // withdrawn routes length
    0, 24, // total path attribute length
    0x40, 1, 1, 0, // ORIGIN IGP
    0x40, 2, 10, // AS_PATH
    2, 2, 0, 0, 0xfd, 0xe9, 0, 0, 0, 137, // AS_SEQUENCE 65001 137
    0x40, 3, 4, 192, 0, 2, 1, // NEXT_HOP
    24, 203, 0, 113, // 203.0.113.0/24
];

#[test]
fn bgp4mp_message_as4_record() {
    let wire = record(BGP4MP, 4, MESSAGE_AS4_V4);
    let want = MrtBody::Bgp4mp(Bgp4mp::Message {
        peer_asn: Asn(65001),
        local_asn: Asn(6447),
        peer_ip: ip("192.0.2.1"),
        local_ip: ip("192.0.2.254"),
        message: BgpMessage::Update(BgpUpdate::announce(
            vec![p("203.0.113.0/24")],
            PathAttributes::route(AsPath::from_sequence([65001, 137]), ip("192.0.2.1")),
        )),
    });
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(BGP4MP, 4, MESSAGE_AS4_V4),
        [
            (0..=11, Err(Truncated("BGP4MP session header"))),
            (12..=19, Err(Truncated("BGP4MP IPv4 addresses"))),
            (20..=38, Err(Bgp(CodecError::Truncated("BGP header")))),
            (39..=70, Err(Bgp(CodecError::Truncated("BGP body")))),
        ]
    );
}

#[test]
fn bgp4mp_message_as4_record_over_ipv6() {
    let body = [
        0, 0, 0xfd, 0xe9, // peer AS 65001
        0, 0, 0x31, 0x6e, // local AS 12654
        0, 0, // interface index
        0, 2, // address family IPv6
        0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, // peer 2001:db8::1
        0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, // local 2001:db8::ff
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // BGP marker
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, //
        0, 19, 4, // BGP length and type KEEPALIVE
    ];
    let wire = record(BGP4MP, 4, &body);
    let want = MrtBody::Bgp4mp(Bgp4mp::Message {
        peer_asn: Asn(65001),
        local_asn: Asn(12654),
        peer_ip: ip("2001:db8::1"),
        local_ip: ip("2001:db8::ff"),
        message: BgpMessage::Keepalive,
    });
    assert_golden(&wire, &want);
    assert_eq!(
        body_cuts(BGP4MP, 4, &body),
        [
            (0..=11, Err(Truncated("BGP4MP session header"))),
            (12..=43, Err(Truncated("BGP4MP IPv6 addresses"))),
            (44..=62, Err(Bgp(CodecError::Truncated("BGP header")))),
        ]
    );
}

const STATE_CHANGE_AS4: &[u8] = &[
    0, 0, 0xfd, 0xe9, // peer AS 65001
    0, 0, 0x31, 0x6e, // local AS 12654
    0, 0, // interface index
    0, 1, // address family IPv4
    192, 0, 2, 9, // peer address
    192, 0, 2, 254, // local address
    0, 5, // old state OpenConfirm
    0, 6, // new state Established
];

#[test]
fn bgp4mp_state_change_as4_record() {
    let wire = record(BGP4MP, 5, STATE_CHANGE_AS4);
    let want = MrtBody::Bgp4mp(Bgp4mp::StateChange {
        peer_asn: Asn(65001),
        local_asn: Asn(12654),
        peer_ip: ip("192.0.2.9"),
        local_ip: ip("192.0.2.254"),
        old_state: SessionState::OpenConfirm,
        new_state: SessionState::Established,
    });
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(BGP4MP, 5, STATE_CHANGE_AS4),
        [
            (0..=11, Err(Truncated("BGP4MP session header"))),
            (12..=19, Err(Truncated("BGP4MP IPv4 addresses"))),
            (20..=23, Err(Truncated("BGP4MP state change"))),
        ]
    );
}

#[test]
fn field_errors_name_the_field() {
    let with = |at: usize, bytes: &[u8], body: &[u8]| {
        let mut b = body.to_vec();
        b[at..at + bytes.len()].copy_from_slice(bytes);
        b
    };
    let cases: [(u16, u16, Vec<u8>, MrtError); 8] = [
        (
            BGP4MP,
            5,
            with(20, &[0, 7], STATE_CHANGE_AS4),
            Invalid("old FSM state"),
        ),
        (
            BGP4MP,
            5,
            with(22, &[0, 0], STATE_CHANGE_AS4),
            Invalid("new FSM state"),
        ),
        (
            BGP4MP,
            4,
            with(10, &[0, 3], MESSAGE_AS4_V4),
            Invalid("BGP4MP AFI"),
        ),
        (
            BGP4MP,
            1,
            MESSAGE_AS4_V4.to_vec(),
            Unsupported("2-byte ASN BGP4MP subtypes"),
        ),
        (
            BGP4MP,
            9,
            MESSAGE_AS4_V4.to_vec(),
            Unsupported("unknown BGP4MP subtype"),
        ),
        (
            BGP4MP,
            4,
            with(20, &[0], MESSAGE_AS4_V4),
            Bgp(CodecError::BadMarker),
        ),
        (
            TABLE_DUMP_V2,
            3,
            RIB_IPV4_UNICAST.to_vec(),
            Unsupported("unknown TABLE_DUMP_V2 subtype"),
        ),
        (
            TABLE_DUMP_V2,
            2,
            with(4, &[33], RIB_IPV4_UNICAST),
            Bgp(CodecError::Invalid("NLRI prefix length")),
        ),
    ];
    for (ty, subtype, body, want) in cases {
        assert_eq!(decode(ty, subtype, &body), Err(want));
    }
    // The body must be exactly the header's length.
    let short = header(BGP4MP, 5, STATE_CHANGE_AS4.len() + 1);
    assert_eq!(
        MrtRecord::decode(&short, STATE_CHANGE_AS4),
        Err(Truncated("MRT body"))
    );
    // An unknown record type is carried, not interpreted.
    assert_eq!(
        decode(99, 0, b"opaque"),
        Ok(MrtBody::Unknown(bytes::Bytes::from_static(b"opaque")))
    );
}
