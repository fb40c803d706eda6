//! Golden wire vectors for the RFC 7854 message formats.
//!
//! Every vector is written out byte by byte from the RFC layouts, not
//! produced by the encoder. Each test asserts the decoded value,
//! re-encodes it to the same bytes where the encoder emits that shape,
//! and pins the exact error at every truncation point: of the whole
//! message as the stream reader frames it, and of the body as
//! `BmpMessage::decode` sees it.

use std::fmt::Debug;
use std::net::IpAddr;
use std::ops::RangeInclusive;

use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, CodecError, PathAttributes, Prefix};
use bmp::BmpError::{self, Bgp, Invalid, Truncated};
use bmp::{BmpMessage, BmpReader, InfoTlv, PeerDownReason, PeerFlags, PerPeerHeader};
use bmp::{StatTlv, Termination, TerminationReason};

const ROUTE_MONITORING: u8 = 0;
const STATISTICS_REPORT: u8 = 1;
const PEER_DOWN: u8 = 2;
const PEER_UP: u8 = 3;
const INITIATION: u8 = 4;
const TERMINATION: u8 = 5;
const ROUTE_MIRRORING: u8 = 6;

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

/// RFC 7854 §4.1 common header: version 3, total length, type.
fn message(ty: u8, body: &[u8]) -> Vec<u8> {
    let mut wire = vec![3];
    wire.extend_from_slice(&(6 + body.len() as u32).to_be_bytes());
    wire.push(ty);
    wire.extend_from_slice(body);
    wire
}

/// Concatenate wire pieces.
fn cat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

/// Every cut of the body, as `BmpMessage::decode` sees it.
fn body_cuts(ty: u8, body: &[u8]) -> Cuts<BmpError> {
    cuts(body.len(), |n| BmpMessage::decode(ty, &body[..n]).map(drop))
}

/// Every cut of the whole message, framed by the stream reader.
fn assert_framing_cuts(wire: &[u8]) {
    assert_eq!(
        cuts(wire.len(), |n| {
            BmpReader::new(&wire[..n])
                .next()
                .map_or(Ok(()), |r| r.map(drop))
        }),
        [
            (0..=0, Ok(())),
            (1..=5, Err(Truncated("common header"))),
            (6..=wire.len() - 1, Err(Truncated("message body"))),
        ]
    );
}

/// The message decodes from `wire` through the stream reader.
fn assert_decodes(wire: &[u8], want: &BmpMessage) {
    let (msgs, err) = BmpReader::new(wire).read_all();
    assert_eq!(err, None);
    assert_eq!(msgs, std::slice::from_ref(want));
}

/// As [`assert_decodes`], and the encoder emits exactly `wire`.
fn assert_golden(wire: &[u8], want: &BmpMessage) {
    assert_decodes(wire, want);
    assert_eq!(&want.encode()[..], wire);
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

/// RFC 7854 §4.2 per-peer header of an IPv4 global-instance peer.
const PEER_V4: &[u8] = &[
    0,    // peer type: global instance
    0x00, // flags: IPv4, pre-policy
    0, 0, 0, 0, 0, 0, 0, 0, // peer distinguisher
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 2, 1, // peer address
    0, 0, 0xfd, 0xe9, // peer AS 65001
    10, 0, 0, 1, // peer BGP ID
    0, 0, 0x03, 0xe8, // timestamp seconds 1000
    0, 0, 0, 0, // timestamp microseconds
];

fn peer_v4() -> PerPeerHeader {
    PerPeerHeader::global(ip("192.0.2.1"), Asn(65001), 0x0a00_0001, 1000)
}

/// The per-peer header of an IPv6 peer, post-policy, with a
/// distinguisher and microseconds.
const PEER_V6: &[u8] = &[
    1,    // peer type: RD instance
    0xc0, // flags: IPv6, post-policy
    0, 0, 0xfd, 0xe9, 0, 0, 0, 7, // peer distinguisher 65001:7
    0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, // 2001:db8::1
    0, 6, 0x1d, 0xac, // peer AS 400812
    10, 0, 0, 9, // peer BGP ID
    0, 0, 0x07, 0xd0, // timestamp seconds 2000
    0, 0, 0x01, 0xf4, // timestamp microseconds 500
];

fn peer_v6() -> PerPeerHeader {
    PerPeerHeader {
        peer_type: 1,
        flags: PeerFlags {
            ipv6: true,
            post_policy: true,
            legacy_as_path: false,
        },
        distinguisher: 0x0000_fde9_0000_0007,
        peer_address: ip("2001:db8::1"),
        peer_asn: Asn(400_812),
        peer_bgp_id: 0x0a00_0009,
        ts_sec: 2000,
        ts_usec: 500,
    }
}

#[test]
fn per_peer_headers() {
    for (wire, want) in [(PEER_V4, peer_v4()), (PEER_V6, peer_v6())] {
        let rest = [wire, &[0xAA][..]].concat();
        let mut slice = &rest[..];
        assert_eq!(PerPeerHeader::decode(&mut slice), Ok(want));
        assert_eq!(slice, [0xAA]);
        let mut out = bytes::BytesMut::new();
        want.encode(&mut out);
        assert_eq!(&out[..], wire);
        assert_eq!(
            cuts(wire.len(), |n| PerPeerHeader::decode(&mut &wire[..n])
                .map(drop)),
            [(0..=41, Err(Truncated("per-peer header")))]
        );
    }
}

/// An UPDATE announcing 203.0.113.0/24 via AS path 65001 137.
const UPDATE: &[u8] = &[
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
fn route_monitoring() {
    let body = cat(&[PEER_V4, UPDATE]);
    let wire = message(ROUTE_MONITORING, &body);
    let want = BmpMessage::RouteMonitoring {
        peer: peer_v4(),
        update: BgpMessage::Update(BgpUpdate::announce(
            vec!["203.0.113.0/24".parse::<Prefix>().unwrap()],
            PathAttributes::route(AsPath::from_sequence([65001, 137]), ip("192.0.2.1")),
        )),
    };
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(ROUTE_MONITORING, &body),
        [
            (0..=41, Err(Truncated("per-peer header"))),
            (42..=60, Err(Bgp(CodecError::Truncated("BGP header")))),
            (61..=92, Err(Bgp(CodecError::Truncated("BGP body")))),
        ]
    );
}

#[test]
fn statistics_report() {
    let body = cat(&[
        PEER_V4,
        &[0, 0, 0, 3],                                  // stats count
        &[0, 0, 0, 4, 0, 0, 0, 3],                      // type 0 (rejected prefixes), length 4
        &[0, 7, 0, 8, 0, 0, 0, 0, 0, 0x0c, 0x63, 0xe0], // type 7 (Adj-RIB-In routes) 812000
        &[0, 42, 0, 2, 9, 9],                           // unknown type 42, length 2
    ]);
    let wire = message(STATISTICS_REPORT, &body);
    let want = BmpMessage::StatisticsReport {
        peer: peer_v4(),
        stats: vec![
            StatTlv::RejectedPrefixes(3),
            StatTlv::AdjRibInRoutes(812_000),
            StatTlv::Unknown(42, vec![9, 9]),
        ],
    };
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(STATISTICS_REPORT, &body),
        [
            (0..=41, Err(Truncated("per-peer header"))),
            (42..=45, Err(Truncated("stats count"))),
            (46..=71, Err(Truncated("stat TLV"))),
        ]
    );
    // Counters of the wrong width are refused per type.
    for (ty, len, what) in [(1u8, 8u8, "stat 1 length"), (8, 4, "stat 8 length")] {
        let mut bad = cat(&[PEER_V4, &[0, 0, 0, 1, 0, ty, 0, len]]);
        bad.extend(std::iter::repeat_n(0, len as usize));
        assert_eq!(
            BmpMessage::decode(STATISTICS_REPORT, &bad),
            Err(Invalid(what))
        );
    }
    let mut trailing = body.clone();
    trailing.push(0);
    assert_eq!(
        BmpMessage::decode(STATISTICS_REPORT, &trailing),
        Err(Invalid("trailing bytes after stats"))
    );
}

const NOTIFICATION: &[u8] = &[
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // BGP marker
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, //
    0, 21, 3, // BGP length and type NOTIFICATION
    6, 2, // Cease / Administrative Shutdown
];

#[test]
fn peer_down_every_reason_code() {
    let notification = BgpMessage::Notification {
        code: 6,
        subcode: 2,
    };
    let reasons = [
        (
            1u8,
            NOTIFICATION,
            PeerDownReason::LocalNotification(notification.clone()),
        ),
        (2, &[0, 17][..], PeerDownReason::LocalFsmEvent(17)),
        (
            3,
            NOTIFICATION,
            PeerDownReason::RemoteNotification(notification),
        ),
        (4, &[][..], PeerDownReason::RemoteNoData),
    ];
    let mut pinned = Vec::new();
    for (code, data, reason) in reasons {
        let body = cat(&[PEER_V4, &[code], data]);
        let wire = message(PEER_DOWN, &body);
        let want = BmpMessage::PeerDown {
            peer: peer_v4(),
            reason,
        };
        assert_golden(&wire, &want);
        assert_framing_cuts(&wire);
        pinned.push((code, body_cuts(PEER_DOWN, &body)));
    }
    let common = [
        (0..=41, Err(Truncated("per-peer header"))),
        (42..=42, Err(Truncated("peer-down reason"))),
    ];
    let notification_cuts = [
        (43..=61, Err(Bgp(CodecError::Truncated("BGP header")))),
        (62..=63, Err(Bgp(CodecError::Truncated("BGP body")))),
    ];
    let fsm_cuts = [(43..=44, Err(Truncated("FSM event code")))];
    let with =
        |tail: &[(RangeInclusive<usize>, Result<(), BmpError>)]| [&common[..], tail].concat();
    assert_eq!(
        pinned,
        [
            (1, with(&notification_cuts)),
            (2, with(&fsm_cuts)),
            (3, with(&notification_cuts)),
            (4, with(&[])),
        ]
    );
    let bad = cat(&[PEER_V4, &[5]]);
    assert_eq!(
        BmpMessage::decode(PEER_DOWN, &bad),
        Err(Invalid("peer-down reason code"))
    );
}

/// OPEN from AS `hi lo` with hold time 180 and BGP ID 10.0.0.`id`.
fn open(hi: u8, lo: u8, id: u8) -> Vec<u8> {
    cat(&[
        &[0xff; 16],
        &[0, 29, 1],     // BGP length and type OPEN
        &[4, hi, lo],    // version, my AS
        &[0, 0xb4],      // hold time 180
        &[10, 0, 0, id], // BGP identifier
        &[0],            // optional parameters length
    ])
}

#[test]
fn peer_up() {
    let body = cat(&[
        PEER_V4,
        &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 2, 254], // local address
        &[0, 179],                                             // local port
        &[0x85, 0x4b],                                         // remote port 34123
        &open(0xfc, 0x00, 1),                                  // sent OPEN, AS 64512
        &open(0xfd, 0xe9, 2),                                  // received OPEN, AS 65001
    ]);
    let wire = message(PEER_UP, &body);
    let want = BmpMessage::PeerUp {
        peer: peer_v4(),
        local_address: ip("192.0.2.254"),
        local_port: 179,
        remote_port: 34123,
        sent_open: BgpMessage::Open {
            asn: Asn(64512),
            hold_time: 180,
            bgp_id: 0x0a00_0001,
        },
        received_open: BgpMessage::Open {
            asn: Asn(65001),
            hold_time: 180,
            bgp_id: 0x0a00_0002,
        },
    };
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(PEER_UP, &body),
        [
            (0..=41, Err(Truncated("per-peer header"))),
            (42..=61, Err(Truncated("peer-up session info"))),
            (62..=80, Err(Truncated("embedded BGP PDU header"))),
            (81..=90, Err(Truncated("embedded BGP PDU body"))),
            (91..=109, Err(Truncated("embedded BGP PDU header"))),
            (110..=119, Err(Truncated("embedded BGP PDU body"))),
        ]
    );
}

#[test]
fn peer_up_over_ipv6_with_information_tlvs() {
    // Trailing information TLVs are validated but not retained, so
    // this shape is decode-only.
    let body = cat(&[
        PEER_V6,
        &[
            0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xfe,
        ], // local 2001:db8::fe
        &[0, 179],     // local port
        &[0x85, 0x4b], // remote port 34123
        &open(0xfc, 0x00, 1),
        &open(0x5b, 0xa0, 9),            // AS_TRANS 23456
        &[0, 0, 0, 3, b'b', b'm', b'p'], // string TLV "bmp"
    ]);
    let wire = message(PEER_UP, &body);
    let want = BmpMessage::PeerUp {
        peer: peer_v6(),
        local_address: ip("2001:db8::fe"),
        local_port: 179,
        remote_port: 34123,
        sent_open: BgpMessage::Open {
            asn: Asn(64512),
            hold_time: 180,
            bgp_id: 0x0a00_0001,
        },
        received_open: BgpMessage::Open {
            asn: Asn(23456),
            hold_time: 180,
            bgp_id: 0x0a00_0009,
        },
    };
    assert_decodes(&wire, &want);
    assert_eq!(
        body_cuts(PEER_UP, &body),
        [
            (0..=41, Err(Truncated("per-peer header"))),
            (42..=61, Err(Truncated("peer-up session info"))),
            (62..=80, Err(Truncated("embedded BGP PDU header"))),
            (81..=90, Err(Truncated("embedded BGP PDU body"))),
            (91..=109, Err(Truncated("embedded BGP PDU header"))),
            (110..=119, Err(Truncated("embedded BGP PDU body"))),
            (120..=120, Ok(())),
            (121..=126, Err(Truncated("information TLV"))),
        ]
    );
}

#[test]
fn initiation() {
    let body = cat(&[
        &[0, 2, 0, 5, b'e', b'd', b'g', b'e', b'1'], // sysName
        &[0, 1, 0, 3, b's', b'i', b'm'],             // sysDescr
        &[0, 0, 0, 2, b'h', b'i'],                   // string
        &[0, 9, 0, 1, 7],                            // unknown type 9
    ]);
    let wire = message(INITIATION, &body);
    let want = BmpMessage::Initiation(vec![
        InfoTlv::SysName("edge1".into()),
        InfoTlv::SysDescr("sim".into()),
        InfoTlv::String("hi".into()),
        InfoTlv::Unknown(9, vec![7]),
    ]);
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(INITIATION, &body),
        [
            (0..=0, Ok(())),
            (1..=8, Err(Truncated("information TLV"))),
            (9..=9, Ok(())),
            (10..=15, Err(Truncated("information TLV"))),
            (16..=16, Ok(())),
            (17..=21, Err(Truncated("information TLV"))),
            (22..=22, Ok(())),
            (23..=26, Err(Truncated("information TLV"))),
        ]
    );
    assert_eq!(
        BmpMessage::decode(INITIATION, &[0, 2, 0, 1, 0xff]),
        Err(Invalid("non-UTF-8 information TLV"))
    );
}

#[test]
fn termination() {
    let body = cat(&[
        &[0, 1, 0, 2, 0, 2], // reason: out of resources
        &[
            0, 0, 0, 9, b'l', b'o', b'a', b'd', b' ', b's', b'h', b'e', b'd',
        ], // string
    ]);
    let wire = message(TERMINATION, &body);
    let want = BmpMessage::Termination(Termination {
        reason: TerminationReason::OutOfResources,
        info: Some("load shed".into()),
    });
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(TERMINATION, &body),
        [
            (0..=0, Err(Invalid("termination without reason TLV"))),
            (1..=5, Err(Truncated("termination TLV"))),
            (6..=6, Ok(())),
            (7..=18, Err(Truncated("termination TLV"))),
        ]
    );
    let cases: [(&[u8], BmpError); 3] = [
        (&[0, 1, 0, 1, 0], Invalid("termination reason length")),
        (
            &[0, 0, 0, 1, 0xff, 0, 1, 0, 2, 0, 0],
            Invalid("non-UTF-8 termination string"),
        ),
        (&[0, 7, 0, 0], Invalid("termination without reason TLV")),
    ];
    for (body, want) in cases {
        assert_eq!(BmpMessage::decode(TERMINATION, body), Err(want));
    }
}

#[test]
fn route_mirroring() {
    let body = cat(&[PEER_V4, &[0, 1, 0, 2, 9, 9]]);
    let wire = message(ROUTE_MIRRORING, &body);
    let want = BmpMessage::RouteMirroring {
        peer: peer_v4(),
        raw: bytes::Bytes::from_static(&[0, 1, 0, 2, 9, 9]),
    };
    assert_golden(&wire, &want);
    assert_framing_cuts(&wire);
    assert_eq!(
        body_cuts(ROUTE_MIRRORING, &body),
        [
            (0..=41, Err(Truncated("per-peer header"))),
            (42..=47, Ok(())),
        ]
    );
}

#[test]
fn common_header_errors() {
    let wire = message(INITIATION, &[]);
    let mut version = wire.clone();
    version[0] = 2;
    let mut short = wire.clone();
    short[1..5].copy_from_slice(&5u32.to_be_bytes());
    let mut huge = wire.clone();
    huge[1..5].copy_from_slice(&((1u32 << 20) + 1).to_be_bytes());
    let mut ty = wire.clone();
    ty[5] = 7;
    let cases = [
        (version, BmpError::BadVersion(2)),
        (short, BmpError::BadLength(5)),
        (huge, BmpError::BadLength((1 << 20) + 1)),
        (ty, BmpError::UnknownType(7)),
    ];
    for (wire, want) in cases {
        assert_eq!(BmpReader::new(&wire[..]).next(), Some(Err(want)));
    }
    // An embedded PDU whose header claims less than a header.
    let mut pdu = cat(&[PEER_V4, &[0; 20], &open(0xfc, 0x00, 1)]);
    pdu[42 + 20 + 17] = 18;
    assert_eq!(
        BmpMessage::decode(PEER_UP, &pdu),
        Err(Truncated("embedded BGP PDU body"))
    );
    let mut marker = cat(&[
        PEER_V4,
        &[0; 20],
        &open(0xfc, 0x00, 1),
        &open(0xfd, 0xe9, 2),
    ]);
    marker[42 + 20] = 0;
    assert_eq!(
        BmpMessage::decode(PEER_UP, &marker),
        Err(Bgp(CodecError::BadMarker))
    );
}
