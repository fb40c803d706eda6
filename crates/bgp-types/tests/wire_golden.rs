//! Golden wire vectors for the RFC 4271 / RFC 4760 codec.
//!
//! Every vector is written out byte by byte from the RFC layouts, not
//! produced by the encoder. Each test asserts the decoded value,
//! re-encodes it to the same bytes, and pins the exact error at every
//! truncation point: of the whole message, and of the body under a
//! header whose length is fixed up to match the cut, so the errors of
//! the structures inside the body are pinned too.

use std::fmt::Debug;
use std::net::IpAddr;
use std::ops::RangeInclusive;

use bgp_types::message::{decode_attrs, decode_nlri};
use bgp_types::CodecError::{self, BadLength, Invalid, Truncated};
use bgp_types::{AsPath, AsPathSegment, Asn, BgpMessage, BgpUpdate, Community, Origin};
use bgp_types::{CommunitySet, PathAttributes, Prefix};

const OPEN: u8 = 1;
const UPDATE: u8 = 2;
const NOTIFICATION: u8 = 3;
const KEEPALIVE: u8 = 4;

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

/// RFC 4271 §4.1: 16-byte all-ones marker, total length, type, body.
fn message(ty: u8, body: &[u8]) -> Vec<u8> {
    let mut wire = vec![0xFF; 16];
    wire.extend_from_slice(&(19 + body.len() as u16).to_be_bytes());
    wire.push(ty);
    wire.extend_from_slice(body);
    wire
}

fn decode(wire: &[u8]) -> Result<(), CodecError> {
    BgpMessage::decode(wire).map(drop)
}

/// Every cut of the whole message, as read off the wire.
fn message_cuts(wire: &[u8]) -> Cuts<CodecError> {
    cuts(wire.len(), |n| decode(&wire[..n]))
}

/// Every cut of the body, re-framed under a header that matches it.
fn body_cuts(ty: u8, body: &[u8]) -> Cuts<CodecError> {
    cuts(body.len(), |n| decode(&message(ty, &body[..n])))
}

/// The value decodes from `wire`, re-encodes to `wire`, and trailing
/// bytes past the declared length are ignored.
fn assert_golden(wire: &[u8], want: &BgpMessage) {
    assert_eq!(&BgpMessage::decode(wire).unwrap(), want);
    assert_eq!(&want.encode()[..], wire);
    let mut longer = wire.to_vec();
    longer.extend_from_slice(&[0xAA, 0xBB]);
    assert_eq!(&BgpMessage::decode(&longer).unwrap(), want);
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

const HEADER_CUTS: (RangeInclusive<usize>, Result<(), CodecError>) =
    (0..=18, Err(Truncated("BGP header")));

#[test]
fn open() {
    let body = [
        4, // version
        0xfd, 0xe9, // my AS 65001
        0x00, 0xb4, // hold time 180
        10, 0, 0, 1, // BGP identifier
        0, // optional parameters length
    ];
    let wire = message(OPEN, &body);
    assert_golden(
        &wire,
        &BgpMessage::Open {
            asn: Asn(65001),
            hold_time: 180,
            bgp_id: 0x0a00_0001,
        },
    );
    assert_eq!(
        message_cuts(&wire),
        [HEADER_CUTS, (19..=28, Err(Truncated("BGP body")))]
    );
    assert_eq!(
        body_cuts(OPEN, &body),
        [(0..=9, Err(Truncated("OPEN body")))]
    );
}

/// Withdrawn routes, every attribute the codec knows, and NLRI.
const UPDATE_V4: &[u8] = &[
    0, 4, // withdrawn routes length
    24, 198, 51, 100, // 198.51.100.0/24
    0, 49, // total path attribute length
    0x40, 1, 1, 0, // ORIGIN IGP
    0x40, 2, 10, // AS_PATH
    2, 2, 0, 0, 0xfd, 0xe9, 0, 0, 0x0d, 0x1c, // AS_SEQUENCE 65001 3356
    0x40, 3, 4, 192, 0, 2, 1, // NEXT_HOP
    0x80, 4, 4, 0, 0, 0, 50, // MULTI_EXIT_DISC
    0x40, 5, 4, 0, 0, 0, 100, // LOCAL_PREF
    0xc0, 8, 8, // COMMUNITIES
    0x0d, 0x1c, 0x00, 0x64, // 3356:100
    0x0d, 0x1c, 0x02, 0x9a, // 3356:666
    24, 203, 0, 113, // 203.0.113.0/24
    25, 203, 0, 113, 128, // 203.0.113.128/25
];

#[test]
fn update_with_withdrawals_attributes_and_nlri() {
    let wire = message(UPDATE, UPDATE_V4);
    let want = BgpMessage::Update(BgpUpdate {
        withdrawals: vec![p("198.51.100.0/24")],
        attrs: Some(PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::from_sequence([65001, 3356]),
            next_hop: Some(ip("192.0.2.1")),
            med: Some(50),
            local_pref: Some(100),
            communities: CommunitySet::from_iter([
                Community::new(3356, 100),
                Community::new(3356, 666),
            ]),
        }),
        announcements: vec![p("203.0.113.0/24"), p("203.0.113.128/25")],
    });
    assert_golden(&wire, &want);
    assert_eq!(
        message_cuts(&wire),
        [HEADER_CUTS, (19..=84, Err(Truncated("BGP body")))]
    );
    assert_eq!(
        body_cuts(UPDATE, UPDATE_V4),
        [
            (0..=1, Err(Truncated("UPDATE withdrawn length"))),
            (2..=5, Err(BadLength("UPDATE withdrawn routes"))),
            (6..=7, Err(Truncated("UPDATE attribute length"))),
            (8..=56, Err(BadLength("UPDATE path attributes"))),
            (57..=57, Ok(())),
            (58..=60, Err(Truncated("NLRI body"))),
            (61..=61, Ok(())),
            (62..=65, Err(Truncated("NLRI body"))),
        ]
    );
    let attrs = &UPDATE_V4[8..57];
    assert_eq!(
        cuts(attrs.len(), |n| decode_attrs(&attrs[..n]).map(drop)),
        [
            (0..=0, Ok(())),
            (1..=1, Err(Truncated("attribute header"))),
            (2..=2, Err(Truncated("attribute length"))),
            (3..=3, Err(BadLength("attribute body"))),
            (4..=4, Ok(())),
            (5..=5, Err(Truncated("attribute header"))),
            (6..=6, Err(Truncated("attribute length"))),
            (7..=16, Err(BadLength("attribute body"))),
            (17..=17, Ok(())),
            (18..=18, Err(Truncated("attribute header"))),
            (19..=19, Err(Truncated("attribute length"))),
            (20..=23, Err(BadLength("attribute body"))),
            (24..=24, Ok(())),
            (25..=25, Err(Truncated("attribute header"))),
            (26..=26, Err(Truncated("attribute length"))),
            (27..=30, Err(BadLength("attribute body"))),
            (31..=31, Ok(())),
            (32..=32, Err(Truncated("attribute header"))),
            (33..=33, Err(Truncated("attribute length"))),
            (34..=37, Err(BadLength("attribute body"))),
            (38..=38, Ok(())),
            (39..=39, Err(Truncated("attribute header"))),
            (40..=40, Err(Truncated("attribute length"))),
            (41..=48, Err(BadLength("attribute body"))),
        ]
    );
}

/// IPv6 NLRI in MP_REACH_NLRI / MP_UNREACH_NLRI (RFC 4760), and an
/// AS_SET segment.
const UPDATE_MP: &[u8] = &[
    0, 0, // withdrawn routes length
    0, 67, // total path attribute length
    0x40, 1, 1, 2, // ORIGIN INCOMPLETE
    0x40, 2, 16, // AS_PATH
    2, 1, 0, 0, 0xfd, 0xe9, // AS_SEQUENCE 65001
    1, 2, 0, 0, 0x1b, 0x1b, 0, 0, 0x0d, 0x1c, // AS_SET 6939 3356
    0x80, 14, 28, // MP_REACH_NLRI
    0, 2, 1, // AFI IPv6, SAFI unicast
    16, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, // next hop 2001:db8::1
    0, // reserved
    48, 0x20, 0x01, 0x0d, 0xb8, 0xbe, 0xef, // 2001:db8:beef::/48
    0x80, 15, 10, // MP_UNREACH_NLRI
    0, 2, 1, // AFI IPv6, SAFI unicast
    48, 0x20, 0x01, 0x0d, 0xb8, 0xde, 0xad, // 2001:db8:dead::/48
];

#[test]
fn update_with_mp_reach_and_mp_unreach() {
    let wire = message(UPDATE, UPDATE_MP);
    let want = BgpMessage::Update(BgpUpdate {
        withdrawals: vec![p("2001:db8:dead::/48")],
        attrs: Some(PathAttributes {
            origin: Origin::Incomplete,
            as_path: AsPath::from_segments(vec![
                AsPathSegment::Sequence(vec![Asn(65001)]),
                AsPathSegment::Set(vec![Asn(6939), Asn(3356)]),
            ]),
            next_hop: Some(ip("2001:db8::1")),
            med: None,
            local_pref: None,
            communities: CommunitySet::new(),
        }),
        announcements: vec![p("2001:db8:beef::/48")],
    });
    assert_golden(&wire, &want);
    assert_eq!(
        message_cuts(&wire),
        [HEADER_CUTS, (19..=89, Err(Truncated("BGP body")))]
    );
    assert_eq!(
        body_cuts(UPDATE, UPDATE_MP),
        [
            (0..=1, Err(Truncated("UPDATE withdrawn length"))),
            (2..=3, Err(Truncated("UPDATE attribute length"))),
            (4..=70, Err(BadLength("UPDATE path attributes"))),
        ]
    );
    // The attribute block alone, cut anywhere.
    let attrs = &UPDATE_MP[4..];
    assert_eq!(
        cuts(attrs.len(), |n| decode_attrs(&attrs[..n]).map(drop)),
        [
            (0..=0, Ok(())),
            (1..=1, Err(Truncated("attribute header"))),
            (2..=2, Err(Truncated("attribute length"))),
            (3..=3, Err(BadLength("attribute body"))),
            (4..=4, Ok(())),
            (5..=5, Err(Truncated("attribute header"))),
            (6..=6, Err(Truncated("attribute length"))),
            (7..=22, Err(BadLength("attribute body"))),
            (23..=23, Ok(())),
            (24..=24, Err(Truncated("attribute header"))),
            (25..=25, Err(Truncated("attribute length"))),
            (26..=53, Err(BadLength("attribute body"))),
            (54..=54, Ok(())),
            (55..=55, Err(Truncated("attribute header"))),
            (56..=56, Err(Truncated("attribute length"))),
            (57..=66, Err(BadLength("attribute body"))),
        ]
    );
}

#[test]
fn notification() {
    let body = [6, 2]; // Cease / Administrative Shutdown
    let wire = message(NOTIFICATION, &body);
    assert_golden(
        &wire,
        &BgpMessage::Notification {
            code: 6,
            subcode: 2,
        },
    );
    assert_eq!(
        message_cuts(&wire),
        [HEADER_CUTS, (19..=20, Err(Truncated("BGP body")))]
    );
    assert_eq!(
        body_cuts(NOTIFICATION, &body),
        [(0..=1, Err(Truncated("NOTIFICATION body")))]
    );
}

#[test]
fn keepalive() {
    let wire = message(KEEPALIVE, &[]);
    assert_eq!(wire.len(), 19);
    assert_golden(&wire, &BgpMessage::Keepalive);
    assert_eq!(message_cuts(&wire), [HEADER_CUTS]);
}

#[test]
fn header_errors_in_wire_order() {
    let keepalive = message(KEEPALIVE, &[]);
    // A short header is truncated before its marker is looked at.
    let mut short = keepalive[..18].to_vec();
    short[0] = 0;
    assert_eq!(decode(&short), Err(Truncated("BGP header")));
    let mut marker = keepalive.clone();
    marker[15] = 0xFE;
    assert_eq!(decode(&marker), Err(CodecError::BadMarker));
    for len in [0u16, 18, 4097, u16::MAX] {
        let mut bad = keepalive.clone();
        bad[16..18].copy_from_slice(&len.to_be_bytes());
        assert_eq!(decode(&bad), Err(BadLength("BGP header")), "length {len}");
    }
    let mut ty = keepalive;
    ty[18] = 9;
    assert_eq!(decode(&ty), Err(CodecError::UnknownType(9)));
}

#[test]
fn nlri_entries_cut_anywhere() {
    let v4: &[u8] = &[25, 203, 0, 113, 128];
    let v6: &[u8] = &[48, 0x20, 0x01, 0x0d, 0xb8, 0xbe, 0xef];
    assert_eq!(decode_nlri(&mut &v4[..], true), Ok(p("203.0.113.128/25")));
    assert_eq!(
        decode_nlri(&mut &v6[..], false),
        Ok(p("2001:db8:beef::/48"))
    );
    for (entry, is_v4) in [(v4, true), (v6, false)] {
        assert_eq!(
            cuts(entry.len(), |n| decode_nlri(&mut &entry[..n], is_v4)
                .map(drop)),
            [
                (0..=0, Err(Truncated("NLRI length"))),
                (1..=entry.len() - 1, Err(Truncated("NLRI body"))),
            ]
        );
    }
    assert_eq!(
        decode_nlri(&mut &[33u8, 1, 2, 3, 4, 5][..], true),
        Err(Invalid("NLRI prefix length"))
    );
}

/// One attribute with its value cut to `n` bytes and its length field
/// fixed up to match, so the attribute's own checks see the cut.
fn attr_cuts(flags: u8, ty: u8, value: &[u8]) -> Cuts<CodecError> {
    cuts(value.len() + 1, |n| {
        let mut block = vec![flags, ty, n as u8];
        block.extend_from_slice(&value[..n]);
        decode_attrs(&block).map(drop)
    })
}

#[test]
fn attribute_values_cut_anywhere() {
    assert_eq!(
        attr_cuts(0x40, 1, &[0]),
        [(0..=0, Err(BadLength("ORIGIN"))), (1..=1, Ok(())),]
    );
    assert_eq!(
        attr_cuts(0x40, 2, &[2, 2, 0, 0, 0xfd, 0xe9, 0, 0, 0x0d, 0x1c]),
        [
            (0..=0, Ok(())),
            (1..=1, Err(Truncated("AS_PATH segment header"))),
            (2..=9, Err(Truncated("AS_PATH segment body"))),
            (10..=10, Ok(())),
        ]
    );
    assert_eq!(
        attr_cuts(0x40, 3, &[192, 0, 2, 1]),
        [(0..=3, Err(BadLength("NEXT_HOP"))), (4..=4, Ok(())),]
    );
    assert_eq!(
        attr_cuts(0x80, 4, &[0, 0, 0, 50]),
        [(0..=3, Err(BadLength("MED"))), (4..=4, Ok(())),]
    );
    assert_eq!(
        attr_cuts(0x40, 5, &[0, 0, 0, 100]),
        [(0..=3, Err(BadLength("LOCAL_PREF"))), (4..=4, Ok(())),]
    );
    assert_eq!(
        attr_cuts(0xc0, 8, &[0x0d, 0x1c, 0x00, 0x64]),
        [
            (0..=0, Ok(())),
            (1..=3, Err(BadLength("COMMUNITIES"))),
            (4..=4, Ok(())),
        ]
    );
    assert_eq!(
        attr_cuts(0x80, 14, &UPDATE_MP[30..58]),
        [
            (0..=4, Err(Truncated("MP_REACH header"))),
            (5..=20, Err(Truncated("MP_REACH next hop"))),
            (21..=21, Ok(())),
            (22..=27, Err(Truncated("NLRI body"))),
            (28..=28, Ok(())),
        ]
    );
    assert_eq!(
        attr_cuts(0x80, 15, &UPDATE_MP[61..71]),
        [
            (0..=2, Err(Truncated("MP_UNREACH header"))),
            (3..=3, Ok(())),
            (4..=9, Err(Truncated("NLRI body"))),
            (10..=10, Ok(())),
        ]
    );
    // The extended-length form (flag 0x10) frames the same value.
    let ext = [0x50, 2, 0, 6, 2, 1, 0, 0, 0xfd, 0xe9];
    assert_eq!(
        decode_attrs(&ext).unwrap().attrs.as_path,
        AsPath::from_sequence([65001])
    );
    assert_eq!(
        cuts(ext.len(), |n| decode_attrs(&ext[..n]).map(drop)),
        [
            (0..=0, Ok(())),
            (1..=1, Err(Truncated("attribute header"))),
            (2..=3, Err(Truncated("attribute ext length"))),
            (4..=9, Err(BadLength("attribute body"))),
        ]
    );
}
