//! Property tests: BMP wire round-trips and reader robustness against
//! arbitrary corruption.

use bmp::msg::BmpMessage;
use bmp::peer::PerPeerHeader;
use bmp::reader::BmpReader;
use bmp::tlv::{InfoTlv, StatTlv};
use bmp::PeerDownReason;

use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, PathAttributes, Prefix};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 8u8..=32).prop_map(|(bits, len)| {
        let masked = if len == 32 {
            bits
        } else {
            (bits >> (32 - len)) << (32 - len)
        };
        Prefix::v4(std::net::Ipv4Addr::from(masked), len)
    })
}

fn arb_peer() -> impl Strategy<Value = PerPeerHeader> {
    (any::<[u8; 4]>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
        |(ip, asn, bgp_id, ts)| {
            PerPeerHeader::global(
                std::net::IpAddr::V4(std::net::Ipv4Addr::from(ip)),
                Asn(asn),
                bgp_id,
                ts,
            )
        },
    )
}

fn arb_update() -> impl Strategy<Value = BgpUpdate> {
    (
        proptest::collection::vec(arb_prefix(), 0..4),
        proptest::collection::vec(arb_prefix(), 0..4),
        proptest::collection::vec(1u32..100_000, 1..6),
    )
        .prop_map(|(withdrawals, announcements, path)| {
            let attrs = (!announcements.is_empty()).then(|| {
                PathAttributes::route(AsPath::from_sequence(path), "192.0.2.1".parse().unwrap())
            });
            BgpUpdate {
                withdrawals,
                attrs,
                announcements,
            }
        })
        .prop_filter("collectors never emit empty updates", |u| !u.is_empty())
}

fn arb_stats() -> impl Strategy<Value = Vec<StatTlv>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u32>().prop_map(StatTlv::RejectedPrefixes),
            any::<u32>().prop_map(StatTlv::DuplicateAdvertisements),
            any::<u32>().prop_map(StatTlv::DuplicateWithdraws),
            any::<u32>().prop_map(StatTlv::AsPathLoop),
            any::<u64>().prop_map(StatTlv::AdjRibInRoutes),
            any::<u64>().prop_map(StatTlv::LocRibRoutes),
        ],
        0..8,
    )
}

fn arb_message() -> impl Strategy<Value = BmpMessage> {
    prop_oneof![
        (arb_peer(), arb_update()).prop_map(|(peer, u)| BmpMessage::RouteMonitoring {
            peer,
            update: BgpMessage::Update(u),
        }),
        (arb_peer(), arb_stats())
            .prop_map(|(peer, stats)| BmpMessage::StatisticsReport { peer, stats }),
        (arb_peer(), any::<u16>()).prop_map(|(peer, ev)| BmpMessage::PeerDown {
            peer,
            reason: PeerDownReason::LocalFsmEvent(ev),
        }),
        arb_peer().prop_map(|peer| BmpMessage::PeerDown {
            peer,
            reason: PeerDownReason::RemoteNoData,
        }),
        // OPEN carries a 2-byte My-AS field (4-byte ASNs become
        // AS_TRANS on the wire), so generate 16-bit ASNs here.
        (arb_peer(), any::<u16>(), any::<u16>()).prop_map(|(peer, a, b)| BmpMessage::PeerUp {
            peer,
            local_address: "192.0.2.254".parse().unwrap(),
            local_port: 179,
            remote_port: 33001,
            sent_open: BgpMessage::Open {
                asn: Asn(a as u32),
                hold_time: 180,
                bgp_id: a as u32
            },
            received_open: BgpMessage::Open {
                asn: Asn(b as u32),
                hold_time: 90,
                bgp_id: b as u32
            },
        }),
        proptest::collection::vec("[a-z]{1,12}", 0..3).prop_map(|names| BmpMessage::Initiation(
            names.into_iter().map(InfoTlv::SysName).collect()
        )),
    ]
}

proptest! {
    /// encode → decode is the identity for every message shape.
    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let wire = msg.encode();
        let mut reader = BmpReader::new(&wire[..]);
        let back = reader.next().unwrap().unwrap();
        prop_assert_eq!(back, msg);
        prop_assert!(reader.next().is_none());
    }

    /// A stream of messages survives concatenation.
    #[test]
    fn stream_roundtrip(msgs in proptest::collection::vec(arb_message(), 1..8)) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let (back, err) = BmpReader::new(&wire[..]).read_all();
        prop_assert!(err.is_none());
        prop_assert_eq!(back, msgs);
    }

    /// The reader never panics on arbitrary bytes — it either decodes
    /// or returns an error.
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        for r in BmpReader::new(&bytes[..]) {
            if r.is_err() {
                break;
            }
        }
    }

    /// Single-byte corruption anywhere in a valid stream never panics
    /// and never yields more messages than were encoded.
    #[test]
    fn corruption_is_contained(
        msgs in proptest::collection::vec(arb_message(), 1..4),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let pos = pos_seed % wire.len();
        wire[pos] ^= xor;
        let (back, _err) = BmpReader::new(&wire[..]).read_all();
        prop_assert!(back.len() <= msgs.len());
    }
}
