//! Golden bytes for every RIB state codec: journal events, tables
//! (raw and sealed) and fold checkpoints.
//!
//! The other codec tests are round trips, so a change made
//! symmetrically to an encoder and its decoder passes them all. These
//! pin the exact encoding of hand-built values (length plus FNV-1a
//! digest), cut every fixture at every strict prefix — each cut must
//! be refused with an error, never a panic — and decode the whole
//! input back to the original value.

use std::sync::Arc;

use bgp_types::codec::{open_frame, seal_frame};
use bgp_types::{AsPath, Asn, Community, CommunitySet, SessionState};
use bgpstream::{BgpStreamElem, ElemType};
use bytes::BytesMut;
use rib::{RibAction, RibEvent, RibFold, RibRoute, RibTable};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assert the encoding of `name` is exactly `(len, digest)`.
fn pin(name: &str, bytes: &[u8], want: (usize, u64)) {
    let got = (bytes.len(), fnv1a(bytes));
    assert_eq!(
        got, want,
        "{name}: encoding changed, now ({}, {:#018x})",
        got.0, got.1
    );
}

/// Every strict prefix of `bytes` is refused by `accepts`.
fn every_cut_refused(name: &str, bytes: &[u8], accepts: impl Fn(&[u8]) -> bool) {
    for cut in 0..bytes.len() {
        assert!(
            !accepts(&bytes[..cut]),
            "{name}: {cut}-byte prefix of {} accepted",
            bytes.len()
        );
    }
}

fn route(path: &[u32], next_hop: Option<&str>, communities: &[(u16, u16)], at: u64) -> RibRoute {
    RibRoute {
        path: Some(AsPath::from_sequence(path.iter().copied())),
        next_hop: next_hop.map(|h| h.parse().unwrap()),
        communities: CommunitySet::from_iter(
            communities
                .iter()
                .map(|&(asn, value)| Community { asn, value }),
        ),
        updated_at: at,
    }
}

fn ev(time: u64, collector: &str, peer: &str, asn: u32, action: RibAction) -> RibEvent {
    RibEvent {
        time,
        collector: collector.into(),
        peer: peer.parse().unwrap(),
        peer_asn: Asn(asn),
        action,
    }
}

fn events() -> Vec<(&'static str, RibEvent, (usize, u64))> {
    vec![
        (
            "announce event",
            ev(
                10,
                "rrc00",
                "10.0.0.9",
                65001,
                RibAction::Announce {
                    prefix: "1.0.0.0/8".parse().unwrap(),
                    route: route(&[65001, 20], Some("10.0.0.1"), &[(64500, 7)], 10),
                },
            ),
            (97, 0x89d4_c8bc_4e94_51fd),
        ),
        (
            "withdraw event",
            ev(
                11,
                "rrc01",
                "2001:db8::9",
                65002,
                RibAction::Withdraw {
                    prefix: "2001:db8::/32".parse().unwrap(),
                },
            ),
            (55, 0x1f1d_91d5_b3c5_80f0),
        ),
        (
            "peer-up event",
            ev(12, "rrc02", "10.0.0.7", 65003, RibAction::PeerUp),
            (37, 0xa49b_da8b_0fdc_52e7),
        ),
        (
            "peer-down event",
            ev(13, "rrc02", "10.0.0.7", 65003, RibAction::PeerDown),
            (37, 0xbd0b_5f26_93ee_0b47),
        ),
    ]
}

#[test]
fn rib_event_of_each_kind() {
    for (name, event, want) in events() {
        let mut out = BytesMut::new();
        event.encode_into(&mut out);
        let bytes = out.to_vec();
        pin(name, &bytes, want);
        every_cut_refused(name, &bytes, |b| {
            let mut buf = b;
            RibEvent::decode(&mut buf).is_ok()
        });
        let mut buf = &bytes[..];
        assert_eq!(RibEvent::decode(&mut buf).expect("whole event"), event);
        assert!(buf.is_empty());
    }
}

/// Two collectors, a v4 and a v6 peer, communities, a next hop, a
/// path-less route and a peer whose session went down.
fn table() -> RibTable {
    let mut t = RibTable::new();
    for e in [
        ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            RibAction::Announce {
                prefix: "1.0.0.0/8".parse().unwrap(),
                route: route(
                    &[65001, 3356, 20],
                    Some("10.0.0.1"),
                    &[(64500, 7), (65535, 666)],
                    10,
                ),
            },
        ),
        ev(
            11,
            "rrc00",
            "10.0.0.9",
            65001,
            RibAction::Announce {
                prefix: "2.2.0.0/16".parse().unwrap(),
                route: RibRoute {
                    path: None,
                    next_hop: None,
                    communities: CommunitySet::default(),
                    updated_at: 11,
                },
            },
        ),
        ev(
            12,
            "route-views2",
            "2001:db8::9",
            65002,
            RibAction::Announce {
                prefix: "2001:db8:100::/40".parse().unwrap(),
                route: route(&[65002, 9], Some("2001:db8::1"), &[], 12),
            },
        ),
        ev(13, "rrc01", "10.0.0.7", 65003, RibAction::PeerDown),
    ] {
        t.apply(&e);
    }
    t
}

#[test]
fn rib_table_raw_and_sealed() {
    let t = table();
    let bytes = t.encode();
    pin("rib table", &bytes, (266, 0xd6b5_ba8c_19eb_2071));
    every_cut_refused("rib table", &bytes, |b| RibTable::decode(b).is_ok());
    assert_eq!(
        RibTable::decode(&bytes).expect("whole table").encode(),
        bytes
    );

    let frame = t.seal();
    pin("sealed rib table", &frame, (278, 0xa174_f0aa_2d51_185a));
    every_cut_refused("sealed rib table", &frame, |b| RibTable::unseal(b).is_ok());
    assert_eq!(
        RibTable::unseal(&frame).expect("whole frame").encode(),
        bytes
    );
}

fn elem(time: u64, ty: ElemType, peer: &str, prefix: Option<&str>) -> BgpStreamElem {
    BgpStreamElem {
        elem_type: ty,
        time,
        peer_address: peer.parse().unwrap(),
        peer_asn: Asn(65001),
        prefix: prefix.map(|p| p.parse().unwrap()),
        next_hop: Some("10.0.0.1".parse().unwrap()),
        as_path: Some(AsPath::from_sequence([65001, 7])),
        communities: Some(CommunitySet::from_iter([Community {
            asn: 65001,
            value: 100,
        }])),
        old_state: None,
        new_state: None,
    }
}

#[test]
fn rib_fold_checkpoint_with_pending_events() {
    let mut fold = RibFold::new(300);
    let c: Arc<str> = "rrc00".into();
    fold.apply_elem(
        &c,
        &elem(10, ElemType::Announcement, "10.0.0.9", Some("1.0.0.0/8")),
    );
    fold.advance_watermark(100);
    // Mid-bin: three pending events of three kinds.
    fold.apply_elem(
        &c,
        &elem(
            150,
            ElemType::RibEntry,
            "2001:db8::9",
            Some("2001:db8::/32"),
        ),
    );
    fold.apply_elem(
        &c,
        &elem(151, ElemType::Withdrawal, "10.0.0.9", Some("1.0.0.0/8")),
    );
    let mut up = elem(152, ElemType::PeerState, "10.0.0.9", None);
    up.new_state = Some(SessionState::Established);
    fold.apply_elem(&c, &up);

    let frame = fold.checkpoint();
    pin("rib fold checkpoint", &frame, (365, 0x54e1_18f3_b0ef_e83a));
    every_cut_refused("rib fold checkpoint", &frame, |b| {
        RibFold::new(0).restore(b).is_ok()
    });
    // Cuts inside the payload, re-sealed so the checksum passes and
    // the state decoder itself has to refuse them.
    let payload = open_frame(&frame).expect("whole frame opens");
    every_cut_refused("rib fold checkpoint payload", payload, |b| {
        RibFold::new(0).restore(&seal_frame(b)).is_ok()
    });
    let mut back = RibFold::new(0);
    back.restore(&frame).expect("whole checkpoint restores");
    assert_eq!(back.checkpoint(), frame);
    assert_eq!(back.watermark(), 100);
}
