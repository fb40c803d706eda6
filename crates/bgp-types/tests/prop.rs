//! Property-based tests for the BGP protocol model.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bgp_types::message::{decode_nlri, encode_nlri};
use bgp_types::{
    AsPath, AsPathSegment, Asn, BgpMessage, BgpUpdate, Community, CommunitySet, Origin,
    PathAttributes, Prefix, PrefixTrie,
};
use bytes::BytesMut;
use proptest::prelude::*;

fn arb_prefix_v4() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::v4(Ipv4Addr::from(addr), len))
}

fn arb_prefix_v6() -> impl Strategy<Value = Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| Prefix::v6(Ipv6Addr::from(addr), len))
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![arb_prefix_v4(), arb_prefix_v6()]
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec(1u32..100_000, 1..8)
                .prop_map(|v| AsPathSegment::Sequence(v.into_iter().map(Asn).collect())),
            proptest::collection::vec(1u32..100_000, 1..4)
                .prop_map(|v| AsPathSegment::Set(v.into_iter().map(Asn).collect())),
        ],
        1..4,
    )
    .prop_map(AsPath::from_segments)
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        arb_as_path(),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::collection::vec((any::<u16>(), any::<u16>()), 0..6),
        0u8..=2,
    )
        .prop_map(|(as_path, nh, med, comms, origin)| PathAttributes {
            origin: Origin::from_code(origin).unwrap(),
            as_path,
            next_hop: Some(IpAddr::V4(Ipv4Addr::from(nh))),
            med,
            local_pref: None,
            communities: CommunitySet::from_iter(
                comms.into_iter().map(|(a, v)| Community::new(a, v)),
            ),
        })
}

proptest! {
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_contains_is_reflexive(p in arb_prefix()) {
        prop_assert!(p.contains(&p));
        prop_assert!(p.overlaps(&p));
    }

    #[test]
    fn prefix_parent_contains_child(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.contains(&p));
            prop_assert!(!p.contains(&parent) || p == parent);
        }
        if let Some((lo, hi)) = p.children() {
            prop_assert!(p.contains(&lo));
            prop_assert!(p.contains(&hi));
            prop_assert_ne!(lo, hi);
        }
    }

    #[test]
    fn prefix_host_is_contained(p in arb_prefix_v4(), n in any::<u64>()) {
        let h = p.host(n as u128);
        prop_assert!(p.contains(&h));
        prop_assert_eq!(h.len(), 32);
    }

    #[test]
    fn nlri_roundtrip(p in arb_prefix()) {
        let mut buf = BytesMut::new();
        encode_nlri(&p, &mut buf);
        let mut sl: &[u8] = &buf;
        let back = decode_nlri(&mut sl, p.is_ipv4()).unwrap();
        prop_assert_eq!(p, back);
        prop_assert!(sl.is_empty());
    }

    #[test]
    fn update_codec_roundtrip(
        wd in proptest::collection::vec(arb_prefix_v4(), 0..8),
        ann in proptest::collection::vec(arb_prefix(), 1..8),
        attrs in arb_attrs(),
    ) {
        // Dedup: the wire cannot distinguish duplicated NLRI entries
        // from re-announcements, so feed it canonical input.
        let mut wd = wd; wd.sort(); wd.dedup();
        let mut ann = ann; ann.sort(); ann.dedup();
        let u = BgpUpdate { withdrawals: wd, attrs: Some(attrs), announcements: ann };
        let wire = BgpMessage::Update(u.clone()).encode();
        prop_assume!(wire.len() <= bgp_types::message::MAX_MESSAGE_LEN);
        match BgpMessage::decode(&wire).unwrap() {
            BgpMessage::Update(mut back) => {
                back.withdrawals.sort();
                back.announcements.sort();
                let mut want = u;
                want.withdrawals.sort();
                want.announcements.sort();
                // v6 next-hop may be synthesised as :: when absent; keep equal inputs.
                prop_assert_eq!(back.withdrawals, want.withdrawals);
                prop_assert_eq!(back.announcements, want.announcements);
                let ba = back.attrs.unwrap();
                let wa = want.attrs.unwrap();
                prop_assert_eq!(ba.as_path, wa.as_path);
                prop_assert_eq!(ba.communities, wa.communities);
                prop_assert_eq!(ba.origin, wa.origin);
                prop_assert_eq!(ba.med, wa.med);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn trie_longest_match_agrees_with_linear_scan(
        entries in proptest::collection::vec(arb_prefix_v4(), 1..40),
        query in arb_prefix_v4(),
    ) {
        let mut trie = PrefixTrie::new();
        for (i, p) in entries.iter().enumerate() {
            trie.insert(*p, i);
        }
        let expected = entries
            .iter()
            .filter(|p| p.contains(&query))
            .max_by_key(|p| p.len()).copied();
        let got = trie.longest_match(&query).map(|(p, _)| *p);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn trie_insert_remove_restores(entries in proptest::collection::vec(arb_prefix(), 1..30)) {
        let mut trie: PrefixTrie<usize> = PrefixTrie::new();
        let mut uniq = entries.clone();
        uniq.sort();
        uniq.dedup();
        for (i, p) in uniq.iter().enumerate() {
            prop_assert!(trie.insert(*p, i).is_none());
        }
        prop_assert_eq!(trie.len(), uniq.len());
        for p in &uniq {
            prop_assert!(trie.remove(p).is_some());
        }
        prop_assert!(trie.is_empty());
    }

    #[test]
    fn as_path_prepend_preserves_suffix(path in arb_as_path(), asn in 1u32..1_000_000) {
        let mut p2 = path.clone();
        p2.prepend(Asn(asn));
        prop_assert_eq!(p2.first_asn(), Some(Asn(asn)));
        let orig: Vec<Asn> = path.asns().collect();
        let new: Vec<Asn> = p2.asns().collect();
        prop_assert_eq!(&new[1..], &orig[..]);
    }

    #[test]
    fn community_sets_are_sorted_and_unique_at_any_size(
        raw in proptest::collection::vec((0u16..4, 0u16..4), 0..12),
        extra in (0u16..4, 0u16..4),
    ) {
        let items: Vec<Community> = raw.iter().map(|&(a, v)| Community::new(a, v)).collect();
        let mut want = items.clone();
        want.sort_unstable();
        want.dedup();
        let mut set = CommunitySet::from_iter(items);
        prop_assert_eq!(set.as_slice(), &want[..]);
        // Copy on write keeps the clone as it was.
        let before = set.clone();
        let c = Community::new(extra.0, extra.1);
        prop_assert_eq!(set.insert(c), !want.contains(&c));
        prop_assert!(set.contains(&c));
        prop_assert!(set.remove(&c));
        prop_assert!(!set.contains(&c));
        prop_assert_eq!(before.as_slice(), &want[..]);
    }

    #[test]
    fn route_codec_roundtrip(path in proptest::option::of(arb_as_path())) {
        let mut out = BytesMut::new();
        bgp_types::codec::put_route(&mut out, path.as_ref());
        let mut r = bgp_types::codec::Reader::new(&out, "route");
        let back = r.route().unwrap();
        r.finish().unwrap();
        // A path of sequences alone comes back as one sequence.
        let has_set = path
            .as_ref()
            .is_some_and(|p| p.segments().iter().any(|s| matches!(s, AsPathSegment::Set(_))));
        if has_set {
            prop_assert_eq!(&back, &path);
        } else {
            let flat = |p: &Option<AsPath>| p.as_ref().map(|p| p.asns().collect::<Vec<_>>());
            prop_assert_eq!(flat(&back), flat(&path));
        }
        prop_assert_eq!(back.as_ref().and_then(|p| p.origin()), path.and_then(|p| p.origin()));
    }

    #[test]
    fn community_u32_roundtrip(a in any::<u16>(), v in any::<u16>()) {
        let c = Community::new(a, v);
        prop_assert_eq!(Community::from_u32(c.as_u32()), c);
        let s = c.to_string();
        prop_assert_eq!(s.parse::<Community>().unwrap(), c);
    }
}
