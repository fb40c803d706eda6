//! Paths with `AS_SET` segments survive every serialized RIB state.
//!
//! An aggregated route's path ends in a set, so its origin is
//! ambiguous: `origin_asn()` is `None`. The snapshot, checkpoint and
//! journal codecs must keep the segment structure, or a route read
//! back from a snapshot answers a different origin than the same
//! route read from the journal.

use std::sync::Arc;

use bgp_types::{AsPath, AsPathSegment, Asn, Community, CommunitySet, Prefix};
use bgpstream::{BgpStreamElem, ElemType};
use rib::{MemoryRibStore, RibAction, RibEvent, RibFold, RibQuery, RibRoute, RibTable};

const PEER: &str = "10.0.0.9";
const PREFIX: &str = "1.0.0.0/8";

/// `65001 {7,8}`: an aggregate whose origin is either 7 or 8.
fn set_path() -> AsPath {
    AsPath::from_segments(vec![
        AsPathSegment::Sequence(vec![Asn(65001)]),
        AsPathSegment::Set(vec![Asn(7), Asn(8)]),
    ])
}

fn elem(time: u64, path: AsPath) -> BgpStreamElem {
    BgpStreamElem {
        elem_type: ElemType::Announcement,
        time,
        peer_address: PEER.parse().unwrap(),
        peer_asn: Asn(65001),
        prefix: Some(PREFIX.parse().unwrap()),
        next_hop: None,
        as_path: Some(path),
        communities: Some(CommunitySet::from_iter([Community::new(65001, 7)])),
        old_state: None,
        new_state: None,
    }
}

fn route_of(table: &RibTable) -> RibRoute {
    table
        .loc_rib("rrc00", &PEER.parse().unwrap())
        .and_then(|rib| rib.route(&PREFIX.parse::<Prefix>().unwrap()))
        .cloned()
        .expect("the announced route is installed")
}

#[test]
fn table_seal_keeps_as_set_segments() {
    let mut table = RibTable::new();
    // A set at each end, with a sequence between them: the segment
    // kinds and their order are kept.
    let path = AsPath::from_segments(vec![
        AsPathSegment::Set(vec![Asn(65000), Asn(65002)]),
        AsPathSegment::Sequence(vec![Asn(65001)]),
        AsPathSegment::Set(vec![Asn(7), Asn(8)]),
    ]);
    table.apply(&RibEvent {
        time: 10,
        collector: "rrc00".into(),
        peer: PEER.parse().unwrap(),
        peer_asn: Asn(65001),
        action: RibAction::Announce {
            prefix: PREFIX.parse().unwrap(),
            route: RibRoute {
                path: Some(path.clone()),
                next_hop: None,
                communities: CommunitySet::new(),
                updated_at: 10,
            },
        },
    });
    let back = RibTable::unseal(&table.seal()).unwrap();
    let route = route_of(&back);
    assert_eq!(route.path, Some(path));
    assert_eq!(route.origin_asn(), None);
    assert_eq!(back.encode(), table.encode());
}

#[test]
fn fold_checkpoint_keeps_as_set_segments() {
    let c: Arc<str> = "rrc00".into();
    let mut fold = RibFold::new(0);
    fold.apply_elem(&c, &elem(10, set_path()));
    fold.advance_watermark(100);
    // One more event left pending in the checkpoint.
    fold.apply_elem(&c, &elem(150, set_path()));
    let frame = fold.checkpoint();
    let store = MemoryRibStore::shared();
    let mut back = RibFold::new(0).with_store(store.clone());
    back.restore(&frame).unwrap();
    assert_eq!(route_of(back.table()), route_of(fold.table()));
    assert_eq!(route_of(back.table()).origin_asn(), None);
    back.advance_watermark(200);
    let events = RibQuery::new().history(0, 199).events(&*store).unwrap();
    assert_eq!(events.len(), 1);
    match &events[0].action {
        RibAction::Announce { route, .. } => assert_eq!(route.path, Some(set_path())),
        other => panic!("pending event restored as {other:?}"),
    }
}

#[test]
fn origin_query_answers_the_same_across_a_snapshot() {
    let store = MemoryRibStore::shared();
    let c: Arc<str> = "rrc00".into();
    let mut fold = RibFold::new(30).with_store(store.clone());
    fold.apply_elem(&c, &elem(20, set_path()));
    // Seals a snapshot at 30; the next advance makes 35 queryable.
    fold.advance_watermark(30);
    fold.advance_watermark(40);
    for at in [25, 35] {
        // Read from the journal at 25, from the snapshot at 35.
        let all = RibQuery::new().at(at).table(&*store).unwrap();
        assert_eq!(all.len(), 1, "at {at}");
        assert_eq!(all.rows[0].route.path, Some(set_path()), "at {at}");
        for origin in [7, 8] {
            let rows = RibQuery::new()
                .at(at)
                .origin_asn(Asn(origin))
                .table(&*store)
                .unwrap();
            assert_eq!(rows.len(), 0, "origin {origin} at {at}");
        }
    }
}
