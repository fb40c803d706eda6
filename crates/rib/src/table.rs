//! The Loc-RIB table: per-(collector, peer) routing state, the event
//! vocabulary that mutates it, and its canonical serialization.
//!
//! One [`RibTable`] holds the reconstructed Loc-RIB of every vantage
//! point the stream has shown: for each `(collector, peer)` pair a
//! [`LocRib`] maps announced prefixes to their selected route.
//! Mutation happens exclusively through [`RibTable::apply`] on a
//! [`RibEvent`] — the same transition function runs under the
//! historical fold, the live plugin, and query-time delta replay,
//! which is what makes snapshot+delta resolution byte-identical to a
//! full replay.
//!
//! Serialization is canonical: peers sort by `(collector name, peer
//! address)`, routes by prefix, so two tables holding the same routes
//! encode to the same bytes no matter what order events arrived in or
//! how collector ids were interned.

use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::codec::{
    ip_sort_key, narrow, open_frame, prefix_sort_key, put_ip, put_prefix, put_route,
    seal_frame_with, Reader,
};
use bgp_types::{AsPath, Asn, CodecError, Community, CommunitySet, Prefix};
use bytes::{BufMut, BytesMut};
use fxhash::FxHashMap;

use crate::index::{read_row, TableIndex};

/// Table serialization format version.
pub(crate) const TABLE_VERSION: u8 = 1;

/// About the encoded length of a row's prefix and route, for sizing a
/// buffer without visiting every route: a four-hop path, a next hop and
/// two communities.
const ROW_LEN_GUESS: usize = 18 + (2 + 4 * 4) + (1 + 17) + (2 + 2 * 4) + 8;

/// One selected route as held in a peer's Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibRoute {
    /// AS path of the selected route (absent on malformed originals).
    pub path: Option<AsPath>,
    /// Next hop, when the elem carried one.
    pub next_hop: Option<IpAddr>,
    /// Communities attached to the route.
    pub communities: CommunitySet,
    /// Timestamp of the elem that last announced/refreshed the route.
    pub updated_at: u64,
}

impl RibRoute {
    /// Origin AS of the path, if determinable.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.path.as_ref().and_then(|p| p.origin())
    }
}

/// What a [`RibEvent`] does to its peer's Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RibAction {
    /// Install (or implicitly replace) the route for a prefix. Both
    /// RIB-dump rows (bootstrap) and announcements fold to this.
    Announce {
        /// The announced prefix.
        prefix: Prefix,
        /// The selected route.
        route: RibRoute,
    },
    /// Remove the route for a prefix (no-op when absent).
    Withdraw {
        /// The withdrawn prefix.
        prefix: Prefix,
    },
    /// The peer session reached Established.
    PeerUp,
    /// The peer session left Established: the peer's table is cleared
    /// (routes learned from a down session are stale by definition).
    PeerDown,
}

/// One entry of the RIB journal: a timestamped state transition of a
/// single `(collector, peer)` Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibEvent {
    /// Elem timestamp (the sorted stream makes these monotone).
    pub time: u64,
    /// Collector the vantage point peers with.
    pub collector: Arc<str>,
    /// Vantage-point address.
    pub peer: IpAddr,
    /// Vantage-point AS number.
    pub peer_asn: Asn,
    /// The transition.
    pub action: RibAction,
}

impl RibEvent {
    /// The prefix the event touches, when it touches one.
    pub fn prefix(&self) -> Option<&Prefix> {
        match &self.action {
            RibAction::Announce { prefix, .. } | RibAction::Withdraw { prefix } => Some(prefix),
            RibAction::PeerUp | RibAction::PeerDown => None,
        }
    }

    /// Append the wire form to `out` (used by fold checkpoints).
    pub fn encode_into(&self, out: &mut BytesMut) {
        let kind: u8 = match &self.action {
            RibAction::Announce { .. } => 0,
            RibAction::Withdraw { .. } => 1,
            RibAction::PeerUp => 2,
            RibAction::PeerDown => 3,
        };
        out.put_u8(kind);
        out.put_u64(self.time);
        out.put_u16(narrow(
            self.collector.len(),
            "rib event collector name length",
        ));
        out.put_slice(self.collector.as_bytes());
        put_ip(out, &self.peer);
        out.put_u32(self.peer_asn.0);
        match &self.action {
            RibAction::Announce { prefix, route } => {
                put_prefix(out, prefix);
                put_rib_route(out, route);
            }
            RibAction::Withdraw { prefix } => put_prefix(out, prefix),
            RibAction::PeerUp | RibAction::PeerDown => {}
        }
    }

    /// Decode one event, advancing `buf` past it.
    pub fn decode(buf: &mut &[u8]) -> Result<RibEvent, CodecError> {
        let mut r = Reader::new(buf, "rib event");
        let kind = r.u8()?;
        let time = r.u64()?;
        let collector = r.str16()?.into();
        let peer = r.ip()?;
        let peer_asn = Asn(r.u32()?);
        let action = match kind {
            0 => RibAction::Announce {
                prefix: r.prefix()?,
                route: get_rib_route(&mut r)?,
            },
            1 => RibAction::Withdraw {
                prefix: r.prefix()?,
            },
            2 => RibAction::PeerUp,
            3 => RibAction::PeerDown,
            _ => return Err(CodecError::Invalid("rib event kind")),
        };
        *buf = r.rest();
        Ok(RibEvent {
            time,
            collector,
            peer,
            peer_asn,
            action,
        })
    }
}

/// Append a route's wire form to `out`.
fn put_rib_route(out: &mut BytesMut, route: &RibRoute) {
    put_route(out, route.path.as_ref());
    match &route.next_hop {
        Some(ip) => {
            out.put_u8(1);
            put_ip(out, ip);
        }
        None => out.put_u8(0),
    }
    out.put_u16(narrow(route.communities.len(), "rib route community count"));
    for c in route.communities.iter() {
        out.put_u16(c.asn);
        out.put_u16(c.value);
    }
    out.put_u64(route.updated_at);
}

/// Decode a [`put_rib_route`] route.
pub(crate) fn get_rib_route(r: &mut Reader<'_>) -> Result<RibRoute, CodecError> {
    let path = r.route()?;
    let next_hop = match r.u8()? {
        1 => Some(r.ip()?),
        _ => None,
    };
    let n = r.u16()? as usize;
    let (communities, _) = r.bytes(n * 4)?.as_chunks::<4>();
    Ok(RibRoute {
        path,
        next_hop,
        communities: CommunitySet::from_iter(communities.iter().map(|&[a0, a1, v0, v1]| {
            Community {
                asn: u16::from_be_bytes([a0, a1]),
                value: u16::from_be_bytes([v0, v1]),
            }
        })),
        updated_at: r.u64()?,
    })
}

/// Read past a [`put_rib_route`] route without decoding it, answering
/// its origin: the same checked reads in the same order as
/// [`get_rib_route`], so a skipped row fails exactly where a decoded
/// one would, and nothing allocates.
pub(crate) fn skip_rib_route(r: &mut Reader<'_>) -> Result<Option<Asn>, CodecError> {
    let origin = r.skip_route()?;
    if r.u8()? == 1 {
        r.ip()?;
    }
    let n = r.u16()? as usize;
    r.bytes(n * 4)?;
    r.u64()?;
    Ok(origin)
}

/// One vantage point's reconstructed Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocRib {
    /// The vantage point's AS number (latest seen).
    pub peer_asn: Asn,
    /// Whether the session is believed Established. Routes imply up;
    /// a `PeerDown` clears the table until the next up/announce.
    pub up: bool,
    routes: FxHashMap<Prefix, RibRoute>,
}

impl LocRib {
    fn new(peer_asn: Asn) -> Self {
        LocRib {
            peer_asn,
            up: true,
            routes: FxHashMap::default(),
        }
    }

    /// Number of installed routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The installed route for a prefix, if any.
    pub fn route(&self, prefix: &Prefix) -> Option<&RibRoute> {
        self.routes.get(prefix)
    }

    /// Iterate installed `(prefix, route)` pairs (hash order).
    pub fn routes(&self) -> impl Iterator<Item = (&Prefix, &RibRoute)> {
        self.routes.iter()
    }
}

/// The full reconstructed state: every `(collector, peer)` Loc-RIB.
///
/// Collector names are interned to a `u16` id so per-event lookups
/// hash a `(u16, IpAddr)` key instead of a string. Ids never appear
/// in the canonical serialization (sections sort by *name*), so two
/// tables that interned in different orders still encode identically.
#[derive(Clone, Debug, Default)]
pub struct RibTable {
    collectors: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, u16>,
    peers: FxHashMap<(u16, IpAddr), LocRib>,
}

impl RibTable {
    /// An empty table.
    pub fn new() -> Self {
        RibTable::default()
    }

    fn intern(&mut self, name: &Arc<str>) -> u16 {
        if let Some(&id) = self.ids.get(&**name) {
            return id;
        }
        let id = narrow(self.collectors.len(), "rib table collector id");
        self.collectors.push(name.clone());
        self.ids.insert(name.clone(), id);
        id
    }

    /// Apply one journal event. The single state-transition function:
    /// fold, restore and query-time replay all route through here.
    pub fn apply(&mut self, ev: &RibEvent) {
        let cid = self.intern(&ev.collector);
        let rib = self
            .peers
            .entry((cid, ev.peer))
            .or_insert_with(|| LocRib::new(ev.peer_asn));
        rib.peer_asn = ev.peer_asn;
        match &ev.action {
            RibAction::Announce { prefix, route } => {
                rib.up = true;
                // Implicit replace: a newer selection for the same
                // prefix overwrites whatever was installed.
                rib.routes.insert(*prefix, route.clone());
            }
            RibAction::Withdraw { prefix } => {
                rib.routes.remove(prefix);
            }
            RibAction::PeerUp => rib.up = true,
            RibAction::PeerDown => {
                rib.up = false;
                rib.routes.clear();
            }
        }
    }

    /// Number of known vantage points.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Total installed routes across all vantage points.
    pub fn route_count(&self) -> usize {
        self.peers.values().map(|p| p.routes.len()).sum()
    }

    /// The Loc-RIB of one vantage point.
    pub fn loc_rib(&self, collector: &str, peer: &IpAddr) -> Option<&LocRib> {
        let id = *self.ids.get(collector)?;
        self.peers.get(&(id, *peer))
    }

    /// Materialize the canonically ordered view of the whole table.
    pub fn view(&self, at: u64) -> TableView {
        let mut rows = Vec::with_capacity(self.route_count());
        for ((cid, peer), rib) in &self.peers {
            let collector = self.collectors[*cid as usize].clone();
            for (prefix, route) in &rib.routes {
                rows.push(TableRow {
                    collector: collector.clone(),
                    peer: *peer,
                    peer_asn: rib.peer_asn,
                    prefix: *prefix,
                    route: route.clone(),
                });
            }
        }
        rows.sort_by(|a, b| {
            (
                &*a.collector,
                ip_sort_key(&a.peer),
                prefix_sort_key(&a.prefix),
            )
                .cmp(&(
                    &*b.collector,
                    ip_sort_key(&b.peer),
                    prefix_sort_key(&b.prefix),
                ))
        });
        TableView { at, rows }
    }

    /// Canonical serialization: sections sorted by `(collector name,
    /// peer address)`, routes by prefix. Intern order does not leak.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::with_capacity(self.encoded_len_estimate());
        self.encode_into(&mut out);
        out.into()
    }

    /// About the length of [`encode`](RibTable::encode)'s output, for
    /// sizing its buffer without visiting every route.
    fn encoded_len_estimate(&self) -> usize {
        const SECTION: usize = 2 + 16 + 17 + 4 + 1 + 4;
        1 + 4 + SECTION * self.peers.len() + ROW_LEN_GUESS * self.route_count()
    }

    /// Append [`encode`](RibTable::encode)'s output to `out`. Each
    /// section's rows are sorted once as `(prefix, route)` pairs and
    /// written from them.
    fn encode_into(&self, out: &mut BytesMut) {
        let mut sections: Vec<(&(u16, IpAddr), &LocRib)> = self.peers.iter().collect();
        sections.sort_unstable_by(|(a, _), (b, _)| {
            (&*self.collectors[a.0 as usize], ip_sort_key(&a.1))
                .cmp(&(&*self.collectors[b.0 as usize], ip_sort_key(&b.1)))
        });
        out.put_u8(TABLE_VERSION);
        out.put_u32(narrow(sections.len(), "rib table section count"));
        let mut rows: Vec<(Prefix, &RibRoute)> = Vec::new();
        for ((cid, peer), rib) in sections {
            let name = &self.collectors[*cid as usize];
            out.put_u16(narrow(name.len(), "rib table collector name length"));
            out.put_slice(name.as_bytes());
            put_ip(out, peer);
            out.put_u32(rib.peer_asn.0);
            out.put_u8(rib.up as u8);
            rows.clear();
            rows.extend(rib.routes.iter().map(|(prefix, route)| (*prefix, route)));
            rows.sort_unstable_by_key(|(prefix, _)| prefix_sort_key(prefix));
            out.put_u32(narrow(rows.len(), "rib table row count"));
            for (prefix, route) in &rows {
                put_prefix(out, prefix);
                put_rib_route(out, route);
            }
        }
    }

    /// Decode an [`encode`](RibTable::encode)d table.
    pub fn decode(buf: &[u8]) -> Result<RibTable, CodecError> {
        RibTable::from_index(buf, &TableIndex::build(buf)?)
    }

    /// Decode every row `index` holds of the table encoded in
    /// `payload`.
    pub(crate) fn from_index(payload: &[u8], index: &TableIndex) -> Result<RibTable, CodecError> {
        let mut table = RibTable::new();
        for section in index.sections() {
            let cid = table.intern(&section.collector);
            let mut rib = LocRib::new(section.peer_asn);
            rib.up = section.up;
            let rows = index.rows(section);
            rib.routes.reserve(rows.len());
            for &at in rows {
                let (prefix, route) = read_row(payload, at)?;
                rib.routes.insert(prefix, route);
            }
            table.peers.insert((cid, section.peer), rib);
        }
        Ok(table)
    }

    /// Seal the canonical serialization into a durable checksum frame
    /// — the restartable snapshot artifact. One pass: the rows are
    /// written straight into the frame, which is sized up front.
    pub fn seal(&self) -> Vec<u8> {
        seal_frame_with(self.encoded_len_estimate(), |out| self.encode_into(out))
    }

    /// Open and decode a [`seal`](RibTable::seal)ed frame, rejecting
    /// torn writes.
    pub fn unseal(frame: &[u8]) -> Result<RibTable, CodecError> {
        RibTable::decode(open_frame(frame)?)
    }
}

/// One row of a resolved [`TableView`]: a `(collector, peer, prefix)`
/// cell and its selected route.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableRow {
    /// Collector the vantage point peers with.
    pub collector: Arc<str>,
    /// Vantage-point address.
    pub peer: IpAddr,
    /// Vantage-point AS number.
    pub peer_asn: Asn,
    /// The prefix.
    pub prefix: Prefix,
    /// The selected route.
    pub route: RibRoute,
}

/// The routing table as of a queried instant, in canonical row order
/// `(collector, peer, prefix)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableView {
    /// The instant the view reflects.
    pub at: u64,
    /// The rows.
    pub rows: Vec<TableRow>,
}

impl TableView {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no routes matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distinct origin ASNs across the rows, sorted — the MOAS
    /// primitive (a prefix-filtered view with ≥ 2 origins is a
    /// multi-origin prefix).
    pub fn origin_asns(&self) -> Vec<Asn> {
        let mut origins: Vec<Asn> = self
            .rows
            .iter()
            .filter_map(|r| r.route.origin_asn())
            .collect();
        origins.sort_unstable();
        origins.dedup();
        origins
    }

    /// Canonical byte encoding of the view — the artifact equivalence
    /// proofs compare (`snapshot+delta` vs full replay must match
    /// byte-for-byte).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::with_capacity(self.encoded_len_estimate());
        out.put_u64(self.at);
        out.put_u32(narrow(self.rows.len(), "table view row count"));
        for row in &self.rows {
            out.put_u16(narrow(
                row.collector.len(),
                "table view collector name length",
            ));
            out.put_slice(row.collector.as_bytes());
            put_ip(&mut out, &row.peer);
            out.put_u32(row.peer_asn.0);
            put_prefix(&mut out, &row.prefix);
            put_rib_route(&mut out, &row.route);
        }
        out.into()
    }

    /// About the length of [`encode`](TableView::encode)'s output, for
    /// sizing its buffer without visiting every route: each row's
    /// collector name taken as 16 bytes.
    fn encoded_len_estimate(&self) -> usize {
        const VANTAGE_POINT: usize = 2 + 16 + 17 + 4;
        8 + 4 + (VANTAGE_POINT + ROW_LEN_GUESS) * self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, collector: &str, peer: &str, asn: u32, action: RibAction) -> RibEvent {
        RibEvent {
            time,
            collector: collector.into(),
            peer: peer.parse().unwrap(),
            peer_asn: Asn(asn),
            action,
        }
    }

    fn announce(prefix: &str, path: &[u32], at: u64) -> RibAction {
        RibAction::Announce {
            prefix: prefix.parse().unwrap(),
            route: RibRoute {
                path: Some(AsPath::from_sequence(path.iter().copied())),
                next_hop: Some("10.0.0.1".parse().unwrap()),
                communities: CommunitySet::from_iter([Community {
                    asn: 64500,
                    value: 7,
                }]),
                updated_at: at,
            },
        }
    }

    #[test]
    fn announce_withdraw_replace_fold() {
        let mut t = RibTable::new();
        t.apply(&ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        ));
        t.apply(&ev(
            11,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("2.0.0.0/8", &[65001, 30], 11),
        ));
        assert_eq!(t.route_count(), 2);
        // Implicit replace.
        t.apply(&ev(
            12,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 40], 12),
        ));
        assert_eq!(t.route_count(), 2);
        let rib = t.loc_rib("rrc00", &"10.0.0.9".parse().unwrap()).unwrap();
        let route = rib.route(&"1.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(route.origin_asn(), Some(Asn(40)));
        // Withdraw removes; unknown withdraw is a no-op.
        t.apply(&ev(
            13,
            "rrc00",
            "10.0.0.9",
            65001,
            RibAction::Withdraw {
                prefix: "2.0.0.0/8".parse().unwrap(),
            },
        ));
        t.apply(&ev(
            14,
            "rrc00",
            "10.0.0.9",
            65001,
            RibAction::Withdraw {
                prefix: "9.0.0.0/8".parse().unwrap(),
            },
        ));
        assert_eq!(t.route_count(), 1);
        // Session down clears the peer's table.
        t.apply(&ev(15, "rrc00", "10.0.0.9", 65001, RibAction::PeerDown));
        assert_eq!(t.route_count(), 0);
        assert!(!t.loc_rib("rrc00", &"10.0.0.9".parse().unwrap()).unwrap().up);
    }

    #[test]
    fn encode_is_canonical_across_intern_orders() {
        let e1 = ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        );
        let e2 = ev(
            11,
            "route-views2",
            "2001:db8::9",
            65002,
            announce("2001:db8::/32", &[65002, 21], 11),
        );
        let mut a = RibTable::new();
        a.apply(&e1);
        a.apply(&e2);
        let mut b = RibTable::new();
        b.apply(&e2);
        b.apply(&e1);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.view(11).encode(), b.view(11).encode());
    }

    #[test]
    fn table_seal_roundtrip_rejects_torn() {
        let mut t = RibTable::new();
        t.apply(&ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        ));
        t.apply(&ev(11, "rrc00", "10.0.0.9", 65001, RibAction::PeerUp));
        let frame = t.seal();
        let back = RibTable::unseal(&frame).unwrap();
        assert_eq!(back.encode(), t.encode());
        assert!(RibTable::unseal(&frame[..frame.len() - 2]).is_err());
        let mut flipped = frame.clone();
        flipped[9] ^= 0x10;
        assert!(RibTable::unseal(&flipped).is_err());
    }

    #[test]
    fn event_codec_roundtrip() {
        let events = vec![
            ev(
                10,
                "rrc00",
                "10.0.0.9",
                65001,
                announce("1.0.0.0/8", &[65001, 20], 10),
            ),
            ev(
                11,
                "rrc01",
                "2001:db8::9",
                65002,
                RibAction::Withdraw {
                    prefix: "2001:db8::/32".parse().unwrap(),
                },
            ),
            ev(12, "rrc02", "10.0.0.7", 65003, RibAction::PeerUp),
            ev(13, "rrc02", "10.0.0.7", 65003, RibAction::PeerDown),
        ];
        let mut out = BytesMut::new();
        for e in &events {
            e.encode_into(&mut out);
        }
        let bytes = out.to_vec();
        let mut buf = &bytes[..];
        for e in &events {
            assert_eq!(&RibEvent::decode(&mut buf).unwrap(), e);
        }
        assert!(buf.is_empty());
        assert!(RibEvent::decode(&mut buf).is_err());
    }

    #[test]
    fn a_hostile_route_count_is_refused_not_allocated() {
        // Version 1, one peer: a 1-byte collector name, an IPv4 peer
        // address, an ASN, `up`, then a route count of u32::MAX. The
        // count used to size a reservation straight off the wire and
        // abort the process; 34 bytes cannot hold that many routes.
        let mut out = BytesMut::new();
        out.put_u8(TABLE_VERSION);
        out.put_u32(1);
        out.put_u16(1);
        out.put_u8(b'c');
        put_ip(&mut out, &"10.0.0.9".parse().unwrap());
        out.put_u32(65001);
        out.put_u8(1);
        out.put_u32(u32::MAX);
        let hostile = out.to_vec();
        assert_eq!(hostile.len(), 34);
        assert_eq!(
            RibTable::decode(&hostile).unwrap_err(),
            CodecError::Truncated("rib table")
        );
    }

    #[test]
    #[should_panic(expected = "rib event collector name length is 65536")]
    fn a_collector_name_too_long_to_encode_fails_loudly() {
        let name = "c".repeat(1 << 16);
        ev(10, &name, "10.0.0.9", 65001, RibAction::PeerUp).encode_into(&mut BytesMut::new());
    }

    #[test]
    #[should_panic(expected = "rib table collector id is 65536")]
    fn a_collector_past_the_last_intern_id_fails_loudly() {
        // Ids 0..=65535 fit; the next collector would alias id 0.
        let mut t = RibTable::new();
        for c in 0..=1u32 << 16 {
            t.apply(&ev(
                10,
                &c.to_string(),
                "10.0.0.9",
                65001,
                RibAction::PeerUp,
            ));
        }
    }

    #[test]
    fn moas_origins_surface_in_view() {
        let mut t = RibTable::new();
        t.apply(&ev(
            10,
            "rrc00",
            "10.0.0.9",
            65001,
            announce("1.0.0.0/8", &[65001, 20], 10),
        ));
        t.apply(&ev(
            11,
            "rrc00",
            "10.0.1.9",
            65002,
            announce("1.0.0.0/8", &[65002, 99], 11),
        ));
        let view = t.view(11);
        assert_eq!(view.len(), 2);
        assert_eq!(view.origin_asns(), vec![Asn(20), Asn(99)]);
    }
}
