//! `RibQuery` — the one consumer-facing query surface over a
//! [`RibStore`].
//!
//! A query is a builder: pick an instant ([`at`](RibQuery::at),
//! default = latest complete) or a range
//! ([`history`](RibQuery::history)), narrow by
//! [`prefix`](RibQuery::prefix) / [`origin_asn`](RibQuery::origin_asn)
//! / [`peer`](RibQuery::peer) / [`collector`](RibQuery::collector),
//! then resolve: [`table`](RibQuery::table) answers with the routing
//! table *as of* the instant (time-travel), [`events`](RibQuery::events)
//! returns the journal slice (what changed, when).
//!
//! Resolution narrows while it reads, never after. It reads the
//! latest sealed snapshot at or before the instant through the index
//! the snapshot was opened into once (see [`Snapshot`]): only the
//! vantage points the query admits, and in each only the rows a prefix
//! search or the origin's posting list names. It then visits the
//! journal tail by reference, applying to the admitted cells the
//! transition rules [`RibTable::apply`] applies to the whole table. An
//! unnarrowed query is the predicate that admits everything; there is
//! no second path.
//!
//! [`Snapshot`]: crate::Snapshot
//!
//! [`RibTable::apply`]: crate::RibTable::apply

use std::collections::BTreeMap;
use std::fmt;
use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::codec::{ip_sort_key, prefix_sort_key};
use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, CodecError, Prefix};

use crate::index::{read_row, TableIndex};
use crate::store::RibStore;
use crate::table::{RibAction, RibEvent, RibRoute, TableRow, TableView};

/// Why a query could not resolve.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RibError {
    /// The requested instant is at or past the fold watermark — the
    /// RIB is not yet complete there. Retry later (live) or lower `T`.
    BeyondWatermark {
        /// The instant asked for.
        requested: u64,
        /// Folds are complete strictly below this.
        watermark: u64,
    },
    /// Nothing has been folded into the store yet.
    EmptyStore,
    /// [`events`](RibQuery::events) needs a
    /// [`history`](RibQuery::history) range.
    MissingHistoryRange,
    /// A stored snapshot failed to open (torn write, version skew).
    Corrupt(CodecError),
}

impl fmt::Display for RibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RibError::BeyondWatermark {
                requested,
                watermark,
            } => write!(
                f,
                "instant {requested} is beyond the RIB watermark (complete below {watermark})"
            ),
            RibError::EmptyStore => write!(f, "the RIB store holds no folded state yet"),
            RibError::MissingHistoryRange => {
                write!(f, "events() needs a history(from, to) range")
            }
            RibError::Corrupt(e) => write!(f, "corrupt RIB artifact: {e}"),
        }
    }
}

impl std::error::Error for RibError {}

/// A time-travel query over reconstructed RIB state. See the module
/// docs; construction is `RibQuery::new()` plus chained narrowing.
#[derive(Clone, Debug, Default)]
pub struct RibQuery {
    at: Option<u64>,
    history: Option<(u64, u64)>,
    prefix: Option<(Prefix, PrefixMatch)>,
    origin: Option<Asn>,
    peer: Option<IpAddr>,
    collector: Option<String>,
}

impl RibQuery {
    /// An unconstrained query (resolves the full latest table).
    pub fn new() -> Self {
        RibQuery::default()
    }

    /// Resolve the table as of instant `t` (must be below the store
    /// watermark). Without this, [`table`](RibQuery::table) resolves
    /// the latest complete instant.
    pub fn at(mut self, t: u64) -> Self {
        self.at = Some(t);
        self
    }

    /// Select the journal range `[from, to]` (inclusive) for
    /// [`events`](RibQuery::events).
    pub fn history(mut self, from: u64, to: u64) -> Self {
        self.history = Some((from, to));
        self
    }

    /// Keep only this exact prefix.
    pub fn prefix(self, prefix: Prefix) -> Self {
        self.prefix_matching(prefix, PrefixMatch::Exact)
    }

    /// Keep prefixes related to `prefix` under `mode` (the four
    /// filter-language match modes: exact, more-specific,
    /// less-specific, any overlap).
    pub fn prefix_matching(mut self, prefix: Prefix, mode: PrefixMatch) -> Self {
        self.prefix = Some((prefix, mode));
        self
    }

    /// Keep only routes originated by this AS.
    pub fn origin_asn(mut self, asn: Asn) -> Self {
        self.origin = Some(asn);
        self
    }

    /// Keep only this vantage point's Loc-RIB.
    pub fn peer(mut self, peer: IpAddr) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Keep only vantage points of this collector.
    pub fn collector(mut self, name: impl Into<String>) -> Self {
        self.collector = Some(name.into());
        self
    }

    /// The routing table as of the queried instant, narrowed by the
    /// query's filters: the latest snapshot `S ≤ T` read with only the
    /// admitted rows decoded, the journal slice `[S, T]` applied to
    /// those rows, canonical row order. The snapshot is opened — its
    /// checksum checked and its rows indexed — by the first read of
    /// any clone of it, and a snapshot the full decode refuses fails
    /// every query with the same error.
    pub fn table(&self, store: &dyn RibStore) -> Result<TableView, RibError> {
        let watermark = store.watermark();
        if watermark == 0 {
            return Err(RibError::EmptyStore);
        }
        let at = self.at.unwrap_or(watermark - 1);
        if at >= watermark {
            return Err(RibError::BeyondWatermark {
                requested: at,
                watermark,
            });
        }
        let mut resolver = Resolver::new(self);
        let from = match store.snapshot_at(at) {
            Some(snap) => {
                snap.opened()
                    .and_then(|(payload, index)| resolver.read(payload, index))
                    .map_err(RibError::Corrupt)?;
                snap.at
            }
            None => 0,
        };
        // The snapshot holds events with time < from; the journal
        // tail [from, at] is exactly what is missing.
        store.visit_events_in(from, at, &mut |ev| resolver.apply(ev));
        Ok(resolver.view(at))
    }

    /// The journal slice for the [`history`](RibQuery::history)
    /// range, narrowed by the query's filters. An inverted range
    /// (`from > to`) has no events.
    pub fn events(&self, store: &dyn RibStore) -> Result<Vec<RibEvent>, RibError> {
        let (from, to) = self.history.ok_or(RibError::MissingHistoryRange)?;
        let watermark = store.watermark();
        if watermark == 0 {
            return Err(RibError::EmptyStore);
        }
        if to >= watermark {
            return Err(RibError::BeyondWatermark {
                requested: to,
                watermark,
            });
        }
        let mut events = Vec::new();
        store.visit_events_in(from, to, &mut |ev| {
            if self.matches_event(ev) {
                events.push(ev.clone());
            }
        });
        Ok(events)
    }

    fn matches_meta(&self, collector: &str, peer: &IpAddr) -> bool {
        self.collector.as_deref().is_none_or(|c| c == collector)
            && self.peer.is_none_or(|p| p == *peer)
    }

    fn matches_prefix(&self, prefix: &Prefix) -> bool {
        self.prefix
            .as_ref()
            .is_none_or(|(f, mode)| mode.relates(f, prefix))
    }

    fn matches_route(&self, prefix: &Prefix, route: &RibRoute) -> bool {
        self.matches_prefix(prefix) && self.origin.is_none_or(|o| route.origin_asn() == Some(o))
    }

    fn matches_event(&self, ev: &RibEvent) -> bool {
        if !self.matches_meta(&ev.collector, &ev.peer) {
            return false;
        }
        match ev.prefix() {
            Some(p) => {
                if !self.matches_prefix(p) {
                    return false;
                }
            }
            // Session events carry no prefix: they pass only when the
            // query does not narrow by prefix or origin.
            None => {
                if self.prefix.is_some() || self.origin.is_some() {
                    return false;
                }
            }
        }
        if let Some(origin) = self.origin {
            // Only announcements carry an origin; withdrawals are
            // excluded from origin-narrowed histories.
            let RibAction::Announce { route, .. } = &ev.action else {
                return false;
            };
            if route.origin_asn() != Some(origin) {
                return false;
            }
        }
        true
    }
}

/// One admitted vantage point's admitted rows, keyed canonically.
struct PeerRows {
    peer: IpAddr,
    peer_asn: Asn,
    rows: BTreeMap<(bool, u8, u128), (Prefix, RibRoute)>,
}

/// The one resolution path of [`RibQuery::table`]: the admitted rows
/// of the snapshot, read through its index, then the journal tail
/// applied to them, then the rows moved out in canonical
/// `(collector, peer, prefix)` order.
///
/// On the admitted cells it applies what [`RibTable::apply`] does to
/// the whole table. Every event of an admitted vantage point sets its
/// ASN; an announcement the query admits installs its row, one it does
/// not admit removes the cell (the route it replaced may have been
/// admitted); a withdrawal removes the cell; peer-down clears the peer.
///
/// [`RibTable::apply`]: crate::RibTable::apply
struct Resolver<'q> {
    query: &'q RibQuery,
    /// Admitted vantage points by collector and canonical address.
    peers: BTreeMap<(Arc<str>, (bool, u128)), PeerRows>,
}

impl<'q> Resolver<'q> {
    fn new(query: &'q RibQuery) -> Self {
        Resolver {
            query,
            peers: BTreeMap::new(),
        }
    }

    /// Read the admitted rows of a snapshot: only the sections the
    /// query admits, and in each only the rows its origin or prefix
    /// narrowing can admit. The index has already applied the table's
    /// replacement rules, so each row read is final.
    fn read(&mut self, payload: &[u8], index: &TableIndex) -> Result<(), CodecError> {
        for section in index.sections() {
            if !self.query.matches_meta(&section.collector, &section.peer) {
                continue;
            }
            let mut rows = Vec::new();
            let mut keep = |at: u32| -> Result<(), CodecError> {
                let (prefix, route) = read_row(payload, at)?;
                if self.query.matches_route(&prefix, &route) {
                    rows.push((prefix_sort_key(&prefix), (prefix, route)));
                }
                Ok(())
            };
            if let Some(origin) = self.query.origin {
                index.posted(section, origin).try_for_each(&mut keep)?;
            } else if let Some((filter, mode)) = &self.query.prefix {
                for run in index.matching(payload, section, filter, *mode)? {
                    run.iter().try_for_each(|&at| keep(at))?;
                }
            } else {
                index.rows(section).iter().try_for_each(|&at| keep(at))?;
            }
            self.peers.insert(
                (section.collector.clone(), ip_sort_key(&section.peer)),
                PeerRows {
                    peer: section.peer,
                    peer_asn: section.peer_asn,
                    rows: rows.into_iter().collect(),
                },
            );
        }
        Ok(())
    }

    /// Apply one journal event to the admitted cells.
    fn apply(&mut self, ev: &RibEvent) {
        if !self.query.matches_meta(&ev.collector, &ev.peer) {
            return;
        }
        let peer = self
            .peers
            .entry((ev.collector.clone(), ip_sort_key(&ev.peer)))
            .or_insert_with(|| PeerRows {
                peer: ev.peer,
                peer_asn: ev.peer_asn,
                rows: BTreeMap::new(),
            });
        peer.peer_asn = ev.peer_asn;
        match &ev.action {
            RibAction::Announce { prefix, route } if self.query.matches_route(prefix, route) => {
                peer.rows
                    .insert(prefix_sort_key(prefix), (*prefix, route.clone()));
            }
            RibAction::Announce { prefix, .. } | RibAction::Withdraw { prefix } => {
                peer.rows.remove(&prefix_sort_key(prefix));
            }
            RibAction::PeerDown => peer.rows.clear(),
            RibAction::PeerUp => {}
        }
    }

    /// Move the admitted rows out in canonical order.
    fn view(self, at: u64) -> TableView {
        let mut rows = Vec::with_capacity(self.peers.values().map(|p| p.rows.len()).sum());
        for ((collector, _), peer) in self.peers {
            rows.extend(peer.rows.into_values().map(|(prefix, route)| TableRow {
                collector: collector.clone(),
                peer: peer.peer,
                peer_asn: peer.peer_asn,
                prefix,
                route,
            }));
        }
        TableView { at, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemoryRibStore, Snapshot};
    use crate::table::RibTable;
    use bgp_types::codec::seal_frame;
    use bgp_types::AsPath;
    use std::sync::Arc;

    fn announce(
        time: u64,
        collector: &str,
        peer: &str,
        asn: u32,
        prefix: &str,
        path: &[u32],
    ) -> RibEvent {
        RibEvent {
            time,
            collector: collector.into(),
            peer: peer.parse().unwrap(),
            peer_asn: Asn(asn),
            action: RibAction::Announce {
                prefix: prefix.parse().unwrap(),
                route: RibRoute {
                    path: Some(AsPath::from_sequence(path.iter().copied())),
                    next_hop: None,
                    communities: Default::default(),
                    updated_at: time,
                },
            },
        }
    }

    fn withdraw(time: u64, collector: &str, peer: &str, asn: u32, prefix: &str) -> RibEvent {
        RibEvent {
            time,
            collector: collector.into(),
            peer: peer.parse().unwrap(),
            peer_asn: Asn(asn),
            action: RibAction::Withdraw {
                prefix: prefix.parse().unwrap(),
            },
        }
    }

    fn seeded_store() -> Arc<MemoryRibStore> {
        let store = MemoryRibStore::shared();
        store.publish(
            100,
            vec![
                announce(10, "rrc00", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 20]),
                announce(20, "rrc00", "10.0.0.9", 65001, "2.0.0.0/8", &[65001, 30]),
                announce(
                    30,
                    "route-views2",
                    "10.0.1.9",
                    65002,
                    "1.0.0.0/8",
                    &[65002, 99],
                ),
            ],
            None,
        );
        store.publish(
            200,
            vec![withdraw(150, "rrc00", "10.0.0.9", 65001, "2.0.0.0/8")],
            None,
        );
        store
    }

    #[test]
    fn time_travel_sees_state_as_of_the_instant() {
        let store = seeded_store();
        let before = RibQuery::new().at(149).table(&*store).unwrap();
        assert_eq!(before.len(), 3);
        let after = RibQuery::new().at(199).table(&*store).unwrap();
        assert_eq!(after.len(), 2);
        // Default instant = latest complete.
        let latest = RibQuery::new().table(&*store).unwrap();
        assert_eq!(latest.at, 199);
        assert_eq!(latest.encode(), after.encode());
    }

    #[test]
    fn narrowing_filters_compose() {
        let store = seeded_store();
        let q = RibQuery::new().at(149).prefix("1.0.0.0/8".parse().unwrap());
        let view = q.table(&*store).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.origin_asns(), vec![Asn(20), Asn(99)]);
        let one = RibQuery::new()
            .at(149)
            .prefix("1.0.0.0/8".parse().unwrap())
            .collector("rrc00")
            .table(&*store)
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.rows[0].peer_asn, Asn(65001));
        let origin = RibQuery::new()
            .at(149)
            .origin_asn(Asn(99))
            .table(&*store)
            .unwrap();
        assert_eq!(origin.len(), 1);
        let peered = RibQuery::new()
            .at(149)
            .peer("10.0.1.9".parse().unwrap())
            .table(&*store)
            .unwrap();
        assert_eq!(peered.len(), 1);
    }

    #[test]
    fn watermark_is_enforced() {
        let store = seeded_store();
        assert_eq!(
            RibQuery::new().at(200).table(&*store),
            Err(RibError::BeyondWatermark {
                requested: 200,
                watermark: 200
            })
        );
        assert!(RibQuery::new().at(199).table(&*store).is_ok());
        let empty = MemoryRibStore::new();
        assert_eq!(RibQuery::new().table(&empty), Err(RibError::EmptyStore));
    }

    #[test]
    fn history_mode_slices_and_filters_the_journal() {
        let store = seeded_store();
        assert_eq!(
            RibQuery::new().events(&*store),
            Err(RibError::MissingHistoryRange)
        );
        let all = RibQuery::new().history(0, 199).events(&*store).unwrap();
        assert_eq!(all.len(), 4);
        let pfx = RibQuery::new()
            .history(0, 199)
            .prefix("2.0.0.0/8".parse().unwrap())
            .events(&*store)
            .unwrap();
        assert_eq!(pfx.len(), 2);
        assert!(matches!(pfx[1].action, RibAction::Withdraw { .. }));
        let origin = RibQuery::new()
            .history(0, 199)
            .origin_asn(Asn(99))
            .events(&*store)
            .unwrap();
        assert_eq!(origin.len(), 1);
        assert_eq!(
            RibQuery::new().history(0, 200).events(&*store),
            Err(RibError::BeyondWatermark {
                requested: 200,
                watermark: 200
            })
        );
    }

    #[test]
    fn snapshot_plus_delta_equals_full_replay() {
        let store = seeded_store();
        // Manually seal a snapshot at 100 (events < 100) and verify
        // at(199) resolves identically with and without it.
        let full = RibQuery::new().at(199).table(&*store).unwrap();
        let mut table = RibTable::new();
        for ev in store.events_in(0, 99) {
            table.apply(&ev);
        }
        let snapped = MemoryRibStore::new();
        snapped.publish(
            100,
            store.events_in(0, 99),
            Some(Snapshot::seal(100, &table)),
        );
        snapped.publish(200, store.events_in(100, 199), None);
        let via_snapshot = RibQuery::new().at(199).table(&snapped).unwrap();
        assert_eq!(via_snapshot.encode(), full.encode());
    }

    #[test]
    fn an_inverted_history_range_has_no_events() {
        // An empty range has no events, whichever way it is inverted.
        let store = seeded_store();
        assert_eq!(
            RibQuery::new().history(200, 100).events(&*store),
            Ok(vec![])
        );
        assert_eq!(RibQuery::new().history(150, 20).events(&*store), Ok(vec![]));
    }

    /// Every table query kind over `store`, at an instant the snapshot
    /// at 100 answers.
    fn every_kind(store: &MemoryRibStore) -> Vec<Result<TableView, RibError>> {
        let p: Prefix = "1.0.0.0/8".parse().unwrap();
        let mut queries = vec![
            RibQuery::new(),
            RibQuery::new().origin_asn(Asn(99)),
            RibQuery::new().peer("10.0.1.9".parse().unwrap()),
            RibQuery::new().collector("rrc00"),
            RibQuery::new().prefix(p).collector("route-views2"),
        ];
        for mode in [
            PrefixMatch::Exact,
            PrefixMatch::MoreSpecific,
            PrefixMatch::LessSpecific,
            PrefixMatch::Any,
        ] {
            queries.push(RibQuery::new().prefix_matching(p, mode));
        }
        queries
            .into_iter()
            .map(|q| q.at(150).table(store))
            .collect()
    }

    /// A store whose only snapshot is `frame`, sealed at 100, with one
    /// journal event after it.
    fn store_over(frame: Vec<u8>) -> (MemoryRibStore, Snapshot) {
        let snap = Snapshot::from_frame(100, frame);
        let store = MemoryRibStore::new();
        store.publish(100, vec![], Some(snap.clone()));
        store.publish(
            200,
            vec![withdraw(120, "rrc00", "10.0.0.9", 65001, "2.0.0.0/8")],
            None,
        );
        (store, snap)
    }

    #[test]
    fn a_snapshot_the_full_decode_refuses_fails_every_query_alike() {
        let mut table = RibTable::new();
        for ev in seeded_store().events_in(0, 99) {
            table.apply(&ev);
        }
        let payload = table.encode();
        // A payload cut anywhere, re-sealed so the checksum passes.
        for cut in 0..payload.len() {
            let (store, snap) = store_over(seal_frame(&payload[..cut]));
            let want = snap.table().unwrap_err();
            for got in every_kind(&store) {
                assert_eq!(got, Err(RibError::Corrupt(want.clone())), "cut at {cut}");
            }
        }
        // A flipped checksum byte.
        let mut frame = table.seal();
        *frame.last_mut().unwrap() ^= 1;
        let (store, snap) = store_over(frame);
        let want = snap.table().unwrap_err();
        for got in every_kind(&store) {
            assert_eq!(got, Err(RibError::Corrupt(want.clone())));
        }
    }

    #[test]
    fn a_flipped_payload_byte_answers_as_the_full_decode_does() {
        // Flips that still decode can repeat a section or a prefix, or
        // break the canonical order: narrowed answers must still equal
        // the full decode's, resolved and then filtered.
        let mut table = RibTable::new();
        for ev in seeded_store().events_in(0, 99) {
            table.apply(&ev);
        }
        let payload = table.encode();
        for at in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= 0x01;
            let (store, snap) = store_over(seal_frame(&flipped));
            let got = every_kind(&store);
            let Ok(mut decoded) = snap.table() else {
                let want = snap.table().unwrap_err();
                assert!(got
                    .iter()
                    .all(|g| *g == Err(RibError::Corrupt(want.clone()))));
                continue;
            };
            decoded.apply(&withdraw(120, "rrc00", "10.0.0.9", 65001, "2.0.0.0/8"));
            let full = decoded.view(150);
            let p: Prefix = "1.0.0.0/8".parse().unwrap();
            let keeps: [&dyn Fn(&TableRow) -> bool; 9] = [
                &|_| true,
                &|r| r.route.origin_asn() == Some(Asn(99)),
                &|r| r.peer == "10.0.1.9".parse::<IpAddr>().unwrap(),
                &|r| &*r.collector == "rrc00",
                &|r| r.prefix == p && &*r.collector == "route-views2",
                &|r| r.prefix == p,
                &|r| p.contains(&r.prefix),
                &|r| r.prefix.contains(&p),
                &|r| p.overlaps(&r.prefix),
            ];
            for (got, keep) in got.into_iter().zip(keeps) {
                let mut want = full.clone();
                want.rows.retain(keep);
                assert_eq!(got.unwrap().encode(), want.encode(), "flip at {at}");
            }
        }
    }
}
