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
//! Resolution narrows while it reads, never after, and is one sorted
//! merge. It lists the rows of the latest sealed snapshot at or before
//! the instant through the index the snapshot was opened into once
//! (see [`Snapshot`]): only the vantage points the query admits, and in
//! each only the rows a prefix search or the origin's posting list
//! names, in prefix order. It then folds the journal tail, by
//! reference, into an overlay per vantage point that applies to the
//! admitted cells the transition rules [`RibTable::apply`] applies to
//! the whole table, and merges the overlay, sorted once, into the
//! listed rows: each surviving row is decoded once, straight into the
//! answer. An unnarrowed query is the predicate that admits
//! everything; there is no second path.
//!
//! [`Snapshot`]: crate::Snapshot
//!
//! [`RibTable::apply`]: crate::RibTable::apply

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::ops::Range;
use std::sync::Arc;

use bgp_types::codec::{ip_sort_key, prefix_sort_key};
use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, CodecError, Prefix};
use fxhash::{FxHashMap, FxHashSet};

use crate::index::{row_prefix, PrefixKey, TableIndex};
use crate::store::{RibStore, Snapshot};
use crate::table::{get_rib_route, RibAction, RibEvent, RibRoute, TableRow, TableView};

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
        let snapshot = store.snapshot_at(at);
        // Opened before the tail is read, so a snapshot that fails to
        // open fails every query the same way.
        let opened =
            (snapshot.as_ref().map(Snapshot::opened).transpose()).map_err(RibError::Corrupt)?;
        // The snapshot holds events with time < from; the journal
        // tail [from, at] is exactly what is missing.
        let from = snapshot.as_ref().map_or(0, |s| s.at);
        let mut resolver = Resolver::new(self, opened).map_err(RibError::Corrupt)?;
        store.visit_events_in(from, at, &mut |ev| resolver.fold(ev));
        resolver.view(at).map_err(RibError::Corrupt)
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

    fn matches_origin(&self, route: &RibRoute) -> bool {
        self.origin.is_none_or(|o| route.origin_asn() == Some(o))
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

/// One admitted vantage point: the snapshot rows the query's
/// narrowing names, and what the journal tail did to them.
struct Vp {
    peer_asn: Asn,
    /// A peer-down came in the tail: none of the snapshot rows survive.
    cleared: bool,
    /// The snapshot rows, as a range of [`Resolver::offsets`].
    rows: Range<usize>,
    /// Under origin narrowing, the prefixes of those rows. Removing a
    /// cell that is neither among them nor installed by the tail
    /// removes nothing, and the overlay does not record it.
    listed: Option<FxHashSet<Cell>>,
    /// Each cell the tail decided: where in `installs` its last
    /// admitted route is, or `None` once the tail removed it.
    cells: FxHashMap<Cell, Option<usize>>,
    /// The routes the tail installed; one a later event replaced or
    /// removed is left behind unreferenced.
    installs: Vec<Option<(Prefix, RibRoute)>>,
}

/// A cell's [`PrefixKey`], as the overlay hashes it. The Fx hasher's
/// multiply carries entropy only towards the high bits, and an IPv4
/// prefix's bits sit at the top of its key: hashed as it is, every IPv4
/// prefix of one length would share the low hash bits a table picks
/// its bucket by. So the key is folded to 64 bits and mixed first, with
/// MurmurHash3's finaliser.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Cell(PrefixKey);

impl Hash for Cell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (v6, len, bits) = self.0;
        let mut x = (bits >> 64) as u64 ^ (bits as u64).rotate_left(32);
        x ^= u64::from(len) << 1 | u64::from(v6);
        for k in [0xff51_afd7_ed55_8ccd, 0xc4ce_b9fe_1a85_ec53] {
            x ^= x >> 33;
            x = x.wrapping_mul(k);
        }
        state.write_u64(x ^ x >> 33);
    }
}

impl Cell {
    fn of(prefix: &Prefix) -> Cell {
        Cell(prefix_sort_key(prefix))
    }
}

/// The one resolution path of [`RibQuery::table`]: one sorted merge of
/// the snapshot's admitted rows with the journal tail.
///
/// The snapshot is listed first: for each admitted vantage point, the
/// payload offsets of the rows the query's narrowing names, in the
/// index's prefix order. The tail is then folded, by reference, into an
/// overlay per vantage point that applies to the admitted cells what
/// [`RibTable::apply`] does to the whole table: every event of an
/// admitted vantage point sets its ASN; an announcement the query
/// admits installs its row, one it does not admit removes the cell (the
/// route it replaced may have been admitted); a withdrawal removes the
/// cell; peer-down clears the peer. Last, each vantage point in
/// canonical `(collector, peer)` order walks its listed rows, skips
/// those whose cell the tail decided, and merges in the tail's
/// installs; each surviving row is decoded once, straight into the
/// answer.
///
/// [`RibTable::apply`]: crate::RibTable::apply
struct Resolver<'q, 'p> {
    query: &'q RibQuery,
    payload: &'p [u8],
    /// The listed rows' payload offsets, vantage point by vantage point.
    offsets: Vec<u32>,
    /// The admitted vantage points, by collector, then address.
    vps: FxHashMap<Arc<str>, FxHashMap<IpAddr, Vp>>,
}

impl<'q, 'p> Resolver<'q, 'p> {
    /// List the rows of `snapshot` the query can admit: only the
    /// sections it admits, and in each the origin's postings, the
    /// prefix filter's runs, or every row. The index has already
    /// applied the table's replacement rules, so each row is final.
    fn new(
        query: &'q RibQuery,
        snapshot: Option<(&'p [u8], &TableIndex)>,
    ) -> Result<Self, CodecError> {
        let mut resolver = Resolver {
            query,
            payload: &[],
            offsets: Vec::new(),
            vps: FxHashMap::default(),
        };
        let Some((payload, index)) = snapshot else {
            return Ok(resolver);
        };
        resolver.payload = payload;
        let offsets = &mut resolver.offsets;
        for section in index.sections() {
            if !query.matches_meta(&section.collector, &section.peer) {
                continue;
            }
            let start = offsets.len();
            if let Some(origin) = query.origin {
                offsets.extend(index.posted(section, origin));
            } else if let Some((filter, mode)) = &query.prefix {
                for run in index.matching(payload, section, filter, *mode)? {
                    offsets.extend_from_slice(run);
                }
            } else {
                offsets.extend_from_slice(index.rows(section));
            }
            let rows = start..offsets.len();
            let listed = match query.origin {
                Some(_) => Some(
                    (offsets[rows.clone()].iter())
                        .map(|&at| Ok(Cell::of(&row_prefix(payload, at)?.0)))
                        .collect::<Result<_, CodecError>>()?,
                ),
                None => None,
            };
            (resolver.vps.entry(section.collector.clone()).or_default()).insert(
                section.peer,
                Vp {
                    peer_asn: section.peer_asn,
                    cleared: false,
                    rows,
                    listed,
                    cells: FxHashMap::default(),
                    installs: Vec::new(),
                },
            );
        }
        Ok(resolver)
    }

    /// Fold one journal event into its vantage point's overlay.
    fn fold(&mut self, ev: &RibEvent) {
        let query = self.query;
        if !query.matches_meta(&ev.collector, &ev.peer) {
            return;
        }
        let vps = match self.vps.get_mut(&*ev.collector) {
            Some(vps) => vps,
            None => self.vps.entry(ev.collector.clone()).or_default(),
        };
        let vp = vps.entry(ev.peer).or_insert_with(|| Vp {
            peer_asn: ev.peer_asn,
            cleared: false,
            rows: 0..0,
            listed: query.origin.map(|_| FxHashSet::default()),
            cells: FxHashMap::default(),
            installs: Vec::new(),
        });
        vp.peer_asn = ev.peer_asn;
        let (prefix, route) = match &ev.action {
            RibAction::Announce { prefix, route } => (prefix, Some(route)),
            RibAction::Withdraw { prefix } => (prefix, None),
            RibAction::PeerDown => {
                vp.cleared = true;
                vp.cells.clear();
                vp.installs.clear();
                return;
            }
            RibAction::PeerUp => return,
        };
        // A cell outside the prefix filter is never in the answer.
        if !query.matches_prefix(prefix) {
            return;
        }
        let key = Cell::of(prefix);
        match route.filter(|route| query.matches_origin(route)) {
            Some(route) => {
                let install = Some((*prefix, route.clone()));
                match vp.cells.entry(key).or_default() {
                    Some(at) => vp.installs[*at] = install,
                    cell => {
                        *cell = Some(vp.installs.len());
                        vp.installs.push(install);
                    }
                }
            }
            None => match vp.cells.get_mut(&key) {
                Some(cell) => *cell = None,
                None if vp.listed.as_ref().is_none_or(|l| l.contains(&key)) => {
                    vp.cells.insert(key, None);
                }
                None => {}
            },
        }
    }

    /// Merge the listed rows with the tail's overlays, in canonical
    /// `(collector, peer, prefix)` order.
    fn view(self, at: u64) -> Result<TableView, CodecError> {
        let mut vps: Vec<_> = (self.vps.into_iter())
            .flat_map(|(collector, vps)| {
                vps.into_iter()
                    .map(move |(peer, vp)| (collector.clone(), peer, vp))
            })
            .map(|(collector, peer, mut vp)| {
                let mut decided: Vec<(PrefixKey, Option<usize>)> =
                    vp.cells.drain().map(|(cell, at)| (cell.0, at)).collect();
                decided.sort_unstable_by_key(|&(key, _)| key);
                if vp.cleared {
                    vp.rows = 0..0;
                }
                (collector, peer, vp, decided)
            })
            .collect();
        vps.sort_unstable_by(|(c1, p1, ..), (c2, p2, ..)| {
            (&**c1, ip_sort_key(p1)).cmp(&(&**c2, ip_sort_key(p2)))
        });
        let len = (vps.iter())
            .map(|(.., vp, decided)| {
                vp.rows.len() + decided.iter().filter(|(_, at)| at.is_some()).count()
            })
            .sum();

        let (query, payload) = (self.query, self.payload);
        let mut rows = Vec::with_capacity(len);
        for (collector, peer, mut vp, decided) in vps {
            let mut push = |row: Option<(Prefix, RibRoute)>| {
                if let Some((prefix, route)) = row {
                    rows.push(TableRow {
                        collector: collector.clone(),
                        peer,
                        peer_asn: vp.peer_asn,
                        prefix,
                        route,
                    });
                }
            };
            let mut installed = |at: Option<usize>| at.and_then(|at| vp.installs[at].take());
            let mut decided = decided.into_iter().peekable();
            for &at in &self.offsets[vp.rows] {
                let (prefix, mut r) = row_prefix(payload, at)?;
                let key = prefix_sort_key(&prefix);
                while let Some((_, at)) = decided.next_if(|&(k, _)| k < key) {
                    push(installed(at));
                }
                // The tail decided the cell.
                if let Some((_, at)) = decided.next_if(|&(k, _)| k == key) {
                    push(installed(at));
                    continue;
                }
                if !query.matches_prefix(&prefix) {
                    continue;
                }
                let route = get_rib_route(&mut r)?;
                if query.matches_origin(&route) {
                    push(Some((prefix, route)));
                }
            }
            decided.for_each(|(_, at)| push(installed(at)));
        }
        Ok(TableView { at, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemoryRibStore, Snapshot};
    use crate::table::RibTable;
    use bgp_types::codec::seal_frame;
    use bgp_types::{AsPath, AsPathSegment};
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

    fn peer_down(time: u64, collector: &str, peer: &str, asn: u32) -> RibEvent {
        RibEvent {
            time,
            collector: collector.into(),
            peer: peer.parse().unwrap(),
            peer_asn: Asn(asn),
            action: RibAction::PeerDown,
        }
    }

    /// A store whose first snapshot, sealed at 100, holds `before`, and
    /// whose journal goes on with `tail` up to a watermark of 200.
    fn snapshotted(before: Vec<RibEvent>, tail: Vec<RibEvent>) -> MemoryRibStore {
        let mut table = RibTable::new();
        for ev in &before {
            table.apply(ev);
        }
        let store = MemoryRibStore::new();
        store.publish(100, before, Some(Snapshot::seal(100, &table)));
        store.publish(200, tail, None);
        store
    }

    /// Which rows of the replayed table a query keeps.
    type Keep<'a> = &'a dyn Fn(&TableRow) -> bool;

    /// Every table query kind at each instant of `at` equals the
    /// genesis replay through `RibTable::apply`, filtered the same way.
    fn assert_resolves_as_replay(store: &MemoryRibStore, at: &[u64]) {
        let p: Prefix = "1.0.0.0/8".parse().unwrap();
        let peer: IpAddr = "10.0.0.9".parse().unwrap();
        let kinds: [(RibQuery, Keep); 8] = [
            (RibQuery::new(), &|_| true),
            (RibQuery::new().prefix(p), &|r| r.prefix == p),
            (RibQuery::new().prefix_matching(p, PrefixMatch::Any), &|r| {
                p.overlaps(&r.prefix)
            }),
            (RibQuery::new().origin_asn(Asn(20)), &|r| {
                r.route.origin_asn() == Some(Asn(20))
            }),
            (RibQuery::new().origin_asn(Asn(30)), &|r| {
                r.route.origin_asn() == Some(Asn(30))
            }),
            (RibQuery::new().origin_asn(Asn(20)).prefix(p), &|r| {
                r.route.origin_asn() == Some(Asn(20)) && r.prefix == p
            }),
            (RibQuery::new().peer(peer), &|r| r.peer == peer),
            (RibQuery::new().collector("rrc01"), &|r| {
                &*r.collector == "rrc01"
            }),
        ];
        for &t in at {
            let mut table = RibTable::new();
            for ev in store.events_in(0, t) {
                table.apply(&ev);
            }
            let full = table.view(t);
            for (query, keep) in &kinds {
                let mut want = full.clone();
                want.rows.retain(keep);
                let got = query.clone().at(t).table(store).unwrap();
                assert_eq!(got.encode(), want.encode(), "{query:?} at {t}");
            }
        }
    }

    #[test]
    fn a_peer_down_then_a_reannounce_keeps_only_the_reannounced_row() {
        let store = snapshotted(
            vec![
                announce(10, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 20]),
                announce(11, "rrc01", "10.0.0.9", 65001, "2.0.0.0/8", &[65001, 20]),
                announce(12, "rrc01", "10.0.0.9", 65001, "3.0.0.0/8", &[65001, 30]),
                announce(13, "rrc01", "10.0.1.9", 65002, "1.0.0.0/8", &[65002, 20]),
            ],
            vec![
                peer_down(110, "rrc01", "10.0.0.9", 65001),
                announce(120, "rrc01", "10.0.0.9", 65009, "2.0.0.0/8", &[65009, 30]),
                announce(130, "rrc01", "10.0.0.9", 65009, "1.0.0.0/8", &[65009, 20]),
            ],
        );
        assert_resolves_as_replay(&store, &[105, 115, 125, 135]);
        let view = RibQuery::new().at(125).table(&store).unwrap();
        let peer: IpAddr = "10.0.0.9".parse().unwrap();
        let rows: Vec<&TableRow> = view.rows.iter().filter(|r| r.peer == peer).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].peer_asn, Asn(65009));
    }

    #[test]
    fn tail_only_peers_merge_in_canonical_order() {
        // Snapshot sections rrc01/10.0.0.5 and rrc01/10.0.0.9; the tail
        // adds vantage points before, between and after them.
        let store = snapshotted(
            vec![
                announce(10, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 20]),
                announce(11, "rrc01", "10.0.0.5", 65005, "1.0.0.0/8", &[65005, 20]),
            ],
            vec![
                announce(110, "rrc02", "10.0.0.1", 65010, "1.0.0.0/8", &[65010, 20]),
                announce(
                    111,
                    "rrc01",
                    "2001:db8::1",
                    65011,
                    "1.0.0.0/8",
                    &[65011, 30],
                ),
                announce(112, "rrc01", "10.0.0.7", 65012, "1.0.0.0/8", &[65012, 20]),
                announce(113, "rrc00", "10.0.0.9", 65013, "1.0.0.0/8", &[65013, 30]),
                announce(114, "rrc01", "10.0.0.6", 65014, "4.0.0.0/8", &[65014, 20]),
            ],
        );
        assert_resolves_as_replay(&store, &[110, 112, 199]);
        let view = RibQuery::new().at(199).table(&store).unwrap();
        let order: Vec<(&str, IpAddr)> =
            view.rows.iter().map(|r| (&*r.collector, r.peer)).collect();
        let ip = |s: &str| s.parse::<IpAddr>().unwrap();
        assert_eq!(
            order,
            vec![
                ("rrc00", ip("10.0.0.9")),
                ("rrc01", ip("10.0.0.5")),
                ("rrc01", ip("10.0.0.6")),
                ("rrc01", ip("10.0.0.7")),
                ("rrc01", ip("10.0.0.9")),
                ("rrc01", ip("2001:db8::1")),
                ("rrc02", ip("10.0.0.1")),
            ]
        );
    }

    #[test]
    fn a_tail_announcement_with_another_origin_replaces_an_admitted_row() {
        let store = snapshotted(
            vec![
                announce(10, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 20]),
                announce(11, "rrc01", "10.0.0.9", 65001, "2.0.0.0/8", &[65001, 30]),
            ],
            vec![
                // 1/8 leaves origin 20, 2/8 joins it; then 1/8 comes back.
                announce(110, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 30]),
                announce(120, "rrc01", "10.0.0.9", 65001, "2.0.0.0/8", &[65001, 20]),
                announce(130, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 20]),
            ],
        );
        assert_resolves_as_replay(&store, &[105, 115, 125, 135]);
        let origin_20 = |t| {
            let view = RibQuery::new()
                .origin_asn(Asn(20))
                .at(t)
                .table(&store)
                .unwrap();
            view.rows
                .iter()
                .map(|r| r.prefix.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(origin_20(115), Vec::<String>::new());
        assert_eq!(origin_20(125), vec!["2.0.0.0/8"]);
        assert_eq!(origin_20(135), vec!["1.0.0.0/8", "2.0.0.0/8"]);
    }

    #[test]
    fn a_withdrawal_of_a_prefix_the_snapshot_lacks_changes_nothing() {
        let store = snapshotted(
            vec![announce(
                10,
                "rrc01",
                "10.0.0.9",
                65001,
                "1.0.0.0/8",
                &[65001, 20],
            )],
            vec![
                withdraw(110, "rrc01", "10.0.0.9", 65001, "9.0.0.0/8"),
                withdraw(111, "rrc01", "10.0.0.9", 65001, "1.0.0.0/16"),
                // A vantage point the tail only withdraws from.
                withdraw(112, "rrc01", "10.0.0.8", 65008, "1.0.0.0/8"),
            ],
        );
        assert_resolves_as_replay(&store, &[105, 199]);
        assert_eq!(RibQuery::new().at(199).table(&store).unwrap().len(), 1);
    }

    #[test]
    fn an_instant_below_the_first_snapshot_resolves_from_the_journal() {
        let store = snapshotted(
            vec![
                announce(10, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 20]),
                announce(20, "rrc01", "10.0.1.9", 65002, "1.0.0.0/8", &[65002, 30]),
                withdraw(30, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8"),
                peer_down(40, "rrc01", "10.0.1.9", 65002),
                announce(50, "rrc01", "10.0.0.9", 65001, "1.0.0.0/8", &[65001, 30]),
            ],
            vec![announce(
                110,
                "rrc01",
                "10.0.0.9",
                65001,
                "2.0.0.0/8",
                &[65001, 20],
            )],
        );
        assert!(store.snapshot_at(99).is_none());
        assert_resolves_as_replay(&store, &[0, 15, 25, 35, 45, 55, 99, 150]);
    }

    #[test]
    fn rows_that_share_a_path_beside_an_as_set_path_decode_alike() {
        let set = RibRoute {
            path: Some(AsPath::from_segments(vec![
                AsPathSegment::Sequence(vec![Asn(65001), Asn(20)]),
                AsPathSegment::Set(vec![Asn(20), Asn(30)]),
            ])),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            communities: Default::default(),
            updated_at: 14,
        };
        let mut before: Vec<RibEvent> = ["1.0.0.0/8", "1.1.0.0/16", "3.0.0.0/8"]
            .iter()
            .enumerate()
            .map(|(i, p)| announce(10 + i as u64, "rrc01", "10.0.0.9", 65001, p, &[65001, 20]))
            .collect();
        before.push(RibEvent {
            action: RibAction::Announce {
                prefix: "2.0.0.0/8".parse().unwrap(),
                route: set,
            },
            ..announce(14, "rrc01", "10.0.0.9", 65001, "2.0.0.0/8", &[])
        });
        before.push(announce(
            15,
            "rrc01",
            "10.0.1.9",
            65002,
            "2.0.0.0/8",
            &[65001, 20],
        ));
        let store = snapshotted(
            before,
            vec![announce(
                110,
                "rrc01",
                "10.0.0.9",
                65001,
                "4.0.0.0/8",
                &[65001, 20],
            )],
        );
        assert_resolves_as_replay(&store, &[105, 115]);
        let view = RibQuery::new().at(115).table(&store).unwrap();
        assert_eq!(view.len(), 6);
        // An AS_SET at the end of a path leaves its origin undetermined.
        let origin_20 = RibQuery::new().origin_asn(Asn(20)).at(115);
        assert_eq!(origin_20.table(&store).unwrap().len(), 5);
    }
}
