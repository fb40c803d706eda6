//! `RibQuery` — the one consumer-facing query surface over a
//! [`RibStore`].
//!
//! A query is a builder: pick an instant ([`at`](RibQuery::at),
//! default = latest complete) or a range
//! ([`history`](RibQuery::history)), narrow by
//! [`prefix`](RibQuery::prefix) / [`origin_asn`](RibQuery::origin_asn)
//! / [`peer`](RibQuery::peer) / [`collector`](RibQuery::collector),
//! then resolve: [`table`](RibQuery::table) materializes the routing
//! table *as of* the instant (time-travel), [`events`](RibQuery::events)
//! returns the journal slice (what changed, when). Resolution is
//! O(snapshot + delta): restore the latest sealed snapshot at or
//! before the instant, replay the journal tail through the same
//! transition function the fold used.

use std::fmt;
use std::net::IpAddr;

use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, CodecError, Prefix};

use crate::store::RibStore;
use crate::table::{RibAction, RibEvent, RibTable, TableView};

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

    /// Materialize the routing table as of the queried instant:
    /// latest snapshot `S ≤ T`, journal replay of `[S, T]`, canonical
    /// row order, then the query's narrowing filters.
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
        let (mut table, from) = match store.snapshot_at(at) {
            Some(snap) => (snap.table().map_err(RibError::Corrupt)?, snap.at),
            None => (RibTable::new(), 0),
        };
        // The snapshot holds events with time < from; the journal
        // tail [from, at] is exactly what is missing.
        for ev in store.events_in(from, at) {
            table.apply(&ev);
        }
        let mut view = table.view(at);
        view.rows.retain(|row| {
            self.matches_meta(&row.collector, &row.peer)
                && self.matches_prefix(&row.prefix)
                && self
                    .origin
                    .is_none_or(|o| row.route.origin_asn() == Some(o))
        });
        Ok(view)
    }

    /// The journal slice for the [`history`](RibQuery::history)
    /// range, narrowed by the query's filters.
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
        Ok(store
            .events_in(from, to)
            .into_iter()
            .filter(|ev| self.matches_event(ev))
            .collect())
    }

    fn matches_meta(&self, collector: &str, peer: &IpAddr) -> bool {
        self.collector.as_deref().is_none_or(|c| c == collector)
            && self.peer.is_none_or(|p| p == *peer)
    }

    fn matches_prefix(&self, prefix: &Prefix) -> bool {
        let Some((f, mode)) = &self.prefix else {
            return true;
        };
        match mode {
            PrefixMatch::Exact => f == prefix,
            PrefixMatch::MoreSpecific => f.contains(prefix),
            PrefixMatch::LessSpecific => prefix.contains(f),
            PrefixMatch::Any => f.overlaps(prefix),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemoryRibStore, Snapshot};
    use crate::table::{RibAction, RibRoute};
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
}
