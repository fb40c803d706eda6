//! The `BGPStream elem` structure (Table 1) and record decomposition.
//!
//! An MRT record may group elements of the same type but related to
//! different VPs or prefixes — routes to one prefix from many VPs (RIB
//! dump record) or announcements from one VP to many prefixes sharing
//! a path (Updates record). libBGPStream decomposes each record into a
//! set of elems; this module implements that decomposition, resolving
//! RIB-row peer indexes through the dump's `PEER_INDEX_TABLE`.

use std::net::IpAddr;

use bgp_types::{AsPath, Asn, BgpMessage, CommunitySet, Prefix, SessionState};
use mrt::table_dump_v2::TableDumpV2;
use mrt::{Bgp4mp, MrtBody, MrtRecord, PeerIndexTable};

/// Elem type (Table 1 `type` field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ElemType {
    /// A route from a RIB dump.
    RibEntry,
    /// An announcement from an Updates dump.
    Announcement,
    /// A withdrawal from an Updates dump.
    Withdrawal,
    /// A session state message (RIPE RIS VPs).
    PeerState,
}

impl ElemType {
    /// One-letter code used in ASCII output (`R`/`A`/`W`/`S`).
    pub fn code(self) -> char {
        match self {
            ElemType::RibEntry => 'R',
            ElemType::Announcement => 'A',
            ElemType::Withdrawal => 'W',
            ElemType::PeerState => 'S',
        }
    }
}

/// One elem: the unit of BGP information (Table 1).
///
/// Fields marked conditional in the paper are `Option`s populated
/// based on `elem_type`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BgpStreamElem {
    /// Route/announcement/withdrawal/state-message.
    pub elem_type: ElemType,
    /// Timestamp of the enclosing MRT record.
    pub time: u64,
    /// IP address of the VP.
    pub peer_address: IpAddr,
    /// AS number of the VP.
    pub peer_asn: Asn,
    /// IP prefix (routes, announcements, withdrawals).
    pub prefix: Option<Prefix>,
    /// Next hop (routes, announcements).
    pub next_hop: Option<IpAddr>,
    /// AS path (routes, announcements).
    pub as_path: Option<AsPath>,
    /// Community attribute (routes, announcements).
    pub communities: Option<CommunitySet>,
    /// FSM state before the change (state messages).
    pub old_state: Option<SessionState>,
    /// FSM state after the change (state messages).
    pub new_state: Option<SessionState>,
}

impl BgpStreamElem {
    /// The origin AS of the path, if determinable.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.as_path.as_ref().and_then(|p| p.origin())
    }
}

/// Outcome of decomposing one record.
pub struct ExtractedElems {
    /// The elems, in record order.
    pub elems: Vec<BgpStreamElem>,
    /// True when a RIB row referenced a peer index missing from the
    /// `PEER_INDEX_TABLE` (the record should be marked not-valid).
    pub missing_peer: bool,
}

/// Decompose an MRT record into elems. RIB rows need the dump's peer
/// index table (`pit`).
///
/// Borrowing convenience over [`extract_into`]; clones the record
/// body. The sorted-stream hot path uses [`extract_into`] directly,
/// which moves path attributes into the elems instead of cloning.
pub fn extract(record: &MrtRecord, pit: Option<&PeerIndexTable>) -> ExtractedElems {
    let mut elems = Vec::new();
    let missing_peer = extract_into(record.clone(), pit, &mut elems);
    ExtractedElems {
        elems,
        missing_peer,
    }
}

/// Decompose an MRT record into a caller-provided buffer, consuming
/// the record. Returns the missing-peer flag of [`ExtractedElems`].
///
/// Ownership is what keeps the merge hot path allocation-light: every
/// RIB entry's attributes and the last announcement's attributes are
/// *moved* into their elems; the other announcements of an UPDATE
/// clone them, which shares them (`AsPath`/`CommunitySet` clones never
/// copy to the heap). The filtered hot
/// path extracts every record into one reusable scratch `Vec`
/// (appending; the caller clears between records), filters it in
/// place, and only then right-sizes an owned `Vec` for the survivors —
/// so records whose elems are all filtered away cost zero allocations
/// instead of one-or-two per record.
pub fn extract_into(
    record: MrtRecord,
    pit: Option<&PeerIndexTable>,
    elems: &mut Vec<BgpStreamElem>,
) -> bool {
    let time = record.timestamp as u64;
    let mut missing_peer = false;
    match record.body {
        MrtBody::Bgp4mp(Bgp4mp::Message {
            peer_asn,
            peer_ip,
            message,
            ..
        }) => {
            if let BgpMessage::Update(update) = message {
                elems.reserve(update.withdrawals.len() + update.announcements.len());
                for w in update.withdrawals {
                    elems.push(BgpStreamElem {
                        elem_type: ElemType::Withdrawal,
                        time,
                        peer_address: peer_ip,
                        peer_asn,
                        prefix: Some(w),
                        next_hop: None,
                        as_path: None,
                        communities: None,
                        old_state: None,
                        new_state: None,
                    });
                }
                if let Some(attrs) = update.attrs {
                    let mut announcements = update.announcements;
                    // All but the last announcement clone the shared
                    // attributes; the last takes ownership (the common
                    // single-announcement update never clones).
                    let last = announcements.pop();
                    for a in announcements {
                        elems.push(BgpStreamElem {
                            elem_type: ElemType::Announcement,
                            time,
                            peer_address: peer_ip,
                            peer_asn,
                            prefix: Some(a),
                            next_hop: attrs.next_hop,
                            as_path: Some(attrs.as_path.clone()),
                            communities: Some(attrs.communities.clone()),
                            old_state: None,
                            new_state: None,
                        });
                    }
                    if let Some(a) = last {
                        elems.push(BgpStreamElem {
                            elem_type: ElemType::Announcement,
                            time,
                            peer_address: peer_ip,
                            peer_asn,
                            prefix: Some(a),
                            next_hop: attrs.next_hop,
                            as_path: Some(attrs.as_path),
                            communities: Some(attrs.communities),
                            old_state: None,
                            new_state: None,
                        });
                    }
                }
            }
        }
        MrtBody::Bgp4mp(Bgp4mp::StateChange {
            peer_asn,
            peer_ip,
            old_state,
            new_state,
            ..
        }) => {
            elems.push(BgpStreamElem {
                elem_type: ElemType::PeerState,
                time,
                peer_address: peer_ip,
                peer_asn,
                prefix: None,
                next_hop: None,
                as_path: None,
                communities: None,
                old_state: Some(old_state),
                new_state: Some(new_state),
            });
        }
        MrtBody::TableDumpV2(TableDumpV2::RibRow(row)) => {
            elems.reserve(row.entries.len());
            for entry in row.entries {
                let peer = pit.and_then(|t| t.peers.get(entry.peer_index as usize));
                let Some(peer) = peer else {
                    missing_peer = true;
                    continue;
                };
                // Each entry owns its attributes: move, don't clone.
                elems.push(BgpStreamElem {
                    elem_type: ElemType::RibEntry,
                    time,
                    peer_address: peer.ip,
                    peer_asn: peer.asn,
                    prefix: Some(row.prefix),
                    next_hop: entry.attrs.next_hop,
                    as_path: Some(entry.attrs.as_path),
                    communities: Some(entry.attrs.communities),
                    old_state: None,
                    new_state: None,
                });
            }
        }
        MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(_)) | MrtBody::Unknown(_) => {}
    }
    missing_peer
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{BgpUpdate, PathAttributes};
    use mrt::{PeerEntry, RibEntry, RibRow};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn attrs() -> PathAttributes {
        PathAttributes::route(
            AsPath::from_sequence([65001, 3356, 137]),
            "192.0.2.1".parse().unwrap(),
        )
    }

    fn update_record() -> MrtRecord {
        MrtRecord::bgp4mp(
            77,
            Bgp4mp::Message {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: BgpMessage::Update(BgpUpdate {
                    withdrawals: vec![p("198.51.100.0/24")],
                    attrs: Some(attrs()),
                    announcements: vec![p("203.0.113.0/24"), p("203.0.113.128/25")],
                }),
            },
        )
    }

    #[test]
    fn update_decomposes_into_withdrawal_plus_announcements() {
        let out = extract(&update_record(), None);
        assert!(!out.missing_peer);
        assert_eq!(out.elems.len(), 3);
        assert_eq!(out.elems[0].elem_type, ElemType::Withdrawal);
        assert_eq!(out.elems[0].prefix, Some(p("198.51.100.0/24")));
        assert!(out.elems[0].as_path.is_none());
        assert_eq!(out.elems[1].elem_type, ElemType::Announcement);
        assert_eq!(out.elems[1].origin_asn(), Some(Asn(137)));
        assert_eq!(out.elems[1].time, 77);
        // Announcements share one attribute set (one record, many elems).
        assert_eq!(out.elems[1].as_path, out.elems[2].as_path);
    }

    #[test]
    fn state_change_has_states_only() {
        let rec = MrtRecord::bgp4mp(
            9,
            Bgp4mp::StateChange {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                old_state: SessionState::Established,
                new_state: SessionState::Idle,
            },
        );
        let out = extract(&rec, None);
        assert_eq!(out.elems.len(), 1);
        let e = &out.elems[0];
        assert_eq!(e.elem_type, ElemType::PeerState);
        assert_eq!(e.old_state, Some(SessionState::Established));
        assert_eq!(e.new_state, Some(SessionState::Idle));
        assert!(e.prefix.is_none() && e.as_path.is_none());
    }

    fn pit() -> PeerIndexTable {
        PeerIndexTable {
            collector_bgp_id: 1,
            view_name: String::new(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    ip: "192.0.2.1".parse().unwrap(),
                    asn: Asn(65001),
                },
                PeerEntry {
                    bgp_id: 2,
                    ip: "192.0.2.2".parse().unwrap(),
                    asn: Asn(65002),
                },
            ],
        }
    }

    fn rib_record(peer_indexes: &[u16]) -> MrtRecord {
        MrtRecord::table_dump_v2(
            50,
            TableDumpV2::RibRow(RibRow {
                sequence: 0,
                prefix: p("203.0.113.0/24"),
                entries: peer_indexes
                    .iter()
                    .map(|&i| RibEntry {
                        peer_index: i,
                        originated_time: 10,
                        attrs: attrs(),
                    })
                    .collect(),
            }),
        )
    }

    #[test]
    fn rib_row_resolves_peers() {
        let out = extract(&rib_record(&[0, 1]), Some(&pit()));
        assert!(!out.missing_peer);
        assert_eq!(out.elems.len(), 2);
        assert_eq!(out.elems[0].peer_asn, Asn(65001));
        assert_eq!(out.elems[1].peer_asn, Asn(65002));
        assert!(out.elems.iter().all(|e| e.elem_type == ElemType::RibEntry));
    }

    #[test]
    fn rib_row_with_bad_peer_index_flags_missing() {
        let out = extract(&rib_record(&[0, 9]), Some(&pit()));
        assert!(out.missing_peer);
        assert_eq!(out.elems.len(), 1);
    }

    #[test]
    fn rib_row_without_pit_flags_missing() {
        let out = extract(&rib_record(&[0]), None);
        assert!(out.missing_peer);
        assert!(out.elems.is_empty());
    }

    #[test]
    fn peer_index_table_has_no_elems() {
        let rec = MrtRecord::table_dump_v2(1, TableDumpV2::PeerIndexTable(pit()));
        let out = extract(&rec, None);
        assert!(out.elems.is_empty());
        assert!(!out.missing_peer);
    }

    #[test]
    fn elem_type_codes() {
        assert_eq!(ElemType::RibEntry.code(), 'R');
        assert_eq!(ElemType::Announcement.code(), 'A');
        assert_eq!(ElemType::Withdrawal.code(), 'W');
        assert_eq!(ElemType::PeerState.code(), 'S');
    }
}
