//! The tentpole equivalence proof: for **any** generated update
//! stream, snapshot cadence, bin size and crash plan, a time-travel
//! query answered from the nearest sealed snapshot plus the event
//! delta is byte-identical to a full replay of the journal from
//! genesis — and the store contents themselves are unperturbed by
//! checkpoint/restore crashes mid-bin (the supervisor's recovery
//! model: restore the last bin-boundary checkpoint, replay the open
//! bin, and rely on the store's idempotent publication to drop
//! duplicates).

use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::{AsPath, Asn, Community, CommunitySet, Prefix, SessionState};
use bgpstream::elem::{BgpStreamElem, ElemType};
use bgpstream::record::{DumpPosition, RecordStatus};
use bgpstream::BgpStreamRecord;
use broker::DumpType;
use proptest::collection::vec;
use proptest::prelude::*;
use rib::{
    MemoryRibStore, PrefixMatch, RibAction, RibEvent, RibFold, RibQuery, RibStore, RibTable,
    TableRow,
};

const PEERS: &[&str] = &["192.0.2.1", "192.0.2.2", "2001:db8::1"];
const PREFIXES: &[&str] = &[
    "203.0.113.0/24",
    "198.51.100.0/24",
    "203.0.113.128/25",
    "2001:db8:1::/48",
];
const COLLECTORS: &[(&str, &str)] = &[("ris", "rrc00"), ("routeviews", "route-views2")];

/// One generated elem: what kind, from which pooled peer, about which
/// pooled prefix, with which origin AS.
#[derive(Clone, Debug)]
struct GenElem {
    kind: u8,
    peer: usize,
    prefix: usize,
    origin: u32,
}

/// One generated record: a time increment, a collector, whether it is
/// a RIB-dump record (bootstrap path) or an updates record, and its
/// elems.
#[derive(Clone, Debug)]
struct GenRecord {
    dt: u64,
    collector: usize,
    rib: bool,
    elems: Vec<GenElem>,
}

fn arb_record() -> impl Strategy<Value = GenRecord> {
    (
        0u64..400,
        0usize..COLLECTORS.len(),
        any::<bool>(),
        vec(
            (
                0u8..4,
                0usize..PEERS.len(),
                0usize..PREFIXES.len(),
                1u32..9000,
            ),
            1..4,
        ),
    )
        .prop_map(|(dt, collector, rib, elems)| GenRecord {
            dt,
            collector,
            rib,
            elems: elems
                .into_iter()
                .map(|(kind, peer, prefix, origin)| GenElem {
                    kind,
                    peer,
                    prefix,
                    origin,
                })
                .collect(),
        })
}

/// Materialize the generated stream as time-sorted records.
fn materialize(gen: &[GenRecord]) -> Vec<BgpStreamRecord> {
    let mut t = 0u64;
    let mut out = Vec::with_capacity(gen.len());
    for g in gen {
        t += g.dt;
        let (project, collector) = COLLECTORS[g.collector];
        let elems = g
            .elems
            .iter()
            .map(|e| {
                let peer_address = PEERS[e.peer].parse().unwrap();
                let peer_asn = Asn(65000 + e.peer as u32);
                let announce_kind = if g.rib {
                    ElemType::RibEntry
                } else {
                    ElemType::Announcement
                };
                match e.kind {
                    // Announcements (or RIB rows when the record is a
                    // RIB-dump record — the bootstrap path).
                    0 | 1 => BgpStreamElem {
                        elem_type: announce_kind,
                        time: t,
                        peer_address,
                        peer_asn,
                        prefix: Some(PREFIXES[e.prefix].parse().unwrap()),
                        next_hop: Some(peer_address),
                        as_path: Some(AsPath::from_sequence([peer_asn.0, 3356, e.origin])),
                        communities: Some(CommunitySet::from_iter([Community::new(3356, 666)])),
                        old_state: None,
                        new_state: None,
                    },
                    2 => BgpStreamElem {
                        elem_type: ElemType::Withdrawal,
                        time: t,
                        peer_address,
                        peer_asn,
                        prefix: Some(PREFIXES[e.prefix].parse().unwrap()),
                        next_hop: None,
                        as_path: None,
                        communities: None,
                        old_state: None,
                        new_state: None,
                    },
                    _ => BgpStreamElem {
                        elem_type: ElemType::PeerState,
                        time: t,
                        peer_address,
                        peer_asn,
                        prefix: None,
                        next_hop: None,
                        as_path: None,
                        communities: None,
                        old_state: Some(SessionState::Established),
                        // Odd origins take the session down, even ones
                        // bring it (back) up.
                        new_state: Some(if e.origin % 2 == 1 {
                            SessionState::Idle
                        } else {
                            SessionState::Established
                        }),
                    },
                }
            })
            .collect();
        out.push(BgpStreamRecord::new(
            project,
            collector,
            if g.rib {
                DumpType::Rib
            } else {
                DumpType::Updates
            },
            t,
            t,
            DumpPosition::Middle,
            RecordStatus::Valid,
            elems,
        ));
    }
    out
}

/// Drive a fold over `records` with the sequential runner's binning,
/// crashing (checkpoint-restore-replay) just before the record
/// indexes in `faults`, mirroring the supervisor: the checkpoint is
/// whatever was sealed at the last bin boundary, and the open bin is
/// replayed from its start after the restore.
fn fold_with_faults(
    records: &[BgpStreamRecord],
    snapshot_every: u64,
    bin: u64,
    faults: &[usize],
) -> Arc<MemoryRibStore> {
    let store = MemoryRibStore::shared();
    let mut fold = RibFold::new(snapshot_every).with_store(store.clone());
    let mut ckpt = fold.checkpoint();
    let mut bin_replay: Vec<&BgpStreamRecord> = Vec::new();
    let mut bin_end: Option<u64> = None;
    for (i, rec) in records.iter().enumerate() {
        let t = rec.timestamp;
        match bin_end {
            None => bin_end = Some(t - t % bin + bin),
            Some(e) if t >= e => {
                let mut e = e;
                while t >= e {
                    fold.advance_watermark(e);
                    e += bin;
                }
                bin_end = Some(e);
                ckpt = fold.checkpoint();
                bin_replay.clear();
            }
            _ => {}
        }
        if faults.contains(&i) {
            let mut revived = RibFold::new(snapshot_every).with_store(store.clone());
            revived.restore(&ckpt).expect("restore checkpoint");
            for r in &bin_replay {
                revived.apply_record(r);
            }
            fold = revived;
        }
        fold.apply_record(rec);
        bin_replay.push(rec);
    }
    if let Some(e) = bin_end {
        fold.advance_watermark(e);
    }
    fold.finish();
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_plus_delta_equals_full_replay(
        gen in vec(arb_record(), 1..40),
        snapshot_every in prop_oneof![Just(0u64), 300u64..2000],
        bin in prop_oneof![Just(60u64), Just(300u64)],
        faults in vec(0usize..40, 0..4),
        queries in vec(0u64..20_000, 1..6),
    ) {
        let records = materialize(&gen);

        // Reference: no snapshots, no faults — the bare journal.
        let reference = fold_with_faults(&records, 0, bin, &[]);
        // Candidate: snapshot cadence + crash plan under test.
        let store = fold_with_faults(&records, snapshot_every, bin, &faults);

        // Crashes must be invisible in the published journal: the
        // store's idempotent publication drops every replayed bin.
        prop_assert_eq!(store.event_count(), reference.event_count());
        prop_assert_eq!(
            store.events_in(0, u64::MAX),
            reference.events_in(0, u64::MAX),
            "journals diverged"
        );

        // Time-travel: at any T, snapshot+delta resolution over the
        // candidate store is byte-identical to replaying the full
        // reference journal from genesis.
        for &t in &queries {
            let got = RibQuery::new().at(t).table(&*store).expect("within watermark");
            let mut replay = RibTable::new();
            for e in reference.events_in(0, t) {
                replay.apply(&e);
            }
            let want = replay.view(t);
            prop_assert_eq!(
                got.encode(),
                want.encode(),
                "query at {} diverged from full replay",
                t
            );
        }
    }
}

/// One narrowing under test, with the retain logic `RibQuery::table`
/// once ran over the whole resolved table: the oracle the pushdown
/// resolver is held to.
#[derive(Clone, Debug, Default)]
struct Narrow {
    prefix: Option<(Prefix, PrefixMatch)>,
    origin: Option<Asn>,
    peer: Option<IpAddr>,
    collector: Option<&'static str>,
}

impl Narrow {
    fn query(&self) -> RibQuery {
        let mut q = RibQuery::new();
        if let Some((p, mode)) = self.prefix {
            q = q.prefix_matching(p, mode);
        }
        if let Some(asn) = self.origin {
            q = q.origin_asn(asn);
        }
        if let Some(peer) = self.peer {
            q = q.peer(peer);
        }
        if let Some(c) = self.collector {
            q = q.collector(c);
        }
        q
    }

    fn keeps_meta(&self, collector: &str, peer: &IpAddr) -> bool {
        self.collector.is_none_or(|c| c == collector) && self.peer.is_none_or(|p| p == *peer)
    }

    fn keeps_prefix(&self, prefix: &Prefix) -> bool {
        self.prefix.is_none_or(|(f, mode)| match mode {
            PrefixMatch::Exact => f == *prefix,
            PrefixMatch::MoreSpecific => f.contains(prefix),
            PrefixMatch::LessSpecific => prefix.contains(&f),
            PrefixMatch::Any => f.overlaps(prefix),
        })
    }

    fn keeps_row(&self, row: &TableRow) -> bool {
        self.keeps_meta(&row.collector, &row.peer)
            && self.keeps_prefix(&row.prefix)
            && self
                .origin
                .is_none_or(|o| row.route.origin_asn() == Some(o))
    }

    fn keeps_event(&self, ev: &RibEvent) -> bool {
        if !self.keeps_meta(&ev.collector, &ev.peer) {
            return false;
        }
        let prefix_ok = match ev.prefix() {
            Some(p) => self.keeps_prefix(p),
            None => self.prefix.is_none() && self.origin.is_none(),
        };
        prefix_ok
            && self.origin.is_none_or(|o| match &ev.action {
                RibAction::Announce { route, .. } => route.origin_asn() == Some(o),
                _ => false,
            })
    }
}

/// Every narrowing the pushdown proof checks over `gen`: none, each
/// pooled prefix under all four match modes (the nested /24 and /25
/// make them differ), each origin the stream announced, each peer,
/// each collector, and each prefix within each collector.
fn narrowings(gen: &[GenRecord]) -> Vec<Narrow> {
    let mut out = vec![Narrow::default()];
    for p in PREFIXES {
        let p: Prefix = p.parse().unwrap();
        for mode in [
            PrefixMatch::Exact,
            PrefixMatch::MoreSpecific,
            PrefixMatch::LessSpecific,
            PrefixMatch::Any,
        ] {
            out.push(Narrow {
                prefix: Some((p, mode)),
                ..Narrow::default()
            });
        }
        for &(_, c) in COLLECTORS {
            out.push(Narrow {
                prefix: Some((p, PrefixMatch::Exact)),
                collector: Some(c),
                ..Narrow::default()
            });
        }
    }
    let mut origins: Vec<u32> = gen
        .iter()
        .flat_map(|g| &g.elems)
        .filter(|e| e.kind < 2)
        .map(|e| e.origin)
        .collect();
    origins.sort_unstable();
    origins.dedup();
    out.extend(origins.into_iter().map(|o| Narrow {
        origin: Some(Asn(o)),
        ..Narrow::default()
    }));
    out.extend(PEERS.iter().map(|p| Narrow {
        peer: Some(p.parse().unwrap()),
        ..Narrow::default()
    }));
    out.extend(COLLECTORS.iter().map(|&(_, c)| Narrow {
        collector: Some(c),
        ..Narrow::default()
    }));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pushdown proof: a narrowed query, resolved while reading the
    /// snapshot and the journal, is byte-identical to replaying the
    /// journal from genesis, building the whole view and only then
    /// filtering it; a narrowed history equals the journal slice
    /// filtered the same way.
    #[test]
    fn narrowed_query_equals_filtered_full_replay(
        gen in vec(arb_record(), 1..40),
        snapshot_every in prop_oneof![Just(0u64), 300u64..2000],
        bin in prop_oneof![Just(60u64), Just(300u64)],
        faults in vec(0usize..40, 0..4),
        queries in vec((0u64..20_000, 0u64..20_000), 1..6),
    ) {
        let records = materialize(&gen);
        let reference = fold_with_faults(&records, 0, bin, &[]);
        let store = fold_with_faults(&records, snapshot_every, bin, &faults);
        let narrows = narrowings(&gen);
        for &(t, until) in &queries {
            let mut replay = RibTable::new();
            for e in reference.events_in(0, t) {
                replay.apply(&e);
            }
            let full = replay.view(t);
            for narrow in &narrows {
                let got = narrow.query().at(t).table(&*store).expect("within watermark");
                let mut want = full.clone();
                want.rows.retain(|row| narrow.keeps_row(row));
                prop_assert_eq!(
                    got.encode(),
                    want.encode(),
                    "{:?} at {} diverged from the filtered full replay",
                    narrow,
                    t
                );

                let got = narrow.query().history(t, until).events(&*store).expect("history");
                let mut want = reference.events_in(t, until);
                want.retain(|ev| narrow.keeps_event(ev));
                prop_assert_eq!(got, want, "{:?} history [{}, {}] diverged", narrow, t, until);
            }
        }
    }
}
