//! Borrowed, decode-free views of MRT record bodies — the first half
//! of the decoder.
//!
//! The filter-pushdown hot path wants to reject a record *before* any
//! owned [`MrtBody`] structure (heap-backed AS paths, community sets,
//! NLRI vectors) is built. [`RawMrtView::parse`] frames a record's
//! body slice just far enough to answer the questions a record-level
//! prefilter asks — which elem kinds the record can decompose into,
//! the VP identity, and the NLRI prefixes / communities it carries —
//! without allocating.
//!
//! Contract with the full decoder: there is only one.
//! [`crate::MrtRecord::decode`] *is* [`RawMrtView::parse`] followed by
//! [`RawMrtView::materialise`], and both halves — like the prefilter
//! scans here — walk the single copy of the wire grammar: the RFC 4271
//! functions in [`bgp_types::message`] and the RFC 6396 ones in
//! [`crate::bgp4mp`] / [`crate::table_dump_v2`]. So `parse` fails
//! exactly when the decoder would fail on framing, with the same
//! [`MrtError`], and a [`ScanVerdict::Reject`] — reached only after the
//! scan has walked the whole body through the decoder's own checks —
//! certifies the record would have decoded cleanly: a prefilter can
//! only ever *skip* a record it has proven both boring and well-formed.
//!
//! This module keeps only what is prefilter-specific: the
//! `prefilter_scan` predicates with their early accept,
//! [`any_community_in_attrs`], and the NLRI block scan.

use std::net::IpAddr;

use bgp_types::codec::Reader;
use bgp_types::message::{
    decode_nlri, split_nlri, walk_as_path, walk_attrs, AttrView, CodecError, UpdateView,
};
use bgp_types::{Asn, Community, Prefix};
use bytes::Bytes;

use crate::bgp4mp::{self, Bgp4mp};
use crate::reader::MrtError;
use crate::record::{MrtBody, MrtHeader, MrtType};
use crate::table_dump_v2::{self, next_rib_entry, PeerIndexTable, TableDumpV2};

/// Outcome of a single-pass prefilter scan
/// ([`RawUpdate::prefilter_scan`] / [`RawRibRow::prefilter_scan`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanVerdict {
    /// Some elem provably satisfies the caller's predicates; decode.
    Accept,
    /// No elem can satisfy them **and** the whole body would decode
    /// cleanly: skipping the decode is safe and invisible.
    Reject,
    /// Could not be proven either way (a structure stopped parsing):
    /// the full decode must run and own the error signalling.
    Unsure,
}

/// A framed MRT record body. Variable-length bodies (UPDATEs, RIB
/// rows, unknown types) stay borrowed; fixed-size ones, and the peer
/// index table every reader needs anyway, are held decoded.
pub enum RawMrtView<'a> {
    /// `BGP4MP_MESSAGE_AS4` wrapping a BGP UPDATE.
    Update(RawUpdate<'a>),
    /// `BGP4MP_MESSAGE_AS4` wrapping an OPEN, NOTIFICATION or
    /// KEEPALIVE — decomposes into no elems.
    NonUpdateMessage(Bgp4mp),
    /// `BGP4MP_STATE_CHANGE_AS4`.
    StateChange(Bgp4mp),
    /// A `TABLE_DUMP_V2` RIB row.
    RibRow(RawRibRow<'a>),
    /// The `TABLE_DUMP_V2` peer index table. Callers must always
    /// materialise these: later RIB rows need the table.
    PeerIndexTable(PeerIndexTable),
    /// An MRT type this build does not interpret — never any elems.
    Unknown(&'a [u8]),
}

impl<'a> RawMrtView<'a> {
    /// Frame a record body without decoding it. Fails exactly where
    /// [`crate::MrtRecord::decode`] fails on framing, with the same
    /// error.
    pub fn parse(header: &MrtHeader, body: &'a [u8]) -> Result<RawMrtView<'a>, MrtError> {
        if body.len() != header.length as usize {
            return Err(MrtError::Truncated("MRT body"));
        }
        match header.mrt_type {
            MrtType::Bgp4mp => bgp4mp::parse(header.subtype, body),
            MrtType::TableDumpV2 => table_dump_v2::parse(header.subtype, body),
            MrtType::Other(_) => Ok(RawMrtView::Unknown(body)),
        }
    }

    /// The second half of the decoder: build the owned body, reporting
    /// the content errors `parse` left unchecked (attributes, NLRI,
    /// RIB entries) in wire order.
    pub fn materialise(self) -> Result<MrtBody, MrtError> {
        Ok(match self {
            RawMrtView::Update(u) => MrtBody::Bgp4mp(u.materialise()?),
            RawMrtView::NonUpdateMessage(b) | RawMrtView::StateChange(b) => MrtBody::Bgp4mp(b),
            RawMrtView::RibRow(r) => MrtBody::TableDumpV2(TableDumpV2::RibRow(r.materialise()?)),
            RawMrtView::PeerIndexTable(t) => MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(t)),
            RawMrtView::Unknown(body) => MrtBody::Unknown(Bytes::copy_from_slice(body)),
        })
    }

    /// Would [`RawMrtView::materialise`] succeed? Walks what `parse`
    /// left unchecked through the decoder's own checks, without
    /// allocating.
    pub fn decodes_cleanly(&self) -> bool {
        match self {
            RawMrtView::Update(u) => u.decodes_cleanly(),
            RawMrtView::RibRow(r) => r.decodes_cleanly(),
            _ => true,
        }
    }
}

/// One BGP UPDATE inside a `BGP4MP_MESSAGE_AS4` body: the session
/// header plus the update's sections. IPv6 NLRI (MP_REACH /
/// MP_UNREACH) is reached by walking the attribute block on demand.
pub struct RawUpdate<'a> {
    /// The VP the update was received from.
    pub peer_asn: Asn,
    pub(crate) local_asn: Asn,
    pub(crate) peer_ip: IpAddr,
    pub(crate) local_ip: IpAddr,
    pub(crate) update: UpdateView<'a>,
}

impl RawUpdate<'_> {
    /// Whether the update carries any path attributes. Announcements
    /// only decompose into elems when they do (a bare NLRI without
    /// attributes yields nothing, matching the decoder).
    pub fn has_attrs(&self) -> bool {
        !self.update.attrs.is_empty()
    }

    /// Whether the full decoder would accept this update body (see
    /// [`RawMrtView::decodes_cleanly`]).
    pub fn decodes_cleanly(&self) -> bool {
        self.prefilter_scan(None, None, None) == ScanVerdict::Reject
    }

    /// The pushdown decision in **one validating pass** over the body.
    ///
    /// * `wd_accepts` — `Some(pred)` when a withdrawal of a prefix
    ///   satisfying `pred` would pass the caller's filters; `None`
    ///   when no withdrawal can pass (elem-type gating folded in by
    ///   the caller), which lets the scan validate the NLRI bytes
    ///   without materialising `Prefix` values.
    /// * `ann_accepts` — same, for announcements' per-prefix
    ///   constraints.
    /// * `comm_gate` — `Some(pred)` when announcements additionally
    ///   require a community matching `pred` (withdrawals are exempt,
    ///   mirroring the filter semantics); `None` when unconstrained.
    ///
    /// Returns [`ScanVerdict::Accept`] as soon as an elem provably
    /// passes (remaining bytes left to the decoder),
    /// [`ScanVerdict::Unsure`] the moment anything fails to parse, and
    /// [`ScanVerdict::Reject`] only after the *entire* body — base
    /// NLRI, every attribute, MP NLRI — has been walked through the
    /// decoder's own checks. A `Reject` therefore guarantees
    /// [`crate::MrtRecord::decode`] would have succeeded: skipping it
    /// cannot hide a corrupted read.
    pub fn prefilter_scan<'p>(
        &self,
        wd_accepts: Option<&'p mut dyn FnMut(&Prefix) -> bool>,
        ann_accepts: Option<&'p mut dyn FnMut(&Prefix) -> bool>,
        comm_gate: Option<&'p mut dyn FnMut(Community) -> bool>,
    ) -> ScanVerdict {
        let mut scan = Scan {
            wd: wd_accepts,
            // Without attributes announcements yield no elems: their
            // NLRI is only validated.
            ann: ann_accepts.filter(|_| self.has_attrs()),
            // No community constraint = the gate is already satisfied.
            comm_ok: comm_gate.is_none(),
            comm: comm_gate,
            ann_pending: false,
        };
        let u = &self.update;
        let accepted = scan
            .withdrawn(u.withdrawn, true)
            .and_then(|hit| Ok(hit || scan.attrs(u.attrs)? || scan.announced(u.nlri, true)?));
        match accepted {
            Err(_) => ScanVerdict::Unsure,
            Ok(true) => ScanVerdict::Accept,
            Ok(false) if scan.ann_pending && scan.comm_ok => ScanVerdict::Accept,
            Ok(false) => ScanVerdict::Reject,
        }
    }
}

/// A `TABLE_DUMP_V2` RIB row: its fixed head plus the undecoded entry
/// block.
pub struct RawRibRow<'a> {
    /// The prefix every entry of the row routes to.
    pub prefix: Prefix,
    pub(crate) sequence: u32,
    pub(crate) entry_count: usize,
    pub(crate) entries: &'a [u8],
}

impl RawRibRow<'_> {
    /// Declared number of VP entries.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// A reader over the entry block, for [`next_rib_entry`].
    pub(crate) fn entry_block(&self) -> Reader<'_> {
        Reader::new(self.entries, "RIB entry header")
    }

    /// Whether the full decoder would accept this row (see
    /// [`RawMrtView::decodes_cleanly`]): every declared entry frames
    /// and its attribute block passes the decoder's checks.
    pub fn decodes_cleanly(&self) -> bool {
        self.prefilter_scan(|_, _| false) == ScanVerdict::Reject
    }

    /// The pushdown decision in **one validating pass** over the
    /// entries: `entry_accepts(peer_index, raw attr block)` returns
    /// true when that entry proves the record interesting (the scan
    /// stops — the decoder validates the rest). Same `Reject`
    /// guarantee as [`RawUpdate::prefilter_scan`]: rejection implies
    /// every entry framed and its attributes passed the decoder's
    /// checks.
    pub fn prefilter_scan(&self, mut entry_accepts: impl FnMut(u16, &[u8]) -> bool) -> ScanVerdict {
        let mut entries = self.entry_block();
        for _ in 0..self.entry_count {
            let Ok((peer_index, _, attrs)) = next_rib_entry(&mut entries) else {
                return ScanVerdict::Unsure;
            };
            if entry_accepts(peer_index, attrs) {
                return ScanVerdict::Accept;
            }
            if Scan::default().attrs(attrs).is_err() {
                return ScanVerdict::Unsure;
            }
        }
        ScanVerdict::Reject
    }
}

/// Scan a bare path-attribute block for a community satisfying `pred`.
/// Shared by UPDATE attribute blocks and RIB-entry attribute blocks;
/// `None` when the block does not decode.
pub fn any_community_in_attrs(
    attrs: &[u8],
    mut pred: impl FnMut(Community) -> bool,
) -> Option<bool> {
    let mut hit = false;
    walk_attrs(attrs, |attr| {
        if let AttrView::Communities(values) = attr {
            hit = hit || communities(values)?.any(&mut pred);
        }
        Ok(())
    })
    .ok()?;
    Some(hit)
}

/// The values of a COMMUNITIES attribute, which `walk_attrs` has
/// checked to be whole.
fn communities(values: &[u8]) -> Result<impl Iterator<Item = Community> + '_, CodecError> {
    Ok(Reader::new(values, "COMMUNITIES")
        .u32s(values.len() / 4)?
        .map(Community::from_u32))
}

/// The state of one prefilter scan: the caller's predicates, and the
/// community gate as the walk resolves it.
#[derive(Default)]
struct Scan<'p> {
    wd: Option<&'p mut dyn FnMut(&Prefix) -> bool>,
    ann: Option<&'p mut dyn FnMut(&Prefix) -> bool>,
    comm: Option<&'p mut dyn FnMut(Community) -> bool>,
    /// The community gate is satisfied (or absent).
    comm_ok: bool,
    /// An announcement passed its prefix predicate before the gate
    /// resolved (attribute order is not fixed on the wire).
    ann_pending: bool,
}

impl Scan<'_> {
    /// Withdrawn NLRI: a hit is a definite accept — withdrawals are
    /// exempt from the community gate.
    fn withdrawn(&mut self, mut block: &[u8], v4: bool) -> Result<bool, CodecError> {
        scan_nlri_block(&mut block, v4, &mut self.wd)
    }

    /// Announced NLRI: a hit accepts once the community gate is
    /// satisfied, else waits for it while the rest of the block is
    /// still validated.
    fn announced(&mut self, mut block: &[u8], v4: bool) -> Result<bool, CodecError> {
        if scan_nlri_block(&mut block, v4, &mut self.ann)? {
            if self.comm_ok {
                return Ok(true);
            }
            self.ann_pending = true;
            scan_nlri_block(&mut block, v4, &mut None)?;
        }
        Ok(false)
    }

    /// One walk over an attribute block doing triple duty: the
    /// decoder's checks, the community gate, and the MP NLRI
    /// predicates. Attributes after an accept are still checked.
    fn attrs(&mut self, block: &[u8]) -> Result<bool, CodecError> {
        let mut accepted = false;
        walk_attrs(block, |attr| {
            if accepted {
                return Ok(());
            }
            match attr {
                AttrView::AsPath(segments) => walk_as_path(segments, |_, _| {})?,
                AttrView::Communities(values) => {
                    if let Some(pred) = self.comm.as_deref_mut() {
                        self.comm_ok = self.comm_ok || communities(values)?.any(pred);
                    }
                }
                AttrView::MpReach { v4, nlri, .. } => accepted = self.announced(nlri, v4)?,
                AttrView::MpUnreach { v4, nlri } => accepted = self.withdrawn(nlri, v4)?,
                _ => {}
            }
            Ok(())
        })?;
        Ok(accepted)
    }
}

/// Scan one NLRI block: with a predicate, decode each prefix and stop
/// at the first hit (`Ok(true)`); without one, validate-and-skip.
fn scan_nlri_block(
    block: &mut &[u8],
    v4: bool,
    pred: &mut Option<&mut dyn FnMut(&Prefix) -> bool>,
) -> Result<bool, CodecError> {
    while !block.is_empty() {
        if let Some(p) = pred.as_deref_mut() {
            if p(&decode_nlri(block, v4)?) {
                return Ok(true);
            }
        } else {
            split_nlri(block, v4)?;
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MrtRecord;
    use crate::table_dump_v2::{PeerEntry, RibEntry, RibRow};
    use bgp_types::{AsPath, BgpMessage, BgpUpdate, PathAttributes, SessionState};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn frame(rec: &MrtRecord) -> (MrtHeader, Vec<u8>) {
        let wire = rec.encode();
        let header = MrtHeader::decode(&wire).unwrap();
        (header, wire[MrtHeader::LEN..].to_vec())
    }

    fn update_record(comms: &[(u16, u16)]) -> MrtRecord {
        let mut attrs = PathAttributes::route(
            AsPath::from_sequence([65001, 3356, 137]),
            "192.0.2.1".parse().unwrap(),
        );
        for &(a, v) in comms {
            attrs.communities.insert(Community::new(a, v));
        }
        MrtRecord::bgp4mp(
            7,
            Bgp4mp::Message {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: BgpMessage::Update(BgpUpdate {
                    withdrawals: vec![p("198.51.100.0/24"), p("2001:db8:dead::/48")],
                    attrs: Some(attrs),
                    announcements: vec![p("203.0.113.0/24"), p("2001:db8:beef::/48")],
                }),
            },
        )
    }

    #[test]
    fn update_view_sees_all_nlri_and_communities() {
        let (header, body) = frame(&update_record(&[(3356, 666)]));
        let Ok(RawMrtView::Update(u)) = RawMrtView::parse(&header, &body) else {
            panic!("expected update view");
        };
        assert_eq!(u.peer_asn, Asn(65001));
        assert!(u.has_attrs());
        // Base v4 + MP_UNREACH v6 withdrawals both reach the scan's
        // withdrawal predicate (never-hit pred collects them all).
        let mut wd = Vec::new();
        let mut collect_wd = |q: &Prefix| {
            wd.push(*q);
            false
        };
        assert_eq!(
            u.prefilter_scan(Some(&mut collect_wd), None, None),
            ScanVerdict::Reject
        );
        assert_eq!(wd, vec![p("198.51.100.0/24"), p("2001:db8:dead::/48")]);
        let mut hit_v6_wd = |q: &Prefix| *q == p("2001:db8:dead::/48");
        assert_eq!(
            u.prefilter_scan(Some(&mut hit_v6_wd), None, None),
            ScanVerdict::Accept
        );
        // Base v4 + MP_REACH v6 announcements both reach the
        // announcement predicate.
        let mut ann = Vec::new();
        let mut collect_ann = |q: &Prefix| {
            ann.push(*q);
            false
        };
        assert_eq!(
            u.prefilter_scan(None, Some(&mut collect_ann), None),
            ScanVerdict::Reject
        );
        ann.sort();
        let mut want = vec![p("203.0.113.0/24"), p("2001:db8:beef::/48")];
        want.sort();
        assert_eq!(ann, want);
        // Communities gate announcements straight off the raw bytes:
        // a matching community accepts, a non-matching one rejects.
        let mut any_ann = |_: &Prefix| true;
        let mut want_666 = |c: Community| c.value == 666;
        assert_eq!(
            u.prefilter_scan(None, Some(&mut any_ann), Some(&mut want_666)),
            ScanVerdict::Accept
        );
        let mut any_ann = |_: &Prefix| true;
        let mut want_667 = |c: Community| c.value == 667;
        assert_eq!(
            u.prefilter_scan(None, Some(&mut any_ann), Some(&mut want_667)),
            ScanVerdict::Reject
        );
    }

    #[test]
    fn non_update_messages_classify_as_elemless() {
        let rec = MrtRecord::bgp4mp(
            1,
            Bgp4mp::Message {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: BgpMessage::Keepalive,
            },
        );
        let (header, body) = frame(&rec);
        assert!(matches!(
            RawMrtView::parse(&header, &body),
            Ok(RawMrtView::NonUpdateMessage(_))
        ));
    }

    #[test]
    fn state_change_view_carries_peer() {
        let rec = MrtRecord::bgp4mp(
            1,
            Bgp4mp::StateChange {
                peer_asn: Asn(64999),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                old_state: SessionState::Established,
                new_state: SessionState::Idle,
            },
        );
        let (header, mut body) = frame(&rec);
        assert!(matches!(
            RawMrtView::parse(&header, &body),
            Ok(RawMrtView::StateChange(b)) if b.peer_asn() == Asn(64999)
        ));
        // Corrupt FSM code: the view refuses with the decoder's error.
        let n = body.len();
        body[n - 1] = 99;
        assert!(matches!(
            RawMrtView::parse(&header, &body),
            Err(MrtError::Invalid("new FSM state"))
        ));
    }

    fn pit_record() -> MrtRecord {
        MrtRecord::table_dump_v2(
            0,
            TableDumpV2::PeerIndexTable(PeerIndexTable {
                collector_bgp_id: 1,
                view_name: String::new(),
                peers: vec![PeerEntry {
                    bgp_id: 1,
                    ip: "192.0.2.1".parse().unwrap(),
                    asn: Asn(65001),
                }],
            }),
        )
    }

    fn rib_record() -> MrtRecord {
        let mut attrs = PathAttributes::route(
            AsPath::from_sequence([65002, 137]),
            "192.0.2.2".parse().unwrap(),
        );
        attrs.communities.insert(Community::new(174, 666));
        MrtRecord::table_dump_v2(
            9,
            TableDumpV2::RibRow(RibRow {
                sequence: 3,
                prefix: p("193.204.0.0/15"),
                entries: vec![
                    RibEntry {
                        peer_index: 0,
                        originated_time: 1,
                        attrs: PathAttributes::route(
                            AsPath::from_sequence([65001, 137]),
                            "192.0.2.1".parse().unwrap(),
                        ),
                    },
                    RibEntry {
                        peer_index: 1,
                        originated_time: 2,
                        attrs,
                    },
                ],
            }),
        )
    }

    #[test]
    fn rib_row_view_walks_entries() {
        let (header, body) = frame(&rib_record());
        let Ok(RawMrtView::RibRow(r)) = RawMrtView::parse(&header, &body) else {
            panic!("expected rib row view");
        };
        assert_eq!(r.prefix, p("193.204.0.0/15"));
        assert_eq!(r.entry_count(), 2);
        let mut indexes = Vec::new();
        assert_eq!(
            r.prefilter_scan(|i, _| {
                indexes.push(i);
                false
            }),
            ScanVerdict::Reject
        );
        assert_eq!(indexes, vec![0, 1]);
        // Community scan inside an entry's raw attr block.
        assert_eq!(
            r.prefilter_scan(|_, attrs| {
                any_community_in_attrs(attrs, |c| c.value == 666) == Some(true)
            }),
            ScanVerdict::Accept
        );
    }

    #[test]
    fn pit_and_unknown_classify_without_decode() {
        let (header, body) = frame(&pit_record());
        assert!(matches!(
            RawMrtView::parse(&header, &body),
            Ok(RawMrtView::PeerIndexTable(_))
        ));
        let unk = MrtRecord {
            timestamp: 5,
            body: MrtBody::Unknown(Bytes::from_static(b"opaque")),
        };
        let (header, body) = frame(&unk);
        assert!(matches!(
            RawMrtView::parse(&header, &body),
            Ok(RawMrtView::Unknown(b"opaque"))
        ));
    }

    /// `parse` + `decodes_cleanly` and the decoder agree on `bytes`,
    /// in both directions; the prefilter scans never panic on them.
    fn assert_view_agrees_with_decoder(header: &MrtHeader, body: &[u8], what: &str) {
        let view = RawMrtView::parse(header, body);
        if let Ok(RawMrtView::Update(u)) = &view {
            let mut wd = |_: &Prefix| false;
            let mut ann = |_: &Prefix| false;
            let mut comm = |_: Community| false;
            let _ = u.prefilter_scan(Some(&mut wd), Some(&mut ann), Some(&mut comm));
        }
        if let Ok(RawMrtView::RibRow(r)) = &view {
            let _ = r.prefilter_scan(|_, attrs| any_community_in_attrs(attrs, |_| false).is_none());
        }
        assert_eq!(
            view.is_ok_and(|v| v.decodes_cleanly()),
            MrtRecord::decode(header, body).is_ok(),
            "view and decoder disagree on {what}"
        );
    }

    fn samples() -> Vec<MrtRecord> {
        let state_change = MrtRecord::bgp4mp(
            2,
            Bgp4mp::StateChange {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                old_state: SessionState::OpenConfirm,
                new_state: SessionState::Established,
            },
        );
        vec![
            update_record(&[(3356, 666)]),
            rib_record(),
            state_change,
            pit_record(),
        ]
    }

    #[test]
    fn decodes_cleanly_never_outruns_the_decoder() {
        // Exhaustively mutate every body byte of representative
        // records (several XOR masks each): the view declares a body
        // clean exactly when the decoder accepts it.
        for rec in samples() {
            let (header, body) = frame(&rec);
            for i in 0..body.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut mutated = body.clone();
                    mutated[i] ^= mask;
                    assert_view_agrees_with_decoder(
                        &header,
                        &mutated,
                        &format!("byte {i} ^{mask:#04x}"),
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_bodies_never_panic_and_stay_conservative() {
        // Every cut of every sample, with the header's length fixed
        // up to match (else framing alone rejects the cut).
        for rec in samples() {
            let (header, body) = frame(&rec);
            for cut in 0..body.len() {
                let header = MrtHeader {
                    length: cut as u32,
                    ..header
                };
                assert_view_agrees_with_decoder(&header, &body[..cut], &format!("cut at {cut}"));
            }
        }
    }
}
