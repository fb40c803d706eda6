//! `TABLE_DUMP_V2` record bodies (RFC 6396 §4.3) — RIB dumps.
//!
//! A RIB dump file starts with one `PEER_INDEX_TABLE` record naming
//! every VP of the collector, followed by one `RIB_IPV4_UNICAST` /
//! `RIB_IPV6_UNICAST` record *per prefix*, each holding one entry per
//! VP that has a route to the prefix. This layout is why "an update
//! message is stored in a single MRT record, while RIB dumps require
//! multiple records" (§3.3.3) and why a single record can "group
//! elements of the same type but related to different VPs".

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{Buf, BufMut, BytesMut};

use bgp_types::message::{decode_attrs, decode_nlri, encode_attrs, encode_nlri};
use bgp_types::{Asn, PathAttributes, Prefix};

use crate::raw::{RawMrtView, RawRibRow};
use crate::reader::MrtError;

/// Subtype codes.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// IPv4 unicast RIB rows.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
/// IPv6 unicast RIB rows.
pub const SUBTYPE_RIB_IPV6_UNICAST: u16 = 4;

const PEER_FLAG_V6: u8 = 0x01;
const PEER_FLAG_AS4: u8 = 0x02;

/// One VP in the peer index table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerEntry {
    /// The VP's BGP identifier.
    pub bgp_id: u32,
    /// The VP's address.
    pub ip: IpAddr,
    /// The VP's AS number.
    pub asn: Asn,
}

/// The `PEER_INDEX_TABLE` record heading every RIB dump.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeerIndexTable {
    /// The collector's BGP identifier.
    pub collector_bgp_id: u32,
    /// The collector's configured view name (often empty).
    pub view_name: String,
    /// All VPs; RIB entries refer to them by index.
    pub peers: Vec<PeerEntry>,
}

impl PeerIndexTable {
    /// Index of the peer with the given address, if present.
    pub fn index_of(&self, ip: IpAddr) -> Option<u16> {
        self.peers.iter().position(|p| p.ip == ip).map(|i| i as u16)
    }
}

/// One VP's route to the prefix of a RIB row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibEntry {
    /// Index into the dump's [`PeerIndexTable`].
    pub peer_index: u16,
    /// When the route was received by the collector.
    pub originated_time: u32,
    /// The route's path attributes.
    pub attrs: PathAttributes,
}

/// A `RIB_IPVx_UNICAST` record: all VP routes for one prefix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RibRow {
    /// Monotonic sequence number within the dump.
    pub sequence: u32,
    /// The prefix the entries route to.
    pub prefix: Prefix,
    /// One entry per VP with a route.
    pub entries: Vec<RibEntry>,
}

/// A decoded `TABLE_DUMP_V2` body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TableDumpV2 {
    /// The dump-heading peer table.
    PeerIndexTable(PeerIndexTable),
    /// A per-prefix row.
    RibRow(RibRow),
}

impl TableDumpV2 {
    /// Encode into `out`; returns the subtype for the header.
    pub fn encode(&self, out: &mut BytesMut) -> u16 {
        match self {
            TableDumpV2::PeerIndexTable(t) => {
                out.put_u32(t.collector_bgp_id);
                let name = t.view_name.as_bytes();
                out.put_u16(name.len() as u16);
                out.put_slice(name);
                out.put_u16(t.peers.len() as u16);
                for p in &t.peers {
                    let mut flags = PEER_FLAG_AS4;
                    if matches!(p.ip, IpAddr::V6(_)) {
                        flags |= PEER_FLAG_V6;
                    }
                    out.put_u8(flags);
                    out.put_u32(p.bgp_id);
                    match p.ip {
                        IpAddr::V4(a) => out.put_slice(&a.octets()),
                        IpAddr::V6(a) => out.put_slice(&a.octets()),
                    }
                    out.put_u32(p.asn.0);
                }
                SUBTYPE_PEER_INDEX_TABLE
            }
            TableDumpV2::RibRow(r) => {
                out.put_u32(r.sequence);
                encode_nlri(&r.prefix, out);
                out.put_u16(r.entries.len() as u16);
                let v4 = r.prefix.is_ipv4();
                for e in &r.entries {
                    out.put_u16(e.peer_index);
                    out.put_u32(e.originated_time);
                    let mut attrs = BytesMut::new();
                    // IPv6 rows carry their next hop in an MP_REACH
                    // attribute with no NLRI.
                    encode_attrs(Some(&e.attrs), &[], &[], !v4, &mut attrs);
                    out.put_u16(attrs.len() as u16);
                    out.put_slice(&attrs);
                }
                if v4 {
                    SUBTYPE_RIB_IPV4_UNICAST
                } else {
                    SUBTYPE_RIB_IPV6_UNICAST
                }
            }
        }
    }
}

/// Parse a `TABLE_DUMP_V2` body given its header subtype. A RIB row
/// is framed up to its entry block, which [`next_rib_entry`] walks on
/// demand; the peer index table — one record per dump, which every
/// reader needs — is decoded in full.
pub(crate) fn parse(subtype: u16, mut body: &[u8]) -> Result<RawMrtView<'_>, MrtError> {
    match subtype {
        SUBTYPE_PEER_INDEX_TABLE => {
            if body.len() < 8 {
                return Err(MrtError::Truncated("peer index table header"));
            }
            let collector_bgp_id = body.get_u32();
            let name_len = body.get_u16() as usize;
            if body.len() < name_len + 2 {
                return Err(MrtError::Truncated("peer index view name"));
            }
            let view_name = String::from_utf8_lossy(&body[..name_len]).into_owned();
            body.advance(name_len);
            let count = body.get_u16() as usize;
            let mut peers = Vec::with_capacity(count);
            for _ in 0..count {
                if body.is_empty() {
                    return Err(MrtError::Truncated("peer entry flags"));
                }
                let flags = body.get_u8();
                let addr_len = if flags & PEER_FLAG_V6 != 0 { 16 } else { 4 };
                let asn_len = if flags & PEER_FLAG_AS4 != 0 { 4 } else { 2 };
                if body.len() < 4 + addr_len + asn_len {
                    return Err(MrtError::Truncated("peer entry body"));
                }
                let bgp_id = body.get_u32();
                let ip = if addr_len == 16 {
                    let mut a = [0u8; 16];
                    a.copy_from_slice(&body[..16]);
                    body.advance(16);
                    IpAddr::V6(Ipv6Addr::from(a))
                } else {
                    let mut a = [0u8; 4];
                    a.copy_from_slice(&body[..4]);
                    body.advance(4);
                    IpAddr::V4(Ipv4Addr::from(a))
                };
                let asn = if asn_len == 4 {
                    Asn(body.get_u32())
                } else {
                    Asn(body.get_u16() as u32)
                };
                peers.push(PeerEntry { bgp_id, ip, asn });
            }
            Ok(RawMrtView::PeerIndexTable(PeerIndexTable {
                collector_bgp_id,
                view_name,
                peers,
            }))
        }
        SUBTYPE_RIB_IPV4_UNICAST | SUBTYPE_RIB_IPV6_UNICAST => {
            let v4 = subtype == SUBTYPE_RIB_IPV4_UNICAST;
            if body.len() < 4 {
                return Err(MrtError::Truncated("RIB row header"));
            }
            let sequence = body.get_u32();
            let prefix = decode_nlri(&mut body, v4).map_err(MrtError::Bgp)?;
            if body.len() < 2 {
                return Err(MrtError::Truncated("RIB entry count"));
            }
            let entry_count = body.get_u16() as usize;
            Ok(RawMrtView::RibRow(RawRibRow {
                sequence,
                prefix,
                entry_count,
                entries: body,
            }))
        }
        _ => Err(MrtError::Unsupported("unknown TABLE_DUMP_V2 subtype")),
    }
}

/// Split the next entry off a RIB row's entry block (RFC 6396
/// §4.3.4): `(peer index, originated time, bare attribute block)`.
pub(crate) fn next_rib_entry<'a>(entries: &mut &'a [u8]) -> Result<(u16, u32, &'a [u8]), MrtError> {
    if entries.len() < 8 {
        return Err(MrtError::Truncated("RIB entry header"));
    }
    let peer_index = entries.get_u16();
    let originated_time = entries.get_u32();
    let attr_len = entries.get_u16() as usize;
    if entries.len() < attr_len {
        return Err(MrtError::Truncated("RIB entry attributes"));
    }
    let (attrs, rest) = entries.split_at(attr_len);
    *entries = rest;
    Ok((peer_index, originated_time, attrs))
}

impl RawRibRow<'_> {
    /// Materialise the row: frame and decode every declared entry.
    pub(crate) fn materialise(&self) -> Result<RibRow, MrtError> {
        let mut block = self.entries;
        let mut entries = Vec::with_capacity(self.entry_count);
        for _ in 0..self.entry_count {
            let (peer_index, originated_time, attrs) = next_rib_entry(&mut block)?;
            entries.push(RibEntry {
                peer_index,
                originated_time,
                attrs: decode_attrs(attrs).map_err(MrtError::Bgp)?.attrs,
            });
        }
        Ok(RibRow {
            sequence: self.sequence,
            prefix: self.prefix,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MrtBody, MrtHeader, MrtRecord, MrtType};
    use bgp_types::{AsPath, Community};

    fn decode(subtype: u16, body: &[u8]) -> Result<TableDumpV2, MrtError> {
        let header = MrtHeader {
            timestamp: 0,
            mrt_type: MrtType::TableDumpV2,
            subtype,
            length: body.len() as u32,
        };
        match MrtRecord::decode(&header, body)?.body {
            MrtBody::TableDumpV2(t) => Ok(t),
            other => panic!("not a TABLE_DUMP_V2 body: {other:?}"),
        }
    }

    fn roundtrip(t: &TableDumpV2) -> TableDumpV2 {
        let mut buf = BytesMut::new();
        let subtype = t.encode(&mut buf);
        decode(subtype, &buf).unwrap()
    }

    fn sample_peers() -> PeerIndexTable {
        PeerIndexTable {
            collector_bgp_id: 0x0a00_0001,
            view_name: String::new(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    ip: "192.0.2.1".parse().unwrap(),
                    asn: Asn(65001),
                },
                PeerEntry {
                    bgp_id: 2,
                    ip: "2001:db8::2".parse().unwrap(),
                    asn: Asn(400_123),
                },
            ],
        }
    }

    #[test]
    fn peer_index_roundtrip() {
        let t = TableDumpV2::PeerIndexTable(sample_peers());
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn peer_index_with_view_name() {
        let mut pit = sample_peers();
        pit.view_name = "rib-view".into();
        let t = TableDumpV2::PeerIndexTable(pit);
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn index_of_finds_peer() {
        let pit = sample_peers();
        assert_eq!(pit.index_of("192.0.2.1".parse().unwrap()), Some(0));
        assert_eq!(pit.index_of("2001:db8::2".parse().unwrap()), Some(1));
        assert_eq!(pit.index_of("10.9.9.9".parse().unwrap()), None);
    }

    fn attrs_v4() -> PathAttributes {
        let mut a = PathAttributes::route(
            AsPath::from_sequence([65001, 3356, 137]),
            "192.0.2.1".parse().unwrap(),
        );
        a.communities.insert(Community::new(3356, 2001));
        a
    }

    #[test]
    fn rib_row_v4_roundtrip() {
        let t = TableDumpV2::RibRow(RibRow {
            sequence: 7,
            prefix: "193.204.0.0/15".parse().unwrap(),
            entries: vec![
                RibEntry {
                    peer_index: 0,
                    originated_time: 1_000,
                    attrs: attrs_v4(),
                },
                RibEntry {
                    peer_index: 1,
                    originated_time: 2_000,
                    attrs: attrs_v4(),
                },
            ],
        });
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn rib_row_v6_roundtrip_keeps_next_hop() {
        let attrs = PathAttributes::route(
            AsPath::from_sequence([65001, 6939]),
            "2001:db8::1".parse().unwrap(),
        );
        let t = TableDumpV2::RibRow(RibRow {
            sequence: 0,
            prefix: "2001:db8:100::/40".parse().unwrap(),
            entries: vec![RibEntry {
                peer_index: 1,
                originated_time: 5,
                attrs,
            }],
        });
        match roundtrip(&t) {
            TableDumpV2::RibRow(r) => {
                assert_eq!(
                    r.entries[0].attrs.next_hop,
                    Some("2001:db8::1".parse().unwrap())
                );
                assert_eq!(TableDumpV2::RibRow(r), t);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rib_row_empty_entries() {
        let t = TableDumpV2::RibRow(RibRow {
            sequence: 1,
            prefix: "10.0.0.0/8".parse().unwrap(),
            entries: vec![],
        });
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn decode_rejects_unknown_subtype() {
        assert!(matches!(decode(99, &[]), Err(MrtError::Unsupported(_))));
    }

    #[test]
    fn decode_rejects_truncated_rib() {
        let t = TableDumpV2::RibRow(RibRow {
            sequence: 7,
            prefix: "10.0.0.0/8".parse().unwrap(),
            entries: vec![RibEntry {
                peer_index: 0,
                originated_time: 1,
                attrs: attrs_v4(),
            }],
        });
        let mut buf = BytesMut::new();
        let subtype = t.encode(&mut buf);
        for cut in [2, 6, 9, buf.len() - 1] {
            assert!(decode(subtype, &buf[..cut]).is_err(), "cut at {cut}");
        }
    }
}
