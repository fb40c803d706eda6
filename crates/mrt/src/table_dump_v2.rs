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

use bytes::{BufMut, BytesMut};

use bgp_types::codec::Reader;
use bgp_types::message::{decode_attrs, decode_nlri, encode_attrs, encode_nlri};
use bgp_types::{Asn, CodecError, PathAttributes, Prefix};

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
pub(crate) fn parse(subtype: u16, body: &[u8]) -> Result<RawMrtView<'_>, MrtError> {
    match subtype {
        SUBTYPE_PEER_INDEX_TABLE => decode_peer_index_table(body)
            .map(RawMrtView::PeerIndexTable)
            .map_err(MrtError::framing),
        SUBTYPE_RIB_IPV4_UNICAST | SUBTYPE_RIB_IPV6_UNICAST => {
            let v4 = subtype == SUBTYPE_RIB_IPV4_UNICAST;
            let mut r = Reader::new(body, "RIB row header");
            let sequence = r.u32().map_err(MrtError::framing)?;
            let mut rest = r.rest();
            let prefix = decode_nlri(&mut rest, v4).map_err(MrtError::Bgp)?;
            let mut r = Reader::new(rest, "RIB entry count");
            let entry_count = r.u16().map_err(MrtError::framing)? as usize;
            Ok(RawMrtView::RibRow(RawRibRow {
                sequence,
                prefix,
                entry_count,
                entries: r.rest(),
            }))
        }
        _ => Err(MrtError::Unsupported("unknown TABLE_DUMP_V2 subtype")),
    }
}

/// The smallest peer entry: flags, BGP ID, IPv4 address, 2-byte ASN.
const MIN_PEER_ENTRY_LEN: usize = 11;

fn decode_peer_index_table(body: &[u8]) -> Result<PeerIndexTable, CodecError> {
    let mut r = Reader::new(body, "peer index table header");
    // BGP ID, view name length and peer count.
    r.need(8)?;
    let collector_bgp_id = r.u32()?;
    let view_name = r.relabel("peer index view name").str16()?.into_owned();
    let count = r.u16()? as usize;
    // The count is the record's word: reserve only what the bytes
    // left could hold.
    let mut peers = Vec::with_capacity(count.min(r.len() / MIN_PEER_ENTRY_LEN));
    for _ in 0..count {
        let flags = r.relabel("peer entry flags").u8()?;
        r.relabel("peer entry body");
        let bgp_id = r.u32()?;
        let ip = if flags & PEER_FLAG_V6 != 0 {
            IpAddr::V6(Ipv6Addr::from(r.u128()?))
        } else {
            IpAddr::V4(Ipv4Addr::from(r.u32()?))
        };
        let asn = if flags & PEER_FLAG_AS4 != 0 {
            Asn(r.u32()?)
        } else {
            Asn(r.u16()? as u32)
        };
        peers.push(PeerEntry { bgp_id, ip, asn });
    }
    Ok(PeerIndexTable {
        collector_bgp_id,
        view_name,
        peers,
    })
}

/// The size of a RIB entry's fixed part: peer index, originated time
/// and attribute length.
const RIB_ENTRY_HEADER_LEN: usize = 8;

/// Split the next entry off a RIB row's entry block (RFC 6396
/// §4.3.4): `(peer index, originated time, bare attribute block)`.
pub(crate) fn next_rib_entry<'a>(
    entries: &mut Reader<'a>,
) -> Result<(u16, u32, &'a [u8]), CodecError> {
    entries.relabel("RIB entry header");
    let peer_index = entries.u16()?;
    let originated_time = entries.u32()?;
    let attr_len = entries.u16()? as usize;
    let attrs = entries.relabel("RIB entry attributes").bytes(attr_len)?;
    Ok((peer_index, originated_time, attrs))
}

impl RawRibRow<'_> {
    /// Materialise the row: frame and decode every declared entry.
    pub(crate) fn materialise(&self) -> Result<RibRow, MrtError> {
        let mut block = self.entry_block();
        // The count is the record's word: reserve only what the bytes
        // left could hold.
        let mut entries =
            Vec::with_capacity(self.entry_count.min(block.len() / RIB_ENTRY_HEADER_LEN));
        for _ in 0..self.entry_count {
            let (peer_index, originated_time, attrs) =
                next_rib_entry(&mut block).map_err(MrtError::framing)?;
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
