//! The BMP per-peer header (RFC 7854 §4.2).
//!
//! Every peer-scoped BMP message (route monitoring, statistics report,
//! peer up/down) starts with this fixed 42-byte header identifying the
//! monitored peer and the time the encapsulated data was received.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, BytesMut};

use bgp_types::codec::Reader;
use bgp_types::{Asn, CodecError};

use crate::reader::BmpError;

/// Peer type: we always emit *Global Instance* (0); the RD/local
/// instance types exist for VRF/loc-rib monitoring.
pub const PEER_TYPE_GLOBAL: u8 = 0;

/// Per-peer header flags (RFC 7854 §4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PeerFlags {
    /// V flag: the peer address is IPv6.
    pub ipv6: bool,
    /// L flag: the encapsulated data is post-policy Adj-RIB-In
    /// (cf. §2 of the paper: OpenBMP "allows a user to periodically
    /// access the Adj-RIBs-In of a router").
    pub post_policy: bool,
    /// A flag: the encapsulated message uses legacy 2-byte AS_PATH
    /// encoding. We never set it (modern 4-byte speakers) but we
    /// preserve it on decode.
    pub legacy_as_path: bool,
}

impl PeerFlags {
    fn encode(self) -> u8 {
        let mut b = 0u8;
        if self.ipv6 {
            b |= 0x80;
        }
        if self.post_policy {
            b |= 0x40;
        }
        if self.legacy_as_path {
            b |= 0x20;
        }
        b
    }

    fn decode(b: u8) -> Self {
        PeerFlags {
            ipv6: b & 0x80 != 0,
            post_policy: b & 0x40 != 0,
            legacy_as_path: b & 0x20 != 0,
        }
    }
}

/// The 42-byte per-peer header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PerPeerHeader {
    /// Peer type code (0 = global instance).
    pub peer_type: u8,
    /// Header flags.
    pub flags: PeerFlags,
    /// Peer distinguisher (zero for global-instance peers).
    pub distinguisher: u64,
    /// Remote address of the monitored peering session.
    pub peer_address: IpAddr,
    /// Peer AS number.
    pub peer_asn: Asn,
    /// Peer BGP identifier.
    pub peer_bgp_id: u32,
    /// Seconds part of the time the route was received.
    pub ts_sec: u32,
    /// Microseconds part.
    pub ts_usec: u32,
}

impl PerPeerHeader {
    /// Encoded size.
    pub const LEN: usize = 42;

    /// A global-instance header for `peer` at time `ts_sec`.
    pub fn global(peer_address: IpAddr, peer_asn: Asn, peer_bgp_id: u32, ts_sec: u32) -> Self {
        PerPeerHeader {
            peer_type: PEER_TYPE_GLOBAL,
            flags: PeerFlags {
                ipv6: peer_address.is_ipv6(),
                ..PeerFlags::default()
            },
            distinguisher: 0,
            peer_address,
            peer_asn,
            peer_bgp_id,
            ts_sec,
            ts_usec: 0,
        }
    }

    /// Encode into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        out.put_u8(self.peer_type);
        out.put_u8(self.flags.encode());
        out.put_u64(self.distinguisher);
        match self.peer_address {
            IpAddr::V4(v4) => {
                out.put_slice(&[0u8; 12]);
                out.put_slice(&v4.octets());
            }
            IpAddr::V6(v6) => out.put_slice(&v6.octets()),
        }
        out.put_u32(self.peer_asn.0);
        out.put_u32(self.peer_bgp_id);
        out.put_u32(self.ts_sec);
        out.put_u32(self.ts_usec);
    }

    /// Decode from the front of `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> Result<PerPeerHeader, BmpError> {
        let mut r = Reader::new(buf, "per-peer header");
        let header = Self::read(&mut r).map_err(BmpError::framing)?;
        *buf = r.rest();
        Ok(header)
    }

    /// Read the header off the front of `r`.
    pub(crate) fn read(r: &mut Reader) -> Result<PerPeerHeader, CodecError> {
        r.relabel("per-peer header");
        let peer_type = r.u8()?;
        let flags = PeerFlags::decode(r.u8()?);
        let distinguisher = r.u64()?;
        Ok(PerPeerHeader {
            peer_type,
            flags,
            distinguisher,
            peer_address: read_address(r, flags.ipv6)?,
            peer_asn: Asn(r.u32()?),
            peer_bgp_id: r.u32()?,
            ts_sec: r.u32()?,
            ts_usec: r.u32()?,
        })
    }
}

/// A 16-byte address field (RFC 7854 §4.2, §4.10): IPv6, or IPv4 in
/// the low four bytes.
pub(crate) fn read_address(r: &mut Reader, ipv6: bool) -> Result<IpAddr, CodecError> {
    let bits = r.u128()?;
    Ok(if ipv6 {
        IpAddr::V6(Ipv6Addr::from(bits))
    } else {
        IpAddr::V4(Ipv4Addr::from(bits as u32))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(h: &PerPeerHeader) -> PerPeerHeader {
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), PerPeerHeader::LEN);
        let mut slice = &buf[..];
        let back = PerPeerHeader::decode(&mut slice).unwrap();
        assert!(slice.is_empty());
        back
    }

    #[test]
    fn v4_header_roundtrip() {
        let h = PerPeerHeader::global("192.0.2.1".parse().unwrap(), Asn(65001), 0x0a000001, 77);
        assert!(!h.flags.ipv6);
        assert_eq!(roundtrip(&h), h);
    }

    #[test]
    fn v6_header_roundtrip() {
        let h = PerPeerHeader::global("2001:db8::1".parse().unwrap(), Asn(400_812), 9, 1234);
        assert!(h.flags.ipv6);
        assert_eq!(roundtrip(&h), h);
    }

    #[test]
    fn flags_roundtrip_all_combinations() {
        for bits in 0u8..8 {
            let f = PeerFlags {
                ipv6: bits & 1 != 0,
                post_policy: bits & 2 != 0,
                legacy_as_path: bits & 4 != 0,
            };
            assert_eq!(PeerFlags::decode(f.encode()), f);
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let mut short: &[u8] = &[0u8; 41];
        assert!(matches!(
            PerPeerHeader::decode(&mut short),
            Err(BmpError::Truncated(_))
        ));
    }
}
