//! Shared binary-codec primitives: the wire vocabulary checkpoints,
//! queue payloads and RIB snapshots are built from.
//!
//! Grown out of the BGPCorsaro queue codec (§6.2.2) and the PR 9
//! checkpoint frames, these moved into the core library once the RIB
//! layer needed the same primitives below the plugin runtime:
//! [`put_prefix`]/[`get_prefix`], [`put_ip`]/[`get_ip`],
//! [`put_route`]/[`get_route`] for the values, canonical sort keys so
//! independently produced sections serialize byte-identically, and
//! [`seal_frame`]/[`open_frame`] for the checksum envelope that turns
//! a serialized state into a durable, torn-write-rejecting artifact
//! (plugin checkpoints and sealed RIB snapshots alike).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bgp_types::{AsPath, Asn, Prefix};
use bytes::{Buf, BufMut, BytesMut};

/// Append a prefix in the queue wire form (`v4 flag, length, raw
/// bits`).
pub fn put_prefix(out: &mut BytesMut, prefix: &Prefix) {
    out.put_u8(prefix.is_ipv4() as u8);
    out.put_u8(prefix.len());
    out.put_u128(prefix.raw_bits());
}

/// Decode a [`put_prefix`] prefix, advancing `buf` past it.
pub fn get_prefix(buf: &mut &[u8]) -> Result<Prefix, String> {
    if buf.len() < 1 + 1 + 16 {
        return Err("truncated prefix".into());
    }
    let v4 = buf.get_u8() == 1;
    let len = buf.get_u8();
    let bits = buf.get_u128();
    Ok(if v4 {
        Prefix::v4(Ipv4Addr::from((bits >> 96) as u32), len)
    } else {
        Prefix::v6(Ipv6Addr::from(bits), len)
    })
}

/// Append an IP address (`v4 flag` + 16 bytes; v4 occupies the high
/// 32 bits like [`Prefix::raw_bits`] does).
pub fn put_ip(out: &mut BytesMut, ip: &IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            out.put_u8(1);
            out.put_u128((u32::from(*v4) as u128) << 96);
        }
        IpAddr::V6(v6) => {
            out.put_u8(0);
            out.put_u128(u128::from(*v6));
        }
    }
}

/// Decode a [`put_ip`] address, advancing `buf` past it.
pub fn get_ip(buf: &mut &[u8]) -> Result<IpAddr, String> {
    if buf.len() < 1 + 16 {
        return Err("truncated ip".into());
    }
    let v4 = buf.get_u8() == 1;
    let bits = buf.get_u128();
    Ok(if v4 {
        IpAddr::V4(Ipv4Addr::from((bits >> 96) as u32))
    } else {
        IpAddr::V6(Ipv6Addr::from(bits))
    })
}

/// Append an optional AS path in the queue wire form: hop count (or
/// `u16::MAX` for "withdrawn"/absent) then one `u32` per hop.
pub fn put_route(out: &mut BytesMut, path: &Option<AsPath>) {
    match path {
        None => out.put_u16(u16::MAX),
        Some(p) => {
            let hops: Vec<Asn> = p.asns().collect();
            out.put_u16(hops.len() as u16);
            for h in hops {
                out.put_u32(h.0);
            }
        }
    }
}

/// Decode a [`put_route`] optional path, advancing `buf` past it.
pub fn get_route(buf: &mut &[u8]) -> Result<Option<AsPath>, String> {
    if buf.len() < 2 {
        return Err("truncated path count".into());
    }
    let hop_count = buf.get_u16();
    if hop_count == u16::MAX {
        return Ok(None);
    }
    if buf.len() < hop_count as usize * 4 {
        return Err("truncated path".into());
    }
    let mut hops = Vec::with_capacity(hop_count as usize);
    for _ in 0..hop_count {
        hops.push(buf.get_u32());
    }
    Ok(Some(AsPath::from_sequence(hops)))
}

/// The canonical ordering key for prefix-keyed serialized sections
/// (v4 before v6, then length, then bits).
pub fn prefix_sort_key(p: &Prefix) -> (bool, u8, u128) {
    (!p.is_ipv4(), p.len(), p.raw_bits())
}

/// The canonical ordering key for IP-keyed serialized sections.
pub fn ip_sort_key(ip: &IpAddr) -> (bool, u128) {
    match ip {
        IpAddr::V4(v4) => (false, (u32::from(*v4) as u128) << 96),
        IpAddr::V6(v6) => (true, u128::from(*v6)),
    }
}

/// FNV-1a over `bytes`; the durable-frame checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wrap a serialized payload in its durable frame: length prefix,
/// payload, FNV-1a checksum. A write torn anywhere mid-flush — short
/// payload, clipped checksum, flipped bytes — fails [`open_frame`].
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(payload.len() + 12);
    out.put_u32(payload.len() as u32);
    out.put_slice(payload);
    out.put_u64(fnv1a(payload));
    out.to_vec()
}

/// Validate and unwrap a [`seal_frame`] envelope.
pub fn open_frame(frame: &[u8]) -> Result<&[u8], String> {
    if frame.len() < 12 {
        return Err("checkpoint frame truncated".into());
    }
    let mut buf = frame;
    let len = buf.get_u32() as usize;
    if buf.len() != len + 8 {
        return Err(format!(
            "checkpoint frame length mismatch: header says {len}, {} present",
            buf.len().saturating_sub(8)
        ));
    }
    let (payload, mut tail) = buf.split_at(len);
    let want = tail.get_u64();
    if fnv1a(payload) != want {
        return Err("checkpoint frame checksum mismatch (torn write)".into());
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut out = BytesMut::new();
        let p4: Prefix = "193.204.0.0/15".parse().unwrap();
        let p6: Prefix = "2001:db8::/32".parse().unwrap();
        let ip4: IpAddr = "192.0.2.1".parse().unwrap();
        let ip6: IpAddr = "2001:db8::9".parse().unwrap();
        put_prefix(&mut out, &p4);
        put_prefix(&mut out, &p6);
        put_ip(&mut out, &ip4);
        put_ip(&mut out, &ip6);
        put_route(&mut out, &None);
        put_route(&mut out, &Some(AsPath::from_sequence([65001, 137])));
        let bytes = out.to_vec();
        let mut buf = &bytes[..];
        assert_eq!(get_prefix(&mut buf).unwrap(), p4);
        assert_eq!(get_prefix(&mut buf).unwrap(), p6);
        assert_eq!(get_ip(&mut buf).unwrap(), ip4);
        assert_eq!(get_ip(&mut buf).unwrap(), ip6);
        assert_eq!(get_route(&mut buf).unwrap(), None);
        assert_eq!(
            get_route(&mut buf).unwrap(),
            Some(AsPath::from_sequence([65001, 137]))
        );
        assert!(buf.is_empty());
        assert!(get_prefix(&mut buf).is_err());
    }

    #[test]
    fn sealed_frames_reject_any_torn_write() {
        let payload = b"per-bin partial state".to_vec();
        let frame = seal_frame(&payload);
        assert_eq!(open_frame(&frame).unwrap(), &payload[..]);
        // Torn anywhere: short prefix, clipped tail, flipped byte.
        for cut in [1, 5, frame.len() - 1] {
            assert!(open_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = frame.clone();
        flipped[6] ^= 0x40;
        assert!(open_frame(&flipped).is_err());
    }
}
