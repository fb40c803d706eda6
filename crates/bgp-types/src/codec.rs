//! The one checked reader every byte in the workspace is decoded
//! through, and the state codec written with it.
//!
//! [`Reader`] indexes its input slice and fails instead of panicking:
//! every read returns the value and moves past it, or a
//! [`CodecError`] naming the structure being decoded. It reads both
//! vocabularies. The big-endian wire formats — the RFC 4271 BGP
//! grammar in [`crate::message`], and the MRT (RFC 6396) and BMP
//! (RFC 7854) records layered on it — read their structures with it.
//! So do the serialized states the pipeline keeps: plugin
//! checkpoints, shard partials, queue payloads, and RIB journals and
//! snapshots.
//!
//! State encoders append to a `BytesMut` through the `BufMut` integer
//! writers plus [`put_prefix`], [`put_ip`] and [`put_route`], whose
//! formats [`Reader::prefix`], [`Reader::ip`] and [`Reader::route`]
//! read back. [`Reader::count`] refuses an item count whose items
//! could not fit in the bytes left, so no allocation is sized from an
//! unvalidated length, and [`Reader::finish`] refuses trailing bytes.
//!
//! [`seal_frame`]/[`open_frame`] wrap a serialized state in the
//! checksum envelope that turns it into a durable, torn-write-rejecting
//! artifact (plugin checkpoints and sealed RIB snapshots alike), and
//! the canonical sort keys make independently produced sections
//! serialize byte-identically.

use std::borrow::Cow;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, BytesMut};

use crate::{AsPath, Asn, CodecError, Prefix};

/// Append a prefix in the queue wire form (`v4 flag, length, raw
/// bits`).
pub fn put_prefix(out: &mut BytesMut, prefix: &Prefix) {
    out.put_u8(prefix.is_ipv4() as u8);
    out.put_u8(prefix.len());
    out.put_u128(prefix.raw_bits());
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

/// The checked reader. Each read returns the value and moves past it,
/// or fails with a [`CodecError`] naming the structure being decoded
/// (its label).
///
/// A decoder whose structures carry finer names than one label gives
/// each structure its own with [`relabel`](Reader::relabel) as it
/// reaches it.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `what` names the structure in its errors.
    #[inline]
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, what }
    }

    /// Name the structure the next reads belong to.
    #[inline]
    pub fn relabel(&mut self, what: &'static str) -> &mut Self {
        self.what = what;
        self
    }

    /// Bytes left.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Fail with [`CodecError::Truncated`] unless `n` bytes are left,
    /// without reading them: the minimum size of a structure whose
    /// fixed fields are not all read before its variable ones.
    #[inline]
    pub fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated(self.what));
        }
        Ok(())
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated(self.what))?;
        self.buf = rest;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A big-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        self.array().map(u128::from_be_bytes)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or(CodecError::Truncated(self.what))?;
        self.buf = rest;
        Ok(head)
    }

    /// The next `n` bytes, where `n` is a length field the input
    /// declared for this section: a section running past the end is a
    /// length that contradicts the enclosing structure,
    /// [`CodecError::BadLength`].
    #[inline]
    pub fn section(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.bytes(n).map_err(|_| CodecError::BadLength(self.what))
    }

    /// The next `n` big-endian `u32`s.
    #[inline]
    pub fn u32s(&mut self, n: usize) -> Result<impl Iterator<Item = u32> + 'a, CodecError> {
        let (words, _) = self.bytes(n.saturating_mul(4))?.as_chunks::<4>();
        Ok(words.iter().map(|w| u32::from_be_bytes(*w)))
    }

    /// Everything left as one `N`-byte value, for a field whose length
    /// its structure fixes: any other length is
    /// [`CodecError::BadLength`].
    #[inline]
    pub fn exact<const N: usize>(self) -> Result<[u8; N], CodecError> {
        self.buf
            .try_into()
            .map_err(|_| CodecError::BadLength(self.what))
    }

    /// A `u16`-length-prefixed name, decoded as lossy UTF-8.
    pub fn str16(&mut self) -> Result<Cow<'a, str>, CodecError> {
        let n = self.u16()? as usize;
        self.bytes(n).map(String::from_utf8_lossy)
    }

    /// A `u32` item count, refused when that many items of at least
    /// `min_item_len` bytes each cannot fit in the bytes left — so a
    /// collection sized from it is bounded by the input length.
    pub fn count(&mut self, min_item_len: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_len) > self.buf.len() {
            return Err(CodecError::Truncated(self.what));
        }
        Ok(n)
    }

    /// A [`put_prefix`] prefix.
    pub fn prefix(&mut self) -> Result<Prefix, CodecError> {
        let v4 = self.u8()? == 1;
        let len = self.u8()?;
        let bits = self.u128()?;
        if len > if v4 { 32 } else { 128 } {
            return Err(CodecError::Invalid("prefix length"));
        }
        Ok(if v4 {
            Prefix::v4(Ipv4Addr::from((bits >> 96) as u32), len)
        } else {
            Prefix::v6(Ipv6Addr::from(bits), len)
        })
    }

    /// A [`put_ip`] address.
    pub fn ip(&mut self) -> Result<IpAddr, CodecError> {
        let v4 = self.u8()? == 1;
        let bits = self.u128()?;
        Ok(if v4 {
            IpAddr::V4(Ipv4Addr::from((bits >> 96) as u32))
        } else {
            IpAddr::V6(Ipv6Addr::from(bits))
        })
    }

    /// A [`put_route`] optional path (`u16::MAX` hops = no path).
    pub fn route(&mut self) -> Result<Option<AsPath>, CodecError> {
        let hops = self.u16()?;
        if hops == u16::MAX {
            return Ok(None);
        }
        Ok(Some(AsPath::from_sequence(self.u32s(hops as usize)?)))
    }

    /// Everything left, consuming the reader.
    #[inline]
    pub fn rest(self) -> &'a [u8] {
        self.buf
    }

    /// End of input: refuse trailing bytes.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::BadLength(self.what))
        }
    }
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
pub fn open_frame(frame: &[u8]) -> Result<&[u8], CodecError> {
    let mut r = Reader::new(frame, "checkpoint frame");
    let len = r.u32()? as usize;
    let payload = r.bytes(len)?;
    let checksum = r.u64()?;
    r.finish()?;
    if fnv1a(payload) != checksum {
        return Err(CodecError::Invalid("checkpoint frame checksum"));
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
        let mut r = Reader::new(&bytes, "primitives");
        assert_eq!(r.prefix().unwrap(), p4);
        assert_eq!(r.prefix().unwrap(), p6);
        assert_eq!(r.ip().unwrap(), ip4);
        assert_eq!(r.ip().unwrap(), ip6);
        assert_eq!(r.route().unwrap(), None);
        assert_eq!(
            r.route().unwrap(),
            Some(AsPath::from_sequence([65001, 137]))
        );
        assert_eq!(r.prefix(), Err(CodecError::Truncated("primitives")));
        r.finish().unwrap();
    }

    #[test]
    fn reader_refuses_what_would_panic_or_overallocate() {
        // A prefix length past the family's width is refused, not
        // handed to the asserting `Prefix` constructors.
        let mut out = BytesMut::new();
        out.put_u8(1);
        out.put_u8(33);
        out.put_u128(0);
        let hostile = out.to_vec();
        assert_eq!(
            Reader::new(&hostile, "p").prefix(),
            Err(CodecError::Invalid("prefix length"))
        );
        // A count is bounded by the bytes left: four items of at
        // least two bytes need eight.
        let counted = [0, 0, 0, 4, 1, 2, 3, 4, 5, 6, 7];
        assert_eq!(
            Reader::new(&counted, "list").count(2),
            Err(CodecError::Truncated("list"))
        );
        assert_eq!(Reader::new(&counted, "list").count(1), Ok(4));
        let huge = [0xff; 4];
        assert!(Reader::new(&huge, "list").count(1).is_err());
        // Names decode lossily; trailing bytes fail `finish`.
        let mut r = Reader::new(&[0, 2, b'o', 0xff, 9], "name");
        assert_eq!(r.str16().unwrap(), "o\u{fffd}");
        assert_eq!(r.finish(), Err(CodecError::BadLength("name")));
    }

    #[test]
    fn wire_reads_name_the_structure_they_fail_in() {
        let wire = [0, 2, 0xAA, 0xBB, 0, 0, 0, 7, 0, 0, 0, 9];
        let mut r = Reader::new(&wire, "header");
        assert_eq!(r.need(12), Ok(()));
        assert_eq!(r.need(13), Err(CodecError::Truncated("header")));
        let n = r.u16().unwrap() as usize;
        // A declared section past the end contradicts its structure.
        assert_eq!(
            r.relabel("body").section(99),
            Err(CodecError::BadLength("body"))
        );
        assert_eq!(r.section(n), Ok(&[0xAA, 0xBB][..]));
        assert_eq!(r.len(), 8);
        assert_eq!(r.u32s(2).unwrap().collect::<Vec<_>>(), [7, 9]);
        assert!(r.is_empty());
        assert_eq!(
            r.relabel("tail").array::<1>(),
            Err(CodecError::Truncated("tail"))
        );
        // A fixed-width field of any other width is a bad length.
        assert_eq!(
            Reader::new(&wire[..4], "MED").exact::<4>(),
            Ok([0, 2, 0xAA, 0xBB])
        );
        assert_eq!(
            Reader::new(&wire[..3], "MED").exact::<4>(),
            Err(CodecError::BadLength("MED"))
        );
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
