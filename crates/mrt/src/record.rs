//! MRT record framing: the common 12-byte header and the typed body.

use bgp_types::codec::Reader;
use bytes::{BufMut, Bytes, BytesMut};

use crate::bgp4mp::Bgp4mp;
use crate::raw::RawMrtView;
use crate::reader::MrtError;
use crate::table_dump_v2::TableDumpV2;

/// MRT record types used by collector dumps (RFC 6396 §4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MrtType {
    /// RIB dumps.
    TableDumpV2,
    /// Update / state-change dumps.
    Bgp4mp,
    /// Anything else (preserved, not interpreted).
    Other(u16),
}

impl MrtType {
    /// Wire code.
    pub fn code(self) -> u16 {
        match self {
            MrtType::TableDumpV2 => 13,
            MrtType::Bgp4mp => 16,
            MrtType::Other(c) => c,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u16) -> Self {
        match c {
            13 => MrtType::TableDumpV2,
            16 => MrtType::Bgp4mp,
            other => MrtType::Other(other),
        }
    }
}

/// The 12-byte MRT common header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MrtHeader {
    /// Seconds since the epoch (virtual time in simulations).
    pub timestamp: u32,
    /// Record type.
    pub mrt_type: MrtType,
    /// Record subtype (interpretation depends on type).
    pub subtype: u16,
    /// Body length in bytes.
    pub length: u32,
}

impl MrtHeader {
    /// Size of the encoded header.
    pub const LEN: usize = 12;

    /// Encode into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        out.put_u32(self.timestamp);
        out.put_u16(self.mrt_type.code());
        out.put_u16(self.subtype);
        out.put_u32(self.length);
    }

    /// Decode the header at the start of `buf`; bytes past its
    /// [`Self::LEN`] are ignored.
    pub fn decode(buf: &[u8]) -> Result<MrtHeader, MrtError> {
        let mut r = Reader::new(buf, "MRT header");
        let mut read = || {
            Ok(MrtHeader {
                timestamp: r.u32()?,
                mrt_type: MrtType::from_code(r.u16()?),
                subtype: r.u16()?,
                length: r.u32()?,
            })
        };
        read().map_err(MrtError::framing)
    }
}

/// A decoded MRT record body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MrtBody {
    /// `TABLE_DUMP_V2` (RIB dumps).
    TableDumpV2(TableDumpV2),
    /// `BGP4MP` (updates and state changes).
    Bgp4mp(Bgp4mp),
    /// Unknown type/subtype: raw body bytes, preserved for round-trip.
    Unknown(Bytes),
}

/// One complete MRT record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MrtRecord {
    /// Record timestamp (seconds).
    pub timestamp: u32,
    /// Typed body.
    pub body: MrtBody,
}

impl MrtRecord {
    /// Build a BGP4MP record.
    pub fn bgp4mp(timestamp: u32, body: Bgp4mp) -> Self {
        MrtRecord {
            timestamp,
            body: MrtBody::Bgp4mp(body),
        }
    }

    /// Build a TABLE_DUMP_V2 record.
    pub fn table_dump_v2(timestamp: u32, body: TableDumpV2) -> Self {
        MrtRecord {
            timestamp,
            body: MrtBody::TableDumpV2(body),
        }
    }

    /// Encode the full record (header + body).
    pub fn encode(&self) -> Bytes {
        let (ty, subtype, body) = match &self.body {
            MrtBody::TableDumpV2(b) => {
                let mut buf = BytesMut::new();
                let subtype = b.encode(&mut buf);
                (MrtType::TableDumpV2, subtype, buf.freeze())
            }
            MrtBody::Bgp4mp(b) => {
                let mut buf = BytesMut::new();
                let subtype = b.encode(&mut buf);
                (MrtType::Bgp4mp, subtype, buf.freeze())
            }
            MrtBody::Unknown(raw) => (MrtType::Other(u16::MAX), 0, raw.clone()),
        };
        let header = MrtHeader {
            timestamp: self.timestamp,
            mrt_type: ty,
            subtype,
            length: body.len() as u32,
        };
        let mut out = BytesMut::with_capacity(MrtHeader::LEN + body.len());
        header.encode(&mut out);
        out.put_slice(&body);
        out.freeze()
    }

    /// Decode a record from a header and its body bytes:
    /// [`RawMrtView::parse`], then [`RawMrtView::materialise`].
    pub fn decode(header: &MrtHeader, body: &[u8]) -> Result<MrtRecord, MrtError> {
        Ok(MrtRecord {
            timestamp: header.timestamp,
            body: RawMrtView::parse(header, body)?.materialise()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_roundtrip() {
        for t in [MrtType::TableDumpV2, MrtType::Bgp4mp, MrtType::Other(99)] {
            assert_eq!(MrtType::from_code(t.code()), t);
        }
        assert_eq!(MrtType::from_code(13), MrtType::TableDumpV2);
        assert_eq!(MrtType::from_code(16), MrtType::Bgp4mp);
    }

    #[test]
    fn header_roundtrip() {
        let h = MrtHeader {
            timestamp: 1_438_415_400,
            mrt_type: MrtType::Bgp4mp,
            subtype: 4,
            length: 77,
        };
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), MrtHeader::LEN);
        assert_eq!(MrtHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn header_truncated() {
        assert!(matches!(
            MrtHeader::decode(&[0u8; 5]),
            Err(MrtError::Truncated(_))
        ));
    }

    #[test]
    fn unknown_body_preserved() {
        let rec = MrtRecord {
            timestamp: 42,
            body: MrtBody::Unknown(Bytes::from_static(b"opaque")),
        };
        let wire = rec.encode();
        let header = MrtHeader::decode(&wire).unwrap();
        let back = MrtRecord::decode(&header, &wire[MrtHeader::LEN..]).unwrap();
        assert_eq!(back, rec);
    }
}
