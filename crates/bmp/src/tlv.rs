//! BMP TLVs: initiation/termination information (RFC 7854 §4.4, §4.5)
//! and the typed statistics of the statistics report (§4.8).

use bytes::{BufMut, BytesMut};

use bgp_types::codec::Reader;

use crate::reader::BmpError;

/// Information TLV types (initiation and termination messages).
const INFO_STRING: u16 = 0;
const INFO_SYS_DESCR: u16 = 1;
const INFO_SYS_NAME: u16 = 2;
/// Termination-only: 2-byte reason code.
const TERM_REASON: u16 = 1;

/// An information TLV carried by initiation messages (and the string
/// TLV of termination messages).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InfoTlv {
    /// Free-form administrative string.
    String(String),
    /// sysDescr (router software/hardware description).
    SysDescr(String),
    /// sysName (router hostname).
    SysName(String),
    /// Unknown type preserved as raw bytes.
    Unknown(u16, Vec<u8>),
}

impl InfoTlv {
    /// Encode into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        let (ty, value): (u16, &[u8]) = match self {
            InfoTlv::String(s) => (INFO_STRING, s.as_bytes()),
            InfoTlv::SysDescr(s) => (INFO_SYS_DESCR, s.as_bytes()),
            InfoTlv::SysName(s) => (INFO_SYS_NAME, s.as_bytes()),
            InfoTlv::Unknown(ty, raw) => (*ty, raw),
        };
        out.put_u16(ty);
        out.put_u16(value.len() as u16);
        out.put_slice(value);
    }

    /// Decode one TLV from the front of `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> Result<InfoTlv, BmpError> {
        let (ty, value) = split_tlv(buf, "information TLV")?;
        let text = || {
            String::from_utf8(value.to_vec())
                .map_err(|_| BmpError::Invalid("non-UTF-8 information TLV"))
        };
        let tlv = match ty {
            INFO_STRING => InfoTlv::String(text()?),
            INFO_SYS_DESCR => InfoTlv::SysDescr(text()?),
            INFO_SYS_NAME => InfoTlv::SysName(text()?),
            other => InfoTlv::Unknown(other, value.to_vec()),
        };
        Ok(tlv)
    }

    /// Decode all TLVs up to the end of `buf`.
    pub fn decode_all(mut buf: &[u8]) -> Result<Vec<InfoTlv>, BmpError> {
        let mut tlvs = Vec::new();
        while !buf.is_empty() {
            tlvs.push(InfoTlv::decode(&mut buf)?);
        }
        Ok(tlvs)
    }
}

/// Why a termination message was sent (RFC 7854 §4.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TerminationReason {
    /// Session administratively closed.
    AdminClose,
    /// Unspecified reason.
    Unspecified,
    /// Resources exceeded on the router.
    OutOfResources,
    /// Redundant connection.
    RedundantConnection,
    /// Session permanently administratively closed.
    PermanentAdminClose,
    /// Unknown code, preserved.
    Other(u16),
}

impl TerminationReason {
    /// Wire code.
    pub fn code(self) -> u16 {
        match self {
            TerminationReason::AdminClose => 0,
            TerminationReason::Unspecified => 1,
            TerminationReason::OutOfResources => 2,
            TerminationReason::RedundantConnection => 3,
            TerminationReason::PermanentAdminClose => 4,
            TerminationReason::Other(c) => c,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u16) -> Self {
        match c {
            0 => TerminationReason::AdminClose,
            1 => TerminationReason::Unspecified,
            2 => TerminationReason::OutOfResources,
            3 => TerminationReason::RedundantConnection,
            4 => TerminationReason::PermanentAdminClose,
            other => TerminationReason::Other(other),
        }
    }
}

/// The body of a termination message: an optional string plus the
/// mandatory reason TLV.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Termination {
    /// Reason for terminating.
    pub reason: TerminationReason,
    /// Optional free-form explanation.
    pub info: Option<String>,
}

impl Termination {
    /// Encode into `out` (reason TLV first, per common practice).
    pub fn encode(&self, out: &mut BytesMut) {
        out.put_u16(TERM_REASON);
        out.put_u16(2);
        out.put_u16(self.reason.code());
        if let Some(s) = &self.info {
            InfoTlv::String(s.clone()).encode(out);
        }
    }

    /// Decode a termination body.
    pub fn decode(mut buf: &[u8]) -> Result<Termination, BmpError> {
        let mut reason = None;
        let mut info = None;
        while !buf.is_empty() {
            let (ty, value) = split_tlv(&mut buf, "termination TLV")?;
            match ty {
                TERM_REASON => {
                    let code = Reader::new(value, "termination reason length")
                        .exact()
                        .map_err(BmpError::framing)?;
                    reason = Some(TerminationReason::from_code(u16::from_be_bytes(code)));
                }
                INFO_STRING => {
                    info = Some(
                        String::from_utf8(value.to_vec())
                            .map_err(|_| BmpError::Invalid("non-UTF-8 termination string"))?,
                    );
                }
                _ => {} // tolerate unknown termination TLVs
            }
        }
        Ok(Termination {
            reason: reason.ok_or(BmpError::Invalid("termination without reason TLV"))?,
            info,
        })
    }
}

/// One statistic of a statistics report (RFC 7854 §4.8). The commonly
/// implemented counters are typed; anything else is preserved raw.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StatTlv {
    /// Stat type 0: prefixes rejected by inbound policy.
    RejectedPrefixes(u32),
    /// Stat type 1: duplicate prefix advertisements.
    DuplicateAdvertisements(u32),
    /// Stat type 2: duplicate withdraws.
    DuplicateWithdraws(u32),
    /// Stat type 4: updates invalidated due to AS_PATH loop.
    AsPathLoop(u32),
    /// Stat type 7: routes in Adj-RIB-In (gauge).
    AdjRibInRoutes(u64),
    /// Stat type 8: routes in Loc-RIB (gauge).
    LocRibRoutes(u64),
    /// Unknown stat type, raw value preserved.
    Unknown(u16, Vec<u8>),
}

impl StatTlv {
    /// Wire stat-type code.
    pub fn code(&self) -> u16 {
        match self {
            StatTlv::RejectedPrefixes(_) => 0,
            StatTlv::DuplicateAdvertisements(_) => 1,
            StatTlv::DuplicateWithdraws(_) => 2,
            StatTlv::AsPathLoop(_) => 4,
            StatTlv::AdjRibInRoutes(_) => 7,
            StatTlv::LocRibRoutes(_) => 8,
            StatTlv::Unknown(ty, _) => *ty,
        }
    }

    /// Encode into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        out.put_u16(self.code());
        match self {
            StatTlv::RejectedPrefixes(v)
            | StatTlv::DuplicateAdvertisements(v)
            | StatTlv::DuplicateWithdraws(v)
            | StatTlv::AsPathLoop(v) => {
                out.put_u16(4);
                out.put_u32(*v);
            }
            StatTlv::AdjRibInRoutes(v) | StatTlv::LocRibRoutes(v) => {
                out.put_u16(8);
                out.put_u64(*v);
            }
            StatTlv::Unknown(_, raw) => {
                out.put_u16(raw.len() as u16);
                out.put_slice(raw);
            }
        }
    }

    /// Decode one stat from the front of `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> Result<StatTlv, BmpError> {
        let (ty, value) = split_tlv(buf, "stat TLV")?;
        let u32v = |w| Reader::new(value, w).exact().map(u32::from_be_bytes);
        let u64v = |w| Reader::new(value, w).exact().map(u64::from_be_bytes);
        let stat = match ty {
            0 => u32v("stat 0 length").map(StatTlv::RejectedPrefixes),
            1 => u32v("stat 1 length").map(StatTlv::DuplicateAdvertisements),
            2 => u32v("stat 2 length").map(StatTlv::DuplicateWithdraws),
            4 => u32v("stat 4 length").map(StatTlv::AsPathLoop),
            7 => u64v("stat 7 length").map(StatTlv::AdjRibInRoutes),
            8 => u64v("stat 8 length").map(StatTlv::LocRibRoutes),
            other => Ok(StatTlv::Unknown(other, value.to_vec())),
        };
        stat.map_err(BmpError::framing)
    }
}

/// Split one `type(2) length(2) value(length)` TLV off the front of
/// `buf`.
fn split_tlv<'a>(buf: &mut &'a [u8], what: &'static str) -> Result<(u16, &'a [u8]), BmpError> {
    let mut r = Reader::new(buf, what);
    let mut read = || {
        let ty = r.u16()?;
        let len = r.u16()? as usize;
        Ok((ty, r.bytes(len)?))
    };
    let tlv = read().map_err(BmpError::framing)?;
    *buf = r.rest();
    Ok(tlv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_tlv_roundtrip() {
        for tlv in [
            InfoTlv::String("hello".into()),
            InfoTlv::SysDescr("JunOS 23.1".into()),
            InfoTlv::SysName("edge1.example".into()),
            InfoTlv::Unknown(99, vec![1, 2, 3]),
        ] {
            let mut buf = BytesMut::new();
            tlv.encode(&mut buf);
            let mut slice = &buf[..];
            assert_eq!(InfoTlv::decode(&mut slice).unwrap(), tlv);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn info_tlv_sequence() {
        let mut buf = BytesMut::new();
        InfoTlv::SysName("r1".into()).encode(&mut buf);
        InfoTlv::SysDescr("sim".into()).encode(&mut buf);
        let tlvs = InfoTlv::decode_all(&buf).unwrap();
        assert_eq!(tlvs.len(), 2);
    }

    #[test]
    fn info_tlv_rejects_bad_utf8() {
        let mut buf = BytesMut::new();
        buf.put_u16(INFO_SYS_NAME);
        buf.put_u16(2);
        buf.put_slice(&[0xFF, 0xFE]);
        let mut slice = &buf[..];
        assert!(matches!(
            InfoTlv::decode(&mut slice),
            Err(BmpError::Invalid(_))
        ));
    }

    #[test]
    fn stat_tlv_roundtrip() {
        for stat in [
            StatTlv::RejectedPrefixes(7),
            StatTlv::DuplicateAdvertisements(1000),
            StatTlv::DuplicateWithdraws(0),
            StatTlv::AsPathLoop(3),
            StatTlv::AdjRibInRoutes(812_000),
            StatTlv::LocRibRoutes(790_123),
            StatTlv::Unknown(42, vec![9, 9]),
        ] {
            let mut buf = BytesMut::new();
            stat.encode(&mut buf);
            let mut slice = &buf[..];
            assert_eq!(StatTlv::decode(&mut slice).unwrap(), stat);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn stat_tlv_wrong_width_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(7); // AdjRibInRoutes wants 8 bytes
        buf.put_u16(4);
        buf.put_u32(1);
        let mut slice = &buf[..];
        assert!(matches!(
            StatTlv::decode(&mut slice),
            Err(BmpError::Invalid(_))
        ));
    }

    #[test]
    fn termination_roundtrip() {
        let t = Termination {
            reason: TerminationReason::OutOfResources,
            info: Some("load shed".into()),
        };
        let mut buf = BytesMut::new();
        t.encode(&mut buf);
        assert_eq!(Termination::decode(&buf).unwrap(), t);
    }

    #[test]
    fn termination_requires_reason() {
        let mut buf = BytesMut::new();
        InfoTlv::String("bye".into()).encode(&mut buf);
        assert!(matches!(
            Termination::decode(&buf),
            Err(BmpError::Invalid(_))
        ));
    }

    #[test]
    fn termination_reason_codes_roundtrip() {
        for c in 0..6u16 {
            assert_eq!(TerminationReason::from_code(c).code(), c);
        }
    }

    #[test]
    fn truncated_tlv_value() {
        let mut buf = BytesMut::new();
        buf.put_u16(0);
        buf.put_u16(10); // claims 10 bytes, provides 2
        buf.put_u16(0);
        let mut slice = &buf[..];
        assert!(matches!(
            InfoTlv::decode(&mut slice),
            Err(BmpError::Truncated(_))
        ));
    }
}
