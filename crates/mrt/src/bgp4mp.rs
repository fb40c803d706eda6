//! `BGP4MP` record bodies (RFC 6396 §4.4).
//!
//! Updates dumps consist of `BGP4MP_MESSAGE_AS4` records (each wrapping
//! one raw BGP message received from a VP) interleaved with
//! `BGP4MP_STATE_CHANGE_AS4` records when the collector's session FSM
//! with a VP moves. We emit/consume the `_AS4` (4-byte ASN) flavours
//! exclusively, as modern collectors do.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, BytesMut};

use bgp_types::codec::Reader;
use bgp_types::message::MessageView;
use bgp_types::{Asn, BgpMessage, CodecError, SessionState};

use crate::raw::{RawMrtView, RawUpdate};
use crate::reader::MrtError;

/// Subtype codes.
pub const SUBTYPE_STATE_CHANGE: u16 = 0;
/// 2-byte ASN message subtype (accepted on decode, never emitted).
pub const SUBTYPE_MESSAGE: u16 = 1;
/// 4-byte ASN message subtype.
pub const SUBTYPE_MESSAGE_AS4: u16 = 4;
/// 4-byte ASN state-change subtype.
pub const SUBTYPE_STATE_CHANGE_AS4: u16 = 5;

const AFI_IPV4: u16 = 1;
const AFI_IPV6: u16 = 2;

/// A decoded `BGP4MP` body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Bgp4mp {
    /// A BGP message received from `peer_asn` (`BGP4MP_MESSAGE_AS4`).
    Message {
        /// The VP's AS number.
        peer_asn: Asn,
        /// The collector's AS number.
        local_asn: Asn,
        /// The VP's address (the session endpoint).
        peer_ip: IpAddr,
        /// The collector's address.
        local_ip: IpAddr,
        /// The embedded BGP message.
        message: BgpMessage,
    },
    /// A session FSM transition (`BGP4MP_STATE_CHANGE_AS4`).
    StateChange {
        /// The VP's AS number.
        peer_asn: Asn,
        /// The collector's AS number.
        local_asn: Asn,
        /// The VP's address.
        peer_ip: IpAddr,
        /// The collector's address.
        local_ip: IpAddr,
        /// State before the transition.
        old_state: SessionState,
        /// State after the transition.
        new_state: SessionState,
    },
}

impl Bgp4mp {
    /// The VP address of this body.
    pub fn peer_ip(&self) -> IpAddr {
        match self {
            Bgp4mp::Message { peer_ip, .. } | Bgp4mp::StateChange { peer_ip, .. } => *peer_ip,
        }
    }

    /// The VP ASN of this body.
    pub fn peer_asn(&self) -> Asn {
        match self {
            Bgp4mp::Message { peer_asn, .. } | Bgp4mp::StateChange { peer_asn, .. } => *peer_asn,
        }
    }

    /// Encode into `out`; returns the subtype code for the header.
    pub fn encode(&self, out: &mut BytesMut) -> u16 {
        match self {
            Bgp4mp::Message {
                peer_asn,
                local_asn,
                peer_ip,
                local_ip,
                message,
            } => {
                encode_session_header(*peer_asn, *local_asn, *peer_ip, *local_ip, out);
                out.put_slice(&message.encode());
                SUBTYPE_MESSAGE_AS4
            }
            Bgp4mp::StateChange {
                peer_asn,
                local_asn,
                peer_ip,
                local_ip,
                old_state,
                new_state,
            } => {
                encode_session_header(*peer_asn, *local_asn, *peer_ip, *local_ip, out);
                out.put_u16(old_state.code());
                out.put_u16(new_state.code());
                SUBTYPE_STATE_CHANGE_AS4
            }
        }
    }
}

/// Parse a `BGP4MP` body (RFC 6396 §4.4) given its header subtype:
/// the session header, then either the state change (decoded in full)
/// or the embedded message's framing ([`MessageView::parse`]).
pub(crate) fn parse(subtype: u16, body: &[u8]) -> Result<RawMrtView<'_>, MrtError> {
    match subtype {
        SUBTYPE_MESSAGE_AS4 | SUBTYPE_STATE_CHANGE_AS4 => {}
        SUBTYPE_MESSAGE | SUBTYPE_STATE_CHANGE => {
            return Err(MrtError::Unsupported("2-byte ASN BGP4MP subtypes"))
        }
        _ => return Err(MrtError::Unsupported("unknown BGP4MP subtype")),
    }
    let mut r = Reader::new(body, "BGP4MP session header");
    let (peer_asn, local_asn, peer_ip, local_ip) =
        decode_session_header(&mut r).map_err(MrtError::framing)?;
    if subtype == SUBTYPE_STATE_CHANGE_AS4 {
        let (old_state, new_state) = decode_state_change(&mut r).map_err(MrtError::framing)?;
        return Ok(RawMrtView::StateChange(Bgp4mp::StateChange {
            peer_asn,
            local_asn,
            peer_ip,
            local_ip,
            old_state,
            new_state,
        }));
    }
    Ok(match MessageView::parse(r.rest()).map_err(MrtError::Bgp)? {
        MessageView::Update(update) => RawMrtView::Update(RawUpdate {
            peer_asn,
            local_asn,
            peer_ip,
            local_ip,
            update,
        }),
        MessageView::Fixed(message) => RawMrtView::NonUpdateMessage(Bgp4mp::Message {
            peer_asn,
            local_asn,
            peer_ip,
            local_ip,
            message,
        }),
    })
}

impl RawUpdate<'_> {
    /// Materialise the record: decode the update's sections.
    pub(crate) fn materialise(&self) -> Result<Bgp4mp, MrtError> {
        Ok(Bgp4mp::Message {
            peer_asn: self.peer_asn,
            local_asn: self.local_asn,
            peer_ip: self.peer_ip,
            local_ip: self.local_ip,
            message: BgpMessage::Update(self.update.decode().map_err(MrtError::Bgp)?),
        })
    }
}

fn encode_session_header(
    peer_asn: Asn,
    local_asn: Asn,
    peer_ip: IpAddr,
    local_ip: IpAddr,
    out: &mut BytesMut,
) {
    out.put_u32(peer_asn.0);
    out.put_u32(local_asn.0);
    out.put_u16(0); // interface index
    match (peer_ip, local_ip) {
        (IpAddr::V4(p), IpAddr::V4(l)) => {
            out.put_u16(AFI_IPV4);
            out.put_slice(&p.octets());
            out.put_slice(&l.octets());
        }
        (p, l) => {
            out.put_u16(AFI_IPV6);
            out.put_slice(&to_v6(p).octets());
            out.put_slice(&to_v6(l).octets());
        }
    }
}

fn to_v6(ip: IpAddr) -> Ipv6Addr {
    match ip {
        IpAddr::V4(v4) => v4.to_ipv6_mapped(),
        IpAddr::V6(v6) => v6,
    }
}

fn decode_session_header(r: &mut Reader) -> Result<(Asn, Asn, IpAddr, IpAddr), CodecError> {
    let peer_asn = Asn(r.u32()?);
    let local_asn = Asn(r.u32()?);
    let _ifindex = r.u16()?;
    let (peer_ip, local_ip) = match r.u16()? {
        AFI_IPV4 => {
            r.relabel("BGP4MP IPv4 addresses");
            let peer = Ipv4Addr::from(r.u32()?);
            (IpAddr::V4(peer), IpAddr::V4(Ipv4Addr::from(r.u32()?)))
        }
        AFI_IPV6 => {
            r.relabel("BGP4MP IPv6 addresses");
            let peer = Ipv6Addr::from(r.u128()?);
            (IpAddr::V6(peer), IpAddr::V6(Ipv6Addr::from(r.u128()?)))
        }
        _ => return Err(CodecError::Invalid("BGP4MP AFI")),
    };
    Ok((peer_asn, local_asn, peer_ip, local_ip))
}

/// The old and new FSM states of a `BGP4MP_STATE_CHANGE_AS4` body.
fn decode_state_change(r: &mut Reader) -> Result<(SessionState, SessionState), CodecError> {
    r.relabel("BGP4MP state change");
    let (old, new) = (r.u16()?, r.u16()?);
    Ok((
        SessionState::from_code(old).ok_or(CodecError::Invalid("old FSM state"))?,
        SessionState::from_code(new).ok_or(CodecError::Invalid("new FSM state"))?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MrtBody, MrtHeader, MrtRecord, MrtType};
    use bgp_types::{AsPath, BgpUpdate, PathAttributes, Prefix};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn decode(subtype: u16, body: &[u8]) -> Result<Bgp4mp, MrtError> {
        let header = MrtHeader {
            timestamp: 0,
            mrt_type: MrtType::Bgp4mp,
            subtype,
            length: body.len() as u32,
        };
        match MrtRecord::decode(&header, body)?.body {
            MrtBody::Bgp4mp(b) => Ok(b),
            other => panic!("not a BGP4MP body: {other:?}"),
        }
    }

    fn roundtrip(b: &Bgp4mp) -> Bgp4mp {
        let mut buf = BytesMut::new();
        let subtype = b.encode(&mut buf);
        decode(subtype, &buf).unwrap()
    }

    #[test]
    fn message_roundtrip_v4_session() {
        let update = BgpUpdate::announce(
            vec![p("203.0.113.0/24")],
            PathAttributes::route(
                AsPath::from_sequence([65001, 137]),
                "192.0.2.1".parse().unwrap(),
            ),
        );
        let b = Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(6447),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Update(update),
        };
        assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn message_roundtrip_v6_session() {
        let b = Bgp4mp::Message {
            peer_asn: Asn(400_812),
            local_asn: Asn(12654),
            peer_ip: "2001:db8::1".parse().unwrap(),
            local_ip: "2001:db8::ff".parse().unwrap(),
            message: BgpMessage::Keepalive,
        };
        assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn state_change_roundtrip() {
        let b = Bgp4mp::StateChange {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.9".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            old_state: SessionState::OpenConfirm,
            new_state: SessionState::Established,
        };
        assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn rejects_two_byte_subtypes() {
        assert!(matches!(
            decode(SUBTYPE_MESSAGE, &[0u8; 20]),
            Err(MrtError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_bad_state_code() {
        let b = Bgp4mp::StateChange {
            peer_asn: Asn(1),
            local_asn: Asn(2),
            peer_ip: "10.0.0.1".parse().unwrap(),
            local_ip: "10.0.0.2".parse().unwrap(),
            old_state: SessionState::Idle,
            new_state: SessionState::Established,
        };
        let mut buf = BytesMut::new();
        let subtype = b.encode(&mut buf);
        let n = buf.len();
        buf[n - 1] = 99; // corrupt the new_state code
        assert!(matches!(decode(subtype, &buf), Err(MrtError::Invalid(_))));
    }

    #[test]
    fn truncated_session_header() {
        assert!(matches!(
            decode(SUBTYPE_MESSAGE_AS4, &[0u8; 6]),
            Err(MrtError::Truncated(_))
        ));
    }
}
