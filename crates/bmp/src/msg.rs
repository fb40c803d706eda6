//! BMP message framing (RFC 7854 §4): the common header and the seven
//! message types.

use std::net::IpAddr;

use bytes::{BufMut, Bytes, BytesMut};

use bgp_types::codec::Reader;
use bgp_types::message::HEADER_LEN as BGP_HEADER_LEN;
use bgp_types::{BgpMessage, CodecError};

use crate::peer::{read_address, PerPeerHeader};
use crate::reader::BmpError;
use crate::tlv::{InfoTlv, StatTlv, Termination};

/// The only deployed BMP version.
pub const BMP_VERSION: u8 = 3;

/// Common-header size: version(1) + length(4) + type(1).
pub const COMMON_HEADER_LEN: usize = 6;

const TYPE_ROUTE_MONITORING: u8 = 0;
const TYPE_STATISTICS_REPORT: u8 = 1;
const TYPE_PEER_DOWN: u8 = 2;
const TYPE_PEER_UP: u8 = 3;
const TYPE_INITIATION: u8 = 4;
const TYPE_TERMINATION: u8 = 5;
const TYPE_ROUTE_MIRRORING: u8 = 6;

/// Why a monitored peering session went down (RFC 7854 §4.9).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PeerDownReason {
    /// The router closed the session and sent this NOTIFICATION.
    LocalNotification(BgpMessage),
    /// The router closed the session without a NOTIFICATION; the FSM
    /// event code that triggered the close follows.
    LocalFsmEvent(u16),
    /// The peer closed the session with this NOTIFICATION.
    RemoteNotification(BgpMessage),
    /// The peer closed the session without a NOTIFICATION.
    RemoteNoData,
}

impl PeerDownReason {
    fn code(&self) -> u8 {
        match self {
            PeerDownReason::LocalNotification(_) => 1,
            PeerDownReason::LocalFsmEvent(_) => 2,
            PeerDownReason::RemoteNotification(_) => 3,
            PeerDownReason::RemoteNoData => 4,
        }
    }
}

/// A decoded BMP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BmpMessage {
    /// Route monitoring: one BGP UPDATE as received from the peer.
    RouteMonitoring {
        /// The monitored peer.
        peer: PerPeerHeader,
        /// The UPDATE PDU.
        update: BgpMessage,
    },
    /// Periodic per-peer statistics.
    StatisticsReport {
        /// The monitored peer.
        peer: PerPeerHeader,
        /// The counters/gauges.
        stats: Vec<StatTlv>,
    },
    /// A monitored session went down.
    PeerDown {
        /// The monitored peer.
        peer: PerPeerHeader,
        /// Close reason.
        reason: PeerDownReason,
    },
    /// A monitored session reached Established.
    PeerUp {
        /// The monitored peer.
        peer: PerPeerHeader,
        /// Router-side address of the session.
        local_address: IpAddr,
        /// Router-side TCP port.
        local_port: u16,
        /// Peer-side TCP port.
        remote_port: u16,
        /// The OPEN the router sent.
        sent_open: BgpMessage,
        /// The OPEN the router received.
        received_open: BgpMessage,
    },
    /// First message on a BMP session: who the router is.
    Initiation(Vec<InfoTlv>),
    /// Last message on a BMP session.
    Termination(Termination),
    /// Verbatim duplication of messages (we carry the raw bytes; the
    /// mirroring TLV structure is not interpreted).
    RouteMirroring {
        /// The monitored peer.
        peer: PerPeerHeader,
        /// Raw mirroring TLVs.
        raw: Bytes,
    },
}

impl BmpMessage {
    /// Wire message-type code.
    pub fn type_code(&self) -> u8 {
        match self {
            BmpMessage::RouteMonitoring { .. } => TYPE_ROUTE_MONITORING,
            BmpMessage::StatisticsReport { .. } => TYPE_STATISTICS_REPORT,
            BmpMessage::PeerDown { .. } => TYPE_PEER_DOWN,
            BmpMessage::PeerUp { .. } => TYPE_PEER_UP,
            BmpMessage::Initiation(_) => TYPE_INITIATION,
            BmpMessage::Termination(_) => TYPE_TERMINATION,
            BmpMessage::RouteMirroring { .. } => TYPE_ROUTE_MIRRORING,
        }
    }

    /// The per-peer header, for peer-scoped messages.
    pub fn peer(&self) -> Option<&PerPeerHeader> {
        match self {
            BmpMessage::RouteMonitoring { peer, .. }
            | BmpMessage::StatisticsReport { peer, .. }
            | BmpMessage::PeerDown { peer, .. }
            | BmpMessage::PeerUp { peer, .. }
            | BmpMessage::RouteMirroring { peer, .. } => Some(peer),
            BmpMessage::Initiation(_) | BmpMessage::Termination(_) => None,
        }
    }

    /// Encode the complete message (common header + body).
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        match self {
            BmpMessage::RouteMonitoring { peer, update } => {
                peer.encode(&mut body);
                body.put_slice(&update.encode());
            }
            BmpMessage::StatisticsReport { peer, stats } => {
                peer.encode(&mut body);
                body.put_u32(stats.len() as u32);
                for s in stats {
                    s.encode(&mut body);
                }
            }
            BmpMessage::PeerDown { peer, reason } => {
                peer.encode(&mut body);
                body.put_u8(reason.code());
                match reason {
                    PeerDownReason::LocalNotification(n)
                    | PeerDownReason::RemoteNotification(n) => body.put_slice(&n.encode()),
                    PeerDownReason::LocalFsmEvent(ev) => body.put_u16(*ev),
                    PeerDownReason::RemoteNoData => {}
                }
            }
            BmpMessage::PeerUp {
                peer,
                local_address,
                local_port,
                remote_port,
                sent_open,
                received_open,
            } => {
                peer.encode(&mut body);
                match local_address {
                    IpAddr::V4(v4) => {
                        body.put_slice(&[0u8; 12]);
                        body.put_slice(&v4.octets());
                    }
                    IpAddr::V6(v6) => body.put_slice(&v6.octets()),
                }
                body.put_u16(*local_port);
                body.put_u16(*remote_port);
                body.put_slice(&sent_open.encode());
                body.put_slice(&received_open.encode());
            }
            BmpMessage::Initiation(tlvs) => {
                for t in tlvs {
                    t.encode(&mut body);
                }
            }
            BmpMessage::Termination(t) => t.encode(&mut body),
            BmpMessage::RouteMirroring { peer, raw } => {
                peer.encode(&mut body);
                body.put_slice(raw);
            }
        }
        let mut out = BytesMut::with_capacity(COMMON_HEADER_LEN + body.len());
        out.put_u8(BMP_VERSION);
        out.put_u32((COMMON_HEADER_LEN + body.len()) as u32);
        out.put_u8(self.type_code());
        out.put_slice(&body);
        out.freeze()
    }

    /// Decode a message body given its common-header type code.
    pub fn decode(type_code: u8, body: &[u8]) -> Result<BmpMessage, BmpError> {
        let framing = BmpError::framing;
        let mut r = Reader::new(body, "per-peer header");
        let mut peer = || PerPeerHeader::read(&mut r).map_err(framing);
        match type_code {
            TYPE_ROUTE_MONITORING => {
                let peer = peer()?;
                let update = BgpMessage::decode(r.rest()).map_err(BmpError::Bgp)?;
                Ok(BmpMessage::RouteMonitoring { peer, update })
            }
            TYPE_STATISTICS_REPORT => {
                let peer = peer()?;
                let count = r.relabel("stats count").u32().map_err(framing)? as usize;
                let mut stats = Vec::with_capacity(count.min(64));
                let mut rest = r.rest();
                for _ in 0..count {
                    stats.push(StatTlv::decode(&mut rest)?);
                }
                if !rest.is_empty() {
                    return Err(BmpError::Invalid("trailing bytes after stats"));
                }
                Ok(BmpMessage::StatisticsReport { peer, stats })
            }
            TYPE_PEER_DOWN => {
                let peer = peer()?;
                let code = r.relabel("peer-down reason").u8().map_err(framing)?;
                let reason = match code {
                    1 | 3 => {
                        let n = BgpMessage::decode(r.rest()).map_err(BmpError::Bgp)?;
                        if code == 1 {
                            PeerDownReason::LocalNotification(n)
                        } else {
                            PeerDownReason::RemoteNotification(n)
                        }
                    }
                    2 => PeerDownReason::LocalFsmEvent(
                        r.relabel("FSM event code").u16().map_err(framing)?,
                    ),
                    4 => PeerDownReason::RemoteNoData,
                    _ => return Err(BmpError::Invalid("peer-down reason code")),
                };
                Ok(BmpMessage::PeerDown { peer, reason })
            }
            TYPE_PEER_UP => {
                let peer = peer()?;
                let (local_address, local_port, remote_port) =
                    read_session(&mut r, peer.flags.ipv6).map_err(framing)?;
                let (sent_open, rest) = split_bgp_pdu(r.rest())?;
                let (received_open, rest) = split_bgp_pdu(rest)?;
                if !rest.is_empty() {
                    // Peer-up may carry trailing information TLVs;
                    // validate but do not retain them.
                    InfoTlv::decode_all(rest)?;
                }
                Ok(BmpMessage::PeerUp {
                    peer,
                    local_address,
                    local_port,
                    remote_port,
                    sent_open,
                    received_open,
                })
            }
            TYPE_INITIATION => Ok(BmpMessage::Initiation(InfoTlv::decode_all(body)?)),
            TYPE_TERMINATION => Ok(BmpMessage::Termination(Termination::decode(body)?)),
            TYPE_ROUTE_MIRRORING => {
                let peer = peer()?;
                Ok(BmpMessage::RouteMirroring {
                    peer,
                    raw: Bytes::copy_from_slice(r.rest()),
                })
            }
            other => Err(BmpError::UnknownType(other)),
        }
    }
}

/// The peer-up session information (RFC 7854 §4.10): the router-side
/// address, then the local and remote ports.
fn read_session(r: &mut Reader, ipv6: bool) -> Result<(IpAddr, u16, u16), CodecError> {
    r.relabel("peer-up session info");
    Ok((read_address(r, ipv6)?, r.u16()?, r.u16()?))
}

/// Split one BGP PDU off the front of `buf` using the length field of
/// its header, decode it, and return the remainder.
fn split_bgp_pdu(buf: &[u8]) -> Result<(BgpMessage, &[u8]), BmpError> {
    let (pdu, rest) = frame_bgp_pdu(buf).map_err(BmpError::framing)?;
    let msg = BgpMessage::decode(pdu).map_err(BmpError::Bgp)?;
    Ok((msg, rest))
}

/// Frame the BGP PDU at the front of `buf` by its header's length.
fn frame_bgp_pdu(buf: &[u8]) -> Result<(&[u8], &[u8]), CodecError> {
    let mut header = Reader::new(buf, "embedded BGP PDU header");
    let _marker = header.array::<16>()?;
    let len = header.u16()? as usize;
    let _type = header.u8()?;
    if len < BGP_HEADER_LEN {
        return Err(CodecError::Truncated("embedded BGP PDU body"));
    }
    let mut r = Reader::new(buf, "embedded BGP PDU body");
    Ok((r.bytes(len)?, r.rest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlv::TerminationReason;
    use bgp_types::{AsPath, Asn, BgpUpdate, PathAttributes, Prefix};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn peer() -> PerPeerHeader {
        PerPeerHeader::global("192.0.2.1".parse().unwrap(), Asn(65001), 0x0a000001, 1000)
    }

    fn open(asn: u32) -> BgpMessage {
        BgpMessage::Open {
            asn: Asn(asn),
            hold_time: 180,
            bgp_id: asn,
        }
    }

    fn roundtrip(m: &BmpMessage) -> BmpMessage {
        let wire = m.encode();
        assert_eq!(wire[0], BMP_VERSION);
        let len = u32::from_be_bytes([wire[1], wire[2], wire[3], wire[4]]) as usize;
        assert_eq!(len, wire.len());
        BmpMessage::decode(wire[5], &wire[COMMON_HEADER_LEN..]).unwrap()
    }

    #[test]
    fn route_monitoring_roundtrip() {
        let m = BmpMessage::RouteMonitoring {
            peer: peer(),
            update: BgpMessage::Update(BgpUpdate::announce(
                vec![p("203.0.113.0/24")],
                PathAttributes::route(
                    AsPath::from_sequence([65001, 137]),
                    "192.0.2.1".parse().unwrap(),
                ),
            )),
        };
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn statistics_report_roundtrip() {
        let m = BmpMessage::StatisticsReport {
            peer: peer(),
            stats: vec![
                StatTlv::RejectedPrefixes(3),
                StatTlv::AdjRibInRoutes(812_000),
                StatTlv::LocRibRoutes(790_000),
            ],
        };
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn peer_up_roundtrip() {
        let m = BmpMessage::PeerUp {
            peer: peer(),
            local_address: "192.0.2.254".parse().unwrap(),
            local_port: 179,
            remote_port: 34123,
            sent_open: open(64512),
            received_open: open(65001),
        };
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn peer_down_all_reasons_roundtrip() {
        let reasons = [
            PeerDownReason::LocalNotification(BgpMessage::Notification {
                code: 6,
                subcode: 2,
            }),
            PeerDownReason::LocalFsmEvent(17),
            PeerDownReason::RemoteNotification(BgpMessage::Notification {
                code: 4,
                subcode: 0,
            }),
            PeerDownReason::RemoteNoData,
        ];
        for reason in reasons {
            let m = BmpMessage::PeerDown {
                peer: peer(),
                reason,
            };
            assert_eq!(roundtrip(&m), m);
        }
    }

    #[test]
    fn initiation_termination_roundtrip() {
        let init = BmpMessage::Initiation(vec![
            InfoTlv::SysName("edge1".into()),
            InfoTlv::SysDescr("simulated router".into()),
        ]);
        assert_eq!(roundtrip(&init), init);
        let term = BmpMessage::Termination(Termination {
            reason: TerminationReason::AdminClose,
            info: None,
        });
        assert_eq!(roundtrip(&term), term);
    }

    #[test]
    fn route_mirroring_preserves_raw() {
        let m = BmpMessage::RouteMirroring {
            peer: peer(),
            raw: Bytes::from_static(&[0, 1, 0, 2, 9, 9]),
        };
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn unknown_type_rejected() {
        assert!(matches!(
            BmpMessage::decode(77, &[]),
            Err(BmpError::UnknownType(77))
        ));
    }

    #[test]
    fn bad_peer_down_reason_rejected() {
        let mut body = BytesMut::new();
        peer().encode(&mut body);
        body.put_u8(9);
        assert!(matches!(
            BmpMessage::decode(TYPE_PEER_DOWN, &body),
            Err(BmpError::Invalid(_))
        ));
    }

    #[test]
    fn stats_with_trailing_garbage_rejected() {
        let m = BmpMessage::StatisticsReport {
            peer: peer(),
            stats: vec![],
        };
        let mut wire = BytesMut::from(&m.encode()[..]);
        wire.put_u8(0xAA);
        let len = wire.len() as u32;
        wire[1..5].copy_from_slice(&len.to_be_bytes());
        assert!(matches!(
            BmpMessage::decode(wire[5], &wire[COMMON_HEADER_LEN..]),
            Err(BmpError::Invalid(_))
        ));
    }
}
