//! The monitoring-station side: an OpenBMP-equivalent that bridges
//! BMP into the MRT-based BGPStream pipeline.
//!
//! The station consumes a router's BMP message stream, maintains the
//! session state the protocol implies (initiation seen, which peers
//! are up), and converts every peer-scoped message into the
//! [`mrt::MrtRecord`] a route collector would have produced for the
//! same observation:
//!
//! * route monitoring → `BGP4MP_MESSAGE_AS4`;
//! * peer up → `BGP4MP_STATE_CHANGE_AS4` (OpenConfirm → Established);
//! * peer down → `BGP4MP_STATE_CHANGE_AS4` (Established → Idle).
//!
//! Downstream, those records flow through the exact same sorted-stream
//! / BGPCorsaro / consumer machinery as archive data — which is the
//! point of the paper's §7 plan: OpenBMP support slots in as another
//! data source *underneath* the framework, not as a parallel stack.
//!
//! A station is deliberately tolerant of protocol anomalies (a router
//! restarting mid-stream, duplicate peer-ups): real monitoring
//! infrastructure must keep running, so anomalies are surfaced as
//! events and counted rather than aborting the session.

use std::collections::HashMap;
use std::net::IpAddr;

use bgp_types::{Asn, SessionState};
use mrt::{Bgp4mp, MrtRecord};

use crate::msg::BmpMessage;
use crate::peer::PerPeerHeader;
use crate::tlv::{StatTlv, Termination};

/// What the station derived from one BMP message.
#[derive(Clone, PartialEq, Debug)]
pub enum StationEvent {
    /// The router introduced itself (initiation message).
    RouterUp {
        /// sysName TLV, if present.
        sys_name: Option<String>,
        /// sysDescr TLV, if present.
        sys_descr: Option<String>,
    },
    /// The router closed the BMP session.
    RouterDown(Termination),
    /// A peer-scoped message bridged to an MRT record.
    Record(MrtRecord),
    /// A statistics report (not representable in MRT; exposed raw).
    Stats {
        /// The monitored peer.
        peer_address: IpAddr,
        /// The peer's ASN.
        peer_asn: Asn,
        /// The report contents.
        stats: Vec<StatTlv>,
    },
    /// A protocol-discipline anomaly the station tolerated.
    Anomaly(&'static str),
}

/// Per-router BMP session state at the station.
pub struct MonitoringStation {
    /// The "collector" identity stamped into bridged MRT records.
    local_asn: Asn,
    local_ip: IpAddr,
    initiated: bool,
    peers_up: HashMap<(IpAddr, u32), Asn>,
    anomalies: u64,
    records_bridged: u64,
}

impl MonitoringStation {
    /// A station bridging records as collector `local_asn`/`local_ip`.
    pub fn new(local_asn: Asn, local_ip: IpAddr) -> Self {
        MonitoringStation {
            local_asn,
            local_ip,
            initiated: false,
            peers_up: HashMap::new(),
            anomalies: 0,
            records_bridged: 0,
        }
    }

    /// Protocol anomalies tolerated so far.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// MRT records produced so far.
    pub fn records_bridged(&self) -> u64 {
        self.records_bridged
    }

    /// Peers currently up.
    pub fn peers_up(&self) -> usize {
        self.peers_up.len()
    }

    /// Ingest one message, producing derived events.
    pub fn ingest(&mut self, msg: BmpMessage) -> Vec<StationEvent> {
        match msg {
            BmpMessage::Initiation(tlvs) => {
                let mut sys_name = None;
                let mut sys_descr = None;
                for t in tlvs {
                    match t {
                        crate::tlv::InfoTlv::SysName(s) => sys_name = Some(s),
                        crate::tlv::InfoTlv::SysDescr(s) => sys_descr = Some(s),
                        _ => {}
                    }
                }
                let mut events = Vec::new();
                if self.initiated {
                    // Router restarted without termination: drop stale
                    // peer state, as their sessions died with it.
                    self.anomalies += 1;
                    self.peers_up.clear();
                    events.push(StationEvent::Anomaly("re-initiation without termination"));
                }
                self.initiated = true;
                events.push(StationEvent::RouterUp {
                    sys_name,
                    sys_descr,
                });
                events
            }
            BmpMessage::Termination(t) => {
                self.initiated = false;
                self.peers_up.clear();
                vec![StationEvent::RouterDown(t)]
            }
            BmpMessage::PeerUp { peer, .. } => {
                let mut events = Vec::new();
                if !self.initiated {
                    self.anomalies += 1;
                    events.push(StationEvent::Anomaly("peer-up before initiation"));
                }
                let key = (peer.peer_address, peer.peer_bgp_id);
                if self.peers_up.insert(key, peer.peer_asn).is_some() {
                    self.anomalies += 1;
                    events.push(StationEvent::Anomaly("duplicate peer-up"));
                }
                events.push(StationEvent::Record(self.state_change(
                    &peer,
                    SessionState::OpenConfirm,
                    SessionState::Established,
                )));
                self.records_bridged += 1;
                events
            }
            BmpMessage::PeerDown { peer, .. } => {
                let mut events = Vec::new();
                if self
                    .peers_up
                    .remove(&(peer.peer_address, peer.peer_bgp_id))
                    .is_none()
                {
                    self.anomalies += 1;
                    events.push(StationEvent::Anomaly("peer-down for a peer not up"));
                }
                events.push(StationEvent::Record(self.state_change(
                    &peer,
                    SessionState::Established,
                    SessionState::Idle,
                )));
                self.records_bridged += 1;
                events
            }
            BmpMessage::RouteMonitoring { peer, update } => {
                let mut events = Vec::new();
                if !self
                    .peers_up
                    .contains_key(&(peer.peer_address, peer.peer_bgp_id))
                {
                    self.anomalies += 1;
                    events.push(StationEvent::Anomaly("route monitoring for a peer not up"));
                }
                let rec = MrtRecord::bgp4mp(
                    peer.ts_sec,
                    Bgp4mp::Message {
                        peer_asn: peer.peer_asn,
                        local_asn: self.local_asn,
                        peer_ip: peer.peer_address,
                        local_ip: self.local_ip,
                        message: update,
                    },
                );
                self.records_bridged += 1;
                events.push(StationEvent::Record(rec));
                events
            }
            BmpMessage::StatisticsReport { peer, stats } => {
                vec![StationEvent::Stats {
                    peer_address: peer.peer_address,
                    peer_asn: peer.peer_asn,
                    stats,
                }]
            }
            BmpMessage::RouteMirroring { .. } => {
                // Mirroring duplicates route-monitoring content; we do
                // not interpret it (matches our exporter, which never
                // emits it).
                vec![]
            }
        }
    }

    fn state_change(
        &self,
        peer: &PerPeerHeader,
        old_state: SessionState,
        new_state: SessionState,
    ) -> MrtRecord {
        MrtRecord::bgp4mp(
            peer.ts_sec,
            Bgp4mp::StateChange {
                peer_asn: peer.peer_asn,
                local_asn: self.local_asn,
                peer_ip: peer.peer_address,
                local_ip: self.local_ip,
                old_state,
                new_state,
            },
        )
    }
}

/// Convenience: run a whole BMP byte stream through a station,
/// returning the bridged MRT records in stream order (other events are
/// dropped) and the first decode error, if any.
pub fn bridge_stream<R: std::io::Read>(
    reader: R,
    local_asn: Asn,
    local_ip: IpAddr,
) -> (Vec<MrtRecord>, Option<crate::reader::BmpError>) {
    let mut station = MonitoringStation::new(local_asn, local_ip);
    let mut records = Vec::new();
    let mut first_err = None;
    for r in crate::reader::BmpReader::new(reader) {
        match r {
            Ok(msg) => {
                for ev in station.ingest(msg) {
                    if let StationEvent::Record(rec) = ev {
                        records.push(rec);
                    }
                }
            }
            Err(e) => {
                first_err = Some(e);
                break;
            }
        }
    }
    (records, first_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterExporter;
    use crate::tlv::TerminationReason;
    use bgp_types::{AsPath, BgpMessage, BgpUpdate, PathAttributes, Prefix};
    use mrt::MrtBody;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn station() -> MonitoringStation {
        MonitoringStation::new(Asn(64512), "192.0.2.254".parse().unwrap())
    }

    fn full_session_wire() -> Vec<u8> {
        let peer_ip: IpAddr = "192.0.2.1".parse().unwrap();
        let mut ex = RouterExporter::new(
            Vec::new(),
            "edge1",
            "192.0.2.254".parse().unwrap(),
            Asn(64512),
        );
        ex.initiate("sim").unwrap();
        ex.peer_up(peer_ip, Asn(65001), 1, 100).unwrap();
        ex.route_monitoring(
            peer_ip,
            Asn(65001),
            1,
            101,
            BgpUpdate::announce(
                vec![p("203.0.113.0/24")],
                PathAttributes::route(
                    AsPath::from_sequence([65001, 137]),
                    "192.0.2.1".parse().unwrap(),
                ),
            ),
        )
        .unwrap();
        ex.peer_down(
            peer_ip,
            Asn(65001),
            1,
            200,
            crate::msg::PeerDownReason::RemoteNoData,
        )
        .unwrap();
        ex.terminate(TerminationReason::AdminClose).unwrap();
        ex.into_inner()
    }

    #[test]
    fn bridges_full_session_to_mrt() {
        let wire = full_session_wire();
        let (records, err) = bridge_stream(&wire[..], Asn(64512), "192.0.2.254".parse().unwrap());
        assert!(err.is_none());
        // peer-up state change + update + peer-down state change.
        assert_eq!(records.len(), 3);
        assert!(matches!(
            &records[0].body,
            MrtBody::Bgp4mp(Bgp4mp::StateChange {
                new_state: SessionState::Established,
                ..
            })
        ));
        assert!(matches!(
            &records[1].body,
            MrtBody::Bgp4mp(Bgp4mp::Message { .. })
        ));
        assert!(matches!(
            &records[2].body,
            MrtBody::Bgp4mp(Bgp4mp::StateChange {
                new_state: SessionState::Idle,
                ..
            })
        ));
        // Timestamps carried from the per-peer headers.
        assert_eq!(records[0].timestamp, 100);
        assert_eq!(records[1].timestamp, 101);
        assert_eq!(records[2].timestamp, 200);
    }

    #[test]
    fn anomalies_are_tolerated_and_counted() {
        let peer = PerPeerHeader::global("10.0.0.1".parse().unwrap(), Asn(1), 1, 0);
        let mut st = station();
        // Route monitoring before any initiation/peer-up: anomaly, but
        // the record is still bridged (data is too valuable to drop).
        let events = st.ingest(BmpMessage::RouteMonitoring {
            peer,
            update: BgpMessage::Update(BgpUpdate::withdraw(vec![p("10.0.0.0/8")])),
        });
        assert!(matches!(events[0], StationEvent::Anomaly(_)));
        assert!(matches!(events[1], StationEvent::Record(_)));
        assert_eq!(st.anomalies(), 1);
        assert_eq!(st.records_bridged(), 1);
    }

    #[test]
    fn reinitiation_clears_peer_state() {
        let peer = PerPeerHeader::global("10.0.0.1".parse().unwrap(), Asn(1), 1, 0);
        let mut st = station();
        st.ingest(BmpMessage::Initiation(vec![]));
        st.ingest(BmpMessage::PeerUp {
            peer,
            local_address: "10.0.0.254".parse().unwrap(),
            local_port: 179,
            remote_port: 33001,
            sent_open: BgpMessage::Open {
                asn: Asn(2),
                hold_time: 180,
                bgp_id: 2,
            },
            received_open: BgpMessage::Open {
                asn: Asn(1),
                hold_time: 180,
                bgp_id: 1,
            },
        });
        assert_eq!(st.peers_up(), 1);
        let events = st.ingest(BmpMessage::Initiation(vec![]));
        assert!(matches!(events[0], StationEvent::Anomaly(_)));
        assert_eq!(st.peers_up(), 0);
    }

    #[test]
    fn stats_surface_raw() {
        let peer = PerPeerHeader::global("10.0.0.1".parse().unwrap(), Asn(1), 1, 0);
        let mut st = station();
        let events = st.ingest(BmpMessage::StatisticsReport {
            peer,
            stats: vec![StatTlv::LocRibRoutes(42)],
        });
        assert_eq!(
            events,
            vec![StationEvent::Stats {
                peer_address: "10.0.0.1".parse().unwrap(),
                peer_asn: Asn(1),
                stats: vec![StatTlv::LocRibRoutes(42)],
            }]
        );
    }
}
