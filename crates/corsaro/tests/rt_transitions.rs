//! Every Figure 8 transition the RT plugin makes, pinned record by
//! record.
//!
//! One collector, two VPs, one scripted record sequence: first
//! sightings (through an Updates elem and mid-RIB), a clean RIB, E1 on
//! the next one, E3 outside and inside a RIB, E4 down and up outside
//! and inside a RIB, and a VP absent from a clean RIB (footnote 5).
//! After every record the test checks each VP's macro state and table
//! size, and pins the plugin's whole checkpoint (length plus FNV-1a
//! digest), so a change to any transition, cell action or quirk shows
//! up at the record that exposes it.

use std::net::IpAddr;

use bgp_types::{AsPath, Asn, Prefix, SessionState};
use bgpstream::record::{DumpPosition, RecordStatus};
use bgpstream::{BgpStreamElem, BgpStreamRecord, ElemType};
use broker::DumpType;
use corsaro::rt::MacroState::{self, Down, DownRibApplication, Up, UpRibApplication};
use corsaro::{Plugin, RtPlugin};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const VPS: [(&str, u32); 2] = [("10.0.0.1", 65001), ("10.0.0.2", 65002)];
const A: usize = 0;
const B: usize = 1;

fn ip(vp: usize) -> IpAddr {
    VPS[vp].0.parse().unwrap()
}

fn elem(ty: ElemType, ts: u64, vp: usize, prefix: &str, path: &[u32]) -> BgpStreamElem {
    BgpStreamElem {
        elem_type: ty,
        time: ts,
        peer_address: ip(vp),
        peer_asn: Asn(VPS[vp].1),
        prefix: Some(prefix.parse::<Prefix>().unwrap()),
        next_hop: None,
        as_path: (!path.is_empty()).then(|| AsPath::from_sequence(path.iter().copied())),
        communities: None,
        old_state: None,
        new_state: None,
    }
}

fn row(ts: u64, vp: usize, prefix: &str) -> BgpStreamElem {
    elem(ElemType::RibEntry, ts, vp, prefix, &[VPS[vp].1, 137])
}

fn announce(ts: u64, vp: usize, prefix: &str, origin: u32) -> BgpStreamElem {
    elem(ElemType::Announcement, ts, vp, prefix, &[VPS[vp].1, origin])
}

fn withdraw(ts: u64, vp: usize, prefix: &str) -> BgpStreamElem {
    elem(ElemType::Withdrawal, ts, vp, prefix, &[])
}

fn session(ts: u64, vp: usize, new_state: SessionState) -> BgpStreamElem {
    BgpStreamElem {
        prefix: None,
        old_state: Some(SessionState::Established),
        new_state: Some(new_state),
        ..elem(ElemType::PeerState, ts, vp, "0.0.0.0/0", &[])
    }
}

fn rec(
    dump_type: DumpType,
    ts: u64,
    position: DumpPosition,
    status: RecordStatus,
    elems: Vec<BgpStreamElem>,
) -> BgpStreamRecord {
    BgpStreamRecord::new("ris", "rrc00", dump_type, 0, ts, position, status, elems)
}

fn rib(ts: u64, position: DumpPosition, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
    rec(DumpType::Rib, ts, position, RecordStatus::Valid, elems)
}

fn updates(ts: u64, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
    rec(
        DumpType::Updates,
        ts,
        DumpPosition::Middle,
        RecordStatus::Valid,
        elems,
    )
}

fn corrupted(dump_type: DumpType, ts: u64) -> BgpStreamRecord {
    rec(
        dump_type,
        ts,
        DumpPosition::Middle,
        RecordStatus::CorruptedRecord,
        vec![],
    )
}

/// One scripted record and what the plugin must look like after it:
/// each VP's state and announced-cell count, and the checkpoint's
/// `(length, FNV-1a)`.
struct Step {
    what: &'static str,
    record: BgpStreamRecord,
    vps: [(Option<MacroState>, usize); 2],
    checkpoint: (usize, u64),
}

fn step(
    what: &'static str,
    record: BgpStreamRecord,
    vps: [(Option<MacroState>, usize); 2],
    checkpoint: (usize, u64),
) -> Step {
    Step {
        what,
        record,
        vps,
        checkpoint,
    }
}

fn script() -> Vec<Step> {
    use DumpPosition::{End, Middle, Start};
    use SessionState::{Established, Idle};
    vec![
        step(
            "A first seen through an Updates elem starts Down",
            updates(10, vec![announce(10, A, "11.0.0.0/16", 1)]),
            [(Some(Down), 1), (None, 0)],
            (182, 0x485b_637e_4ab3_a403),
        ),
        step(
            "RIB 1 begins: A applies it from Down",
            rib(
                100,
                Start,
                vec![row(100, A, "11.0.0.0/16"), row(100, A, "11.1.0.0/16")],
            ),
            [(Some(DownRibApplication), 1), (None, 0)],
            (247, 0x0db0_0426_c146_904e),
        ),
        step(
            "B first seen mid-RIB joins the application",
            rib(
                100,
                Middle,
                vec![row(100, B, "11.0.0.0/16"), row(100, B, "11.2.0.0/16")],
            ),
            [(Some(DownRibApplication), 1), (Some(DownRibApplication), 0)],
            (369, 0x4786_b788_8eed_b95d),
        ),
        step(
            "RIB 1 ends clean: both merge their shadows and come up",
            rib(101, End, vec![row(101, A, "11.2.0.0/16")]),
            [(Some(Up), 3), (Some(Up), 2)],
            (506, 0x08d4_e97d_5200_3da1),
        ),
        step(
            "updates evolve both tables",
            updates(
                200,
                vec![
                    withdraw(200, A, "11.1.0.0/16"),
                    announce(200, B, "11.3.0.0/16", 9),
                ],
            ),
            [(Some(Up), 2), (Some(Up), 3)],
            (572, 0x7fa5_4a90_1dbf_e69d),
        ),
        step(
            "E4 down outside a RIB clears A's table",
            updates(300, vec![session(300, A, Idle)]),
            [(Some(Down), 0), (Some(Up), 3)],
            (556, 0xb6f7_d4be_81b5_e48c),
        ),
        step(
            "E4 up outside a RIB",
            updates(400, vec![session(400, A, Established)]),
            [(Some(Up), 0), (Some(Up), 3)],
            (556, 0xcc72_3751_1b94_568a),
        ),
        step(
            "A relearns a route",
            updates(500, vec![announce(500, A, "11.0.0.0/16", 7)]),
            [(Some(Up), 1), (Some(Up), 3)],
            (564, 0xc273_75bf_5f1c_7e90),
        ),
        step(
            "RIB 2 begins: both apply it from Up",
            rib(1000, Start, vec![row(1000, A, "11.0.0.0/16")]),
            [(Some(UpRibApplication), 1), (Some(UpRibApplication), 3)],
            (582, 0xab41_5a02_1f65_6010),
        ),
        step(
            "a corrupted record inside RIB 2 (E1)",
            corrupted(DumpType::Rib, 1000),
            [(Some(UpRibApplication), 1), (Some(UpRibApplication), 3)],
            (582, 0x48e9_639c_f416_26bb),
        ),
        step(
            "RIB 2 ends: E1 discards the dump, both stay Up",
            rib(1001, End, vec![row(1001, B, "11.0.0.0/16")]),
            [(Some(Up), 1), (Some(Up), 3)],
            (564, 0x70e2_8a95_41c8_e5fe),
        ),
        step(
            "E3 outside a RIB: every VP Down, tables kept",
            corrupted(DumpType::Updates, 1100),
            [(Some(Down), 1), (Some(Down), 3)],
            (564, 0xdf68_f063_f5e6_e7d7),
        ),
        step(
            "poisoned updates are counted, not applied",
            updates(1200, vec![announce(1200, A, "11.3.0.0/16", 5)]),
            [(Some(Down), 1), (Some(Down), 3)],
            (564, 0x84da_3366_26c5_8900),
        ),
        step(
            "RIB 3 begins: both apply it from Down",
            rib(2000, Start, vec![row(2000, A, "11.0.0.0/16")]),
            [(Some(DownRibApplication), 1), (Some(DownRibApplication), 3)],
            (582, 0x0350_f477_6da9_4f90),
        ),
        step(
            "E4 down mid-RIB clears B's table",
            updates(2000, vec![session(2000, B, Idle)]),
            [(Some(DownRibApplication), 1), (Some(DownRibApplication), 0)],
            (558, 0xd48a_157f_a5c8_aa17),
        ),
        step(
            "E4 up mid-RIB: B stays in the application",
            updates(2000, vec![session(2000, B, Established)]),
            [(Some(DownRibApplication), 1), (Some(UpRibApplication), 0)],
            (558, 0x1492_90a1_c697_496d),
        ),
        step(
            "RIB 3 ends clean: A merges, B is absent (footnote 5) and goes Down",
            rib(2001, End, vec![row(2001, A, "11.2.0.0/16")]),
            [(Some(Up), 2), (Some(Down), 0)],
            (548, 0x5b15_89ec_f51d_c39a),
        ),
        step(
            "the clean RIB ended E3: updates apply again",
            updates(2100, vec![announce(2100, B, "11.1.0.0/16", 4)]),
            [(Some(Up), 2), (Some(Down), 1)],
            (622, 0x4df0_9edd_9eaa_9e8f),
        ),
        step(
            "RIB 4 begins",
            rib(3000, Start, vec![row(3000, A, "11.0.0.0/16")]),
            [(Some(UpRibApplication), 2), (Some(DownRibApplication), 1)],
            (640, 0x1d2b_51f4_b986_55be),
        ),
        step(
            "E3 mid-RIB sets Down, not DownRibApplication",
            corrupted(DumpType::Updates, 3000),
            [(Some(Down), 2), (Some(Down), 1)],
            (640, 0xd3c3_0322_60ac_4e0b),
        ),
        step(
            "E4 up mid-RIB after E3 rejoins the application",
            updates(3000, vec![session(3000, A, Established)]),
            [(Some(UpRibApplication), 2), (Some(Down), 1)],
            (640, 0x1b1b_612c_d507_d566),
        ),
        step(
            "RIB rows after E3 still fill shadows",
            rib(3000, Middle, vec![row(3000, B, "11.1.0.0/16")]),
            [(Some(UpRibApplication), 2), (Some(Down), 1)],
            (658, 0xac5d_078c_c1b9_ea33),
        ),
        step(
            "RIB 4 ends clean: both merge and come up",
            rib(3001, End, vec![row(3001, A, "11.3.0.0/16")]),
            [(Some(Up), 2), (Some(Up), 1)],
            (688, 0x87de_9a8b_5464_7435),
        ),
        step(
            "updates apply after the E3 recovery",
            updates(3100, vec![announce(3100, A, "11.1.0.0/16", 6)]),
            [(Some(Up), 3), (Some(Up), 1)],
            (696, 0x55b8_4a08_4de0_cfd2),
        ),
    ]
}

#[test]
fn every_transition_is_pinned_record_by_record() {
    let mut rt = RtPlugin::new("rrc00");
    for (i, s) in script().into_iter().enumerate() {
        rt.process_record(&s.record);
        let got = [A, B].map(|vp| (rt.vp_state(ip(vp)), rt.vp_table_size(ip(vp))));
        assert_eq!(got, s.vps, "record {i}: {}", s.what);
        let ckpt = rt.checkpoint();
        let digest = (ckpt.len(), fnv1a(&ckpt));
        assert_eq!(
            digest, s.checkpoint,
            "record {i}: {}: checkpoint changed, now ({}, {:#018x})",
            s.what, digest.0, digest.1
        );
    }
}
