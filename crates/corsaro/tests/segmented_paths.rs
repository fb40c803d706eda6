//! Paths with `AS_SET` segments survive the RT plugin's checkpoint and
//! its queue messages.
//!
//! Both are written with the `bgp_types::codec` route form. A form
//! that flattens segments turns `65001 {7,8}` into the sequence
//! `65001 7 8`: a different path with a definite origin, so a restored
//! plugin sees a change where there was none.

use bgp_types::{AsPath, AsPathSegment, Asn, Prefix};
use bgpstream::record::{DumpPosition, RecordStatus};
use bgpstream::{BgpStreamElem, BgpStreamRecord, ElemType};
use broker::DumpType;
use corsaro::codec::{DiffCell, RtMessage};
use corsaro::{Plugin, RtPlugin};

fn set_path() -> AsPath {
    AsPath::from_segments(vec![
        AsPathSegment::Sequence(vec![Asn(65001)]),
        AsPathSegment::Set(vec![Asn(7), Asn(8)]),
    ])
}

fn announce(ts: u64) -> BgpStreamRecord {
    let elem = BgpStreamElem {
        elem_type: ElemType::Announcement,
        time: ts,
        peer_address: "10.0.0.1".parse().unwrap(),
        peer_asn: Asn(65001),
        prefix: Some("11.0.0.0/16".parse().unwrap()),
        next_hop: None,
        as_path: Some(set_path()),
        communities: None,
        old_state: None,
        new_state: None,
    };
    BgpStreamRecord::new(
        "ris",
        "rrc00",
        DumpType::Updates,
        0,
        ts,
        DumpPosition::Middle,
        RecordStatus::Valid,
        vec![elem],
    )
}

#[test]
fn rt_checkpoint_keeps_as_set_segments() {
    let mut plugin = RtPlugin::new("rrc00");
    plugin.process_record(&announce(10));
    plugin.end_bin(0, 60);
    let mut restored = RtPlugin::new("rrc00");
    restored.restore(&plugin.checkpoint()).unwrap();
    assert_eq!(restored.checkpoint(), plugin.checkpoint());
    // The same route announced again changes no cell, in the plugin
    // that never stopped and in the restored one alike.
    for p in [&mut plugin, &mut restored] {
        p.process_record(&announce(70));
        p.end_bin(60, 120);
    }
    assert_eq!(plugin.bin_series[1].diff_cells, 0);
    assert_eq!(restored.bin_series, plugin.bin_series);
}

#[test]
fn rt_message_keeps_as_set_segments() {
    let prefix: Prefix = "11.0.0.0/16".parse().unwrap();
    let msg = RtMessage::Diff {
        collector: "rrc00".into(),
        bin: 300,
        cells: vec![DiffCell {
            vp: Asn(65001),
            prefix,
            path: Some(set_path()),
        }],
    };
    let back = RtMessage::decode(&msg.encode()).unwrap();
    assert_eq!(back, msg);
    assert_eq!(back.cells()[0].path.as_ref().unwrap().origin(), None);
    // Every strict prefix of the tagged form is refused.
    let bytes = msg.encode();
    for cut in 0..bytes.len() {
        assert!(RtMessage::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}
