//! Golden bytes for every corsaro state codec: plugin checkpoints,
//! shard partials and queue messages.
//!
//! The other codec tests are round trips, so a change made
//! symmetrically to an encoder and its decoder passes them all. These
//! pin the exact encoding of hand-built values (length plus FNV-1a
//! digest), so any change to a wire format shows up here. Every
//! fixture that has a fallible decoder is also cut at every strict
//! prefix: each cut must be refused with an error, never a panic, and
//! the whole input must decode back to the original value.

use std::net::IpAddr;

use bgp_types::{AsPath, Asn, Prefix};
use bgpstream::record::{DumpPosition, RecordStatus};
use bgpstream::{BgpStreamElem, BgpStreamRecord, ElemType};
use broker::DumpType;
use corsaro::codec::{decode_meta, encode_meta, DiffCell, RtMessage};
use corsaro::runtime::ShardedPlugin;
use corsaro::{ElemCounter, PfxMonitor, Plugin, RtPlugin};
use mq::Cluster;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assert the encoding of `name` is exactly `(len, digest)`.
fn pin(name: &str, bytes: &[u8], want: (usize, u64)) {
    let got = (bytes.len(), fnv1a(bytes));
    assert_eq!(
        got, want,
        "{name}: encoding changed, now ({}, {:#018x})",
        got.0, got.1
    );
}

/// Every strict prefix of `bytes` is refused by `accepts`.
fn every_cut_refused(name: &str, bytes: &[u8], accepts: impl Fn(&[u8]) -> bool) {
    for cut in 0..bytes.len() {
        assert!(
            !accepts(&bytes[..cut]),
            "{name}: {cut}-byte prefix of {} accepted",
            bytes.len()
        );
    }
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

fn elem(ty: ElemType, ts: u64, vp: &str, asn: u32, prefix: &str, path: &[u32]) -> BgpStreamElem {
    BgpStreamElem {
        elem_type: ty,
        time: ts,
        peer_address: ip(vp),
        peer_asn: Asn(asn),
        prefix: Some(p(prefix)),
        next_hop: None,
        as_path: (!path.is_empty()).then(|| AsPath::from_sequence(path.iter().copied())),
        communities: None,
        old_state: None,
        new_state: None,
    }
}

fn rec(
    collector: &str,
    dump_type: DumpType,
    ts: u64,
    position: DumpPosition,
    status: RecordStatus,
    elems: Vec<BgpStreamElem>,
) -> BgpStreamRecord {
    BgpStreamRecord::new("ris", collector, dump_type, 0, ts, position, status, elems)
}

fn rib(ts: u64, position: DumpPosition, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
    rec(
        "rrc00",
        DumpType::Rib,
        ts,
        position,
        RecordStatus::Valid,
        elems,
    )
}

fn updates(ts: u64, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
    rec(
        "rrc00",
        DumpType::Updates,
        ts,
        DumpPosition::Middle,
        RecordStatus::Valid,
        elems,
    )
}

/// Drive a shard instance that owns every elem (`fork(0, 1)`), the
/// way the runtime's worker loop does.
fn feed(plugin: &mut dyn ShardedPlugin, record: &BgpStreamRecord) {
    let mask = vec![true; record.elems().len()];
    plugin.process_sharded(record, &mask);
}

const VP4: &str = "10.0.0.1";
const VP6: &str = "2001:db8::1";

/// An `RtPlugin` shard that closed one bin (RIB dump plus updates,
/// full-table cadence 1) and then opened a second RIB dump whose
/// shadow cells are still pending. Returns the closed bin's partial.
fn rt_shard() -> (Box<dyn ShardedPlugin>, Vec<u8>) {
    let root = RtPlugin::new("rrc00").with_queue(Cluster::shared(), 1);
    let mut shard = root.fork(0, 1);
    let s = &mut *shard;
    feed(s, &rib(100, DumpPosition::Start, vec![]));
    feed(
        s,
        &rib(
            100,
            DumpPosition::Middle,
            vec![
                elem(
                    ElemType::RibEntry,
                    100,
                    VP4,
                    65001,
                    "11.0.0.0/16",
                    &[65001, 3356, 137],
                ),
                elem(
                    ElemType::RibEntry,
                    100,
                    VP6,
                    65002,
                    "2001:db8:100::/40",
                    &[65002, 9],
                ),
            ],
        ),
    );
    feed(s, &rib(101, DumpPosition::End, vec![]));
    feed(
        s,
        &updates(
            120,
            vec![
                elem(
                    ElemType::Announcement,
                    120,
                    VP4,
                    65001,
                    "11.1.0.0/16",
                    &[65001, 42],
                ),
                elem(
                    ElemType::Withdrawal,
                    121,
                    VP6,
                    65002,
                    "2001:db8:100::/40",
                    &[],
                ),
            ],
        ),
    );
    s.end_bin(0, 300);
    let partial = s.take_partial();
    feed(s, &rib(400, DumpPosition::Start, vec![]));
    feed(
        s,
        &rib(
            400,
            DumpPosition::Middle,
            vec![elem(
                ElemType::RibEntry,
                400,
                VP4,
                65001,
                "11.0.0.0/16",
                &[65001, 174, 137],
            )],
        ),
    );
    feed(
        s,
        &updates(
            410,
            vec![elem(
                ElemType::Announcement,
                410,
                VP4,
                65001,
                "11.2.0.0/16",
                &[65001, 7],
            )],
        ),
    );
    (shard, partial)
}

#[test]
fn rt_shard_checkpoint_with_open_shadow_rib() {
    let (shard, _) = rt_shard();
    let ckpt = shard.checkpoint();
    pin("rt shard checkpoint", &ckpt, (339, 0xb020_fc66_1ad6_52df));
    let fresh = || {
        RtPlugin::new("rrc00")
            .with_queue(Cluster::shared(), 1)
            .fork(0, 1)
    };
    every_cut_refused("rt shard checkpoint", &ckpt, |b| fresh().restore(b).is_ok());
    let mut back = fresh();
    back.restore(&ckpt).expect("whole checkpoint restores");
    assert_eq!(back.checkpoint(), ckpt);
}

#[test]
fn rt_shard_partial_and_merged_root() {
    let (_, partial) = rt_shard();
    pin("rt shard partial", &partial, (169, 0x7b90_aea3_f6b3_d41e));
    // The root folds the partial into its series and publishes; its
    // checkpoint carries the bin series the shard does not keep.
    let mq = Cluster::shared();
    let mut root = RtPlugin::new("rrc00").with_queue(mq.clone(), 1);
    root.merge_bin(0, 300, vec![partial]);
    let ckpt = root.checkpoint();
    pin("rt root checkpoint", &ckpt, (104, 0x7e04_2fa5_35fd_ce23));
    every_cut_refused("rt root checkpoint", &ckpt, |b| {
        RtPlugin::new("rrc00").restore(b).is_ok()
    });
    let mut back = RtPlugin::new("rrc00");
    back.restore(&ckpt).expect("whole checkpoint restores");
    assert_eq!(back.checkpoint(), ckpt);
    assert_eq!(back.bin_series, root.bin_series);
}

fn pfx_ranges() -> [Prefix; 2] {
    [p("11.0.0.0/8"), p("2001:db8::/32")]
}

fn ann(ts: u64, prefix: &str, vp: &str, origin: u32) -> BgpStreamElem {
    elem(
        ElemType::Announcement,
        ts,
        vp,
        65001,
        prefix,
        &[65001, origin],
    )
}

/// A `PfxMonitor` shard that closed one bin and is mid-way through
/// the next (two origin-presence transitions in its delta). Returns
/// the closed bin's partial.
fn pfx_shard() -> (Box<dyn ShardedPlugin>, Vec<u8>) {
    let mut shard = PfxMonitor::new(pfx_ranges()).fork(0, 1);
    let s = &mut *shard;
    feed(
        s,
        &updates(
            10,
            vec![
                ann(10, "11.0.0.0/16", VP4, 137),
                ann(10, "11.1.0.0/16", "10.0.0.2", 666),
                ann(10, "2001:db8:100::/40", VP6, 9),
                ann(10, "10.0.0.0/8", VP4, 1),
            ],
        ),
    );
    s.end_bin(0, 300);
    let partial = s.take_partial();
    let mut wd = ann(310, "11.1.0.0/16", "10.0.0.2", 0);
    wd.elem_type = ElemType::Withdrawal;
    wd.as_path = None;
    feed(
        s,
        &updates(310, vec![wd, ann(311, "11.2.0.0/16", VP4, 174)]),
    );
    (shard, partial)
}

#[test]
fn pfxmonitor_fork_checkpoint_mid_bin() {
    let (shard, _) = pfx_shard();
    let ckpt = shard.checkpoint();
    pin(
        "pfxmonitor fork checkpoint",
        &ckpt,
        (247, 0x1ee6_88be_4170_e710),
    );
    let fresh = || PfxMonitor::new(pfx_ranges()).fork(0, 1);
    every_cut_refused("pfxmonitor fork checkpoint", &ckpt, |b| {
        fresh().restore(b).is_ok()
    });
    let mut back = fresh();
    back.restore(&ckpt).expect("whole checkpoint restores");
    assert_eq!(back.checkpoint(), ckpt);
}

#[test]
fn pfxmonitor_partial_and_merged_root() {
    let (_, partial) = pfx_shard();
    pin("pfxmonitor partial", &partial, (23, 0xbb71_ce04_72e9_da5b));
    let mut root = PfxMonitor::new(pfx_ranges());
    root.merge_bin(0, 300, vec![partial]);
    let ckpt = root.checkpoint();
    pin(
        "pfxmonitor root checkpoint",
        &ckpt,
        (74, 0xb269_0c59_8cd3_3c63),
    );
    every_cut_refused("pfxmonitor root checkpoint", &ckpt, |b| {
        PfxMonitor::new(pfx_ranges()).restore(b).is_ok()
    });
    let mut back = PfxMonitor::new(pfx_ranges());
    back.restore(&ckpt).expect("whole checkpoint restores");
    assert_eq!(back.checkpoint(), ckpt);
    assert_eq!(back.series, root.series);
}

fn counted(collector: &str, status: RecordStatus, types: &[ElemType]) -> BgpStreamRecord {
    let elems = types
        .iter()
        .map(|&ty| elem(ty, 5, VP4, 65001, "11.0.0.0/16", &[65001, 1]))
        .collect();
    rec(
        collector,
        DumpType::Updates,
        5,
        DumpPosition::Middle,
        status,
        elems,
    )
}

#[test]
fn elem_counter_checkpoint() {
    let mut c = ElemCounter::new();
    c.process_record(&counted(
        "rrc00",
        RecordStatus::Valid,
        &[ElemType::Announcement, ElemType::Withdrawal],
    ));
    c.process_record(&counted("rv2", RecordStatus::Valid, &[ElemType::RibEntry]));
    c.end_bin(0, 60);
    c.process_record(&counted(
        "rrc00",
        RecordStatus::CorruptedRecord,
        &[ElemType::PeerState],
    ));
    let ckpt = c.checkpoint();
    pin(
        "elem counter checkpoint",
        &ckpt,
        (184, 0x915e_a03f_d7bd_2713),
    );
    every_cut_refused("elem counter checkpoint", &ckpt, |b| {
        ElemCounter::new().restore(b).is_ok()
    });
    let mut back = ElemCounter::new();
    back.restore(&ckpt).expect("whole checkpoint restores");
    assert_eq!(back.checkpoint(), ckpt);
    assert_eq!(back.series, c.series);
}

#[test]
fn elem_counter_partial() {
    let mut shard = ElemCounter::new().fork(0, 1);
    shard.process_record(&counted(
        "rrc00",
        RecordStatus::Valid,
        &[ElemType::Announcement, ElemType::Announcement],
    ));
    shard.process_record(&counted("rrc01", RecordStatus::CorruptedRecord, &[]));
    shard.end_bin(60, 120);
    let partial = shard.take_partial();
    pin(
        "elem counter partial",
        &partial,
        (122, 0x66b4_3bc9_70ce_1b07),
    );
    let mut root = ElemCounter::new();
    root.merge_bin(60, 120, vec![partial]);
    assert_eq!(root.series[0].time, 60);
    assert_eq!(root.series[0].per_collector["rrc00"].announcements, 2);
    assert_eq!(root.series[0].per_collector["rrc01"].invalid_records, 1);
}

fn cells() -> Vec<DiffCell> {
    vec![
        DiffCell {
            vp: Asn(65001),
            prefix: p("193.204.0.0/15"),
            path: Some(AsPath::from_sequence([65001, 3356, 137])),
        },
        DiffCell {
            vp: Asn(65002),
            prefix: p("2001:db8::/32"),
            path: None,
        },
    ]
}

#[test]
fn rt_message_diff_and_full() {
    let diff = RtMessage::Diff {
        collector: "rrc00".into(),
        bin: 300,
        cells: cells(),
    };
    let full = RtMessage::Full {
        collector: "route-views2".into(),
        bin: 600,
        cells: vec![cells()[0].clone()],
    };
    for (name, msg, want) in [
        ("rt diff message", &diff, (80, 0x36b9_78ad_94d0_c3f5)),
        ("rt full message", &full, (63, 0x8a25_fbc7_61ae_445f)),
    ] {
        let bytes = msg.encode();
        pin(name, &bytes, want);
        every_cut_refused(name, &bytes, |b| RtMessage::decode(b).is_ok());
        assert_eq!(&RtMessage::decode(&bytes).expect("whole message"), msg);
    }
}

#[test]
fn rt_meta_marker() {
    let meta = encode_meta("rrc12", 900);
    assert_eq!(
        meta,
        [0, 0, 0, 0, 0, 0, 3, 0x84, b'r', b'r', b'c', b'1', b'2']
    );
    // The collector name runs to the end of the payload, so only cuts
    // inside the bin field are detectable.
    every_cut_refused("rt meta marker", &meta[..8], |b| decode_meta(b).is_ok());
    assert_eq!(
        decode_meta(&meta).expect("whole marker"),
        ("rrc12".to_string(), 900)
    );
}
