//! Merge-order property tests (§3.3.4): for any generated set of dump
//! files — including unopenable and corrupted ones — the sorted stream
//! delivers records with non-decreasing timestamps within each overlap
//! group, and flattened elem iteration annotates every elem with its
//! owning record's interned source identity.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, PathAttributes};
use bgpstream::sort::{partition_overlap_groups, GroupMerger};
use bgpstream::{BgpStream, Filters};
use broker::{DumpMeta, DumpType, Index, LocalBroker};
use mrt::{Bgp4mp, MrtRecord, MrtWriter};
use proptest::prelude::*;

fn scratch(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bgpstream-mergeorder-{tag}-{}-{case}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn keepalive(ts: u32) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Keepalive,
        },
    )
}

fn announce(ts: u32) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Update(BgpUpdate {
                withdrawals: vec![],
                attrs: Some(PathAttributes::route(
                    AsPath::from_sequence([65001, 3356, 137]),
                    "192.0.2.1".parse().unwrap(),
                )),
                announcements: vec!["203.0.113.0/24".parse().unwrap()],
            }),
        },
    )
}

/// How one generated dump file misbehaves.
#[derive(Clone, Copy, Debug, PartialEq)]
enum DumpKind {
    /// Well-formed MRT from start to finish.
    Ok,
    /// Registered in the index but never written to disk.
    Unopenable,
    /// Well-formed records followed by a truncated garbage tail.
    CorruptedTail,
    /// Garbage from the first byte.
    Garbage,
}

/// One generated dump: collector, kind, interval, in-file timestamps.
#[derive(Clone, Debug)]
struct GenDump {
    collector: usize,
    kind: DumpKind,
    start: u64,
    duration: u64,
    /// Sorted offsets (< duration) for the records in the file.
    offsets: Vec<u64>,
}

fn arb_dump() -> impl Strategy<Value = GenDump> {
    (
        0usize..3,
        0u8..4,
        0u64..6,
        1u64..4,
        proptest::collection::vec(0u64..300, 0..12),
    )
        .prop_map(|(collector, kind, start_slot, dur_slots, mut offsets)| {
            let duration = dur_slots * 300;
            offsets.retain(|o| *o < duration);
            offsets.sort_unstable();
            GenDump {
                collector,
                kind: match kind {
                    0 | 1 => DumpKind::Ok, // bias toward readable files
                    2 => DumpKind::CorruptedTail,
                    3 => DumpKind::Garbage,
                    _ => DumpKind::Unopenable,
                },
                start: start_slot * 300,
                duration,
                offsets,
            }
        })
}

fn arb_dumps() -> impl Strategy<Value = Vec<GenDump>> {
    proptest::collection::vec(arb_dump(), 1..7).prop_map(|mut dumps| {
        // Make one of them unopenable now and then (deterministically
        // from the generated data, to keep the strategy simple).
        if dumps.len() >= 3 {
            dumps[1].kind = DumpKind::Unopenable;
        }
        dumps
    })
}

/// Write the generated dumps to disk and register their meta-data.
fn materialize(dumps: &[GenDump], dir: &Path) -> Vec<DumpMeta> {
    let mut metas = Vec::new();
    for (i, d) in dumps.iter().enumerate() {
        let path = dir.join(format!("c{}-{}-{}.mrt", d.collector, d.start, i));
        match d.kind {
            DumpKind::Unopenable => {}
            DumpKind::Garbage => {
                std::fs::write(&path, [0xFFu8; 7]).unwrap();
            }
            DumpKind::Ok | DumpKind::CorruptedTail => {
                let mut buf = Vec::new();
                {
                    let mut w = MrtWriter::new(&mut buf);
                    for off in &d.offsets {
                        let ts = (d.start + off) as u32;
                        // Mix elem-bearing announcements with
                        // elem-free keepalives.
                        let rec = if off % 2 == 0 {
                            announce(ts)
                        } else {
                            keepalive(ts)
                        };
                        w.write(&rec).unwrap();
                    }
                }
                if d.kind == DumpKind::CorruptedTail {
                    buf.extend_from_slice(&[0xEEu8; 9]);
                }
                std::fs::write(&path, &buf).unwrap();
            }
        }
        metas.push(DumpMeta {
            project: "ris".into(),
            collector: format!("rrc0{}", d.collector),
            dump_type: DumpType::Updates,
            interval_start: d.start,
            duration: d.duration,
            path,
            available_at: 0,
            size: 0,
        });
    }
    metas
}

fn assert_non_decreasing(ts: &[u64]) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "timestamps went backwards: {ts:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn group_merge_is_time_sorted_despite_corruption(dumps in arb_dumps(), case in 0u64..u64::MAX) {
        let dir = scratch("prop", case);
        let metas = materialize(&dumps, &dir);
        let expected_records: usize = dumps
            .iter()
            .map(|d| match d.kind {
                DumpKind::Ok => d.offsets.len(),
                DumpKind::CorruptedTail => d.offsets.len() + 1,
                DumpKind::Unopenable | DumpKind::Garbage => 1,
            })
            .sum();

        // Per overlap group: the multi-way merge must deliver
        // non-decreasing timestamps, corrupted dumps included.
        let groups = partition_overlap_groups(&metas);
        let filters = Arc::new(Filters::none().compile());
        let mut total = 0usize;
        for group in groups {
            let mut ts = Vec::new();
            for rec in GroupMerger::open(group, filters.clone()) {
                ts.push(rec.timestamp);
                total += 1;
            }
            assert_non_decreasing(&ts)?;
        }
        prop_assert_eq!(total, expected_records, "every dump must be accounted for");

        // Full stream (broker windows + groups): with record
        // timestamps confined to their dump's interval and groups
        // disjoint in time, the whole stream is non-decreasing too.
        let idx = Index::shared();
        for m in &metas {
            idx.register(m.clone());
        }
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx))
            .interval(0, Some(10_000))
            .start();
        let mut ts = Vec::new();
        while let Some(rec) = stream.next_record() {
            ts.push(rec.timestamp);
        }
        prop_assert_eq!(ts.len(), expected_records);
        assert_non_decreasing(&ts)?;

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn next_elem_annotations_match_owning_record(dumps in arb_dumps(), case in 0u64..u64::MAX) {
        let dir = scratch("elems", case);
        let metas = materialize(&dumps, &dir);
        let idx = Index::shared();
        for m in &metas {
            idx.register(m.clone());
        }
        let build = |idx: &std::sync::Arc<Index>| {
            BgpStream::builder()
                .broker_client(LocalBroker::shared(idx.clone()))
                .interval(0, Some(10_000))
                .start()
        };
        // Record-level pass: expected (source, dump_time) per elem.
        let mut expected = Vec::new();
        let mut s1 = build(&idx);
        while let Some(rec) = s1.next_record() {
            for _ in rec.elems() {
                expected.push((rec.source, rec.dump_time));
            }
        }
        // Flattened pass must agree exactly.
        let mut s2 = build(&idx);
        let mut got = Vec::new();
        while let Some((_, src)) = s2.next_elem() {
            got.push((src.source, src.dump_time));
        }
        prop_assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}
