//! A stateful per-bin aggregator (§6.1's second plugin class; the
//! stateless taggers live in [`crate::tag`]): counts records and elems
//! per bin, per collector and per class. Operators use these series to
//! watch feed health — e.g. a collector going quiet, or a burst of
//! withdrawals.

use std::collections::BTreeMap;

use bgp_types::codec::{narrow, Reader};
use bgp_types::CodecError;
use bgpstream::{BgpStreamRecord, ElemType};
use bytes::{BufMut, BytesMut};

use crate::pipeline::Plugin;
use crate::runtime::ShardedPlugin;

/// Per-bin, per-collector counters.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BinCounters {
    /// Records seen (all statuses).
    pub records: u64,
    /// Records with a non-valid status.
    pub invalid_records: u64,
    /// Announcement elems.
    pub announcements: u64,
    /// Withdrawal elems.
    pub withdrawals: u64,
    /// RIB-entry elems.
    pub rib_entries: u64,
    /// State-message elems.
    pub state_messages: u64,
}

/// One output point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatsPoint {
    /// Bin start time.
    pub time: u64,
    /// Counters per collector.
    pub per_collector: BTreeMap<String, BinCounters>,
}

/// The elem/record statistics plugin.
#[derive(Default)]
pub struct ElemCounter {
    current: BTreeMap<String, BinCounters>,
    /// The completed bins.
    pub series: Vec<StatsPoint>,
}

impl ElemCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total elems across the whole run.
    pub fn total_elems(&self) -> u64 {
        self.series
            .iter()
            .flat_map(|p| p.per_collector.values())
            .map(|c| c.announcements + c.withdrawals + c.rib_entries + c.state_messages)
            .sum()
    }
}

impl Plugin for ElemCounter {
    fn name(&self) -> &'static str {
        "elem-counter"
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        // Probe with the interned `&str` first: allocating the `String`
        // key only on a collector's first record keeps the per-record
        // path allocation-free.
        let collector = record.collector();
        if !self.current.contains_key(collector) {
            self.current
                .insert(collector.to_string(), BinCounters::default());
        }
        // xcheck:allow(unwrap) — inserted just above when absent
        let c = self.current.get_mut(collector).expect("just inserted");
        c.records += 1;
        if !record.status.is_valid() {
            c.invalid_records += 1;
        }
        for elem in record.elems() {
            match elem.elem_type {
                ElemType::Announcement => c.announcements += 1,
                ElemType::Withdrawal => c.withdrawals += 1,
                ElemType::RibEntry => c.rib_entries += 1,
                ElemType::PeerState => c.state_messages += 1,
            }
        }
    }

    fn end_bin(&mut self, bin_start: u64, _bin_end: u64) {
        self.series.push(StatsPoint {
            time: bin_start,
            per_collector: std::mem::take(&mut self.current),
        });
    }

    // Record-level counters (`records`, `invalid_records`) cannot be
    // reconstructed from hash-partitioned elems — a record whose elems
    // span shards would be counted once per shard — so this plugin
    // keeps the default `Partitioning::Pinned`: one instance, pinned
    // to a single worker, still off the reader thread.

    /// The in-flight bin plus the completed series, reusing the
    /// partial's per-collector layout (BTreeMap keeps collector order
    /// canonical, so equal state ⇒ equal bytes).
    fn checkpoint(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u8(1); // version
        put_counters(&mut out, &self.current);
        out.put_u32(narrow(
            self.series.len(),
            "elem counter checkpoint series length",
        ));
        for point in &self.series {
            out.put_u64(point.time);
            put_counters(&mut out, &point.per_collector);
        }
        out.to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.restore_from(bytes).map_err(|e| e.to_string())
    }
}

impl ElemCounter {
    /// [`Plugin::restore`] with the codec's own error. Nothing is
    /// applied unless the whole checkpoint decodes.
    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes, "stats checkpoint");
        if r.u8()? != 1 {
            return Err(CodecError::Invalid("stats checkpoint version"));
        }
        let current = get_counters(&mut r)?;
        // time + collector count
        let series = (0..r.count(8 + 4)?)
            .map(|_| {
                Ok(StatsPoint {
                    time: r.u64()?,
                    per_collector: get_counters(&mut r)?,
                })
            })
            .collect::<Result<_, CodecError>>()?;
        r.finish()?;
        self.current = current;
        self.series = series;
        Ok(())
    }
}

/// The per-collector counter layout shared by checkpoints and
/// partials: the collector count, then per collector (in name order)
/// its name and six counters.
fn put_counters(out: &mut BytesMut, per_collector: &BTreeMap<String, BinCounters>) {
    out.put_u32(narrow(per_collector.len(), "elem counter collector count"));
    for (name, c) in per_collector {
        out.put_u16(narrow(name.len(), "elem counter collector name length"));
        out.put_slice(name.as_bytes());
        for v in [
            c.records,
            c.invalid_records,
            c.announcements,
            c.withdrawals,
            c.rib_entries,
            c.state_messages,
        ] {
            out.put_u64(v);
        }
    }
}

/// Read back what [`put_counters`] wrote.
fn get_counters(r: &mut Reader<'_>) -> Result<BTreeMap<String, BinCounters>, CodecError> {
    // name length + six counters
    (0..r.count(2 + 48)?)
        .map(|_| {
            let name = r.str16()?.into_owned();
            let c = BinCounters {
                records: r.u64()?,
                invalid_records: r.u64()?,
                announcements: r.u64()?,
                withdrawals: r.u64()?,
                rib_entries: r.u64()?,
                state_messages: r.u64()?,
            };
            Ok((name, c))
        })
        .collect()
}

/// Decode a [`take_partial`](ShardedPlugin::take_partial) partial: the
/// bin time (unused by the merge), then the counters.
fn decode_partial(bytes: &[u8]) -> Result<BTreeMap<String, BinCounters>, CodecError> {
    let mut r = Reader::new(bytes, "stats partial");
    r.u64()?;
    let per_collector = get_counters(&mut r)?;
    r.finish()?;
    Ok(per_collector)
}

impl ShardedPlugin for ElemCounter {
    fn fork(&self, _shard: usize, _shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(ElemCounter::new())
    }

    /// Partial = the bin's `StatsPoint`, encoded losslessly (sorted by
    /// collector name thanks to the `BTreeMap`). The point is *popped*
    /// — the shard instance keeps no series of its own, so a 24/7 run
    /// does not grow per-shard memory one point per bin.
    fn take_partial(&mut self) -> Vec<u8> {
        // xcheck:allow(unwrap) — protocol: end_bin always precedes take_partial
        let point = self.series.pop().expect("take_partial follows end_bin");
        let mut out = BytesMut::new();
        out.put_u64(point.time);
        put_counters(&mut out, &point.per_collector);
        out.to_vec()
    }

    fn merge_bin(&mut self, bin_start: u64, _bin_end: u64, partials: Vec<Vec<u8>>) {
        // Pinned: exactly one partial, decoded back into the series.
        let mut per_collector = BTreeMap::new();
        for partial in &partials {
            // xcheck:allow(unwrap) — partials are take_partial's own output
            per_collector.extend(decode_partial(partial).expect("partial from take_partial"));
        }
        self.series.push(StatsPoint {
            time: bin_start,
            per_collector,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Asn, Prefix};
    use bgpstream::record::{DumpPosition, RecordStatus};
    use bgpstream::BgpStreamElem;
    use broker::DumpType;

    fn elem(ty: ElemType) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ty,
            time: 0,
            peer_address: "10.0.0.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some("10.0.0.0/8".parse::<Prefix>().unwrap()),
            next_hop: None,
            as_path: Some(AsPath::from_sequence([65001, 1])),
            communities: None,
            old_state: None,
            new_state: None,
        }
    }

    fn rec(collector: &str, status: RecordStatus, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
        BgpStreamRecord::new(
            "ris",
            collector,
            DumpType::Updates,
            0,
            1,
            DumpPosition::Middle,
            status,
            elems,
        )
    }

    #[test]
    fn counts_by_collector_and_class() {
        let mut p = ElemCounter::new();
        p.process_record(&rec(
            "rrc00",
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement), elem(ElemType::Withdrawal)],
        ));
        p.process_record(&rec(
            "rv2",
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry)],
        ));
        p.process_record(&rec("rrc00", RecordStatus::CorruptedRecord, vec![]));
        p.end_bin(0, 60);
        let point = &p.series[0];
        let rrc = &point.per_collector["rrc00"];
        assert_eq!(rrc.records, 2);
        assert_eq!(rrc.invalid_records, 1);
        assert_eq!(rrc.announcements, 1);
        assert_eq!(rrc.withdrawals, 1);
        assert_eq!(point.per_collector["rv2"].rib_entries, 1);
        assert_eq!(p.total_elems(), 3);
    }

    #[test]
    fn bins_reset_counters() {
        let mut p = ElemCounter::new();
        p.process_record(&rec(
            "rrc00",
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement)],
        ));
        p.end_bin(0, 60);
        p.end_bin(60, 120);
        assert_eq!(p.series.len(), 2);
        assert!(p.series[1].per_collector.is_empty());
    }

    #[test]
    fn partials_refuse_every_truncation() {
        let mut shard = ElemCounter::new();
        shard.process_record(&rec(
            "rrc00",
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement)],
        ));
        shard.end_bin(0, 60);
        let partial = shard.take_partial();
        for cut in 0..partial.len() {
            assert!(decode_partial(&partial[..cut]).is_err(), "cut {cut}");
        }
        assert_eq!(decode_partial(&partial).unwrap()["rrc00"].announcements, 1);
    }

    #[test]
    fn checkpoint_restores_current_bin_and_series_byte_identically() {
        let mut p = ElemCounter::new();
        p.process_record(&rec(
            "rrc00",
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement), elem(ElemType::Withdrawal)],
        ));
        p.end_bin(0, 60);
        // Leave an in-flight bin so `current` is non-empty too.
        p.process_record(&rec(
            "rv2",
            RecordStatus::CorruptedRecord,
            vec![elem(ElemType::RibEntry)],
        ));

        let ckpt = p.checkpoint();
        let mut restored = ElemCounter::new();
        restored.restore(&ckpt).expect("restore");
        assert_eq!(restored.checkpoint(), ckpt);

        for plugin in [&mut p, &mut restored] {
            plugin.process_record(&rec(
                "rrc00",
                RecordStatus::Valid,
                vec![elem(ElemType::PeerState)],
            ));
            plugin.end_bin(60, 120);
        }
        assert_eq!(p.series, restored.series);
        assert_eq!(p.checkpoint(), restored.checkpoint());

        let mut fresh = ElemCounter::new();
        assert!(fresh.restore(&ckpt[..ckpt.len() - 1]).is_err());
        assert!(fresh.restore(&[]).is_err());
    }
}
