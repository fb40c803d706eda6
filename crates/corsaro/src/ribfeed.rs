//! The RIB-feeding plugin: runs a [`RibFold`] inside the plugin
//! runtimes so live runs reconstruct queryable RIB state.
//!
//! This is the glue that makes historical runs, live runs and
//! interactive queries share one type vocabulary: the fold logic
//! lives in `crates/rib` ([`RibFold`]), the sequential pipeline and
//! the sharded/supervised live runtime both drive it through this
//! [`Plugin`], and consumers resolve [`rib::RibQuery`] against the
//! same [`RibStore`] handle the feeder publishes to. In live mode,
//! `run_live` closing bins off the broker watermark is exactly what
//! advances the RIB watermark — a query admitted at `T` is guaranteed
//! to see every elem below `T` the collectors have published.
//!
//! The plugin is [`Partitioning::Pinned`]: one instance owns the full
//! stream on one worker, which keeps the journal it publishes in
//! stream order (the store's contract). Checkpoint/restore delegate
//! to the fold's sealed frames, so a supervisor-restored feeder
//! re-publishes byte-identically and the store's idempotent watermark
//! guard drops the replayed duplicates.

use std::sync::Arc;

use bgpstream::BgpStreamRecord;
use rib::{RibFold, RibStore};

use crate::pipeline::{Partitioning, Plugin};
use crate::runtime::ShardedPlugin;

/// Feeds a shared [`RibStore`] from the record stream. See the
/// module docs.
pub struct RibFeeder {
    fold: RibFold,
}

impl RibFeeder {
    /// A feeder sealing snapshots every `snapshot_every` seconds of
    /// stream time into `store`.
    pub fn new(snapshot_every: u64, store: Arc<dyn RibStore>) -> Self {
        RibFeeder {
            fold: RibFold::new(snapshot_every).with_store(store),
        }
    }

    /// The wrapped fold (inspect table state, watermark, stats).
    pub fn fold(&self) -> &RibFold {
        &self.fold
    }
}

impl Plugin for RibFeeder {
    fn name(&self) -> &'static str {
        "ribfeed"
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        self.fold.apply_record(record);
    }

    fn end_bin(&mut self, _bin_start: u64, bin_end: u64) {
        self.fold.advance_watermark(bin_end);
    }

    fn partitioning(&self) -> Partitioning {
        Partitioning::Pinned
    }

    fn checkpoint(&self) -> Vec<u8> {
        self.fold.checkpoint()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.fold.restore(bytes).map_err(|e| e.to_string())
    }
}

impl ShardedPlugin for RibFeeder {
    fn fork(&self, _shard: usize, _shards: usize) -> Box<dyn ShardedPlugin> {
        // Pinned: forked as (0, 1); the fork shares the store handle
        // and starts from empty fold state.
        let fold = RibFold::new(self.fold.snapshot_every());
        let fold = match self.fold.store() {
            Some(store) => fold.with_store(store.clone()),
            None => fold,
        };
        Box::new(RibFeeder { fold })
    }

    /// The feeder's output is its store publications, which the
    /// pinned worker instance already made in `end_bin`; there is no
    /// per-bin partial to ship to the coordinator.
    fn take_partial(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Nothing to merge: the root instance never folds (in sharded
    /// mode the fold state lives on the worker, the queryable output
    /// in the shared store).
    fn merge_bin(&mut self, _bin_start: u64, _bin_end: u64, _partials: Vec<Vec<u8>>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rib::{MemoryRibStore, RibQuery};

    use bgp_types::Asn;
    use bgpstream::{BgpStreamElem, DumpPosition, ElemType, RecordStatus};
    use broker::DumpType;

    fn record(ts: u64, prefix: &str) -> BgpStreamRecord {
        let elem = BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: ts,
            peer_address: "10.0.0.9".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some(prefix.parse().unwrap()),
            next_hop: None,
            as_path: Some(bgp_types::AsPath::from_sequence([65001, 42])),
            communities: None,
            old_state: None,
            new_state: None,
        };
        BgpStreamRecord::new(
            "ris",
            "rrc00",
            DumpType::Updates,
            ts,
            ts,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem],
        )
    }

    #[test]
    fn feeder_publishes_on_bin_close_and_checkpoints() {
        let store = MemoryRibStore::shared();
        let mut feeder = RibFeeder::new(0, store.clone());
        feeder.process_record(&record(10, "1.0.0.0/8"));
        feeder.process_record(&record(20, "2.0.0.0/8"));
        // Nothing visible until the bin closes.
        assert!(RibQuery::new().table(&*store).is_err());
        feeder.end_bin(0, 60);
        let view = RibQuery::new().table(&*store).unwrap();
        assert_eq!(view.len(), 2);

        // Restore into a fresh fork and verify replayed bins dedupe.
        let frame = feeder.checkpoint();
        let mut revived = feeder.fork(0, 1);
        revived.restore(&frame).unwrap();
        revived.process_record(&record(10, "1.0.0.0/8"));
        revived.process_record(&record(20, "2.0.0.0/8"));
        revived.end_bin(0, 60);
        assert_eq!(store.event_count(), 2, "replayed publish must be dropped");
        assert_eq!(revived.checkpoint(), frame);
    }
}
