//! The RIB fold: sorted stream in, per-(collector, peer) Loc-RIB
//! state plus journal/snapshot publications out.
//!
//! [`RibFold`] is the single producer implementation behind every
//! ingestion mode: `corsaro::RibFeeder` delegates record processing
//! and bin closes here under the sequential pipeline, the sharded
//! runtime and the supervised live runtime alike, and crash recovery
//! (checkpoint/restore reuse the sealed-frame codec, so a restored
//! fold publishes byte-identically to one that never died).
//!
//! Elems fold as the paper's case studies need them to: RIB-dump rows
//! (`DumpType::Rib` walks) bootstrap the table exactly like
//! announcements — insert with implicit replace — updates apply
//! deltas, withdrawals remove, and a session leaving Established
//! clears the peer's table. Watermark advancement is driven by bin
//! closes (historical `end_bin` or `run_live`'s broker-watermark bin
//! closes), at which point accumulated journal events — and, on the
//! configured cadence, a sealed snapshot — are published to the
//! [`RibStore`].

use std::sync::Arc;

use bgp_types::codec::{narrow, open_frame, seal_frame, Reader};
use bgp_types::{CodecError, SessionState};
use bgpstream::{BgpStreamElem, BgpStreamRecord, ElemType};
use bytes::{BufMut, BytesMut};
use fxhash::FxHashMap;

use crate::store::{RibStore, Snapshot};
use crate::table::{RibAction, RibEvent, RibRoute, RibTable};

/// Checkpoint format version.
const FOLD_VERSION: u8 = 1;

/// Counters a fold accumulates (diagnostics; not part of state).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FoldStats {
    /// Records seen (valid or not).
    pub records: u64,
    /// Journal events emitted.
    pub events: u64,
    /// Snapshots sealed.
    pub snapshots: u64,
}

/// Folds the time-sorted stream into [`RibTable`] state and publishes
/// journal events and sealed snapshots to a [`RibStore`].
pub struct RibFold {
    table: RibTable,
    watermark: u64,
    snapshot_every: u64,
    last_snapshot_at: u64,
    pending: Vec<RibEvent>,
    store: Option<Arc<dyn RibStore>>,
    names: FxHashMap<&'static str, Arc<str>>,
    stats: FoldStats,
}

impl RibFold {
    /// A fold sealing a snapshot roughly every `snapshot_every`
    /// seconds of stream time (`0` = never snapshot). Without a
    /// [`store`](RibFold::with_store), events are folded into the
    /// table and dropped at each watermark advance.
    pub fn new(snapshot_every: u64) -> Self {
        RibFold {
            table: RibTable::new(),
            watermark: 0,
            snapshot_every,
            last_snapshot_at: 0,
            pending: Vec::new(),
            store: None,
            names: FxHashMap::default(),
            stats: FoldStats::default(),
        }
    }

    /// Attach the store publications go to.
    pub fn with_store(mut self, store: Arc<dyn RibStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Arc<dyn RibStore>> {
        self.store.as_ref()
    }

    /// The snapshot cadence this fold was configured with.
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// The folded table (current, possibly mid-bin, state).
    pub fn table(&self) -> &RibTable {
        &self.table
    }

    /// Folds are complete for instants strictly below this.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Diagnostics counters.
    pub fn stats(&self) -> FoldStats {
        self.stats
    }

    fn collector_name(&mut self, name: &'static str) -> Arc<str> {
        self.names
            .entry(name)
            .or_insert_with(|| Arc::<str>::from(name))
            .clone()
    }

    /// Fold one record of the sorted stream.
    pub fn apply_record(&mut self, record: &BgpStreamRecord) {
        self.stats.records += 1;
        if !record.status.is_valid() {
            return;
        }
        let collector = self.collector_name(record.collector());
        for elem in record.elems() {
            self.apply_elem(&collector, elem);
        }
    }

    /// Fold one elem (the record path resolves the collector name
    /// once per record and calls this per elem).
    pub fn apply_elem(&mut self, collector: &Arc<str>, elem: &BgpStreamElem) {
        let action = match elem.elem_type {
            // RIB-dump bootstrap rows and announcements fold the same
            // way: install with implicit replace.
            ElemType::RibEntry | ElemType::Announcement => {
                let Some(prefix) = elem.prefix else { return };
                RibAction::Announce {
                    prefix,
                    route: RibRoute {
                        path: elem.as_path.clone(),
                        next_hop: elem.next_hop,
                        communities: elem.communities.clone().unwrap_or_default(),
                        updated_at: elem.time,
                    },
                }
            }
            ElemType::Withdrawal => {
                let Some(prefix) = elem.prefix else { return };
                RibAction::Withdraw { prefix }
            }
            ElemType::PeerState => {
                if elem.new_state == Some(SessionState::Established) {
                    RibAction::PeerUp
                } else {
                    RibAction::PeerDown
                }
            }
        };
        let ev = RibEvent {
            time: elem.time,
            collector: collector.clone(),
            peer: elem.peer_address,
            peer_asn: elem.peer_asn,
            action,
        };
        self.table.apply(&ev);
        self.stats.events += 1;
        self.pending.push(ev);
    }

    /// Advance the watermark to `t` (a closed bin's end): publish the
    /// accumulated journal events and, when the snapshot cadence has
    /// elapsed, a snapshot sealed at `t`. No-op unless `t` advances.
    pub fn advance_watermark(&mut self, t: u64) {
        if t <= self.watermark {
            // A bin at or below the watermark is a post-restore
            // replay: whatever was re-folded for it is already in the
            // store, and must not leak into the next publication.
            self.pending.clear();
            return;
        }
        self.watermark = t;
        let snapshot = if self.snapshot_every > 0
            && t >= self.last_snapshot_at.saturating_add(self.snapshot_every)
        {
            self.last_snapshot_at = t;
            self.stats.snapshots += 1;
            Some(Snapshot::seal(t, &self.table))
        } else {
            None
        };
        let events = std::mem::take(&mut self.pending);
        if let Some(store) = &self.store {
            store.publish(t, events, snapshot);
        }
    }

    /// Mark the stream exhausted: every instant is now final. Called
    /// by historical drivers after the last record; live folds never
    /// finish. Publishes any pending events, seals no snapshot.
    pub fn finish(&mut self) {
        if self.watermark == u64::MAX {
            return;
        }
        self.watermark = u64::MAX;
        let events = std::mem::take(&mut self.pending);
        if let Some(store) = &self.store {
            store.publish(u64::MAX, events, None);
        }
    }

    /// Serialize the fold's full state as a sealed checkpoint frame.
    /// Canonical: two folds that processed the same records produce
    /// identical frames regardless of restore history.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u8(FOLD_VERSION);
        out.put_u64(self.watermark);
        out.put_u64(self.snapshot_every);
        out.put_u64(self.last_snapshot_at);
        let table = self.table.encode();
        out.put_u32(narrow(table.len(), "rib fold checkpoint table length"));
        out.put_slice(&table);
        out.put_u32(narrow(
            self.pending.len(),
            "rib fold checkpoint event count",
        ));
        for ev in &self.pending {
            ev.encode_into(&mut out);
        }
        seal_frame(&out)
    }

    /// Restore from a [`checkpoint`](RibFold::checkpoint) frame. The
    /// store handle is kept; everything else — table, watermark,
    /// snapshot cadence and phase, pending events — comes from the
    /// frame, so post-restore publications line up with pre-crash
    /// ones.
    pub fn restore(&mut self, frame: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(open_frame(frame)?, "rib fold checkpoint");
        if r.u8()? != FOLD_VERSION {
            return Err(CodecError::Invalid("rib fold checkpoint version"));
        }
        let watermark = r.u64()?;
        let snapshot_every = r.u64()?;
        let last_snapshot_at = r.u64()?;
        let table_len = r.u32()? as usize;
        let table = RibTable::decode(r.bytes(table_len)?)?;
        // the smallest event: kind, time, name length, peer, asn
        let n = r.count(1 + 8 + 2 + 17 + 4)?;
        let mut pending = Vec::with_capacity(n);
        let mut events = r.rest();
        for _ in 0..n {
            pending.push(RibEvent::decode(&mut events)?);
        }
        Reader::new(events, "rib fold checkpoint").finish()?;
        self.table = table;
        self.watermark = watermark;
        self.snapshot_every = snapshot_every;
        self.last_snapshot_at = last_snapshot_at;
        self.pending = pending;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryRibStore;
    use bgp_types::Asn;

    fn elem(time: u64, ty: ElemType, prefix: Option<&str>) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ty,
            time,
            peer_address: "10.0.0.9".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: prefix.map(|p| p.parse().unwrap()),
            next_hop: None,
            as_path: Some(bgp_types::AsPath::from_sequence([65001, 7])),
            communities: None,
            old_state: None,
            new_state: None,
        }
    }

    #[test]
    fn watermark_publishes_pending_and_snapshots_on_cadence() {
        let store = MemoryRibStore::shared();
        let mut fold = RibFold::new(200).with_store(store.clone());
        let c: Arc<str> = "rrc00".into();
        fold.apply_elem(&c, &elem(10, ElemType::Announcement, Some("1.0.0.0/8")));
        fold.advance_watermark(100);
        use crate::store::RibStore as _;
        assert_eq!(store.watermark(), 100);
        assert_eq!(store.event_count(), 1);
        assert_eq!(store.snapshot_count(), 0);
        fold.apply_elem(&c, &elem(150, ElemType::Announcement, Some("2.0.0.0/8")));
        fold.advance_watermark(200);
        assert_eq!(store.snapshot_count(), 1);
        // Regressions are no-ops.
        fold.advance_watermark(50);
        assert_eq!(store.watermark(), 200);
        fold.finish();
        assert_eq!(store.watermark(), u64::MAX);
    }

    #[test]
    fn checkpoint_restore_roundtrips_full_state() {
        let mut fold = RibFold::new(300);
        let c: Arc<str> = "rrc00".into();
        fold.apply_elem(&c, &elem(10, ElemType::Announcement, Some("1.0.0.0/8")));
        fold.advance_watermark(100);
        fold.apply_elem(&c, &elem(150, ElemType::Announcement, Some("2.0.0.0/8")));
        // Mid-bin: one pending event.
        let frame = fold.checkpoint();
        let mut back = RibFold::new(0);
        back.restore(&frame).unwrap();
        assert_eq!(back.watermark(), 100);
        assert_eq!(back.snapshot_every(), 300);
        assert_eq!(back.table().encode(), fold.table().encode());
        assert_eq!(back.checkpoint(), frame);
        assert!(back.restore(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn invalid_records_and_pathless_prefixes_are_skipped() {
        let mut fold = RibFold::new(0);
        let c: Arc<str> = "rrc00".into();
        // No prefix on an announcement: skipped.
        fold.apply_elem(&c, &elem(10, ElemType::Announcement, None));
        assert_eq!(fold.stats().events, 0);
        // State change to non-established clears.
        fold.apply_elem(&c, &elem(10, ElemType::Announcement, Some("1.0.0.0/8")));
        let mut down = elem(11, ElemType::PeerState, None);
        down.new_state = Some(SessionState::Idle);
        fold.apply_elem(&c, &down);
        assert_eq!(fold.table().route_count(), 0);
        let mut up = elem(12, ElemType::PeerState, None);
        up.new_state = Some(SessionState::Established);
        fold.apply_elem(&c, &up);
        assert!(
            fold.table()
                .loc_rib("rrc00", &"10.0.0.9".parse().unwrap())
                .unwrap()
                .up
        );
    }
}
