//! The `RibStore` trait — where folded RIB state is published to and
//! queried from — and its in-memory backend.
//!
//! The store holds three things: a **watermark** (folds are complete
//! for every instant strictly below it), a **journal** of
//! [`RibEvent`]s in stream order, and a sparse sequence of sealed
//! **snapshots**. A snapshot stamped `at = S` contains exactly the
//! events with `time < S`, so a query at `T` restores the latest
//! snapshot `S ≤ T` and replays journal events with `S ≤ time ≤ T` on
//! top — O(snapshot + delta) instead of O(stream).
//!
//! Publication is *idempotent*: a [`publish`](RibStore::publish)
//! whose `upto` does not advance the watermark is dropped whole.
//! That is what makes crash-recovery safe — a supervisor that
//! restores a fold from its last checkpoint and replays records will
//! re-publish bins the store already has, and determinism guarantees
//! the dropped duplicates were byte-identical to what landed first.

use std::ops::Range;
use std::sync::Arc;

use bgp_types::codec::open_frame_at;
use bgp_types::CodecError;

use crate::index::TableIndex;
use crate::table::{RibEvent, RibTable};

/// A sealed point-in-time snapshot: the restartable artifact.
///
/// Clones share one sealed frame, and the frame is opened at most
/// once: by the first query that reads the snapshot or the first
/// [`table`](Snapshot::table) call, whichever comes first. Opening
/// checks the checksum and indexes the rows — a directory of the
/// vantage points, each one's rows in prefix order, and the rows of
/// each origin AS — so queries decode only the rows they admit. Every
/// later read is served that result, a failure included: a frame
/// cannot change after it is wrapped, so opening it again could not
/// answer differently.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The instant the snapshot reflects (contains events with
    /// `time < at`).
    pub at: u64,
    sealed: Arc<Sealed>,
}

/// What every clone of a [`Snapshot`] shares.
#[derive(Debug)]
struct Sealed {
    frame: Vec<u8>,
    /// Where the payload sits in `frame` and its index, once the
    /// checksum has passed; or why opening failed.
    opened: bsync::OnceLock<Result<(Range<usize>, TableIndex), CodecError>>,
}

impl Snapshot {
    /// Seal a table's state as of `at`.
    pub fn seal(at: u64, table: &RibTable) -> Self {
        Snapshot::from_frame(at, table.seal())
    }

    /// Wrap an already-sealed frame (e.g. read back from disk). The
    /// frame is not checked here: the first read opens it.
    pub fn from_frame(at: u64, frame: Vec<u8>) -> Self {
        Snapshot {
            at,
            sealed: Arc::new(Sealed {
                frame,
                opened: bsync::OnceLock::new(),
            }),
        }
    }

    /// The sealed frame bytes (length-prefixed, checksummed).
    pub fn frame(&self) -> &[u8] {
        &self.sealed.frame
    }

    /// The frame's payload and its index, opening the frame on the
    /// first call.
    pub(crate) fn opened(&self) -> Result<(&[u8], &TableIndex), CodecError> {
        let sealed = &*self.sealed;
        let (payload, index) = sealed
            .opened
            .get_or_init(|| {
                let payload = open_frame_at(&sealed.frame)?;
                let index = TableIndex::build(&sealed.frame[payload.clone()])?;
                Ok((payload, index))
            })
            .as_ref()
            .map_err(Clone::clone)?;
        Ok((&sealed.frame[payload.clone()], index))
    }

    /// Decode the frame back into a table, rejecting torn writes.
    pub fn table(&self) -> Result<RibTable, CodecError> {
        let (payload, index) = self.opened()?;
        RibTable::from_index(payload, index)
    }
}

/// Where folded RIB state lives: the one surface both producers
/// (historical fold, live plugin) and consumers ([`RibQuery`]) share.
///
/// In-memory today ([`MemoryRibStore`]); the trait is deliberately
/// small and object-safe so a served backend (the broker re-exporting
/// a store over its wire protocol) can slot in later.
///
/// [`RibQuery`]: crate::RibQuery
pub trait RibStore: Send + Sync {
    /// Folds are complete for every instant strictly below this.
    /// `0` means nothing has been published yet.
    fn watermark(&self) -> u64;

    /// Publish one closed bin: the journal events since the previous
    /// publish, an optional snapshot sealed at `upto`, and the new
    /// watermark. Returns `false` (dropping the whole publication)
    /// unless `upto` advances the watermark — see the module docs on
    /// idempotent crash-replay — and a snapshot, if any, is stamped
    /// `at == upto`.
    fn publish(&self, upto: u64, events: Vec<RibEvent>, snapshot: Option<Snapshot>) -> bool;

    /// The latest snapshot with `at ≤ t`, if any.
    fn snapshot_at(&self, t: u64) -> Option<Snapshot>;

    /// Journal events with `from ≤ time ≤ to`, in stream order (none
    /// when `from > to`).
    fn events_in(&self, from: u64, to: u64) -> Vec<RibEvent>;

    /// Hand the journal events with `from ≤ time ≤ to` to `visit` by
    /// reference, in stream order — what query resolution reads the
    /// journal through, so it clones only the events it keeps. The
    /// default visits an [`events_in`](RibStore::events_in) copy; a
    /// backend may instead visit under its lock, so `visit` must not
    /// call back into the store.
    fn visit_events_in(&self, from: u64, to: u64, visit: &mut dyn FnMut(&RibEvent)) {
        for ev in self.events_in(from, to) {
            visit(&ev);
        }
    }

    /// Total journal length (diagnostics).
    fn event_count(&self) -> usize;

    /// Number of sealed snapshots held (diagnostics).
    fn snapshot_count(&self) -> usize;
}

struct StoreInner {
    watermark: u64,
    /// Journal in stream order; event times are monotone because the
    /// producing stream is time-sorted.
    events: Vec<RibEvent>,
    /// Ascending by `at`.
    snapshots: Vec<Snapshot>,
}

impl StoreInner {
    /// The journal events with `from ≤ time ≤ to`; empty when
    /// `from > to`.
    fn slice(&self, from: u64, to: u64) -> &[RibEvent] {
        let lo = self.events.partition_point(|e| e.time < from);
        let hi = self.events.partition_point(|e| e.time <= to);
        &self.events[lo..hi.max(lo)]
    }
}

/// The in-memory [`RibStore`] backend.
pub struct MemoryRibStore {
    inner: bsync::Mutex<StoreInner>,
}

impl MemoryRibStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryRibStore {
            inner: bsync::Mutex::new(StoreInner {
                watermark: 0,
                events: Vec::new(),
                snapshots: Vec::new(),
            }),
        }
    }

    /// An empty store behind the shared handle producers and
    /// consumers both hold.
    pub fn shared() -> Arc<Self> {
        Arc::new(MemoryRibStore::new())
    }
}

impl Default for MemoryRibStore {
    fn default() -> Self {
        MemoryRibStore::new()
    }
}

impl RibStore for MemoryRibStore {
    fn watermark(&self) -> u64 {
        self.inner.lock().watermark
    }

    fn publish(&self, upto: u64, events: Vec<RibEvent>, snapshot: Option<Snapshot>) -> bool {
        let mut inner = self.inner.lock();
        // Snapshots stamped at their bin's end keep `snapshots`
        // ascending, which `snapshot_at`'s search relies on.
        if upto <= inner.watermark || snapshot.as_ref().is_some_and(|s| s.at != upto) {
            return false;
        }
        inner.events.extend(events);
        if let Some(snap) = snapshot {
            inner.snapshots.push(snap);
        }
        inner.watermark = upto;
        true
    }

    fn snapshot_at(&self, t: u64) -> Option<Snapshot> {
        let inner = self.inner.lock();
        let idx = inner.snapshots.partition_point(|s| s.at <= t);
        if idx == 0 {
            None
        } else {
            Some(inner.snapshots[idx - 1].clone())
        }
    }

    fn events_in(&self, from: u64, to: u64) -> Vec<RibEvent> {
        self.inner.lock().slice(from, to).to_vec()
    }

    fn visit_events_in(&self, from: u64, to: u64, visit: &mut dyn FnMut(&RibEvent)) {
        self.inner.lock().slice(from, to).iter().for_each(visit);
    }

    fn event_count(&self) -> usize {
        self.inner.lock().events.len()
    }

    fn snapshot_count(&self) -> usize {
        self.inner.lock().snapshots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RibAction;
    use bgp_types::Asn;

    fn ev(time: u64) -> RibEvent {
        RibEvent {
            time,
            collector: "rrc00".into(),
            peer: "10.0.0.9".parse().unwrap(),
            peer_asn: Asn(65001),
            action: RibAction::PeerUp,
        }
    }

    #[test]
    fn publish_advances_watermark_and_is_idempotent() {
        let store = MemoryRibStore::new();
        assert_eq!(store.watermark(), 0);
        assert!(store.publish(100, vec![ev(10), ev(50)], None));
        assert_eq!(store.watermark(), 100);
        assert_eq!(store.event_count(), 2);
        // Replay of an already-published bin is dropped whole.
        assert!(!store.publish(100, vec![ev(10), ev(50)], None));
        assert!(!store.publish(40, vec![ev(10)], None));
        assert_eq!(store.event_count(), 2);
        assert!(store.publish(200, vec![ev(150)], None));
        assert_eq!(store.event_count(), 3);
    }

    #[test]
    fn events_in_is_inclusive_both_ends() {
        let store = MemoryRibStore::new();
        store.publish(100, vec![ev(10), ev(20), ev(30)], None);
        let times = |from, to| {
            store
                .events_in(from, to)
                .iter()
                .map(|e| e.time)
                .collect::<Vec<_>>()
        };
        assert_eq!(times(10, 30), vec![10, 20, 30]);
        assert_eq!(times(11, 29), vec![20]);
        assert_eq!(times(0, 9), Vec::<u64>::new());
        assert_eq!(times(20, 20), vec![20]);
    }

    #[test]
    fn an_inverted_range_is_empty() {
        // `from > to` puts the lower journal index above the upper
        // one; an empty range has no events.
        let store = MemoryRibStore::new();
        store.publish(300, vec![ev(100), ev(150), ev(200)], None);
        assert!(store.events_in(200, 100).is_empty());
        assert!(store.events_in(u64::MAX, 0).is_empty());
        let mut visited = 0;
        store.visit_events_in(200, 100, &mut |_| visited += 1);
        assert_eq!(visited, 0);
        store.visit_events_in(100, 200, &mut |_| visited += 1);
        assert_eq!(visited, 3);
    }

    #[test]
    fn snapshot_at_picks_latest_not_after() {
        let store = MemoryRibStore::new();
        let table = RibTable::new();
        store.publish(100, vec![], Some(Snapshot::seal(100, &table)));
        store.publish(200, vec![], Some(Snapshot::seal(200, &table)));
        assert!(store.snapshot_at(99).is_none());
        assert_eq!(store.snapshot_at(100).map(|s| s.at), Some(100));
        assert_eq!(store.snapshot_at(199).map(|s| s.at), Some(100));
        assert_eq!(store.snapshot_at(500).map(|s| s.at), Some(200));
        assert_eq!(store.snapshot_count(), 2);
        assert!(store.snapshot_at(500).unwrap().table().is_ok());
    }

    #[test]
    fn a_snapshot_not_sealed_at_upto_drops_the_publication() {
        let store = MemoryRibStore::new();
        let table = RibTable::new();
        assert!(store.publish(200, vec![], Some(Snapshot::seal(200, &table))));
        // Stamped before or after its bin's end: the whole publication
        // is dropped, events and watermark included.
        assert!(!store.publish(300, vec![ev(250)], Some(Snapshot::seal(100, &table))));
        assert!(!store.publish(300, vec![ev(250)], Some(Snapshot::seal(400, &table))));
        assert_eq!(store.watermark(), 200);
        assert_eq!(store.event_count(), 0);
        assert_eq!(store.snapshot_count(), 1);
        assert_eq!(store.snapshot_at(150).map(|s| s.at), None);
        assert_eq!(store.snapshot_at(350).map(|s| s.at), Some(200));
    }

    #[test]
    fn clones_and_the_stored_snapshot_share_one_opened_index() {
        let mut table = RibTable::new();
        table.apply(&ev(10));
        let snap = Snapshot::seal(100, &table);
        let clone = snap.clone();
        let store = MemoryRibStore::new();
        assert!(store.publish(100, vec![], Some(snap.clone())));
        let stored = store.snapshot_at(150).unwrap();
        assert!(Arc::ptr_eq(&snap.sealed, &clone.sealed));
        assert!(Arc::ptr_eq(&snap.sealed, &stored.sealed));
        // Opening one opens them all.
        assert!(clone.sealed.opened.get().is_none());
        assert_eq!(stored.table().unwrap().peer_count(), 1);
        assert!(clone.sealed.opened.get().is_some());
        let (_, index) = snap.opened().unwrap();
        assert!(std::ptr::eq(index, clone.opened().unwrap().1));
    }
}
