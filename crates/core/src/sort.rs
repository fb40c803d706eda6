//! The sorted-stream machinery of §3.3.4.
//!
//! Collectors write records in dump files with monotonically
//! increasing timestamps; additional sorting is needed when a stream
//! mixes files with overlapping time intervals (multiple collectors,
//! or RIBs + Updates). libBGPStream:
//!
//! 1. breaks the dump-file set into **disjoint subsets** by recursive
//!    time-interval overlap ([`partition_overlap_groups`]), minimising
//!    the number of queues each multi-way merge must handle;
//! 2. runs a **multi-way merge** per subset ([`GroupMerger`]): all
//!    files open simultaneously, repeatedly extracting the oldest
//!    record and wrapping it into an annotated `BGPStream record`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use broker::index::DumpMeta;
use broker::SourceId;
use mrt::table_dump_v2::TableDumpV2;
use mrt::{ChunkedReader, MrtBody, MrtHeader, MrtRecord, PeerIndexTable, RawMrtView};

use crate::elem::{extract_into, BgpStreamElem};
use crate::filter::CompiledFilters;
use crate::record::{BgpStreamRecord, DumpPosition, RecordStatus};

/// Partition dump files into the paper's disjoint overlap groups.
///
/// Two files belong to the same group if their time intervals overlap,
/// directly or transitively. Returned groups are ordered by start
/// time; files within a group keep a deterministic order.
pub fn partition_overlap_groups(files: &[DumpMeta]) -> Vec<Vec<DumpMeta>> {
    let mut sorted: Vec<DumpMeta> = files.to_vec();
    sorted.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
    let mut groups: Vec<Vec<DumpMeta>> = Vec::new();
    let mut current: Vec<DumpMeta> = Vec::new();
    let mut current_end: u64 = 0;
    for f in sorted {
        if current.is_empty() {
            current_end = f.interval_end();
            current.push(f);
            continue;
        }
        // Files are sorted by start, so transitive overlap with the
        // group reduces to: starts strictly before the group's max
        // end. Intervals are half-open — a file covering [0,300) and
        // one covering [300,600) need no cross-sorting, which is what
        // lets Figure 3's 30 minutes of data split into disjoint sets.
        if f.interval_start < current_end {
            current_end = current_end.max(f.interval_end());
            current.push(f);
        } else {
            groups.push(std::mem::take(&mut current));
            current_end = f.interval_end();
            current.push(f);
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// Decode and filter one framed record: the one per-record path every
/// dump read goes through.
///
/// Each record is parsed once, into a [`RawMrtView`]. Filter pushdown
/// reads that view: when the compiled filters can prove from the raw
/// bytes that no elem of the record will pass
/// ([`CompiledFilters::record_may_match`]), the materialisation — and
/// every allocation it implies — is skipped and an elem-less envelope
/// is emitted instead. The envelope sequence (timestamps, positions,
/// dump annotations) is identical to the decode-then-filter path;
/// only the wasted work is gone. A kept record is materialised from
/// the same view.
///
/// `pit` is the dump's `PEER_INDEX_TABLE` slot, holding the table in
/// effect *before* this record; a PIT record is moved into it.
///
/// Returns the record's timestamp, status and surviving elems, or
/// `None` for a corrupted read, which ends the dump.
fn decode_one(
    filters: &CompiledFilters,
    scratch: &mut Vec<BgpStreamElem>,
    pit: &mut Option<PeerIndexTable>,
    header: &MrtHeader,
    body: &[u8],
) -> Option<(u64, RecordStatus, Vec<BgpStreamElem>)> {
    let ts = header.timestamp as u64;
    let view = RawMrtView::parse(header, body).ok()?;
    if !filters.record_may_match(&view, pit.as_ref()) {
        // A rejection also certifies the body would have decoded
        // cleanly (the prefilter scans walk the decoder's own
        // checks), so skipping the materialisation can never hide a
        // corrupted read that the unfiltered path would have
        // signalled. Unsupported record types never decompose into
        // elems; they keep their status without the body copy.
        let status = match view {
            RawMrtView::Unknown(_) => RecordStatus::Unsupported,
            _ => RecordStatus::Valid,
        };
        return Some((ts, status, Vec::new()));
    }
    let rec = match view.materialise().ok()? {
        // A peer table yields no elems of its own: install it and emit
        // its elem-less envelope.
        MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(p)) => {
            *pit = Some(p);
            return Some((ts, RecordStatus::Valid, Vec::new()));
        }
        body => MrtRecord {
            timestamp: header.timestamp,
            body,
        },
    };
    let unsupported = matches!(rec.body, MrtBody::Unknown(_));
    let (elems, missing_peer) = if filters.is_pass_all() {
        // Fast path: with no elem filters configured, the
        // extracted Vec is handed over as-is.
        let mut elems = Vec::new();
        let missing_peer = extract_into(rec, pit.as_ref(), &mut elems);
        (elems, missing_peer)
    } else {
        // Extract into the reusable scratch buffer, filter in
        // place, and right-size an owned Vec only for survivors —
        // fully-filtered records allocate nothing.
        scratch.clear();
        let missing_peer = extract_into(rec, pit.as_ref(), scratch);
        scratch.retain(|e| filters.matches(e));
        let elems = if scratch.is_empty() {
            Vec::new()
        } else {
            // Deliberately NOT `mem::take` (clippy::drain_collect):
            // taking would steal the scratch buffer's capacity and
            // defeat its reuse across records. Draining moves the
            // survivors into one exact-size Vec and keeps the
            // buffer allocated.
            #[allow(clippy::drain_collect)]
            scratch.drain(..).collect()
        };
        (elems, missing_peer)
    };
    let status = if unsupported {
        RecordStatus::Unsupported
    } else if missing_peer {
        RecordStatus::CorruptedRecord
    } else {
        RecordStatus::Valid
    };
    Some((ts, status, elems))
}

/// One open dump file inside a merge: a streaming MRT source plus the
/// state needed to annotate records (peer table, position lookahead).
struct OpenDump {
    meta: DumpMeta,
    /// Interned source identity, resolved once at open; every record
    /// copies this handle instead of cloning the name strings.
    source: SourceId,
    input: Option<ChunkedReader>,
    /// The `PEER_INDEX_TABLE` RIB rows resolve their peers against.
    pit: Option<PeerIndexTable>,
    /// One-record lookahead so the last record can be flagged
    /// `DumpPosition::End`.
    pending: Option<BgpStreamRecord>,
    produced: u64,
    finished: bool,
    /// Timestamp of the last record delivered from this dump; placeholder
    /// records for corrupted reads are stamped with it so the merged
    /// stream never goes backwards in time.
    last_ts: u64,
}

impl OpenDump {
    fn open(meta: DumpMeta, filters: &CompiledFilters, scratch: &mut Vec<BgpStreamElem>) -> Self {
        let source = meta.source_id();
        // Streaming open: the reader decompresses and frames
        // incrementally into a bounded window instead of slurping the
        // whole (possibly gzip-compressed) file into memory.
        match ChunkedReader::open(&meta.path) {
            Ok(reader) => {
                let mut dump = OpenDump {
                    last_ts: meta.interval_start,
                    meta,
                    source,
                    input: Some(reader),
                    pit: None,
                    pending: None,
                    produced: 0,
                    finished: false,
                };
                dump.pending = dump.read_one(filters, scratch);
                dump
            }
            Err(e) => {
                // "libBGPStream marks a record as not-valid when the
                // BGP dump file cannot be opened": one synthetic
                // record carries the error.
                let _ = e;
                let rec = BgpStreamRecord {
                    source,
                    dump_time: meta.interval_start,
                    timestamp: meta.interval_start,
                    position: DumpPosition::Only,
                    status: RecordStatus::CorruptedSource,
                    elems_vec: Vec::new(),
                };
                OpenDump {
                    last_ts: meta.interval_start,
                    meta,
                    source,
                    input: None,
                    pit: None,
                    pending: Some(rec),
                    produced: 0,
                    finished: true,
                }
            }
        }
    }

    /// Read and annotate the next raw record (position fixed up later).
    fn read_one(
        &mut self,
        filters: &CompiledFilters,
        scratch: &mut Vec<BgpStreamElem>,
    ) -> Option<BgpStreamRecord> {
        let decoded = match self.input.as_mut()?.next_raw() {
            None => {
                self.finished = true;
                return None;
            }
            Some(Err(_)) => None,
            Some(Ok(raw)) => decode_one(filters, scratch, &mut self.pit, &raw.header, raw.body),
        };
        let (timestamp, status, elems_vec) = match decoded {
            Some((ts, status, elems)) => {
                self.last_ts = self.last_ts.max(ts);
                (ts, status, elems)
            }
            None => {
                // A corrupted read ends the dump. Its placeholder is
                // stamped with the last timestamp this dump delivered —
                // not `interval_start`, which can lie before records
                // already emitted and would make the merged stream go
                // backwards in time.
                self.finished = true;
                (self.last_ts, RecordStatus::CorruptedRecord, Vec::new())
            }
        };
        Some(BgpStreamRecord {
            source: self.source,
            dump_time: self.meta.interval_start,
            timestamp,
            position: DumpPosition::Middle,
            status,
            elems_vec,
        })
    }

    /// Produce the next record with final position annotation.
    fn next(
        &mut self,
        filters: &CompiledFilters,
        scratch: &mut Vec<BgpStreamElem>,
    ) -> Option<BgpStreamRecord> {
        let mut rec = self.pending.take()?;
        self.pending = if self.finished {
            None
        } else {
            self.read_one(filters, scratch)
        };
        let first = self.produced == 0;
        let last = self.pending.is_none();
        rec.position = match (first, last) {
            (true, true) => DumpPosition::Only,
            (true, false) => DumpPosition::Start,
            (false, true) => DumpPosition::End,
            (false, false) => DumpPosition::Middle,
        };
        self.produced += 1;
        Some(rec)
    }

    /// Timestamp of the next record (for heap ordering).
    fn head_timestamp(&self) -> Option<u64> {
        self.pending.as_ref().map(|r| r.timestamp)
    }
}

/// Heap key: (timestamp, source rank) — min-heap via reversed Ord.
///
/// `rank` is the dump's position in the lexicographic
/// (project, collector, dump type) order of its group, computed once
/// at open time, so equal-timestamp ties break exactly as the old
/// string-tuple comparison did — without any per-push allocation.
#[derive(Clone, Copy)]
struct HeapEntry {
    ts: u64,
    rank: u32,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the oldest first.
        (other.ts, other.rank, other.slot).cmp(&(self.ts, self.rank, self.slot))
    }
}

/// Multi-way merge over one overlap group: all files open at once,
/// repeatedly yielding the record with the smallest timestamp.
///
/// Carries the stream's [`CompiledFilters`] (compiled once at stream
/// start) and one scratch elem buffer shared by every open dump, so
/// the filtered read path allocates nothing per rejected record.
pub struct GroupMerger {
    dumps: Vec<OpenDump>,
    heap: BinaryHeap<HeapEntry>,
    /// `ranks[slot]`: lexicographic tiebreak rank of that dump.
    ranks: Vec<u32>,
    filters: Arc<CompiledFilters>,
    /// Reusable elem extraction buffer (see [`extract_into`]).
    scratch: Vec<BgpStreamElem>,
}

impl GroupMerger {
    /// Open every file of the group and prime the heap.
    pub fn open(group: Vec<DumpMeta>, filters: Arc<CompiledFilters>) -> Self {
        let mut scratch = Vec::new();
        let dumps: Vec<OpenDump> = group
            .into_iter()
            .map(|m| OpenDump::open(m, &filters, &mut scratch))
            .collect();
        // Integer tiebreaks: rank slots by (project, collector, type)
        // once, so the heap never compares (or clones) strings.
        let mut order: Vec<usize> = (0..dumps.len()).collect();
        order.sort_by(|&a, &b| {
            let (ma, mb) = (&dumps[a].meta, &dumps[b].meta);
            (&ma.project, &ma.collector, ma.dump_type as u8).cmp(&(
                &mb.project,
                &mb.collector,
                mb.dump_type as u8,
            ))
        });
        let mut ranks = vec![0u32; dumps.len()];
        for (rank, &slot) in order.iter().enumerate() {
            ranks[slot] = rank as u32;
        }
        let mut heap = BinaryHeap::with_capacity(dumps.len());
        for (slot, d) in dumps.iter().enumerate() {
            if let Some(ts) = d.head_timestamp() {
                heap.push(HeapEntry {
                    ts,
                    rank: ranks[slot],
                    slot: slot as u32,
                });
            }
        }
        GroupMerger {
            dumps,
            heap,
            ranks,
            filters,
            scratch,
        }
    }

    /// Number of simultaneously open files.
    pub fn width(&self) -> usize {
        self.dumps.len()
    }

    /// Admit a newly published dump into the running merge (live mode:
    /// a straggler that surfaced behind the broker cursor while this
    /// group drains). The dump is opened and its head joins the heap;
    /// records older than what the merge already delivered surface
    /// next and are re-stamped by the stream's live monotonic clamp —
    /// the same machinery that keeps corrupted-read placeholders from
    /// moving time backwards. Ties against existing dumps break after
    /// them (the admitted dump gets the next rank), so admission never
    /// perturbs the relative order of records already queued.
    pub fn admit(&mut self, meta: DumpMeta) {
        let slot = self.dumps.len();
        let rank = self.ranks.iter().copied().max().map_or(0, |r| r + 1);
        let dump = OpenDump::open(meta, &self.filters, &mut self.scratch);
        self.ranks.push(rank);
        if let Some(ts) = dump.head_timestamp() {
            self.heap.push(HeapEntry {
                ts,
                rank,
                slot: slot as u32,
            });
        }
        self.dumps.push(dump);
    }

    /// Whether another record is ready without further file reads
    /// being required to know so (the heap holds a primed head).
    pub fn has_next(&self) -> bool {
        !self.heap.is_empty()
    }

    /// The next record in timestamp order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<BgpStreamRecord> {
        let entry = self.heap.pop()?;
        let dump = &mut self.dumps[entry.slot as usize];
        let rec = dump.next(&self.filters, &mut self.scratch)?;
        if let Some(ts) = dump.head_timestamp() {
            self.heap.push(HeapEntry {
                ts,
                rank: self.ranks[entry.slot as usize],
                slot: entry.slot,
            });
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filters;
    use broker::DumpType;
    use std::path::PathBuf;

    fn meta(collector: &str, ty: DumpType, start: u64, dur: u64) -> DumpMeta {
        DumpMeta {
            project: "ris".into(),
            collector: collector.into(),
            dump_type: ty,
            interval_start: start,
            duration: dur,
            path: PathBuf::from("/nonexistent"),
            available_at: 0,
            size: 0,
        }
    }

    #[test]
    fn figure3_partition() {
        // The Figure 3 scenario: RRC01 (5-min updates + one RIB) and
        // RV2 (15-min updates). Updates files 00:00–00:15 overlap each
        // other transitively; the RIB at 00:20 with zero duration plus
        // the files covering it join the second group.
        let files = vec![
            meta("rrc01", DumpType::Updates, 0, 300),
            meta("rrc01", DumpType::Updates, 300, 300),
            meta("rrc01", DumpType::Updates, 600, 300),
            meta("rv2", DumpType::Updates, 0, 900),
        ];
        let groups = partition_overlap_groups(&files);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 4);
    }

    #[test]
    fn disjoint_windows_split() {
        let files = vec![
            meta("rv2", DumpType::Updates, 0, 450), // overlaps the next
            meta("rrc01", DumpType::Updates, 300, 300),
            // Gap: nothing covers (600, 1000).
            meta("rrc01", DumpType::Updates, 1000, 300),
            meta("rv2", DumpType::Updates, 1100, 900),
        ];
        let groups = partition_overlap_groups(&files);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 2);
    }

    #[test]
    fn rib_snapshot_joins_covering_group() {
        let files = vec![
            meta("rrc01", DumpType::Updates, 0, 300),
            meta("rrc01", DumpType::Rib, 120, 0),
        ];
        let groups = partition_overlap_groups(&files);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn empty_input_no_groups() {
        assert!(partition_overlap_groups(&[]).is_empty());
    }

    #[test]
    fn adjacent_intervals_stay_disjoint() {
        // interval_end == next start: half-open intervals do not
        // overlap; no merge needed between consecutive windows.
        let files = vec![
            meta("rrc01", DumpType::Updates, 0, 300),
            meta("rrc01", DumpType::Updates, 300, 300),
        ];
        assert_eq!(partition_overlap_groups(&files).len(), 2);
    }

    #[test]
    fn figure3_thirty_minutes_two_disjoint_sets() {
        // The Figure 3 scenario: 30 minutes (10 files) of data from
        // RRC01 (5-min updates, midnight RIB with rows spreading
        // ~9 min) and RV2 (15-min updates, midnight RIB). The files
        // split into two disjoint sets of 6 and 4, exactly as in the
        // paper's example.
        let files = vec![
            meta("rrc01", DumpType::Updates, 0, 300),
            meta("rrc01", DumpType::Updates, 300, 300),
            meta("rrc01", DumpType::Updates, 600, 300),
            meta("rrc01", DumpType::Rib, 0, 540),
            meta("rv2", DumpType::Rib, 0, 600),
            meta("rv2", DumpType::Updates, 0, 900),
            // Second quarter-hour: nothing bridges across 900.
            meta("rrc01", DumpType::Updates, 900, 300),
            meta("rrc01", DumpType::Updates, 1200, 300),
            meta("rrc01", DumpType::Updates, 1500, 300),
            meta("rv2", DumpType::Updates, 900, 900),
        ];
        let groups = partition_overlap_groups(&files);
        assert_eq!(groups.len(), 2, "{groups:#?}");
        assert_eq!(groups[0].len(), 6);
        assert_eq!(groups[1].len(), 4);
    }

    /// Every record of one dump, unfiltered, through a one-dump merge.
    fn read_dump(meta: DumpMeta) -> Vec<BgpStreamRecord> {
        let mut merger = GroupMerger::open(vec![meta], Arc::new(Filters::none().compile()));
        std::iter::from_fn(|| merger.next()).collect()
    }

    #[test]
    fn missing_file_yields_corrupt_source_record() {
        let m = meta("rrc01", DumpType::Updates, 0, 300);
        let recs = read_dump(m);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].status, RecordStatus::CorruptedSource);
        assert_eq!(recs[0].position, DumpPosition::Only);
    }

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "bgpstream-sort-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn keepalive(ts: u32) -> mrt::MrtRecord {
        mrt::MrtRecord::bgp4mp(
            ts,
            mrt::Bgp4mp::Message {
                peer_asn: bgp_types::Asn(65001),
                local_asn: bgp_types::Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: bgp_types::BgpMessage::Keepalive,
            },
        )
    }

    fn encode(records: &[mrt::MrtRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = mrt::MrtWriter::new(&mut buf);
        for r in records {
            w.write(r).unwrap();
        }
        buf
    }

    #[test]
    fn corrupted_record_placeholder_keeps_time_monotonic() {
        // Regression: the placeholder for a corrupted read used to be
        // stamped with `interval_start` (here 0), jumping the stream
        // back in time after records at 500 and 600 were delivered.
        let dir = scratch("corrupt");
        let path = dir.join("u.mrt");
        let mut bytes = encode(&[keepalive(500), keepalive(600)]);
        bytes.extend_from_slice(&[0xFF; 7]); // truncated garbage tail
        std::fs::write(&path, &bytes).unwrap();
        let m = DumpMeta {
            path,
            ..meta("rrc01", DumpType::Updates, 0, 900)
        };
        let recs = read_dump(m);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].status, RecordStatus::CorruptedRecord);
        assert_eq!(
            recs[2].timestamp, 600,
            "placeholder must carry the last delivered timestamp"
        );
        assert!(
            recs.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
            "timestamps must be non-decreasing: {:?}",
            recs.iter().map(|r| r.timestamp).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_dump_head_placeholder_uses_interval_start() {
        // A dump that is garbage from the first byte has delivered
        // nothing; its placeholder falls back to `interval_start`.
        let dir = scratch("corrupt-head");
        let path = dir.join("u.mrt");
        std::fs::write(&path, [0xFFu8; 7]).unwrap();
        let m = DumpMeta {
            path,
            ..meta("rrc01", DumpType::Updates, 450, 300)
        };
        let recs = read_dump(m);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].status, RecordStatus::CorruptedRecord);
        assert_eq!(recs[0].timestamp, 450);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admitted_dump_joins_the_running_merge() {
        let dir = scratch("admit");
        let a = dir.join("a.mrt");
        std::fs::write(&a, encode(&[keepalive(100), keepalive(400)])).unwrap();
        let b = dir.join("b.mrt");
        std::fs::write(&b, encode(&[keepalive(200), keepalive(300)])).unwrap();
        let ma = DumpMeta {
            path: a,
            ..meta("rrc01", DumpType::Updates, 0, 900)
        };
        let mb = DumpMeta {
            path: b,
            ..meta("rv2", DumpType::Updates, 0, 900)
        };
        let mut merger = GroupMerger::open(vec![ma], Arc::new(Filters::none().compile()));
        // Drain one record, then admit the second dump mid-merge: its
        // still-future records interleave in timestamp order.
        let first = merger.next().unwrap();
        assert_eq!(first.timestamp, 100);
        merger.admit(mb);
        assert_eq!(merger.width(), 2);
        let rest: Vec<u64> = std::iter::from_fn(|| merger.next().map(|r| r.timestamp)).collect();
        assert_eq!(rest, vec![200, 300, 400]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
