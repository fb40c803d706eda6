//! The routing-tables (RT) plugin (§6.2.1, Figure 8).
//!
//! Reconstructs each VP's observable Loc-RIB at fine time granularity:
//! a RIB dump provides the starting reference, Updates dumps evolve
//! it, and subsequent RIB dumps sanity-check and correct it. Because
//! the input is an inference over distributed, heterogeneous
//! measurement data, the plugin maintains a per-VP finite state
//! machine (Figure 8, in `rt/fsm.rs`: every state change goes through
//! its one `step`) plus *shadow cells* and handles the paper's four
//! special events:
//!
//! * **E1** — a corrupted record inside a RIB dump: ignore the whole
//!   dump;
//! * **E2** — RIB records older than already-applied updates: apply a
//!   RIB record to a cell only if its timestamp is newer than the
//!   cell's last modification;
//! * **E3** — a corrupted Updates record: stop applying updates and
//!   wait for the next RIB dump;
//! * **E4** — session state messages force FSM transitions
//!   (`Established` → up, anything else → down).
//!
//! At the end of each time bin the plugin counts/publishes **diff
//! cells** — the changed portion of the reconstructed tables — which
//! Figure 9 compares against the raw BGP elem count. RouteViews
//! collectors dump no state messages, so a VP none of whose routes
//! appear in the latest RIB dump is additionally declared down
//! (footnote 5).

use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::codec::{narrow, Reader};
use bgp_types::{AsPath, Asn, CodecError, Prefix};
use bgpstream::{BgpStreamRecord, ElemType};
use broker::DumpType;
use bytes::{BufMut, BytesMut};
use fxhash::FxHashMap;
use mq::Cluster;

use crate::codec::{decode_cells, encode_cells, encode_meta, sort_cells, DiffCell, RtMessage};
use crate::pipeline::{Partitioning, Plugin};
use crate::runtime::ShardedPlugin;

mod fsm;

pub use fsm::MacroState;
use fsm::{step, CellAction, VpEvent};

/// The route stored in a cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellRoute {
    /// AS path of the selected route.
    pub path: AsPath,
}

#[derive(Clone, Debug, Default)]
struct Cell {
    /// `Some` = announced (the A/W flag), `None` = withdrawn/absent.
    main: Option<CellRoute>,
    /// When the main cell last changed (from an Updates record).
    main_ts: u64,
    /// Shadow storage for the RIB dump being applied.
    shadow: Option<(Option<CellRoute>, u64)>,
}

struct VpTable {
    asn: Asn,
    state: MacroState,
    cells: FxHashMap<Prefix, Cell>,
    /// Whether any RIB row for this VP was seen in the current dump.
    rib_seen: bool,
    /// Whether the VP's table was available when the current RIB
    /// started (accuracy comparisons are only meaningful then).
    check_ok: bool,
}

/// Pre-bin value of every cell touched this bin.
type Dirty = FxHashMap<(IpAddr, Prefix), Option<CellRoute>>;

fn mark_dirty(dirty: &mut Dirty, ip: IpAddr, prefix: Prefix, prev: &Option<CellRoute>) {
    dirty.entry((ip, prefix)).or_insert_with(|| prev.clone());
}

impl VpTable {
    /// Feed `ev` to the VP's Figure 8 machine and carry out the cell
    /// action it returns. `at` is the event's time: cleared cells are
    /// stamped with it, and a merge checks against the RIB dump that
    /// started at it.
    fn on(&mut self, ev: VpEvent, ip: IpAddr, at: u64, dirty: &mut Dirty, errs: &mut RtErrorStats) {
        let action;
        (self.state, action) = step(self.state, ev);
        match action {
            CellAction::Keep => {}
            CellAction::DiscardShadows => self.cells.values_mut().for_each(|c| c.shadow = None),
            CellAction::ClearTable => {
                for (prefix, cell) in self.cells.iter_mut() {
                    if cell.main.is_some() {
                        mark_dirty(dirty, ip, *prefix, &cell.main);
                        cell.main = None;
                        cell.main_ts = at;
                    }
                }
            }
            CellAction::MergeShadows => {
                for (prefix, cell) in self.cells.iter_mut() {
                    // A cell without a row in the new RIB reads as
                    // withdrawn at its start: stale if announced,
                    // unless an update touched it meanwhile.
                    let row = cell.shadow.take();
                    if row.is_none() && cell.main.is_none() {
                        continue;
                    }
                    let (route, ts) = row.unwrap_or((None, at));
                    if cell.main_ts <= at && self.check_ok {
                        errs.cells_checked += 1;
                        errs.cells_mismatched += u64::from(cell.main != route);
                    }
                    // E2: apply only if not older than the cell's last
                    // modification.
                    if ts >= cell.main_ts && cell.main != route {
                        mark_dirty(dirty, ip, *prefix, &cell.main);
                        cell.main = route;
                        cell.main_ts = ts;
                    }
                }
            }
        }
    }
}

/// Per-bin statistics (the Figure 9 series).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtBinStats {
    /// Bin start.
    pub bin: u64,
    /// BGP elems extracted from update messages in this bin.
    pub elems: u64,
    /// Diff cells between the previous bin's tables and this one's.
    pub diff_cells: u64,
}

/// Accuracy self-check counters (§6.2.1: error probabilities ~1e-8
/// RIS / ~1e-5 RouteViews).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RtErrorStats {
    /// Cells compared at RIB boundaries.
    pub cells_checked: u64,
    /// Cells whose reconstructed content disagreed with the RIB.
    pub cells_mismatched: u64,
}

impl RtErrorStats {
    /// Mismatching prefixes over all compared prefixes.
    pub fn error_probability(&self) -> f64 {
        if self.cells_checked == 0 {
            0.0
        } else {
            self.cells_mismatched as f64 / self.cells_checked as f64
        }
    }
}

/// The RT plugin: one instance per collector (the paper runs one
/// BGPCorsaro per collector to spread load).
pub struct RtPlugin {
    collector: String,
    vps: FxHashMap<IpAddr, VpTable>,
    dirty: Dirty,
    elems_in_bin: u64,
    /// A RIB dump is currently being applied.
    rib_active: bool,
    rib_corrupted: bool,
    rib_start_ts: u64,
    /// E3: a corrupted Updates record was seen; updates ignored until
    /// the next clean RIB completes.
    updates_poisoned: bool,
    mq: Option<Arc<Cluster>>,
    /// Publish a full table every this many bins (0 = never).
    full_every_bins: u64,
    bins_since_full: u64,
    /// Shard instances retain each bin's outputs for
    /// [`ShardedPlugin::take_partial`].
    collect_partials: bool,
    pending_partial: Option<Vec<u8>>,
    /// Error counters already shipped in partials (partials carry
    /// deltas, the per-run totals live on the root).
    err_reported: RtErrorStats,
    /// The Figure 9 series.
    pub bin_series: Vec<RtBinStats>,
    /// Accuracy counters.
    pub error_stats: RtErrorStats,
}

impl RtPlugin {
    /// A plugin for `collector`'s stream.
    pub fn new(collector: &str) -> Self {
        RtPlugin {
            collector: collector.to_string(),
            vps: FxHashMap::default(),
            dirty: FxHashMap::default(),
            elems_in_bin: 0,
            rib_active: false,
            rib_corrupted: false,
            rib_start_ts: 0,
            updates_poisoned: false,
            mq: None,
            full_every_bins: 0,
            bins_since_full: 0,
            collect_partials: false,
            pending_partial: None,
            err_reported: RtErrorStats::default(),
            bin_series: Vec::new(),
            error_stats: RtErrorStats::default(),
        }
    }

    /// Publish bin diffs (and periodic full tables) to the queue.
    pub fn with_queue(mut self, mq: Arc<Cluster>, full_every_bins: u64) -> Self {
        self.mq = Some(mq);
        self.full_every_bins = full_every_bins;
        self
    }

    /// The FSM state of the VP at `ip`, if known.
    pub fn vp_state(&self, ip: IpAddr) -> Option<MacroState> {
        self.vps.get(&ip).map(|v| v.state)
    }

    /// Number of announced prefixes in the VP's reconstructed table.
    pub fn vp_table_size(&self, ip: IpAddr) -> usize {
        self.vps
            .get(&ip)
            .map(|v| v.cells.values().filter(|c| c.main.is_some()).count())
            .unwrap_or(0)
    }

    /// Known VPs.
    pub fn vp_addrs(&self) -> Vec<IpAddr> {
        self.vps.keys().copied().collect()
    }

    fn begin_rib(&mut self, ts: u64) {
        self.rib_active = true;
        self.rib_corrupted = false;
        self.rib_start_ts = ts;
        let (dirty, errs) = (&mut self.dirty, &mut self.error_stats);
        for (ip, vp) in self.vps.iter_mut() {
            vp.rib_seen = false;
            vp.check_ok = vp.state.table_available();
            vp.on(VpEvent::RibBegin, *ip, ts, dirty, errs);
        }
    }

    fn end_rib(&mut self) {
        let (dirty, errs) = (&mut self.dirty, &mut self.error_stats);
        for (ip, vp) in self.vps.iter_mut() {
            let event = if self.rib_corrupted {
                VpEvent::RibCorrupted // E1: discard the whole dump
            } else if vp.rib_seen {
                VpEvent::RibEnd
            } else {
                // None of the VP's routes are in the latest RIB dump:
                // declare it down (RouteViews mitigation, footnote 5).
                VpEvent::RibAbsent
            };
            vp.on(event, *ip, self.rib_start_ts, dirty, errs);
        }
        self.rib_active = false;
        if !self.rib_corrupted {
            // E3 recovery: a clean RIB restores update processing.
            self.updates_poisoned = false;
        }
    }
}

impl RtPlugin {
    /// Shared body of `process_record` (every elem) and
    /// `process_sharded` (the elems the runtime's ownership mask gives
    /// this shard). Record-level events — E1/E3 corruption, RIB dump
    /// start/end — always apply, whatever the mask.
    fn process_impl(&mut self, record: &BgpStreamRecord, mask: Option<&[bool]>) {
        if record.collector() != self.collector {
            return;
        }
        let elems = (record.elems().iter().enumerate())
            .filter(|(i, _)| mask.is_none_or(|m| m[*i]))
            .map(|(_, elem)| elem);
        match record.dump_type() {
            DumpType::Rib => {
                if record.position.is_start() && !self.rib_active {
                    self.begin_rib(record.timestamp);
                }
                if !record.status.is_valid() {
                    self.rib_corrupted = true; // E1
                }
                for elem in elems.filter(|e| self.rib_active && e.elem_type == ElemType::RibEntry) {
                    let (Some(prefix), Some(path)) = (elem.prefix, elem.as_path.clone()) else {
                        continue;
                    };
                    let vp = vp_entry(&mut self.vps, true, elem.peer_address, elem.peer_asn);
                    vp.rib_seen = true;
                    let cell = vp.cells.entry(prefix).or_default();
                    cell.shadow = Some((Some(CellRoute { path }), elem.time));
                }
                if record.position.is_end() && self.rib_active {
                    self.end_rib();
                }
            }
            DumpType::Updates => {
                if !record.status.is_valid() {
                    // E3: stop applying updates, wait for next RIB.
                    self.updates_poisoned = true;
                    let (dirty, errs) = (&mut self.dirty, &mut self.error_stats);
                    for (ip, vp) in self.vps.iter_mut() {
                        vp.on(VpEvent::CorruptUpdate, *ip, record.timestamp, dirty, errs);
                    }
                    return;
                }
                for elem in elems {
                    let (ip, dirty, errs) =
                        (elem.peer_address, &mut self.dirty, &mut self.error_stats);
                    match elem.elem_type {
                        ElemType::PeerState => {
                            // E4: the state message forces the VP up or
                            // down (down clears its table); mid-RIB the
                            // VP then rejoins the dump being applied.
                            let event = match elem.new_state.is_some_and(|s| s.is_established()) {
                                true => VpEvent::SessionUp,
                                false => VpEvent::SessionDown,
                            };
                            let vp = vp_entry(&mut self.vps, self.rib_active, ip, elem.peer_asn);
                            vp.on(event, ip, elem.time, dirty, errs);
                            if self.rib_active {
                                vp.on(VpEvent::RibBegin, ip, elem.time, dirty, errs);
                            }
                        }
                        ElemType::Announcement | ElemType::Withdrawal => {
                            // Poisoned updates still count as elems
                            // received (they are extracted, not applied).
                            self.elems_in_bin += 1;
                            if self.updates_poisoned {
                                continue;
                            }
                            let Some(prefix) = elem.prefix else { continue };
                            let new = match (elem.elem_type, &elem.as_path) {
                                (ElemType::Withdrawal, _) => None,
                                (_, Some(path)) => Some(CellRoute { path: path.clone() }),
                                (_, None) => continue,
                            };
                            let vp = vp_entry(&mut self.vps, self.rib_active, ip, elem.peer_asn);
                            let cell = vp.cells.entry(prefix).or_default();
                            if cell.main != new {
                                mark_dirty(dirty, ip, prefix, &cell.main);
                                cell.main = new;
                            }
                            cell.main_ts = elem.time;
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

impl Plugin for RtPlugin {
    fn name(&self) -> &'static str {
        "routing-tables"
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        self.process_impl(record, None);
    }

    fn end_bin(&mut self, bin_start: u64, _bin_end: u64) {
        // Count real value changes (a cell that flapped back within
        // the bin is not a diff).
        let mut diff_cells: Vec<DiffCell> = Vec::new();
        for ((ip, prefix), prev) in self.dirty.drain() {
            let current = self
                .vps
                .get(&ip)
                .and_then(|vp| vp.cells.get(&prefix))
                .and_then(|c| c.main.clone());
            if current != prev {
                let vp_asn = self.vps.get(&ip).map(|v| v.asn).unwrap_or(Asn(0));
                diff_cells.push(DiffCell {
                    vp: vp_asn,
                    prefix,
                    path: current.map(|r| r.path),
                });
            }
        }
        // Canonical order: the `dirty` drain above is HashMap-ordered,
        // which would make queue payloads differ run to run (and shard
        // layout to shard layout). Only the serializing paths need it
        // — a queue-less sequential plugin just counts the cells.
        if self.mq.is_some() || self.collect_partials {
            sort_cells(&mut diff_cells);
        }
        let elems = self.elems_in_bin;
        // Shard instances (collect_partials) keep no series of their
        // own — the stats travel in the partial, and a 24/7 run must
        // not grow per-shard memory one point per bin.
        if !self.collect_partials {
            self.bin_series.push(RtBinStats {
                bin: bin_start,
                elems,
                diff_cells: diff_cells.len() as u64,
            });
        }
        self.elems_in_bin = 0;

        // Full-table cadence: advanced by publishers (mq) *and* by
        // shard instances, which must ship full cells in the same bins
        // the sequential plugin would publish them.
        let mut full: Option<Vec<DiffCell>> = None;
        if (self.mq.is_some() || self.collect_partials) && self.full_every_bins > 0 {
            self.bins_since_full += 1;
            if self.bins_since_full >= self.full_every_bins {
                self.bins_since_full = 0;
                let mut cells = self.full_cells();
                sort_cells(&mut cells);
                full = Some(cells);
            }
        }

        if self.collect_partials {
            let checked = self.error_stats.cells_checked - self.err_reported.cells_checked;
            let mismatched = self.error_stats.cells_mismatched - self.err_reported.cells_mismatched;
            self.err_reported = self.error_stats;
            let mut out = BytesMut::new();
            out.put_u64(elems);
            out.put_u64(checked);
            out.put_u64(mismatched);
            encode_cells(&mut out, &diff_cells);
            match &full {
                Some(cells) => {
                    out.put_u8(1);
                    encode_cells(&mut out, cells);
                }
                None => out.put_u8(0),
            }
            self.pending_partial = Some(out.into());
        }
        self.publish(bin_start, diff_cells, full);
    }

    fn partitioning(&self) -> Partitioning {
        // Everything this plugin tracks — cells, FSM state, `rib_seen`
        // bookkeeping, accuracy checks — is keyed by the VP, so peer
        // sharding partitions the state exactly. (Prefix sharding
        // would *not* be safe here: a shard seeing none of a VP's RIB
        // rows would wrongly declare the VP down via the footnote-5
        // rule.)
        Partitioning::ByPeer
    }

    /// Everything except configuration (queue handle, full-table
    /// cadence, shard assignment), through the queue codec's own
    /// prefix/ip/route vocabulary, each section in canonical order.
    fn checkpoint(&self) -> Vec<u8> {
        use bgp_types::codec::{ip_sort_key, prefix_sort_key, put_ip, put_prefix, put_route};

        let mut out = BytesMut::new();
        out.put_u8(1); // version
        out.put_u16(narrow(
            self.collector.len(),
            "rt checkpoint collector name length",
        ));
        out.put_slice(self.collector.as_bytes());

        let mut vps: Vec<(&IpAddr, &VpTable)> = self.vps.iter().collect();
        vps.sort_by_key(|(ip, _)| ip_sort_key(ip));
        out.put_u32(narrow(vps.len(), "rt checkpoint vantage point count"));
        for (ip, vp) in vps {
            put_ip(&mut out, ip);
            out.put_u32(vp.asn.0);
            out.put_u8(vp.state.code());
            out.put_u8(vp.rib_seen as u8);
            out.put_u8(vp.check_ok as u8);
            let mut cells: Vec<(&Prefix, &Cell)> = vp.cells.iter().collect();
            cells.sort_by_key(|(p, _)| prefix_sort_key(p));
            out.put_u32(narrow(cells.len(), "rt checkpoint cell count"));
            for (prefix, cell) in cells {
                put_prefix(&mut out, prefix);
                put_route(&mut out, cell.main.as_ref().map(|r| &r.path));
                out.put_u64(cell.main_ts);
                match &cell.shadow {
                    None => out.put_u8(0),
                    Some((route, ts)) => {
                        out.put_u8(1);
                        put_route(&mut out, route.as_ref().map(|r| &r.path));
                        out.put_u64(*ts);
                    }
                }
            }
        }

        let mut dirty: Vec<(&(IpAddr, Prefix), &Option<CellRoute>)> = self.dirty.iter().collect();
        dirty.sort_by_key(|((ip, p), _)| (ip_sort_key(ip), prefix_sort_key(p)));
        out.put_u32(narrow(dirty.len(), "rt checkpoint dirty cell count"));
        for ((ip, prefix), prev) in dirty {
            put_ip(&mut out, ip);
            put_prefix(&mut out, prefix);
            put_route(&mut out, prev.as_ref().map(|r| &r.path));
        }

        out.put_u64(self.elems_in_bin);
        out.put_u8(self.rib_active as u8);
        out.put_u8(self.rib_corrupted as u8);
        out.put_u64(self.rib_start_ts);
        out.put_u8(self.updates_poisoned as u8);
        out.put_u64(self.bins_since_full);
        match &self.pending_partial {
            None => out.put_u8(0),
            Some(p) => {
                out.put_u8(1);
                out.put_u32(narrow(p.len(), "rt checkpoint pending partial length"));
                out.put_slice(p);
            }
        }
        for stats in [&self.err_reported, &self.error_stats] {
            out.put_u64(stats.cells_checked);
            out.put_u64(stats.cells_mismatched);
        }
        out.put_u32(narrow(
            self.bin_series.len(),
            "rt checkpoint bin series length",
        ));
        for s in &self.bin_series {
            out.put_u64(s.bin);
            out.put_u64(s.elems);
            out.put_u64(s.diff_cells);
        }
        out.into()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.restore_from(bytes).map_err(|e| e.to_string())
    }
}

impl RtPlugin {
    /// [`Plugin::restore`] with the codec's own error. Nothing is
    /// applied unless the whole checkpoint decodes.
    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes, "rt checkpoint");
        if r.u8()? != 1 {
            return Err(CodecError::Invalid("rt checkpoint version"));
        }
        if r.str16()? != self.collector {
            return Err(CodecError::Invalid("rt checkpoint collector"));
        }

        // ip + asn + state/rib_seen/check_ok + cell count
        let n = r.count(17 + 4 + 3 + 4)?;
        let mut vps = FxHashMap::default();
        for _ in 0..n {
            let ip = r.ip()?;
            let asn = Asn(r.u32()?);
            let state = MacroState::from_code(r.u8()?)
                .ok_or(CodecError::Invalid("rt checkpoint macro state"))?;
            let rib_seen = r.u8()? == 1;
            let check_ok = r.u8()? == 1;
            // prefix + route + main_ts + shadow flag
            let cell_count = r.count(18 + 2 + 8 + 1)?;
            let mut cells = FxHashMap::default();
            for _ in 0..cell_count {
                let prefix = r.prefix()?;
                let cell = Cell {
                    main: r.route()?.map(|path| CellRoute { path }),
                    main_ts: r.u64()?,
                    shadow: match r.u8()? {
                        1 => Some((r.route()?.map(|path| CellRoute { path }), r.u64()?)),
                        _ => None,
                    },
                };
                cells.insert(prefix, cell);
            }
            vps.insert(
                ip,
                VpTable {
                    asn,
                    state,
                    cells,
                    rib_seen,
                    check_ok,
                },
            );
        }

        let n = r.count(17 + 18 + 2)?;
        let mut dirty = FxHashMap::default();
        for _ in 0..n {
            let key = (r.ip()?, r.prefix()?);
            dirty.insert(key, r.route()?.map(|path| CellRoute { path }));
        }

        let elems_in_bin = r.u64()?;
        let rib_active = r.u8()? == 1;
        let rib_corrupted = r.u8()? == 1;
        let rib_start_ts = r.u64()?;
        let updates_poisoned = r.u8()? == 1;
        let bins_since_full = r.u64()?;
        let pending_partial = match r.u8()? {
            1 => {
                let len = r.u32()? as usize;
                Some(r.bytes(len)?.to_vec())
            }
            _ => None,
        };
        let err_reported = RtErrorStats {
            cells_checked: r.u64()?,
            cells_mismatched: r.u64()?,
        };
        let error_stats = RtErrorStats {
            cells_checked: r.u64()?,
            cells_mismatched: r.u64()?,
        };
        let n = r.count(24)?;
        let mut bin_series = Vec::with_capacity(n);
        for _ in 0..n {
            bin_series.push(RtBinStats {
                bin: r.u64()?,
                elems: r.u64()?,
                diff_cells: r.u64()?,
            });
        }
        r.finish()?;

        self.vps = vps;
        self.dirty = dirty;
        self.elems_in_bin = elems_in_bin;
        self.rib_active = rib_active;
        self.rib_corrupted = rib_corrupted;
        self.rib_start_ts = rib_start_ts;
        self.updates_poisoned = updates_poisoned;
        self.bins_since_full = bins_since_full;
        self.pending_partial = pending_partial;
        self.err_reported = err_reported;
        self.bin_series = bin_series;
        self.error_stats = error_stats;
        Ok(())
    }

    /// Every announced cell of every available VP (the `Full` message
    /// body), unsorted.
    fn full_cells(&self) -> Vec<DiffCell> {
        let mut cells = Vec::new();
        for vp in self.vps.values() {
            if !vp.state.table_available() {
                continue;
            }
            for (prefix, cell) in &vp.cells {
                if let Some(route) = &cell.main {
                    cells.push(DiffCell {
                        vp: vp.asn,
                        prefix: *prefix,
                        path: Some(route.path.clone()),
                    });
                }
            }
        }
        cells
    }

    /// Publish one bin's outputs to the queue (no-op without one).
    /// Shared by the sequential `end_bin` and the sharded merge, so
    /// both paths emit identical message sequences.
    fn publish(&self, bin_start: u64, diff: Vec<DiffCell>, full: Option<Vec<DiffCell>>) {
        let Some(mq) = &self.mq else { return };
        let msg = RtMessage::Diff {
            collector: self.collector.clone(),
            bin: bin_start,
            cells: diff,
        };
        mq.produce("rt.tables", &self.collector, bin_start, msg.encode());
        if let Some(cells) = full {
            let full = RtMessage::Full {
                collector: self.collector.clone(),
                bin: bin_start,
                cells,
            };
            mq.produce("rt.tables", &self.collector, bin_start, full.encode());
        }
        mq.produce(
            "rt.meta",
            &self.collector,
            bin_start,
            encode_meta(&self.collector, bin_start),
        );
    }
}

impl ShardedPlugin for RtPlugin {
    fn fork(&self, _shard: usize, _shards: usize) -> Box<dyn ShardedPlugin> {
        let mut fresh = RtPlugin::new(&self.collector);
        // Shards compute full-table cells only if the root will
        // actually publish them.
        fresh.full_every_bins = if self.mq.is_some() {
            self.full_every_bins
        } else {
            0
        };
        fresh.collect_partials = true;
        Box::new(fresh)
    }

    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        self.process_impl(record, Some(mask));
    }

    fn take_partial(&mut self) -> Vec<u8> {
        self.pending_partial
            .take()
            // xcheck:allow(unwrap) — protocol: end_bin always precedes take_partial
            .expect("take_partial follows end_bin on a shard instance")
    }

    fn merge_bin(&mut self, bin_start: u64, _bin_end: u64, partials: Vec<Vec<u8>>) {
        let mut counts = [0u64; 3];
        let mut diff: Vec<DiffCell> = Vec::new();
        let mut full: Option<Vec<DiffCell>> = None;
        for partial in &partials {
            let merged = merge_partial(partial, &mut counts, &mut diff, &mut full);
            // xcheck:allow(unwrap) — partials are produced by our own take_partial
            merged.expect("well-formed shard partial");
        }
        let [elems, checked, mismatched] = counts;
        // VPs are disjoint across shards, so concatenation + canonical
        // sort reproduces the sequential cell lists exactly.
        sort_cells(&mut diff);
        if let Some(cells) = &mut full {
            sort_cells(cells);
        }
        self.bin_series.push(RtBinStats {
            bin: bin_start,
            elems,
            diff_cells: diff.len() as u64,
        });
        self.error_stats.cells_checked += checked;
        self.error_stats.cells_mismatched += mismatched;
        self.publish(bin_start, diff, full);
    }
}

/// Add one shard partial, as a shard's `end_bin` writes it, to a bin's
/// merge: the elem, checked and mismatched counters, the diff cells,
/// and the full-table cells when the bin published one.
fn merge_partial(
    bytes: &[u8],
    counts: &mut [u64; 3],
    diff: &mut Vec<DiffCell>,
    full: &mut Option<Vec<DiffCell>>,
) -> Result<(), CodecError> {
    let mut r = Reader::new(bytes, "rt shard partial");
    for count in counts.iter_mut() {
        *count += r.u64()?;
    }
    diff.extend(decode_cells(&mut r)?);
    if r.u8()? == 1 {
        full.get_or_insert_with(Vec::new)
            .extend(decode_cells(&mut r)?);
    }
    r.finish()
}

/// The VP's table, created `Down` on first sighting; a VP first seen
/// mid-RIB joins the dump being applied.
fn vp_entry(vps: &mut FxHashMap<IpAddr, VpTable>, rib: bool, ip: IpAddr, asn: Asn) -> &mut VpTable {
    vps.entry(ip).or_insert_with(|| VpTable {
        asn,
        state: match rib {
            true => step(MacroState::Down, VpEvent::RibBegin).0,
            false => MacroState::Down,
        },
        cells: FxHashMap::default(),
        rib_seen: false,
        check_ok: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::SessionState;
    use bgpstream::record::{DumpPosition, RecordStatus};
    use bgpstream::BgpStreamElem;

    const VP: &str = "10.1.0.1";

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn vp_ip() -> IpAddr {
        VP.parse().unwrap()
    }

    fn rec(
        ts: u64,
        dump_type: DumpType,
        position: DumpPosition,
        status: RecordStatus,
        elems: Vec<BgpStreamElem>,
    ) -> BgpStreamRecord {
        BgpStreamRecord::new("ris", "rrc00", dump_type, 0, ts, position, status, elems)
    }

    fn elem(ty: ElemType, ts: u64, prefix: &str, path: &[u32]) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ty,
            time: ts,
            peer_address: vp_ip(),
            peer_asn: Asn(65001),
            prefix: Some(p(prefix)),
            next_hop: None,
            as_path: if path.is_empty() {
                None
            } else {
                Some(AsPath::from_sequence(path.iter().copied()))
            },
            communities: None,
            old_state: None,
            new_state: None,
        }
    }

    fn state_elem(ts: u64, new_state: SessionState) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::PeerState,
            prefix: None,
            old_state: Some(SessionState::Established),
            new_state: Some(new_state),
            ..elem(ElemType::PeerState, ts, "0.0.0.0/0", &[])
        }
    }

    /// A 2-record RIB dump carrying one route.
    fn feed_rib(rt: &mut RtPlugin, ts: u64, prefix: &str, path: &[u32]) {
        rt.process_record(&rec(
            ts,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            ts,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, ts, prefix, path)],
        ));
    }

    #[test]
    fn fsm_walks_down_rib_up() {
        let mut rt = RtPlugin::new("rrc00");
        assert_eq!(rt.vp_state(vp_ip()), None);
        rt.process_record(&rec(
            100,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            100,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, 100, "10.0.0.0/8", &[65001, 137])],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::DownRibApplication));
        rt.process_record(&rec(
            101,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
    }

    #[test]
    fn updates_evolve_the_table() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        rt.process_record(&rec(
            200,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                200,
                "20.0.0.0/16",
                &[65001, 9],
            )],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 2);
        rt.process_record(&rec(
            210,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Withdrawal, 210, "10.0.0.0/8", &[])],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
    }

    #[test]
    fn e1_corrupted_rib_is_ignored_entirely() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        // Second RIB claims a different path but contains a corrupted
        // record: it must be discarded; the table keeps the old path.
        rt.process_record(&rec(
            500,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            500,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, 500, "10.0.0.0/8", &[65001, 666])],
        ));
        rt.process_record(&rec(
            501,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::CorruptedRecord,
            vec![],
        ));
        rt.process_record(&rec(
            502,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        // Route unchanged (old path), and no accuracy penalty counted.
        let errs = rt.error_stats;
        assert_eq!(errs.cells_checked, 0);
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
    }

    #[test]
    fn e2_stale_rib_rows_do_not_overwrite_newer_updates() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        // An update at t=600 changes the path.
        rt.process_record(&rec(
            600,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                600,
                "10.0.0.0/8",
                &[65001, 42],
            )],
        ));
        // A RIB whose records carry OLDER timestamps (out-of-order
        // publication): must not clobber the newer update.
        feed_rib(&mut rt, 550, "10.0.0.0/8", &[65001, 137]);
        // Table must still hold the t=600 path: check via diff series.
        rt.end_bin(0, 3600);
        // The final value (path 42) vs pre-bin value (none → announced)
        // is one diff; crucially the *stale* RIB didn't revert it.
        // Verify by re-announcing the same path: no new diff.
        rt.process_record(&rec(
            700,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                700,
                "10.0.0.0/8",
                &[65001, 42],
            )],
        ));
        rt.end_bin(3600, 7200);
        assert_eq!(rt.bin_series.last().unwrap().diff_cells, 0);
    }

    #[test]
    fn e3_corrupted_update_poisons_until_next_rib() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        rt.process_record(&rec(
            200,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::CorruptedRecord,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Down));
        // Updates while poisoned are not applied.
        rt.process_record(&rec(
            210,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement, 210, "30.0.0.0/8", &[65001, 9])],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 1);
        // A clean RIB restores processing.
        feed_rib(&mut rt, 300, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        rt.process_record(&rec(
            400,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement, 400, "30.0.0.0/8", &[65001, 9])],
        ));
        assert_eq!(rt.vp_table_size(vp_ip()), 2);
    }

    #[test]
    fn e4_state_messages_force_transitions() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        rt.process_record(&rec(
            200,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![state_elem(200, SessionState::Idle)],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Down));
        assert_eq!(rt.vp_table_size(vp_ip()), 0, "down VP's table cleared");
        rt.process_record(&rec(
            300,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![state_elem(300, SessionState::Established)],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
    }

    #[test]
    fn vp_missing_from_rib_is_declared_down() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Up));
        // Next RIB has no rows for this VP (e.g. RouteViews VP died
        // silently).
        rt.process_record(&rec(
            500,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            501,
            DumpType::Rib,
            DumpPosition::End,
            RecordStatus::Valid,
            vec![],
        ));
        assert_eq!(rt.vp_state(vp_ip()), Some(MacroState::Down));
        assert_eq!(rt.vp_table_size(vp_ip()), 0);
    }

    #[test]
    fn accuracy_check_counts_mismatches() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        // Second RIB agrees → checked, no mismatch.
        feed_rib(&mut rt, 500, "10.0.0.0/8", &[65001, 137]);
        assert_eq!(rt.error_stats.cells_checked, 1);
        assert_eq!(rt.error_stats.cells_mismatched, 0);
        // Third RIB disagrees (we "missed" an update) → mismatch.
        feed_rib(&mut rt, 900, "10.0.0.0/8", &[65001, 42]);
        assert_eq!(rt.error_stats.cells_checked, 2);
        assert_eq!(rt.error_stats.cells_mismatched, 1);
        assert!(rt.error_stats.error_probability() > 0.0);
    }

    #[test]
    fn diff_cells_dedupe_within_bin_and_ignore_flap_backs() {
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 0, "10.0.0.0/8", &[65001, 137]);
        rt.end_bin(0, 60); // absorb RIB-application diffs
        let announce = |rt: &mut RtPlugin, ts: u64, path: &[u32]| {
            rt.process_record(&rec(
                ts,
                DumpType::Updates,
                DumpPosition::Middle,
                RecordStatus::Valid,
                vec![elem(ElemType::Announcement, ts, "10.0.0.0/8", path)],
            ));
        };
        // Path flaps A→B→A within one bin: zero diffs.
        announce(&mut rt, 70, &[65001, 42]);
        announce(&mut rt, 80, &[65001, 137]);
        rt.end_bin(60, 120);
        let s = rt.bin_series.last().unwrap();
        assert_eq!(s.elems, 2);
        assert_eq!(s.diff_cells, 0);
        // A single real change: one diff despite two updates.
        announce(&mut rt, 130, &[65001, 42]);
        announce(&mut rt, 140, &[65001, 42]);
        rt.end_bin(120, 180);
        let s = rt.bin_series.last().unwrap();
        assert_eq!(s.elems, 2);
        assert_eq!(s.diff_cells, 1);
    }

    #[test]
    fn queue_publication_emits_diffs_and_meta() {
        let mq = Cluster::shared();
        let mut rt = RtPlugin::new("rrc00").with_queue(mq.clone(), 2);
        feed_rib(&mut rt, 0, "10.0.0.0/8", &[65001, 137]);
        rt.end_bin(0, 60);
        rt.end_bin(60, 120); // triggers a Full (every 2 bins)
        let msgs = mq.fetch("rt.tables", 0, 0, 10);
        assert!(msgs.len() >= 2);
        let first = RtMessage::decode(&msgs[0].payload).unwrap();
        assert!(matches!(first, RtMessage::Diff { .. }));
        assert_eq!(first.cells().len(), 1);
        let has_full = msgs
            .iter()
            .any(|m| matches!(RtMessage::decode(&m.payload), Ok(RtMessage::Full { .. })));
        assert!(has_full, "no full table published");
        assert_eq!(mq.stats("rt.meta").messages, 2);
    }

    #[test]
    fn records_from_other_collectors_are_ignored() {
        let mut rt = RtPlugin::new("rrc00");
        let mut other = rec(
            10,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Announcement, 10, "10.0.0.0/8", &[65001, 1])],
        );
        other.source = broker::SourceId::intern("ris", "rrc99", DumpType::Updates);
        rt.process_record(&other);
        assert_eq!(rt.vp_state(vp_ip()), None);
    }

    #[test]
    fn shard_partials_refuse_every_truncation() {
        let mut shard = RtPlugin::new("rrc00").with_queue(Cluster::shared(), 1);
        shard.collect_partials = true;
        feed_rib(&mut shard, 0, "10.0.0.0/8", &[65001, 137]);
        shard.end_bin(0, 60);
        let partial = shard.take_partial();
        for cut in 0..partial.len() {
            let merged = merge_partial(&partial[..cut], &mut [0; 3], &mut vec![], &mut None);
            assert!(merged.is_err(), "{cut}-byte prefix accepted");
        }
        let (mut diff, mut full) = (vec![], None);
        merge_partial(&partial, &mut [0; 3], &mut diff, &mut full).unwrap();
        assert_eq!(diff.len(), 1);
        assert_eq!(full.map(|cells| cells.len()), Some(1));
    }

    #[test]
    fn checkpoint_restores_tables_fsm_and_series_byte_identically() {
        // Build non-trivial state: a table, an in-flight updates bin
        // with dirty cells, a closed bin in the series, and a shadow
        // RIB application left open mid-dump.
        let mut rt = RtPlugin::new("rrc00");
        feed_rib(&mut rt, 100, "10.0.0.0/8", &[65001, 137]);
        rt.process_record(&rec(
            130,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(
                ElemType::Announcement,
                130,
                "20.0.0.0/16",
                &[65001, 9],
            )],
        ));
        rt.end_bin(120, 180);
        rt.process_record(&rec(
            190,
            DumpType::Updates,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::Withdrawal, 190, "10.0.0.0/8", &[])],
        ));
        // Leave a RIB application open so shadow cells are live.
        rt.process_record(&rec(
            200,
            DumpType::Rib,
            DumpPosition::Start,
            RecordStatus::Valid,
            vec![],
        ));
        rt.process_record(&rec(
            200,
            DumpType::Rib,
            DumpPosition::Middle,
            RecordStatus::Valid,
            vec![elem(ElemType::RibEntry, 200, "20.0.0.0/16", &[65001, 9])],
        ));

        let ckpt = rt.checkpoint();
        let mut restored = RtPlugin::new("rrc00");
        restored.restore(&ckpt).expect("restore");
        assert_eq!(restored.checkpoint(), ckpt);

        // Both instances must continue byte-identically: finish the
        // dump, evolve the table, close the bin.
        for plugin in [&mut rt, &mut restored] {
            plugin.process_record(&rec(
                201,
                DumpType::Rib,
                DumpPosition::End,
                RecordStatus::Valid,
                vec![],
            ));
            plugin.process_record(&rec(
                210,
                DumpType::Updates,
                DumpPosition::Middle,
                RecordStatus::Valid,
                vec![elem(
                    ElemType::Announcement,
                    210,
                    "30.0.0.0/24",
                    &[65001, 2],
                )],
            ));
            plugin.end_bin(180, 240);
        }
        assert_eq!(rt.bin_series, restored.bin_series);
        assert_eq!(rt.error_stats, restored.error_stats);
        assert_eq!(rt.checkpoint(), restored.checkpoint());

        // A different collector's instance must refuse the checkpoint,
        // and torn checkpoints must fail loudly rather than restore a
        // partial table.
        let mut wrong = RtPlugin::new("rrc01");
        assert!(wrong.restore(&ckpt).is_err());
        let mut fresh = RtPlugin::new("rrc00");
        assert!(fresh.restore(&ckpt[..ckpt.len() - 1]).is_err());
        assert!(fresh.restore(&[]).is_err());
    }
}
