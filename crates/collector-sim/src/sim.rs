//! The collector simulator: virtual-time event loop that maintains VP
//! Adj-RIB-Out images and emits MRT dump files.

use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;
use std::sync::Arc;

use bgp_types::{Asn, BgpMessage, BgpUpdate, PathAttributes, Prefix, SessionState};
use broker::index::DumpMeta;
use broker::{DumpType, Index};
use mrt::table_dump_v2::TableDumpV2;
use mrt::{Bgp4mp, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable, RibEntry, RibRow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::control::{ControlPlane, Route};
use topology::events::{Event, Scenario};
use topology::routing::RouteClass;

use crate::archive;
use crate::project::ProjectSpec;

/// One vantage point peering with a collector.
#[derive(Clone, Copy, Debug)]
pub struct VpSpec {
    /// The VP's AS number (must exist in the topology).
    pub asn: Asn,
    /// Full-feed VPs export their whole Loc-RIB; partial-feed VPs only
    /// export their own and customer-learned routes (§2).
    pub full_feed: bool,
}

/// One collector: a name, a project (cadences) and its VPs.
#[derive(Clone, Debug)]
pub struct CollectorSpec {
    /// Collector name (e.g. "rrc01", "route-views2").
    pub name: String,
    /// Collection project parameters.
    pub project: ProjectSpec,
    /// The VPs this collector peers with.
    pub vps: Vec<VpSpec>,
}

/// Fault-injection parameters.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability a written dump file is truncated (corrupted).
    pub truncate_prob: f64,
    /// Probability a scheduled RIB dump silently never appears in the
    /// archive — the paper observes both repositories "occasionally
    /// miss RIB dumps (34 per year on average)" (§5).
    pub skip_rib_prob: f64,
    /// Publication delay bounds: a file covering `[t, t+period)` is
    /// available at `t + period + U(min, max)` — the paper measures
    /// 99 % of updates available within 20 minutes of dump start.
    pub pub_delay_min: u64,
    /// Upper bound of the publication delay.
    pub pub_delay_max: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            truncate_prob: 0.0,
            skip_rib_prob: 0.0,
            pub_delay_min: 30,
            pub_delay_max: 120,
        }
    }
}

/// Simulator parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Archive root directory.
    pub archive_root: PathBuf,
    /// Virtual start time (seconds).
    pub start_time: u64,
    /// RNG seed (jitter, delays, faults).
    pub seed: u64,
    /// Emit Updates dumps.
    pub emit_updates: bool,
    /// Emit RIB dumps on the project cadence.
    pub emit_ribs: bool,
    /// RIB rows written per second of record timestamp (rows of one
    /// dump carry increasing timestamps, as real collectors do).
    pub rib_rows_per_sec: u64,
    /// Fault injection.
    pub faults: FaultConfig,
}

impl SimConfig {
    /// A config rooted at `dir` starting at time 0.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SimConfig {
            archive_root: dir.into(),
            start_time: 0,
            seed: 7,
            emit_updates: true,
            emit_ribs: true,
            rib_rows_per_sec: 500,
            faults: FaultConfig::default(),
        }
    }
}

#[derive(Clone, Debug)]
struct TableEntry {
    route: Route,
    since: u64,
}

struct VpState {
    asn: Asn,
    ip: IpAddr,
    full_feed: bool,
    up: bool,
    table: HashMap<Prefix, TableEntry>,
}

struct CollectorState {
    spec: CollectorSpec,
    local_ip: IpAddr,
    vps: Vec<VpState>,
    pending: Vec<(u64, MrtRecord)>,
    window_start: u64,
    next_rib: u64,
}

#[derive(Clone, Copy, Debug)]
struct SessionEvent {
    time: u64,
    collector: usize,
    vp: Asn,
    up: bool,
}

/// Aggregate emission statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Dump files written.
    pub files: u64,
    /// MRT records written.
    pub records: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Files intentionally truncated by fault injection.
    pub truncated_files: u64,
    /// RIB dumps silently skipped by fault injection.
    pub skipped_ribs: u64,
}

/// The collector-side simulator (see crate docs).
pub struct Simulator {
    cp: ControlPlane,
    collectors: Vec<CollectorState>,
    cfg: SimConfig,
    rng: SmallRng,
    index: Option<Arc<Index>>,
    now: u64,
    events: VecDeque<Event>,
    session_events: VecDeque<SessionEvent>,
    manifest: Vec<DumpMeta>,
    stats: SimStats,
}

impl Simulator {
    /// Build a simulator; advances the control plane to
    /// `cfg.start_time` and initialises every VP table (without
    /// emitting updates).
    pub fn new(mut cp: ControlPlane, collectors: Vec<CollectorSpec>, cfg: SimConfig) -> Self {
        cp.advance_to(cfg.start_time);
        let announced = cp.announced_prefixes();
        let states = collectors
            .into_iter()
            .enumerate()
            .map(|(ci, spec)| {
                let local_ip = IpAddr::V4(Ipv4Addr::new(10, ci as u8 + 1, 255, 254));
                let vps = spec
                    .vps
                    .iter()
                    .enumerate()
                    .map(|(vi, v)| {
                        let ip = IpAddr::V4(Ipv4Addr::new(10, ci as u8 + 1, vi as u8, 1));
                        let mut table = HashMap::new();
                        for p in &announced {
                            if let Some(r) = feed_route(&mut cp, v, p) {
                                table.insert(
                                    *p,
                                    TableEntry {
                                        route: r,
                                        since: cfg.start_time,
                                    },
                                );
                            }
                        }
                        VpState {
                            asn: v.asn,
                            ip,
                            full_feed: v.full_feed,
                            up: true,
                            table,
                        }
                    })
                    .collect();
                CollectorState {
                    local_ip,
                    vps,
                    pending: Vec::new(),
                    window_start: cfg.start_time,
                    next_rib: cfg.start_time, // first RIB dumped immediately
                    spec,
                }
            })
            .collect();
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let now = cfg.start_time;
        Simulator {
            cp,
            collectors: states,
            cfg,
            rng,
            index: None,
            now,
            events: VecDeque::new(),
            session_events: VecDeque::new(),
            manifest: Vec::new(),
            stats: SimStats::default(),
        }
    }

    /// Register published files with a live broker index.
    pub fn attach_index(&mut self, index: Arc<Index>) {
        self.index = Some(index);
    }

    /// Queue a scenario's events (merged with anything queued before).
    pub fn schedule(&mut self, scenario: &Scenario) {
        let mut all: Vec<Event> = self.events.drain(..).collect();
        all.extend(scenario.sorted());
        all.sort_by_key(|e| e.time);
        self.events = all.into();
    }

    /// Schedule a VP session reset: down at `time`, up again after
    /// `downtime` seconds.
    pub fn schedule_session_reset(&mut self, time: u64, collector: usize, vp: Asn, downtime: u64) {
        let mut all: Vec<SessionEvent> = self.session_events.drain(..).collect();
        all.push(SessionEvent {
            time,
            collector,
            vp,
            up: false,
        });
        all.push(SessionEvent {
            time: time + downtime,
            collector,
            vp,
            up: true,
        });
        all.sort_by_key(|e| e.time);
        self.session_events = all.into();
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Emission statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Everything published so far.
    pub fn manifest(&self) -> &[DumpMeta] {
        &self.manifest
    }

    /// Mutable access to the control plane (for analyses sharing the
    /// simulator's world).
    pub fn control_plane(&mut self) -> &mut ControlPlane {
        &mut self.cp
    }

    /// The VP AS numbers of collector `ci` (empty if out of range).
    pub fn vps_of(&self, ci: usize) -> Vec<Asn> {
        self.collectors
            .get(ci)
            .map(|c| c.vps.iter().map(|v| v.asn).collect())
            .unwrap_or_default()
    }

    /// Write the archive's CSV manifest.
    pub fn write_manifest(&self) -> std::io::Result<PathBuf> {
        archive::write_manifest(&self.cfg.archive_root, &self.manifest)
    }

    /// Drive the simulation to `t_end` (inclusive), dispatching dump
    /// rotations, RIB dumps, session events and scenario events in
    /// time order.
    pub fn run_until(&mut self, t_end: u64) {
        loop {
            // Candidate action times; fixed dispatch priority on ties:
            // update flush, RIB dump, session event, scenario event.
            let flush = if self.cfg.emit_updates {
                self.collectors
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (c.window_start + c.spec.project.updates_period, i))
                    .min()
            } else {
                None
            };
            let rib = if self.cfg.emit_ribs {
                self.collectors
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (c.next_rib, i))
                    .min()
            } else {
                None
            };
            let sess = self.session_events.front().map(|e| e.time);
            let ev = self.events.front().map(|e| e.time);

            let mut best: Option<(u64, u8)> = None; // (time, priority)
            let mut consider = |t: Option<u64>, prio: u8| {
                if let Some(t) = t {
                    if best.is_none_or(|(bt, bp)| (t, prio) < (bt, bp)) {
                        best = Some((t, prio));
                    }
                }
            };
            consider(flush.map(|(t, _)| t), 0);
            consider(rib.map(|(t, _)| t), 1);
            consider(sess, 2);
            consider(ev, 3);

            let Some((t, prio)) = best else { break };
            if t > t_end {
                break;
            }
            self.now = t;
            match prio {
                0 => {
                    let (bound, ci) = flush.unwrap();
                    let born = self.cp.advance_to(bound);
                    if !born.is_empty() {
                        self.apply_route_changes(bound, &born);
                    }
                    self.flush_updates(ci, bound);
                }
                1 => {
                    let (at, ci) = rib.unwrap();
                    self.cp.advance_to(at);
                    self.dump_rib(ci, at);
                    let period = self.collectors[ci].spec.project.rib_period;
                    self.collectors[ci].next_rib = at + period;
                }
                2 => {
                    let se = self.session_events.pop_front().unwrap();
                    self.apply_session_event(se);
                }
                _ => {
                    let ev = self.events.pop_front().unwrap();
                    let affected = self.cp.apply(&ev);
                    self.apply_route_changes(ev.time, &affected);
                }
            }
        }
        self.cp.advance_to(t_end);
        self.now = t_end;
    }

    /// Force a RIB dump on every collector at time `t`, refreshing VP
    /// tables from the control plane first. Used by longitudinal
    /// (RIB-only) workloads.
    pub fn force_rib_dump(&mut self, t: u64) {
        self.cp.advance_to(t);
        self.now = self.now.max(t);
        let announced = self.cp.announced_prefixes();
        for ci in 0..self.collectors.len() {
            for vi in 0..self.collectors[ci].vps.len() {
                if !self.collectors[ci].vps[vi].up {
                    continue;
                }
                let spec = VpSpec {
                    asn: self.collectors[ci].vps[vi].asn,
                    full_feed: self.collectors[ci].vps[vi].full_feed,
                };
                let mut table = HashMap::with_capacity(announced.len());
                for p in &announced {
                    if let Some(r) = feed_route(&mut self.cp, &spec, p) {
                        let since = self.collectors[ci].vps[vi]
                            .table
                            .get(p)
                            .filter(|e| e.route == r)
                            .map(|e| e.since)
                            .unwrap_or(t);
                        table.insert(*p, TableEntry { route: r, since });
                    }
                }
                self.collectors[ci].vps[vi].table = table;
            }
            self.dump_rib(ci, t);
        }
    }

    fn apply_session_event(&mut self, se: SessionEvent) {
        let t = se.time;
        let ci = se.collector;
        let Some(vi) = self.collectors[ci].vps.iter().position(|v| v.asn == se.vp) else {
            return;
        };
        let dumps_state = self.collectors[ci].spec.project.dumps_state_messages;
        let local_asn = Asn(self.collectors[ci].spec.project.collector_asn);
        let local_ip = self.collectors[ci].local_ip;
        let (peer_ip, full_feed) = {
            let vp = &self.collectors[ci].vps[vi];
            (vp.ip, vp.full_feed)
        };
        if !se.up {
            self.collectors[ci].vps[vi].up = false;
            self.collectors[ci].vps[vi].table.clear();
            if dumps_state && self.cfg.emit_updates {
                let rec = MrtRecord::bgp4mp(
                    t as u32,
                    Bgp4mp::StateChange {
                        peer_asn: se.vp,
                        local_asn,
                        peer_ip,
                        local_ip,
                        old_state: SessionState::Established,
                        new_state: SessionState::Idle,
                    },
                );
                self.collectors[ci].pending.push((t, rec));
            }
        } else {
            self.collectors[ci].vps[vi].up = true;
            if dumps_state && self.cfg.emit_updates {
                let mut prev = SessionState::Idle;
                for (k, st) in SessionState::bring_up_sequence().into_iter().enumerate() {
                    let ts = t + k as u64;
                    let rec = MrtRecord::bgp4mp(
                        ts as u32,
                        Bgp4mp::StateChange {
                            peer_asn: se.vp,
                            local_asn,
                            peer_ip,
                            local_ip,
                            old_state: prev,
                            new_state: st,
                        },
                    );
                    self.collectors[ci].pending.push((ts, rec));
                    prev = st;
                }
            }
            // Table re-announcement burst.
            let spec = VpSpec {
                asn: se.vp,
                full_feed,
            };
            let announced = self.cp.announced_prefixes();
            let mut table = HashMap::new();
            for (k, p) in announced.iter().enumerate() {
                if let Some(r) = feed_route(&mut self.cp, &spec, p) {
                    let ts = t + 5 + (k as u64 % 60);
                    if self.cfg.emit_updates {
                        let rec = announce_record(ts, se.vp, local_asn, peer_ip, local_ip, *p, &r);
                        self.collectors[ci].pending.push((ts, rec));
                    }
                    table.insert(
                        *p,
                        TableEntry {
                            route: r,
                            since: ts,
                        },
                    );
                }
            }
            self.collectors[ci].vps[vi].table = table;
        }
    }

    /// Re-evaluate `prefixes` at every up VP, emitting update records
    /// for changes.
    fn apply_route_changes(&mut self, t: u64, prefixes: &[Prefix]) {
        for ci in 0..self.collectors.len() {
            let local_asn = Asn(self.collectors[ci].spec.project.collector_asn);
            let local_ip = self.collectors[ci].local_ip;
            for vi in 0..self.collectors[ci].vps.len() {
                if !self.collectors[ci].vps[vi].up {
                    continue;
                }
                let (vp_asn, vp_ip, full_feed) = {
                    let vp = &self.collectors[ci].vps[vi];
                    (vp.asn, vp.ip, vp.full_feed)
                };
                let spec = VpSpec {
                    asn: vp_asn,
                    full_feed,
                };
                for p in prefixes {
                    let new = feed_route(&mut self.cp, &spec, p);
                    let old = self.collectors[ci].vps[vi].table.get(p).map(|e| &e.route);
                    if old == new.as_ref() {
                        continue;
                    }
                    let ts = t + jitter(vp_asn, p);
                    match new {
                        Some(r) => {
                            if self.cfg.emit_updates {
                                let rec =
                                    announce_record(ts, vp_asn, local_asn, vp_ip, local_ip, *p, &r);
                                self.collectors[ci].pending.push((ts, rec));
                            }
                            self.collectors[ci].vps[vi].table.insert(
                                *p,
                                TableEntry {
                                    route: r,
                                    since: ts,
                                },
                            );
                        }
                        None => {
                            if self.cfg.emit_updates {
                                let rec =
                                    withdraw_record(ts, vp_asn, local_asn, vp_ip, local_ip, *p);
                                self.collectors[ci].pending.push((ts, rec));
                            }
                            self.collectors[ci].vps[vi].table.remove(p);
                        }
                    }
                }
            }
        }
    }

    /// Rotate the updates dump of collector `ci` at window boundary
    /// `bound`.
    fn flush_updates(&mut self, ci: usize, bound: u64) {
        let window_start = self.collectors[ci].window_start;
        let period = self.collectors[ci].spec.project.updates_period;
        debug_assert_eq!(window_start + period, bound);

        let mut due: Vec<(u64, MrtRecord)> = Vec::new();
        let mut later: Vec<(u64, MrtRecord)> = Vec::new();
        for item in self.collectors[ci].pending.drain(..) {
            if item.0 < bound {
                due.push(item);
            } else {
                later.push(item);
            }
        }
        self.collectors[ci].pending = later;
        due.sort_by_key(|(ts, _)| *ts);

        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            for (_, rec) in &due {
                w.write(rec).expect("in-memory write");
            }
        }
        self.publish(ci, DumpType::Updates, window_start, period, bound, buf);
        self.collectors[ci].window_start = bound;
    }

    /// Dump the RIB of collector `ci` at time `t`.
    fn dump_rib(&mut self, ci: usize, t: u64) {
        if self.cfg.faults.skip_rib_prob > 0.0
            && self.rng.gen::<f64>() < self.cfg.faults.skip_rib_prob
        {
            self.stats.skipped_ribs += 1;
            return;
        }
        let peers: Vec<PeerEntry> = self.collectors[ci]
            .vps
            .iter()
            .map(|v| PeerEntry {
                bgp_id: match v.ip {
                    IpAddr::V4(ip) => u32::from(ip),
                    IpAddr::V6(_) => 0,
                },
                ip: v.ip,
                asn: v.asn,
            })
            .collect();
        let mut buf = Vec::new();
        let mut records: u64 = 0;
        {
            let mut w = MrtWriter::new(&mut buf);
            let pit = MrtRecord::table_dump_v2(
                t as u32,
                TableDumpV2::PeerIndexTable(PeerIndexTable {
                    collector_bgp_id: match self.collectors[ci].local_ip {
                        IpAddr::V4(ip) => u32::from(ip),
                        IpAddr::V6(_) => 0,
                    },
                    view_name: String::new(),
                    peers,
                }),
            );
            w.write(&pit).expect("in-memory write");
            records += 1;

            // Union of prefixes across VP tables, sorted.
            let mut prefixes: Vec<Prefix> = self.collectors[ci]
                .vps
                .iter()
                .filter(|v| v.up)
                .flat_map(|v| v.table.keys().copied())
                .collect();
            prefixes.sort_unstable();
            prefixes.dedup();

            let rate = self.cfg.rib_rows_per_sec.max(1);
            for (seq, p) in prefixes.iter().enumerate() {
                let row_ts = t + seq as u64 / rate;
                let mut entries = Vec::new();
                for (vi, v) in self.collectors[ci].vps.iter().enumerate() {
                    if !v.up {
                        continue;
                    }
                    if let Some(e) = v.table.get(p) {
                        entries.push(RibEntry {
                            peer_index: vi as u16,
                            originated_time: e.since as u32,
                            attrs: route_attrs(v.ip, &e.route),
                        });
                    }
                }
                if entries.is_empty() {
                    continue;
                }
                let row = MrtRecord::table_dump_v2(
                    row_ts as u32,
                    TableDumpV2::RibRow(RibRow {
                        sequence: seq as u32,
                        prefix: *p,
                        entries,
                    }),
                );
                w.write(&row).expect("in-memory write");
                records += 1;
            }
        }
        let _ = records;
        // The dump's nominal interval covers its row-timestamp spread
        // (rows are written at `rib_rows_per_sec`), so the sorted
        // stream knows which updates windows it interleaves with.
        let spread = (records / self.cfg.rib_rows_per_sec.max(1)).max(1);
        self.publish(ci, DumpType::Rib, t, spread, t + spread, buf);
    }

    /// Write a dump file, apply fault injection, and register it.
    fn publish(
        &mut self,
        ci: usize,
        dump_type: DumpType,
        interval_start: u64,
        duration: u64,
        nominal_done: u64,
        mut bytes: Vec<u8>,
    ) {
        let records = count_records(&bytes);
        if self.cfg.faults.truncate_prob > 0.0
            && bytes.len() > 40
            && self.rng.gen::<f64>() < self.cfg.faults.truncate_prob
        {
            let cut = self.rng.gen_range(1..40usize);
            bytes.truncate(bytes.len() - cut);
            self.stats.truncated_files += 1;
        }
        let project = self.collectors[ci].spec.project.name;
        let collector = self.collectors[ci].spec.name.clone();
        let path = archive::write_dump(
            &self.cfg.archive_root,
            project,
            &collector,
            dump_type,
            interval_start,
            &bytes,
        )
        .expect("archive write");
        let delay = if self.cfg.faults.pub_delay_max > self.cfg.faults.pub_delay_min {
            self.rng
                .gen_range(self.cfg.faults.pub_delay_min..=self.cfg.faults.pub_delay_max)
        } else {
            self.cfg.faults.pub_delay_min
        };
        let meta = DumpMeta {
            project: project.to_string(),
            collector,
            dump_type,
            interval_start,
            duration,
            path,
            available_at: nominal_done + delay,
            size: bytes.len() as u64,
        };
        self.stats.files += 1;
        self.stats.records += records;
        self.stats.bytes += bytes.len() as u64;
        if let Some(idx) = &self.index {
            idx.register(meta.clone());
        }
        self.manifest.push(meta);
    }
}

/// The route a VP exports to the collector, honouring partial feeds.
fn feed_route(cp: &mut ControlPlane, vp: &VpSpec, prefix: &Prefix) -> Option<Route> {
    let r = cp.route(vp.asn, prefix)?;
    if vp.full_feed || matches!(r.class, RouteClass::Origin | RouteClass::Customer) {
        Some(r)
    } else {
        None
    }
}

/// Deterministic per-(VP, prefix) propagation jitter in 0..30 s.
fn jitter(vp: Asn, prefix: &Prefix) -> u64 {
    let x = (vp.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(prefix.raw_bits() as u64 ^ (prefix.raw_bits() >> 64) as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 33) % 30
}

fn route_attrs(vp_ip: IpAddr, route: &Route) -> PathAttributes {
    let mut attrs = PathAttributes::route(route.as_path.clone(), vp_ip);
    attrs.communities = route.communities.clone();
    attrs
}

fn announce_record(
    ts: u64,
    peer_asn: Asn,
    local_asn: Asn,
    peer_ip: IpAddr,
    local_ip: IpAddr,
    prefix: Prefix,
    route: &Route,
) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts as u32,
        Bgp4mp::Message {
            peer_asn,
            local_asn,
            peer_ip,
            local_ip,
            message: BgpMessage::Update(BgpUpdate::announce(
                vec![prefix],
                route_attrs(peer_ip, route),
            )),
        },
    )
}

fn withdraw_record(
    ts: u64,
    peer_asn: Asn,
    local_asn: Asn,
    peer_ip: IpAddr,
    local_ip: IpAddr,
    prefix: Prefix,
) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts as u32,
        Bgp4mp::Message {
            peer_asn,
            local_asn,
            peer_ip,
            local_ip,
            message: BgpMessage::Update(BgpUpdate::withdraw(vec![prefix])),
        },
    )
}

/// Records that decode before the first corrupted read, if any.
fn count_records(bytes: &[u8]) -> u64 {
    let mut reader = mrt::ChunkedReader::from_bytes(bytes.to_vec());
    std::iter::from_fn(|| reader.next())
        .take_while(Result::is_ok)
        .count() as u64
}

/// Build a standard multi-project collector deployment: `n_ris` RIS
/// collectors (rrc00…) and `n_rv` RouteViews collectors
/// (route-views2…), each peering with `vps_each` VPs drawn
/// deterministically from the topology (transit-heavy, a
/// `full_feed_frac` fraction of them full-feed).
pub fn standard_collectors(
    cp: &ControlPlane,
    n_ris: usize,
    n_rv: usize,
    vps_each: usize,
    full_feed_frac: f64,
    seed: u64,
) -> Vec<CollectorSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let transit = cp.transit_vp_candidates();
    let all = cp.vp_candidates();
    let mut specs = Vec::new();
    let mut mk = |name: String, project: ProjectSpec, rng: &mut SmallRng| {
        let mut vps = Vec::new();
        let mut used: Vec<Asn> = Vec::new();
        while vps.len() < vps_each {
            // 70 % transit VPs, 30 % from the whole population.
            let pool = if rng.gen::<f64>() < 0.7 && !transit.is_empty() {
                &transit
            } else {
                &all
            };
            let asn = pool[rng.gen_range(0..pool.len())];
            if used.contains(&asn) {
                continue;
            }
            used.push(asn);
            let full_feed = rng.gen::<f64>() < full_feed_frac;
            vps.push(VpSpec { asn, full_feed });
        }
        specs.push(CollectorSpec { name, project, vps });
    };
    for k in 0..n_ris {
        mk(format!("rrc{k:02}"), crate::project::RIS, &mut rng);
    }
    for k in 0..n_rv {
        mk(
            format!("route-views{}", k + 2),
            crate::project::ROUTEVIEWS,
            &mut rng,
        );
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrt::ChunkedReader;
    use std::sync::Arc;
    use topology::events::EventKind;
    use topology::gen::{generate, TopologyConfig};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "bgpstream-sim-{}-{}-{}",
            tag,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn small_world(seed: u64) -> ControlPlane {
        ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(seed))), u64::MAX)
    }

    fn one_collector(cp: &ControlPlane) -> Vec<CollectorSpec> {
        standard_collectors(cp, 1, 0, 4, 0.8, 99)
    }

    #[test]
    fn first_rib_is_dumped_immediately() {
        let cp = small_world(1);
        let specs = one_collector(&cp);
        let dir = tmpdir("rib0");
        let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
        sim.run_until(10);
        let ribs: Vec<_> = sim
            .manifest()
            .iter()
            .filter(|m| m.dump_type == DumpType::Rib)
            .collect();
        assert_eq!(ribs.len(), 1);
        assert_eq!(ribs[0].interval_start, 0);
        // The RIB parses and contains a peer table + rows.
        let (recs, err) = ChunkedReader::open(&ribs[0].path).unwrap().read_all();
        assert!(err.is_none());
        assert!(recs.len() > 1);
        assert!(matches!(
            recs[0].body,
            mrt::MrtBody::TableDumpV2(TableDumpV2::PeerIndexTable(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_windows_rotate_on_cadence() {
        let cp = small_world(2);
        let specs = one_collector(&cp); // RIS: 300 s updates
        let dir = tmpdir("rotate");
        let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
        sim.run_until(1800);
        let updates: Vec<_> = sim
            .manifest()
            .iter()
            .filter(|m| m.dump_type == DumpType::Updates)
            .collect();
        assert_eq!(updates.len(), 6);
        let starts: Vec<u64> = updates.iter().map(|m| m.interval_start).collect();
        assert_eq!(starts, vec![0, 300, 600, 900, 1200, 1500]);
        for m in &updates {
            assert!(m.available_at >= m.interval_start + m.duration);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn withdraw_event_appears_in_updates_dump() {
        let mut cp = small_world(3);
        let topo = cp.topology().clone();
        let victim = topo
            .nodes
            .iter()
            .find(|n| !n.prefixes_v4.is_empty())
            .unwrap();
        let prefix = victim.prefixes_v4[0].prefix;
        let origin = victim.asn;
        let _ = &mut cp;
        let specs = one_collector(&cp);
        let dir = tmpdir("withdraw");
        let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
        let mut sc = Scenario::new();
        sc.push(Event::at(100, EventKind::Withdraw { origin, prefix }));
        sim.schedule(&sc);
        sim.run_until(400);
        // Find a withdrawal of `prefix` in the first updates dump.
        let upd = sim
            .manifest()
            .iter()
            .find(|m| m.dump_type == DumpType::Updates && m.interval_start == 0)
            .unwrap();
        let (recs, err) = ChunkedReader::open(&upd.path).unwrap().read_all();
        assert!(err.is_none());
        let mut found = false;
        for r in recs {
            if let mrt::MrtBody::Bgp4mp(Bgp4mp::Message {
                message: BgpMessage::Update(u),
                ..
            }) = r.body
            {
                if u.withdrawals.contains(&prefix) {
                    found = true;
                }
            }
        }
        assert!(found, "withdrawal not found in updates dump");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_timestamps_are_monotonic_within_file() {
        let mut cp = small_world(4);
        let topo = cp.topology().clone();
        let _ = &mut cp;
        let specs = one_collector(&cp);
        let dir = tmpdir("mono");
        let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
        let mut sc = Scenario::new();
        // Flap a few prefixes to create traffic.
        for (k, n) in topo
            .nodes
            .iter()
            .filter(|n| !n.prefixes_v4.is_empty())
            .take(5)
            .enumerate()
        {
            sc.flap(20 + k as u64 * 13, 4, 120, n.asn, n.prefixes_v4[0].prefix);
        }
        sim.schedule(&sc);
        sim.run_until(1500);
        for m in sim
            .manifest()
            .iter()
            .filter(|m| m.dump_type == DumpType::Updates)
        {
            let (recs, err) = ChunkedReader::open(&m.path).unwrap().read_all();
            assert!(err.is_none());
            let ts: Vec<u32> = recs.iter().map(|r| r.timestamp).collect();
            let mut sorted = ts.clone();
            sorted.sort_unstable();
            assert_eq!(
                ts,
                sorted,
                "timestamps out of order in {}",
                m.path.display()
            );
            // Records belong to the window.
            for t in ts {
                assert!((t as u64) >= m.interval_start && (t as u64) < m.interval_end());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_feed_tables_are_smaller() {
        let cp = small_world(5);
        let transit = cp.transit_vp_candidates();
        let specs = vec![CollectorSpec {
            name: "rrc00".into(),
            project: crate::project::RIS,
            vps: vec![
                VpSpec {
                    asn: transit[0],
                    full_feed: true,
                },
                VpSpec {
                    asn: transit[0],
                    full_feed: false,
                },
            ],
        }];
        let dir = tmpdir("partial");
        let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
        sim.run_until(5);
        let full = sim.collectors[0].vps[0].table.len();
        let partial = sim.collectors[0].vps[1].table.len();
        assert!(full > partial, "full={full} partial={partial}");
        assert!(partial > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_reset_emits_state_changes_and_reannouncement() {
        let cp = small_world(6);
        let specs = one_collector(&cp);
        let vp = specs[0].vps[0].asn;
        let dir = tmpdir("sess");
        let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
        sim.schedule_session_reset(50, 0, vp, 100);
        sim.run_until(600);
        let upd = sim
            .manifest()
            .iter()
            .find(|m| m.dump_type == DumpType::Updates && m.interval_start == 0)
            .unwrap();
        let (recs, _) = ChunkedReader::open(&upd.path).unwrap().read_all();
        let mut state_changes = 0;
        let mut announcements = 0;
        for r in &recs {
            match &r.body {
                mrt::MrtBody::Bgp4mp(Bgp4mp::StateChange { peer_asn, .. }) if *peer_asn == vp => {
                    state_changes += 1
                }
                mrt::MrtBody::Bgp4mp(Bgp4mp::Message {
                    peer_asn,
                    message: BgpMessage::Update(u),
                    ..
                }) if *peer_asn == vp => announcements += u.announcements.len(),
                _ => {}
            }
        }
        // Down (1) + bring-up (5) transitions.
        assert_eq!(state_changes, 6);
        assert!(announcements > 0, "no re-announcement burst");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_fault_produces_corrupt_files() {
        let cp = small_world(7);
        let specs = one_collector(&cp);
        let dir = tmpdir("trunc");
        let mut cfg = SimConfig::new(&dir);
        cfg.faults.truncate_prob = 1.0;
        let mut sim = Simulator::new(cp, specs, cfg);
        sim.run_until(5);
        assert!(sim.stats().truncated_files > 0);
        let rib = sim
            .manifest()
            .iter()
            .find(|m| m.dump_type == DumpType::Rib)
            .unwrap();
        let (_, err) = ChunkedReader::open(&rib.path).unwrap().read_all();
        assert!(err.is_some(), "truncated file parsed cleanly");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rib_skip_fault_loses_dumps_silently() {
        let cp = small_world(11);
        let specs = one_collector(&cp);
        let dir = tmpdir("skiprib");
        let mut cfg = SimConfig::new(&dir);
        cfg.emit_updates = false;
        cfg.faults.skip_rib_prob = 1.0;
        let mut sim = Simulator::new(cp, specs, cfg);
        sim.run_until(9 * 3600); // would normally dump 2 RIS RIBs
        assert!(sim.stats().skipped_ribs >= 2);
        assert!(sim.manifest().iter().all(|m| m.dump_type != DumpType::Rib));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn force_rib_dump_tracks_growth() {
        let topo = Arc::new(generate(&TopologyConfig {
            months: 24,
            ..TopologyConfig::tiny(8)
        }));
        let spm = 1000u64;
        let cp = ControlPlane::new(topo, spm);
        let specs = standard_collectors(&cp, 1, 0, 3, 1.0, 5);
        let dir = tmpdir("growth");
        let mut cfg = SimConfig::new(&dir);
        cfg.emit_updates = false;
        cfg.emit_ribs = false;
        let mut sim = Simulator::new(cp, specs, cfg);
        sim.force_rib_dump(0);
        sim.force_rib_dump(24 * spm);
        let ribs: Vec<_> = sim
            .manifest()
            .iter()
            .filter(|m| m.dump_type == DumpType::Rib)
            .collect();
        assert_eq!(ribs.len(), 2);
        assert!(
            ribs[1].size > ribs[0].size,
            "RIB did not grow: {} -> {}",
            ribs[0].size,
            ribs[1].size
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_index_sees_files_as_published() {
        let cp = small_world(9);
        let specs = one_collector(&cp);
        let dir = tmpdir("live");
        let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
        let idx = Index::shared();
        sim.attach_index(idx.clone());
        sim.run_until(700);
        assert_eq!(idx.len(), sim.manifest().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn standard_collectors_shape() {
        let cp = small_world(10);
        let specs = standard_collectors(&cp, 2, 3, 5, 0.5, 1);
        assert_eq!(specs.len(), 5);
        assert_eq!(specs[0].name, "rrc00");
        assert_eq!(specs[2].name, "route-views2");
        assert!(specs.iter().all(|s| s.vps.len() == 5));
        // VPs within a collector are unique.
        for s in &specs {
            let mut asns: Vec<_> = s.vps.iter().map(|v| v.asn).collect();
            asns.dedup();
            assert_eq!(asns.len(), s.vps.len());
        }
    }
}
