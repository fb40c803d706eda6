//! The user-facing BGP data stream: configuration phase + reading
//! phase, historical and live modes.
//!
//! The library implements the paper's "client pull" model (§3.3.2):
//! it alternates between meta-data queries to the broker and reading
//! the returned dump files, so data is only retrieved when the user is
//! ready to process it. Both modes share one reading loop: a
//! historical stream pages the broker's window cursor, a live one
//! polls its lease and, when it runs dry, blocks until new data
//! appears.

use bsync::atomic::{AtomicU64, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, Prefix};
use broker::index::{BrokerCursor, DumpMeta, Query};
use broker::{
    BrokerClient, BrokerError, DataInterface, DumpType, Index, LeaseId, LocalBroker, ReleasePolicy,
    SourceId,
};

use crate::filter::{CommunityFilter, CompiledFilters, Filters};
use crate::record::BgpStreamRecord;
use crate::sort::{partition_overlap_groups, GroupMerger};

/// Virtual-time source for live mode.
///
/// Offline analyses use [`Clock::all_published`] (everything in the
/// index is visible); live experiments share a [`Clock::manual`] with
/// the collector simulator's driver thread.
#[derive(Clone)]
pub enum Clock {
    /// A fixed instant.
    Fixed(u64),
    /// A shared, externally driven clock.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A clock pinned at the end of time: every registered file is
    /// visible (offline/historical processing).
    pub fn all_published() -> Self {
        Clock::Fixed(u64::MAX)
    }

    /// A manual clock starting at `t`; drive it with
    /// [`Clock::advance_to`].
    pub fn manual(t: u64) -> Self {
        Clock::Manual(Arc::new(AtomicU64::new(t)))
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        match self {
            Clock::Fixed(t) => *t,
            Clock::Manual(a) => a.load(Ordering::SeqCst),
        }
    }

    /// Move a manual clock forward (no-op on fixed clocks; never moves
    /// backward).
    pub fn advance_to(&self, t: u64) {
        if let Clock::Manual(a) = self {
            a.fetch_max(t, Ordering::SeqCst);
        }
    }
}

/// Stream statistics (exposed for the §3.3.4 sorting-cost analysis).
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Broker queries issued.
    pub broker_queries: u64,
    /// Dump files opened.
    pub files_opened: u64,
    /// Overlap groups processed.
    pub groups: u64,
    /// Widest multi-way merge (simultaneously open files).
    pub max_group_width: usize,
    /// Records delivered.
    pub records: u64,
}

/// Error starting a stream: the configured [`DataInterface`] could
/// not be materialised (unreadable CSV manifest, malformed manifest
/// line, missing single file, …) or the broker refused the live
/// session (admission control, expired resume lease).
///
/// Wraps the broker's typed [`BrokerError`]; inspect it via
/// [`StreamStartError::broker_error`] or the
/// [`std::error::Error::source`] chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StreamStartError(BrokerError);

impl StreamStartError {
    /// The underlying broker error.
    pub fn broker_error(&self) -> &BrokerError {
        &self.0
    }
}

impl std::fmt::Display for StreamStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot start stream: {}", self.0)
    }
}

impl std::error::Error for StreamStartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.0)
    }
}

impl From<BrokerError> for StreamStartError {
    fn from(e: BrokerError) -> Self {
        StreamStartError(e)
    }
}

/// Configuration-phase builder (mirrors `bgpstream_set_filter` etc.).
///
/// ```
/// use bgpstream::BgpStream;
/// use broker::{DumpType, Index, LocalBroker};
///
/// let mut stream = BgpStream::builder()
///     .broker_client(LocalBroker::shared(Index::shared()))
///     .project("ris")
///     .collector("rrc00")
///     .record_type(DumpType::Updates)
///     .interval(0, Some(3600))
///     .try_start()
///     .expect("a local broker is always reachable");
/// // Reading phase: the index above is empty, so the historical
/// // stream ends immediately.
/// assert!(stream.next_record().is_none());
/// ```
///
/// Swapping `LocalBroker::shared(...)` for a
/// [`broker::RemoteBroker`] connected to a served
/// [`broker::BrokerService`] changes nothing downstream — the
/// reading phase is byte-identical through either client.
pub struct BgpStreamBuilder {
    interface: Option<DataInterface>,
    query: Query,
    filters: Filters,
    clock: Clock,
    poll: Duration,
    release: ReleasePolicy,
    resume_lease: Option<LeaseId>,
}

impl Default for BgpStreamBuilder {
    fn default() -> Self {
        BgpStreamBuilder {
            interface: None,
            query: Query::default(),
            filters: Filters::none(),
            clock: Clock::all_published(),
            poll: Duration::from_millis(2),
            release: ReleasePolicy::Grace(300),
            resume_lease: None,
        }
    }
}

impl BgpStreamBuilder {
    /// Select the meta-data/data interface (Broker, SingleFile, CSV).
    pub fn data_interface(mut self, iface: DataInterface) -> Self {
        self.interface = Some(iface);
        self
    }

    /// Sugar for [`BgpStreamBuilder::data_interface`] with an explicit
    /// [`BrokerClient`] — a [`broker::LocalBroker`] or a
    /// [`broker::RemoteBroker`] talking to a served
    /// [`broker::BrokerService`].
    pub fn broker_client(self, client: Arc<dyn BrokerClient>) -> Self {
        self.data_interface(DataInterface::Client(client))
    }

    /// Resume a live session from a previous stream's lease id
    /// ([`BgpStream::live_lease`]): the broker kept the session's
    /// cursor state, so delivery continues exactly once from where the
    /// crashed client stopped. Starting fails with
    /// [`BrokerError::LeaseExpired`] (wrapped in
    /// [`StreamStartError`]) when the lease lapsed. Ignored for
    /// historical streams.
    pub fn resume_live_lease(mut self, lease: LeaseId) -> Self {
        self.resume_lease = Some(lease);
        self
    }

    /// Restrict to a collection project (repeatable).
    pub fn project(mut self, name: &str) -> Self {
        self.query.projects.push(name.to_string());
        self
    }

    /// Restrict to a collector (repeatable).
    pub fn collector(mut self, name: &str) -> Self {
        self.query.collectors.push(name.to_string());
        self
    }

    /// Restrict to a dump type (repeatable; default both).
    pub fn record_type(mut self, ty: DumpType) -> Self {
        self.query.dump_types.push(ty);
        self
    }

    /// Historical interval `[start, end]`; `end = None` = live mode
    /// (the paper: "code can be converted into a live monitoring
    /// process simply by setting the end of the time interval to -1").
    pub fn interval(mut self, start: u64, end: Option<u64>) -> Self {
        self.query.start = start;
        self.query.end = end;
        self
    }

    /// Live mode starting at `start`.
    pub fn live(self, start: u64) -> Self {
        self.interval(start, None)
    }

    /// Release live broker windows off the provider's publication
    /// watermark ([`broker::Index::advance_watermark`]) instead of the
    /// default grace-period wait ([`BgpStreamBuilder::live_grace`]).
    /// Watermark release is both lower-latency (no grace to wait out)
    /// and lossless under publication faults: a stalled or
    /// out-of-order publisher holds window release back instead of
    /// being overtaken by the clock.
    pub fn watermark_release(mut self) -> Self {
        self.release = ReleasePolicy::Watermark;
        self
    }

    /// Keep only elems from this VP (repeatable).
    pub fn filter_peer_asn(mut self, asn: Asn) -> Self {
        self.filters.peer_asns.insert(asn);
        self
    }

    /// Keep only elems whose prefix matches (repeatable, any-of).
    pub fn filter_prefix(mut self, prefix: Prefix, mode: PrefixMatch) -> Self {
        self.filters.prefixes.push((prefix, mode));
        self
    }

    /// Keep only elems carrying a matching community (repeatable).
    pub fn filter_community(mut self, f: CommunityFilter) -> Self {
        self.filters.communities.push(f);
        self
    }

    /// Keep only elems of this type (repeatable).
    pub fn filter_elem_type(mut self, ty: crate::elem::ElemType) -> Self {
        self.filters.elem_types.insert(ty);
        self
    }

    /// Apply a `parse_filter_string` expression: meta-data terms merge
    /// into the broker query, elem terms into the filters.
    pub fn filter_string(mut self, expr: &str) -> Result<Self, crate::FilterLangError> {
        let parsed = crate::parse_filter_string(expr)?;
        self.query.projects.extend(parsed.projects);
        self.query.collectors.extend(parsed.collectors);
        self.query.dump_types.extend(parsed.dump_types);
        let f = &mut self.filters;
        f.peer_asns.extend(parsed.filters.peer_asns);
        f.prefixes.extend(parsed.filters.prefixes);
        f.communities.extend(parsed.filters.communities);
        f.elem_types.extend(parsed.filters.elem_types);
        f.as_paths.extend(parsed.filters.as_paths);
        if parsed.filters.ip_version.is_some() {
            f.ip_version = parsed.filters.ip_version;
        }
        Ok(self)
    }

    /// Replace the whole filter set at once.
    pub fn filters(mut self, filters: Filters) -> Self {
        self.filters = filters;
        self
    }

    /// Virtual-time source (live mode).
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// How long past a broker window's *end* the stream waits before
    /// declaring the window complete in live mode. Must cover the
    /// maximum publication delay of the data provider; smaller values
    /// trade completeness for latency (§6.2.3's trade-off). The
    /// default is 300 s. Replaces
    /// [`BgpStreamBuilder::watermark_release`]; the later call wins.
    pub fn live_grace(mut self, seconds: u64) -> Self {
        self.release = ReleasePolicy::Grace(seconds);
        self
    }

    /// Wall-clock poll interval while blocked in live mode.
    pub fn poll_interval(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Finish configuration and enter the reading phase.
    ///
    /// Panics when the data interface cannot be materialised (e.g. an
    /// unreadable CSV manifest); use [`BgpStreamBuilder::try_start`]
    /// to handle that case.
    pub fn start(self) -> BgpStream {
        self.try_start()
            .unwrap_or_else(|e| panic!("BgpStreamBuilder::start: {e}"))
    }

    /// Fallible [`BgpStreamBuilder::start`]: returns an error instead
    /// of panicking when the configured [`DataInterface`] cannot be
    /// resolved into a [`BrokerClient`] (the `CsvFile` interface reads
    /// its manifest here, so a missing or malformed file surfaces at
    /// configuration time, not mid-stream) or the broker refuses the
    /// live session.
    pub fn try_start(self) -> Result<BgpStream, StreamStartError> {
        let iface = self
            .interface
            .unwrap_or_else(|| DataInterface::client(LocalBroker::shared(Index::shared())));
        let client = iface.into_client()?;
        // Repeatable setters and `filter_string` can push the same
        // term twice; dedup so the broker query carries each at most
        // once (order-preserving).
        let mut query = self.query;
        dedup_preserving(&mut query.projects);
        dedup_preserving(&mut query.collectors);
        dedup_preserving(&mut query.dump_types);
        // Compile the elem filters once for the whole reading phase:
        // every group merger shares the same trie/bitset form and its
        // record-level prefilter.
        let compiled = Arc::new(self.filters.compile());
        let released_through = query.start;
        let source = if query.end.is_none() {
            let lease = client.open_live(&query, self.release, self.resume_lease)?;
            Source::Live {
                lease,
                due_version: 0,
            }
        } else {
            let cursor = BrokerCursor {
                window_start: query.start,
            };
            Source::Pages { query, cursor }
        };
        Ok(BgpStream {
            client,
            source,
            released_through,
            last_delivered_ts: 0,
            filters: Arc::new(self.filters),
            compiled,
            clock: self.clock,
            poll: self.poll,
            groups: VecDeque::new(),
            lookahead: VecDeque::new(),
            merger: None,
            exhausted: false,
            last_error: None,
            stats: StreamStats::default(),
            elem_cursor: None,
        })
    }
}

/// Remove duplicate entries, keeping first occurrences in order.
fn dedup_preserving<T: PartialEq>(v: &mut Vec<T>) {
    let mut i = 0;
    while i < v.len() {
        if v[..i].contains(&v[i]) {
            v.remove(i);
        } else {
            i += 1;
        }
    }
}

/// Where the reading loop gets files, chosen once in
/// [`BgpStreamBuilder::try_start`] from the interval end.
enum Source {
    /// Historical: the query and its window cursor, paged forward
    /// once every queued file has been read.
    Pages { query: Query, cursor: BrokerCursor },
    /// Live: the broker holds the incremental cursor (windowed
    /// release, cross-poll dedup, completeness watermark) under
    /// `lease`, so a crashed client can resume exactly-once via
    /// [`BgpStreamBuilder::resume_live_lease`].
    Live {
        lease: LeaseId,
        /// The index version from which the next poll is due: one past
        /// the one the last poll saw, or that one itself after a poll
        /// crossed a window boundary. Until then polls are skipped
        /// while local buffers hold data, so the steady-state
        /// per-record cost is one version load.
        due_version: u64,
    },
}

/// The reading-phase stream. Both modes read through one loop over
/// their source — the historical window cursor or the live lease — and
/// [`BgpStream::next_record`] and [`BgpStream::next_batch_step`] drive
/// the same step of it.
pub struct BgpStream {
    /// The broker behind its client abstraction: in-process
    /// ([`broker::LocalBroker`]) or served over the message queue
    /// ([`broker::RemoteBroker`]) — the reading phase is identical
    /// through either.
    client: Arc<dyn BrokerClient>,
    source: Source,
    /// Completeness watermark from the live cursor: every record with
    /// a timestamp below this has been released to the stream (live
    /// mode; tracks the interval start otherwise).
    released_through: u64,
    /// Timestamp of the last record handed out, enforcing the §3.3.4
    /// monotonicity promise end to end: a live straggler admitted
    /// behind the merge (or a corrupted-read placeholder racing
    /// another dump) is re-stamped rather than moving time backwards.
    last_delivered_ts: u64,
    filters: Arc<Filters>,
    /// The reading-phase compiled form of `filters` (tries, bitsets,
    /// record-level prefilter), built once in `try_start`.
    compiled: Arc<CompiledFilters>,
    clock: Clock,
    poll: Duration,
    groups: VecDeque<Vec<DumpMeta>>,
    /// Records handed back via [`BgpStream::unread`], delivered again
    /// (in order) before anything else.
    lookahead: VecDeque<BgpStreamRecord>,
    merger: Option<GroupMerger>,
    exhausted: bool,
    /// The broker error that terminated the stream, if any
    /// ([`BgpStream::last_error`]). A terminal error behaves like
    /// exhaustion — the paper's libBGPStream likewise ends the stream
    /// on a broker failure rather than delivering partial windows.
    last_error: Option<BrokerError>,
    stats: StreamStats,
    /// Remaining elems of the current record + its source annotation,
    /// for `next_elem`. Elems are moved out of the record (no clones).
    elem_cursor: Option<(std::vec::IntoIter<crate::elem::BgpStreamElem>, ElemSource)>,
}

/// Outcome of one [`BgpStream::pump`] (or [`BgpStream::step`]) call.
enum Pump {
    /// A record was produced.
    Record(BgpStreamRecord),
    /// Nothing buffered and nothing releasable right now (live mode).
    Idle,
    /// The stream is exhausted (historical interval end).
    End,
}

/// Outcome of one [`BgpStream::next_batch_step`] call — the
/// non-blocking batch interface live consumers drive, so they regain
/// control between batches (to close time bins off the watermark,
/// check shutdown flags, …) instead of parking inside the stream.
#[derive(Debug)]
pub enum BatchStep {
    /// One or more records, in stream order.
    Records(Vec<BgpStreamRecord>),
    /// Nothing deliverable right now; the stream waited at most one
    /// poll interval for news before returning. Everything timestamped
    /// below `released_through` that will ever exist has been
    /// delivered — bins ending at or before it can close.
    Idle {
        /// The stream's completeness watermark
        /// ([`BgpStream::released_through`]).
        released_through: u64,
    },
    /// The stream is exhausted: historical interval end, or a live
    /// stream whose fixed clock can never make progress.
    End,
}

impl BgpStream {
    /// Start configuring a stream.
    pub fn builder() -> BgpStreamBuilder {
        BgpStreamBuilder::default()
    }

    /// Stream statistics so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The stream's filters (shared with BGPCorsaro plugins).
    pub fn filters(&self) -> Arc<Filters> {
        self.filters.clone()
    }

    /// The stream's completeness watermark: every record timestamped
    /// below this has been released to the stream (live mode — see
    /// [`broker::LiveCursor`]; historical streams report the interval
    /// start until exhaustion, then `u64::MAX`). Downstream time bins
    /// with `end <= released_through()` can close: nothing older will
    /// arrive, except re-stamped stragglers which land at or after the
    /// current stream time.
    pub fn released_through(&self) -> u64 {
        if self.exhausted {
            u64::MAX
        } else {
            self.released_through
        }
    }

    /// The live session's lease id, for exactly-once resume after a
    /// crash: persist it, then rebuild the stream with
    /// [`BgpStreamBuilder::resume_live_lease`]. `None` for historical
    /// streams.
    pub fn live_lease(&self) -> Option<LeaseId> {
        match self.source {
            Source::Live { lease, .. } => Some(lease),
            Source::Pages { .. } => None,
        }
    }

    /// The broker error that terminated this stream, if any. A live
    /// stream whose lease expired (or whose broker failed) ends —
    /// `next_record` returns `None` — and records the cause here; a
    /// cleanly exhausted historical stream reports `None`.
    pub fn last_error(&self) -> Option<&BrokerError> {
        self.last_error.as_ref()
    }

    /// Pull the next record of the sorted stream.
    ///
    /// Historical mode returns `None` when the interval is exhausted.
    /// Live mode blocks (broker polling) until new data is published,
    /// so it returns `None` only if the clock is `Fixed` and no more
    /// data can ever appear.
    pub fn next_record(&mut self) -> Option<BgpStreamRecord> {
        loop {
            match self.step(true) {
                Pump::Record(rec) => return Some(rec),
                Pump::End => return None,
                Pump::Idle => {}
            }
        }
    }

    /// The delivery step [`BgpStream::next_record`] and
    /// [`BgpStream::next_batch_step`] share: records handed back by
    /// [`BgpStream::unread`] first, then the reading loop, with a
    /// delivered record counted here, once. With `wait`, an `Idle` is
    /// waited out: the watermark is promised — it becomes a delivery
    /// floor, so stragglers may not undercut it afterwards — then the
    /// step blocks until a new publication (or watermark advance) or
    /// one poll interval passes. It ends the stream when nothing can
    /// ever change: a fixed clock and no new index version.
    fn step(&mut self, wait: bool) -> Pump {
        let step = match self.lookahead.pop_front() {
            Some(rec) => Pump::Record(rec),
            None => self.pump(),
        };
        match step {
            Pump::Record(_) => self.stats.records += 1,
            Pump::Idle if wait => {
                self.promise_released_through();
                let v = self.client.version();
                let _ = self.client.wait_for_new(v, self.poll);
                if matches!(self.clock, Clock::Fixed(_)) && self.client.version() == v {
                    return Pump::End;
                }
            }
            Pump::Idle | Pump::End => {}
        }
        step
    }

    /// The reading loop of both modes, one non-blocking step: a live
    /// source polls its lease first, so stragglers join the running
    /// merge before it drains; then the merge drains and queued groups
    /// open; once both are used up, a historical source pages its
    /// cursor and a live one reports `Idle`. Never sleeps.
    fn pump(&mut self) -> Pump {
        // Guard against unbounded in-call window advancement: a
        // cursor whose every window is releasable (e.g. the provider
        // finished and parked the watermark at `u64::MAX`) would
        // otherwise spin here forever releasing empty windows. After a
        // long run of file-less windows, yield `Idle` — callers regain
        // control (live bin closing, shutdown checks) and the next
        // pump call picks up where this one left off.
        const MAX_EMPTY_ADVANCES: u32 = 1024;
        let mut empty_advances = 0u32;
        loop {
            // Live: fold in anything newly published since the last
            // poll. Skipped while the index is unchanged and local
            // buffers still hold data.
            let mut advanced = false;
            if let Source::Live { lease, due_version } = &mut self.source {
                let version = self.client.version();
                let drained = self.merger.is_none() && self.groups.is_empty();
                if version >= *due_version || drained {
                    *due_version = version + 1;
                    let poll = match self.client.poll_live(*lease, self.clock.now()) {
                        Ok(poll) => poll,
                        // Transient overload: back off — the caller's
                        // idle path waits one poll interval, and the
                        // next pump retries the same lease.
                        Err(BrokerError::Busy) => return Pump::Idle,
                        // Terminal (lease expired, broker gone).
                        Err(e) => return self.fail(e),
                    };
                    self.released_through = poll.released_through;
                    let productive = !poll.files.is_empty() || !poll.late.is_empty();
                    // Stragglers surfaced behind the cursor: admit them
                    // into the running merge so their still-future
                    // records interleave in order (past ones are
                    // re-stamped on delivery); without a running merge
                    // they form their own groups, delivered before
                    // anything queued.
                    if let Some(m) = self.merger.as_mut() {
                        for meta in poll.late {
                            self.stats.files_opened += 1;
                            m.admit(meta);
                        }
                        self.stats.max_group_width = self.stats.max_group_width.max(m.width());
                    } else {
                        for group in partition_overlap_groups(&poll.late).into_iter().rev() {
                            self.groups.push_front(group);
                        }
                    }
                    self.groups.extend(partition_overlap_groups(&poll.files));
                    if poll.advanced {
                        // A window boundary was crossed (possibly
                        // empty): the next window may already be
                        // releasable, so poll again before draining
                        // further or concluding idleness.
                        *due_version = version;
                        advanced = true;
                        self.stats.broker_queries += 1;
                        if productive {
                            empty_advances = 0;
                        } else {
                            empty_advances += 1;
                            if empty_advances > MAX_EMPTY_ADVANCES {
                                return Pump::Idle;
                            }
                        }
                    }
                }
            }
            if let Some(m) = self.merger.as_mut() {
                if let Some(rec) = m.next() {
                    return Pump::Record(self.stamp(rec));
                }
                self.merger = None;
            }
            if let Some(group) = self.groups.pop_front() {
                let merger = GroupMerger::open(group, self.compiled.clone());
                self.stats.files_opened += merger.width() as u64;
                self.stats.groups += 1;
                self.stats.max_group_width = self.stats.max_group_width.max(merger.width());
                self.merger = Some(merger);
                continue;
            }
            if self.exhausted {
                return Pump::End;
            }
            let Source::Pages { query, cursor } = &mut self.source else {
                if advanced {
                    continue;
                }
                return Pump::Idle;
            };
            // Historical: page the broker window cursor forward. Any
            // error here is terminal — including `Busy`, which the
            // remote client only surfaces after exhausting its own
            // retries. Ending with `last_error` set keeps a shed
            // historical stream distinguishable from a cleanly
            // exhausted one.
            self.stats.broker_queries += 1;
            let resp = match self.client.query(query, cursor, self.clock.now()) {
                Ok(resp) => resp,
                Err(e) => return self.fail(e),
            };
            if resp.exhausted {
                self.exhausted = true;
            }
            if !resp.files.is_empty() {
                self.groups = partition_overlap_groups(&resp.files).into();
            } else if self.exhausted {
                return Pump::End;
            }
        }
    }

    /// End the stream on broker error `e`, recording the cause for
    /// [`BgpStream::last_error`].
    fn fail(&mut self, e: BrokerError) -> Pump {
        self.last_error = Some(e);
        self.exhausted = true;
        Pump::End
    }

    /// Enforce end-to-end timestamp monotonicity on delivery: a record
    /// older than the stream's last output (live straggler admitted
    /// behind the merge, or a corrupted-read placeholder racing
    /// another dump in its group) is re-stamped with the last
    /// delivered timestamp — the same rule PR 2 applies within a dump.
    fn stamp(&mut self, mut rec: BgpStreamRecord) -> BgpStreamRecord {
        if rec.timestamp < self.last_delivered_ts {
            rec.timestamp = self.last_delivered_ts;
        } else {
            self.last_delivered_ts = rec.timestamp;
        }
        rec
    }

    /// Make the idleness contract binding: once idleness has been
    /// observed with watermark `released_through`, nothing older may
    /// be delivered afterwards — consumers will have closed bins up to
    /// that point. Raising the monotonic delivery floor to the
    /// promised watermark means a grace-policy straggler that
    /// undercuts it is re-stamped to (at least) the promise instead of
    /// landing in a bin that already closed. Records of windows not
    /// yet released start at or after the watermark, so the floor
    /// never rewrites the normal flow.
    fn promise_released_through(&mut self) {
        // A feed-complete watermark (`u64::MAX`) is an end-of-session
        // signal, not a timestamp to re-stamp surprise stragglers to.
        if self.released_through != u64::MAX {
            self.last_delivered_ts = self.last_delivered_ts.max(self.released_through);
        }
    }

    /// Hand already-pulled records back to the stream; subsequent
    /// [`BgpStream::next_record`]/[`BgpStream::next_batch_step`] calls
    /// deliver them again, in the given (stream) order, before
    /// anything else. Used by consumers that read ahead in batches
    /// and hit a stop condition mid-batch — the unconsumed tail goes
    /// back so the stream can be handed to another reader without
    /// losing records. [`StreamStats::records`] is adjusted so
    /// re-delivered records are not double-counted.
    pub fn unread(&mut self, records: Vec<BgpStreamRecord>) {
        debug_assert!(
            self.stats.records >= records.len() as u64,
            "unread of more records than this stream ever delivered"
        );
        self.stats.records = self.stats.records.saturating_sub(records.len() as u64);
        for rec in records.into_iter().rev() {
            self.lookahead.push_front(rec);
        }
    }

    /// Pull up to `max` records of the sorted stream in one bounded
    /// step — the batch handoff of the sharded corsaro runtime, whose
    /// `run` and `run_live` loops drive it: pulling a batch and handing
    /// it to worker queues as one unit amortises per-record channel
    /// traffic. The batch preserves stream order and never blocks once
    /// at least one record has been read, so batching adds no latency
    /// at bin boundaries. Instead of blocking indefinitely when a live
    /// stream runs dry it returns [`BatchStep::Idle`] (after waiting at
    /// most one poll interval), handing the caller the completeness
    /// watermark so live time bins can close during quiet periods.
    ///
    /// `max == 0` returns `Idle` without touching the stream.
    pub fn next_batch_step(&mut self, max: usize) -> BatchStep {
        if max == 0 {
            return BatchStep::Idle {
                released_through: self.released_through(),
            };
        }
        let mut out: Vec<BgpStreamRecord> = Vec::new();
        while out.len() < max {
            // Once at least one record is in hand, only continue
            // while another is ready without asking the broker: one
            // handed back, one primed in the current merger, or a
            // queued group (opening it reads files, never waits on a
            // poll).
            if !out.is_empty()
                && self.lookahead.is_empty()
                && !self.merger.as_ref().is_some_and(GroupMerger::has_next)
                && self.groups.is_empty()
            {
                break;
            }
            // Only an empty batch waits out `Idle` (bounded), then
            // hands control back.
            match self.step(out.is_empty()) {
                Pump::Record(rec) => out.push(rec),
                _ if !out.is_empty() => break,
                Pump::End => return BatchStep::End,
                Pump::Idle => {
                    return BatchStep::Idle {
                        released_through: self.released_through(),
                    }
                }
            }
        }
        BatchStep::Records(out)
    }

    /// Pull the next record that has at least one elem passing the
    /// filters (skipping empty/marker records).
    pub fn next_matching_record(&mut self) -> Option<BgpStreamRecord> {
        loop {
            let rec = self.next_record()?;
            if !rec.elems().is_empty() {
                return Some(rec);
            }
        }
    }

    /// Flattened elem iteration — the PyBGPStream scripting pattern
    /// (`for elem in stream` instead of the nested record/elem loops).
    /// Consumes records internally and yields each elem together with
    /// its source annotations.
    pub fn next_elem(&mut self) -> Option<(crate::elem::BgpStreamElem, ElemSource)> {
        loop {
            if let Some((iter, src)) = self.elem_cursor.as_mut() {
                if let Some(elem) = iter.next() {
                    return Some((elem, *src));
                }
                self.elem_cursor = None;
            }
            let rec = self.next_matching_record()?;
            let src = ElemSource {
                source: rec.source,
                dump_time: rec.dump_time,
            };
            self.elem_cursor = Some((rec.into_elems().into_iter(), src));
        }
    }
}

/// Record iteration — the PyBGPStream ergonomic style
/// (`for record in stream`), equivalent to calling
/// [`BgpStream::next_record`] in a loop.
///
/// ```
/// use bgpstream::BgpStream;
/// use broker::{Index, LocalBroker};
///
/// let stream = BgpStream::builder()
///     .broker_client(LocalBroker::shared(Index::shared()))
///     .interval(0, Some(3600))
///     .start();
/// for record in stream {
///     for elem in record.elems() {
///         println!("{}", elem.peer_asn);
///     }
/// }
/// ```
impl Iterator for BgpStream {
    type Item = BgpStreamRecord;

    fn next(&mut self) -> Option<BgpStreamRecord> {
        self.next_record()
    }
}

/// Source annotations attached to elems yielded by
/// [`BgpStream::next_elem`]. `Copy`: the identity is an interned
/// [`SourceId`], so annotating an elem allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ElemSource {
    /// Interned source identity (project + collector + dump type).
    pub source: SourceId,
    /// Nominal time of the source dump.
    pub dump_time: u64,
}

impl ElemSource {
    /// Collection project.
    pub fn project(&self) -> &'static str {
        self.source.project()
    }

    /// Collector name.
    pub fn collector(&self) -> &'static str {
        self.source.collector()
    }

    /// Dump type the elem came from.
    pub fn dump_type(&self) -> DumpType {
        self.source.dump_type()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_semantics() {
        let c = Clock::manual(10);
        assert_eq!(c.now(), 10);
        c.advance_to(50);
        assert_eq!(c.now(), 50);
        c.advance_to(20); // never backward
        assert_eq!(c.now(), 50);
        let f = Clock::all_published();
        assert_eq!(f.now(), u64::MAX);
        f.advance_to(0); // no-op
        assert_eq!(f.now(), u64::MAX);
    }

    #[test]
    fn empty_index_historical_stream_ends() {
        let mut s = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .interval(0, Some(1000))
            .start();
        assert!(s.next_record().is_none());
        assert!(s.stats().broker_queries >= 1);
    }

    #[test]
    fn builder_dedups_repeated_query_terms() {
        // Repeatable setters and `filter_string` used to push
        // duplicate terms into the broker query.
        let s = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .project("ris")
            .project("ris")
            .collector("rrc00")
            .collector("rrc00")
            .collector("rrc01")
            .record_type(DumpType::Rib)
            .record_type(DumpType::Rib)
            .filter_string("project ris and collector rrc00 and type ribs")
            .unwrap()
            .interval(0, Some(10))
            .start();
        let Source::Pages { query, .. } = &s.source else {
            panic!("a bounded interval pages the broker");
        };
        assert_eq!(query.projects, vec!["ris".to_string()]);
        assert_eq!(
            query.collectors,
            vec!["rrc00".to_string(), "rrc01".to_string()]
        );
        assert_eq!(query.dump_types, vec![DumpType::Rib]);
    }

    #[test]
    fn try_start_reports_unresolvable_interface() {
        // A CSV manifest that does not exist: `try_start` must return
        // an error (and `start` would panic) instead of yielding a
        // half-configured stream.
        let missing = std::env::temp_dir().join("bgpstream-no-such-manifest.csv");
        let err = match BgpStream::builder()
            .data_interface(DataInterface::CsvFile(missing))
            .interval(0, Some(10))
            .try_start()
        {
            Ok(_) => panic!("missing manifest must not start"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(msg.contains("cannot start stream"), "got: {msg}");
        // Source chain: implements std::error::Error.
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    #[should_panic(expected = "BgpStreamBuilder::start")]
    fn start_panics_with_context_on_unresolvable_interface() {
        let missing = std::env::temp_dir().join("bgpstream-no-such-manifest.csv");
        let _ = BgpStream::builder()
            .data_interface(DataInterface::CsvFile(missing))
            .start();
    }

    #[test]
    fn next_batch_step_preserves_order_and_exhausts() {
        use mrt::{Bgp4mp, MrtRecord, MrtWriter};
        let dir = std::env::temp_dir().join(format!("next_batch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.mrt");
        {
            let mut w = MrtWriter::new(std::fs::File::create(&path).unwrap());
            for ts in 0..10u32 {
                w.write(&MrtRecord::bgp4mp(
                    100 + ts,
                    Bgp4mp::StateChange {
                        peer_asn: bgp_types::Asn(65001),
                        local_asn: bgp_types::Asn(12654),
                        peer_ip: "192.0.2.1".parse().unwrap(),
                        local_ip: "192.0.2.254".parse().unwrap(),
                        old_state: bgp_types::SessionState::OpenConfirm,
                        new_state: bgp_types::SessionState::Established,
                    },
                ))
                .unwrap();
            }
        }
        let build = || {
            BgpStream::builder()
                .data_interface(DataInterface::SingleFile {
                    dump_type: DumpType::Updates,
                    path: path.clone(),
                    interval_start: 100,
                    duration: 10,
                })
                .interval(0, Some(1000))
                .start()
        };
        let batch = |s: &mut BgpStream| match s.next_batch_step(4) {
            BatchStep::Records(recs) => Some(recs),
            BatchStep::End => None,
            BatchStep::Idle { .. } => panic!("a historical stream never idles"),
        };
        // Batched timestamps must equal record-at-a-time timestamps.
        let mut one_by_one = Vec::new();
        let mut s = build();
        while let Some(r) = s.next_record() {
            one_by_one.push(r.timestamp);
        }
        let mut batched = Vec::new();
        let mut s = build();
        while let Some(recs) = batch(&mut s) {
            assert!(!recs.is_empty() && recs.len() <= 4);
            batched.extend(recs.into_iter().map(|r| r.timestamp));
        }
        assert_eq!(batched, one_by_one);
        assert!(!batched.is_empty());

        // Unread: a consumed tail handed back is re-delivered in
        // order, ahead of everything else, without double-counting.
        let mut s = build();
        let mut recs = batch(&mut s).unwrap();
        let counted = s.stats().records;
        let tail = recs.split_off(2);
        let tail_ts: Vec<u64> = tail.iter().map(|r| r.timestamp).collect();
        s.unread(tail);
        assert_eq!(s.stats().records, counted - tail_ts.len() as u64);
        let mut redelivered = Vec::new();
        while let Some(r) = s.next_record() {
            redelivered.push(r.timestamp);
        }
        assert_eq!(&redelivered[..tail_ts.len()], &tail_ts[..]);
        assert_eq!(
            recs.iter()
                .map(|r| r.timestamp)
                .chain(redelivered.iter().copied())
                .collect::<Vec<_>>(),
            one_by_one
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn one_file_index(path: &std::path::Path, start: u64, dur: u64, avail: u64) -> Arc<Index> {
        let idx = Index::shared();
        idx.register(broker::DumpMeta {
            project: "ris".into(),
            collector: "rrc00".into(),
            dump_type: DumpType::Updates,
            interval_start: start,
            duration: dur,
            path: path.to_path_buf(),
            available_at: avail,
            size: 1,
        });
        idx
    }

    fn write_keepalives(dir: &std::path::Path, name: &str, stamps: &[u32]) -> std::path::PathBuf {
        use mrt::{Bgp4mp, MrtRecord, MrtWriter};
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(name);
        let mut w = MrtWriter::new(std::fs::File::create(&path).unwrap());
        for &ts in stamps {
            w.write(&MrtRecord::bgp4mp(
                ts,
                Bgp4mp::Message {
                    peer_asn: bgp_types::Asn(65001),
                    local_asn: bgp_types::Asn(12654),
                    peer_ip: "192.0.2.1".parse().unwrap(),
                    local_ip: "192.0.2.254".parse().unwrap(),
                    message: bgp_types::BgpMessage::Keepalive,
                },
            ))
            .unwrap();
        }
        path
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "bgpstream-stream-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ))
    }

    #[test]
    fn live_clears_end_and_poll_interval_sets_poll() {
        let s = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .interval(100, Some(200))
            .live(100)
            .poll_interval(Duration::from_millis(7))
            .start();
        assert!(matches!(s.source, Source::Live { .. }));
        assert_eq!(s.poll, Duration::from_millis(7));
        let open = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .interval(100, None)
            .start();
        assert!(matches!(open.source, Source::Live { .. }));
        let h = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .interval(100, Some(200))
            .start();
        assert!(matches!(&h.source, Source::Pages { query, .. } if query.end == Some(200)));
    }

    #[test]
    fn watermark_release_delivers_without_grace_wait() {
        // A watermark-released live stream needs no clock progress at
        // all: the provider vouching for the window is enough.
        let dir = scratch("wm");
        let path = write_keepalives(&dir, "u.mrt", &[10, 20, 30]);
        let idx = one_file_index(&path, 0, 300, 40);
        let mut s = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx.clone()))
            .live(0)
            .watermark_release()
            .clock(Clock::manual(50))
            .poll_interval(Duration::from_millis(1))
            .start();
        // No watermark yet: the stream idles (probe via batch step, so
        // the test cannot hang).
        match s.next_batch_step(8) {
            BatchStep::Idle { released_through } => assert_eq!(released_through, 0),
            other => panic!("expected Idle, got {other:?}"),
        }
        idx.advance_watermark(broker::index::DEFAULT_WINDOW);
        let mut got = Vec::new();
        while got.len() < 3 {
            match s.next_batch_step(8) {
                BatchStep::Records(recs) => got.extend(recs.into_iter().map(|r| r.timestamp)),
                BatchStep::Idle { .. } => {}
                BatchStep::End => panic!("live stream must not end"),
            }
        }
        assert_eq!(got, vec![10, 20, 30]);
        assert!(s.released_through() >= broker::index::DEFAULT_WINDOW);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_step_reports_end_on_historical_exhaustion() {
        let mut s = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .interval(0, Some(1000))
            .start();
        assert!(matches!(s.next_batch_step(4), BatchStep::End));
        assert_eq!(s.released_through(), u64::MAX);
        // max == 0 never touches the stream.
        let mut s2 = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .live(0)
            .clock(Clock::Fixed(0))
            .start();
        assert!(matches!(s2.next_batch_step(0), BatchStep::Idle { .. }));
    }

    #[test]
    fn late_straggler_is_restamped_monotonically() {
        // Grace-released live stream; a dump published long after its
        // window was released must still be delivered (exactly once),
        // with its stale timestamps re-stamped so the stream never
        // goes backwards.
        let dir = scratch("straggler");
        let early = write_keepalives(&dir, "early.mrt", &[100, 200]);
        let late = write_keepalives(&dir, "late.mrt", &[150, 160]);
        let idx = one_file_index(&early, 0, 300, 400);
        let clock = Clock::manual(broker::index::DEFAULT_WINDOW + 600);
        let mut s = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx.clone()))
            .live(0)
            .clock(clock.clone())
            .live_grace(500)
            .poll_interval(Duration::from_millis(1))
            .start();
        // Window [0, 7200) releases; both records arrive.
        assert_eq!(s.next_record().unwrap().timestamp, 100);
        assert_eq!(s.next_record().unwrap().timestamp, 200);
        // Now the straggler surfaces, hours late, behind the cursor.
        idx.register(broker::DumpMeta {
            project: "ris".into(),
            collector: "rrc00".into(),
            dump_type: DumpType::Updates,
            interval_start: 0,
            duration: 300,
            path: late,
            available_at: clock.now(),
            size: 1,
        });
        let a = s.next_record().unwrap();
        let b = s.next_record().unwrap();
        assert_eq!(
            (a.timestamp, b.timestamp),
            (200, 200),
            "stale straggler records must be re-stamped to the last delivered time"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn straggler_cannot_undercut_a_reported_idle_watermark() {
        // The BatchStep::Idle contract: once Idle { released_through }
        // is observed, nothing older may be delivered — consumers
        // close bins up to that point. A grace-policy straggler
        // arriving afterwards must be re-stamped to at least the
        // promised watermark, not merely to the last delivered record.
        let dir = scratch("idle-floor");
        let early = write_keepalives(&dir, "early.mrt", &[100]);
        let late = write_keepalives(&dir, "late.mrt", &[150]);
        let idx = one_file_index(&early, 0, 300, 400);
        let window = broker::index::DEFAULT_WINDOW;
        // Clock far enough that windows [0, w) and [w, 2w) released.
        let clock = Clock::manual(2 * window + 600);
        let mut s = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx.clone()))
            .live(0)
            .clock(clock.clone())
            .live_grace(500)
            .poll_interval(Duration::from_millis(1))
            .start();
        // Drain the early record, then observe idleness: the stream
        // promises released_through = 2 * window.
        let released = loop {
            match s.next_batch_step(8) {
                BatchStep::Records(_) => {}
                BatchStep::Idle { released_through } => {
                    if released_through >= 2 * window {
                        break released_through;
                    }
                }
                BatchStep::End => panic!("live stream must not end"),
            }
        };
        // A straggler for the long-closed first window surfaces.
        idx.register(broker::DumpMeta {
            project: "ris".into(),
            collector: "rrc00".into(),
            dump_type: DumpType::Updates,
            interval_start: 0,
            duration: 300,
            path: late,
            available_at: clock.now(),
            size: 1,
        });
        let rec = loop {
            match s.next_batch_step(8) {
                BatchStep::Records(mut recs) => break recs.remove(0),
                BatchStep::Idle { .. } => {}
                BatchStep::End => panic!("live stream must not end"),
            }
        };
        assert!(
            rec.timestamp >= released,
            "straggler stamped {} below the promised watermark {released}",
            rec.timestamp
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parked_watermark_with_no_data_left_signals_feed_complete() {
        // A provider that parks the watermark at u64::MAX has declared
        // the feed over; once every dump released, the stream reports
        // released_through == u64::MAX instead of stepping windows
        // through the empty eternity (which would make run_live close
        // unbounded empty bins).
        let dir = scratch("feed-complete");
        let path = write_keepalives(&dir, "u.mrt", &[10, 20]);
        let idx = one_file_index(&path, 0, 300, 40);
        idx.advance_watermark(u64::MAX);
        let mut s = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx))
            .live(0)
            .watermark_release()
            .clock(Clock::manual(50))
            .poll_interval(Duration::from_millis(1))
            .start();
        let mut got = 0;
        loop {
            match s.next_batch_step(8) {
                BatchStep::Records(recs) => got += recs.len(),
                BatchStep::Idle { released_through } => {
                    if released_through == u64::MAX {
                        break;
                    }
                }
                BatchStep::End => panic!("manual-clock live stream must idle, not end"),
            }
        }
        assert_eq!(got, 2, "all data delivered before the completion signal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_stream_holds_a_lease_and_resumes_by_id() {
        use broker::LocalBroker;
        let dir = scratch("lease");
        let path = write_keepalives(&dir, "u.mrt", &[10, 20]);
        let idx = one_file_index(&path, 0, 300, 40);
        idx.advance_watermark(u64::MAX);
        let client = LocalBroker::shared(idx);
        let mut s = BgpStream::builder()
            .broker_client(client.clone())
            .live(0)
            .watermark_release()
            .clock(Clock::manual(50))
            .poll_interval(Duration::from_millis(1))
            .start();
        let lease = s.live_lease().expect("live stream holds a lease");
        assert_eq!(s.next_record().unwrap().timestamp, 10);
        // Simulate a crash: drop the stream, rebuild from the lease.
        drop(s);
        let resumed = BgpStream::builder()
            .broker_client(client.clone())
            .live(0)
            .watermark_release()
            .clock(Clock::manual(50))
            .poll_interval(Duration::from_millis(1))
            .resume_live_lease(lease)
            .start();
        assert_eq!(resumed.live_lease(), Some(lease));
        // The broker-side cursor already released the whole window to
        // the crashed client, so the resumed stream sees no duplicate
        // files (exactly-once at dump granularity).
        assert!(resumed.last_error().is_none());

        // An unknown lease refuses to start, with a typed cause.
        let err = match BgpStream::builder()
            .broker_client(client)
            .live(0)
            .resume_live_lease(lease + 999)
            .try_start()
        {
            Ok(_) => panic!("bogus lease must not start"),
            Err(e) => e,
        };
        assert_eq!(err.broker_error(), &BrokerError::LeaseExpired);
        assert!(err.to_string().contains("cannot start stream"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn historical_stream_is_unaffected_by_resume_lease() {
        let s = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .interval(0, Some(1000))
            .resume_live_lease(42)
            .start();
        assert_eq!(s.live_lease(), None);
        assert!(s.last_error().is_none());
    }

    #[test]
    fn live_stream_with_fixed_clock_and_no_data_ends() {
        // Degenerate but must not hang: fixed clock can never allow
        // the next live window, and nothing will be published.
        let mut s = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .live(0)
            .clock(Clock::Fixed(0))
            .poll_interval(Duration::from_millis(1))
            .start();
        assert!(s.next_record().is_none());
    }
}
