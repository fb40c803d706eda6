//! The meta-data index and its windowed query interface.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bsync::{Condvar, Mutex, MutexGuard};

/// RIB snapshot or Updates dump.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DumpType {
    /// A RIB snapshot (TABLE_DUMP_V2).
    Rib,
    /// An Updates dump (BGP4MP) covering an interval.
    Updates,
}

impl std::fmt::Display for DumpType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DumpType::Rib => "ribs",
            DumpType::Updates => "updates",
        })
    }
}

impl std::str::FromStr for DumpType {
    type Err = crate::error::BrokerError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ribs" | "rib" => Ok(DumpType::Rib),
            "updates" => Ok(DumpType::Updates),
            other => Err(crate::error::BrokerError::Malformed(format!(
                "unknown dump type {other:?}"
            ))),
        }
    }
}

/// Meta-data about one dump file in a data provider's archive.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DumpMeta {
    /// Collection project ("routeviews", "ris").
    pub project: String,
    /// Collector name ("rrc01", "route-views2"…).
    pub collector: String,
    /// RIB or Updates.
    pub dump_type: DumpType,
    /// Nominal start of the interval the dump covers (virtual
    /// seconds). For RIBs this is the snapshot time.
    pub interval_start: u64,
    /// Interval length (0 for RIBs).
    pub duration: u64,
    /// Where the file lives.
    pub path: PathBuf,
    /// When the file became visible in the archive (start + rotation
    /// duration + publication delay).
    pub available_at: u64,
    /// File size in bytes (for the >2 TB/yr volume accounting).
    pub size: u64,
}

impl DumpMeta {
    /// Nominal end of the covered interval.
    pub fn interval_end(&self) -> u64 {
        self.interval_start + self.duration
    }

    /// The order every broker response lists dumps in: by interval
    /// start, then project, collector and dump type.
    pub fn order_key(&self) -> (u64, &str, &str, u8) {
        (
            self.interval_start,
            &self.project,
            &self.collector,
            self.dump_type as u8,
        )
    }

    /// The interned identity of this dump's source. Called once per
    /// dump open; records derived from the dump carry the returned
    /// `Copy` handle instead of cloning the name strings.
    pub fn source_id(&self) -> crate::source::SourceId {
        crate::source::SourceId::intern(&self.project, &self.collector, self.dump_type)
    }

    /// Whether the dump's interval overlaps `[start, end]`
    /// (end = `None` means unbounded / live).
    pub fn overlaps(&self, start: u64, end: Option<u64>) -> bool {
        let within_end = match end {
            Some(e) => self.interval_start <= e,
            None => true,
        };
        within_end && self.interval_end() >= start
    }
}

/// A stream request, mirroring libBGPStream's meta-data filters
/// (§3.3.1): projects, collectors, dump types, time interval, live.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Query {
    /// Accepted projects; empty = all.
    pub projects: Vec<String>,
    /// Accepted collectors; empty = all.
    pub collectors: Vec<String>,
    /// Accepted dump types; empty = all.
    pub dump_types: Vec<DumpType>,
    /// Interval start (virtual seconds).
    pub start: u64,
    /// Interval end; `None` = live mode (the stream never ends).
    pub end: Option<u64>,
}

impl Query {
    /// Whether `m` matches the non-time filters.
    pub fn matches(&self, m: &DumpMeta) -> bool {
        (self.projects.is_empty() || self.projects.contains(&m.project))
            && (self.collectors.is_empty() || self.collectors.contains(&m.collector))
            && (self.dump_types.is_empty() || self.dump_types.contains(&m.dump_type))
    }
}

/// Cursor for windowed (paginated) query responses.
#[derive(Clone, Copy, Debug)]
pub struct BrokerCursor {
    /// Next window start (nominal time).
    pub window_start: u64,
}

/// One windowed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Matching dump files, ordered by (interval_start, project,
    /// collector, type).
    pub files: Vec<DumpMeta>,
    /// True when the historical part of the query is exhausted.
    pub exhausted: bool,
}

/// The window span of one Broker response: "the broker returns in each
/// response a set of dump file URLs spanning up to 2 hours of data"
/// (§3.3.4).
pub const DEFAULT_WINDOW: u64 = 2 * 3600;

/// The index state behind its lock; [`Index::lock`] hands the live
/// cursor one consistent view of it for a whole poll.
pub(crate) struct Inner {
    entries: Vec<DumpMeta>,
    /// Every registered entry, so an exact re-publication of a dump
    /// (same `DumpMeta` field for field) is recognised and ignored —
    /// the paper's SQL store keys on dump identity, and re-inserting
    /// the same row is a no-op there too. Without this, a duplicate
    /// registration would make every historical query (and every live
    /// poll) deliver the dump twice.
    seen: std::collections::HashSet<DumpMeta>,
    /// Monotone registration counter, bumped on every publish.
    version: u64,
    /// Publication watermark: the data provider asserts that every
    /// dump with `interval_start < watermark` matching its feed has
    /// been registered. 0 = no watermark support (time/grace-based
    /// live release applies instead).
    pub(crate) watermark: u64,
}

impl Inner {
    /// The `interval_start` of the first entry at or after position
    /// `from` that matches `query`, is visible by `now` and starts at
    /// or after `t`: where a cursor's next file lies. The historical
    /// query fast-forwards over empty windows to it, and the live
    /// cursor crosses the releasable windows before it.
    pub(crate) fn next_start(&self, query: &Query, from: usize, t: u64, now: u64) -> Option<u64> {
        self.entries[from..]
            .iter()
            .filter(|m| m.available_at <= now && m.interval_start >= t && query.matches(m))
            .map(|m| m.interval_start)
            .min()
    }

    /// Scan for live delivery: every entry matching `query`, visible
    /// by `now`, with `interval_start` in `[query.start,
    /// release_before)`, whose position is not yet marked in
    /// `delivered`. Marks and returns them. Positions are stable
    /// (entries are append-only and deduped), so a dump is delivered
    /// to a given cursor exactly once no matter how often it is
    /// re-published or how late it appears. Paths are not yet
    /// rewritten through the mirror set ([`Index::rewrite_mirrors`]).
    ///
    /// `frontier` is the cursor's skip hint: the number of leading
    /// entries already delivered. It is advanced here, so over a
    /// long-lived live session (where delivery is a growing prefix of
    /// the append-only list) the steady-state scan cost is O(new
    /// entries), not O(all entries ever registered). Entries behind
    /// the frontier left undelivered (filtered out, or still awaiting
    /// release) keep the frontier pinned and are simply rescanned.
    pub(crate) fn scan_undelivered(
        &self,
        query: &Query,
        delivered: &mut Vec<bool>,
        frontier: &mut usize,
        release_before: u64,
        now: u64,
    ) -> Vec<DumpMeta> {
        delivered.resize(self.entries.len(), false);
        let mut out: Vec<DumpMeta> = Vec::new();
        for (pos, m) in self.entries.iter().enumerate().skip(*frontier) {
            if delivered[pos] {
                continue;
            }
            // Permanently out of scope for this cursor (the query is
            // fixed for the stream's lifetime): resolve the slot so it
            // never pins the frontier.
            if !query.matches(m) || m.interval_end() < query.start {
                delivered[pos] = true;
                continue;
            }
            // Transiently undeliverable: unpublished or not released.
            if m.available_at > now || m.interval_start >= release_before {
                continue;
            }
            delivered[pos] = true;
            out.push(m.clone());
        }
        while *frontier < delivered.len() && delivered[*frontier] {
            *frontier += 1;
        }
        out
    }
}

/// The meta-data store. Thread-safe; live consumers can block on
/// [`Index::wait_for_new`].
pub struct Index {
    inner: Mutex<Inner>,
    cond: Condvar,
    window: u64,
    /// Optional mirror set: response paths are rewritten through it
    /// (§3.2 load balancing).
    mirrors: Mutex<Option<std::sync::Arc<crate::mirror::MirrorSet>>>,
}

impl Default for Index {
    fn default() -> Self {
        Self::new()
    }
}

impl Index {
    /// An empty index with the default response window.
    pub fn new() -> Self {
        Index::with_window(DEFAULT_WINDOW)
    }

    /// An empty index with a custom response window (seconds of data
    /// per response).
    pub fn with_window(window: u64) -> Self {
        Index {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                seen: std::collections::HashSet::new(),
                version: 0,
                watermark: 0,
            }),
            cond: Condvar::new(),
            window: window.max(1),
            mirrors: Mutex::new(None),
        }
    }

    /// Configure mirror-based load balancing: every dump-file path in
    /// subsequent responses is rewritten through `mirrors`.
    pub fn set_mirrors(&self, mirrors: std::sync::Arc<crate::mirror::MirrorSet>) {
        *self.mirrors.lock() = Some(mirrors);
    }

    /// Shared handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Register a published dump file (what the paper's scraper feeds
    /// into the SQL database). Wakes any live pollers. Registering the
    /// exact same `DumpMeta` again is a no-op (returns false): a
    /// re-published dump must not double every query that covers it.
    pub fn register(&self, meta: DumpMeta) -> bool {
        let mut inner = self.inner.lock();
        if !inner.seen.insert(meta.clone()) {
            return false;
        }
        inner.entries.push(meta);
        inner.version += 1;
        drop(inner);
        self.cond.notify_all();
        true
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no files are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total registered bytes (archive volume accounting).
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().entries.iter().map(|e| e.size).sum()
    }

    /// Current registration version (for change detection).
    pub fn version(&self) -> u64 {
        self.inner.lock().version
    }

    /// Advance the publication watermark to `t` (monotone; moving
    /// backwards is a no-op). By advancing to `t` the data provider
    /// asserts "every dump with `interval_start < t` has been
    /// registered" — the live cursor's [`ReleasePolicy::Watermark`]
    /// releases broker windows off this instead of waiting out a
    /// publication-delay grace period, which is both lower-latency and
    /// stall-proof: a stalled or out-of-order publisher holds the
    /// watermark (and therefore bin closing) back rather than losing
    /// data. Wakes live pollers.
    ///
    /// [`ReleasePolicy::Watermark`]: crate::live::ReleasePolicy::Watermark
    pub fn advance_watermark(&self, t: u64) {
        let mut inner = self.inner.lock();
        if t > inner.watermark {
            inner.watermark = t;
            inner.version += 1;
            drop(inner);
            self.cond.notify_all();
        }
    }

    /// The current publication watermark ("complete through T"); 0
    /// when the provider never advanced one.
    pub fn watermark(&self) -> u64 {
        self.inner.lock().watermark
    }

    /// One consistent snapshot of everything registered at or after
    /// position `from` in the append-only entry list, together with
    /// the version and watermark it reflects. The broker service's
    /// partitioned view ([`crate::service`]) tails the index with
    /// this, so its refresh cost is O(new entries), not O(all).
    pub(crate) fn entries_from(&self, from: usize) -> (u64, u64, Vec<DumpMeta>) {
        let inner = self.inner.lock();
        let from = from.min(inner.entries.len());
        (
            inner.version,
            inner.watermark,
            inner.entries[from..].to_vec(),
        )
    }

    /// Rewrite dump-file paths through the configured mirror set
    /// (no-op without mirrors). Response paths — from [`Index::query`]
    /// or the service's cached view — go through here so mirror
    /// selection behaves identically on every query path.
    pub(crate) fn rewrite_mirrors(&self, files: &mut [DumpMeta]) {
        if let Some(mirrors) = self.mirrors.lock().clone() {
            for f in files {
                f.path = mirrors.pick(&f.path);
            }
        }
    }

    /// The index state under its lock, so a live poll's lookup and
    /// release scan see one publication state and watermark.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock()
    }

    /// The response window span in seconds (how much data one query
    /// returns). Live consumers use this to know when a window can be
    /// considered complete.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Answer one windowed query.
    ///
    /// Only files *published* by `now` (`available_at <= now`) are
    /// visible — this is what makes live mode see data with realistic
    /// latency. The cursor advances by at most one window. `exhausted`
    /// is true once the cursor passed `query.end` (never in live
    /// mode).
    pub fn query(&self, query: &Query, cursor: &mut BrokerCursor, now: u64) -> Response {
        let inner = self.inner.lock();
        let w_start = cursor.window_start.max(query.start);
        let w_end = w_start.saturating_add(self.window);
        let mut files: Vec<DumpMeta> = inner
            .entries
            .iter()
            .filter(|m| m.available_at <= now)
            .filter(|m| query.matches(m))
            // Window slice: a file belongs to the window containing
            // its interval_start; the query end is enforced by
            // `overlaps` (inclusive).
            .filter(|m| m.interval_start < w_end)
            .filter(|m| m.interval_end() >= w_start)
            .filter(|m| m.overlaps(query.start, query.end))
            .cloned()
            .collect();
        files.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        // Deduplicate files that overlap multiple windows: a file is
        // attributed to the window containing its interval_start.
        files.retain(|m| m.interval_start >= w_start || cursor.window_start <= query.start);
        cursor.window_start = w_end;
        if files.is_empty() {
            if let Some(e) = query.end {
                // Historical query, empty window: fast-forward the
                // cursor over file-less time, directly to the next
                // matching file — or past the end if none exists.
                // Without this, a query whose end lies far beyond the
                // archive (e.g. "-w 0," to the end of time) would page
                // through astronomically many empty windows. An
                // open-ended query never skips here, since future
                // publications may fill the gap; live streams read
                // through a `LiveCursor`, which crosses only windows
                // its release policy has closed.
                cursor.window_start = match inner.next_start(query, 0, w_end, now) {
                    Some(s) if s <= e => s,
                    _ => e.saturating_add(1),
                };
            }
        }
        let exhausted = match query.end {
            Some(e) => cursor.window_start > e,
            None => false,
        };
        drop(inner);
        self.rewrite_mirrors(&mut files);
        Response { files, exhausted }
    }

    /// Block until a new file is registered or `timeout` elapses.
    /// Returns true if something new arrived. Live-mode pollers use
    /// this instead of spinning.
    pub fn wait_for_new(&self, last_version: u64, timeout: Duration) -> bool {
        let mut inner = self.inner.lock();
        if inner.version > last_version {
            return true;
        }
        self.cond.wait_for(&mut inner, timeout);
        inner.version > last_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(collector: &str, ty: DumpType, start: u64, dur: u64, avail: u64) -> DumpMeta {
        DumpMeta {
            project: if collector.starts_with("rrc") {
                "ris"
            } else {
                "routeviews"
            }
            .into(),
            collector: collector.into(),
            dump_type: ty,
            interval_start: start,
            duration: dur,
            path: PathBuf::from(format!("/tmp/{collector}-{start}")),
            available_at: avail,
            size: 1000,
        }
    }

    fn populated() -> Index {
        let idx = Index::with_window(3600);
        // RIS rrc01: 5-minute updates over two hours.
        for k in 0..24 {
            let s = k * 300;
            idx.register(meta("rrc01", DumpType::Updates, s, 300, s + 400));
        }
        // RouteViews rv2: 15-minute updates.
        for k in 0..8 {
            let s = k * 900;
            idx.register(meta("rv2", DumpType::Updates, s, 900, s + 1100));
        }
        // One RIB each.
        idx.register(meta("rrc01", DumpType::Rib, 0, 0, 600));
        idx.register(meta("rv2", DumpType::Rib, 0, 0, 600));
        idx
    }

    #[test]
    fn historical_query_fast_forwards_over_empty_gaps() {
        let idx = Index::with_window(3600);
        idx.register(meta("rrc01", DumpType::Updates, 0, 300, 400));
        // A lone file eons later.
        idx.register(meta(
            "rrc01",
            DumpType::Updates,
            1_000_000_000,
            300,
            1_000_000_400,
        ));
        let q = Query {
            start: 0,
            end: Some(u64::MAX - 1),
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        let now = u64::MAX;
        let mut queries = 0;
        let mut files = 0;
        loop {
            let r = idx.query(&q, &mut cur, now);
            queries += 1;
            files += r.files.len();
            if r.exhausted {
                break;
            }
            assert!(queries < 10, "cursor not fast-forwarding");
        }
        assert_eq!(files, 2);
        assert!(queries <= 4, "took {queries} queries");
    }

    #[test]
    fn live_query_never_skips_gaps() {
        let idx = Index::with_window(3600);
        idx.register(meta("rrc01", DumpType::Updates, 1_000_000, 300, 1_000_400));
        let q = Query {
            start: 0,
            end: None,
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        let r = idx.query(&q, &mut cur, u64::MAX);
        assert!(r.files.is_empty());
        assert!(!r.exhausted);
        // Cursor advanced by exactly one window: live mode must revisit
        // the gap, since a slow publisher could still fill it.
        assert_eq!(cur.window_start, 3600);
    }

    #[test]
    fn windowed_query_pages_through() {
        let idx = populated();
        let q = Query {
            start: 0,
            end: Some(7200),
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        let now = u64::MAX;
        let r1 = idx.query(&q, &mut cur, now);
        assert!(!r1.exhausted);
        // First window [0, 3600): 12 rrc01 updates + 4 rv2 + 2 ribs.
        assert_eq!(r1.files.len(), 12 + 4 + 2);
        let r2 = idx.query(&q, &mut cur, now);
        assert_eq!(r2.files.len(), 12 + 4);
        let r3 = idx.query(&q, &mut cur, now);
        assert!(r3.exhausted);
        assert!(r3.files.is_empty());
    }

    #[test]
    fn filters_apply() {
        let idx = populated();
        let q = Query {
            collectors: vec!["rrc01".into()],
            dump_types: vec![DumpType::Rib],
            start: 0,
            end: Some(7200),
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        let r = idx.query(&q, &mut cur, u64::MAX);
        assert_eq!(r.files.len(), 1);
        assert_eq!(r.files[0].collector, "rrc01");
        assert_eq!(r.files[0].dump_type, DumpType::Rib);
    }

    #[test]
    fn project_filter() {
        let idx = populated();
        let q = Query {
            projects: vec!["ris".into()],
            start: 0,
            end: Some(7200),
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        let mut n = 0;
        loop {
            let r = idx.query(&q, &mut cur, u64::MAX);
            n += r.files.len();
            assert!(r.files.iter().all(|f| f.project == "ris"));
            if r.exhausted {
                break;
            }
        }
        assert_eq!(n, 24 + 1);
    }

    #[test]
    fn unpublished_files_are_invisible() {
        let idx = populated();
        let q = Query {
            start: 0,
            end: Some(7200),
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        // At now=450 only files with available_at <= 450 are visible:
        // the first rrc01 update (avail 400).
        let r = idx.query(&q, &mut cur, 450);
        assert_eq!(r.files.len(), 1);
        assert_eq!(r.files[0].collector, "rrc01");
        assert_eq!(r.files[0].interval_start, 0);
    }

    #[test]
    fn ordering_is_time_then_name() {
        let idx = populated();
        let q = Query {
            start: 0,
            end: Some(3600),
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        let r = idx.query(&q, &mut cur, u64::MAX);
        for w in r.files.windows(2) {
            assert!(w[0].interval_start <= w[1].interval_start);
        }
    }

    #[test]
    fn live_query_never_exhausts() {
        let idx = populated();
        let q = Query {
            start: 0,
            end: None,
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        for _ in 0..10 {
            let r = idx.query(&q, &mut cur, u64::MAX);
            assert!(!r.exhausted);
        }
    }

    #[test]
    fn wait_for_new_sees_registration() {
        let idx = Arc::new(Index::new());
        let v0 = idx.version();
        let idx2 = idx.clone();
        let handle = std::thread::spawn(move || {
            idx2.register(meta("rrc01", DumpType::Rib, 0, 0, 0));
        });
        let got = idx.wait_for_new(v0, Duration::from_secs(5));
        handle.join().unwrap();
        assert!(got);
        // Nothing newer than the current version.
        let v1 = idx.version();
        assert!(!idx.wait_for_new(v1, Duration::from_millis(10)));
    }

    #[test]
    fn volume_accounting() {
        let idx = populated();
        assert_eq!(idx.total_bytes(), idx.len() as u64 * 1000);
    }

    #[test]
    fn overlap_semantics() {
        let m = meta("rrc01", DumpType::Updates, 100, 300, 0);
        assert!(m.overlaps(0, Some(150)));
        assert!(m.overlaps(400, Some(500))); // interval_end == 400
        assert!(!m.overlaps(401, Some(500)));
        assert!(m.overlaps(0, None));
        assert!(!m.overlaps(0, Some(99)));
    }

    #[test]
    fn register_ignores_exact_duplicates() {
        // Regression companion to live_query_never_skips_gaps: a dump
        // re-published with identical DumpMeta must not appear twice
        // in query responses (historical readers would double-read the
        // file; live cursors would double-deliver).
        let idx = Index::with_window(3600);
        let m = meta("rrc01", DumpType::Updates, 0, 300, 400);
        assert!(idx.register(m.clone()));
        assert!(!idx.register(m.clone()));
        assert_eq!(idx.len(), 1);
        let q = Query {
            start: 0,
            end: Some(7200),
            ..Default::default()
        };
        let mut cur = BrokerCursor { window_start: 0 };
        let r = idx.query(&q, &mut cur, u64::MAX);
        assert_eq!(r.files.len(), 1);
        // A genuinely different publication (new path) still lands.
        let mut m2 = m;
        m2.path = PathBuf::from("/tmp/rrc01-0-retry");
        assert!(idx.register(m2));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn watermark_is_monotone_and_wakes_waiters() {
        let idx = Arc::new(Index::new());
        assert_eq!(idx.watermark(), 0);
        let v0 = idx.version();
        let idx2 = idx.clone();
        let handle = std::thread::spawn(move || idx2.advance_watermark(500));
        assert!(idx.wait_for_new(v0, Duration::from_secs(5)));
        handle.join().unwrap();
        assert_eq!(idx.watermark(), 500);
        // Moving backwards is a no-op and does not bump the version.
        let v1 = idx.version();
        idx.advance_watermark(100);
        assert_eq!(idx.watermark(), 500);
        assert_eq!(idx.version(), v1);
    }

    #[test]
    fn dump_type_parse() {
        assert_eq!("ribs".parse::<DumpType>().unwrap(), DumpType::Rib);
        assert_eq!("updates".parse::<DumpType>().unwrap(), DumpType::Updates);
        assert!("nope".parse::<DumpType>().is_err());
        assert_eq!(DumpType::Rib.to_string(), "ribs");
    }
}
