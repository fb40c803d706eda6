//! The served broker: a multi-tenant metadata service over `mq`.
//!
//! The paper's broker is one HTTP service fielding windowed meta-data
//! queries from many independent libBGPStream clients (§3.2). This
//! module stands that architecture up in-process: a
//! [`BrokerService`] consumes [`wire`](crate::wire) request frames
//! from a shared request topic, answers each client on its own reply
//! topic, and announces index changes on an events topic so remote
//! clients can block exactly like local ones do on
//! [`Index::wait_for_new`].
//!
//! Three server-side concerns distinguish a *served* broker from the
//! in-process [`Index`]:
//!
//! * **A partitioned, time-bucketed view** ([`IndexView`]) — the
//!   service answers historical queries from a snapshot sorted by the
//!   response order key, locating each window's candidates by binary
//!   search instead of the index's full scan. The view catches up
//!   whenever the index version moves — which includes
//!   [`Index::advance_watermark`] — so a page never answers from
//!   older data than the version it is stamped with.
//! * **Cursor leases** — live sessions are server-side
//!   [`LiveCursor`]s keyed by [`crate::LeaseId`] with a wall-clock TTL. Any
//!   request touching a lease renews it; a client that goes quiet
//!   past the TTL is reaped, and later requests get
//!   [`BrokerError::LeaseExpired`]. Within the TTL a crashed client
//!   may re-attach by id ([`BrokerRequest::OpenLive`] with `resume`)
//!   and continue exactly-once: the delivered-set lives with the
//!   lease, not the connection.
//! * **Admission control** — each service step processes a bounded
//!   batch: at most [`ServiceConfig::max_inflight_global`] requests
//!   per step and [`ServiceConfig::max_inflight_per_client`] per
//!   client within it. Excess requests are answered with an explicit
//!   [`BrokerError::Busy`] instead of queueing unboundedly — load is
//!   shed visibly, and a flooding client cannot starve the rest.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bsync::atomic::{AtomicBool, Ordering};
use bsync::time::Clock;
use mq::Cluster;

use crate::error::BrokerError;
use crate::index::{BrokerCursor, DumpMeta, Index, Query};
use crate::lease::LeaseTable;
use crate::live::LiveCursor;
use crate::wire::{
    BrokerRequest, BrokerResponse, RequestEnvelope, ResponseEnvelope, EVENTS_TOPIC, REPLY_PREFIX,
    REQUEST_TOPIC,
};

/// Idle wait per loop iteration in [`BrokerService::run`]; bounds the
/// latency of change-event publication.
const TICK: Duration = Duration::from_millis(2);

/// Service tuning. The topics are fixed by the protocol (see
/// [`wire`](crate::wire)).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Wall-clock lease TTL: a lease untouched this long is reaped.
    pub lease_ttl: Duration,
    /// Time source for lease liveness. [`Clock::system`] in
    /// production; tests inject [`Clock::manual`] so expiry is
    /// deterministic.
    pub clock: Clock,
    /// Max requests processed per service step across all clients;
    /// the rest of the fetched batch is answered `Busy`.
    pub max_inflight_global: usize,
    /// Max requests per client within one step; excess is `Busy`.
    pub max_inflight_per_client: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            lease_ttl: Duration::from_secs(30),
            clock: Clock::system(),
            max_inflight_global: 512,
            max_inflight_per_client: 64,
        }
    }
}

/// Counters the service accumulates over its lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests answered (including errors, excluding `Busy`).
    pub requests: u64,
    /// Requests shed with [`BrokerError::Busy`].
    pub busy: u64,
    /// Frames that failed to decode (no reply possible).
    pub malformed: u64,
    /// Leases opened.
    pub leases_opened: u64,
    /// Leases re-attached via resume-by-id.
    pub leases_resumed: u64,
    /// Leases reaped by TTL expiry.
    pub leases_expired: u64,
}

/// The service's partitioned, time-bucketed snapshot of an [`Index`].
///
/// Entries are kept pre-sorted by the response order key
/// `(interval_start, project, collector, dump_type)`, so a window's
/// candidates are one `partition_point` range scan and come out
/// already ordered. Refresh tails the index incrementally (new
/// entries only) and re-establishes the sort stably, which preserves
/// registration order among equal keys — exactly what
/// [`Index::query`]'s stable sort produces, keeping served responses
/// byte-identical to local ones.
pub struct IndexView {
    entries: Vec<DumpMeta>,
    /// Entries consumed from the index so far (tail position).
    raw_count: usize,
    version: u64,
    watermark: u64,
    /// Longest dump duration seen; bounds how far before a window an
    /// overlapping entry's `interval_start` can lie.
    max_duration: u64,
    window: u64,
}

impl IndexView {
    /// An empty view over an index with response window `window`.
    pub fn new(window: u64) -> Self {
        IndexView {
            entries: Vec::new(),
            raw_count: 0,
            version: 0,
            watermark: 0,
            max_duration: 0,
            window: window.max(1),
        }
    }

    /// The index version this view reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The publication watermark this view reflects.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Catch up with `index`: pull entries registered since the last
    /// refresh and re-sort. Any version change — new dumps or a
    /// watermark advance — counts. Returns true when the view changed.
    pub fn refresh(&mut self, index: &Index) -> bool {
        if index.version() == self.version {
            return false;
        }
        let (version, watermark, fresh) = index.entries_from(self.raw_count);
        self.raw_count += fresh.len();
        if !fresh.is_empty() {
            for m in &fresh {
                self.max_duration = self.max_duration.max(m.duration);
            }
            self.entries.extend(fresh);
            // Stable: equal order keys stay in registration order,
            // matching Index::query's stable sort of its scan result.
            self.entries
                .sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        }
        self.version = version;
        self.watermark = watermark;
        true
    }

    /// Answer one windowed page with [`Index::query`] semantics.
    /// Paths are NOT mirror-rewritten here — the caller applies
    /// [`Index`] mirror selection after the page is materialised.
    pub fn query(
        &self,
        query: &Query,
        cursor: &mut BrokerCursor,
        now: u64,
    ) -> (Vec<DumpMeta>, bool) {
        let w_start = cursor.window_start.max(query.start);
        let w_end = w_start.saturating_add(self.window);
        // Candidates: interval_start ∈ [w_start - max_duration, w_end).
        // Anything earlier cannot reach the window (interval_end =
        // interval_start + duration ≤ interval_start + max_duration <
        // w_start); anything later is attributed to a later window.
        let lo = self
            .entries
            .partition_point(|m| m.interval_start < w_start.saturating_sub(self.max_duration));
        let hi = self.entries.partition_point(|m| m.interval_start < w_end);
        let first_window = cursor.window_start <= query.start;
        let files: Vec<DumpMeta> = self.entries[lo..hi]
            .iter()
            .filter(|m| m.available_at <= now)
            .filter(|m| query.matches(m))
            .filter(|m| m.interval_end() >= w_start)
            .filter(|m| m.overlaps(query.start, query.end))
            // Window attribution: a file belongs to the window holding
            // its interval_start, except in the query's first window.
            .filter(|m| m.interval_start >= w_start || first_window)
            .cloned()
            .collect();
        cursor.window_start = w_end;
        if files.is_empty() {
            if let Some(e) = query.end {
                // Historical fast-forward over file-less time: the
                // entries are sorted by interval_start, so the first
                // visible match at or past w_end is the minimum.
                let next = self.entries
                    [self.entries.partition_point(|m| m.interval_start < w_end)..]
                    .iter()
                    .filter(|m| m.available_at <= now)
                    .find(|m| query.matches(m))
                    .map(|m| m.interval_start);
                cursor.window_start = match next {
                    Some(s) if s <= e => s,
                    _ => e.saturating_add(1),
                };
            }
        }
        let exhausted = match query.end {
            Some(e) => cursor.window_start > e,
            None => false,
        };
        (files, exhausted)
    }
}

/// The broker server. Construct with [`BrokerService::new`], then
/// either [`BrokerService::spawn`] a thread or drive
/// [`BrokerService::step`] manually (deterministic tests).
pub struct BrokerService {
    cluster: Arc<Cluster>,
    index: Arc<Index>,
    cfg: ServiceConfig,
    view: IndexView,
    leases: LeaseTable<LiveCursor>,
    /// Next unread offset on the request topic.
    req_offset: u64,
    /// Index version last announced on the events topic.
    announced_version: u64,
    stats: ServiceStats,
}

impl BrokerService {
    /// A service over `index`, speaking on `cluster` per `cfg`.
    /// Creates the request and events topics (idempotent).
    pub fn new(cluster: Arc<Cluster>, index: Arc<Index>, cfg: ServiceConfig) -> Self {
        cluster.create_topic(REQUEST_TOPIC, 1);
        cluster.create_topic(EVENTS_TOPIC, 1);
        let view = IndexView::new(index.window());
        let leases = LeaseTable::new(cfg.clock.clone(), cfg.lease_ttl);
        BrokerService {
            cluster,
            index,
            cfg,
            view,
            leases,
            req_offset: 0,
            announced_version: 0,
            stats: ServiceStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.stats;
        let leases = self.leases.counters();
        s.leases_opened = leases.opened;
        s.leases_resumed = leases.resumed;
        s.leases_expired = leases.expired;
        s
    }

    /// Live leases currently held.
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// One deterministic service step: refresh the view, announce
    /// changes, reap expired leases, then fetch and answer one
    /// admission-bounded batch of requests. Returns the number of
    /// requests consumed from the request topic (answered or shed).
    pub fn step(&mut self) -> usize {
        self.view.refresh(&self.index);
        if self.view.version() != self.announced_version {
            self.announced_version = self.view.version();
            let mut payload = Vec::with_capacity(16);
            payload.extend_from_slice(&self.view.version().to_le_bytes());
            payload.extend_from_slice(&self.view.watermark().to_le_bytes());
            self.cluster.produce(EVENTS_TOPIC, "version", 0, payload);
        }
        self.reap_expired();
        let batch = self.cluster.fetch(
            REQUEST_TOPIC,
            0,
            self.req_offset,
            self.cfg.max_inflight_global.saturating_mul(2).max(16),
        );
        if batch.is_empty() {
            return 0;
        }
        self.req_offset += batch.len() as u64;
        let mut admitted_total = 0usize;
        let mut admitted_per_client: HashMap<String, usize> = HashMap::new();
        for msg in &batch {
            let env = match RequestEnvelope::decode(&msg.payload) {
                Ok(env) => env,
                Err(_) => {
                    // Undecodable frames carry no routable client or
                    // correlation id: count and drop.
                    self.stats.malformed += 1;
                    continue;
                }
            };
            let per_client = admitted_per_client.entry(env.client.clone()).or_insert(0);
            let body = if admitted_total >= self.cfg.max_inflight_global
                || *per_client >= self.cfg.max_inflight_per_client
            {
                self.stats.busy += 1;
                BrokerResponse::Error(BrokerError::Busy)
            } else {
                admitted_total += 1;
                *per_client += 1;
                self.stats.requests += 1;
                self.handle(&env)
            };
            let reply = ResponseEnvelope {
                req_id: env.req_id,
                index_version: self.view.version(),
                watermark: self.view.watermark(),
                body,
            };
            let topic = format!("{REPLY_PREFIX}{}", env.client);
            self.cluster.produce(&topic, &env.client, 0, reply.encode());
        }
        batch.len()
    }

    fn reap_expired(&mut self) {
        self.leases.reap();
    }

    fn handle(&mut self, env: &RequestEnvelope) -> BrokerResponse {
        match &env.body {
            BrokerRequest::Query {
                query,
                window_start,
                now,
            } => {
                let mut cursor = BrokerCursor {
                    window_start: *window_start,
                };
                let (mut files, exhausted) = self.view.query(query, &mut cursor, *now);
                self.index.rewrite_mirrors(&mut files);
                BrokerResponse::Query {
                    files,
                    exhausted,
                    next_window_start: cursor.window_start,
                }
            }
            BrokerRequest::OpenLive {
                query,
                policy,
                resume,
            } => {
                if let Some(id) = resume {
                    return if self.leases.resume(*id) {
                        BrokerResponse::LiveOpened { lease: *id }
                    } else {
                        BrokerResponse::Error(BrokerError::LeaseExpired)
                    };
                }
                let id =
                    self.leases
                        .open(LiveCursor::new(self.index.clone(), query.clone(), *policy));
                BrokerResponse::LiveOpened { lease: id }
            }
            BrokerRequest::PollLive { lease, now } => {
                match self.leases.with_lease(*lease, |c| c.poll(*now)) {
                    Some(poll) => BrokerResponse::Live(poll),
                    None => BrokerResponse::Error(BrokerError::LeaseExpired),
                }
            }
            BrokerRequest::Renew { lease } => {
                if self.leases.touch(*lease) {
                    BrokerResponse::Renewed
                } else {
                    BrokerResponse::Error(BrokerError::LeaseExpired)
                }
            }
            BrokerRequest::Close { lease } => {
                self.leases.close(*lease);
                BrokerResponse::Closed
            }
        }
    }

    /// Serve until `shutdown` is raised, blocking up to one 2 ms tick
    /// per idle iteration. Returns the final counters.
    pub fn run(mut self, shutdown: Arc<AtomicBool>) -> ServiceStats {
        while !shutdown.load(Ordering::Relaxed) {
            if self.step() == 0 {
                self.cluster
                    .wait_for(REQUEST_TOPIC, 0, self.req_offset, TICK);
            }
        }
        // Drain what's already enqueued so shutdown is not lossy for
        // requests accepted before the flag was observed.
        while self.step() != 0 {}
        self.stats()
    }

    /// Serve on a background thread; the returned handle stops the
    /// service and joins it.
    pub fn spawn(self) -> ServiceHandle {
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = bsync::thread::spawn_named("broker-service", move || self.run(flag));
        ServiceHandle { shutdown, thread }
    }
}

/// Handle over a spawned [`BrokerService`].
pub struct ServiceHandle {
    shutdown: Arc<AtomicBool>,
    thread: bsync::thread::JoinHandle<ServiceStats>,
}

impl ServiceHandle {
    /// Raise the shutdown flag, join the service thread, and return
    /// its final counters.
    pub fn shutdown(self) -> ServiceStats {
        self.shutdown.store(true, Ordering::Relaxed);
        // xcheck:allow(unwrap) — a panicked service thread is a bug; propagate it
        self.thread.join().expect("broker service thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DumpType;
    use std::path::PathBuf;

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
            path: PathBuf::from(format!("/tmp/{collector}-{ty:?}-{start}")),
            available_at: avail,
            size: 1000,
        }
    }

    fn scattered_index(window: u64) -> Arc<Index> {
        let idx = Arc::new(Index::with_window(window));
        for k in 0..24 {
            let s = k * 300;
            idx.register(meta("rrc01", DumpType::Updates, s, 300, s + 400));
        }
        for k in 0..8 {
            let s = k * 900;
            idx.register(meta("rv2", DumpType::Updates, s, 900, s + 1100));
        }
        idx.register(meta("rrc01", DumpType::Rib, 0, 0, 600));
        idx.register(meta("rv2", DumpType::Rib, 0, 0, 600));
        // A far-future straggler to exercise fast-forward.
        idx.register(meta("rrc01", DumpType::Updates, 1_000_000, 300, 1_000_400));
        idx
    }

    /// The view must replicate `Index::query` byte for byte: same
    /// files, same order, same cursor motion, same exhaustion — across
    /// queries, windows, and visibility times.
    #[test]
    fn view_pages_identically_to_index_query() {
        let idx = scattered_index(3600);
        let mut view = IndexView::new(idx.window());
        view.refresh(&idx);
        let queries = [
            Query {
                start: 0,
                end: Some(2_000_000),
                ..Default::default()
            },
            Query {
                projects: vec!["ris".into()],
                start: 150,
                end: Some(7200),
                ..Default::default()
            },
            Query {
                collectors: vec!["rv2".into()],
                dump_types: vec![DumpType::Updates],
                start: 900,
                end: Some(u64::MAX - 1),
                ..Default::default()
            },
            Query {
                start: 500,
                end: None,
                ..Default::default()
            },
        ];
        for q in &queries {
            for now in [u64::MAX, 1500, 0] {
                let mut ci = BrokerCursor {
                    window_start: q.start,
                };
                let mut cv = ci;
                for _ in 0..64 {
                    let want = idx.query(q, &mut ci, now);
                    let (files, exhausted) = view.query(q, &mut cv, now);
                    assert_eq!(files, want.files, "files diverged (q={q:?}, now={now})");
                    assert_eq!(exhausted, want.exhausted);
                    assert_eq!(cv.window_start, ci.window_start);
                    if want.exhausted {
                        break;
                    }
                    if q.end.is_none() && want.files.is_empty() {
                        break; // live never exhausts; stop on quiet
                    }
                }
            }
        }
    }

    #[test]
    fn view_cache_hits_repeat_queries_and_invalidates_on_change() {
        let idx = scattered_index(3600);
        let mut view = IndexView::new(idx.window());
        view.refresh(&idx);
        let q = Query {
            start: 0,
            end: Some(7200),
            ..Default::default()
        };
        let page = |view: &IndexView| {
            let mut c = BrokerCursor { window_start: 0 };
            view.query(&q, &mut c, u64::MAX)
        };
        let first = page(&view);
        // A registration after a refresh shows up in the next page.
        idx.register(meta("rrc09", DumpType::Updates, 60, 300, 0));
        view.refresh(&idx);
        let third = page(&view);
        assert_eq!(third.0.len(), first.0.len() + 1);
        // A watermark advance bumps the version.
        let v = view.version();
        idx.advance_watermark(999_999_999);
        view.refresh(&idx);
        assert!(view.version() > v);
        assert_eq!(page(&view).0, third.0);
    }

    #[test]
    fn service_step_answers_and_sheds() {
        let cluster = Cluster::shared();
        let idx = scattered_index(3600);
        let cfg = ServiceConfig {
            max_inflight_per_client: 2,
            max_inflight_global: 8,
            ..Default::default()
        };
        let mut svc = BrokerService::new(cluster.clone(), idx, cfg);
        // One client floods 5 identical queries: 2 admitted, 3 Busy.
        for i in 0..5u64 {
            let frame = RequestEnvelope {
                client: "flood".into(),
                req_id: i,
                body: BrokerRequest::Query {
                    query: Query {
                        start: 0,
                        end: Some(3600),
                        ..Default::default()
                    },
                    window_start: 0,
                    now: u64::MAX,
                },
            }
            .encode();
            cluster.produce(REQUEST_TOPIC, "flood", 0, frame);
        }
        // Plus garbage that must not take the server down.
        cluster.produce(REQUEST_TOPIC, "x", 0, vec![1, 2, 3]);
        assert_eq!(svc.step(), 6);
        let replies = cluster.fetch(&format!("{REPLY_PREFIX}flood"), 0, 0, 16);
        assert_eq!(replies.len(), 5);
        let mut ok = 0;
        let mut busy = 0;
        for msg in replies {
            match ResponseEnvelope::decode(&msg.payload).unwrap().body {
                BrokerResponse::Query { .. } => ok += 1,
                BrokerResponse::Error(BrokerError::Busy) => busy += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!((ok, busy), (2, 3));
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.busy, 3);
        assert_eq!(stats.malformed, 1);
    }

    #[test]
    fn lease_expiry_is_wall_clock_ttl() {
        let cluster = Cluster::shared();
        let idx = Arc::new(Index::with_window(3600));
        let clock = Clock::manual(0);
        let cfg = ServiceConfig {
            lease_ttl: Duration::from_millis(30),
            clock: clock.clone(),
            ..Default::default()
        };
        let mut svc = BrokerService::new(cluster.clone(), idx, cfg);
        let open = RequestEnvelope {
            client: "c".into(),
            req_id: 1,
            body: BrokerRequest::OpenLive {
                query: Query::default(),
                policy: crate::live::ReleasePolicy::Watermark,
                resume: None,
            },
        };
        cluster.produce(REQUEST_TOPIC, "c", 0, open.encode());
        svc.step();
        let lease = match ResponseEnvelope::decode(
            &cluster.fetch(&format!("{REPLY_PREFIX}c"), 0, 0, 1)[0].payload,
        )
        .unwrap()
        .body
        {
            BrokerResponse::LiveOpened { lease } => lease,
            other => panic!("{other:?}"),
        };
        assert_eq!(svc.lease_count(), 1);
        clock.advance_millis(60);
        svc.step();
        assert_eq!(svc.lease_count(), 0);
        assert_eq!(svc.stats().leases_expired, 1);
        // Polling the reaped lease reports expiry.
        let poll = RequestEnvelope {
            client: "c".into(),
            req_id: 2,
            body: BrokerRequest::PollLive { lease, now: 0 },
        };
        cluster.produce(REQUEST_TOPIC, "c", 0, poll.encode());
        svc.step();
        let last = cluster.fetch(&format!("{REPLY_PREFIX}c"), 0, 1, 1);
        assert_eq!(
            ResponseEnvelope::decode(&last[0].payload).unwrap().body,
            BrokerResponse::Error(BrokerError::LeaseExpired)
        );
    }
}
