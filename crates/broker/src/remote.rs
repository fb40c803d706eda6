//! [`RemoteBroker`]: the mq-backed [`BrokerClient`].
//!
//! The remote client is the other half of [`crate::service`]: it
//! encodes each call as a [`wire`](crate::wire) request on the shared
//! request topic, then blocks on its own reply topic for the response
//! carrying the matching correlation id. Two things make it behave
//! like the local client from the stream layer's point of view:
//!
//! * **Version caching** — every response (and every events-topic
//!   frame) carries the server's index version and watermark, which
//!   the client folds into local atomics. [`BrokerClient::version`]
//!   is therefore a local load — critical, because the stream checks
//!   it once per pump step — and
//!   [`BrokerClient::wait_for_new`] blocks on the events topic
//!   exactly like local callers block on [`Index::wait_for_new`].
//! * **Busy retry** — admission-control sheds
//!   ([`BrokerError::Busy`]) are retried with doubling backoff up to
//!   [`RemoteConfig::busy_retries`] times before the error surfaces,
//!   so transient overload looks like latency, not failure.
//!
//! Lease renewal is implicit: every `poll_live` touches the lease
//! server-side. Clients that expect to go quiet longer than the
//! server's TTL call [`BrokerClient::renew_lease`] explicitly.
//!
//! [`Index::wait_for_new`]: crate::Index::wait_for_new

use std::sync::Arc;
use std::time::Duration;

use bsync::atomic::{AtomicU64, Ordering};
use bsync::time::Clock;
use bsync::Mutex;
use mq::Cluster;

use crate::client::{BrokerClient, LeaseId};
use crate::error::BrokerError;
use crate::index::{BrokerCursor, Query, Response};
use crate::live::{LivePoll, ReleasePolicy};
use crate::wire::{
    BrokerRequest, BrokerResponse, RequestEnvelope, ResponseEnvelope, EVENTS_TOPIC, REPLY_PREFIX,
    REQUEST_TOPIC,
};

/// How long one request may wait for its response before reporting
/// [`BrokerError::Io`].
const TIMEOUT: Duration = Duration::from_secs(10);

/// Client-side tuning. The topics are fixed by the protocol (see
/// [`wire`](crate::wire)).
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// How many times a [`BrokerError::Busy`] shed is retried before
    /// surfacing.
    pub busy_retries: u32,
    /// Initial retry backoff (doubles per attempt, capped at 20ms).
    pub busy_backoff: Duration,
    /// Time source for the request deadline and retry backoff.
    pub clock: Clock,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            busy_retries: 24,
            busy_backoff: Duration::from_micros(200),
            clock: Clock::system(),
        }
    }
}

/// The mq-backed [`BrokerClient`]. One instance per consuming thread
/// (requests are serialised internally; sharing one across streams
/// would serialise their broker traffic too).
pub struct RemoteBroker {
    cluster: Arc<Cluster>,
    cfg: RemoteConfig,
    client: String,
    reply_topic: String,
    next_req: AtomicU64,
    /// Next unread offset on the reply topic; under a lock because a
    /// request/response exchange must read it exclusively.
    reply_offset: Mutex<u64>,
    version: AtomicU64,
    watermark: AtomicU64,
    events_offset: AtomicU64,
    busy_shed_observed: AtomicU64,
}

impl RemoteBroker {
    /// A client named `client_id` on `cluster` with default topics.
    /// The id must be unique among concurrent clients — it names the
    /// reply topic and scopes per-client admission control.
    pub fn new(cluster: Arc<Cluster>, client_id: impl Into<String>) -> Self {
        Self::with_config(cluster, client_id, RemoteConfig::default())
    }

    /// A client with explicit topics/tuning.
    pub fn with_config(
        cluster: Arc<Cluster>,
        client_id: impl Into<String>,
        cfg: RemoteConfig,
    ) -> Self {
        let client = client_id.into();
        let reply_topic = format!("{REPLY_PREFIX}{client}");
        cluster.create_topic(&reply_topic, 1);
        cluster.create_topic(EVENTS_TOPIC, 1);
        // Start past any replies addressed to a previous incarnation
        // of this client id (crash/resume): stale correlation ids
        // would be skipped anyway, but not reading them is cheaper.
        let reply_offset = cluster.latest_offset(&reply_topic, 0);
        RemoteBroker {
            cluster,
            cfg,
            client,
            reply_topic,
            next_req: AtomicU64::new(1),
            reply_offset: Mutex::new(reply_offset),
            version: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            events_offset: AtomicU64::new(0),
            busy_shed_observed: AtomicU64::new(0),
        }
    }

    /// This client's id.
    pub fn client_id(&self) -> &str {
        &self.client
    }

    /// How many `Busy` sheds this client absorbed via retry.
    pub fn busy_sheds_observed(&self) -> u64 {
        self.busy_shed_observed.load(Ordering::Relaxed)
    }

    fn note(&self, version: u64, watermark: u64) {
        self.version.fetch_max(version, Ordering::SeqCst);
        self.watermark.fetch_max(watermark, Ordering::SeqCst);
    }

    /// Fold any unread events-topic frames into the cached
    /// version/watermark.
    fn drain_events(&self) {
        loop {
            let off = self.events_offset.load(Ordering::SeqCst);
            let msgs = self.cluster.fetch(EVENTS_TOPIC, 0, off, 64);
            if msgs.is_empty() {
                return;
            }
            let n = msgs.len() as u64;
            for m in msgs {
                if let ([version, watermark], []) = m.payload.as_chunks::<8>() {
                    self.note(u64::from_le_bytes(*version), u64::from_le_bytes(*watermark));
                }
            }
            self.events_offset.fetch_max(off + n, Ordering::SeqCst);
        }
    }

    /// One request/response exchange (no Busy retry).
    fn exchange(&self, body: BrokerRequest) -> Result<BrokerResponse, BrokerError> {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let frame = RequestEnvelope {
            client: self.client.clone(),
            req_id,
            body,
        }
        .encode();
        let mut offset = self.reply_offset.lock();
        self.cluster.produce(REQUEST_TOPIC, &self.client, 0, frame);
        let timeout_ms = u64::try_from(TIMEOUT.as_millis()).unwrap_or(u64::MAX);
        let deadline = self.cfg.clock.now_millis().saturating_add(timeout_ms);
        loop {
            let msgs = self.cluster.fetch(&self.reply_topic, 0, *offset, 64);
            if msgs.is_empty() {
                let remaining =
                    Duration::from_millis(deadline.saturating_sub(self.cfg.clock.now_millis()));
                if remaining.is_zero() {
                    return Err(BrokerError::Io(format!(
                        "request {req_id} to {REQUEST_TOPIC} timed out after {TIMEOUT:?}"
                    )));
                }
                self.cluster.wait_for(
                    &self.reply_topic,
                    0,
                    *offset,
                    remaining.min(Duration::from_millis(50)),
                );
                continue;
            }
            for msg in msgs {
                *offset = msg.offset + 1;
                let resp = ResponseEnvelope::decode(&msg.payload)?;
                self.note(resp.index_version, resp.watermark);
                if resp.req_id == req_id {
                    return Ok(resp.body);
                }
                // Anything else is a response to an older request of
                // ours (e.g. one that timed out): drop it.
            }
        }
    }

    /// Exchange with Busy retry: `make` rebuilds the request per
    /// attempt (fresh correlation id each time).
    fn request(&self, make: impl Fn() -> BrokerRequest) -> Result<BrokerResponse, BrokerError> {
        let mut backoff = self.cfg.busy_backoff;
        let mut attempt = 0;
        loop {
            match self.exchange(make())? {
                BrokerResponse::Error(BrokerError::Busy) => {
                    self.busy_shed_observed.fetch_add(1, Ordering::Relaxed);
                    if attempt >= self.cfg.busy_retries {
                        return Err(BrokerError::Busy);
                    }
                    attempt += 1;
                    self.cfg.clock.sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(20));
                }
                BrokerResponse::Error(e) => return Err(e),
                ok => return Ok(ok),
            }
        }
    }
}

impl BrokerClient for RemoteBroker {
    fn query(
        &self,
        query: &Query,
        cursor: &mut BrokerCursor,
        now: u64,
    ) -> Result<Response, BrokerError> {
        let window_start = cursor.window_start;
        match self.request(|| BrokerRequest::Query {
            query: query.clone(),
            window_start,
            now,
        })? {
            BrokerResponse::Query {
                files,
                exhausted,
                next_window_start,
            } => {
                cursor.window_start = next_window_start;
                Ok(Response { files, exhausted })
            }
            other => Err(BrokerError::Protocol(format!(
                "expected Query response, got {other:?}"
            ))),
        }
    }

    fn open_live(
        &self,
        query: &Query,
        policy: ReleasePolicy,
        resume: Option<LeaseId>,
    ) -> Result<LeaseId, BrokerError> {
        match self.request(|| BrokerRequest::OpenLive {
            query: query.clone(),
            policy,
            resume,
        })? {
            BrokerResponse::LiveOpened { lease } => Ok(lease),
            other => Err(BrokerError::Protocol(format!(
                "expected LiveOpened response, got {other:?}"
            ))),
        }
    }

    fn poll_live(&self, lease: LeaseId, now: u64) -> Result<LivePoll, BrokerError> {
        match self.request(|| BrokerRequest::PollLive { lease, now })? {
            BrokerResponse::Live(poll) => Ok(poll),
            other => Err(BrokerError::Protocol(format!(
                "expected Live response, got {other:?}"
            ))),
        }
    }

    fn renew_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        match self.request(|| BrokerRequest::Renew { lease })? {
            BrokerResponse::Renewed => Ok(()),
            other => Err(BrokerError::Protocol(format!(
                "expected Renewed response, got {other:?}"
            ))),
        }
    }

    fn close_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        match self.request(|| BrokerRequest::Close { lease })? {
            BrokerResponse::Closed => Ok(()),
            other => Err(BrokerError::Protocol(format!(
                "expected Closed response, got {other:?}"
            ))),
        }
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    fn wait_for_new(&self, last_version: u64, timeout: Duration) -> bool {
        self.drain_events();
        if self.version() > last_version {
            return true;
        }
        let off = self.events_offset.load(Ordering::SeqCst);
        self.cluster.wait_for(EVENTS_TOPIC, 0, off, timeout);
        self.drain_events();
        self.version() > last_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{DumpMeta, DumpType, Index};
    use crate::service::{BrokerService, ServiceConfig};
    use std::path::PathBuf;

    fn meta(start: u64) -> DumpMeta {
        DumpMeta {
            project: "ris".into(),
            collector: "rrc01".into(),
            dump_type: DumpType::Updates,
            interval_start: start,
            duration: 300,
            path: PathBuf::from(format!("/tmp/rrc01-{start}")),
            available_at: start,
            size: 7,
        }
    }

    #[test]
    fn remote_query_round_trip_matches_local() {
        let cluster = Cluster::shared();
        let idx = Arc::new(Index::with_window(3600));
        for k in 0..12 {
            idx.register(meta(k * 300));
        }
        let svc = BrokerService::new(cluster.clone(), idx.clone(), ServiceConfig::default());
        let handle = svc.spawn();
        let remote = RemoteBroker::new(cluster, "t-query");
        let q = Query {
            start: 0,
            end: Some(7200),
            ..Default::default()
        };
        let mut rc = BrokerCursor { window_start: 0 };
        let mut lc = BrokerCursor { window_start: 0 };
        loop {
            let via_remote = remote.query(&q, &mut rc, u64::MAX).unwrap();
            let via_local = idx.query(&q, &mut lc, u64::MAX);
            assert_eq!(via_remote.files, via_local.files);
            assert_eq!(via_remote.exhausted, via_local.exhausted);
            assert_eq!(rc.window_start, lc.window_start);
            if via_remote.exhausted {
                break;
            }
        }
        assert!(remote.version() > 0, "responses must carry the version");
        handle.shutdown();
    }

    #[test]
    fn remote_wait_for_new_wakes_on_registration() {
        let cluster = Cluster::shared();
        let idx = Arc::new(Index::with_window(3600));
        let handle =
            BrokerService::new(cluster.clone(), idx.clone(), ServiceConfig::default()).spawn();
        let remote = RemoteBroker::new(cluster, "t-wait");
        // Prime the version cache.
        let mut c = BrokerCursor { window_start: 0 };
        remote
            .query(
                &Query {
                    start: 0,
                    end: Some(10),
                    ..Default::default()
                },
                &mut c,
                u64::MAX,
            )
            .unwrap();
        let v = remote.version();
        assert!(!remote.wait_for_new(v, Duration::from_millis(20)));
        let idx2 = idx.clone();
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            idx2.register(meta(0));
        });
        assert!(remote.wait_for_new(v, Duration::from_secs(5)));
        publisher.join().unwrap();
        assert!(remote.version() > v);
        handle.shutdown();
    }

    #[test]
    fn remote_live_lease_round_trip() {
        let cluster = Cluster::shared();
        let idx = Arc::new(Index::with_window(3600));
        idx.register(meta(0));
        idx.advance_watermark(3600);
        let handle = BrokerService::new(cluster.clone(), idx, ServiceConfig::default()).spawn();
        let remote = RemoteBroker::new(cluster, "t-live");
        let q = Query {
            start: 0,
            end: None,
            ..Default::default()
        };
        let lease = remote
            .open_live(&q, ReleasePolicy::Watermark, None)
            .unwrap();
        let p = remote.poll_live(lease, 0).unwrap();
        assert_eq!(p.files.len(), 1);
        assert_eq!(p.released_through, 3600);
        remote.renew_lease(lease).unwrap();
        remote.close_lease(lease).unwrap();
        assert_eq!(remote.poll_live(lease, 0), Err(BrokerError::LeaseExpired));
        handle.shutdown();
    }
}
