//! The [`BrokerClient`] abstraction: one broker surface for local and
//! remote callers.
//!
//! In the paper the broker is an HTTP service shared by many
//! independent libBGPStream processes; in a single process it is just
//! an [`Index`] behind an `Arc`. This module makes the stream layer
//! oblivious to the difference: everything it needs — windowed
//! historical queries, live-cursor sessions, change notification — is
//! expressed once as the object-safe [`BrokerClient`] trait, with two
//! implementations:
//!
//! * [`LocalBroker`] (here) wraps an `Arc<Index>` directly. Calls are
//!   plain method dispatch plus one uncontended mutex for the lease
//!   table — effectively the pre-trait in-process fast path.
//! * [`RemoteBroker`](crate::remote::RemoteBroker) speaks the
//!   [`wire`](crate::wire) protocol over `mq` topics to a
//!   [`BrokerService`](crate::service::BrokerService), adding retry on
//!   [`BrokerError::Busy`] and lease keep-alive.
//!
//! Live sessions are *leases*: [`BrokerClient::open_live`] creates a
//! server-side [`LiveCursor`] and returns a [`LeaseId`]; subsequent
//! [`BrokerClient::poll_live`] calls advance it. Because the cursor
//! state (delivered set, window frontier) lives with the lease, a
//! client that crashes and reconnects can pass its old lease id to
//! `open_live` and resume *exactly-once* — nothing is re-delivered,
//! nothing is lost — as long as the lease has not expired.

use std::sync::Arc;
use std::time::Duration;

use bsync::time::Clock;

use crate::error::BrokerError;
use crate::index::{BrokerCursor, Index, Query, Response};
use crate::lease::LeaseTable;
use crate::live::{LiveCursor, LivePoll, ReleasePolicy};

/// Identifier of a live-cursor lease, unique per broker.
pub type LeaseId = u64;

/// The broker surface the stream layer programs against — local
/// in-process index or remote service, the calls are the same.
///
/// Object-safe on purpose: streams hold an `Arc<dyn BrokerClient>`.
pub trait BrokerClient: Send + Sync {
    /// Answer one windowed historical query (see [`Index::query`]):
    /// at most one response window of files, cursor advanced in place.
    fn query(
        &self,
        query: &Query,
        cursor: &mut BrokerCursor,
        now: u64,
    ) -> Result<Response, BrokerError>;

    /// Open a live-cursor session for `query` under `policy`,
    /// returning its lease. Passing `resume = Some(id)` re-attaches to
    /// an existing lease instead (exactly-once continuation after a
    /// client crash); an unknown or expired id yields
    /// [`BrokerError::LeaseExpired`].
    fn open_live(
        &self,
        query: &Query,
        policy: ReleasePolicy,
        resume: Option<LeaseId>,
    ) -> Result<LeaseId, BrokerError>;

    /// One live poll at virtual time `now` (see [`LiveCursor::poll`]).
    /// Touching the lease renews it.
    fn poll_live(&self, lease: LeaseId, now: u64) -> Result<LivePoll, BrokerError>;

    /// Explicit lease keep-alive for clients that go quiet between
    /// polls.
    fn renew_lease(&self, lease: LeaseId) -> Result<(), BrokerError>;

    /// Close a lease, freeing its server-side cursor. Closing an
    /// already-gone lease is not an error.
    fn close_lease(&self, lease: LeaseId) -> Result<(), BrokerError>;

    /// The broker's current index version — a cheap monotone change
    /// detector (remote implementations serve a locally cached value).
    fn version(&self) -> u64;

    /// Block until the broker's version exceeds `last_version` or
    /// `timeout` elapses; true when something new arrived.
    fn wait_for_new(&self, last_version: u64, timeout: Duration) -> bool;
}

/// The in-process [`BrokerClient`]: a thin wrapper over `Arc<Index>`.
///
/// Queries delegate straight to [`Index::query`]; live leases are
/// [`LiveCursor`]s in a local table and never expire (the "server"
/// cannot outlive its only client).
pub struct LocalBroker {
    index: Arc<Index>,
    leases: LeaseTable<LiveCursor>,
}

impl LocalBroker {
    /// A local broker over `index`.
    pub fn new(index: Arc<Index>) -> Self {
        LocalBroker {
            index,
            leases: LeaseTable::immortal(Clock::system()),
        }
    }

    /// Sugar: `Arc<LocalBroker>` over `index`.
    pub fn shared(index: Arc<Index>) -> Arc<Self> {
        Arc::new(Self::new(index))
    }

    /// The wrapped index.
    pub fn index(&self) -> Arc<Index> {
        self.index.clone()
    }
}

impl BrokerClient for LocalBroker {
    fn query(
        &self,
        query: &Query,
        cursor: &mut BrokerCursor,
        now: u64,
    ) -> Result<Response, BrokerError> {
        Ok(self.index.query(query, cursor, now))
    }

    fn open_live(
        &self,
        query: &Query,
        policy: ReleasePolicy,
        resume: Option<LeaseId>,
    ) -> Result<LeaseId, BrokerError> {
        if let Some(id) = resume {
            return if self.leases.resume(id) {
                Ok(id)
            } else {
                Err(BrokerError::LeaseExpired)
            };
        }
        Ok(self
            .leases
            .open(LiveCursor::new(self.index.clone(), query.clone(), policy)))
    }

    fn poll_live(&self, lease: LeaseId, now: u64) -> Result<LivePoll, BrokerError> {
        self.leases
            .with_lease(lease, |cursor| cursor.poll(now))
            .ok_or(BrokerError::LeaseExpired)
    }

    fn renew_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        if self.leases.touch(lease) {
            Ok(())
        } else {
            Err(BrokerError::LeaseExpired)
        }
    }

    fn close_lease(&self, lease: LeaseId) -> Result<(), BrokerError> {
        self.leases.close(lease);
        Ok(())
    }

    fn version(&self) -> u64 {
        self.index.version()
    }

    fn wait_for_new(&self, last_version: u64, timeout: Duration) -> bool {
        self.index.wait_for_new(last_version, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{DumpMeta, DumpType};
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
            size: 1,
        }
    }

    #[test]
    fn local_broker_query_matches_index() {
        let idx = Index::shared();
        idx.register(meta(0));
        let client = LocalBroker::new(idx.clone());
        let q = Query {
            start: 0,
            end: Some(1000),
            ..Default::default()
        };
        let mut c1 = BrokerCursor { window_start: 0 };
        let mut c2 = BrokerCursor { window_start: 0 };
        let via_client = client.query(&q, &mut c1, u64::MAX).unwrap();
        let via_index = idx.query(&q, &mut c2, u64::MAX);
        assert_eq!(via_client.files, via_index.files);
        assert_eq!(via_client.exhausted, via_index.exhausted);
        assert_eq!(c1.window_start, c2.window_start);
    }

    #[test]
    fn local_lease_lifecycle_and_resume() {
        let idx = Index::shared();
        idx.register(meta(0));
        idx.advance_watermark(u64::MAX);
        let client = LocalBroker::new(idx);
        let q = Query {
            start: 0,
            end: None,
            ..Default::default()
        };
        let lease = client
            .open_live(&q, ReleasePolicy::Watermark, None)
            .unwrap();
        let p = client.poll_live(lease, 0).unwrap();
        assert_eq!(p.files.len(), 1);
        // Resume re-attaches to the very same cursor: the delivered
        // set is intact, so nothing is re-delivered.
        let resumed = client
            .open_live(&q, ReleasePolicy::Watermark, Some(lease))
            .unwrap();
        assert_eq!(resumed, lease);
        let p = client.poll_live(lease, 0).unwrap();
        assert!(p.files.is_empty() && p.late.is_empty());
        client.renew_lease(lease).unwrap();
        client.close_lease(lease).unwrap();
        assert_eq!(client.poll_live(lease, 0), Err(BrokerError::LeaseExpired));
        assert_eq!(
            client.open_live(&q, ReleasePolicy::Watermark, Some(lease)),
            Err(BrokerError::LeaseExpired)
        );
        // Closing twice is fine.
        client.close_lease(lease).unwrap();
    }
}
