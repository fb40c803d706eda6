//! Synthetic broker tenants: scripted client behaviours for soaks and
//! multi-tenant tests.
//!
//! The paper's broker serves *many* independent libBGPStream
//! processes at once (§3.2); exercising that multi-tenancy needs a
//! population of clients with realistic behaviours, not one. This
//! module provides the two building blocks the `broker_service_soak`
//! example (and service tests) compose into a fleet:
//!
//! * [`page_history`] — a tenant paging a historical interval window
//!   by window, like a batch analysis;
//! * [`LiveTail`] — a tenant holding a live lease and polling it as a
//!   virtual clock advances, optionally "crashing" mid-session and
//!   resuming by lease id (exactly-once across the reconnect).
//!
//! Both drive the [`BrokerClient`] trait, so the same script runs
//! against an in-process [`broker::LocalBroker`] or a served
//! [`broker::RemoteBroker`] unchanged.

use std::sync::Arc;

use broker::index::{BrokerCursor, Query};
use broker::{BrokerClient, BrokerError, LeaseId, ReleasePolicy};

/// What one synthetic tenant observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientReport {
    /// Broker round trips (historical pages or live polls).
    pub requests: u64,
    /// Dump files returned across all responses.
    pub files: u64,
    /// Highest completeness watermark observed (live).
    pub released_through: u64,
}

/// Page `query`'s interval to exhaustion through `client`, as a batch
/// analysis would. Every page must move the window cursor forward —
/// a stuck cursor is reported as [`BrokerError::Protocol`] rather
/// than looping forever.
pub fn page_history(
    client: &Arc<dyn BrokerClient>,
    query: &Query,
) -> Result<ClientReport, BrokerError> {
    let mut report = ClientReport::default();
    let mut cursor = BrokerCursor {
        window_start: query.start,
    };
    loop {
        let before = cursor.window_start;
        let resp = client.query(query, &mut cursor, u64::MAX)?;
        report.requests += 1;
        report.files += resp.files.len() as u64;
        if resp.exhausted {
            return Ok(report);
        }
        if cursor.window_start <= before {
            return Err(BrokerError::Protocol(format!(
                "window cursor stuck at {before}"
            )));
        }
    }
}

/// A live tenant: one lease, polled at a virtual time the caller
/// advances. Dropping the tail without [`LiveTail::close`] simulates
/// a crash — the lease (and its delivered-set) stays with the broker
/// until it expires, so a successor can [`LiveTail::resume`] it.
pub struct LiveTail {
    client: Arc<dyn BrokerClient>,
    lease: LeaseId,
    report: ClientReport,
}

impl LiveTail {
    /// Open a fresh live session for `query`.
    pub fn open(
        client: Arc<dyn BrokerClient>,
        query: &Query,
        policy: ReleasePolicy,
    ) -> Result<Self, BrokerError> {
        let lease = client.open_live(query, policy, None)?;
        Ok(LiveTail {
            client,
            lease,
            report: ClientReport::default(),
        })
    }

    /// Re-attach to a crashed predecessor's session. The broker-side
    /// cursor is untouched by the reconnect: files it already released
    /// to the predecessor are not released again (exactly-once at dump
    /// granularity).
    pub fn resume(
        client: Arc<dyn BrokerClient>,
        query: &Query,
        policy: ReleasePolicy,
        lease: LeaseId,
    ) -> Result<Self, BrokerError> {
        let lease = client.open_live(query, policy, Some(lease))?;
        Ok(LiveTail {
            client,
            lease,
            report: ClientReport::default(),
        })
    }

    /// The session's lease id (what a successor needs to resume).
    pub fn lease(&self) -> LeaseId {
        self.lease
    }

    /// Observations so far.
    pub fn report(&self) -> ClientReport {
        self.report
    }

    /// One poll at virtual time `now`; returns how many files (new +
    /// late) this poll released.
    pub fn poll(&mut self, now: u64) -> Result<u64, BrokerError> {
        let poll = self.client.poll_live(self.lease, now)?;
        self.report.requests += 1;
        let got = (poll.files.len() + poll.late.len()) as u64;
        self.report.files += got;
        self.report.released_through = self.report.released_through.max(poll.released_through);
        Ok(got)
    }

    /// End the session, releasing the broker-side cursor.
    pub fn close(self) -> Result<(), BrokerError> {
        self.client.close_lease(self.lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broker::{DumpMeta, DumpType, Index, LocalBroker};
    use std::path::PathBuf;

    fn filled_index(n: u64) -> Arc<Index> {
        let idx = Arc::new(Index::with_window(900));
        for k in 0..n {
            idx.register(DumpMeta {
                project: "ris".into(),
                collector: "rrc00".into(),
                dump_type: DumpType::Updates,
                interval_start: k * 300,
                duration: 300,
                path: PathBuf::from(format!("/tmp/u{k}.mrt")),
                available_at: 0,
                size: 1,
            });
        }
        idx
    }

    #[test]
    fn pager_counts_every_file_once() {
        let idx = filled_index(12);
        let client: Arc<dyn BrokerClient> = LocalBroker::shared(idx);
        let q = Query {
            start: 0,
            end: Some(12 * 300),
            ..Default::default()
        };
        let report = page_history(&client, &q).unwrap();
        assert_eq!(report.files, 12);
        assert!(report.requests >= 4, "900s windows over 3600s of data");
    }

    #[test]
    fn live_tail_crash_and_resume_is_exactly_once() {
        let idx = filled_index(6);
        idx.advance_watermark(900);
        let client: Arc<dyn BrokerClient> = LocalBroker::shared(idx.clone());
        let q = Query {
            start: 0,
            end: None,
            ..Default::default()
        };
        let mut tail = LiveTail::open(client.clone(), &q, ReleasePolicy::Watermark).unwrap();
        let first = tail.poll(0).unwrap();
        assert_eq!(first, 3, "window [0, 900) holds 3 dumps");
        let lease = tail.lease();
        drop(tail); // crash: no close
        idx.advance_watermark(1800);
        let mut successor = LiveTail::resume(client, &q, ReleasePolicy::Watermark, lease).unwrap();
        let rest = successor.poll(0).unwrap();
        assert_eq!(rest, 3, "successor gets only the second window");
        successor.close().unwrap();
    }
}
