//! The incremental live cursor: a resumable query handle for
//! unbounded ("live") streams.
//!
//! Historical queries page through the index with a plain
//! [`BrokerCursor`](crate::index::BrokerCursor) and stop at the
//! interval end. A live stream never ends, and its consumer needs two
//! things the plain cursor cannot give:
//!
//! 1. **exactly-once delivery across polls** — the same dump must not
//!    be handed out twice, even when it is re-published with identical
//!    meta-data after the cursor already passed its window, and a dump
//!    published *late* (after its window was released) must still be
//!    delivered instead of being lost behind the advancing cursor;
//! 2. **a completeness watermark** — "the data is complete through T"
//!    — so downstream time bins can close deterministically instead of
//!    closing on stream EOF (which never comes).
//!
//! A [`LiveCursor`] provides both. Window release is governed by a
//! [`ReleasePolicy`]:
//!
//! * [`ReleasePolicy::Grace`] reproduces the paper's §6.2.3 trade-off:
//!   a window is released once its span plus a grace period covering
//!   the provider's maximum publication delay has elapsed on the
//!   (virtual) clock. Low machinery, but a publisher stalled beyond
//!   the grace loses completeness (late dumps are still delivered —
//!   as stragglers, out of order).
//! * [`ReleasePolicy::Watermark`] releases a window only when the
//!   provider's explicit publication watermark
//!   ([`Index::advance_watermark`]) has passed the window end. Any
//!   fault schedule — delays, stalls, out-of-order publication —
//!   holds the watermark (and therefore release) back rather than
//!   dropping data, which is what makes live output provably
//!   byte-identical to a historical run over the final archive.

use std::sync::Arc;
use std::time::Duration;

use crate::index::{DumpMeta, Index, Query};

/// When a live window may be released to the consumer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReleasePolicy {
    /// Release window `[w, w+span)` once `now >= w + span + grace`
    /// (grace in virtual seconds, covering the maximum publication
    /// delay).
    Grace(u64),
    /// Release window `[w, w+span)` once the index's publication
    /// watermark reaches `w + span`.
    Watermark,
}

/// One poll's outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LivePoll {
    /// Files of the window released by this poll: at most one window
    /// of files per poll, so batches group exactly as a historical
    /// windowed query would. Empty means nothing more is releasable
    /// until the clock, the watermark or the index moves.
    pub files: Vec<DumpMeta>,
    /// Dumps that surfaced *behind* the cursor since the last poll:
    /// late publications under [`ReleasePolicy::Grace`]. Delivered
    /// exactly once, but out of window order — the consumer decides
    /// how to merge them (the stream admits them into its current
    /// merge).
    pub late: Vec<DumpMeta>,
    /// Everything with `interval_start` below this has either been
    /// delivered or will surface only in `late`; downstream bins with
    /// `end <= released_through` can close. One poll may move it over
    /// many windows that hold no file.
    pub released_through: u64,
}

/// Resumable live query handle over one [`Index`]. See the
/// [module docs](self).
pub struct LiveCursor {
    index: Arc<Index>,
    query: Query,
    policy: ReleasePolicy,
    /// Start of the next unreleased window.
    window_start: u64,
    /// Positional delivered-set over the index's append-only entry
    /// list: entry `i` delivered iff `delivered[i]`.
    delivered: Vec<bool>,
    /// Leading-prefix skip hint over `delivered` (see
    /// [`Index::scan_undelivered`]): steady-state polls scan only
    /// entries published since the last poll.
    frontier: usize,
}

impl LiveCursor {
    /// A cursor over `index` for `query` (whose `end` is ignored —
    /// live cursors never exhaust). Delivery starts at `query.start`.
    pub fn new(index: Arc<Index>, query: Query, policy: ReleasePolicy) -> Self {
        let window_start = query.start;
        LiveCursor {
            index,
            query,
            policy,
            window_start,
            delivered: Vec::new(),
            frontier: 0,
        }
    }

    /// The completeness watermark: everything with `interval_start`
    /// below this has been released (modulo `late` stragglers).
    pub fn released_through(&self) -> u64 {
        self.window_start
    }

    /// One incremental poll at virtual time `now`. It crosses every
    /// releasable window that holds no file visible at `now`, landing
    /// on the grid window (`query.start + k·span`) of the next visible
    /// file or on the first window not yet releasable — or on
    /// `u64::MAX` once every window is releasable and none holds a
    /// file (a watermark parked at `u64::MAX`: the feed is complete).
    /// Then it releases at most one window of files or, when none is
    /// releasable, sweeps for stragglers behind the cursor. Lookup and
    /// release see one index state. Every dump is delivered exactly
    /// once per cursor, no matter how often it is re-published.
    pub fn poll(&mut self, now: u64) -> LivePoll {
        // Visibility gate: under the grace policy, `available_at`
        // models the provider's publication delay against the clock.
        // Under watermark release the watermark itself vouches that
        // covered dumps are published — registration IS publication —
        // so clock-gating them again would only race a publisher that
        // registers before its driver advances the shared clock.
        let vis_now = match self.policy {
            ReleasePolicy::Grace(_) => now,
            ReleasePolicy::Watermark => u64::MAX,
        };
        let span = self.index.window();
        let inner = self.index.lock();
        // Every window ending at or before `limit` is releasable.
        let limit = match self.policy {
            ReleasePolicy::Grace(grace) => now.saturating_sub(grace),
            ReleasePolicy::Watermark => inner.watermark,
        };
        let releasable = |w: u64| w != u64::MAX && w.saturating_add(span) <= limit;
        let w = self.window_start;
        if releasable(w) {
            let first_closed = if limit == u64::MAX {
                u64::MAX
            } else {
                w + (limit - w) / span * span
            };
            // Entries behind the frontier are delivered or out of
            // scope, so none of them starts at or after the cursor.
            self.window_start = match inner.next_start(&self.query, self.frontier, w, vis_now) {
                Some(s) => (w + (s - w) / span * span).min(first_closed),
                None => first_closed,
            };
        }
        // Release at most one window of files. With none releasable
        // the scan only sweeps for dumps that appeared behind the
        // cursor since the last poll (late publications past the
        // grace, or re-publications — the latter dedup away).
        let release = releasable(self.window_start);
        if release {
            self.window_start = self.window_start.saturating_add(span);
        }
        let mut found = inner.scan_undelivered(
            &self.query,
            &mut self.delivered,
            &mut self.frontier,
            self.window_start,
            vis_now,
        );
        drop(inner);
        self.index.rewrite_mirrors(&mut found);
        let (files, late) = if release {
            (found, Vec::new())
        } else {
            (Vec::new(), found)
        };
        LivePoll {
            files,
            late,
            released_through: self.window_start,
        }
    }

    /// Block until the index changes (new publication or watermark
    /// advance) past `last_version`, or `timeout` elapses. Sugar over
    /// [`Index::wait_for_new`] so live consumers need only the cursor.
    pub fn wait(&self, last_version: u64, timeout: Duration) -> bool {
        self.index.wait_for_new(last_version, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DumpType;
    use std::path::PathBuf;

    fn meta(collector: &str, start: u64, avail: u64) -> DumpMeta {
        DumpMeta {
            project: "ris".into(),
            collector: collector.into(),
            dump_type: DumpType::Updates,
            interval_start: start,
            duration: 300,
            path: PathBuf::from(format!("/tmp/{collector}-{start}")),
            available_at: avail,
            size: 100,
        }
    }

    fn cursor(index: &Arc<Index>, policy: ReleasePolicy) -> LiveCursor {
        let q = Query {
            start: 0,
            end: None,
            ..Default::default()
        };
        LiveCursor::new(index.clone(), q, policy)
    }

    #[test]
    fn grace_policy_releases_window_after_span_plus_grace() {
        let idx = Arc::new(Index::with_window(3600));
        idx.register(meta("rrc01", 0, 400));
        idx.register(meta("rrc01", 300, 700));
        let mut cur = cursor(&idx, ReleasePolicy::Grace(500));
        // Before span+grace: nothing releases.
        let p = cur.poll(3600);
        assert!(p.files.is_empty() && p.late.is_empty());
        assert_eq!(p.released_through, 0);
        // At 4100 the window [0, 3600) is complete per the grace model.
        let p = cur.poll(4100);
        assert_eq!(p.files.len(), 2);
        assert_eq!(p.released_through, 3600);
    }

    #[test]
    fn watermark_policy_ignores_clock_and_follows_provider() {
        let idx = Arc::new(Index::with_window(3600));
        idx.register(meta("rrc01", 0, 10));
        let mut cur = cursor(&idx, ReleasePolicy::Watermark);
        // Clock far ahead, but the provider has not vouched for the
        // window: a stalled publisher must hold release back.
        let p = cur.poll(u64::MAX);
        assert!(p.files.is_empty());
        assert_eq!(p.released_through, 0);
        idx.advance_watermark(3600);
        let p = cur.poll(u64::MAX);
        assert_eq!(p.files.len(), 1);
        assert_eq!(p.released_through, 3600);
    }

    #[test]
    fn one_window_per_poll_preserves_historical_batching() {
        let idx = Arc::new(Index::with_window(3600));
        idx.register(meta("rrc01", 0, 0));
        idx.register(meta("rrc01", 3600, 3600));
        idx.advance_watermark(7200);
        let mut cur = cursor(&idx, ReleasePolicy::Watermark);
        let p1 = cur.poll(u64::MAX);
        assert_eq!(p1.files.len(), 1);
        assert_eq!(p1.files[0].interval_start, 0);
        assert_eq!(p1.released_through, 3600);
        let p2 = cur.poll(u64::MAX);
        assert_eq!(p2.files.len(), 1);
        assert_eq!(p2.files[0].interval_start, 3600);
        assert_eq!(p2.released_through, 7200);
        // Nothing more is releasable: an empty poll leaves the
        // watermark where it was.
        let p3 = cur.poll(u64::MAX);
        assert!(p3.files.is_empty() && p3.late.is_empty());
        assert_eq!(p3.released_through, 7200);
    }

    #[test]
    fn republished_dump_after_cursor_passed_is_delivered_exactly_once() {
        // Regression (companion to index::tests::
        // live_query_never_skips_gaps): a dump re-published with
        // identical DumpMeta after the live cursor already released
        // its window used to be a correctness trap — a plain windowed
        // query never revisits the window (losing it), while a naive
        // rescan would deliver it twice.
        let idx = Arc::new(Index::with_window(3600));
        let m = meta("rrc01", 0, 100);
        idx.register(m.clone());
        let mut cur = cursor(&idx, ReleasePolicy::Grace(100));
        let p = cur.poll(3700);
        assert_eq!(p.files, vec![m.clone()]);
        // Re-publish the very same dump, well after the cursor moved on.
        idx.register(m.clone());
        for now in [3800u64, 7400, 11_000] {
            let p = cur.poll(now);
            assert!(
                p.files.iter().chain(p.late.iter()).count() == 0,
                "duplicate delivered at now={now}: {p:?}"
            );
        }
    }

    #[test]
    fn late_publication_behind_cursor_surfaces_as_straggler_once() {
        let idx = Arc::new(Index::with_window(3600));
        let mut cur = cursor(&idx, ReleasePolicy::Grace(100));
        // Window [0,3600) is crossed empty.
        let p = cur.poll(3700);
        assert!(p.files.is_empty());
        assert_eq!(p.released_through, 3600);
        // A dump for that window published far beyond the grace.
        let m = meta("rrc01", 300, 5000);
        idx.register(m.clone());
        let p = cur.poll(5000);
        assert_eq!(p.late, vec![m]);
        assert!(p.files.is_empty());
        // ...and never again.
        assert!(cur.poll(5100).late.is_empty());
    }

    #[test]
    fn a_gap_of_empty_windows_is_crossed_in_one_poll() {
        // Files at 0 and 36 000 (windows 0 and 10 of a 3 600 s grid):
        // whichever policy releases them, one poll crosses the nine
        // empty windows between and releases the next one of files.
        for policy in [ReleasePolicy::Grace(0), ReleasePolicy::Watermark] {
            let idx = Arc::new(Index::with_window(3600));
            idx.register(meta("rrc01", 0, 0));
            idx.register(meta("rrc01", 36_000, 36_000));
            idx.advance_watermark(20 * 3600);
            let mut cur = cursor(&idx, policy);
            let p = cur.poll(20 * 3600);
            assert_eq!(p.files.len(), 1, "{policy:?}");
            assert_eq!(p.released_through, 3600, "{policy:?}");
            let p = cur.poll(20 * 3600);
            assert_eq!(p.files, vec![meta("rrc01", 36_000, 36_000)], "{policy:?}");
            assert_eq!(p.released_through, 39_600, "{policy:?}");
            // The rest of the releasable time is crossed at once and
            // stays on the grid.
            let p = cur.poll(20 * 3600);
            assert!(p.files.is_empty() && p.late.is_empty(), "{policy:?}");
            assert_eq!(p.released_through, 20 * 3600, "{policy:?}");
        }
        // Under Grace, a window whose only file is not yet published
        // at `now` holds no visible file and is crossed; the file
        // surfaces later as a straggler, exactly once.
        let idx = Arc::new(Index::with_window(3600));
        let hidden = meta("rrc01", 3600, 50_000);
        idx.register(hidden.clone());
        idx.register(meta("rrc01", 36_000, 36_000));
        let mut cur = cursor(&idx, ReleasePolicy::Grace(0));
        let p = cur.poll(40_000);
        assert_eq!(p.files, vec![meta("rrc01", 36_000, 36_000)]);
        assert_eq!(p.released_through, 39_600);
        let p = cur.poll(50_000);
        assert_eq!(p.late, vec![hidden]);
        assert!(p.files.is_empty());
        assert_eq!(p.released_through, 46_800);
        for now in [50_000, 60_000, 90_000] {
            let p = cur.poll(now);
            assert!(p.files.is_empty() && p.late.is_empty(), "now={now}: {p:?}");
        }
    }

    #[test]
    fn distinct_metas_same_dump_time_both_deliver() {
        // Dedup keys on the whole DumpMeta: two different files for
        // the same (collector, window) — e.g. a corrected re-upload
        // under a new path — are distinct publications.
        let idx = Arc::new(Index::with_window(3600));
        let a = meta("rrc01", 0, 100);
        let mut b = meta("rrc01", 0, 100);
        b.path = PathBuf::from("/tmp/rrc01-0.retry");
        idx.register(a);
        idx.register(b);
        let mut cur = cursor(&idx, ReleasePolicy::Grace(0));
        let p = cur.poll(3600);
        assert_eq!(p.files.len(), 2);
    }
}
