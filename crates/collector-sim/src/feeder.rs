//! The live feeder: replays a pre-simulated archive into a broker
//! [`Index`] as a *publication process* — dump by dump, on a schedule
//! — instead of registering everything up front.
//!
//! This is the repo's stand-in for "collectors publishing to their
//! archives while the broker scrapes them", and it is what live-mode
//! CI soaks against. The feeder owns two things a passive index cannot
//! provide:
//!
//! * **fault injection at the publication layer** — extra per-dump
//!   delay jitter, collector-wide stalls, out-of-order publication,
//!   and duplicate re-publication ([`FaultPlan`]). Faults reorder
//!   *when* dumps surface, never *what* data exists: the final
//!   published archive always equals the input manifest, which is what
//!   makes live-vs-historical equivalence testable;
//! * **a truthful publication watermark** — after each publication the
//!   feeder advances [`Index::advance_watermark`] to the earliest
//!   `interval_start` still unpublished. Whatever the fault schedule
//!   does, the watermark never vouches for data that has not landed,
//!   so watermark-released live streams
//!   ([`ReleasePolicy::Watermark`](broker::ReleasePolicy::Watermark))
//!   stay byte-identical to a historical run over the final archive.
//!
//! Two driving modes:
//!
//! * [`LiveFeeder::publish_until`] — deterministic virtual-time
//!   stepping, for tests that interleave feeding with a
//!   manually-driven stream clock;
//! * [`LiveFeeder::spawn_compressed`] — a wall-clock thread mapping
//!   `speed` virtual seconds onto every wall second and handing each
//!   virtual instant to a caller-supplied `advance` hook (typically a
//!   stream clock's `advance_to`), for soak runs against real threads.

use std::sync::Arc;

use broker::index::DumpMeta;
use broker::Index;
use bsync::atomic::{AtomicBool, Ordering};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Publication-layer fault plan (all seeded and deterministic).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Extra publication delay added to every dump, drawn uniformly
    /// from this range (virtual seconds; on top of the archive's own
    /// `available_at` delays).
    pub extra_delay: (u64, u64),
    /// Collector-wide stalls: while `(start, duration)` covers a
    /// dump's publication instant, the dump (and everything after it
    /// from the same collector) waits until the stall lifts.
    pub stalls: Vec<Stall>,
    /// Probability that a dump swaps publication order with its
    /// collector's next dump (out-of-order publication).
    pub swap_prob: f64,
    /// Probability that a published dump is re-published (identical
    /// `DumpMeta`) a little later — exercising the broker's
    /// exactly-once delivery.
    pub duplicate_prob: f64,
}

/// One collector-wide publication stall.
#[derive(Clone, Copy, Debug)]
pub struct Stall {
    /// Virtual time the publisher freezes.
    pub start: u64,
    /// How long it stays frozen.
    pub duration: u64,
    /// Index into the collector list (sorted collector names); `None`
    /// stalls every collector.
    pub collector: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            extra_delay: (0, 0),
            stalls: Vec::new(),
            swap_prob: 0.0,
            duplicate_prob: 0.0,
        }
    }
}

impl FaultPlan {
    /// The benign plan: publish exactly per the archive's
    /// `available_at` times.
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

/// One scheduled publication.
struct Publication {
    publish_at: u64,
    meta: DumpMeta,
    /// True for an injected duplicate re-publication.
    duplicate: bool,
}

/// Cumulative feeder statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct FeederStats {
    /// Distinct dumps published.
    pub published: u64,
    /// Duplicate re-publications attempted (deduped by the index).
    pub duplicates: u64,
}

/// Replays a manifest into an [`Index`] on a schedule. See the
/// [module docs](self).
pub struct LiveFeeder {
    index: Arc<Index>,
    /// Publications sorted by `publish_at`.
    schedule: Vec<Publication>,
    next: usize,
    stats: FeederStats,
}

impl LiveFeeder {
    /// Build a feeder for `manifest`, applying `faults` (seeded by
    /// `seed`) to the publication schedule. The index's watermark is
    /// initialised to the earliest `interval_start` of the manifest —
    /// nothing is published yet.
    pub fn new(manifest: &[DumpMeta], index: Arc<Index>, faults: &FaultPlan, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut collectors: Vec<&str> = manifest.iter().map(|m| m.collector.as_str()).collect();
        collectors.sort_unstable();
        collectors.dedup();

        // Per-collector publication sequences, in archive order.
        let mut per_collector: Vec<Vec<DumpMeta>> = vec![Vec::new(); collectors.len()];
        for m in manifest {
            let ci = collectors
                .binary_search(&m.collector.as_str())
                .expect("collector present");
            per_collector[ci].push(m.clone());
        }

        let mut schedule: Vec<Publication> = Vec::with_capacity(manifest.len());
        for (ci, metas) in per_collector.iter_mut().enumerate() {
            metas.sort_by_key(|m| (m.available_at, m.interval_start));
            // Publication instants: archive availability + jitter,
            // kept non-decreasing per collector unless a swap fault
            // reorders neighbours.
            let mut instants: Vec<u64> = metas
                .iter()
                .map(|m| {
                    let (lo, hi) = faults.extra_delay;
                    let jitter = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                    m.available_at.saturating_add(jitter)
                })
                .collect();
            for i in 1..instants.len() {
                instants[i] = instants[i].max(instants[i - 1]);
            }
            // Out-of-order publication: swap neighbouring instants so
            // a later window surfaces before an earlier one.
            for i in 0..instants.len().saturating_sub(1) {
                if faults.swap_prob > 0.0 && rng.gen::<f64>() < faults.swap_prob {
                    instants.swap(i, i + 1);
                }
            }
            // Stalls: publications falling inside a stall wait it out.
            // Deliberately no re-sorting afterwards — a stall pushing
            // an instant past its (possibly swapped) neighbours just
            // creates more out-of-order publication, which is the
            // fault model's job. Re-monotonizing here would silently
            // erase the swap faults whenever a stall matches the
            // collector, leaving the "out-of-order + stall"
            // combination untested.
            for stall in &faults.stalls {
                if stall.collector.is_some_and(|c| c != ci) {
                    continue;
                }
                let end = stall.start.saturating_add(stall.duration);
                for t in instants.iter_mut() {
                    if *t >= stall.start && *t < end {
                        *t = end;
                    }
                }
            }
            for (m, &t) in metas.iter().zip(&instants) {
                // A dump surfaces exactly when it is published — the
                // feeder *replaces* the archive's availability model,
                // so `available_at` is the (possibly faulted) actual
                // publication instant. Anything else desynchronises
                // visibility from the watermark: a swap fault can move
                // a dump before its nominal availability, and keeping
                // the stale timestamp would hide a dump the watermark
                // already vouched for. The duplicate re-publication
                // reuses the *identical* meta (that is the point of
                // the fault: same row, inserted twice).
                let mut meta = m.clone();
                meta.available_at = t;
                if faults.duplicate_prob > 0.0 && rng.gen::<f64>() < faults.duplicate_prob {
                    schedule.push(Publication {
                        publish_at: t.saturating_add(rng.gen_range(1..=600)),
                        meta: meta.clone(),
                        duplicate: true,
                    });
                }
                schedule.push(Publication {
                    publish_at: t,
                    meta,
                    duplicate: false,
                });
            }
        }
        schedule.sort_by(|a, b| {
            (a.publish_at, &a.meta.collector, a.meta.interval_start).cmp(&(
                b.publish_at,
                &b.meta.collector,
                b.meta.interval_start,
            ))
        });
        let feeder = LiveFeeder {
            index,
            schedule,
            next: 0,
            stats: FeederStats::default(),
        };
        feeder.sync_watermark();
        feeder
    }

    /// Advance the index watermark to the earliest `interval_start`
    /// still awaiting publication (`u64::MAX` when everything is out).
    /// This is the feeder's truthfulness invariant: the watermark
    /// never claims completeness for data still in flight.
    fn sync_watermark(&self) {
        let pending = self
            .schedule
            .iter()
            .skip(self.next)
            .filter(|p| !p.duplicate)
            .map(|p| p.meta.interval_start)
            .min();
        self.index.advance_watermark(pending.unwrap_or(u64::MAX));
    }

    /// Publish everything scheduled at or before virtual time `now`;
    /// returns how many registrations were made. Idempotent per
    /// instant; monotone `now` expected.
    pub fn publish_until(&mut self, now: u64) -> usize {
        let mut n = 0;
        while self
            .schedule
            .get(self.next)
            .is_some_and(|p| p.publish_at <= now)
        {
            let p = &self.schedule[self.next];
            if self.index.register(p.meta.clone()) {
                self.stats.published += 1;
            }
            if p.duplicate {
                self.stats.duplicates += 1;
            }
            self.next += 1;
            n += 1;
        }
        if n > 0 {
            self.sync_watermark();
        }
        n
    }

    /// True once the whole schedule is out.
    pub fn done(&self) -> bool {
        self.next >= self.schedule.len()
    }

    /// Virtual time of the last scheduled publication (0 for an empty
    /// manifest).
    pub fn horizon(&self) -> u64 {
        self.schedule.last().map(|p| p.publish_at).unwrap_or(0)
    }

    /// Statistics so far.
    pub fn stats(&self) -> FeederStats {
        self.stats
    }

    /// Drive the feeder from wall time: every wall second maps to
    /// `speed` virtual seconds, and after each publication step the
    /// current virtual time is passed to `advance` (e.g. a stream
    /// clock's `advance_to`). Returns the publisher thread's handle; it
    /// exits once the schedule is out and virtual time passed
    /// `drain_to` — or as soon as `stop` is raised (cooperative
    /// shutdown; the thread never blocks longer than one tick).
    pub fn spawn_compressed(
        mut self,
        advance: impl Fn(u64) + Send + 'static,
        speed: u64,
        drain_to: u64,
        stop: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<FeederStats> {
        std::thread::spawn(move || {
            let tick = std::time::Duration::from_millis(5);
            let start = std::time::Instant::now();
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let virt = (start.elapsed().as_micros() as u64)
                    .saturating_mul(speed)
                    .saturating_div(1_000_000);
                self.publish_until(virt);
                advance(virt);
                if self.done() && virt >= drain_to {
                    break;
                }
                std::thread::sleep(tick);
            }
            self.stats
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broker::DumpType;
    use bsync::atomic::AtomicU64;
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
            size: 10,
        }
    }

    fn manifest() -> Vec<DumpMeta> {
        vec![
            meta("rrc01", 0, 350),
            meta("rrc01", 300, 650),
            meta("rrc01", 600, 950),
            meta("rv2", 0, 400),
            meta("rv2", 300, 700),
        ]
    }

    #[test]
    fn benign_plan_publishes_on_archive_schedule() {
        let idx = Index::shared();
        let mut f = LiveFeeder::new(&manifest(), idx.clone(), &FaultPlan::none(), 1);
        assert_eq!(idx.watermark(), 0);
        assert_eq!(f.publish_until(349), 0);
        assert_eq!(f.publish_until(400), 2); // rrc01@350, rv2@400
        assert_eq!(idx.len(), 2);
        // Both collectors' first windows are out; next pending is 300.
        assert_eq!(idx.watermark(), 300);
        f.publish_until(10_000);
        assert!(f.done());
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.watermark(), u64::MAX);
        assert_eq!(f.stats().published, 5);
    }

    #[test]
    fn watermark_never_vouches_for_unpublished_data() {
        // Whatever the fault plan, after every step: every dump with
        // interval_start < watermark is registered.
        for seed in 0..8u64 {
            let plan = FaultPlan {
                extra_delay: (0, 900),
                stalls: vec![Stall {
                    start: 500,
                    duration: 2000,
                    collector: Some(0),
                }],
                swap_prob: 0.5,
                duplicate_prob: 0.3,
            };
            let idx = Index::shared();
            let mut f = LiveFeeder::new(&manifest(), idx.clone(), &plan, seed);
            let mut t = 0;
            while !f.done() {
                t += 100;
                f.publish_until(t);
                let wm = idx.watermark();
                for m in manifest() {
                    if m.interval_start < wm {
                        // Must be visible in a historical query.
                        let q = broker::Query {
                            start: m.interval_start,
                            end: Some(m.interval_start),
                            collectors: vec![m.collector.clone()],
                            ..Default::default()
                        };
                        let mut cur = broker::BrokerCursor {
                            window_start: m.interval_start,
                        };
                        let r = idx.query(&q, &mut cur, u64::MAX);
                        assert!(
                            r.files.iter().any(|x| x.interval_start == m.interval_start),
                            "watermark {wm} vouches for unpublished {m:?} (seed {seed})"
                        );
                    }
                }
            }
            assert_eq!(idx.len(), 5, "faults must never lose dumps (seed {seed})");
            assert_eq!(idx.watermark(), u64::MAX);
        }
    }

    #[test]
    fn stall_holds_back_collector_and_watermark() {
        let plan = FaultPlan {
            stalls: vec![Stall {
                start: 300,
                duration: 5000,
                collector: None,
            }],
            ..FaultPlan::none()
        };
        let idx = Index::shared();
        let mut f = LiveFeeder::new(&manifest(), idx.clone(), &plan, 3);
        f.publish_until(4999);
        // Nothing can surface inside the stall window.
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.watermark(), 0);
        f.publish_until(5300);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.watermark(), u64::MAX);
    }

    #[test]
    fn duplicates_are_republished_and_deduped() {
        let plan = FaultPlan {
            duplicate_prob: 1.0,
            ..FaultPlan::none()
        };
        let idx = Index::shared();
        let mut f = LiveFeeder::new(&manifest(), idx.clone(), &plan, 9);
        f.publish_until(u64::MAX - 1);
        assert_eq!(f.stats().duplicates, 5);
        assert_eq!(f.stats().published, 5, "index must dedup re-publications");
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn compressed_thread_drives_clock_and_stops() {
        let idx = Index::shared();
        let f = LiveFeeder::new(&manifest(), idx.clone(), &FaultPlan::none(), 5);
        let clock = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        // 1000 virtual seconds per wall second: the ~1000s schedule
        // drains in about a second.
        let advance = {
            let clock = clock.clone();
            move |t| {
                clock.fetch_max(t, Ordering::SeqCst);
            }
        };
        let h = f.spawn_compressed(advance, 1000, 1000, stop);
        let stats = h.join().expect("feeder thread");
        assert_eq!(stats.published, 5);
        assert!(clock.load(Ordering::SeqCst) >= 950);
        assert_eq!(idx.watermark(), u64::MAX);
    }
}
