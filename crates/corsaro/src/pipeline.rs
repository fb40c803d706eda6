//! The plugin trait and the time-bin-driving runner.

use bgpstream::{BgpStream, BgpStreamRecord};

/// How a plugin's input may be distributed across the workers of the
/// sharded runtime (`crate::runtime`), declared per plugin via
/// [`Plugin::partitioning`].
///
/// The sequential runners ([`run_pipeline`] and friends) ignore this
/// hook entirely; it only matters when the plugin is driven by a
/// [`crate::runtime::ShardedRuntime`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Partitioning {
    /// The plugin runs as a single instance pinned to one worker and
    /// sees the full record stream there. The only always-safe mode,
    /// hence the default: sharding is opt-in per plugin.
    #[default]
    Pinned,
    /// Table-state plugins whose state is keyed by prefix (e.g.
    /// [`crate::PfxMonitor`]): elems are hash-partitioned by prefix,
    /// every shard instance sees every record envelope but only its
    /// own prefixes' elems.
    ByPrefix,
    /// Per-VP plugins whose state is keyed by the vantage point (e.g.
    /// [`crate::RtPlugin`], whose tables, FSMs and accuracy checks are
    /// all per-VP): elems are hash-partitioned by peer address.
    ByPeer,
}

/// A BGPCorsaro plugin. Stateless plugins only implement
/// `process_record`; stateful plugins aggregate and act on `end_bin`.
pub trait Plugin {
    /// Short plugin name (for logs/output).
    fn name(&self) -> &'static str;

    /// Called for every record of the sorted stream.
    fn process_record(&mut self, record: &BgpStreamRecord);

    /// Called when the bin `[bin_start, bin_end)` closes.
    fn end_bin(&mut self, bin_start: u64, bin_end: u64);

    /// How the sharded runtime may distribute this plugin's input
    /// (defaults to [`Partitioning::Pinned`]; sequential runners never
    /// call this).
    fn partitioning(&self) -> Partitioning {
        Partitioning::Pinned
    }

    /// Serialize this plugin's full state — tables *and* the current
    /// bin's partial aggregates — deterministically: two instances
    /// that processed the same records must produce byte-identical
    /// checkpoints (the supervised runtime checksums and compares
    /// them, and replay-after-restore relies on it). Plugins that
    /// carry no state between records may keep the default empty
    /// checkpoint.
    fn checkpoint(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Rebuild the state captured by [`Plugin::checkpoint`] into
    /// `self`, which must be a freshly constructed instance with the
    /// same configuration (same ranges/collector/shard assignment) as
    /// the checkpointed one. After a successful restore the plugin
    /// must behave byte-identically to one that never died. The
    /// default accepts only the default empty checkpoint.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "plugin {} does not support non-empty checkpoints",
                self.name()
            ))
        }
    }
}

/// Drive `plugins` over `stream` with `bin_size`-second bins aligned
/// to multiples of `bin_size`. Returns the number of records
/// processed. Bins with no records still close in order (one `end_bin`
/// per elapsed bin) so time series stay dense.
///
/// ```
/// use bgpstream::BgpStream;
/// use broker::{Index, LocalBroker};
/// use corsaro::{run_pipeline, ElemCounter};
///
/// let mut stream = BgpStream::builder()
///     .broker_client(LocalBroker::shared(Index::shared()))
///     .interval(0, Some(3600))
///     .start();
/// let mut stats = ElemCounter::new();
/// let records = run_pipeline(&mut stream, 300, &mut [&mut stats]);
/// assert_eq!(records, 0); // the index above is empty
/// ```
///
/// For multi-core execution of the same plugin set, see
/// [`crate::runtime::ShardedRuntime`].
pub fn run_pipeline(stream: &mut BgpStream, bin_size: u64, plugins: &mut [&mut dyn Plugin]) -> u64 {
    run_pipeline_until(stream, bin_size, u64::MAX, plugins)
}

/// [`run_pipeline`] with a stop condition for *live* deployments: the
/// runner returns once a record timestamped at or after `stop`
/// arrives (that record is not processed). A live stream never ends
/// on its own, so Figure 7-style per-collector BGPCorsaro instances
/// use this to wind down at a horizon (or run with `stop = u64::MAX`
/// forever, as the paper's 24/7 deployment does).
pub fn run_pipeline_until(
    stream: &mut BgpStream,
    bin_size: u64,
    stop: u64,
    plugins: &mut [&mut dyn Plugin],
) -> u64 {
    let mut bins = BinCursor::new(bin_size);
    let mut records = 0u64;
    while let Some(rec) = stream.next_record() {
        if rec.timestamp >= stop {
            break;
        }
        end_bins(plugins, bins.enter(rec.timestamp));
        for p in plugins.iter_mut() {
            p.process_record(&rec);
        }
        records += 1;
    }
    end_bins(plugins, bins.finish());
    records
}

fn end_bins(plugins: &mut [&mut dyn Plugin], closing: impl Iterator<Item = (u64, u64)>) {
    for (bin_start, bin_end) in closing {
        for p in plugins.iter_mut() {
            p.end_bin(bin_start, bin_end);
        }
    }
}

/// Where a runner stands in time: the one place that says which bins
/// close. Bins are `[start, start + size)` with `start` a multiple of
/// `size`; every elapsed bin closes, in order, so series stay dense.
/// Each call returns the bins it closes, oldest first, as
/// `(bin_start, bin_end)`.
pub(crate) struct BinCursor {
    size: u64,
    /// The bin receiving records; `None` until the first record.
    open: Option<u64>,
    /// At least one record fell into the open bin. Only such a bin
    /// closes at the end of the run.
    dirty: bool,
}

impl BinCursor {
    pub(crate) fn new(size: u64) -> Self {
        BinCursor {
            size: size.max(1),
            open: None,
            dirty: false,
        }
    }

    /// A record stamped `ts` arrived: close the bins before its own.
    pub(crate) fn enter(&mut self, ts: u64) -> impl Iterator<Item = (u64, u64)> {
        let bin = ts - ts % self.size;
        let from = self.open.unwrap_or(bin);
        self.open = Some(from.max(bin));
        self.dirty = true;
        self.closing(from, bin)
    }

    /// Everything stamped below `watermark` has been delivered: close
    /// the bins ending at or below it, empty ones included. A
    /// `u64::MAX` watermark is an end-of-feed signal, not a bin
    /// boundary, so it closes nothing.
    pub(crate) fn release(&mut self, watermark: u64) -> impl Iterator<Item = (u64, u64)> {
        let from = match self.open {
            Some(open) if watermark != u64::MAX && watermark.saturating_sub(open) >= self.size => {
                open
            }
            // No record yet, end of feed, or the watermark lies inside
            // the open bin: it stays open.
            _ => return self.closing(0, 0),
        };
        let to = watermark - (watermark - from) % self.size;
        self.open = Some(to);
        self.dirty = false;
        self.closing(from, to)
    }

    /// The run ended: close the open bin if a record fell into it.
    pub(crate) fn finish(&mut self) -> impl Iterator<Item = (u64, u64)> {
        match self.open.take() {
            Some(open) if self.dirty => self.closing(open, open + self.size),
            _ => self.closing(0, 0),
        }
    }

    /// The bins in `[from, to)`.
    fn closing(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, u64)> {
        let size = self.size;
        (0..to.saturating_sub(from) / size).map(move |i| (from + i * size, from + (i + 1) * size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broker::{DataInterface, DumpType, Index, LocalBroker};

    /// Collects the (record timestamps, bin boundaries) it sees.
    struct Probe {
        seen: Vec<u64>,
        bins: Vec<(u64, u64)>,
    }

    impl Plugin for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn process_record(&mut self, record: &BgpStreamRecord) {
            self.seen.push(record.timestamp);
        }
        fn end_bin(&mut self, s: u64, e: u64) {
            self.bins.push((s, e));
        }
    }

    /// One [`BinCursor`] call and the bins it must close.
    enum Step {
        Enter(u64),
        Release(u64),
        Finish,
    }
    use Step::*;

    /// A named run of steps, each with the bins it must close.
    type Case = (&'static str, u64, &'static [(Step, &'static [(u64, u64)])]);

    #[test]
    fn bin_cursor_closes_each_bin_once_in_order() {
        let cases: &[Case] = &[
            (
                "a gap closes its empty bins in order",
                60,
                &[
                    (Enter(10), &[]),
                    (Enter(65), &[(0, 60)]),
                    (Enter(300), &[(60, 120), (120, 180), (180, 240), (240, 300)]),
                    (Finish, &[(300, 360)]),
                ],
            ),
            (
                "a watermark inside the open bin keeps it open",
                60,
                &[
                    (Enter(70), &[]),
                    (Release(100), &[]),
                    (Release(119), &[]),
                    (Enter(130), &[(60, 120)]),
                    (Release(150), &[]),
                    (Finish, &[(120, 180)]),
                ],
            ),
            (
                "a watermark closes every bin ending at or below it",
                60,
                &[
                    (Enter(10), &[]),
                    (Release(130), &[(0, 60), (60, 120)]),
                    (Release(130), &[]),
                    (Enter(200), &[(120, 180)]),
                    (Finish, &[(180, 240)]),
                ],
            ),
            (
                "u64::MAX closes nothing",
                60,
                &[
                    (Enter(10), &[]),
                    (Release(u64::MAX), &[]),
                    (Finish, &[(0, 60)]),
                ],
            ),
            (
                "finishing after a watermark close, with no new record, closes nothing",
                60,
                &[(Enter(10), &[]), (Release(60), &[(0, 60)]), (Finish, &[])],
            ),
            (
                "finishing closes the open bin exactly once",
                60,
                &[(Enter(10), &[]), (Finish, &[(0, 60)]), (Finish, &[])],
            ),
            (
                "nothing closes before the first record",
                60,
                &[
                    (Release(600), &[]),
                    (Finish, &[]),
                    (Enter(610), &[]),
                    (Finish, &[(600, 660)]),
                ],
            ),
            (
                "a zero size is clamped to one second",
                0,
                &[(Enter(5), &[]), (Enter(7), &[(5, 6), (6, 7)])],
            ),
        ];
        for (name, size, steps) in cases {
            let mut bins = BinCursor::new(*size);
            for (i, (step, want)) in steps.iter().enumerate() {
                let got: Vec<(u64, u64)> = match step {
                    Enter(ts) => bins.enter(*ts).collect(),
                    Release(watermark) => bins.release(*watermark).collect(),
                    Finish => bins.finish().collect(),
                };
                assert_eq!(&got, want, "{name}: step {i}");
            }
        }
    }

    #[test]
    fn empty_stream_processes_nothing() {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(Index::shared()))
            .interval(0, Some(100))
            .start();
        let mut probe = Probe {
            seen: vec![],
            bins: vec![],
        };
        let n = run_pipeline(&mut stream, 60, &mut [&mut probe]);
        assert_eq!(n, 0);
        assert!(probe.bins.is_empty());
    }

    /// Drive a [`Probe`] with [`run_pipeline_until`] over a
    /// single-file stream of state-change records stamped `stamps`;
    /// returns the processed-record count and the probe.
    fn run_probe(tag: &str, stamps: &[u32], bin_size: u64, stop: u64) -> (u64, Probe) {
        use mrt::{Bgp4mp, MrtRecord, MrtWriter};

        let dir = std::env::temp_dir().join(format!("pipeline_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.mrt");
        {
            let mut w = MrtWriter::new(std::fs::File::create(&path).unwrap());
            for &ts in stamps {
                w.write(&MrtRecord::bgp4mp(
                    ts,
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
        let mut stream = BgpStream::builder()
            .data_interface(DataInterface::SingleFile {
                dump_type: DumpType::Updates,
                path,
                interval_start: 0,
                duration: 1000,
            })
            .interval(0, Some(1000))
            .start();
        let mut probe = Probe {
            seen: vec![],
            bins: vec![],
        };
        let n = run_pipeline_until(&mut stream, bin_size, stop, &mut [&mut probe]);
        std::fs::remove_dir_all(&dir).ok();
        (n, probe)
    }

    #[test]
    fn bins_close_in_order_including_empty_ones() {
        let (_, probe) = run_probe("gaps", &[10, 65, 300], 60, u64::MAX);
        assert_eq!(probe.seen, vec![10, 65, 300]);
        // Bins: [0,60) closed at 65; [60,120), [120..300) empties,
        // then final [300,360).
        assert_eq!(
            probe.bins,
            vec![
                (0, 60),
                (60, 120),
                (120, 180),
                (180, 240),
                (240, 300),
                (300, 360)
            ]
        );
    }

    #[test]
    fn single_bin_closes_once_at_end() {
        let (_, probe) = run_probe("single", &[5, 6, 7], 60, u64::MAX);
        assert_eq!(probe.bins, vec![(0, 60)]);
    }

    #[test]
    fn run_until_stops_before_processing_the_stop_record() {
        // Records straddling the stop time: the runner must process
        // strictly-before-stop records only.
        let (n, probe) = run_probe("until", &[100, 200, 300, 400], 60, 300);
        assert_eq!(n, 2);
        assert_eq!(probe.seen, vec![100, 200]);
    }
}
