//! BMP as a *live data source* behind the broker's cursor
//! abstraction.
//!
//! [`bridge_stream`](crate::station::bridge_stream) converts a BMP
//! byte stream into MRT records; this module takes the next step and
//! makes a router feed look — to every live consumer — exactly like a
//! collector publishing to an archive: a [`BmpLiveFeed`] buffers the
//! bridged records, rotates them into MRT dump files on a fixed
//! window cadence, registers each file with a shared
//! [`broker::Index`], and advances the index's publication watermark
//! to the rotation boundary.
//!
//! Downstream, nothing knows or cares that the data came from BMP:
//! the same [`broker::LiveCursor`] releases the windows, the same
//! sorted-stream merge orders the records, and the same
//! watermark-driven bin closing applies — which is the paper's §7
//! point that "OpenBMP support slots in as another data source
//! *underneath* the framework, not as a parallel stack", now true for
//! live operation too. A BMP feed and simulated collector archives
//! can even share one index: the stream merges both sources by
//! timestamp, and the watermark (being the min-style invariant each
//! publisher maintains for its own dumps) composes through
//! [`broker::Index::advance_watermark`]'s monotonicity.

use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::Arc;

use bgp_types::Asn;
use broker::index::DumpMeta;
use broker::{DumpType, Index};
use mrt::{MrtRecord, MrtWriter};

use crate::msg::BmpMessage;
use crate::station::{MonitoringStation, StationEvent};

/// Bridges one router's BMP session into rotating MRT dump files
/// published to a broker index. See the [module docs](self).
pub struct BmpLiveFeed {
    station: MonitoringStation,
    index: Arc<Index>,
    dir: PathBuf,
    /// Collector name stamped into published dumps (the router's
    /// identity at the station).
    collector: String,
    /// Rotation window in seconds.
    window: u64,
    window_start: u64,
    buffer: Vec<MrtRecord>,
    files_published: u64,
}

impl BmpLiveFeed {
    /// A feed rotating `window`-second dumps for router `collector`
    /// into `dir`, publishing them to `index`. The station bridges
    /// records as collector `local_asn`/`local_ip`. `start` aligns the
    /// first window.
    pub fn new(
        index: Arc<Index>,
        dir: impl Into<PathBuf>,
        collector: &str,
        local_asn: Asn,
        local_ip: IpAddr,
        start: u64,
        window: u64,
    ) -> Self {
        BmpLiveFeed {
            station: MonitoringStation::new(local_asn, local_ip),
            index,
            dir: dir.into(),
            collector: collector.to_string(),
            window: window.max(1),
            window_start: start,
            buffer: Vec::new(),
            files_published: 0,
        }
    }

    /// The underlying station (anomaly counters, peer state).
    pub fn station(&self) -> &MonitoringStation {
        &self.station
    }

    /// Dump files published so far.
    pub fn files_published(&self) -> u64 {
        self.files_published
    }

    /// Ingest one BMP message. Bridged records are buffered; a record
    /// timestamped at or past the current window's end rotates the
    /// window first (so dumps hold exactly their window's records,
    /// like a collector's updates files). Non-record events are
    /// returned for the caller's monitoring.
    pub fn ingest(&mut self, msg: BmpMessage) -> Vec<StationEvent> {
        // A record far in the future must not materialise every
        // intermediate quiet window as a file: a single hostile
        // timestamp (u32::MAX is ~71M 60-second windows away) would
        // otherwise flood the disk and the index. Past this many
        // consecutive empty windows, the gap is skipped in one jump.
        const MAX_EMPTY_ROTATIONS: u64 = 64;
        let mut other = Vec::new();
        for ev in self.station.ingest(msg) {
            match ev {
                StationEvent::Record(rec) => {
                    let ts = rec.timestamp as u64;
                    let mut rotations = 0u64;
                    while ts >= self.window_start + self.window {
                        if rotations >= MAX_EMPTY_ROTATIONS {
                            // Jump the (aligned) cursor to the
                            // record's window; the skipped quiet span
                            // publishes no files but the watermark
                            // still advances on the next rotation.
                            let gap = (ts - self.window_start) / self.window;
                            self.window_start += gap * self.window;
                            break;
                        }
                        self.rotate();
                        rotations += 1;
                    }
                    self.buffer.push(rec);
                }
                ev => other.push(ev),
            }
        }
        other
    }

    /// Close the current window: write its records (possibly none —
    /// quiet windows publish empty dumps, exactly like a real
    /// collector's updates cadence) as one MRT file, register it, and
    /// advance the watermark to the new window start so live cursors
    /// can release the closed window.
    pub fn rotate(&mut self) {
        let bound = self.window_start + self.window;
        let mut bytes = Vec::new();
        {
            let mut w = MrtWriter::new(&mut bytes);
            for rec in &self.buffer {
                w.write(rec).expect("in-memory write");
            }
        }
        self.buffer.clear();
        std::fs::create_dir_all(&self.dir).expect("create feed dir");
        let path = self
            .dir
            .join(format!("bmp-{}-{}.mrt", self.collector, self.window_start));
        std::fs::write(&path, &bytes).expect("write bmp dump");
        self.index.register(DumpMeta {
            project: "bmp".into(),
            collector: self.collector.clone(),
            dump_type: DumpType::Updates,
            interval_start: self.window_start,
            duration: self.window,
            path,
            available_at: bound,
            size: bytes.len() as u64,
        });
        self.files_published += 1;
        self.window_start = bound;
        self.index.advance_watermark(self.window_start);
    }

    /// Close the current (final) window — the session-teardown path.
    /// `ingest` already rotated past every earlier window, so the
    /// buffer only ever holds the current window's records.
    pub fn finish(mut self) -> u64 {
        self.rotate();
        self.files_published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::BmpReader;
    use crate::router::RouterExporter;
    use bgp_types::{AsPath, BgpUpdate, PathAttributes, Prefix};

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "bmp-feed-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A session whose updates span several 300-second windows.
    fn session_wire() -> Vec<u8> {
        let peer_ip: IpAddr = "192.0.2.1".parse().unwrap();
        let mut ex = RouterExporter::new(
            Vec::new(),
            "edge1",
            "192.0.2.254".parse().unwrap(),
            Asn(64512),
        );
        ex.initiate("sim").unwrap();
        ex.peer_up(peer_ip, Asn(65001), 1, 10).unwrap();
        for (k, ts) in [20u32, 250, 400, 650, 900, 1150].into_iter().enumerate() {
            ex.route_monitoring(
                peer_ip,
                Asn(65001),
                1,
                ts,
                BgpUpdate::announce(
                    vec![p(&format!("203.0.{k}.0/24"))],
                    PathAttributes::route(
                        AsPath::from_sequence([65001, 137]),
                        "192.0.2.1".parse().unwrap(),
                    ),
                ),
            )
            .unwrap();
        }
        ex.into_inner()
    }

    #[test]
    fn feed_publishes_windows_and_live_stream_tails_them() {
        use bgpstream::{BgpStream, Clock};
        use broker::LocalBroker;

        let wire = session_wire();
        // Reference: what a plain bridge of the whole session yields.
        let (reference, err) =
            crate::station::bridge_stream(&wire[..], Asn(64512), "192.0.2.254".parse().unwrap());
        assert!(err.is_none());

        let dir = scratch("tail");
        let index = Arc::new(Index::with_window(300));
        let mut feed = BmpLiveFeed::new(
            index.clone(),
            &dir,
            "edge1",
            Asn(64512),
            "192.0.2.254".parse().unwrap(),
            0,
            300,
        );
        for msg in BmpReader::new(&wire[..]) {
            feed.ingest(msg.expect("well-formed wire"));
        }
        let files = feed.finish();
        assert!(files >= 4, "the session spans several windows: {files}");
        assert_eq!(index.len(), files as usize);
        assert!(index.watermark() >= 1151);

        // The same cursor abstraction every live consumer uses: a
        // watermark-released live stream over the feed's index.
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(index))
            .live(0)
            .watermark_release()
            .clock(Clock::all_published())
            .start();
        let mut got = Vec::new();
        while got.len() < reference.len() {
            match stream.next_batch_step(64) {
                bgpstream::BatchStep::Records(recs) => {
                    for r in recs {
                        assert_eq!(r.project(), "bmp");
                        assert_eq!(r.collector(), "edge1");
                        got.push(r.timestamp);
                    }
                }
                bgpstream::BatchStep::Idle { .. } => {}
                bgpstream::BatchStep::End => break,
            }
        }
        let want: Vec<u64> = reference.iter().map(|r| r.timestamp as u64).collect();
        assert_eq!(got, want, "live tail must replay the bridged session");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn far_future_timestamp_does_not_flood_the_archive() {
        // A hostile/buggy router stamping a record at u32::MAX must
        // not materialise ~71M intermediate empty windows as files:
        // past a bounded run of empty rotations the cursor jumps.
        let dir = scratch("flood");
        let index = Index::shared();
        let mut feed = BmpLiveFeed::new(
            index.clone(),
            &dir,
            "edge1",
            Asn(64512),
            "192.0.2.254".parse().unwrap(),
            0,
            60,
        );
        let peer = crate::peer::PerPeerHeader::global("10.0.0.1".parse().unwrap(), Asn(1), 1, 0);
        feed.ingest(BmpMessage::RouteMonitoring {
            peer: crate::peer::PerPeerHeader {
                ts_sec: u32::MAX,
                ..peer
            },
            update: bgp_types::BgpMessage::Keepalive,
        });
        let files = feed.finish();
        assert!(files <= 66, "flooded {files} files");
        assert!(index.watermark() > u64::from(u32::MAX));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quiet_windows_publish_empty_dumps() {
        let dir = scratch("quiet");
        let index = Index::shared();
        let mut feed = BmpLiveFeed::new(
            index.clone(),
            &dir,
            "edge1",
            Asn(64512),
            "192.0.2.254".parse().unwrap(),
            0,
            60,
        );
        feed.rotate();
        feed.rotate();
        assert_eq!(feed.files_published(), 2);
        assert_eq!(index.len(), 2);
        assert_eq!(index.watermark(), 120);
        std::fs::remove_dir_all(&dir).ok();
    }
}
