//! Data interfaces: how libBGPStream learns which files to read.
//!
//! The paper ships four: the Broker (primary), Single file, CSV file
//! and SQLite. We implement the first three
//! ([`DataInterface::Client`] is the Broker — local or served;
//! [`DataInterface::SingleFile`] and [`DataInterface::CsvFile`]
//! here); SQLite is omitted for dependency reasons — the CSV manifest
//! covers the same "local index" use case.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::client::{BrokerClient, LocalBroker};
use crate::error::BrokerError;
use crate::index::{DumpMeta, DumpType, Index};

/// Where stream meta-data comes from.
#[derive(Clone)]
pub enum DataInterface {
    /// The Broker meta-data service, behind the [`BrokerClient`]
    /// abstraction: an in-process [`LocalBroker`] or a served
    /// [`RemoteBroker`](crate::RemoteBroker) — streams cannot tell
    /// the difference.
    Client(Arc<dyn BrokerClient>),
    /// Exactly one local dump file.
    SingleFile {
        /// Dump type of the file.
        dump_type: DumpType,
        /// Path to the file.
        path: PathBuf,
        /// Nominal interval start.
        interval_start: u64,
        /// Nominal interval duration (0 for RIBs).
        duration: u64,
    },
    /// A CSV manifest:
    /// `project,collector,type,interval_start,duration,available_at,size,path`
    /// per line (`#` comments allowed).
    CsvFile(PathBuf),
}

impl DataInterface {
    /// The broker interface over an explicit client.
    pub fn client(client: Arc<dyn BrokerClient>) -> Self {
        DataInterface::Client(client)
    }

    /// Materialise this interface as a [`BrokerClient`] — the one
    /// query surface the stream layer drives. `SingleFile`/`CsvFile`
    /// build a fresh, fully-available local index behind a
    /// [`LocalBroker`]; `Client` returns the handle as-is.
    pub fn into_client(self) -> Result<Arc<dyn BrokerClient>, BrokerError> {
        match self {
            DataInterface::Client(client) => Ok(client),
            other => Ok(LocalBroker::shared(other.into_index()?)),
        }
    }

    /// The fresh, fully-available index behind a file interface
    /// (`SingleFile`/`CsvFile`). A `Client` names no files; its
    /// index is empty ([`DataInterface::into_client`] hands the
    /// client back instead).
    fn into_index(self) -> Result<Arc<Index>, BrokerError> {
        let idx = Index::shared();
        match self {
            DataInterface::Client(_) => {}
            DataInterface::SingleFile {
                dump_type,
                path,
                interval_start,
                duration,
            } => {
                // A single-file interface names exactly one file; if
                // that file cannot be stat'ed the stream would only
                // discover the problem mid-read. Fail loudly here.
                let size = std::fs::metadata(&path)
                    .map_err(|e| BrokerError::Io(format!("cannot stat {}: {e}", path.display())))?
                    .len();
                idx.register(DumpMeta {
                    project: "local".into(),
                    collector: "local".into(),
                    dump_type,
                    interval_start,
                    duration,
                    path,
                    available_at: 0,
                    size,
                });
            }
            DataInterface::CsvFile(path) => {
                for meta in parse_csv_manifest(&path)? {
                    idx.register(meta);
                }
            }
        }
        Ok(idx)
    }
}

/// Parse a CSV manifest file into dump meta-data entries.
pub fn parse_csv_manifest(path: &Path) -> Result<Vec<DumpMeta>, BrokerError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| BrokerError::Io(format!("cannot read manifest {}: {e}", path.display())))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 8 {
            return Err(BrokerError::Malformed(format!(
                "{}:{}: expected 8 fields, got {}",
                path.display(),
                lineno + 1,
                fields.len()
            )));
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, BrokerError> {
            s.trim().parse().map_err(|e| {
                BrokerError::Malformed(format!(
                    "{}:{}: bad {what}: {e}",
                    path.display(),
                    lineno + 1
                ))
            })
        };
        out.push(DumpMeta {
            project: fields[0].trim().to_string(),
            collector: fields[1].trim().to_string(),
            dump_type: fields[2].trim().parse().map_err(|e| {
                BrokerError::Malformed(format!("{}:{}: {e}", path.display(), lineno + 1))
            })?,
            interval_start: parse_u64(fields[3], "interval_start")?,
            duration: parse_u64(fields[4], "duration")?,
            available_at: parse_u64(fields[5], "available_at")?,
            size: parse_u64(fields[6], "size")?,
            path: PathBuf::from(fields[7].trim()),
        });
    }
    Ok(out)
}

/// Serialise entries to CSV manifest format (inverse of
/// [`parse_csv_manifest`]); the collector simulator writes one of
/// these per archive so analyses can run offline.
pub fn to_csv_manifest(entries: &[DumpMeta]) -> String {
    let mut out =
        String::from("# project,collector,type,interval_start,duration,available_at,size,path\n");
    for m in entries {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            m.project,
            m.collector,
            m.dump_type,
            m.interval_start,
            m.duration,
            m.available_at,
            m.size,
            m.path.display()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BrokerCursor, Query};

    fn sample_entries() -> Vec<DumpMeta> {
        vec![
            DumpMeta {
                project: "ris".into(),
                collector: "rrc01".into(),
                dump_type: DumpType::Rib,
                interval_start: 1000,
                duration: 0,
                path: PathBuf::from("/data/rrc01/rib.1000.mrt"),
                available_at: 1600,
                size: 5_000,
            },
            DumpMeta {
                project: "routeviews".into(),
                collector: "rv2".into(),
                dump_type: DumpType::Updates,
                interval_start: 900,
                duration: 900,
                path: PathBuf::from("/data/rv2/updates.900.mrt"),
                available_at: 2100,
                size: 2_000,
            },
        ]
    }

    #[test]
    fn csv_roundtrip() {
        let entries = sample_entries();
        let csv = to_csv_manifest(&entries);
        let dir = std::env::temp_dir().join(format!("bgpstream-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.csv");
        std::fs::write(&path, csv).unwrap();
        let back = parse_csv_manifest(&path).unwrap();
        assert_eq!(back, entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_rejects_malformed_with_typed_errors() {
        let dir = std::env::temp_dir().join(format!("bgpstream-csv-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "ris,rrc01,ribs,notanumber,0,0,0,/x\n").unwrap();
        assert!(matches!(
            parse_csv_manifest(&path),
            Err(BrokerError::Malformed(_))
        ));
        std::fs::write(&path, "too,few,fields\n").unwrap();
        assert!(matches!(
            parse_csv_manifest(&path),
            Err(BrokerError::Malformed(_))
        ));
        std::fs::write(&path, "ris,rrc01,frobs,1,0,0,0,/x\n").unwrap();
        assert!(matches!(
            parse_csv_manifest(&path),
            Err(BrokerError::Malformed(_))
        ));
        // An unreadable manifest is I/O, not parse.
        assert!(matches!(
            parse_csv_manifest(&dir.join("absent.csv")),
            Err(BrokerError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_skips_comments_and_blanks() {
        let dir = std::env::temp_dir().join(format!("bgpstream-csv-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.csv");
        std::fs::write(&path, "# header\n\nris,rrc01,ribs,1,0,2,3,/x\n").unwrap();
        let entries = parse_csv_manifest(&path).unwrap();
        assert_eq!(entries.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_file_interface_builds_index() {
        let dir = std::env::temp_dir().join(format!("bgpstream-sf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("u.mrt");
        std::fs::write(&file, [0u8; 32]).unwrap();
        let iface = DataInterface::SingleFile {
            dump_type: DumpType::Updates,
            path: file,
            interval_start: 50,
            duration: 300,
        };
        let idx = iface.into_index().unwrap();
        let mut cur = BrokerCursor { window_start: 0 };
        let q = Query {
            start: 0,
            end: Some(1000),
            ..Default::default()
        };
        let r = idx.query(&q, &mut cur, u64::MAX);
        assert_eq!(r.files.len(), 1);
        assert_eq!(r.files[0].interval_start, 50);
        assert_eq!(r.files[0].size, 32, "size must come from the file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_file_missing_file_is_an_io_error() {
        // Regression: this used to be swallowed into `size: 0`,
        // deferring the failure to mid-stream file opens.
        let iface = DataInterface::SingleFile {
            dump_type: DumpType::Updates,
            path: PathBuf::from("/nonexistent/u.mrt"),
            interval_start: 50,
            duration: 300,
        };
        match iface.clone().into_index() {
            Err(BrokerError::Io(msg)) => assert!(msg.contains("/nonexistent/u.mrt")),
            Err(other) => panic!("expected Io error, got {other:?}"),
            Ok(_) => panic!("expected Io error, got an index"),
        }
        assert!(matches!(iface.into_client(), Err(BrokerError::Io(_))));
    }

    #[test]
    fn csv_interface_builds_index() {
        let dir = std::env::temp_dir().join(format!("bgpstream-csv-i-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.csv");
        std::fs::write(&path, to_csv_manifest(&sample_entries())).unwrap();
        let idx = DataInterface::CsvFile(path).into_index().unwrap();
        assert_eq!(idx.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broker_constructor_is_a_local_client() {
        // A client interface hands back the very client it wraps.
        let local: Arc<dyn BrokerClient> = LocalBroker::shared(Index::shared());
        let client = DataInterface::client(local.clone()).into_client().unwrap();
        assert!(Arc::ptr_eq(&client, &local));
    }
}
