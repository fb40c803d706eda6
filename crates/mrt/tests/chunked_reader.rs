//! Streaming-decompression round trips for [`ChunkedReader`]:
//! gzip member concatenation, truncation mid-member, and garbage after
//! valid data must all surface as *typed* errors (`MrtError::Io` /
//! framing statuses) — never a panic — with the poisoning contract
//! (one `Some(Err)`, then `None`) intact.

use std::io::Write as _;

use bgp_types::{Asn, BgpMessage};
use flate_lite::{write::GzEncoder, Compression};
use mrt::{Bgp4mp, ChunkedReader, MrtError, MrtRecord, MrtWriter};

fn keepalive(ts: u32) -> MrtRecord {
    MrtRecord::bgp4mp(
        ts,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Keepalive,
        },
    )
}

fn archive(stamps: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for &ts in stamps {
        w.write(&keepalive(ts)).unwrap();
    }
    buf
}

fn gzip(data: &[u8], level: Compression) -> Vec<u8> {
    let mut enc = GzEncoder::new(Vec::new(), level);
    enc.write_all(data).unwrap();
    enc.finish().unwrap()
}

/// Drain a reader into (timestamps, optional trailing error),
/// asserting the poisoning contract: after one `Err`, only `None`.
fn drain(mut r: ChunkedReader) -> (Vec<u32>, Option<MrtError>) {
    let mut stamps = Vec::new();
    let mut error = None;
    while let Some(item) = r.next() {
        match item {
            Ok(rec) => stamps.push(rec.timestamp),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    for _ in 0..3 {
        assert!(r.next().is_none(), "poisoned/ended reader must stay ended");
    }
    (stamps, error)
}

#[test]
fn gzip_roundtrip_matches_plain() {
    let plain = archive(&[1, 2, 3, 4, 5]);
    for level in [
        Compression::none(),
        Compression::fast(),
        Compression::best(),
    ] {
        let gz = gzip(&plain, level);
        let r = ChunkedReader::from_bytes(gz).with_read_size(11);
        assert!(r.is_gzip());
        let (stamps, err) = drain(r);
        assert_eq!(stamps, vec![1, 2, 3, 4, 5]);
        assert!(err.is_none(), "clean archive must not error: {err:?}");
    }
    let r = ChunkedReader::from_bytes(plain);
    assert!(!r.is_gzip());
    let (stamps, err) = drain(r);
    assert_eq!((stamps, err), (vec![1, 2, 3, 4, 5], None));
}

#[test]
fn concatenated_members_decode_as_one_stream() {
    // RouteViews-style: independently gzipped parts concatenated into
    // one file. RFC 1952 says a decoder should process all members.
    let mut gz = gzip(&archive(&[10, 20]), Compression::fast());
    gz.extend(gzip(&archive(&[30]), Compression::best()));
    gz.extend(gzip(&archive(&[40, 50]), Compression::none()));
    let (stamps, err) = drain(ChunkedReader::from_bytes(gz).with_read_size(7));
    assert_eq!(stamps, vec![10, 20, 30, 40, 50]);
    assert!(
        err.is_none(),
        "member concatenation must be seamless: {err:?}"
    );
}

#[test]
fn truncated_mid_member_yields_typed_io_error() {
    let gz = gzip(&archive(&[1, 2, 3, 4, 5, 6, 7, 8]), Compression::fast());
    // Cut at several depths: inside the header, inside the deflate
    // stream, inside the trailer. All must end in exactly one typed
    // error (or clean EOF if the cut lands on a record boundary of the
    // decompressed stream) — never a panic.
    for cut in [gz.len() - 1, gz.len() - 4, gz.len() / 2, 12, 5, 1] {
        let (stamps, err) = drain(ChunkedReader::from_bytes(gz[..cut].to_vec()).with_read_size(9));
        match err {
            Some(MrtError::Io(_)) | Some(MrtError::Truncated(_)) => {}
            Some(other) => panic!("cut {cut}: expected Io/Truncated, got {other:?}"),
            None => panic!("cut {cut}: truncation must surface an error (got {stamps:?})"),
        }
    }
}

#[test]
fn garbage_after_valid_member_yields_typed_io_error() {
    let mut gz = gzip(&archive(&[100, 200]), Compression::fast());
    gz.extend_from_slice(b"this is not a gzip member");
    let (stamps, err) = drain(ChunkedReader::from_bytes(gz).with_read_size(13));
    // Both records decode before the trailing garbage is reached.
    assert_eq!(stamps, vec![100, 200]);
    match err {
        Some(MrtError::Io(msg)) => {
            assert!(
                msg.contains("trailing garbage"),
                "error should identify the fault: {msg}"
            );
        }
        other => panic!("expected MrtError::Io for trailing garbage, got {other:?}"),
    }
}

#[test]
fn corrupted_compressed_payload_never_panics() {
    let gz = gzip(&archive(&[1, 2, 3, 4]), Compression::best());
    // Flip every byte position in turn; every variant must drain to a
    // typed outcome (possibly clean if the flip is immaterial).
    for at in 0..gz.len() {
        let mut bad = gz.clone();
        bad[at] ^= 0x55;
        if bad[..2] != [0x1f, 0x8b] {
            // Magic destroyed: sniffed as plain MRT and framed as
            // such; still must not panic.
            let _ = drain(ChunkedReader::from_bytes(bad));
            continue;
        }
        let _ = drain(ChunkedReader::from_bytes(bad).with_read_size(7));
    }
}

#[test]
fn open_sniffs_gzip_files_on_disk() {
    let dir = std::env::temp_dir().join(format!(
        "chunked-reader-open-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let plain_path = dir.join("plain.mrt");
    let gz_path = dir.join("dump.mrt.gz");
    let plain = archive(&[7, 8, 9]);
    std::fs::write(&plain_path, &plain).unwrap();
    std::fs::write(&gz_path, gzip(&plain, Compression::fast())).unwrap();

    let r = ChunkedReader::open(&plain_path).unwrap();
    assert!(!r.is_gzip());
    assert_eq!(drain(r).0, vec![7, 8, 9]);

    let r = ChunkedReader::open(&gz_path).unwrap();
    assert!(r.is_gzip());
    assert_eq!(drain(r).0, vec![7, 8, 9]);

    assert!(ChunkedReader::open(&dir.join("missing")).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_tiny_inputs_are_clean_or_typed() {
    assert_eq!(drain(ChunkedReader::from_bytes(Vec::new())), (vec![], None));
    // A bare gzip magic with nothing behind it: typed error.
    let (stamps, err) = drain(ChunkedReader::from_bytes(vec![0x1f, 0x8b]));
    assert!(stamps.is_empty());
    assert!(matches!(err, Some(MrtError::Io(_))), "got {err:?}");
    // One stray byte: framed as a truncated MRT header.
    let (_, err) = drain(ChunkedReader::from_bytes(vec![0x00]));
    assert!(matches!(err, Some(MrtError::Truncated(_))), "got {err:?}");
}
