//! A match-heavy gzip stream through [`ChunkedReader`] at every small
//! refill size. Every other `.gz` fixture in this repo is written by
//! `flate_lite::write::GzEncoder`, which emits literals only, so the
//! inflater's LZ77 match path — where real collector dumps spend their
//! time — would otherwise never run underneath the record framer.
//!
//! The stream is written down token by token with flate-lite's
//! test-side DEFLATE writer (shared by path, it is nobody's API).

#[path = "../../../vendor/flate-lite/tests/common/mod.rs"]
mod flate_tests;

use bgp_types::{Asn, BgpMessage};
use flate_tests::stream::{gzip_member, Block, Token};
use mrt::{Bgp4mp, ChunkedReader, MrtRecord, MrtWriter};

fn archive(stamps: impl Iterator<Item = u32>) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for ts in stamps {
        w.write(&MrtRecord::bgp4mp(
            ts,
            Bgp4mp::Message {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: BgpMessage::Keepalive,
            },
        ))
        .unwrap();
    }
    buf
}

/// Records differ in their timestamp only, so everything but a byte or
/// two per record is a match one record back.
fn tokens(data: &[u8], dist: usize) -> Vec<Token> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let run = if i < dist {
            0
        } else {
            (i..data.len().min(i + 258))
                .take_while(|&j| data[j] == data[j - dist])
                .count()
        };
        if run >= 3 {
            out.push(Token::Match {
                len: run as u16,
                dist: dist as u16,
            });
            i += run;
        } else {
            out.push(Token::Lit(data[i]));
            i += 1;
        }
    }
    out
}

#[test]
fn match_heavy_stream_frames_identically_at_every_read_size() {
    let stamps = 1_000_000..1_000_700u32;
    let plain = archive(stamps.clone());
    let record = plain.len() / stamps.len();
    let toks = tokens(&plain, record);
    let matched: usize = toks
        .iter()
        .map(|t| match t {
            Token::Match { len, .. } => usize::from(*len),
            Token::Lit(_) => 0,
        })
        .sum();
    assert!(
        matched * 10 > plain.len() * 9,
        "the stream is mostly matches"
    );

    // Fixed and dynamic blocks in turn, so both table kinds are used.
    let mut blocks: Vec<Block> = toks
        .chunks(200)
        .enumerate()
        .map(|(i, chunk)| match i % 2 {
            0 => Block::Fixed(chunk.to_vec()),
            _ => Block::Dynamic {
                tokens: chunk.to_vec(),
                shape: i as u64,
            },
        })
        .collect();
    let (gz, expanded) = gzip_member(&mut blocks);
    assert!(expanded == plain && gz.len() * 4 < plain.len());

    for read_size in 1..=64 {
        let mut r = ChunkedReader::from_bytes(gz.clone()).with_read_size(read_size);
        assert!(r.is_gzip());
        let mut seen = Vec::new();
        while let Some(rec) = r.next() {
            seen.push(rec.expect("clean archive").timestamp);
        }
        assert!(
            seen.iter().copied().eq(stamps.clone()),
            "read size {read_size}"
        );
    }
}
