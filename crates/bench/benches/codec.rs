//! Criterion microbenchmarks: MRT/BGP wire codec throughput and the
//! prefix trie (the per-record costs that dominate stream processing).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bgp_types::trie::PrefixMatch;
use bgp_types::{AsPath, Asn, BgpMessage, BgpUpdate, PathAttributes, Prefix, PrefixTrie};
use mrt::{Bgp4mp, ChunkedReader, MrtRecord, MrtWriter};

fn sample_update(k: u32) -> MrtRecord {
    let mut attrs = PathAttributes::route(
        AsPath::from_sequence([65001, 3356 + k % 7, 174, 137 + k % 911]),
        "192.0.2.1".parse().unwrap(),
    );
    attrs
        .communities
        .insert(bgp_types::Community::new(3356, 100 + (k % 50) as u16));
    let prefix = Prefix::v4(std::net::Ipv4Addr::from(0x0b00_0000 + k * 256), 24);
    MrtRecord::bgp4mp(
        1_000_000 + k,
        Bgp4mp::Message {
            peer_asn: Asn(65001),
            local_asn: Asn(12654),
            peer_ip: "192.0.2.1".parse().unwrap(),
            local_ip: "192.0.2.254".parse().unwrap(),
            message: BgpMessage::Update(BgpUpdate::announce(vec![prefix], attrs)),
        },
    )
}

fn bench_mrt_codec(c: &mut Criterion) {
    let records: Vec<MrtRecord> = (0..1000).map(sample_update).collect();
    let mut file = Vec::new();
    {
        let mut w = MrtWriter::new(&mut file);
        for r in &records {
            w.write(r).unwrap();
        }
    }
    let mut g = c.benchmark_group("mrt_codec");
    g.throughput(Throughput::Bytes(file.len() as u64));
    g.bench_function("encode_1k_updates", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(file.len());
            let mut w = MrtWriter::new(&mut buf);
            for r in &records {
                w.write(black_box(r)).unwrap();
            }
            black_box(buf.len())
        })
    });
    g.bench_function("decode_1k_updates", |b| {
        b.iter(|| {
            let (recs, err) = ChunkedReader::from_bytes(black_box(file.clone())).read_all();
            assert!(err.is_none());
            black_box(recs.len())
        })
    });
    g.finish();
}

fn bench_trie(c: &mut Criterion) {
    let mut trie = PrefixTrie::new();
    for k in 0u32..10_000 {
        trie.insert(
            Prefix::v4(std::net::Ipv4Addr::from(0x0b00_0000 + k * 1024), 22),
            k,
        );
    }
    let queries: Vec<Prefix> = (0u32..1024)
        .map(|k| Prefix::v4(std::net::Ipv4Addr::from(0x0b00_0000 + k * 7919), 32))
        .collect();
    let mut g = c.benchmark_group("prefix_trie");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("longest_match_1k", |b| {
        b.iter(|| {
            let mut hits = 0;
            for q in &queries {
                if trie.longest_match(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("match_any_1k", |b| {
        b.iter(|| {
            let mut hits = 0;
            for q in &queries {
                if trie.matches(black_box(q), PrefixMatch::Any) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mrt_codec, bench_trie
}
criterion_main!(benches);
