//! `cargo test`: every workload and the layer profile, end to end, on
//! a world that builds and runs in well under a second.

use std::io::Read;
use std::path::PathBuf;

use crate::reference::{self, Needs};
use crate::report::PER_LAYER;
use crate::world::{self, World, SMOKE};
use crate::{profile, workloads};

/// A fresh smoke world under the package's (ignored) target directory.
fn smoke_world(tag: &str, seed: u64) -> World {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/test-worlds")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut built = world::build(&SMOKE, seed, &dir);
    reference::fill(&mut built, Needs::Pipeline);
    built.save().expect("world saves");
    // From here on, only what the measured process would see.
    World::load(&dir).expect("world loads")
}

fn cleanup(world: &World) {
    let _ = std::fs::remove_dir_all(&world.dir);
}

#[test]
fn archive_is_really_compressed_and_inflates_to_valid_mrt() {
    let w = smoke_world("gzip", 5);
    assert!(
        w.gz_bytes * 3 < w.plain_bytes,
        "{} -> {}",
        w.plain_bytes,
        w.gz_bytes
    );
    let mut inflated = 0;
    for m in &w.manifest {
        let gz = std::fs::read(&m.path).unwrap();
        assert_eq!(gz[..2], [0x1f, 0x8b], "{} is gzip", m.path.display());
        assert_eq!(
            gz.len() as u64,
            m.size,
            "manifest states the compressed size"
        );
        let mut plain = Vec::new();
        flate_lite::read::MultiGzDecoder::new(&gz[..])
            .read_to_end(&mut plain)
            .expect("inflates, CRC and length verified");
        inflated += plain.len() as u64;
        assert_eq!(crate::deflate::gzip(&plain), gz, "byte-deterministic");
    }
    assert_eq!(inflated, w.plain_bytes);
    cleanup(&w);
}

#[test]
fn same_seed_same_world_other_seed_other_world() {
    let (a, b, c) = (
        smoke_world("det-a", 9),
        smoke_world("det-b", 9),
        smoke_world("det-c", 10),
    );
    assert_eq!(a.workload_hash(), b.workload_hash());
    assert_eq!(a.expect, b.expect);
    assert_ne!(a.workload_hash(), c.workload_hash());
    for w in [a, b, c] {
        cleanup(&w);
    }
}

#[test]
fn every_workload_runs_clean_on_the_smoke_world() {
    let w = smoke_world("workloads", 3);
    let outcomes = [
        ("hist_scan", workloads::hist_scan(&w, 0.1, false)),
        ("hist_filtered", workloads::hist_scan(&w, 0.1, true)),
        ("hist_pipeline", workloads::hist_pipeline(&w, 0.1)),
        ("live_tail", workloads::live_tail(&w, 0.5)),
        ("rib_query", workloads::rib_query(&w, 0.1)),
    ];
    for (name, out) in outcomes {
        let mismatches: Vec<_> = out
            .detail
            .iter()
            .filter(|(k, _)| k.starts_with("mismatch"))
            .collect();
        assert_eq!(out.failed, 0, "{name}: {mismatches:?}");
        assert!(out.attempted > 0, "{name}");
        assert!(!out.latency_ms.is_empty(), "{name}");
        assert!(out.throughput_per_s > 0.0, "{name}");
    }
    cleanup(&w);
}

#[test]
fn a_wrong_reference_fails_the_run() {
    let mut w = smoke_world("wrong", 3);
    *w.expect.get_mut("elems").unwrap() += 1;
    *w.expect.get_mut("series_checksum").unwrap() ^= 1;
    assert!(workloads::hist_scan(&w, 0.05, false).failed > 0);
    assert!(workloads::hist_pipeline(&w, 0.05).failed > 0);
    assert!(workloads::live_tail(&w, 0.3).failed > 0);
    cleanup(&w);
}

#[test]
fn the_profile_reports_every_per_layer_metric_once() {
    let w = smoke_world("profile", 4);
    let (layers, spans) = profile::profile(&w, true, 0.5);
    let mut got: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
    let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
    for (name, value) in &layers {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let at = |n: &str| layers.iter().find(|(k, _)| *k == n).unwrap().1;
    assert_eq!(at("mrt.records"), w.expect["sim_records"] as f64);
    assert_eq!(at("core.elems"), w.expect["elems"] as f64);
    assert_eq!(at("mrt.corrupt_records"), 0.0);
    assert_eq!(at("broker.dumps"), w.manifest.len() as f64);
    assert_eq!(at("corsaro.bins_closed"), w.expect["bins"] as f64);
    assert!(!spans.is_empty());
    cleanup(&w);
}
