//! BGPCorsaro integration tests over full simulated archives:
//! the Figure 6 hijack scenario and the RT plugin on real dump flows.

use std::path::PathBuf;
use std::sync::Arc;

use bgpstream::BgpStream;
use broker::{Index, LocalBroker};
use collector_sim::{standard_collectors, SimConfig, Simulator};
use corsaro::{run_pipeline, PfxMonitor, RtPlugin};
use topology::control::ControlPlane;
use topology::events::Scenario;
use topology::gen::{generate, TopologyConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bgpstream-corsaro-{}-{}-{}",
        tag,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn pfxmonitor_detects_simulated_hijacks() {
    // GARR-style scenario: monitor a victim's IP ranges; an unrelated
    // AS announces more-specifics of them for ~1 h, twice.
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(41))), u64::MAX);
    let topo = cp.topology().clone();
    let victim = topo
        .nodes
        .iter()
        .find(|n| n.prefixes_v4.len() >= 2)
        .expect("victim with ranges");
    let attacker = topo
        .nodes
        .iter()
        .rev()
        .find(|n| n.asn != victim.asn)
        .unwrap();
    let ranges: Vec<_> = victim.prefixes_v4.iter().map(|p| p.prefix).collect();

    let specs = standard_collectors(&cp, 1, 1, 4, 1.0, 41);
    let dir = tmpdir("pfx");
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let idx = Index::shared();
    sim.attach_index(idx.clone());
    let mut sc = Scenario::new();
    let sub = ranges[0].children().unwrap().0;
    sc.hijack(3600, 3600, attacker.asn, sub);
    sc.hijack(14400, 3600, attacker.asn, sub);
    sim.schedule(&sc);
    sim.run_until(6 * 3600);

    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .interval(0, Some(6 * 3600))
        .start();
    let mut monitor = PfxMonitor::new(ranges.iter().copied());
    run_pipeline(&mut stream, 300, &mut [&mut monitor]);
    std::fs::remove_dir_all(&dir).unwrap();

    let max_origins = monitor.series.iter().map(|p| p.origins).max().unwrap();
    let baseline: Vec<_> = monitor
        .series
        .iter()
        .filter(|p| p.time < 3600)
        .map(|p| p.origins)
        .collect();
    assert!(!baseline.is_empty());
    let base = *baseline.last().unwrap();
    assert!(
        max_origins > base,
        "hijack produced no origin spike (base {base}, max {max_origins})"
    );
    // The spike subsides after the hijack ends.
    let tail = monitor
        .series
        .iter()
        .filter(|p| p.time >= 19000)
        .map(|p| p.origins)
        .next_back()
        .unwrap();
    assert_eq!(tail, base, "origins did not return to baseline");
}

#[test]
fn rt_plugin_reconstructs_tables_accurately_over_sim() {
    let cp = ControlPlane::new(Arc::new(generate(&TopologyConfig::tiny(42))), u64::MAX);
    let topo = cp.topology().clone();
    let specs = standard_collectors(&cp, 1, 0, 4, 1.0, 42);
    let collector = specs[0].name.clone();
    let dir = tmpdir("rt");
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let idx = Index::shared();
    sim.attach_index(idx.clone());
    // Flap traffic plus a session reset; run past a second RIS RIB
    // (8 h) so the accuracy check fires.
    let mut sc = Scenario::new();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(8)
        .enumerate()
    {
        sc.flap(
            600 + k as u64 * 313,
            6,
            1800,
            n.asn,
            n.prefixes_v4[0].prefix,
        );
    }
    sim.schedule(&sc);
    sim.run_until(9 * 3600);

    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(idx))
        .collector(&collector)
        .interval(0, Some(9 * 3600))
        .start();
    let mut rt = RtPlugin::new(&collector);
    run_pipeline(&mut stream, 1800, &mut [&mut rt]);
    std::fs::remove_dir_all(&dir).unwrap();

    // All four VPs reconstructed, tables non-trivial.
    assert_eq!(rt.vp_addrs().len(), 4);
    for ip in rt.vp_addrs() {
        assert!(rt.vp_table_size(ip) > 10, "tiny table for {ip}");
    }
    // The reconstruction must be essentially error-free: every update
    // the collector saw is in the dumps, so the second RIB agrees.
    assert!(
        rt.error_stats.cells_checked > 100,
        "accuracy check never ran"
    );
    assert_eq!(
        rt.error_stats.cells_mismatched, 0,
        "reconstruction diverged: {:?}",
        rt.error_stats
    );
    // Figure 9 precondition: in steady-state bins (away from RIB
    // application, which materialises whole tables) diffs are fewer
    // than elems — a withdraw+re-announce flap inside one bin is two
    // elems but zero diff cells.
    let steady = |b: &&corsaro::RtBinStats| b.bin >= 3600 && b.bin + 1800 <= 8 * 3600;
    let elems: u64 = rt.bin_series.iter().filter(steady).map(|b| b.elems).sum();
    let diffs: u64 = rt
        .bin_series
        .iter()
        .filter(steady)
        .map(|b| b.diff_cells)
        .sum();
    assert!(elems > 0);
    assert!(
        diffs < elems,
        "no redundancy absorbed: diffs {diffs} vs elems {elems}"
    );
}
