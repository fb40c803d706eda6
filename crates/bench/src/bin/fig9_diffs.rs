//! Figure 9 — RT diffs vs BGP elems, as a function of the time-bin
//! size.
//!
//! Runs the RT plugin over one collector's updates at bin sizes from
//! 1 to 60 minutes and reports the average and maximum number of BGP
//! elems vs diff cells per bin. Paper shape: diffs are >3x fewer than
//! elems at 1-minute bins and the reduction factor grows with bin
//! size (~13x at 1 hour); maxima are damped even more (burst
//! resilience).

use std::sync::Arc;

use bench::{header, scaled};
use bgpstream_repro::bgpstream::BgpStream;
use bgpstream_repro::broker::{Index, LocalBroker};
use bgpstream_repro::collector_sim::{standard_collectors, SimConfig, Simulator};
use bgpstream_repro::corsaro::{run_pipeline, RtPlugin};
use bgpstream_repro::topology::control::ControlPlane;
use bgpstream_repro::topology::events::Scenario;
use bgpstream_repro::topology::gen::{generate, TopologyConfig};
use bgpstream_repro::worlds::scratch_dir;

/// The bin sizes of the figure, in minutes.
const BIN_MINUTES: [u64; 8] = [1, 5, 10, 15, 20, 30, 45, 60];

fn main() {
    header("Figure 9", "RT diff cells vs BGP elems per time bin");
    let dir = scratch_dir("fig9");
    // The flap scripts below run for a quarter of the horizon, and the
    // first bin of every size is left out of the sample. So the
    // largest bin's first steady-state bin sees flap activity only if
    // a quarter of the horizon reaches it: floor the horizon at four
    // largest bins (4 h; scale 1's 6 h is above it).
    let largest_bin = 60 * BIN_MINUTES.iter().max().unwrap();
    let horizon = scaled(6 * 3600).max(4 * largest_bin);
    let cp = ControlPlane::new(
        Arc::new(generate(&TopologyConfig {
            seed: 9,
            ..TopologyConfig::default()
        })),
        u64::MAX,
    );
    let specs = standard_collectors(&cp, 1, 0, 6, 1.0, 9);
    let collector = specs[0].name.clone();
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let idx = Index::shared();
    sim.attach_index(idx.clone());

    // Update workload: prefixes flapping at mixed periods — fast
    // convergence-style churn (sub-minute), medium, and slow flaps.
    let topo = sim.control_plane().topology().clone();
    let mut sc = Scenario::new();
    let mut k = 0u64;
    for n in topo.nodes.iter().filter(|n| !n.prefixes_v4.is_empty()) {
        for op in n.prefixes_v4.iter().take(2) {
            let period = match k % 3 {
                0 => 40,   // path-exploration-style bursts
                1 => 300,  // medium churn
                _ => 1500, // slow flapping
            };
            let times = (horizon / period / 4).clamp(2, 200) as u32;
            sc.flap(60 + (k * 29) % 600, times, period, n.asn, op.prefix);
            k += 1;
            if k > 120 {
                break;
            }
        }
        if k > 120 {
            break;
        }
    }
    sim.schedule(&sc);
    sim.run_until(horizon);
    println!(
        "workload: {} flap scripts over {} s, {} update records",
        k,
        horizon,
        sim.stats().records
    );

    println!("\n bin(min)   avg-elems  avg-diffs  reduction   max-elems  max-diffs");
    let mut reductions = Vec::new();
    for bin_min in BIN_MINUTES {
        let bin = bin_min * 60;
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx.clone()))
            .collector(&collector)
            .interval(0, Some(horizon))
            .start();
        let mut rt = RtPlugin::new(&collector);
        run_pipeline(&mut stream, bin, &mut [&mut rt]);
        // Steady-state bins only: skip the first bin (initial RIB
        // materialisation).
        let steady: Vec<_> = rt.bin_series.iter().skip(1).collect();
        assert!(
            !steady.is_empty(),
            "{bin_min}-minute bins have no steady-state bin in {horizon} s"
        );
        let avg = |f: fn(&&bgpstream_repro::corsaro::RtBinStats) -> u64| {
            steady.iter().map(f).sum::<u64>() as f64 / steady.len() as f64
        };
        let avg_elems = avg(|b| b.elems);
        let avg_diffs = avg(|b| b.diff_cells);
        let max_elems = steady.iter().map(|b| b.elems).max().unwrap();
        let max_diffs = steady.iter().map(|b| b.diff_cells).max().unwrap();
        let reduction = avg_elems / avg_diffs.max(0.001);
        reductions.push((bin_min, reduction));
        println!(
            "{bin_min:8} {avg_elems:11.1} {avg_diffs:10.1} {reduction:9.1}x {max_elems:11} {max_diffs:10}"
        );
    }
    let (first, last) = (reductions[0], reductions[reductions.len() - 1]);
    println!(
        "\nreduction factor grows with bin size: {:.1}x @ {} min -> {:.1}x @ {} min",
        first.1, first.0, last.1, last.0
    );
    println!("paper: >3x @ 1 min -> ~13x @ 60 min (route-views2, March 2016)");
    assert!(
        last.1 > first.1,
        "reduction factor must increase with bin size"
    );
    std::fs::remove_dir_all(&dir).ok();
}
