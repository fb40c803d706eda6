//! Figure 5c — number of ASNs and fraction classified as transit
//! (appearing mid-path), for IPv4 and IPv6.
//!
//! Paper shape: IPv4 ASN count grows near-linearly while the transit
//! fraction stays constant (~16 % in 2016); IPv6 starts transit-heavy
//! and decays toward the IPv4 level as edge adoption catches up,
//! remaining higher (~21 % in 2016).

use bench::{header, scaled, sparkline};
use bgpstream_repro::analytics::{rib_partitions, transit_fraction};
use bgpstream_repro::worlds;

fn main() {
    header("Figure 5c", "transit-AS fraction, IPv4 vs IPv6");
    let dir = worlds::scratch_dir("fig5c");
    let months = scaled(60) as u32;
    let (world, times) =
        worlds::longitudinal(dir.clone(), 7, months, 6u32.min(months.max(1)), None);
    let parts = rib_partitions(&world.index, 0, *times.last().unwrap());
    let points = transit_fraction(&world.index, &parts, 8);

    println!("\n  time    v4-ASNs  v4-transit%   v6-ASNs  v6-transit%");
    let mut v4_asns = Vec::new();
    for p in &points {
        v4_asns.push(p.v4_asns as u64);
        println!(
            "{:8} {:8} {:11.1}% {:9} {:11.1}%",
            p.time,
            p.v4_asns,
            p.v4_transit_frac * 100.0,
            p.v6_asns,
            if p.v6_asns == 0 {
                0.0
            } else {
                p.v6_transit_frac * 100.0
            }
        );
    }
    println!("\nv4 ASN count over time: {}", sparkline(&v4_asns));
    let first = points.first().expect("snapshots");
    let last = points.last().expect("snapshots");
    println!(
        "\nv4 transit fraction drift: {:.1}% -> {:.1}% (paper: constant)",
        first.v4_transit_frac * 100.0,
        last.v4_transit_frac * 100.0
    );
    let v6: Vec<&bgpstream_repro::analytics::TransitPoint> =
        points.iter().filter(|p| p.v6_asns > 0).collect();
    assert!(v6.len() >= 2, "IPv6 ASNs appear in at least two snapshots");
    let (v6_first, v6_last) = (v6[0], v6[v6.len() - 1]);
    println!(
        "v6 transit fraction decay: {:.1}% -> {:.1}% (paper: decays, stays above v4)",
        v6_first.v6_transit_frac * 100.0,
        v6_last.v6_transit_frac * 100.0
    );
    println!(
        "final gap: v6 {:.1}% vs v4 {:.1}% (paper 2016: 21% vs 16%)",
        v6_last.v6_transit_frac * 100.0,
        last.v4_transit_frac * 100.0
    );
    // IPv4 ASN count grows; IPv6 starts transit-heavy, decays, and
    // stays above IPv4.
    assert!(
        last.v4_asns > first.v4_asns,
        "v4 ASNs grow: {} -> {}",
        first.v4_asns,
        last.v4_asns
    );
    assert!(
        v6_last.v6_transit_frac < v6_first.v6_transit_frac,
        "v6 transit share decays"
    );
    assert!(
        v6_last.v6_transit_frac > last.v4_transit_frac,
        "v6 transit share stays above v4's"
    );
    std::fs::remove_dir_all(&dir).ok();
}
