//! Figure 5d — BGP community diversity as observed by VPs.
//!
//! Paper shape: VPs differ widely in how many distinct community AS
//! identifiers they observe (en-route stripping); only ~83 % of VPs
//! observe communities at all; collector- and project-level
//! aggregation exposes which collectors see the most heterogeneous
//! community sets (the basis for choosing route-views2/RRC12 in §4.3).

use bench::{header, scaled};
use bgpstream_repro::analytics::{community_diversity, rib_partitions};
use bgpstream_repro::worlds;

fn main() {
    header(
        "Figure 5d",
        "community diversity per VP / collector / project",
    );
    let dir = worlds::scratch_dir("fig5d");
    let months = scaled(24) as u32;
    let (world, times) = worlds::longitudinal(dir.clone(), 8, months, months.max(1), None);
    let t = *times.last().unwrap();
    let parts: Vec<_> = rib_partitions(&world.index, t, t);
    let d = community_diversity(&world.index, &parts, 8);

    println!("\nunique communities observed: {}", d.unique_communities);
    println!(
        "VPs observing communities: {:.0}% (paper: ~83%)",
        d.vps_seeing_communities * 100.0
    );
    println!("\nper-VP distinct community AS identifiers (circle sizes in the paper's figure):");
    let mut per_vp: Vec<_> = d.per_vp.iter().collect();
    per_vp.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    for ((collector, peer), n) in per_vp.iter().take(15) {
        println!("  {collector:14} {peer:16} {n:6}");
    }
    println!("\nper-collector aggregation (grey circles):");
    let mut per_c: Vec<_> = d.per_collector.iter().collect();
    per_c.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    for (c, n) in &per_c {
        println!("  {c:14} {n:6}");
    }
    println!("\nper-project aggregation:");
    for (p, n) in &d.per_project {
        println!("  {p:14} {n:6}");
    }
    println!("\npaper shape: heavy skew across VPs; a few collectors dominate diversity.");

    // Some VPs observe communities and some observe none (en-route
    // stripping); the paper measures ~83 % observing any.
    assert!(
        d.vps_seeing_communities > 0.0 && d.vps_seeing_communities < 1.0,
        "some but not all VPs observe communities: {:.2}",
        d.vps_seeing_communities
    );
    // Among the VPs that observe any, diversity is heavily skewed: the
    // most diverse VP sees at least five times the distinct community
    // AS identifiers of the least diverse one.
    let seen: Vec<usize> = d.per_vp.values().copied().filter(|&n| n > 0).collect();
    let (most, least) = (seen.iter().max(), seen.iter().min());
    assert!(
        matches!((most, least), (Some(&most), Some(&least)) if most >= 5 * least),
        "per-VP community diversity is skewed: max {most:?}, min {least:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
