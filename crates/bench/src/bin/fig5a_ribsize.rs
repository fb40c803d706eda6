//! Figure 5a — growth of the IPv4 routing table in VPs over time.
//!
//! Longitudinal analysis over monthly RIB snapshots: per-VP table
//! sizes, the partial-feed skew, and the paper's full-feed definition
//! (within 20 percentage points of the per-bin maximum). Also reports
//! archive volume (the §2 ">2 TB of compressed data in 2015" claim,
//! scaled).

use bench::{header, scaled, sparkline};
use bgpstream_repro::analytics::{full_feed_vps, rib_partitions, rib_size_per_vp};
use bgpstream_repro::worlds;

fn main() {
    header(
        "Figure 5a",
        "IPv4 routing-table growth per VP; full- vs partial-feed",
    );
    let dir = worlds::scratch_dir("fig5a");
    let months = scaled(60) as u32;
    let step = 6u32.min(months.max(1));
    let (world, times) = worlds::longitudinal(dir.clone(), 5, months, step, None);
    println!(
        "{} collectors, {} RIB snapshots, archive bytes written: {}",
        world.collectors.len(),
        times.len() * world.collectors.len(),
        world.sim.stats().bytes
    );

    let parts = rib_partitions(&world.index, 0, *times.last().unwrap());
    let sizes = rib_size_per_vp(&world.index, &parts, 8);
    let feeds = full_feed_vps(&sizes);

    println!("\n  time      VPs   min    p50    max    mean   full-feed");
    let mut means = Vec::new();
    for &t in &times {
        let mut at: Vec<usize> = sizes
            .iter()
            .filter(|p| p.time == t)
            .map(|p| p.prefixes_v4)
            .collect();
        at.sort_unstable();
        if at.is_empty() {
            continue;
        }
        let full = feeds.iter().filter(|(ft, _, is)| *ft == t && *is).count();
        let mean = at.iter().sum::<usize>() / at.len();
        means.push(mean as u64);
        println!(
            "{t:8} {:6} {:6} {:6} {:6} {:7}   {}/{}",
            at.len(),
            at[0],
            at[at.len() / 2],
            at[at.len() - 1],
            mean,
            full,
            at.len()
        );
    }
    println!("\nmean table size over time: {}", sparkline(&means));
    let growth = *means.last().unwrap_or(&1) as f64 / (*means.first().unwrap_or(&1)).max(1) as f64;
    println!("growth factor over the span: {growth:.1}x (paper: ~5x over 2001-2016)");
    let last = *times.last().unwrap();
    let mut at_last: Vec<usize> = sizes
        .iter()
        .filter(|p| p.time == last)
        .map(|p| p.prefixes_v4)
        .collect();
    at_last.sort_unstable();
    let (mean, median) = (
        at_last.iter().sum::<usize>() / at_last.len().max(1),
        at_last.get(at_last.len() / 2).copied().unwrap_or(0),
    );
    let full = feeds.iter().filter(|(t, _, is)| *t == last && *is).count();
    println!("paper shape: numerous partial-feed VPs skew the distribution downward");
    println!("(last snapshot: mean {mean}, median {median}). The paper also finds only a");
    println!(
        "minority of VPs full-feed; this world has {full}/{} full-feed, a majority.",
        at_last.len()
    );
    // The tables grow several-fold over the span.
    assert!(growth >= 4.0, "mean table grows >= 4x: {growth:.1}x");
    // Partial-feed VPs pull the mean below the median.
    assert!(mean < median, "mean {mean} below median {median}");
    std::fs::remove_dir_all(&dir).ok();
}
