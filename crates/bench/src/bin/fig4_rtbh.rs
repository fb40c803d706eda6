//! Figure 4 — data-plane reachability of black-holed destinations
//! during vs after RTBH.
//!
//! For every detected black-holed prefix, emulated traceroutes run
//! from ~50 probe ASes during the RTBH episode and again after it.
//! 4a: fraction of traceroutes reaching each destination host.
//! 4b: fraction reaching the destination's origin AS.
//! Paper shape: during RTBH most destinations are reached by <5 % of
//! probes (many by none), a minority is partially reachable via
//! customers/peers; after RTBH, the vast majority are reached by
//! ≥95 % of probes and origin-AS reachability recovers fully.

use bench::{header, scaled};
use bgpstream_repro::bgpstream::{BgpStream, CommunityFilter, ElemType};
use bgpstream_repro::broker::{DumpType, LocalBroker};
use bgpstream_repro::topology::dataplane::{select_probes, traceroute};
use bgpstream_repro::topology::{Event, EventKind};
use bgpstream_repro::worlds;

fn main() {
    header("Figure 4", "RTBH data-plane reachability (during vs after)");
    let dir = worlds::scratch_dir("fig4");
    let horizon = scaled(48 * 3600);
    // At least 8 episodes: at BENCH_SCALE=0.1 the scaled count (2)
    // leaves the collectors no black-holed prefix to detect.
    let episodes = scaled(24).max(8) as usize;
    let mut world = worlds::rtbh_scenario(dir.clone(), 4, horizon, episodes);
    println!("scripted RTBH episodes: {}", world.info.rtbh.len());
    world.sim.run_until(horizon);

    // Detection stream: any `*:666` community (§4.3's first stream).
    let mut bh = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .record_type(DumpType::Updates)
        .filter_community(CommunityFilter::any_asn(666))
        .filter_elem_type(ElemType::Announcement)
        .interval(0, Some(horizon))
        .start();
    let mut detected = std::collections::BTreeSet::new();
    while let Some(rec) = bh.next_matching_record() {
        for e in rec.elems() {
            if let Some(p) = e.prefix {
                detected.insert(p);
            }
        }
    }
    println!(
        "black-holed prefixes detected at collectors: {} / {} scripted",
        detected.len(),
        world.info.rtbh.len()
    );

    // Measure each detected destination.
    let mut during_dest = Vec::new();
    let mut after_dest = Vec::new();
    let mut during_origin = Vec::new();
    let mut after_origin = Vec::new();
    for (_, _, origin, prefix) in world.info.rtbh.clone() {
        if !detected.contains(&prefix) {
            continue;
        }
        let cp = world.sim.control_plane();
        let probes = select_probes(cp, origin, 25);
        cp.apply(&Event::at(
            cp.time() + 1,
            EventKind::StartRtbh { origin, prefix },
        ));
        let during: Vec<_> = probes
            .iter()
            .filter_map(|p| traceroute(cp, *p, &prefix))
            .collect();
        cp.apply(&Event::at(
            cp.time() + 1,
            EventKind::EndRtbh { origin, prefix },
        ));
        let after: Vec<_> = probes
            .iter()
            .filter_map(|p| traceroute(cp, *p, &prefix))
            .collect();
        let frac = |v: &[_], f: fn(&bgpstream_repro::topology::dataplane::TraceResult) -> bool| {
            let v: &[bgpstream_repro::topology::dataplane::TraceResult] = v;
            if v.is_empty() {
                0.0
            } else {
                v.iter().filter(|r| f(r)).count() as f64 / v.len() as f64
            }
        };
        during_dest.push(frac(&during, |r| r.reached_dest));
        after_dest.push(frac(&after, |r| r.reached_dest));
        during_origin.push(frac(&during, |r| r.reached_origin));
        after_origin.push(frac(&after, |r| r.reached_origin));
    }

    let band = |v: &[f64], lo: f64, hi: f64| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().filter(|x| **x >= lo && **x < hi).count() as f64 * 100.0 / v.len() as f64
        }
    };
    println!("\n--- Figure 4a: fraction of traceroutes reaching each destination ---");
    println!("                         during-RTBH   after-RTBH   (paper during/after)");
    println!(
        "never reached (0%):      {:10.0}% {:11.0}%   (73% / ~0%)",
        band(&during_dest, 0.0, 0.0001),
        band(&after_dest, 0.0, 0.0001)
    );
    println!(
        "reached by <5%:          {:10.0}% {:11.0}%   (77% / ~0%)",
        band(&during_dest, 0.0, 0.05),
        band(&after_dest, 0.0, 0.05)
    );
    println!(
        "partially (20-80%):      {:10.0}% {:11.0}%   (13% / small)",
        band(&during_dest, 0.2, 0.8),
        band(&after_dest, 0.2, 0.8)
    );
    println!(
        "reached by >=95%:        {:10.0}% {:11.0}%   (rare / 83%)",
        band(&during_dest, 0.95, 1.1),
        band(&after_dest, 0.95, 1.1)
    );
    println!("\n--- Figure 4b: fraction reaching the origin AS ---");
    println!(
        "low origin reach (<=40%): {:9.0}% {:11.0}%   (majority / rare)",
        band(&during_origin, 0.0, 0.4001),
        band(&after_origin, 0.0, 0.4001)
    );
    println!(
        "full origin reach (100%): {:9.0}% {:11.0}%   (rare / vast majority)",
        band(&during_origin, 0.9999, 1.1),
        band(&after_origin, 0.9999, 1.1)
    );

    // The paper's shape, asserted.
    assert!(
        !after_dest.is_empty(),
        "no black-holed destination measured"
    );
    for (i, (during, after)) in during_dest.iter().zip(&after_dest).enumerate() {
        assert!(
            after >= during,
            "destination {i} reached by fewer probes after RTBH ({after:.2}) than during ({during:.2})"
        );
    }
    let recovered = band(&after_dest, 0.95, 1.1);
    assert!(
        recovered > 50.0,
        "only {recovered:.0}% of destinations reached by >=95% of probes after RTBH"
    );
    std::fs::remove_dir_all(&dir).ok();
}
