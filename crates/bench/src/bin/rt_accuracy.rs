//! §6.2.1 — RT plugin reconstruction accuracy: RIS vs RouteViews.
//!
//! The paper evaluates the RT plugin by periodically comparing the
//! reconstructed (main) cells against the shadow cells of each new RIB
//! dump: error probability = mismatching prefixes / all VPs' prefixes,
//! measured at 1e-8 for RIS and 1e-5 for RouteViews. The gap is caused
//! by "unresponsive VPs for which we do not have state messages
//! (e.g. RouteViews)". We reproduce the mechanism: VP sessions bounce
//! while prefixes are withdrawn behind their back; RIS collectors dump
//! state messages (the RT plugin resets the VP), RouteViews collectors
//! do not (the RT plugin carries stale entries to the next RIB).

use std::sync::Arc;

use bench::{header, scaled};
use bgpstream_repro::bgpstream::BgpStream;
use bgpstream_repro::broker::{Index, LocalBroker};
use bgpstream_repro::collector_sim::{
    CollectorSpec, SimConfig, Simulator, VpSpec, RIS, ROUTEVIEWS,
};
use bgpstream_repro::corsaro::{run_pipeline, RtPlugin};
use bgpstream_repro::topology::control::ControlPlane;
use bgpstream_repro::topology::events::{Event, EventKind, Scenario};
use bgpstream_repro::topology::gen::{generate, TopologyConfig};
use bgpstream_repro::worlds::scratch_dir;

fn main() {
    header("§6.2.1", "RT plugin error probability: RIS vs RouteViews");
    let dir = scratch_dir("rtacc");
    let cp = ControlPlane::new(
        Arc::new(generate(&TopologyConfig {
            seed: 12,
            ..TopologyConfig::default()
        })),
        u64::MAX,
    );
    // Same VPs behind one RIS and one RouteViews collector, so the
    // only difference is the state-message behaviour.
    let vps: Vec<VpSpec> = cp
        .transit_vp_candidates()
        .into_iter()
        .take(6)
        .map(|asn| VpSpec {
            asn,
            full_feed: true,
        })
        .collect();
    let specs = vec![
        CollectorSpec {
            name: "rrc00".into(),
            project: RIS,
            vps: vps.clone(),
        },
        CollectorSpec {
            name: "route-views2".into(),
            project: ROUTEVIEWS,
            vps: vps.clone(),
        },
    ];
    let mut sim = Simulator::new(cp, specs, SimConfig::new(&dir));
    let idx = Index::shared();
    sim.attach_index(idx.clone());

    // Scenario: repeated session bounces on one VP of each collector;
    // during each downtime some prefixes are withdrawn and stay
    // withdrawn past the next RIB dump. A RIS reconstruction is
    // cleared by the state messages; a RouteViews reconstruction
    // silently keeps the stale entries until the RIB comparison
    // exposes them. Bounce times avoid RIB dump instants so the
    // comparison itself is clean.
    // A bit over three RIS RIB periods. The accuracy check compares a
    // reconstruction against the next RIB dump, so each collector must
    // write two: floor the horizon at one RIS period (RouteViews dumps
    // four times as often) plus an hour of updates past the second.
    let horizon = scaled(26 * 3600).max(RIS.rib_period + 3600);
    let topo = sim.control_plane().topology().clone();
    let bounce_vp = vps[0].asn;
    let mut sc = Scenario::new();
    for (k, n) in topo
        .nodes
        .iter()
        .filter(|n| !n.prefixes_v4.is_empty())
        .take(60)
        .enumerate()
    {
        let k = k as u64;
        // Withdraw during the k-th bounce window; re-announce only
        // after RouteViews' *next* RIB (2 h cadence) has dumped.
        let bounce_start = 3000 + (k % 6) * 9000;
        sc.push(Event::at(
            bounce_start + 120,
            EventKind::Withdraw {
                origin: n.asn,
                prefix: n.prefixes_v4[0].prefix,
            },
        ));
        sc.push(Event::at(
            bounce_start + 4 * 3600,
            EventKind::Announce {
                origin: n.asn,
                prefix: n.prefixes_v4[0].prefix,
            },
        ));
    }
    sim.schedule(&sc);
    for b in 0..6u64 {
        let t = 3000 + b * 9000;
        sim.schedule_session_reset(t, 0, bounce_vp, 600);
        sim.schedule_session_reset(t, 1, bounce_vp, 600);
    }
    sim.run_until(horizon);

    let mut results = Vec::new();
    for collector in ["rrc00", "route-views2"] {
        let mut stream = BgpStream::builder()
            .broker_client(LocalBroker::shared(idx.clone()))
            .collector(collector)
            .interval(0, Some(horizon))
            .start();
        let mut rt = RtPlugin::new(collector);
        run_pipeline(&mut stream, 600, &mut [&mut rt]);
        results.push((collector, rt.error_stats));
    }

    println!("\ncollector        cells-checked  mismatched  error-probability  (paper)");
    for (c, e) in &results {
        let paper = if c.starts_with("rrc") { "1e-8" } else { "1e-5" };
        println!(
            "{c:16} {:13} {:11} {:18.2e}  ({paper})",
            e.cells_checked,
            e.cells_mismatched,
            e.error_probability()
        );
    }
    for (c, e) in &results {
        assert!(e.cells_checked > 0, "{c}: no RIB comparison in {horizon} s");
    }
    let ris = results[0].1.error_probability();
    let rv = results[1].1.error_probability();
    println!(
        "\nRouteViews/RIS error ratio: {:.1}x (paper: ~1000x — RIS dumps state messages, RouteViews does not)",
        rv / ris.max(1e-12)
    );
    assert!(
        rv > ris,
        "RouteViews must reconstruct less accurately than RIS"
    );
    std::fs::remove_dir_all(&dir).ok();
}
