//! Router-direct monitoring over BMP (RFC 7854) — the paper's §7
//! roadmap item ("adding native support for OpenBMP will enable
//! processing of streams sourced directly from BGP routers").
//!
//! A simulated edge router exports its BGP activity as a BMP byte
//! stream; an OpenBMP-style monitoring station bridges each message to
//! the MRT record a route collector would have produced; the bridged
//! file is then consumed through libBGPStream with a filter-language
//! expression — no collector in the loop.
//!
//! ```sh
//! cargo run --example bmp_router_feed
//! ```

use std::net::IpAddr;

use bgpstream_repro::bgp_types::{AsPath, Asn, BgpUpdate, PathAttributes, Prefix};
use bgpstream_repro::bgpstream::{ascii, BgpStream};
use bgpstream_repro::bmp::{
    station::MonitoringStation, BmpReader, PeerDownReason, RouterExporter, StationEvent,
    TerminationReason,
};
use bgpstream_repro::broker::{DataInterface, DumpType};
use bgpstream_repro::mrt::MrtWriter;

fn announce(prefixes: &[&str], path: &[u32]) -> BgpUpdate {
    BgpUpdate::announce(
        prefixes
            .iter()
            .map(|s| s.parse::<Prefix>().unwrap())
            .collect(),
        PathAttributes::route(
            AsPath::from_sequence(path.iter().copied()),
            "192.0.2.1".parse().unwrap(),
        ),
    )
}

fn main() {
    // ---- Router side -------------------------------------------------
    let peer1: IpAddr = "192.0.2.1".parse().unwrap();
    let peer2: IpAddr = "192.0.2.2".parse().unwrap();
    let mut router = RouterExporter::new(
        Vec::new(),
        "edge1.milan",
        "192.0.2.254".parse().unwrap(),
        Asn(137),
    );
    router.initiate("simulated JunOS 23.1 / BMP v3").unwrap();
    router.peer_up(peer1, Asn(3356), 1, 1000).unwrap();
    router.peer_up(peer2, Asn(174), 2, 1001).unwrap();
    // A morning of routing activity, as the router's Adj-RIBs-In see it.
    router
        .route_monitoring(
            peer1,
            Asn(3356),
            1,
            1010,
            announce(&["203.0.113.0/24"], &[3356, 44]),
        )
        .unwrap();
    router
        .route_monitoring(
            peer2,
            Asn(174),
            2,
            1030,
            announce(&["198.51.100.0/24", "198.51.100.128/25"], &[174, 9, 44]),
        )
        .unwrap();
    router.stats_report(peer1, Asn(3356), 1, 1060).unwrap();
    router
        .route_monitoring(
            peer1,
            Asn(3356),
            1,
            1090,
            BgpUpdate::withdraw(vec!["203.0.113.0/24".parse().unwrap()]),
        )
        .unwrap();
    router
        .peer_down(peer2, Asn(174), 2, 1120, PeerDownReason::RemoteNoData)
        .unwrap();
    router.terminate(TerminationReason::AdminClose).unwrap();
    let wire = router.into_inner();
    println!(
        "# router exported {} BMP messages ({} bytes)",
        router_msgs(&wire),
        wire.len()
    );

    // ---- Station side ------------------------------------------------
    let mut station = MonitoringStation::new(Asn(64512), "192.0.2.254".parse().unwrap());
    let mut bridged = Vec::new();
    for msg in BmpReader::new(&wire[..]) {
        let msg = msg.expect("well-formed stream");
        for ev in station.ingest(msg) {
            match ev {
                StationEvent::RouterUp {
                    sys_name,
                    sys_descr,
                } => println!(
                    "# router up: {} ({})",
                    sys_name.as_deref().unwrap_or("?"),
                    sys_descr.as_deref().unwrap_or("?")
                ),
                StationEvent::RouterDown(t) => println!("# router down: {:?}", t.reason),
                StationEvent::Stats {
                    peer_asn, stats, ..
                } => {
                    println!("# stats from AS{}: {} counters", peer_asn.0, stats.len())
                }
                StationEvent::Anomaly(a) => println!("# anomaly: {a}"),
                StationEvent::Record(rec) => bridged.push(rec),
            }
        }
    }
    println!("# station bridged {} MRT records", bridged.len());

    // ---- Into libBGPStream --------------------------------------------
    let dir = std::env::temp_dir().join(format!("bmp_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edge1.updates.1000.mrt");
    {
        let mut w = MrtWriter::new(std::fs::File::create(&path).unwrap());
        for r in &bridged {
            w.write(r).unwrap();
        }
    }
    let mut stream = BgpStream::builder()
        .data_interface(DataInterface::SingleFile {
            dump_type: DumpType::Updates,
            path,
            interval_start: 1000,
            duration: 300,
        })
        .interval(1000, Some(2000))
        .filter_string("elemtype announcements and prefix more 198.51.100.0/24")
        .expect("filter expression")
        .start();
    println!("# announcements under 198.51.100.0/24, router-direct:");
    while let Some(record) = stream.next_record() {
        for elem in record.elems() {
            println!("{}", ascii::elem_line(&record, elem));
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

fn router_msgs(wire: &[u8]) -> u64 {
    let (msgs, _) = BmpReader::new(wire).read_all();
    msgs.len() as u64
}
