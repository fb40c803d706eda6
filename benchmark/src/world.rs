//! Worlds: the inputs of every workload, generated from `--seed`.
//!
//! A world is a directory holding a gzip-compressed MRT archive in the
//! projects' layout, its `manifest.csv`, and `world.txt` with the few
//! facts the measured process cannot read off the files (which prefix
//! to filter on, which ranges to monitor) plus the reference values its
//! outputs are checked against. The harness process generates it with
//! `topology` + `collector-sim`; the measured process only ever loads
//! it, so it sees what a user of the archive would see.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bgpstream_repro::broker::index::DumpMeta;
use bgpstream_repro::broker::interface::{parse_csv_manifest, to_csv_manifest};
use bgpstream_repro::collector_sim::{
    CollectorSpec, SimConfig, Simulator, VpSpec, RIS, ROUTEVIEWS,
};
use bgpstream_repro::prelude::{Asn, Index, Prefix};
use bgpstream_repro::topology::control::ControlPlane;
use bgpstream_repro::topology::events::Scenario;
use bgpstream_repro::topology::gen::{generate, TopologyConfig};

use crate::deflate;

/// Shape of a world; everything else follows from the seed.
pub struct WorldSpec {
    pub name: &'static str,
    pub n_tier1: usize,
    pub n_transit: usize,
    pub n_edge: usize,
    /// RIS and RouteViews collectors, each with `vps_each` vantage
    /// points of which `full_feed_each` export their whole table.
    pub n_ris: usize,
    pub n_rv: usize,
    pub vps_each: usize,
    pub full_feed_each: usize,
    /// Virtual seconds simulated.
    pub horizon: u64,
    /// Origins whose first prefix flaps for the whole horizon, one
    /// withdraw/announce cycle every `flap_period` seconds.
    pub flap_origins: usize,
    pub flap_period: u64,
}

pub const W8: WorldSpec = WorldSpec {
    name: "W8",
    n_tier1: 8,
    n_transit: 120,
    n_edge: 1500,
    n_ris: 2,
    n_rv: 2,
    vps_each: 6,
    full_feed_each: 5,
    horizon: 8 * 3600,
    flap_origins: 200,
    flap_period: 1800,
};

/// Seconds to build and to run; what `cargo test` uses.
pub const SMOKE: WorldSpec = WorldSpec {
    name: "smoke",
    n_tier1: 3,
    n_transit: 8,
    n_edge: 30,
    n_ris: 1,
    n_rv: 1,
    vps_each: 4,
    full_feed_each: 3,
    horizon: 3600,
    flap_origins: 8,
    flap_period: 600,
};

pub fn spec(name: &str) -> Option<&'static WorldSpec> {
    [&W8, &SMOKE].into_iter().find(|s| s.name == name)
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `h`.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// splitmix64: the benchmark's own seeded choices (VP placement, query
/// mixes) must not move when a crate changes how it draws numbers.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What the measured process is told about its world.
pub struct World {
    pub name: String,
    pub seed: u64,
    pub dir: PathBuf,
    pub horizon: u64,
    pub manifest: Vec<DumpMeta>,
    pub collectors: Vec<String>,
    /// Prefix of one flapping origin: what `hist_filtered` asks for.
    pub filter_prefix: Prefix,
    /// The announced space in three disjoint parts, one `PfxMonitor` each.
    pub ranges: [Vec<Prefix>; 3],
    pub plain_bytes: u64,
    pub gz_bytes: u64,
    /// Reference values by name (see `reference.rs`).
    pub expect: BTreeMap<String, u64>,
}

impl World {
    /// A fresh broker index over the archive, everything published.
    pub fn index(&self) -> Arc<Index> {
        let index = Index::shared();
        for m in &self.manifest {
            index.register(m.clone());
        }
        index
    }

    /// FNV-1a over dump names and compressed sizes: two results are
    /// comparable only when this matches.
    pub fn workload_hash(&self) -> u64 {
        let mut h = FNV_SEED;
        for m in &self.manifest {
            let name = m.path.strip_prefix(&self.dir).unwrap_or(&m.path);
            fnv(&mut h, name.to_string_lossy().as_bytes());
            fnv(&mut h, &m.size.to_le_bytes());
        }
        h
    }

    /// Write `manifest.csv` and `world.txt` beside the archive.
    pub fn save(&self) -> std::io::Result<()> {
        std::fs::write(
            self.dir.join("manifest.csv"),
            to_csv_manifest(&self.manifest),
        )?;
        let join = |ps: &[Prefix]| {
            ps.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut s = String::new();
        s += &format!(
            "name {}\nseed {}\nhorizon {}\n",
            self.name, self.seed, self.horizon
        );
        s += &format!(
            "plain_bytes {}\ngz_bytes {}\n",
            self.plain_bytes, self.gz_bytes
        );
        s += &format!("filter_prefix {}\n", self.filter_prefix);
        for (k, r) in self.ranges.iter().enumerate() {
            s += &format!("ranges{k} {}\n", join(r));
        }
        for (k, v) in &self.expect {
            s += &format!("expect.{k} {v}\n");
        }
        std::fs::write(self.dir.join("world.txt"), s)
    }

    pub fn load(dir: &Path) -> Result<World, String> {
        let text = std::fs::read_to_string(dir.join("world.txt"))
            .map_err(|e| format!("{}: {e}", dir.join("world.txt").display()))?;
        let kv: BTreeMap<&str, &str> = text
            .lines()
            .filter_map(|l| l.split_once(' ').or(Some((l, ""))))
            .collect();
        let get = |k: &str| kv.get(k).copied().ok_or(format!("world.txt lacks {k}"));
        let num = |k: &str| -> Result<u64, String> {
            get(k)?.parse().map_err(|e| format!("world.txt {k}: {e}"))
        };
        let prefixes = |k: &str| -> Result<Vec<Prefix>, String> {
            get(k)?
                .split_whitespace()
                .map(|p| {
                    p.parse()
                        .map_err(|_| format!("world.txt {k}: bad prefix {p}"))
                })
                .collect()
        };
        let manifest = parse_csv_manifest(&dir.join("manifest.csv")).map_err(|e| e.to_string())?;
        let mut collectors: Vec<String> = manifest.iter().map(|m| m.collector.clone()).collect();
        collectors.sort();
        collectors.dedup();
        Ok(World {
            name: get("name")?.to_string(),
            seed: num("seed")?,
            dir: dir.to_path_buf(),
            horizon: num("horizon")?,
            manifest,
            collectors,
            filter_prefix: prefixes("filter_prefix")?
                .pop()
                .ok_or("world.txt: empty filter_prefix")?,
            ranges: [
                prefixes("ranges0")?,
                prefixes("ranges1")?,
                prefixes("ranges2")?,
            ],
            plain_bytes: num("plain_bytes")?,
            gz_bytes: num("gz_bytes")?,
            expect: kv
                .iter()
                .filter_map(|(k, v)| {
                    Some((k.strip_prefix("expect.")?.to_string(), v.parse().ok()?))
                })
                .collect(),
        })
    }
}

/// Generate the world of `spec` and `seed` into `dir` (created, must
/// not hold an older archive) and gzip it in place. `expect` is left
/// holding only `sim_records`; `reference::fill` adds the rest.
pub fn build(spec: &WorldSpec, seed: u64, dir: &Path) -> World {
    std::fs::create_dir_all(dir).expect("create world dir");
    let topo = Arc::new(generate(&TopologyConfig {
        seed,
        n_tier1: spec.n_tier1,
        n_transit: spec.n_transit,
        n_edge: spec.n_edge,
        ..TopologyConfig::default()
    }));
    let cp = ControlPlane::new(topo.clone(), u64::MAX);

    // Vantage points: distinct transit-capable ASes, a fixed number of
    // them full-feed per collector, so table sizes (and with them pass
    // times and RSS) do not swing with the seed's luck.
    let mut rng = Rng(seed);
    let mut pool = cp.transit_vp_candidates();
    let mut take_vps = |n: usize| -> Vec<VpSpec> {
        (0..n)
            .map(|k| VpSpec {
                asn: pool.swap_remove(rng.below(pool.len() as u64) as usize),
                full_feed: k < spec.full_feed_each,
            })
            .collect()
    };
    let mut specs = Vec::new();
    for k in 0..spec.n_ris {
        specs.push(CollectorSpec {
            name: format!("rrc{k:02}"),
            project: RIS,
            vps: take_vps(spec.vps_each),
        });
    }
    for k in 0..spec.n_rv {
        specs.push(CollectorSpec {
            name: format!("route-views{}", k + 2),
            project: ROUTEVIEWS,
            vps: take_vps(spec.vps_each),
        });
    }
    let mut collectors: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    collectors.sort(); // as `load` derives them from the manifest

    let mut cfg = SimConfig::new(dir);
    cfg.seed = seed;
    let mut sim = Simulator::new(cp, specs, cfg);

    // Steady churn over the whole horizon: every flapping origin
    // withdraws and re-announces its first prefix once per period,
    // starts staggered so bins carry similar update loads.
    let flappers: Vec<(Asn, Prefix)> = topo
        .nodes
        .iter()
        .filter(|n| n.tier == bgpstream_repro::topology::Tier::Edge)
        .filter_map(|n| Some((n.asn, n.prefixes_v4.first()?.prefix)))
        .take(spec.flap_origins)
        .collect();
    let mut scenario = Scenario::new();
    let cycles = (spec.horizon.saturating_sub(600) / spec.flap_period).max(1) as u32;
    for (k, (asn, prefix)) in flappers.iter().enumerate() {
        let start = 300 + (k as u64 * 37) % spec.flap_period;
        scenario.flap(start, cycles, spec.flap_period, *asn, *prefix);
    }
    sim.schedule(&scenario);
    sim.run_until(spec.horizon);

    // Compress every dump in place, as the projects publish them.
    let mut manifest = sim.manifest().to_vec();
    let (mut plain_bytes, mut gz_bytes) = (0, 0);
    for m in &mut manifest {
        let plain = std::fs::read(&m.path).expect("archive file readable");
        let gz = deflate::gzip(&plain);
        plain_bytes += plain.len() as u64;
        gz_bytes += gz.len() as u64;
        m.size = gz.len() as u64;
        std::fs::write(&m.path, gz).expect("rewrite compressed file");
    }

    assert!(
        plain_bytes < (1 << 20) || gz_bytes * 4 <= plain_bytes,
        "archive compressed {plain_bytes} -> {gz_bytes}: below the 4x real archives reach"
    );

    let mut announced: Vec<Prefix> = topo
        .nodes
        .iter()
        .flat_map(|n| n.prefixes_v4.iter().chain(&n.prefixes_v6))
        .map(|p| p.prefix)
        .collect();
    announced.sort_unstable();
    let third = announced.len().div_ceil(3).max(1);
    let mut parts = announced.chunks(third).map(<[Prefix]>::to_vec);
    let ranges = [
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    ];

    World {
        name: spec.name.to_string(),
        seed,
        dir: dir.to_path_buf(),
        horizon: spec.horizon,
        manifest,
        collectors,
        filter_prefix: flappers.first().expect("a flapping origin").1,
        ranges,
        plain_bytes,
        gz_bytes,
        expect: BTreeMap::from([("sim_records".to_string(), sim.stats().records)]),
    }
}
