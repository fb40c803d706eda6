//! Integration test for the §6.1 stateless tagging class over a
//! simulated archive: classifier + geo taggers feed a tag counter and
//! a tag-gated plugin, all plain plugins in one `run_pipeline` pass.

use std::collections::BTreeMap;
use std::sync::Arc;

use bgpstream_repro::bgpstream::{BgpStream, BgpStreamRecord};
use bgpstream_repro::broker::{DumpType, LocalBroker};
use bgpstream_repro::corsaro::pipeline::Plugin;
use bgpstream_repro::corsaro::run_pipeline;
use bgpstream_repro::corsaro::tag::{
    ClassifierTagger, GeoTagger, TagCounter, Tagged, Tagger, TAG_ANNOUNCE, TAG_RIB, TAG_UPDATES,
    TAG_V4,
};
use bgpstream_repro::worlds;

/// Counts records and asserts they are all Updates records.
struct UpdatesOnly(u64);

impl Plugin for UpdatesOnly {
    fn name(&self) -> &'static str {
        "updates-only"
    }
    fn process_record(&mut self, record: &BgpStreamRecord) {
        assert_eq!(record.dump_type(), DumpType::Updates);
        self.0 += 1;
    }
    fn end_bin(&mut self, _s: u64, _e: u64) {}
}

#[test]
fn tagged_pipeline_over_simulated_archive() {
    let dir = worlds::scratch_dir("tagged_monitoring");
    let mut world = worlds::quickstart(dir.clone(), 99);
    world.sim.run_until(world.info.horizon);

    // Geo map from topology ground truth.
    let topo = world.sim.control_plane().topology().clone();
    let geo = GeoTagger::new(topo.nodes.iter().map(|n| (n.asn, n.country)));
    assert!(!geo.is_empty());
    let taggers: Arc<[Box<dyn Tagger>]> =
        Arc::new([Box::new(ClassifierTagger) as Box<dyn Tagger>, Box::new(geo)]);

    let mut stream = BgpStream::builder()
        .broker_client(LocalBroker::shared(world.index.clone()))
        .interval(0, Some(world.info.horizon))
        .start();
    let mut counter = TagCounter::new(taggers.clone());
    let mut gate = Tagged::new(taggers, TAG_UPDATES, UpdatesOnly(0));
    let records = run_pipeline(&mut stream, 300, &mut [&mut counter, &mut gate]);
    assert!(records > 0, "no records in archive");
    assert!(!counter.rows().is_empty());

    // Aggregate across bins.
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for (_bin, row) in counter.rows() {
        for (tag, n) in row {
            *totals.entry(tag.clone()).or_insert(0) += n;
        }
    }
    let total = |tag: &str| totals.get(tag).copied().unwrap_or(0);
    // The archive contains both dump types and both record classes.
    assert!(total(TAG_RIB) > 0, "no rib tags: {totals:?}");
    assert!(total(TAG_UPDATES) > 0, "no updates tags");
    assert!(total(TAG_ANNOUNCE) > 0, "no announce tags");
    assert!(total(TAG_V4) > 0, "no v4 tags");
    // Geo tags resolve for announced prefixes.
    let geo_total: u64 = totals
        .iter()
        .filter(|(t, _)| t.starts_with("geo:"))
        .map(|(_, n)| *n)
        .sum();
    assert!(geo_total > 0, "no geo tags: {totals:?}");
    // Tag counts are internally consistent: every record is rib xor
    // updates, so the two together equal the record count.
    assert_eq!(total(TAG_RIB) + total(TAG_UPDATES), records);
    // The gate scoped its plugin to exactly the Updates records.
    assert_eq!(gate.inner().0, total(TAG_UPDATES));

    std::fs::remove_dir_all(&dir).ok();
}
