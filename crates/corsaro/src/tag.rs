//! Stateless classification/tagging (§6.1).
//!
//! The paper's BGPCorsaro pipeline distinguishes *stateless* plugins —
//! "performing classification and tagging of BGP records; plugins
//! following in the pipeline can use such tags to inform their
//! processing" — from stateful aggregators. Tags are a pure function
//! of the record, so a plugin that wants them computes them with
//! [`tag_record`], under the one [`Plugin`] contract every runner
//! drives.
//!
//! * [`TagSet`] — the tags of one record;
//! * [`Tagger`] — the stateless classifier interface;
//! * [`ClassifierTagger`] — protocol-level tags (dump type, address
//!   family, black-holing communities, private ASNs, session state);
//! * [`GeoTagger`] — origin-AS → country tags from a configurable map;
//! * [`Tagged`] — gates any plugin on a tag, under every runner;
//! * [`TagCounter`] — a stateful plugin producing per-bin
//!   tag-frequency series.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bgp_types::{Asn, BLACKHOLE_VALUE};
use bgpstream::{BgpStreamRecord, ElemType};
use broker::DumpType;

use crate::pipeline::{Partitioning, Plugin};
use crate::runtime::ShardedPlugin;

/// The tags of one record. Tags are short strings; well-known ones are
/// defined as constants here, taggers may add their own.
pub type TagSet = BTreeSet<String>;

/// Record came from a RIB dump.
pub const TAG_RIB: &str = "rib";
/// Record came from an Updates dump.
pub const TAG_UPDATES: &str = "updates";
/// Record carries at least one announcement elem.
pub const TAG_ANNOUNCE: &str = "announce";
/// Record carries at least one withdrawal elem.
pub const TAG_WITHDRAW: &str = "withdraw";
/// Record carries a session state-change elem.
pub const TAG_STATE: &str = "state-change";
/// At least one elem carries a `*:666` black-holing community.
pub const TAG_BLACKHOLE: &str = "blackhole";
/// At least one AS path contains a private-use ASN.
pub const TAG_PRIVATE_ASN: &str = "private-asn";
/// At least one elem has an IPv4 prefix.
pub const TAG_V4: &str = "v4";
/// At least one elem has an IPv6 prefix.
pub const TAG_V6: &str = "v6";
/// The record is marked not-valid.
pub const TAG_NOT_VALID: &str = "not-valid";

/// A stateless classifier: inspects a record, adds tags. Shared by
/// every shard of a sharded run, hence `Send + Sync`.
pub trait Tagger: Send + Sync {
    /// Add tags for `record` to `tags`.
    fn tag(&self, record: &BgpStreamRecord, tags: &mut TagSet);
}

/// The tags `taggers` give `record`.
pub fn tag_record(taggers: &[Box<dyn Tagger>], record: &BgpStreamRecord) -> TagSet {
    let mut tags = TagSet::new();
    for t in taggers {
        t.tag(record, &mut tags);
    }
    tags
}

/// Protocol-level classification: dump type, elem types, address
/// family, black-holing communities, private ASNs, validity.
#[derive(Default)]
pub struct ClassifierTagger;

impl Tagger for ClassifierTagger {
    fn tag(&self, record: &BgpStreamRecord, tags: &mut TagSet) {
        let mut add = |tag: &str| {
            tags.insert(tag.to_string());
        };
        add(match record.dump_type() {
            DumpType::Rib => TAG_RIB,
            DumpType::Updates => TAG_UPDATES,
        });
        if !record.status.is_valid() {
            add(TAG_NOT_VALID);
        }
        for elem in record.elems() {
            match elem.elem_type {
                ElemType::Announcement => add(TAG_ANNOUNCE),
                ElemType::Withdrawal => add(TAG_WITHDRAW),
                ElemType::PeerState => add(TAG_STATE),
                ElemType::RibEntry => {}
            }
            if let Some(p) = &elem.prefix {
                add(if p.is_ipv4() { TAG_V4 } else { TAG_V6 });
            }
            if let Some(cs) = &elem.communities {
                if cs.iter().any(|c| c.value == BLACKHOLE_VALUE) {
                    add(TAG_BLACKHOLE);
                }
            }
            if let Some(path) = &elem.as_path {
                if path.asns().any(|a| a.is_private()) {
                    add(TAG_PRIVATE_ASN);
                }
            }
        }
    }
}

/// Tags records with the origin AS's country (`geo:XX`), from a
/// configurable origin→country map (ground truth in the simulator,
/// a geolocation database in a real deployment).
pub struct GeoTagger {
    origins: BTreeMap<Asn, [u8; 2]>,
}

impl GeoTagger {
    /// Build from `(origin ASN, country)` pairs.
    pub fn new(pairs: impl IntoIterator<Item = (Asn, [u8; 2])>) -> Self {
        GeoTagger {
            origins: pairs.into_iter().collect(),
        }
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }
}

impl Tagger for GeoTagger {
    fn tag(&self, record: &BgpStreamRecord, tags: &mut TagSet) {
        for elem in record.elems() {
            if let Some(cc) = elem.origin_asn().and_then(|o| self.origins.get(&o)) {
                tags.insert(format!("geo:{}", String::from_utf8_lossy(cc)));
            }
        }
    }
}

/// Gates a plugin on a tag: the inner plugin receives only records
/// that `taggers` give `required`; everything else — bins, partitioning,
/// checkpoints, forks, partials and merges — is the inner plugin's.
///
/// Under the sharded runtime every shard tags the whole record before
/// the elem mask applies, so all shards take the same gate decision
/// and the merged output equals the sequential one.
pub struct Tagged<P> {
    taggers: Arc<[Box<dyn Tagger>]>,
    required: String,
    inner: P,
}

impl<P> Tagged<P> {
    /// Forward to `inner` only the records tagged `required`.
    pub fn new(taggers: Arc<[Box<dyn Tagger>]>, required: &str, inner: P) -> Self {
        Tagged {
            taggers,
            required: required.to_string(),
            inner,
        }
    }

    /// The wrapped plugin.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn passes(&self, record: &BgpStreamRecord) -> bool {
        tag_record(&self.taggers, record).contains(&self.required)
    }
}

impl<P: Plugin> Plugin for Tagged<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        if self.passes(record) {
            self.inner.process_record(record);
        }
    }

    fn end_bin(&mut self, bin_start: u64, bin_end: u64) {
        self.inner.end_bin(bin_start, bin_end);
    }

    fn partitioning(&self) -> Partitioning {
        self.inner.partitioning()
    }

    fn checkpoint(&self) -> Vec<u8> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore(bytes)
    }
}

impl<P: ShardedPlugin> ShardedPlugin for Tagged<P> {
    fn fork(&self, shard: usize, shards: usize) -> Box<dyn ShardedPlugin> {
        Box::new(Tagged {
            taggers: self.taggers.clone(),
            required: self.required.clone(),
            inner: self.inner.fork(shard, shards),
        })
    }

    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        if self.passes(record) {
            self.inner.process_sharded(record, mask);
        }
    }

    fn take_partial(&mut self) -> Vec<u8> {
        self.inner.take_partial()
    }

    fn merge_bin(&mut self, bin_start: u64, bin_end: u64, partials: Vec<Vec<u8>>) {
        self.inner.merge_bin(bin_start, bin_end, partials);
    }
}

/// Per-bin tag frequencies: one `(bin_start, tag → records)` row per
/// closed bin.
pub struct TagCounter {
    taggers: Arc<[Box<dyn Tagger>]>,
    current: BTreeMap<String, u64>,
    rows: Vec<(u64, BTreeMap<String, u64>)>,
}

impl TagCounter {
    /// Count the tags `taggers` give each record.
    pub fn new(taggers: Arc<[Box<dyn Tagger>]>) -> Self {
        TagCounter {
            taggers,
            current: BTreeMap::new(),
            rows: Vec::new(),
        }
    }

    /// Closed rows so far.
    pub fn rows(&self) -> &[(u64, BTreeMap<String, u64>)] {
        &self.rows
    }
}

impl Plugin for TagCounter {
    fn name(&self) -> &'static str {
        "tag-counter"
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        for t in tag_record(&self.taggers, record) {
            *self.current.entry(t).or_insert(0) += 1;
        }
    }

    fn end_bin(&mut self, bin_start: u64, _bin_end: u64) {
        self.rows
            .push((bin_start, std::mem::take(&mut self.current)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Community, CommunitySet};
    use bgpstream::record::{DumpPosition, RecordStatus};
    use bgpstream::BgpStreamElem;

    fn elem(prefix: &str, path: &[u32], comms: &[(u16, u16)]) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: 0,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(path[0]),
            prefix: Some(prefix.parse().unwrap()),
            next_hop: Some("192.0.2.1".parse().unwrap()),
            as_path: Some(AsPath::from_sequence(path.iter().copied())),
            communities: Some(CommunitySet::from_iter(
                comms.iter().map(|&(a, v)| Community::new(a, v)),
            )),
            old_state: None,
            new_state: None,
        }
    }

    fn record(ty: DumpType, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
        BgpStreamRecord::new(
            "ris",
            "rrc00",
            ty,
            0,
            0,
            DumpPosition::Middle,
            RecordStatus::Valid,
            elems,
        )
    }

    fn classifier() -> Arc<[Box<dyn Tagger>]> {
        Arc::new([Box::new(ClassifierTagger) as Box<dyn Tagger>])
    }

    #[test]
    fn classifier_tags_protocol_features() {
        let rec = record(
            DumpType::Updates,
            vec![elem("10.0.0.0/8", &[65001, 3356, 137], &[(3356, 666)])],
        );
        let tags = tag_record(&classifier(), &rec);
        assert!(tags.contains(TAG_UPDATES));
        assert!(tags.contains(TAG_ANNOUNCE));
        assert!(tags.contains(TAG_BLACKHOLE));
        assert!(tags.contains(TAG_V4));
        assert!(tags.contains(TAG_PRIVATE_ASN), "65001 is private");
        assert!(!tags.contains(TAG_RIB));
        assert!(!tags.contains(TAG_V6));
        assert!(!tags.contains(TAG_STATE));
    }

    #[test]
    fn classifier_tags_v6_and_rib() {
        let rec = record(
            DumpType::Rib,
            vec![{
                let mut e = elem("10.0.0.0/8", &[9, 137], &[]);
                e.elem_type = ElemType::RibEntry;
                e.prefix = Some("2001:db8::/32".parse().unwrap());
                e
            }],
        );
        let tags = tag_record(&classifier(), &rec);
        assert!(tags.contains(TAG_RIB));
        assert!(tags.contains(TAG_V6));
        assert!(!tags.contains(TAG_ANNOUNCE));
        assert!(!tags.contains(TAG_PRIVATE_ASN));
    }

    #[test]
    fn geo_tagger_maps_origins() {
        let g = GeoTagger::new([(Asn(137), *b"IT"), (Asn(9), *b"AU")]);
        let rec = record(
            DumpType::Updates,
            vec![elem("10.0.0.0/8", &[1, 3356, 137], &[])],
        );
        let mut tags = TagSet::new();
        g.tag(&rec, &mut tags);
        assert_eq!(tags.into_iter().collect::<Vec<_>>(), vec!["geo:IT"]);
    }

    /// Minimal inner plugin counting records it received.
    struct Count(u64);
    impl Plugin for Count {
        fn name(&self) -> &'static str {
            "count"
        }
        fn process_record(&mut self, _r: &BgpStreamRecord) {
            self.0 += 1;
        }
        fn end_bin(&mut self, _s: u64, _e: u64) {}
    }

    #[test]
    fn tag_gate_filters_on_required_tag() {
        let mut gate = Tagged::new(classifier(), TAG_BLACKHOLE, Count(0));
        let bh = record(
            DumpType::Updates,
            vec![elem("10.0.0.0/8", &[1, 2], &[(3356, 666)])],
        );
        let plain = record(DumpType::Updates, vec![elem("10.0.0.0/8", &[1, 2], &[])]);
        gate.process_record(&bh);
        gate.process_record(&plain);
        assert_eq!(gate.inner().0, 1);
    }

    #[test]
    fn tag_counter_rows_per_bin() {
        let mut c = TagCounter::new(classifier());
        let rec = record(DumpType::Updates, vec![elem("10.0.0.0/8", &[1, 2], &[])]);
        c.process_record(&rec);
        c.process_record(&rec);
        c.end_bin(0, 60);
        c.process_record(&rec);
        c.end_bin(60, 120);
        assert_eq!(c.rows().len(), 2);
        assert_eq!(c.rows()[0].1[TAG_UPDATES], 2);
        assert_eq!(c.rows()[1].1[TAG_ANNOUNCE], 1);
    }
}
