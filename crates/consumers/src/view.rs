//! Reconstructing the global routing view from queued RT output.

use std::collections::{BTreeSet, HashMap, HashSet};

use bgp_types::{Asn, Prefix};
use corsaro::codec::RtMessage;
use mq::Cluster;

/// The `<prefix, VP>` matrix rebuilt from `Full` + `Diff` messages,
/// across collectors.
#[derive(Default)]
pub struct GlobalView {
    /// collector → (vp, prefix) → origin AS; every collector that
    /// delivered a message has a table, possibly empty.
    tables: HashMap<String, HashMap<(Asn, Prefix), Asn>>,
    /// Messages applied.
    applied: u64,
}

impl GlobalView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one RT message. `Full` messages resynchronise the whole
    /// collector table; `Diff` messages mutate it.
    pub fn apply(&mut self, msg: &RtMessage) {
        self.applied += 1;
        match msg {
            RtMessage::Full {
                collector, cells, ..
            } => {
                let table = self.tables.entry(collector.clone()).or_default();
                table.clear();
                for c in cells {
                    if let Some(origin) = c.path.as_ref().and_then(|p| p.origin()) {
                        table.insert((c.vp, c.prefix), origin);
                    }
                }
            }
            RtMessage::Diff {
                collector, cells, ..
            } => {
                let table = self.tables.entry(collector.clone()).or_default();
                for c in cells {
                    match c.path.as_ref().and_then(|p| p.origin()) {
                        Some(origin) => {
                            table.insert((c.vp, c.prefix), origin);
                        }
                        None => {
                            table.remove(&(c.vp, c.prefix));
                        }
                    }
                }
            }
        }
    }

    /// Drain new messages from the `rt.tables` topic for a consumer
    /// group, applying them in order; returns how many were applied.
    pub fn consume(&mut self, mq: &Cluster, group: &str) -> u64 {
        crate::drain_rt(mq, group, |m| self.apply(m))
    }

    /// Messages applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of `(collector, vp)` pairs with any routes.
    pub fn vp_count(&self) -> usize {
        let mut vps: HashSet<(String, Asn)> = HashSet::new();
        for (c, table) in &self.tables {
            for (vp, _) in table.keys() {
                vps.insert((c.clone(), *vp));
            }
        }
        vps.len()
    }

    /// How many VPs (across collectors) currently announce `prefix`.
    pub fn prefix_visibility(&self, prefix: &Prefix) -> usize {
        let mut vps: HashSet<(String, Asn)> = HashSet::new();
        for (c, table) in &self.tables {
            for ((vp, p), _) in table.iter() {
                if p == prefix {
                    vps.insert((c.clone(), *vp));
                }
            }
        }
        vps.len()
    }

    /// All origins observed for `prefix` across VPs and collectors.
    pub fn prefix_origins(&self, prefix: &Prefix) -> BTreeSet<Asn> {
        let mut out = BTreeSet::new();
        for table in self.tables.values() {
            for ((_, p), origin) in table.iter() {
                if p == prefix {
                    out.insert(*origin);
                }
            }
        }
        out
    }

    /// Iterate `(prefix, vp-visibility, origin set)` over every
    /// currently visible prefix.
    pub fn visible_prefixes(&self) -> Vec<(Prefix, usize, BTreeSet<Asn>)> {
        type Vis = HashMap<Prefix, (HashSet<(String, Asn)>, BTreeSet<Asn>)>;
        let mut vis: Vis = HashMap::new();
        for (c, table) in &self.tables {
            for ((vp, p), origin) in table.iter() {
                let e = vis.entry(*p).or_default();
                e.0.insert((c.clone(), *vp));
                e.1.insert(*origin);
            }
        }
        let mut out: Vec<(Prefix, usize, BTreeSet<Asn>)> = vis
            .into_iter()
            .map(|(p, (vps, origins))| (p, vps.len(), origins))
            .collect();
        out.sort_by_key(|(p, _, _)| *p);
        out
    }

    /// Per-collector per-prefix origins, for per-collector analyses.
    pub fn collector_prefix_origins(&self, collector: &str) -> HashMap<Prefix, BTreeSet<Asn>> {
        let mut out: HashMap<Prefix, BTreeSet<Asn>> = HashMap::new();
        if let Some(table) = self.tables.get(collector) {
            for ((_, p), origin) in table.iter() {
                out.entry(*p).or_default().insert(*origin);
            }
        }
        out
    }

    /// Collector names seen so far.
    pub fn collectors(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::AsPath;
    use corsaro::codec::DiffCell;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn cell(vp: u32, prefix: &str, origin: Option<u32>) -> DiffCell {
        DiffCell {
            vp: Asn(vp),
            prefix: p(prefix),
            path: origin.map(|o| AsPath::from_sequence([vp, 3356, o])),
        }
    }

    #[test]
    fn full_then_diff_rebuilds_table() {
        let mut v = GlobalView::new();
        v.apply(&RtMessage::Full {
            collector: "rrc00".into(),
            bin: 0,
            cells: vec![
                cell(1, "10.0.0.0/8", Some(137)),
                cell(2, "10.0.0.0/8", Some(137)),
            ],
        });
        assert_eq!(v.prefix_visibility(&p("10.0.0.0/8")), 2);
        // Diff: vp 2 withdraws; vp 1 reroutes to another origin.
        v.apply(&RtMessage::Diff {
            collector: "rrc00".into(),
            bin: 60,
            cells: vec![
                cell(2, "10.0.0.0/8", None),
                cell(1, "10.0.0.0/8", Some(666)),
            ],
        });
        assert_eq!(v.prefix_visibility(&p("10.0.0.0/8")), 1);
        let origins = v.prefix_origins(&p("10.0.0.0/8"));
        assert_eq!(origins.into_iter().collect::<Vec<_>>(), vec![Asn(666)]);
    }

    #[test]
    fn full_resync_replaces_everything() {
        let mut v = GlobalView::new();
        v.apply(&RtMessage::Full {
            collector: "rrc00".into(),
            bin: 0,
            cells: vec![cell(1, "10.0.0.0/8", Some(137))],
        });
        v.apply(&RtMessage::Full {
            collector: "rrc00".into(),
            bin: 60,
            cells: vec![cell(1, "20.0.0.0/8", Some(9))],
        });
        assert_eq!(v.prefix_visibility(&p("10.0.0.0/8")), 0);
        assert_eq!(v.prefix_visibility(&p("20.0.0.0/8")), 1);
    }

    #[test]
    fn collectors_aggregate_independently() {
        let mut v = GlobalView::new();
        v.apply(&RtMessage::Full {
            collector: "rrc00".into(),
            bin: 0,
            cells: vec![cell(1, "10.0.0.0/8", Some(137))],
        });
        v.apply(&RtMessage::Full {
            collector: "rv2".into(),
            bin: 0,
            cells: vec![cell(1, "10.0.0.0/8", Some(666))],
        });
        assert_eq!(v.prefix_visibility(&p("10.0.0.0/8")), 2);
        assert_eq!(v.prefix_origins(&p("10.0.0.0/8")).len(), 2);
        assert_eq!(v.collectors(), vec!["rrc00".to_string(), "rv2".to_string()]);
        // Per-collector view sees only its own origin.
        let per = v.collector_prefix_origins("rrc00");
        assert_eq!(per[&p("10.0.0.0/8")].len(), 1);
    }

    #[test]
    fn consume_drains_queue_with_group_offsets() {
        // One partition, and four: every partition drains from its own
        // committed offset.
        for (partitions, collectors) in [(1, 1), (4, 4)] {
            let mq = Cluster::new();
            mq.create_topic("rt.tables", partitions);
            let mut produced = 0;
            for c in 0..collectors {
                let collector = format!("rrc{c:02}");
                for bin in 0..(5 + 3 * c as u64) {
                    let msg = RtMessage::Full {
                        collector: collector.clone(),
                        bin,
                        cells: vec![cell(1, "10.0.0.0/8", Some(137))],
                    };
                    mq.produce("rt.tables", &collector, bin, msg.encode());
                    produced += 1;
                }
            }
            let mut v = GlobalView::new();
            assert_eq!(v.consume(&mq, "g1"), produced);
            assert_eq!(v.applied(), produced);
            assert_eq!(v.consume(&mq, "g1"), 0, "offset not committed");
            // A different group re-reads from zero.
            let mut v2 = GlobalView::new();
            assert_eq!(v2.consume(&mq, "g2"), produced);
            assert_eq!(v2.collectors().len(), collectors);
        }
    }

    #[test]
    fn visible_prefixes_summary() {
        let mut v = GlobalView::new();
        v.apply(&RtMessage::Full {
            collector: "rrc00".into(),
            bin: 0,
            cells: vec![
                cell(1, "10.0.0.0/8", Some(137)),
                cell(2, "10.0.0.0/8", Some(666)),
                cell(1, "20.0.0.0/8", Some(9)),
            ],
        });
        let vis = v.visible_prefixes();
        assert_eq!(vis.len(), 2);
        let ten = vis
            .iter()
            .find(|(p_, _, _)| *p_ == p("10.0.0.0/8"))
            .unwrap();
        assert_eq!(ten.1, 2);
        assert_eq!(ten.2.len(), 2);
        assert_eq!(v.vp_count(), 2);
    }
}
