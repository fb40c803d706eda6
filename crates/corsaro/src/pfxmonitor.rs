//! The pfxmonitor plugin (§6.1, Figure 6).
//!
//! Monitors prefixes overlapping a given set of IP address ranges.
//! For each record it (1) selects only RIB and Updates records related
//! to overlapping prefixes, and (2) tracks, for each `<prefix, VP>`
//! pair, the ASN that originated the route. At the end of each time
//! bin it outputs the number of unique prefixes identified and the
//! number of unique origin ASNs observed by all the VPs — the two
//! time series whose divergence exposes the GARR hijacks in Figure 6.

use std::collections::BTreeSet;
use std::net::IpAddr;
use std::sync::Arc;

use bgp_types::codec::{narrow, Reader};
use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, CodecError, Prefix, PrefixTrie};
use bgpstream::{BgpStreamRecord, ElemType};
use bytes::BufMut;
use fxhash::FxHashMap;

use crate::pipeline::{Partitioning, Plugin};
use crate::runtime::ShardedPlugin;

/// One output point of the plugin's two time series.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PfxPoint {
    /// Bin start time.
    pub time: u64,
    /// Unique prefixes (overlapping the monitored ranges) currently
    /// announced by any VP.
    pub prefixes: usize,
    /// Unique origin ASNs announcing them.
    pub origins: usize,
}

/// The pfxmonitor plugin.
///
/// Distinct-prefix and distinct-origin counts are maintained
/// *incrementally* (reference-counted alongside the `<prefix, VP>`
/// table), so closing a bin is O(1) and — under the sharded runtime —
/// the per-bin partial is O(changes in the bin), not O(table). On a
/// full-feed table of hundreds of thousands of cells, an O(table)
/// interval barrier would serialise exactly the work sharding exists
/// to spread out.
pub struct PfxMonitor {
    /// The monitored ranges. Behind an `Arc` so the sharded runtime's
    /// N forks share one trie instead of rebuilding (and storing) a
    /// copy per worker; the same compiled structure also serves as
    /// every shard's per-elem range gate.
    ranges: Arc<PrefixTrie<()>>,
    /// `<prefix, VP>` → origin ASN. Fx-hashed: probed once per
    /// overlapping elem, the hottest map in the plugin.
    table: FxHashMap<(Prefix, IpAddr), Asn>,
    /// Prefix → number of table entries carrying it.
    prefix_refs: FxHashMap<Prefix, u32>,
    /// Origin → number of table entries carrying it.
    origin_refs: FxHashMap<Asn, u32>,
    /// Shard instances record the bin's origin-presence transitions
    /// here (the partial shipped at each barrier); `None` on
    /// sequential/root instances.
    delta: Option<Vec<u8>>,
    delta_ops: u32,
    /// Root-side (merge) state: the latest distinct-prefix count
    /// reported by each shard. Prefixes are shard-disjoint, so the
    /// union count is the sum.
    shard_prefix_counts: Vec<u32>,
    /// The per-bin time series.
    pub series: Vec<PfxPoint>,
}

impl PfxMonitor {
    /// Monitor everything overlapping `ranges`.
    pub fn new<I: IntoIterator<Item = Prefix>>(ranges: I) -> Self {
        let mut trie = PrefixTrie::new();
        for p in ranges {
            trie.insert(p, ());
        }
        Self::with_shared_ranges(Arc::new(trie))
    }

    /// Monitor everything overlapping an already-built (possibly
    /// shared) range trie — what [`ShardedPlugin::fork`] uses so all
    /// shard instances reference one trie.
    pub fn with_shared_ranges(ranges: Arc<PrefixTrie<()>>) -> Self {
        PfxMonitor {
            ranges,
            table: FxHashMap::default(),
            prefix_refs: FxHashMap::default(),
            origin_refs: FxHashMap::default(),
            delta: None,
            delta_ops: 0,
            shard_prefix_counts: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Current distinct origins (useful in live monitoring loops).
    pub fn current_origins(&self) -> BTreeSet<Asn> {
        self.origin_refs.keys().copied().collect()
    }

    /// Apply "route for `(prefix, vp)` is now announced by `origin`"
    /// to the table and the refcounted distinct sets.
    fn apply_set(&mut self, prefix: Prefix, vp: IpAddr, origin: Asn) {
        match self.table.insert((prefix, vp), origin) {
            Some(old) if old == origin => return, // no change
            Some(old) => {
                if decref(&mut self.origin_refs, old) {
                    self.record_op(1, old);
                }
            }
            None => {
                *self.prefix_refs.entry(prefix).or_insert(0) += 1;
            }
        }
        if incref(&mut self.origin_refs, origin) {
            self.record_op(0, origin);
        }
    }

    /// Apply "route for `(prefix, vp)` is withdrawn".
    fn apply_remove(&mut self, prefix: Prefix, vp: IpAddr) {
        let Some(old) = self.table.remove(&(prefix, vp)) else {
            return; // no change
        };
        decref(&mut self.prefix_refs, prefix);
        if decref(&mut self.origin_refs, old) {
            self.record_op(1, old);
        }
    }

    /// Match one elem against the ranges and apply it to the table.
    fn apply_elem(&mut self, prefix: Prefix, elem: &bgpstream::BgpStreamElem) {
        if !self.ranges.matches(&prefix, PrefixMatch::Any) {
            return;
        }
        match elem.elem_type {
            ElemType::Announcement | ElemType::RibEntry => {
                if let Some(origin) = elem.origin_asn() {
                    self.apply_set(prefix, elem.peer_address, origin);
                }
            }
            ElemType::Withdrawal => {
                self.apply_remove(prefix, elem.peer_address);
            }
            ElemType::PeerState => {}
        }
    }

    /// Append one origin-presence transition (`tag` 0 = appeared,
    /// 1 = vanished) to the shard delta; no-op outside the sharded
    /// runtime.
    fn record_op(&mut self, tag: u8, origin: Asn) {
        let Some(delta) = &mut self.delta else { return };
        delta.put_u8(tag);
        delta.put_u32(origin.0);
        self.delta_ops += 1;
    }
}

/// Increment; true when the key just appeared.
fn incref<K: std::hash::Hash + Eq>(refs: &mut FxHashMap<K, u32>, key: K) -> bool {
    let n = refs.entry(key).or_insert(0);
    *n += 1;
    *n == 1
}

/// Decrement; true when the key just vanished.
fn decref<K: std::hash::Hash + Eq>(refs: &mut FxHashMap<K, u32>, key: K) -> bool {
    match refs.get_mut(&key) {
        Some(1) => {
            refs.remove(&key);
            true
        }
        Some(n) => {
            *n -= 1;
            false
        }
        None => {
            debug_assert!(false, "decref of untracked key");
            false
        }
    }
}

impl Plugin for PfxMonitor {
    fn name(&self) -> &'static str {
        "pfxmonitor"
    }

    fn process_record(&mut self, record: &BgpStreamRecord) {
        for elem in record.elems() {
            let Some(prefix) = elem.prefix else { continue };
            self.apply_elem(prefix, elem);
        }
    }

    fn end_bin(&mut self, bin_start: u64, _bin_end: u64) {
        // Shard instances (delta collection on) keep no series of
        // their own — only the merged root series is ever read, and a
        // 24/7 run must not grow per-shard memory one point per bin.
        if self.delta.is_none() {
            self.series.push(PfxPoint {
                time: bin_start,
                prefixes: self.prefix_refs.len(),
                origins: self.origin_refs.len(),
            });
        }
    }

    fn partitioning(&self) -> Partitioning {
        // Table state is keyed by `(prefix, VP)` and the bin output is
        // a union of per-prefix facts, so prefix sharding partitions
        // the state exactly.
        Partitioning::ByPrefix
    }

    /// Everything except the shared range trie (configuration, not
    /// state), each section in canonical order so two instances that
    /// processed the same records checkpoint byte-identically.
    fn checkpoint(&self) -> Vec<u8> {
        use bytes::BytesMut;

        use bgp_types::codec::{ip_sort_key, prefix_sort_key, put_ip, put_prefix};

        let mut out = BytesMut::new();
        out.put_u8(1); // version

        let mut table: Vec<(&(Prefix, IpAddr), &Asn)> = self.table.iter().collect();
        table.sort_by_key(|((p, ip), _)| (prefix_sort_key(p), ip_sort_key(ip)));
        out.put_u32(narrow(table.len(), "pfxmonitor checkpoint table length"));
        for ((prefix, vp), origin) in table {
            put_prefix(&mut out, prefix);
            put_ip(&mut out, vp);
            out.put_u32(origin.0);
        }

        let mut prefixes: Vec<(&Prefix, &u32)> = self.prefix_refs.iter().collect();
        prefixes.sort_by_key(|(p, _)| prefix_sort_key(p));
        out.put_u32(narrow(prefixes.len(), "pfxmonitor checkpoint prefix count"));
        for (prefix, n) in prefixes {
            put_prefix(&mut out, prefix);
            out.put_u32(*n);
        }

        let mut origins: Vec<(&Asn, &u32)> = self.origin_refs.iter().collect();
        origins.sort_by_key(|(a, _)| a.0);
        out.put_u32(narrow(origins.len(), "pfxmonitor checkpoint origin count"));
        for (origin, n) in origins {
            out.put_u32(origin.0);
            out.put_u32(*n);
        }

        match &self.delta {
            None => out.put_u8(0),
            Some(delta) => {
                out.put_u8(1);
                out.put_u32(narrow(delta.len(), "pfxmonitor checkpoint delta length"));
                out.put_slice(delta);
                out.put_u32(self.delta_ops);
            }
        }

        out.put_u32(narrow(
            self.shard_prefix_counts.len(),
            "pfxmonitor checkpoint shard count",
        ));
        for n in &self.shard_prefix_counts {
            out.put_u32(*n);
        }

        out.put_u32(narrow(
            self.series.len(),
            "pfxmonitor checkpoint series length",
        ));
        for pt in &self.series {
            out.put_u64(pt.time);
            out.put_u64(pt.prefixes as u64);
            out.put_u64(pt.origins as u64);
        }
        out.to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.restore_from(bytes).map_err(|e| e.to_string())
    }
}

impl PfxMonitor {
    /// [`Plugin::restore`] with the codec's own error. Nothing is
    /// applied unless the whole checkpoint decodes.
    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes, "pfxmonitor checkpoint");
        if r.u8()? != 1 {
            return Err(CodecError::Invalid("pfxmonitor checkpoint version"));
        }
        let table = (0..r.count(18 + 17 + 4)?)
            .map(|_| Ok(((r.prefix()?, r.ip()?), Asn(r.u32()?))))
            .collect::<Result<_, CodecError>>()?;
        let prefix_refs = (0..r.count(18 + 4)?)
            .map(|_| Ok((r.prefix()?, r.u32()?)))
            .collect::<Result<_, CodecError>>()?;
        let origin_refs = (0..r.count(4 + 4)?)
            .map(|_| Ok((Asn(r.u32()?), r.u32()?)))
            .collect::<Result<_, CodecError>>()?;
        let (delta, delta_ops) = match r.u8()? {
            1 => {
                let len = r.u32()? as usize;
                (Some(r.bytes(len)?.to_vec()), r.u32()?)
            }
            _ => (None, 0),
        };
        let shard_prefix_counts = (0..r.count(4)?)
            .map(|_| r.u32())
            .collect::<Result<_, _>>()?;
        let series = (0..r.count(24)?)
            .map(|_| {
                Ok(PfxPoint {
                    time: r.u64()?,
                    prefixes: r.u64()? as usize,
                    origins: r.u64()? as usize,
                })
            })
            .collect::<Result<_, CodecError>>()?;
        r.finish()?;

        self.table = table;
        self.prefix_refs = prefix_refs;
        self.origin_refs = origin_refs;
        self.delta = delta;
        self.delta_ops = delta_ops;
        self.shard_prefix_counts = shard_prefix_counts;
        self.series = series;
        Ok(())
    }

    /// Fold one shard's partial (see `take_partial`) into the root's
    /// per-shard prefix counts and origin presence.
    fn apply_partial(&mut self, shard: usize, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes, "pfxmonitor partial");
        self.shard_prefix_counts[shard] = r.u32()?;
        // tag + origin
        for _ in 0..r.count(1 + 4)? {
            let tag = r.u8()?;
            let origin = Asn(r.u32()?);
            // `origin_refs` on the root counts shards where the origin
            // is present; transitions from different shards commute,
            // so replay order across partials is irrelevant.
            if tag == 0 {
                incref(&mut self.origin_refs, origin);
            } else {
                decref(&mut self.origin_refs, origin);
            }
        }
        r.finish()
    }
}

impl ShardedPlugin for PfxMonitor {
    fn fork(&self, _shard: usize, _shards: usize) -> Box<dyn ShardedPlugin> {
        // Forks share the root's range trie by refcount: forking N
        // shards costs N `Arc` clones, not N trie rebuilds.
        let mut fresh = PfxMonitor::with_shared_ranges(self.ranges.clone());
        fresh.delta = Some(Vec::new());
        Box::new(fresh)
    }

    fn process_sharded(&mut self, record: &BgpStreamRecord, mask: &[bool]) {
        for (i, elem) in record.elems().iter().enumerate() {
            if !mask[i] {
                continue;
            }
            let Some(prefix) = elem.prefix else { continue };
            self.apply_elem(prefix, elem);
        }
    }

    /// Partial = the shard's distinct-prefix count plus the bin's
    /// origin-*presence* transitions, O(origin churn). Prefix counts
    /// sum across shards (prefixes are shard-disjoint); origins are
    /// not disjoint, so the root refcounts per-shard presence instead
    /// — both O(1)-per-change, so the serialized interval barrier
    /// never does O(table) work.
    fn take_partial(&mut self) -> Vec<u8> {
        let ops = std::mem::take(&mut self.delta_ops);
        // xcheck:allow(unwrap) — delta is always Some on shard instances
        let body = self.delta.as_mut().expect("take_partial on a shard");
        let mut out = Vec::with_capacity(8 + body.len());
        out.put_u32(narrow(
            self.prefix_refs.len(),
            "pfxmonitor partial prefix count",
        ));
        out.put_u32(ops);
        out.append(body);
        out
    }

    fn merge_bin(&mut self, bin_start: u64, _bin_end: u64, partials: Vec<Vec<u8>>) {
        self.shard_prefix_counts.resize(partials.len(), 0);
        for (shard, partial) in partials.iter().enumerate() {
            let applied = self.apply_partial(shard, partial);
            // xcheck:allow(unwrap) — partials are produced by our own take_partial
            applied.expect("well-formed shard partial");
        }
        self.series.push(PfxPoint {
            time: bin_start,
            prefixes: self.shard_prefix_counts.iter().sum::<u32>() as usize,
            origins: self.origin_refs.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::AsPath;
    use bgpstream::record::{DumpPosition, RecordStatus};
    use bgpstream::BgpStreamElem;
    use broker::DumpType;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rec(ts: u64, elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
        BgpStreamRecord::new(
            "ris",
            "rrc00",
            DumpType::Updates,
            0,
            ts,
            DumpPosition::Middle,
            RecordStatus::Valid,
            elems,
        )
    }

    fn ann(prefix: &str, vp: &str, origin: u32) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: 0,
            peer_address: vp.parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some(p(prefix)),
            next_hop: None,
            as_path: Some(AsPath::from_sequence([65001, origin])),
            communities: None,
            old_state: None,
            new_state: None,
        }
    }

    fn wd(prefix: &str, vp: &str) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::Withdrawal,
            as_path: None,
            ..ann(prefix, vp, 0)
        }
    }

    #[test]
    fn tracks_origins_per_prefix_vp() {
        let mut m = PfxMonitor::new([p("193.204.0.0/15")]);
        m.process_record(&rec(1, vec![ann("193.204.10.0/24", "10.0.0.1", 137)]));
        m.process_record(&rec(2, vec![ann("193.204.10.0/24", "10.0.0.2", 137)]));
        m.end_bin(0, 300);
        assert_eq!(m.series.last().unwrap().prefixes, 1);
        assert_eq!(m.series.last().unwrap().origins, 1);

        // Hijack: second origin appears at one VP.
        m.process_record(&rec(301, vec![ann("193.204.10.0/24", "10.0.0.2", 666)]));
        m.end_bin(300, 600);
        assert_eq!(m.series.last().unwrap().origins, 2);

        // Hijack withdrawn at that VP: back to one origin.
        m.process_record(&rec(601, vec![ann("193.204.10.0/24", "10.0.0.2", 137)]));
        m.end_bin(600, 900);
        assert_eq!(m.series.last().unwrap().origins, 1);
    }

    #[test]
    fn ignores_non_overlapping_prefixes() {
        let mut m = PfxMonitor::new([p("193.204.0.0/15")]);
        m.process_record(&rec(1, vec![ann("10.0.0.0/8", "10.0.0.1", 1)]));
        m.end_bin(0, 300);
        assert_eq!(m.series.last().unwrap().prefixes, 0);
    }

    #[test]
    fn overlap_includes_less_specific_announcements() {
        // A /8 covering the monitored /15 still matches (Any overlap).
        let mut m = PfxMonitor::new([p("193.204.0.0/15")]);
        m.process_record(&rec(1, vec![ann("193.0.0.0/8", "10.0.0.1", 137)]));
        m.end_bin(0, 300);
        assert_eq!(m.series.last().unwrap().prefixes, 1);
    }

    #[test]
    fn withdrawals_shrink_the_table() {
        let mut m = PfxMonitor::new([p("193.204.0.0/15")]);
        m.process_record(&rec(1, vec![ann("193.204.10.0/24", "10.0.0.1", 137)]));
        m.process_record(&rec(2, vec![wd("193.204.10.0/24", "10.0.0.1")]));
        m.end_bin(0, 300);
        assert_eq!(m.series.last().unwrap().prefixes, 0);
        assert_eq!(m.series.last().unwrap().origins, 0);
    }

    #[test]
    fn checkpoint_restores_table_refs_and_series_byte_identically() {
        let mut m = PfxMonitor::new([p("193.204.0.0/15")]);
        m.process_record(&rec(1, vec![ann("193.204.10.0/24", "10.0.0.1", 137)]));
        m.process_record(&rec(2, vec![ann("193.204.11.0/24", "10.0.0.2", 666)]));
        m.end_bin(0, 300);
        m.process_record(&rec(301, vec![wd("193.204.10.0/24", "10.0.0.1")]));

        let ckpt = m.checkpoint();
        let mut fresh = PfxMonitor::new([p("193.204.0.0/15")]);
        fresh.restore(&ckpt).expect("restore");
        // Re-checkpoint is byte-identical (canonical section orders).
        assert_eq!(fresh.checkpoint(), ckpt);
        // Both continue identically through the next bin.
        for plug in [&mut m, &mut fresh] {
            plug.process_record(&rec(310, vec![ann("193.204.12.0/24", "10.0.0.1", 137)]));
            plug.end_bin(300, 600);
        }
        assert_eq!(format!("{:?}", fresh.series), format!("{:?}", m.series));

        // A torn restore is rejected, not half-applied.
        assert!(fresh.restore(&ckpt[..ckpt.len() - 3]).is_err());
        assert!(PfxMonitor::new([]).restore(&[9, 9]).is_err());
    }

    #[test]
    fn shard_partials_refuse_every_truncation() {
        let mut shard = PfxMonitor::new([p("193.204.0.0/15")]);
        shard.delta = Some(Vec::new());
        shard.process_record(&rec(1, vec![ann("193.204.10.0/24", "10.0.0.1", 137)]));
        shard.end_bin(0, 300);
        let partial = shard.take_partial();
        let root = || {
            let mut root = PfxMonitor::new([]);
            root.shard_prefix_counts = vec![0];
            root
        };
        for cut in 0..partial.len() {
            let applied = root().apply_partial(0, &partial[..cut]);
            assert!(applied.is_err(), "{cut}-byte prefix accepted");
        }
        let mut whole = root();
        whole.apply_partial(0, &partial).unwrap();
        assert_eq!(whole.shard_prefix_counts, [1]);
        assert_eq!(whole.current_origins(), BTreeSet::from([Asn(137)]));
    }

    #[test]
    fn aggregation_and_deaggregation_counts_prefixes() {
        let mut m = PfxMonitor::new([p("193.204.0.0/15")]);
        m.process_record(&rec(
            1,
            vec![
                ann("193.204.0.0/16", "10.0.0.1", 137),
                ann("193.205.0.0/16", "10.0.0.1", 137),
            ],
        ));
        m.end_bin(0, 300);
        assert_eq!(m.series.last().unwrap().prefixes, 2);
        assert_eq!(m.series.last().unwrap().origins, 1);
    }
}
