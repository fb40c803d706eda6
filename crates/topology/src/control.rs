//! The control-plane state machine: which prefixes are announced by
//! whom at the current virtual time, and which route each vantage
//! point selects.
//!
//! [`ControlPlane`] is the oracle the collector simulator queries. It
//! owns the topology, applies [`Event`]s, memoises per-origin routing
//! trees, and answers `route(vp, prefix)` with the AS path and
//! communities the VP would export to a collector.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use bgp_types::{AsPath, Asn, Community, CommunitySet, Prefix, PrefixTrie};

use crate::events::{Event, EventKind};
use crate::model::{Tier, Topology};
use crate::routing::{compute_tree_opts, RouteClass, RoutingTree, TreeOpts};

/// The community value our simulated ASes use for "origin-attached"
/// informational communities.
pub const TAG_ORIGIN: u16 = 1000;
/// The community value for ingress ("learned here") tags.
pub const TAG_INGRESS: u16 = 2001;

/// The route a VP selects for a prefix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    /// The origin AS the VP routes toward.
    pub origin: Asn,
    /// Full AS path, VP first, origin last.
    pub as_path: AsPath,
    /// How the VP learned the route (partial-feed VPs only export
    /// `Origin`/`Customer` routes).
    pub class: RouteClass,
    /// Communities as visible at the VP (after en-route stripping).
    pub communities: CommunitySet,
}

#[derive(Clone, Copy, Debug)]
struct StaticAnn {
    origin: u32,
    born: u32,
    second: Option<u32>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct TreeKey {
    origin: u32,
    month: u32,
    epoch: u32,
    rtbh: bool,
}

/// Control-plane oracle over a topology plus dynamic events.
pub struct ControlPlane {
    topo: Arc<Topology>,
    /// Virtual seconds per growth month.
    pub seconds_per_month: u64,
    time: u64,
    month: u32,
    /// Bumped whenever the disabled set changes (invalidates trees).
    epoch: u32,
    disabled: HashSet<u32>,
    /// Nodes currently violating valley-free export (route leaks).
    leakers: HashSet<u32>,
    withdrawn: HashSet<(u32, Prefix)>,
    hijacks: HashMap<Prefix, BTreeSet<u32>>,
    rtbh: HashMap<Prefix, u32>,
    static_index: HashMap<Prefix, Vec<StaticAnn>>,
    trees: HashMap<TreeKey, Arc<RoutingTree>>,
    /// Lazily rebuilt LPM trie of announced prefixes (for the data
    /// plane); `lpm_stale` marks it dirty.
    lpm_trie: PrefixTrie<()>,
    lpm_stale: bool,
}

impl ControlPlane {
    /// Build over a topology. `seconds_per_month` maps event time to
    /// the growth timeline (use a large value for static scenarios).
    pub fn new(topo: Arc<Topology>, seconds_per_month: u64) -> Self {
        let mut static_index: HashMap<Prefix, Vec<StaticAnn>> = HashMap::new();
        for (i, n) in topo.nodes.iter().enumerate() {
            for op in n.prefixes_v4.iter().chain(n.prefixes_v6.iter()) {
                static_index.entry(op.prefix).or_default().push(StaticAnn {
                    origin: i as u32,
                    born: op.born_month,
                    second: op.second_origin,
                });
            }
        }
        ControlPlane {
            topo,
            seconds_per_month: seconds_per_month.max(1),
            time: 0,
            month: 0,
            epoch: 0,
            disabled: HashSet::new(),
            leakers: HashSet::new(),
            withdrawn: HashSet::new(),
            hijacks: HashMap::new(),
            rtbh: HashMap::new(),
            static_index,
            trees: HashMap::new(),
            lpm_trie: PrefixTrie::new(),
            lpm_stale: true,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current virtual time in seconds.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Current growth month.
    pub fn month(&self) -> u32 {
        self.month
    }

    /// Move time forward (never backward); returns prefixes that became
    /// newly announced because their birth month was crossed.
    pub fn advance_to(&mut self, t: u64) -> Vec<Prefix> {
        if t <= self.time {
            return Vec::new();
        }
        self.time = t;
        let new_month = ((t / self.seconds_per_month) as u32).min(self.topo.months);
        let mut born = Vec::new();
        if new_month != self.month {
            let (lo, hi) = (self.month, new_month);
            for (prefix, anns) in &self.static_index {
                for a in anns {
                    let node = &self.topo.nodes[a.origin as usize];
                    let eff_born = if prefix.is_ipv4() {
                        a.born.max(node.born_month)
                    } else {
                        a.born.max(node.v6_born_month)
                    };
                    if eff_born > lo && eff_born <= hi {
                        born.push(*prefix);
                        break;
                    }
                }
            }
            self.month = new_month;
            self.lpm_stale = true;
        }
        born
    }

    fn effective_born(&self, prefix: &Prefix, ann: &StaticAnn) -> u32 {
        let node = &self.topo.nodes[ann.origin as usize];
        if prefix.is_ipv4() {
            ann.born.max(node.born_month)
        } else {
            ann.born.max(node.v6_born_month)
        }
    }

    fn origin_active(&self, idx: u32) -> bool {
        self.topo.nodes[idx as usize].alive_at(self.month) && !self.disabled.contains(&idx)
    }

    /// Node indexes currently announcing `prefix`.
    pub fn origins_of(&self, prefix: &Prefix) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        if let Some(anns) = self.static_index.get(prefix) {
            for a in anns {
                if self.effective_born(prefix, a) <= self.month
                    && self.origin_active(a.origin)
                    && !self.withdrawn.contains(&(a.origin, *prefix))
                {
                    out.push(a.origin);
                }
                if let Some(second) = a.second {
                    if self.effective_born(prefix, a) <= self.month
                        && self.origin_active(second)
                        && !self.withdrawn.contains(&(second, *prefix))
                    {
                        out.push(second);
                    }
                }
            }
        }
        if let Some(hj) = self.hijacks.get(prefix) {
            out.extend(hj.iter().copied().filter(|&i| self.origin_active(i)));
        }
        if let Some(&o) = self.rtbh.get(prefix) {
            if self.origin_active(o) {
                out.push(o);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every prefix with at least one active origin right now.
    pub fn announced_prefixes(&self) -> Vec<Prefix> {
        let mut out: Vec<Prefix> = Vec::new();
        for prefix in self.static_index.keys() {
            if !self.origins_of(prefix).is_empty() {
                out.push(*prefix);
            }
        }
        for prefix in self.hijacks.keys() {
            if !self.origins_of(prefix).is_empty() {
                out.push(*prefix);
            }
        }
        for prefix in self.rtbh.keys() {
            if !self.origins_of(prefix).is_empty() {
                out.push(*prefix);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Apply one event; time advances to the event's timestamp first.
    /// Returns the prefixes whose VP-visible routes may have changed.
    pub fn apply(&mut self, ev: &Event) -> Vec<Prefix> {
        let mut affected = self.advance_to(ev.time);
        self.lpm_stale = true;
        match ev.kind {
            EventKind::Announce { origin, prefix } => {
                if let Some(idx) = self.topo.index_of(origin) {
                    self.withdrawn.remove(&(idx, prefix));
                    let known = self
                        .static_index
                        .get(&prefix)
                        .is_some_and(|anns| anns.iter().any(|a| a.origin == idx));
                    if !known {
                        self.static_index
                            .entry(prefix)
                            .or_default()
                            .push(StaticAnn {
                                origin: idx,
                                born: self.month,
                                second: None,
                            });
                    }
                    affected.push(prefix);
                }
            }
            EventKind::Withdraw { origin, prefix } => {
                if let Some(idx) = self.topo.index_of(origin) {
                    self.withdrawn.insert((idx, prefix));
                    affected.push(prefix);
                }
            }
            EventKind::StartHijack { attacker, prefix } => {
                if let Some(idx) = self.topo.index_of(attacker) {
                    self.hijacks.entry(prefix).or_default().insert(idx);
                    affected.push(prefix);
                }
            }
            EventKind::EndHijack { attacker, prefix } => {
                if let Some(idx) = self.topo.index_of(attacker) {
                    if let Some(set) = self.hijacks.get_mut(&prefix) {
                        set.remove(&idx);
                        if set.is_empty() {
                            self.hijacks.remove(&prefix);
                        }
                    }
                    affected.push(prefix);
                }
            }
            EventKind::StartOutage { asn } => {
                if let Some(idx) = self.topo.index_of(asn) {
                    let before = self.announced_prefixes();
                    self.disabled.insert(idx);
                    self.epoch += 1;
                    self.trees.clear();
                    affected.extend(before);
                }
            }
            EventKind::EndOutage { asn } => {
                if let Some(idx) = self.topo.index_of(asn) {
                    self.disabled.remove(&idx);
                    self.epoch += 1;
                    self.trees.clear();
                    affected.extend(self.announced_prefixes());
                }
            }
            EventKind::StartLeak { leaker } => {
                if let Some(idx) = self.topo.index_of(leaker) {
                    if self.leakers.insert(idx) {
                        self.epoch += 1;
                        self.trees.clear();
                        affected.extend(self.announced_prefixes());
                    }
                }
            }
            EventKind::EndLeak { leaker } => {
                if let Some(idx) = self.topo.index_of(leaker) {
                    if self.leakers.remove(&idx) {
                        self.epoch += 1;
                        self.trees.clear();
                        affected.extend(self.announced_prefixes());
                    }
                }
            }
            EventKind::StartRtbh { origin, prefix } => {
                if let Some(idx) = self.topo.index_of(origin) {
                    self.rtbh.insert(prefix, idx);
                    affected.push(prefix);
                }
            }
            EventKind::EndRtbh { origin: _, prefix } => {
                self.rtbh.remove(&prefix);
                affected.push(prefix);
            }
        }
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// The routing tree for `origin_idx` under current conditions.
    /// `rtbh` selects the restricted-propagation tree.
    pub fn tree(&mut self, origin_idx: u32, rtbh: bool) -> Arc<RoutingTree> {
        let key = TreeKey {
            origin: origin_idx,
            month: self.month,
            epoch: self.epoch,
            rtbh,
        };
        if let Some(t) = self.trees.get(&key) {
            return t.clone();
        }
        let topo = self.topo.clone();
        let tree = if rtbh {
            let providers: HashSet<u32> = topo.nodes[origin_idx as usize]
                .providers
                .iter()
                .copied()
                .collect();
            let relay = |i: u32| -> bool {
                !providers.contains(&i) || topo.nodes[i as usize].leaks_blackholes
            };
            let opts = TreeOpts {
                disabled: Some(&self.disabled),
                relay: Some(&relay),
                origin_to_providers_only: true,
                leakers: Some(&self.leakers),
            };
            compute_tree_opts(&topo, origin_idx, self.month, &opts)
        } else {
            let opts = TreeOpts {
                disabled: Some(&self.disabled),
                relay: None,
                origin_to_providers_only: false,
                leakers: Some(&self.leakers),
            };
            compute_tree_opts(&topo, origin_idx, self.month, &opts)
        };
        let tree = Arc::new(tree);
        self.trees.insert(key, tree.clone());
        tree
    }

    /// Whether `prefix` is currently black-holed.
    pub fn is_rtbh(&self, prefix: &Prefix) -> bool {
        self.rtbh.contains_key(prefix)
    }

    /// ASes that null-route traffic to `prefix` during RTBH (the
    /// origin's transit providers).
    pub fn rtbh_blackholers(&self, prefix: &Prefix) -> Vec<u32> {
        match self.rtbh.get(prefix) {
            Some(&o) => self.topo.nodes[o as usize].providers.clone(),
            None => Vec::new(),
        }
    }

    /// The route the VP with node index `vp_idx` selects for `prefix`.
    pub fn route_at(&mut self, vp_idx: u32, prefix: &Prefix) -> Option<Route> {
        if self.disabled.contains(&vp_idx) {
            return None;
        }
        let cands = self.origins_of(prefix);
        let rtbh_origin = self.rtbh.get(prefix).copied();
        let mut best: Option<(Arc<RoutingTree>, u32, crate::routing::TreeEntry)> = None;
        for o in cands {
            let rtbh = rtbh_origin == Some(o);
            let tree = self.tree(o, rtbh);
            if let Some(e) = tree.entry(vp_idx) {
                let replace = match &best {
                    None => true,
                    Some((_, bo, be)) => {
                        let topo = &self.topo;
                        let ck = (
                            e.class,
                            e.dist,
                            topo.nodes[e.parent as usize].asn,
                            topo.nodes[o as usize].asn,
                        );
                        let bk = (
                            be.class,
                            be.dist,
                            topo.nodes[be.parent as usize].asn,
                            topo.nodes[*bo as usize].asn,
                        );
                        ck < bk
                    }
                };
                if replace {
                    best = Some((tree, o, e));
                }
            }
        }
        let (tree, origin_idx, entry) = best?;
        let path = tree.path_indexes(vp_idx)?;
        let as_path = tree.as_path(&self.topo, vp_idx)?;
        let communities = self.communities_for(&path, rtbh_origin.filter(|&o| o == origin_idx));
        Some(Route {
            origin: self.topo.nodes[origin_idx as usize].asn,
            as_path,
            class: entry.class,
            communities,
        })
    }

    /// The route selected by the VP with AS number `vp`.
    pub fn route(&mut self, vp: Asn, prefix: &Prefix) -> Option<Route> {
        let idx = self.topo.index_of(vp)?;
        self.route_at(idx, prefix)
    }

    /// Communities visible at the head of `path` (VP first, origin
    /// last): origin tags, RTBH black-holing tags, per-hop ingress
    /// tagging, and en-route stripping.
    fn communities_for(&self, path: &[u32], rtbh_origin: Option<u32>) -> CommunitySet {
        let mut acc = Vec::new();
        let origin = *path.last().expect("path never empty");
        let onode = &self.topo.nodes[origin as usize];
        if let Some(ro) = rtbh_origin {
            for &prov in &self.topo.nodes[ro as usize].providers {
                acc.push(Community::blackhole(
                    self.topo.nodes[prov as usize].asn.0 as u16,
                ));
            }
        }
        if onode.tags_communities {
            acc.push(Community::new(onode.asn.0 as u16, TAG_ORIGIN));
        }
        for &hop in path.iter().rev().skip(1) {
            let n = &self.topo.nodes[hop as usize];
            if n.strips_communities {
                acc.clear();
            }
            if n.tags_communities {
                acc.push(Community::new(n.asn.0 as u16, TAG_INGRESS));
            }
        }
        // Built once: each insert into a set copies it.
        CommunitySet::from_iter(acc)
    }

    fn refresh_lpm(&mut self) {
        if self.lpm_stale {
            self.lpm_trie = PrefixTrie::new();
            for p in self.announced_prefixes() {
                self.lpm_trie.insert(p, ());
            }
            self.lpm_stale = false;
        }
    }

    /// Longest announced prefix covering `addr` (a host prefix), for
    /// data-plane forwarding.
    pub fn lpm(&mut self, addr: &Prefix) -> Option<Prefix> {
        self.refresh_lpm();
        self.lpm_trie.longest_match(addr).map(|(p, _)| *p)
    }

    /// Every announced prefix covering `addr`, most specific first —
    /// the per-hop FIB fallback chain (a router without the /32 route
    /// still forwards along the covering aggregate).
    pub fn lpm_chain(&mut self, addr: &Prefix) -> Vec<Prefix> {
        self.refresh_lpm();
        let mut chain: Vec<Prefix> = self
            .lpm_trie
            .covering(addr)
            .into_iter()
            .map(|(p, _)| *p)
            .collect();
        chain.reverse();
        chain
    }

    /// All ASes suitable as vantage points at the current month: alive,
    /// not disabled.
    pub fn vp_candidates(&self) -> Vec<Asn> {
        self.topo
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| n.alive_at(self.month) && !self.disabled.contains(&(*i as u32)))
            .map(|(_, n)| n.asn)
            .collect()
    }

    /// Transit-capable VP candidates (richer tables; used to pick
    /// full-feed VPs).
    pub fn transit_vp_candidates(&self) -> Vec<Asn> {
        self.topo
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                n.alive_at(self.month)
                    && !self.disabled.contains(&(*i as u32))
                    && n.tier != Tier::Edge
            })
            .map(|(_, n)| n.asn)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TopologyConfig};

    fn cp() -> ControlPlane {
        let topo = Arc::new(generate(&TopologyConfig::tiny(11)));
        ControlPlane::new(topo, u64::MAX)
    }

    fn first_prefix_of(cp: &ControlPlane, idx: usize) -> Prefix {
        cp.topology().nodes[idx].prefixes_v4[0].prefix
    }

    #[test]
    fn every_vp_routes_every_announced_prefix_when_static() {
        let mut c = cp();
        let prefixes = c.announced_prefixes();
        assert!(!prefixes.is_empty());
        let vps = c.vp_candidates();
        for vp in vps.iter().take(5) {
            for p in prefixes.iter().take(20) {
                assert!(c.route(*vp, p).is_some(), "vp {vp} prefix {p}");
            }
        }
    }

    #[test]
    fn route_path_starts_at_vp_ends_at_origin() {
        let mut c = cp();
        let p = first_prefix_of(&c, 20);
        let vp = c.topology().nodes[5].asn;
        let r = c.route(vp, &p).unwrap();
        let hops = r.as_path.hops_dedup();
        assert_eq!(hops[0], vp);
        assert_eq!(*hops.last().unwrap(), r.origin);
    }

    #[test]
    fn withdraw_removes_route_announce_restores() {
        let mut c = cp();
        let origin_node = &c.topology().nodes[20];
        let origin = origin_node.asn;
        let p = first_prefix_of(&c, 20);
        let vp = c.topology().nodes[3].asn;
        assert!(c.route(vp, &p).is_some());
        c.apply(&Event::at(10, EventKind::Withdraw { origin, prefix: p }));
        assert!(c.route(vp, &p).is_none());
        c.apply(&Event::at(20, EventKind::Announce { origin, prefix: p }));
        assert!(c.route(vp, &p).is_some());
    }

    #[test]
    fn hijack_creates_moas() {
        let mut c = cp();
        let p = first_prefix_of(&c, 25);
        let attacker = c.topology().nodes[30].asn;
        c.apply(&Event::at(
            5,
            EventKind::StartHijack {
                attacker,
                prefix: p,
            },
        ));
        let origins = c.origins_of(&p);
        assert_eq!(origins.len(), 2);
        // Somewhere in the topology, at least one AS should route to
        // the attacker (it is topologically closer to someone).
        let vps = c.vp_candidates();
        let mut saw_attacker = false;
        for vp in vps {
            if let Some(r) = c.route(vp, &p) {
                if r.origin == attacker {
                    saw_attacker = true;
                    break;
                }
            }
        }
        assert!(saw_attacker, "no VP routed to the hijacker");
        c.apply(&Event::at(
            6,
            EventKind::EndHijack {
                attacker,
                prefix: p,
            },
        ));
        assert_eq!(c.origins_of(&p).len(), 1);
    }

    #[test]
    fn more_specific_hijack_attracts_everyone() {
        let mut c = cp();
        let victim_pfx = first_prefix_of(&c, 25);
        let sub = victim_pfx.children().unwrap().0; // more specific
        let attacker = c.topology().nodes[30].asn;
        c.apply(&Event::at(
            5,
            EventKind::StartHijack {
                attacker,
                prefix: sub,
            },
        ));
        let vp = c.topology().nodes[4].asn;
        let r = c.route(vp, &sub).unwrap();
        assert_eq!(r.origin, attacker);
        // LPM prefers the hijacked more-specific.
        let host = sub.host(1);
        assert_eq!(c.lpm(&host), Some(sub));
    }

    #[test]
    fn outage_kills_own_prefixes_and_transit() {
        let mut c = cp();
        // Find an edge AS with a single provider; killing the provider
        // must make the edge's prefix unreachable from elsewhere.
        let topo = c.topology().clone();
        let (edge_idx, provider_idx) = topo
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, n)| {
                if n.tier == Tier::Edge && n.providers.len() == 1 {
                    Some((i as u32, n.providers[0]))
                } else {
                    None
                }
            })
            .expect("no single-homed edge in tiny topology");
        let edge_prefix = topo.nodes[edge_idx as usize].prefixes_v4[0].prefix;
        let provider_asn = topo.nodes[provider_idx as usize].asn;
        let provider_prefix = topo.nodes[provider_idx as usize].prefixes_v4[0].prefix;
        // Pick a VP that is neither the edge nor the provider.
        let vp = topo
            .nodes
            .iter()
            .enumerate()
            .find(|(i, _)| *i as u32 != edge_idx && *i as u32 != provider_idx)
            .map(|(_, n)| n.asn)
            .unwrap();
        assert!(c.route(vp, &edge_prefix).is_some());
        c.apply(&Event::at(5, EventKind::StartOutage { asn: provider_asn }));
        assert!(
            c.route(vp, &provider_prefix).is_none(),
            "provider prefix still up"
        );
        assert!(
            c.route(vp, &edge_prefix).is_none(),
            "single-homed customer still up"
        );
        c.apply(&Event::at(6, EventKind::EndOutage { asn: provider_asn }));
        assert!(c.route(vp, &edge_prefix).is_some());
    }

    #[test]
    fn rtbh_visible_at_providers_with_blackhole_community() {
        let mut c = cp();
        // Choose an edge AS with a provider.
        let topo = c.topology().clone();
        let (edge_idx, provider_idx) = topo
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, n)| {
                if n.tier == Tier::Edge && !n.providers.is_empty() {
                    Some((i as u32, n.providers[0]))
                } else {
                    None
                }
            })
            .unwrap();
        let origin = topo.nodes[edge_idx as usize].asn;
        let host = topo.nodes[edge_idx as usize].prefixes_v4[0].prefix.host(7);
        c.apply(&Event::at(
            5,
            EventKind::StartRtbh {
                origin,
                prefix: host,
            },
        ));
        assert!(c.is_rtbh(&host));
        // The provider must see the /32 with a black-holing community.
        let provider_asn = topo.nodes[provider_idx as usize].asn;
        let r = c
            .route(provider_asn, &host)
            .expect("provider sees RTBH route");
        assert!(
            r.communities.has_blackhole(),
            "communities: {}",
            r.communities
        );
        c.apply(&Event::at(
            9,
            EventKind::EndRtbh {
                origin,
                prefix: host,
            },
        ));
        assert!(c.route(provider_asn, &host).is_none());
    }

    #[test]
    fn rtbh_propagation_requires_leaky_provider() {
        let mut c = cp();
        let topo = c.topology().clone();
        // Edge whose providers all do NOT leak: nobody beyond providers
        // sees the /32.
        let found = topo.nodes.iter().enumerate().find_map(|(i, n)| {
            if n.tier == Tier::Edge
                && !n.providers.is_empty()
                && n.providers
                    .iter()
                    .all(|&p| !topo.nodes[p as usize].leaks_blackholes)
            {
                Some(i as u32)
            } else {
                None
            }
        });
        if let Some(edge_idx) = found {
            let origin = topo.nodes[edge_idx as usize].asn;
            let host = topo.nodes[edge_idx as usize].prefixes_v4[0].prefix.host(1);
            c.apply(&Event::at(
                5,
                EventKind::StartRtbh {
                    origin,
                    prefix: host,
                },
            ));
            let providers: HashSet<u32> = topo.nodes[edge_idx as usize]
                .providers
                .iter()
                .copied()
                .collect();
            for (j, n) in topo.nodes.iter().enumerate() {
                let j = j as u32;
                if j == edge_idx || providers.contains(&j) {
                    continue;
                }
                assert!(
                    c.route(n.asn, &host).is_none(),
                    "AS {} sees non-leaked RTBH prefix",
                    n.asn
                );
            }
        }
    }

    #[test]
    fn leak_event_redirects_routes_through_leaker() {
        let mut c = cp();
        let topo = c.topology().clone();
        // Find a multi-homed edge AS (two providers).
        let (leaker_idx, prov_a, prov_b) = topo
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, n)| {
                if n.tier == Tier::Edge && n.providers.len() >= 2 {
                    Some((i as u32, n.providers[0], n.providers[1]))
                } else {
                    None
                }
            })
            .expect("no multi-homed edge in tiny topology");
        let leaker = topo.nodes[leaker_idx as usize].asn;
        // A prefix of provider A: before the leak, provider B does not
        // route to it through the leaker.
        let p = topo.nodes[prov_a as usize].prefixes_v4[0].prefix;
        let vp_b = topo.nodes[prov_b as usize].asn;
        let before = c.route(vp_b, &p).expect("B routes to A's prefix");
        assert!(
            !before.as_path.hops_dedup().contains(&leaker),
            "pre-leak path already via leaker"
        );
        c.apply(&Event::at(10, EventKind::StartLeak { leaker }));
        let during = c.route(vp_b, &p).expect("B still routes during leak");
        assert!(
            during.as_path.hops_dedup().contains(&leaker),
            "leak did not attract B: path {}",
            during.as_path
        );
        assert_eq!(
            during.class,
            RouteClass::Customer,
            "leaked route looks customer-learned"
        );
        c.apply(&Event::at(20, EventKind::EndLeak { leaker }));
        let after = c.route(vp_b, &p).unwrap();
        assert_eq!(after.as_path, before.as_path, "route heals after leak ends");
    }

    #[test]
    fn advance_reports_prefix_births() {
        let topo = Arc::new(generate(&TopologyConfig {
            months: 24,
            ..TopologyConfig::tiny(5)
        }));
        let mut c = ControlPlane::new(topo, 100);
        let before = c.announced_prefixes().len();
        let born = c.advance_to(24 * 100);
        assert!(!born.is_empty(), "no prefixes born over two years");
        let after = c.announced_prefixes().len();
        assert!(after > before);
        assert!(after - before >= born.len());
    }

    #[test]
    fn moas_from_second_origin() {
        // Force a config with high MOAS fraction to guarantee presence.
        let topo = Arc::new(generate(&TopologyConfig {
            moas_frac: 0.5,
            ..TopologyConfig::tiny(9)
        }));
        let mut c = ControlPlane::new(topo, u64::MAX);
        let moas: Vec<Prefix> = c
            .announced_prefixes()
            .into_iter()
            .filter(|p| c.origins_of(p).len() > 1)
            .collect();
        assert!(!moas.is_empty());
        // VPs can disagree about the origin of a MOAS prefix.
        let p = moas[0];
        let mut seen: HashSet<Asn> = HashSet::new();
        for vp in c.vp_candidates() {
            if let Some(r) = c.route(vp, &p) {
                seen.insert(r.origin);
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn communities_strip_and_tag() {
        let mut c = cp();
        let prefixes = c.announced_prefixes();
        let vps = c.vp_candidates();
        let mut any_tagged = false;
        for vp in &vps {
            for p in prefixes.iter().take(10) {
                if let Some(r) = c.route(*vp, p) {
                    if !r.communities.is_empty() {
                        any_tagged = true;
                    }
                }
            }
        }
        assert!(any_tagged, "no communities observed anywhere");
    }
}
