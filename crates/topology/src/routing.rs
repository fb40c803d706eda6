//! Per-origin route computation under the Gao–Rexford policy model.
//!
//! Every AS prefers routes learned from customers over routes learned
//! from peers over routes learned from providers; within a class it
//! prefers the shortest AS path, breaking ties on the lowest next-hop
//! ASN (deterministic). Export follows the valley-free rule: customer
//! routes are exported to everyone, peer/provider routes only to
//! customers.
//!
//! Because routes depend only on the origin AS (all prefixes of one
//! origin share the same tree), we compute one [`RoutingTree`] per
//! origin with a three-phase breadth-first propagation and reconstruct
//! AS paths by following parent pointers.

use std::collections::{HashMap, VecDeque};

use bgp_types::AsPath;

use crate::model::Topology;

/// How a route was learned, in preference order (lower = preferred).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RouteClass {
    /// The AS originates the prefix itself.
    Origin = 0,
    /// Learned from a customer.
    Customer = 1,
    /// Learned from a peer.
    Peer = 2,
    /// Learned from a provider.
    Provider = 3,
}

/// One AS's best route toward the tree's origin.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TreeEntry {
    /// How the route was learned.
    pub class: RouteClass,
    /// AS-path length to the origin (origin itself = 0).
    pub dist: u16,
    /// Next hop toward the origin (node index); the origin points at
    /// itself.
    pub parent: u32,
}

/// The best route of every AS toward one origin, at one topology
/// snapshot.
#[derive(Clone, Debug)]
pub struct RoutingTree {
    /// Origin node index.
    pub origin: u32,
    /// Per-node best route; `None` if unreachable (not alive, or
    /// disconnected).
    pub entries: Vec<Option<TreeEntry>>,
    /// Full per-node paths (self first, origin last), populated only by
    /// the worklist variant (leak scenarios): leaked routes can
    /// re-import a node's own old route, so — exactly as in the real
    /// path-vector protocol — the advertised path must travel with the
    /// route rather than be reconstructed from parent pointers.
    stored_paths: Vec<Option<Vec<u32>>>,
}

impl RoutingTree {
    /// The route entry for node `idx`.
    pub fn entry(&self, idx: u32) -> Option<TreeEntry> {
        self.entries.get(idx as usize).copied().flatten()
    }

    /// Reconstruct the AS path from `from` to the origin, inclusive of
    /// both ends. `None` when `from` has no route.
    pub fn as_path(&self, topo: &Topology, from: u32) -> Option<AsPath> {
        let hops = self.path_indexes(from)?;
        Some(AsPath::from_sequence(
            hops.into_iter().map(|i| topo.nodes[i as usize].asn.0),
        ))
    }

    /// Node indexes along the path from `from` to the origin.
    pub fn path_indexes(&self, from: u32) -> Option<Vec<u32>> {
        if !self.stored_paths.is_empty() {
            return self.stored_paths.get(from as usize)?.clone();
        }
        let mut hops = Vec::new();
        let mut cur = from;
        loop {
            hops.push(cur);
            let e = self.entries[cur as usize]?;
            if e.parent == cur {
                return Some(hops);
            }
            cur = e.parent;
            if hops.len() > self.entries.len() {
                unreachable!("routing tree contains a cycle");
            }
        }
    }
}

/// Candidate comparison: smaller wins. Deterministic by (class, dist,
/// parent ASN).
fn better(topo: &Topology, cand: TreeEntry, incumbent: Option<TreeEntry>) -> bool {
    match incumbent {
        None => true,
        Some(inc) => {
            let ck = (cand.class, cand.dist, topo.nodes[cand.parent as usize].asn);
            let ik = (inc.class, inc.dist, topo.nodes[inc.parent as usize].asn);
            ck < ik
        }
    }
}

/// Options controlling tree computation beyond plain Gao–Rexford.
#[derive(Default)]
pub struct TreeOpts<'a> {
    /// Node indexes that are administratively down (outages).
    pub disabled: Option<&'a std::collections::HashSet<u32>>,
    /// When set, a node (other than the origin) may *relay* the route
    /// onward only if this returns true. Used for RTBH propagation:
    /// providers that do not leak black-holed prefixes keep them local.
    pub relay: Option<&'a dyn Fn(u32) -> bool>,
    /// When true the origin announces only to its providers (the RTBH
    /// pattern), not to peers or customers.
    pub origin_to_providers_only: bool,
    /// Nodes that violate the valley-free export rule by re-exporting
    /// peer/provider-learned routes to their providers and peers — the
    /// RFC 7908 route-leak model. Non-empty sets switch tree
    /// computation to a generic worklist propagation.
    pub leakers: Option<&'a std::collections::HashSet<u32>>,
}

/// Compute the routing tree for `origin` over the ASes alive at
/// `month`.
pub fn compute_tree(topo: &Topology, origin: u32, month: u32) -> RoutingTree {
    compute_tree_opts(topo, origin, month, &TreeOpts::default())
}

/// [`compute_tree`] with extra constraints.
pub fn compute_tree_opts(
    topo: &Topology,
    origin: u32,
    month: u32,
    opts: &TreeOpts<'_>,
) -> RoutingTree {
    if opts.leakers.is_some_and(|l| !l.is_empty()) {
        return compute_tree_worklist(topo, origin, month, opts);
    }
    let n = topo.nodes.len();
    let mut entries: Vec<Option<TreeEntry>> = vec![None; n];
    let alive = |i: u32| {
        topo.nodes[i as usize].alive_at(month) && opts.disabled.is_none_or(|d| !d.contains(&i))
    };
    let may_relay = |i: u32| i == origin || opts.relay.is_none_or(|f| f(i));
    if !alive(origin) {
        return RoutingTree {
            origin,
            entries,
            stored_paths: Vec::new(),
        };
    }

    entries[origin as usize] = Some(TreeEntry {
        class: RouteClass::Origin,
        dist: 0,
        parent: origin,
    });

    // Phase 1: customer routes climb provider edges (BFS by distance).
    let mut queue: VecDeque<u32> = VecDeque::new();
    queue.push_back(origin);
    while let Some(u) = queue.pop_front() {
        if !may_relay(u) {
            continue;
        }
        let du = entries[u as usize].unwrap().dist;
        for &p in &topo.nodes[u as usize].providers {
            if !alive(p) {
                continue;
            }
            let cand = TreeEntry {
                class: RouteClass::Customer,
                dist: du + 1,
                parent: u,
            };
            if better(topo, cand, entries[p as usize]) {
                let first = entries[p as usize].is_none();
                entries[p as usize] = Some(cand);
                if first {
                    queue.push_back(p);
                }
            }
        }
    }

    // Phase 2: nodes holding origin/customer routes export to peers.
    let customer_holders: Vec<u32> = (0..n as u32)
        .filter(|&i| {
            matches!(
                entries[i as usize],
                Some(TreeEntry {
                    class: RouteClass::Origin | RouteClass::Customer,
                    ..
                })
            )
        })
        .collect();
    for &u in &customer_holders {
        if !may_relay(u) || (u == origin && opts.origin_to_providers_only) {
            continue;
        }
        let du = entries[u as usize].unwrap().dist;
        for &q in &topo.nodes[u as usize].peers {
            if !alive(q) {
                continue;
            }
            let cand = TreeEntry {
                class: RouteClass::Peer,
                dist: du + 1,
                parent: u,
            };
            if better(topo, cand, entries[q as usize]) {
                entries[q as usize] = Some(cand);
            }
        }
    }

    // Phase 3: everything routed so far exports to customers,
    // transitively (BFS by distance for shortest provider routes).
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&i| entries[i as usize].is_some())
        .collect();
    order.sort_by_key(|&i| entries[i as usize].unwrap().dist);
    let mut queue: VecDeque<u32> = order.into();
    while let Some(u) = queue.pop_front() {
        if !may_relay(u) || (u == origin && opts.origin_to_providers_only) {
            continue;
        }
        let du = entries[u as usize].unwrap().dist;
        for &c in &topo.nodes[u as usize].customers {
            if !alive(c) {
                continue;
            }
            let cand = TreeEntry {
                class: RouteClass::Provider,
                dist: du + 1,
                parent: u,
            };
            if better(topo, cand, entries[c as usize]) {
                entries[c as usize] = Some(cand);
                queue.push_back(c);
            }
        }
    }

    RoutingTree {
        origin,
        entries,
        stored_paths: Vec::new(),
    }
}

/// Generic worklist propagation: the same Gao–Rexford preference and
/// export rules as the three-phase BFS, except that nodes in
/// `opts.leakers` also export peer/provider-learned routes to their
/// providers and peers.
///
/// Propagation is monotone — an improvement to a node's best route
/// never shrinks the set of neighbors it exports to (Origin < Customer
/// < Peer < Provider, and exportability only grows along that order) —
/// so relaxing to a fixpoint yields the unique stable solution
/// regardless of processing order.
/// One node's Adj-RIBs-In in the worklist propagation: advertising
/// neighbor → (class at this node, distance, advertised path).
type AdjRibIn = HashMap<u32, (RouteClass, u16, Vec<u32>)>;

fn compute_tree_worklist(
    topo: &Topology,
    origin: u32,
    month: u32,
    opts: &TreeOpts<'_>,
) -> RoutingTree {
    let n = topo.nodes.len();
    let mut entries: Vec<Option<TreeEntry>> = vec![None; n];
    let mut paths: Vec<Option<Vec<u32>>> = vec![None; n];
    // Per-node Adj-RIBs-In: neighbor → (class, dist, path). A fresh
    // advertisement from a neighbor *replaces* that neighbor's earlier
    // one (implicit withdraw), then the best route is re-selected —
    // the real path-vector discipline, needed because leaks make
    // routes flow against the three-phase order.
    let mut ribs: Vec<AdjRibIn> = vec![HashMap::new(); n];
    let alive = |i: u32| {
        topo.nodes[i as usize].alive_at(month) && opts.disabled.is_none_or(|d| !d.contains(&i))
    };
    let may_relay = |i: u32| i == origin || opts.relay.is_none_or(|f| f(i));
    let leaks = |i: u32| opts.leakers.is_some_and(|l| l.contains(&i));
    if !alive(origin) {
        return RoutingTree {
            origin,
            entries,
            stored_paths: paths,
        };
    }
    entries[origin as usize] = Some(TreeEntry {
        class: RouteClass::Origin,
        dist: 0,
        parent: origin,
    });
    paths[origin as usize] = Some(vec![origin]);

    // Re-select v's best from its Adj-RIBs-In; returns whether the
    // selected route changed.
    let reselect = |v: u32,
                    entries: &mut Vec<Option<TreeEntry>>,
                    paths: &mut Vec<Option<Vec<u32>>>,
                    ribs: &Vec<AdjRibIn>|
     -> bool {
        let best = ribs[v as usize]
            .iter()
            .min_by_key(|(nbr, (class, dist, _))| (*class, *dist, topo.nodes[**nbr as usize].asn))
            .map(|(nbr, (class, dist, path))| {
                (
                    TreeEntry {
                        class: *class,
                        dist: *dist,
                        parent: *nbr,
                    },
                    path.clone(),
                )
            });
        match best {
            Some((e, path)) => {
                let mut vpath = Vec::with_capacity(path.len() + 1);
                vpath.push(v);
                vpath.extend_from_slice(&path);
                let changed = entries[v as usize] != Some(e)
                    || paths[v as usize].as_deref() != Some(&vpath[..]);
                entries[v as usize] = Some(e);
                paths[v as usize] = Some(vpath);
                changed
            }
            None => {
                let changed = entries[v as usize].is_some();
                entries[v as usize] = None;
                paths[v as usize] = None;
                changed
            }
        }
    };

    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut queued = vec![false; n];
    queue.push_back(origin);
    queued[origin as usize] = true;
    // Safety valve: leaky policy systems are not guaranteed to be
    // dispute-free in general; our (class, dist) preference converges,
    // but bound the work defensively rather than risk livelock.
    let mut budget = (n as u64 + 1) * (n as u64 + 1) * 8;
    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        if budget == 0 {
            break;
        }
        budget -= 1;
        let entry = entries[u as usize];
        let relay_ok = may_relay(u);
        let exportable_up = entry.is_some_and(|e| {
            matches!(e.class, RouteClass::Origin | RouteClass::Customer) || leaks(u)
        });
        let du = entry.map(|e| e.dist).unwrap_or(0);
        let upath = paths[u as usize].clone();
        // Advertise or implicitly withdraw at v: a fresh advertisement
        // replaces u's earlier one in v's Adj-RIBs-In; a None offer (no
        // route, export not allowed, or AS-path loop — RFC 4271
        // §9.1.2's loop prevention, which is what stops a leaked route
        // from re-importing through itself) removes it.
        let update = |v: u32,
                      class: Option<RouteClass>,
                      entries: &mut Vec<Option<TreeEntry>>,
                      paths: &mut Vec<Option<Vec<u32>>>,
                      ribs: &mut Vec<AdjRibIn>,
                      queue: &mut VecDeque<u32>,
                      queued: &mut Vec<bool>| {
            if !alive(v) {
                return;
            }
            let advert = match (class, &upath) {
                (Some(c), Some(up)) if !up.contains(&v) => Some((c, up)),
                _ => None,
            };
            let changed = match advert {
                Some((c, up)) => {
                    ribs[v as usize].insert(u, (c, du + 1, up.clone()));
                    reselect(v, entries, paths, ribs)
                }
                None => ribs[v as usize].remove(&u).is_some() && reselect(v, entries, paths, ribs),
            };
            if changed && !queued[v as usize] {
                queued[v as usize] = true;
                queue.push_back(v);
            }
        };
        let up_class = (relay_ok && exportable_up).then_some(RouteClass::Customer);
        for &p in &topo.nodes[u as usize].providers.clone() {
            update(
                p,
                up_class,
                &mut entries,
                &mut paths,
                &mut ribs,
                &mut queue,
                &mut queued,
            );
        }
        let peer_class =
            (relay_ok && exportable_up && !(u == origin && opts.origin_to_providers_only))
                .then_some(RouteClass::Peer);
        for &q in &topo.nodes[u as usize].peers.clone() {
            update(
                q,
                peer_class,
                &mut entries,
                &mut paths,
                &mut ribs,
                &mut queue,
                &mut queued,
            );
        }
        let down_class =
            (relay_ok && entry.is_some() && !(u == origin && opts.origin_to_providers_only))
                .then_some(RouteClass::Provider);
        for &c in &topo.nodes[u as usize].customers.clone() {
            update(
                c,
                down_class,
                &mut entries,
                &mut paths,
                &mut ribs,
                &mut queue,
                &mut queued,
            );
        }
    }
    RoutingTree {
        origin,
        entries,
        stored_paths: paths,
    }
}

/// Compare two tree entries *at the same node* for different origins —
/// which origin's route does the node select? Smaller = selected.
/// MOAS visibility analyses use this.
pub fn select_between(
    topo: &Topology,
    a: Option<TreeEntry>,
    b: Option<TreeEntry>,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (Some(x), Some(y)) => {
            let kx = (x.class, x.dist, topo.nodes[x.parent as usize].asn);
            let ky = (y.class, y.dist, topo.nodes[y.parent as usize].asn);
            kx.cmp(&ky)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AsNode, Tier};
    use bgp_types::Asn;
    use std::collections::HashMap;

    /// Build a topology from explicit edges.
    /// providers[i] lists the providers of node i; peers undirected.
    fn build(
        tiers: &[Tier],
        provider_edges: &[(u32, u32)], // (customer, provider)
        peer_edges: &[(u32, u32)],
    ) -> Topology {
        let mut nodes: Vec<AsNode> = tiers
            .iter()
            .enumerate()
            .map(|(i, &tier)| AsNode {
                asn: Asn((i as u32 + 1) * 10),
                tier,
                country: *b"US",
                born_month: 0,
                v6_born_month: u32::MAX,
                providers: vec![],
                customers: vec![],
                peers: vec![],
                prefixes_v4: vec![],
                prefixes_v6: vec![],
                strips_communities: false,
                tags_communities: false,
                leaks_blackholes: false,
            })
            .collect();
        for &(c, p) in provider_edges {
            nodes[c as usize].providers.push(p);
            nodes[p as usize].customers.push(c);
        }
        for &(a, b) in peer_edges {
            nodes[a as usize].peers.push(b);
            nodes[b as usize].peers.push(a);
        }
        let by_asn: HashMap<Asn, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.asn, i as u32))
            .collect();
        Topology {
            nodes,
            by_asn,
            months: 1,
        }
    }

    /// The classic "shark fin": two tier-1s peering, each with one
    /// customer; customers reach each other through the peering link.
    ///
    /// ```text
    ///   0 ===== 1     (peers)
    ///   |       |
    ///   2       3     (customers)
    /// ```
    fn sharkfin() -> Topology {
        build(
            &[Tier::Tier1, Tier::Tier1, Tier::Edge, Tier::Edge],
            &[(2, 0), (3, 1)],
            &[(0, 1)],
        )
    }

    #[test]
    fn origin_entry_is_zero() {
        let t = sharkfin();
        let tree = compute_tree(&t, 2, 0);
        let e = tree.entry(2).unwrap();
        assert_eq!(e.class, RouteClass::Origin);
        assert_eq!(e.dist, 0);
        assert_eq!(e.parent, 2);
    }

    #[test]
    fn provider_gets_customer_route() {
        let t = sharkfin();
        let tree = compute_tree(&t, 2, 0);
        let e = tree.entry(0).unwrap();
        assert_eq!(e.class, RouteClass::Customer);
        assert_eq!(e.dist, 1);
    }

    #[test]
    fn peer_route_crosses_clique() {
        let t = sharkfin();
        let tree = compute_tree(&t, 2, 0);
        let e = tree.entry(1).unwrap();
        assert_eq!(e.class, RouteClass::Peer);
        assert_eq!(e.dist, 2);
    }

    #[test]
    fn far_edge_reaches_via_provider() {
        let t = sharkfin();
        let tree = compute_tree(&t, 2, 0);
        let e = tree.entry(3).unwrap();
        assert_eq!(e.class, RouteClass::Provider);
        assert_eq!(e.dist, 3);
        let path = tree.as_path(&t, 3).unwrap();
        assert_eq!(path.to_string(), "40 20 10 30");
    }

    #[test]
    fn valley_free_blocks_peer_to_peer_transit() {
        // 0 -- 1 -- 2 all peers; origin at 2's customer 3.
        // Node 0 must NOT reach: route would go peer(1)→peer(0).
        //
        //   0 === 1 === 2
        //               |
        //               3
        let t = build(
            &[Tier::Tier1, Tier::Tier1, Tier::Tier1, Tier::Edge],
            &[(3, 2)],
            &[(0, 1), (1, 2)],
        );
        let tree = compute_tree(&t, 3, 0);
        assert!(tree.entry(1).is_some()); // peer of 2: gets peer route
        assert!(tree.entry(0).is_none()); // would need peer→peer export
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // Node 1 peers with origin 0 (dist 1), but also has a customer
        // chain 0→2→1 (dist 2). Gao–Rexford says prefer the customer
        // route despite being longer.
        //
        //   1 ==== 0     (peer edge)
        //   |      |
        //   2------+     (2 is customer of 1, 0 is customer of 2)
        let t = build(
            &[Tier::Edge, Tier::Tier1, Tier::Transit],
            &[(0, 2), (2, 1)],
            &[(0, 1)],
        );
        let tree = compute_tree(&t, 0, 0);
        let e = tree.entry(1).unwrap();
        assert_eq!(e.class, RouteClass::Customer);
        assert_eq!(e.dist, 2);
        assert_eq!(tree.as_path(&t, 1).unwrap().to_string(), "20 30 10");
    }

    #[test]
    fn shortest_within_class_wins() {
        // Origin 0 has two providers 1, 2; 3 is provider of both.
        // 3's customer routes: via 1 (dist 2) or via 2 (dist 2) — tie
        // broken on lower parent ASN (node 1, ASN 20).
        let t = build(
            &[Tier::Edge, Tier::Transit, Tier::Transit, Tier::Tier1],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[],
        );
        let tree = compute_tree(&t, 0, 0);
        let e = tree.entry(3).unwrap();
        assert_eq!(e.dist, 2);
        assert_eq!(e.parent, 1); // ASN 20 < ASN 30
    }

    #[test]
    fn dead_nodes_have_no_route() {
        let mut t = sharkfin();
        t.nodes[3].born_month = 5;
        let tree = compute_tree(&t, 2, 0);
        assert!(tree.entry(3).is_none());
        let tree_later = compute_tree(&t, 2, 5);
        assert!(tree_later.entry(3).is_some());
    }

    #[test]
    fn dead_origin_empty_tree() {
        let mut t = sharkfin();
        t.nodes[2].born_month = 9;
        let tree = compute_tree(&t, 2, 0);
        assert!(tree.entries.iter().all(|e| e.is_none()));
    }

    #[test]
    fn select_between_prefers_better_class() {
        let t = sharkfin();
        // At node 0: origin-2 tree gives a Customer route; origin-3
        // tree gives... 0 reaches 3 via peer 1 (class Peer).
        let t2 = compute_tree(&t, 2, 0);
        let t3 = compute_tree(&t, 3, 0);
        let ord = select_between(&t, t2.entry(0), t3.entry(0));
        assert_eq!(ord, std::cmp::Ordering::Less);
    }

    #[test]
    fn path_indexes_match_as_path() {
        let t = sharkfin();
        let tree = compute_tree(&t, 2, 0);
        let idx = tree.path_indexes(3).unwrap();
        assert_eq!(idx, vec![3, 1, 0, 2]);
    }

    /// A multi-homed customer between two providers, one of which has
    /// its own customer to observe from:
    ///
    /// ```text
    ///   0 ===== 1      (tier-1 peers)
    ///   |  \   /|
    ///   2   3   4      (3 multihomed: customer of 0 AND 1)
    /// ```
    fn multihomed() -> Topology {
        build(
            &[Tier::Tier1, Tier::Tier1, Tier::Edge, Tier::Edge, Tier::Edge],
            &[(2, 0), (3, 0), (3, 1), (4, 1)],
            &[(0, 1)],
        )
    }

    #[test]
    fn worklist_equals_three_phase_without_leakers() {
        for topo in [sharkfin(), multihomed()] {
            for origin in 0..topo.nodes.len() as u32 {
                let reference = compute_tree(&topo, origin, 0);
                let leakers = std::collections::HashSet::new();
                let tree = compute_tree_worklist(
                    &topo,
                    origin,
                    0,
                    &TreeOpts {
                        leakers: Some(&leakers),
                        ..TreeOpts::default()
                    },
                );
                assert_eq!(tree.entries, reference.entries, "origin {origin}");
            }
        }
    }

    #[test]
    fn leaker_redistributes_provider_routes() {
        let t = multihomed();
        // Origin at node 2 (customer of 0). Without a leak, node 1
        // reaches 2 over the peering (class Peer), node 4 under it.
        let clean = compute_tree(&t, 2, 0);
        assert_eq!(clean.entry(1).unwrap().class, RouteClass::Peer);
        // Node 3 leaks: it learned 2's route from provider 0 and
        // re-exports it to provider 1. Node 1 now has a *customer*
        // route via 3 and prefers it over the peer route.
        let leakers: std::collections::HashSet<u32> = [3].into_iter().collect();
        let leaked = compute_tree_opts(
            &t,
            2,
            0,
            &TreeOpts {
                leakers: Some(&leakers),
                ..TreeOpts::default()
            },
        );
        let e1 = leaked.entry(1).unwrap();
        assert_eq!(e1.class, RouteClass::Customer);
        assert_eq!(e1.parent, 3);
        // The leaked path is visible downstream at node 4 and violates
        // valley-freeness: 1 ← 3 ← 0 ← 2 descends then ascends.
        let path = leaked.as_path(&t, 4).unwrap().to_string();
        assert_eq!(path, "50 20 40 10 30");
    }

    #[test]
    fn leak_does_not_affect_other_directions() {
        let t = multihomed();
        // Origin at 4 (customer of 1). Leaker 3 only matters for routes
        // it actually carries upward; 0's route to 4 improves too (via
        // leaked customer path) — but 2, single-homed under 0, simply
        // follows 0.
        let leakers: std::collections::HashSet<u32> = [3].into_iter().collect();
        let leaked = compute_tree_opts(
            &t,
            4,
            0,
            &TreeOpts {
                leakers: Some(&leakers),
                ..TreeOpts::default()
            },
        );
        let e0 = leaked.entry(0).unwrap();
        // 0 prefers the customer route through the leaker 3 over its
        // peer route through 1.
        assert_eq!(e0.class, RouteClass::Customer);
        assert_eq!(e0.parent, 3);
        assert!(leaked.entry(2).is_some());
    }

    #[test]
    fn leaker_with_no_route_changes_nothing() {
        let t = multihomed();
        // Node 2 as leaker cannot leak routes to origin 2's own tree
        // beyond what it already exports as origin.
        let leakers: std::collections::HashSet<u32> = [2].into_iter().collect();
        let leaked = compute_tree_opts(
            &t,
            2,
            0,
            &TreeOpts {
                leakers: Some(&leakers),
                ..TreeOpts::default()
            },
        );
        let clean = compute_tree(&t, 2, 0);
        assert_eq!(leaked.entries, clean.entries);
    }
}
