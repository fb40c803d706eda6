//! A binary patricia-style trie keyed by [`Prefix`].
//!
//! The pfxmonitor plugin (Section 6.1) must select "RIB and Updates
//! dump records related to prefixes that overlap with the given IP
//! address ranges", and libBGPStream's prefix filters support exact,
//! more-specific and less-specific matching — all of which reduce to
//! walks of this trie. It stores one optional value per inserted prefix
//! and supports longest-prefix match, containment queries in both
//! directions, and iteration.

use crate::prefix::Prefix;

/// Matching mode for prefix filters, mirroring libBGPStream's
/// `prefix-exact`, `prefix-more`, `prefix-less` and `prefix-any`
/// filter options.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefixMatch {
    /// The queried prefix equals a stored prefix.
    Exact,
    /// The queried prefix equals or is contained in a stored prefix
    /// (stored is less specific or equal).
    MoreSpecific,
    /// The queried prefix equals or contains a stored prefix (stored is
    /// more specific or equal).
    LessSpecific,
    /// Either direction of overlap.
    Any,
}

impl PrefixMatch {
    /// Whether `prefix` passes a `filter` prefix under this mode.
    #[inline]
    pub fn relates(self, filter: &Prefix, prefix: &Prefix) -> bool {
        match self {
            PrefixMatch::Exact => filter == prefix,
            PrefixMatch::MoreSpecific => filter.contains(prefix),
            PrefixMatch::LessSpecific => prefix.contains(filter),
            PrefixMatch::Any => filter.overlaps(prefix),
        }
    }
}

#[derive(Debug)]
struct Node<V> {
    /// Value present iff a prefix terminates here.
    value: Option<(Prefix, V)>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

/// A prefix-keyed trie with one value per prefix.
///
/// Two separate roots are kept per address family so IPv4 and IPv6 keys
/// never collide even though both are stored left-aligned in 128 bits.
#[derive(Debug)]
pub struct PrefixTrie<V> {
    root_v4: Node<V>,
    root_v6: Node<V>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            root_v4: Node::new(),
            root_v6: Node::new(),
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn root(&self, v4: bool) -> &Node<V> {
        if v4 {
            &self.root_v4
        } else {
            &self.root_v6
        }
    }

    fn root_mut(&mut self, v4: bool) -> &mut Node<V> {
        if v4 {
            &mut self.root_v4
        } else {
            &mut self.root_v6
        }
    }

    /// Insert `prefix` with `value`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut node = self.root_mut(prefix.is_ipv4());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].get_or_insert_with(|| Box::new(Node::new()));
        }
        let old = node.value.take();
        node.value = Some((prefix, value));
        if old.is_none() {
            self.len += 1;
        }
        old.map(|(_, v)| v)
    }

    /// Remove `prefix`, returning its value if present. Empty interior
    /// nodes are left in place (removal is rare in our workloads).
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let mut node = self.root_mut(prefix.is_ipv4());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref_mut()?;
        }
        let out = node.value.take();
        if out.is_some() {
            self.len -= 1;
        }
        out.map(|(_, v)| v)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        let mut node = self.root(prefix.is_ipv4());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref().map(|(_, v)| v)
    }

    /// Mutable exact-match lookup.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        let mut node = self.root_mut(prefix.is_ipv4());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref_mut()?;
        }
        node.value.as_mut().map(|(_, v)| v)
    }

    /// Longest stored prefix containing `prefix` (including an exact
    /// match), i.e. the route a router would select for this
    /// destination.
    pub fn longest_match(&self, prefix: &Prefix) -> Option<(&Prefix, &V)> {
        let mut node = self.root(prefix.is_ipv4());
        let mut best = node.value.as_ref();
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(n) => {
                    node = n;
                    if node.value.is_some() {
                        best = node.value.as_ref();
                    }
                }
                None => break,
            }
        }
        best.map(|(p, v)| (p, v))
    }

    /// Walk the stored prefixes that contain `prefix` (root-down,
    /// shortest first), stopping as soon as `f` returns true. Returns
    /// whether any call did. Allocation-free counterpart of
    /// [`PrefixTrie::covering`] for hot-path membership tests.
    pub fn any_covering(&self, prefix: &Prefix, mut f: impl FnMut(&Prefix, &V) -> bool) -> bool {
        let mut node = self.root(prefix.is_ipv4());
        if let Some((p, v)) = node.value.as_ref() {
            if f(p, v) {
                return true;
            }
        }
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(n) => {
                    node = n;
                    if let Some((p, v)) = node.value.as_ref() {
                        if f(p, v) {
                            return true;
                        }
                    }
                }
                None => break,
            }
        }
        false
    }

    /// Walk the stored prefixes contained in `prefix` (subtree, bit
    /// order), stopping as soon as `f` returns true. Returns whether
    /// any call did. Allocation-free counterpart of
    /// [`PrefixTrie::covered_by`].
    pub fn any_covered_by(&self, prefix: &Prefix, mut f: impl FnMut(&Prefix, &V) -> bool) -> bool {
        let mut node = self.root(prefix.is_ipv4());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(n) => node = n,
                None => return false,
            }
        }
        any_in_subtree(node, &mut f)
    }

    /// All stored prefixes that contain `prefix` (walk from the root),
    /// shortest first.
    pub fn covering(&self, prefix: &Prefix) -> Vec<(&Prefix, &V)> {
        let mut out = Vec::new();
        let mut node = self.root(prefix.is_ipv4());
        if let Some((p, v)) = node.value.as_ref() {
            out.push((p, v));
        }
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(n) => {
                    node = n;
                    if let Some((p, v)) = node.value.as_ref() {
                        out.push((p, v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// All stored prefixes contained in `prefix` (subtree walk),
    /// in bit order.
    pub fn covered_by(&self, prefix: &Prefix) -> Vec<(&Prefix, &V)> {
        let mut node = self.root(prefix.is_ipv4());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(n) => node = n,
                None => return Vec::new(),
            }
        }
        let mut out = Vec::new();
        collect(node, &mut out);
        out
    }

    /// True iff any stored prefix overlaps `prefix` in the requested
    /// `mode`. Allocation-free: membership reduces to the early-exit
    /// walks, never to materialised covering/covered-by lists.
    pub fn matches(&self, prefix: &Prefix, mode: PrefixMatch) -> bool {
        let any = |_: &Prefix, _: &V| true;
        match mode {
            PrefixMatch::Exact => self.get(prefix).is_some(),
            PrefixMatch::MoreSpecific => self.any_covering(prefix, any),
            PrefixMatch::LessSpecific => self.any_covered_by(prefix, any),
            PrefixMatch::Any => self.any_covering(prefix, any) || self.any_covered_by(prefix, any),
        }
    }

    /// Iterate over all stored `(prefix, value)` pairs (IPv4 subtree
    /// first, bit order within a family).
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        collect(&self.root_v4, &mut out);
        collect(&self.root_v6, &mut out);
        out.into_iter()
    }
}

fn any_in_subtree<V>(node: &Node<V>, f: &mut impl FnMut(&Prefix, &V) -> bool) -> bool {
    if let Some((p, v)) = node.value.as_ref() {
        if f(p, v) {
            return true;
        }
    }
    node.children
        .iter()
        .flatten()
        .any(|child| any_in_subtree(child, f))
}

fn collect<'a, V>(node: &'a Node<V>, out: &mut Vec<(&'a Prefix, &'a V)>) {
    if let Some((p, v)) = node.value.as_ref() {
        out.push((p, v));
    }
    for child in node.children.iter().flatten() {
        collect(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn sample() -> PrefixTrie<u32> {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        t.insert(p("10.1.2.0/24"), 3);
        t.insert(p("192.0.2.0/24"), 4);
        t.insert(p("2001:db8::/32"), 5);
        t
    }

    #[test]
    fn insert_get_remove() {
        let mut t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&2));
        assert_eq!(t.insert(p("10.1.0.0/16"), 20), Some(2));
        assert_eq!(t.len(), 5);
        assert_eq!(t.remove(&p("10.1.0.0/16")), Some(20));
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(&p("10.1.0.0/16")), None);
        assert_eq!(t.remove(&p("10.1.0.0/16")), None);
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let t = sample();
        let (m, v) = t.longest_match(&p("10.1.2.3/32")).unwrap();
        assert_eq!((m.to_string().as_str(), *v), ("10.1.2.0/24", 3));
        let (m, _) = t.longest_match(&p("10.9.0.0/16")).unwrap();
        assert_eq!(m.to_string(), "10.0.0.0/8");
        assert!(t.longest_match(&p("172.16.0.0/12")).is_none());
    }

    #[test]
    fn longest_match_exact_hit() {
        let t = sample();
        let (m, _) = t.longest_match(&p("10.1.0.0/16")).unwrap();
        assert_eq!(m.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn covering_returns_chain() {
        let t = sample();
        let c: Vec<String> = t
            .covering(&p("10.1.2.0/24"))
            .iter()
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(c, vec!["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
    }

    #[test]
    fn covered_by_returns_subtree() {
        let t = sample();
        let c: Vec<String> = t
            .covered_by(&p("10.0.0.0/8"))
            .iter()
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(c, vec!["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
        assert!(t.covered_by(&p("172.16.0.0/12")).is_empty());
    }

    #[test]
    fn families_are_disjoint() {
        let t = sample();
        assert!(t.covering(&p("::/0")).is_empty());
        assert_eq!(t.covered_by(&p("::/0")).len(), 1);
    }

    #[test]
    fn match_modes() {
        let t = sample();
        assert!(t.matches(&p("10.0.0.0/8"), PrefixMatch::Exact));
        assert!(!t.matches(&p("10.0.0.0/9"), PrefixMatch::Exact));
        assert!(t.matches(&p("10.1.2.3/32"), PrefixMatch::MoreSpecific));
        assert!(!t.matches(&p("11.0.0.0/8"), PrefixMatch::MoreSpecific));
        assert!(t.matches(&p("0.0.0.0/0"), PrefixMatch::LessSpecific));
        assert!(t.matches(&p("10.0.0.0/9"), PrefixMatch::Any));
        assert!(!t.matches(&p("172.16.0.0/12"), PrefixMatch::Any));
    }

    #[test]
    fn iter_yields_everything() {
        let t = sample();
        assert_eq!(t.iter().count(), 5);
        let sum: u32 = t.iter().map(|(_, v)| *v).sum();
        assert_eq!(sum, 15);
    }

    #[test]
    fn any_covering_walks_and_early_exits() {
        let t = sample();
        // Agrees with the materialised walk.
        assert!(t.any_covering(&p("10.1.2.3/32"), |_, _| true));
        assert!(!t.any_covering(&p("172.16.0.0/12"), |_, _| true));
        // Predicate filtering: only the /24 value is 3.
        assert!(t.any_covering(&p("10.1.2.3/32"), |_, v| *v == 3));
        assert!(!t.any_covering(&p("10.1.2.3/32"), |_, v| *v == 99));
        // Early exit: stops at the first hit (shortest prefix first).
        let mut seen = Vec::new();
        t.any_covering(&p("10.1.2.3/32"), |pfx, _| {
            seen.push(pfx.to_string());
            true
        });
        assert_eq!(seen, vec!["10.0.0.0/8"]);
    }

    #[test]
    fn any_covered_by_scans_subtree() {
        let t = sample();
        assert!(t.any_covered_by(&p("10.0.0.0/8"), |_, _| true));
        assert!(t.any_covered_by(&p("10.1.0.0/16"), |_, v| *v == 3));
        assert!(!t.any_covered_by(&p("10.1.0.0/16"), |_, v| *v == 4));
        assert!(!t.any_covered_by(&p("172.16.0.0/12"), |_, _| true));
        // Exact-length node counts as covered-by (reflexive).
        assert!(t.any_covered_by(&p("192.0.2.0/24"), |_, v| *v == 4));
    }

    #[test]
    fn default_route_storable() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0u8);
        assert!(t.matches(&p("198.51.100.0/24"), PrefixMatch::MoreSpecific));
    }
}
