//! Autonomous-system numbers and AS paths.
//!
//! An AS path is an ordered list of segments (RFC 4271 §4.3, path
//! attribute type 2). The common case is a single `AS_SEQUENCE`; route
//! aggregation may introduce `AS_SET` segments. BGPStream exposes the
//! full segment structure and provides convenience iteration over hops,
//! matching the string rendering of `bgpdump`.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An autonomous-system number (4-byte, RFC 6793).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Asn(pub u32);

impl Asn {
    /// The reserved AS number used by collectors when a VP did not
    /// supply one (never appears in simulated topologies).
    pub const RESERVED: Asn = Asn(0);

    /// Whether this is a private-use ASN (RFC 6996).
    pub fn is_private(self) -> bool {
        (64512..=65534).contains(&self.0) || (4_200_000_000..=4_294_967_294).contains(&self.0)
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// One segment of an AS path.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum AsPathSegment {
    /// An ordered sequence of ASes traversed by the route.
    Sequence(Vec<Asn>),
    /// An unordered set of ASes, produced by route aggregation.
    Set(Vec<Asn>),
}

impl AsPathSegment {
    /// Number of ASNs stored in the segment.
    pub fn len(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.len(),
        }
    }

    /// True if the segment carries no ASNs (invalid on the wire, but
    /// representable; the codec rejects it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ASNs of the segment in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }

    /// Number of hops this segment contributes to path length for
    /// route-selection purposes: an `AS_SET` counts as one hop
    /// (RFC 4271 §9.1.2.2 a).
    pub fn hop_count(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) => v.len(),
            AsPathSegment::Set(_) => 1,
        }
    }
}

/// An AS path: the ordered list of segments from the vantage point
/// toward the origin AS.
///
/// The segments are immutable and shared: a clone is a reference-count
/// bump, so the elem, the RIB journal, the Loc-RIB table and the RT
/// cells all hold the one path decoded from the wire. The one mutator,
/// [`prepend`](AsPath::prepend), copies on write. The empty path holds
/// no allocation.
#[derive(Clone, Default)]
pub struct AsPath {
    segments: Option<Arc<[AsPathSegment]>>,
}

impl AsPath {
    /// An empty path (used for locally originated routes).
    pub fn empty() -> Self {
        AsPath { segments: None }
    }

    /// Build a path consisting of a single `AS_SEQUENCE`.
    pub fn from_sequence<I: IntoIterator<Item = u32>>(asns: I) -> Self {
        let seq = AsPathSegment::Sequence(asns.into_iter().map(Asn).collect());
        AsPath {
            segments: Some(Arc::from([seq])),
        }
    }

    /// Build a path from explicit segments.
    pub fn from_segments(segments: Vec<AsPathSegment>) -> Self {
        AsPath {
            segments: (!segments.is_empty()).then(|| segments.into()),
        }
    }

    /// A path over already-shared segments.
    pub(crate) fn from_shared(segments: Arc<[AsPathSegment]>) -> Self {
        AsPath {
            segments: Some(segments),
        }
    }

    /// The raw segments.
    pub fn segments(&self) -> &[AsPathSegment] {
        self.segments.as_deref().unwrap_or_default()
    }

    /// True if the path has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments().is_empty()
    }

    /// Iterate over every ASN in the path in order (sets flattened in
    /// stored order).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments()
            .iter()
            .flat_map(|s| s.asns().iter().copied())
    }

    /// Path length as used by BGP route selection: sequences count per
    /// hop, each set counts once.
    pub fn hop_count(&self) -> usize {
        self.segments().iter().map(|s| s.hop_count()).sum()
    }

    /// The neighbour AS of the vantage point (first ASN of the first
    /// sequence segment), if any.
    pub fn first_asn(&self) -> Option<Asn> {
        self.segments()
            .first()
            .and_then(|s| s.asns().first().copied())
    }

    /// The origin AS (last ASN of the path) if the path ends with a
    /// sequence; a trailing `AS_SET` yields `None` because the origin is
    /// ambiguous (aggregated route).
    pub fn origin(&self) -> Option<Asn> {
        match self.segments().last()? {
            AsPathSegment::Sequence(v) => v.last().copied(),
            AsPathSegment::Set(_) => None,
        }
    }

    /// All candidate origin ASes: the single origin for sequences, or
    /// every member of a trailing set. MOAS analyses use this.
    pub fn origins(&self) -> Vec<Asn> {
        match self.segments().last() {
            Some(AsPathSegment::Sequence(v)) => v.last().copied().into_iter().collect(),
            Some(AsPathSegment::Set(v)) => v.clone(),
            None => Vec::new(),
        }
    }

    /// Prepend one ASN (what a router does when exporting a route).
    /// Grows the leading sequence, creating one if the path starts with
    /// a set. Copies on write: clones taken before keep the old path.
    pub fn prepend(&mut self, asn: Asn) {
        let mut segments = self.segments().to_vec();
        match segments.first_mut() {
            Some(AsPathSegment::Sequence(v)) => v.insert(0, asn),
            _ => segments.insert(0, AsPathSegment::Sequence(vec![asn])),
        }
        *self = AsPath::from_segments(segments);
    }

    /// The unique ASNs in path order with consecutive duplicates
    /// (prepending) collapsed — the `groupby` idiom of Listing 1.
    pub fn hops_dedup(&self) -> Vec<Asn> {
        let mut out: Vec<Asn> = Vec::new();
        for asn in self.asns() {
            if out.last() != Some(&asn) {
                out.push(asn);
            }
        }
        out
    }

    /// Whether the path contains `asn` anywhere (loop detection,
    /// transit analyses).
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns().any(|a| a == asn)
    }

    /// Render in `bgpdump` style: sequences space-separated, sets as
    /// `{a,b,c}`.
    pub fn to_bgpdump_string(&self) -> String {
        let mut out = String::new();
        for (i, seg) in self.segments().iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match seg {
                AsPathSegment::Sequence(v) => {
                    for (j, a) in v.iter().enumerate() {
                        if j > 0 {
                            out.push(' ');
                        }
                        out.push_str(&a.to_string());
                    }
                }
                AsPathSegment::Set(v) => {
                    out.push('{');
                    for (j, a) in v.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&a.to_string());
                    }
                    out.push('}');
                }
            }
        }
        out
    }
}

impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        let shared = match (&self.segments, &other.segments) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        shared || self.segments() == other.segments()
    }
}

impl Eq for AsPath {}

impl Hash for AsPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.segments().hash(state);
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsPath")
            .field("segments", &self.segments())
            .finish()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bgpdump_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_sequence() {
        let p = AsPath::from_sequence([65001, 65002, 65003]);
        assert_eq!(p.to_string(), "65001 65002 65003");
    }

    #[test]
    fn display_with_set() {
        let p = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
            AsPathSegment::Set(vec![Asn(3), Asn(4)]),
        ]);
        assert_eq!(p.to_string(), "1 2 {3,4}");
    }

    #[test]
    fn origin_of_sequence() {
        let p = AsPath::from_sequence([10, 20, 30]);
        assert_eq!(p.origin(), Some(Asn(30)));
        assert_eq!(p.first_asn(), Some(Asn(10)));
    }

    #[test]
    fn origin_of_trailing_set_is_ambiguous() {
        let p = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(1)]),
            AsPathSegment::Set(vec![Asn(2), Asn(3)]),
        ]);
        assert_eq!(p.origin(), None);
        assert_eq!(p.origins(), vec![Asn(2), Asn(3)]);
    }

    #[test]
    fn hop_count_counts_set_once() {
        let p = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
            AsPathSegment::Set(vec![Asn(3), Asn(4), Asn(5)]),
        ]);
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn prepend_grows_leading_sequence() {
        let mut p = AsPath::from_sequence([2, 3]);
        p.prepend(Asn(1));
        assert_eq!(p.to_string(), "1 2 3");
        assert_eq!(p.segments().len(), 1);
    }

    #[test]
    fn prepend_on_leading_set_creates_sequence() {
        let mut p = AsPath::from_segments(vec![AsPathSegment::Set(vec![Asn(9)])]);
        p.prepend(Asn(1));
        assert_eq!(p.to_string(), "1 {9}");
        assert_eq!(p.segments().len(), 2);
    }

    #[test]
    fn hops_dedup_collapses_prepending() {
        let p = AsPath::from_sequence([1, 1, 1, 2, 3, 3]);
        assert_eq!(p.hops_dedup(), vec![Asn(1), Asn(2), Asn(3)]);
    }

    #[test]
    fn empty_path() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.origin(), None);
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.to_string(), "");
    }

    #[test]
    fn private_asn_ranges() {
        assert!(Asn(64512).is_private());
        assert!(Asn(65534).is_private());
        assert!(!Asn(65535).is_private());
        assert!(!Asn(3356).is_private());
        assert!(Asn(4_200_000_000).is_private());
    }

    #[test]
    fn contains_looks_in_sets() {
        let p = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(1)]),
            AsPathSegment::Set(vec![Asn(7), Asn(8)]),
        ]);
        assert!(p.contains(Asn(7)));
        assert!(!p.contains(Asn(9)));
    }
}
