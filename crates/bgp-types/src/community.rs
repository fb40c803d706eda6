//! RFC 1997 BGP communities.
//!
//! A community is a 32-bit opaque value conventionally read as
//! `ASN:value` where the high 16 bits name the AS that defined the
//! community. Section 4.3 of the paper builds its RTBH study on
//! provider black-holing communities; Section 5 (Figure 5d) measures
//! community diversity by counting the distinct AS identifiers seen in
//! community attributes at each VP.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// The conventional community value providers assign to black-holing
/// (`ASN:666`, later standardized as BLACKHOLE 65535:666 by RFC 7999).
pub const BLACKHOLE_VALUE: u16 = 666;

/// One RFC 1997 community (`ASN:value`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Community {
    /// High 16 bits: AS identifier (the AS targeted by / defining the
    /// community).
    pub asn: u16,
    /// Low 16 bits: operator-defined value.
    pub value: u16,
}

impl Community {
    /// Build from the two 16-bit halves.
    pub fn new(asn: u16, value: u16) -> Self {
        Community { asn, value }
    }

    /// Build from the raw 32-bit wire value.
    pub fn from_u32(raw: u32) -> Self {
        Community {
            asn: (raw >> 16) as u16,
            value: raw as u16,
        }
    }

    /// The raw 32-bit wire value.
    pub fn as_u32(&self) -> u32 {
        ((self.asn as u32) << 16) | self.value as u32
    }

    /// The conventional black-holing community of provider `asn`.
    pub fn blackhole(asn: u16) -> Self {
        Community {
            asn,
            value: BLACKHOLE_VALUE,
        }
    }

    /// Whether this community requests black-holing by convention.
    pub fn is_blackhole(&self) -> bool {
        self.value == BLACKHOLE_VALUE
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn, self.value)
    }
}

impl FromStr for Community {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, v) = s
            .split_once(':')
            .ok_or_else(|| format!("missing ':' in community {s:?}"))?;
        Ok(Community {
            asn: a.parse().map_err(|e| format!("{s:?}: {e}"))?,
            value: v.parse().map_err(|e| format!("{s:?}: {e}"))?,
        })
    }
}

/// An ordered, deduplicated set of communities as carried by one route.
///
/// Kept sorted so equality, hashing and diffing are canonical
/// regardless of the order communities were attached in. The items are
/// immutable: a clone never copies them to the heap, and the mutators
/// ([`insert`](CommunitySet::insert), [`remove`](CommunitySet::remove))
/// copy on write. A set of up to five communities — the common case —
/// is held in place, with no allocation; a larger one is shared behind
/// a reference count, so its clone is a count bump.
#[derive(Clone, Default)]
pub struct CommunitySet {
    items: Items,
}

/// How many communities a [`CommunitySet`] holds without allocating.
const INLINE: usize = 5;

#[derive(Clone)]
enum Items {
    /// The first `len` of `items`.
    Inline { len: u8, items: [Community; INLINE] },
    /// More than [`INLINE`], shared.
    Shared(Arc<[Community]>),
}

impl Default for Items {
    fn default() -> Self {
        Items::Inline {
            len: 0,
            items: [Community::new(0, 0); INLINE],
        }
    }
}

impl CommunitySet {
    /// The empty set.
    pub fn new() -> Self {
        CommunitySet::default()
    }

    /// Build from any iterator, sorting and deduplicating. Up to five
    /// communities are sorted in place; more are collected into one
    /// shared allocation when the iterator's length is known (a slice,
    /// a fixed-width wire block), and sorted there.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Community>>(iter: I) -> Self {
        let mut iter = iter.into_iter().peekable();
        let mut small = [Community::new(0, 0); INLINE];
        let mut len = 0;
        if iter.size_hint().0 <= INLINE {
            while let Some(c) = iter.next_if(|_| len < INLINE) {
                small[len] = c;
                len += 1;
            }
            if iter.peek().is_none() {
                return CommunitySet::inline(&mut small[..len]);
            }
        }
        let mut items: Arc<[Community]> = small[..len].iter().copied().chain(iter).collect();
        if let Some(fresh) = Arc::get_mut(&mut items).filter(|s| !s.is_sorted()) {
            fresh.sort_unstable();
        }
        if items.is_sorted_by(|a, b| a < b) {
            return CommunitySet {
                items: Items::Shared(items),
            };
        }
        let mut unique = items.to_vec();
        unique.sort_unstable();
        unique.dedup();
        CommunitySet::from_iter(unique)
    }

    /// Sort and deduplicate at most [`INLINE`] communities in place.
    fn inline(items: &mut [Community]) -> Self {
        items.sort_unstable();
        let mut set = [Community::new(0, 0); INLINE];
        let mut len = 0;
        for run in items.chunk_by(|a, b| a == b) {
            set[len] = run[0];
            len += 1;
        }
        CommunitySet {
            items: Items::Inline {
                len: len as u8,
                items: set,
            },
        }
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when no communities are attached.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Insert, keeping canonical order. Returns true if newly added.
    /// Copies on write.
    pub fn insert(&mut self, c: Community) -> bool {
        let items = self.as_slice();
        match items.binary_search(&c) {
            Ok(_) => false,
            Err(i) => {
                let (head, tail) = items.split_at(i);
                *self = CommunitySet::from_iter(
                    head.iter().copied().chain([c]).chain(tail.iter().copied()),
                );
                true
            }
        }
    }

    /// Remove a community; returns true if it was present. Copies on
    /// write.
    pub fn remove(&mut self, c: &Community) -> bool {
        let items = self.as_slice();
        match items.binary_search(c) {
            Ok(i) => {
                let (head, tail) = items.split_at(i);
                *self = CommunitySet::from_iter(head.iter().chain(&tail[1..]).copied());
                true
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, c: &Community) -> bool {
        self.as_slice().binary_search(c).is_ok()
    }

    /// Whether any community requests black-holing.
    pub fn has_blackhole(&self) -> bool {
        self.as_slice().iter().any(|c| c.is_blackhole())
    }

    /// Iterate in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Community> {
        self.as_slice().iter()
    }

    /// The sorted backing slice.
    pub fn as_slice(&self) -> &[Community] {
        match &self.items {
            Items::Inline { len, items } => &items[..*len as usize],
            Items::Shared(items) => items,
        }
    }

    /// Render space-separated in `bgpdump` style.
    pub fn to_bgpdump_string(&self) -> String {
        self.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl PartialEq for CommunitySet {
    fn eq(&self, other: &Self) -> bool {
        let shared = match (&self.items, &other.items) {
            (Items::Shared(a), Items::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        shared || self.as_slice() == other.as_slice()
    }
}

impl Eq for CommunitySet {}

impl Hash for CommunitySet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for CommunitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommunitySet")
            .field("items", &self.as_slice())
            .finish()
    }
}

impl fmt::Display for CommunitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bgpdump_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let c = Community::new(3356, 100);
        assert_eq!(Community::from_u32(c.as_u32()), c);
        assert_eq!(c.as_u32(), (3356u32 << 16) | 100);
    }

    #[test]
    fn parse_and_display() {
        let c: Community = "65535:666".parse().unwrap();
        assert_eq!(c, Community::new(65535, 666));
        assert_eq!(c.to_string(), "65535:666");
        assert!("65536:1".parse::<Community>().is_err());
        assert!("no-colon".parse::<Community>().is_err());
    }

    #[test]
    fn blackhole_detection() {
        assert!(Community::blackhole(3356).is_blackhole());
        assert!(!Community::new(3356, 667).is_blackhole());
        let set = CommunitySet::from_iter([Community::new(1, 2), Community::blackhole(174)]);
        assert!(set.has_blackhole());
    }

    #[test]
    fn set_is_canonical() {
        let a = CommunitySet::from_iter([
            Community::new(2, 2),
            Community::new(1, 1),
            Community::new(2, 2),
        ]);
        let b = CommunitySet::from_iter([Community::new(1, 1), Community::new(2, 2)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = CommunitySet::new();
        assert!(s.insert(Community::new(5, 5)));
        assert!(!s.insert(Community::new(5, 5)));
        assert!(s.contains(&Community::new(5, 5)));
        assert!(s.remove(&Community::new(5, 5)));
        assert!(!s.remove(&Community::new(5, 5)));
        assert!(s.is_empty());
    }

    #[test]
    fn bgpdump_rendering() {
        let s = CommunitySet::from_iter([Community::new(2, 20), Community::new(1, 10)]);
        assert_eq!(s.to_string(), "1:10 2:20");
    }
}
