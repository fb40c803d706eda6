//! Allocation guards of the shared route attributes.
//!
//! Every holder of a route — the elem, the RIB journal, the Loc-RIB
//! table, the RT cells — clones its AS path and communities. Those
//! clones must share the decoded attributes, not copy them, and
//! decoding must not pay for the sharing with extra allocations.
//!
//! The measurement needs a counting global allocator, which is why
//! this is a test binary of its own. Counts are per thread, so the
//! tests may run in parallel. `rib/tests/alloc_share.rs` holds the
//! same guard for a whole `RibRoute`.
#![allow(unsafe_code)] // the counting allocator; nothing else here

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};

use bgp_types::{AsPath, AsPathSegment, Asn, BgpMessage, BgpUpdate, Community, CommunitySet};
use bgp_types::{PathAttributes, Prefix};

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    /// Allocation calls and bytes requested on this thread.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(layout: Layout) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATED.try_with(|a| {
        let (n, bytes) = a.get();
        a.set((n + 1, bytes + layout.size()));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size` is valid for the
        // layout's alignment.
        count(unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) });
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and bytes `f` made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

fn communities() -> CommunitySet {
    CommunitySet::from_iter([Community::new(3356, 100), Community::blackhole(3356)])
}

#[test]
fn clones_share_instead_of_copying() {
    let paths = [
        AsPath::from_sequence([65001, 3356, 137]),
        AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(65001)]),
            AsPathSegment::Set(vec![Asn(7), Asn(8)]),
        ]),
        AsPath::empty(),
    ];
    for path in &paths {
        let (copy, n, bytes) = allocations(|| path.clone());
        assert_eq!((n, bytes), (0, 0), "cloning {path}");
        assert_eq!(&copy, path);
    }
    // Past the inline capacity the items are shared, not copied.
    let large = CommunitySet::from_iter((1..=9).map(|v| Community::new(3356, v)));
    for set in [communities(), large, CommunitySet::new()] {
        let (copy, n, bytes) = allocations(|| set.clone());
        assert_eq!((n, bytes), (0, 0), "cloning {set}");
        assert_eq!(copy, set);
    }
}

#[test]
fn small_community_sets_allocate_nothing() {
    let (set, n, _) = allocations(CommunitySet::new);
    assert_eq!(n, 0);
    let (_, n, _) = allocations(|| CommunitySet::from_iter(set.iter().copied()));
    assert_eq!(n, 0);
    let (_, n, _) = allocations(CommunitySet::default);
    assert_eq!(n, 0);
    // Up to five, unsorted and repeated, are sorted in place.
    let (small, n, _) =
        allocations(|| CommunitySet::from_iter([5, 1, 4, 1, 3].map(|v| Community::new(7, v))));
    assert_eq!(n, 0);
    assert_eq!(small.to_string(), "7:1 7:3 7:4 7:5");
}

/// Allocation calls of `BgpMessage::decode` on the UPDATE below before
/// the attributes were shared: the withdrawal and announcement lists,
/// the temporary segment list, the merged segment list, the ASN list
/// and the community list. Sharing needs the lists, the shared segment
/// slice and the ASN list: four.
const PARENT_UPDATE_DECODE_ALLOCATIONS: usize = 6;

#[test]
fn decoding_allocates_no_more_than_before_sharing() {
    let mut attrs = PathAttributes::route(
        AsPath::from_sequence([65001, 3356, 137]),
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
    );
    attrs.communities = communities();
    let prefix: Prefix = "193.204.0.0/15".parse().unwrap();
    let mut update = BgpUpdate::announce(vec![prefix], attrs);
    update.withdrawals = vec!["198.51.100.0/24".parse().unwrap()];
    let msg = BgpMessage::Update(update);
    let wire = msg.encode();
    let (back, n, _) = allocations(|| BgpMessage::decode(&wire));
    assert_eq!(back.unwrap(), msg);
    assert!(
        n <= PARENT_UPDATE_DECODE_ALLOCATIONS,
        "decode made {n} allocations, was {PARENT_UPDATE_DECODE_ALLOCATIONS}"
    );
}
