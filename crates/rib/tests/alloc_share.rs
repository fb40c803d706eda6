//! A Loc-RIB route clones without allocating: its AS path and its
//! communities are shared with the elem they came from, and the
//! journal event, the table row and a query's view all hold the same
//! attributes. The guard for the attributes themselves is
//! `bgp-types/tests/alloc_share.rs`.
//!
//! The measurement needs a counting global allocator, which is why
//! this is a test binary of its own with one test in it.
#![allow(unsafe_code)] // the counting allocator; nothing else here

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bgp_types::{AsPath, Community, CommunitySet};
use rib::RibRoute;

/// The system allocator, counting allocated bytes.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn cloning_a_route_allocates_nothing() {
    let route = RibRoute {
        path: Some(AsPath::from_sequence([65001, 3356, 137])),
        next_hop: Some("192.0.2.1".parse().unwrap()),
        communities: CommunitySet::from_iter([Community::new(3356, 100)]),
        updated_at: 10,
    };
    let before = ALLOCATED.load(Relaxed);
    let copies: [RibRoute; 4] = std::array::from_fn(|_| route.clone());
    assert_eq!(ALLOCATED.load(Relaxed) - before, 0);
    assert!(copies.iter().all(|c| *c == route));
}
