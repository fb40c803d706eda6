//! Allocation bounds of the TABLE_DUMP_V2 decoders: a corrupt record
//! controls its declared peer and entry counts, so no reservation may
//! be sized from them alone. Each record below declares 65 535 items
//! but carries one; decoding it must fail exactly as it always has
//! while allocating within a small multiple of its own length.
//!
//! The measurement needs a counting global allocator, which is why
//! this is a test binary of its own with one test in it.
#![allow(unsafe_code)] // the counting allocator; nothing else here

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mrt::MrtError::Truncated;
use mrt::{MrtError, MrtHeader, MrtRecord, MrtType};

/// The system allocator, tracking live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak bytes allocated on top of what was live while `f` ran.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

fn decode(subtype: u16, body: &[u8]) -> Result<MrtRecord, MrtError> {
    let header = MrtHeader {
        timestamp: 0,
        mrt_type: MrtType::TableDumpV2,
        subtype,
        length: body.len() as u32,
    };
    MrtRecord::decode(&header, body)
}

/// Peak allocation allowed per input byte.
const BYTES_PER_INPUT_BYTE: usize = 16;

#[test]
fn declared_counts_do_not_size_allocations() {
    let rib_row: &[u8] = &[
        0, 0, 0, 7, // sequence number
        8, 10, // 10.0.0.0/8
        0xff, 0xff, // entry count 65535
        0, 0, // peer index
        0, 0, 0, 1, // originated time
        0, 20, // attribute length
        0x40, 1, 1, 0, // ORIGIN IGP
        0x40, 2, 6, 2, 1, 0, 0, 0xfd, 0xe9, // AS_PATH 65001
        0x40, 3, 4, 192, 0, 2, 1, // NEXT_HOP
    ];
    let peer_index_table: &[u8] = &[
        10, 0, 0, 1, // collector BGP ID
        0, 0, // empty view name
        0xff, 0xff, // peer count 65535
        0x02, 192, 0, 2, 1, 192, 0, 2, 1, 0, 0, 0xfd, 0xe9, // one IPv4 peer
    ];
    let cases = [
        (2, rib_row, Truncated("RIB entry header")),
        (1, peer_index_table, Truncated("peer entry flags")),
    ];
    for (subtype, body, want) in cases {
        let (got, peak) = peak_during(|| decode(subtype, body));
        assert_eq!(got, Err(want));
        assert!(
            peak <= BYTES_PER_INPUT_BYTE * body.len(),
            "subtype {subtype}: {peak} bytes allocated for a {}-byte body",
            body.len()
        );
    }
}
