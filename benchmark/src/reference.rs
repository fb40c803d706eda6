//! Reference values, computed by the harness after it built a world and
//! stored in `world.txt` for the measured process to be held against.

use std::sync::Arc;

use bgpstream_repro::prelude::*;

use crate::pipeline::{store_checksum, BIN};
use crate::workloads::{pipeline_pass, stream};
use crate::world::World;

/// Which references a workload's checks read.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Needs {
    /// Only the simulator's own record count (`rib_query` checks its
    /// answers against the journal it folded itself).
    Nothing,
    /// Counts from one plain read of the archive.
    Counts,
    /// Counts, plus the outputs of a sequential `run_pipeline`.
    Pipeline,
}

/// Fill `world.expect`. Panics if the references disagree among
/// themselves: then the world, not the program under test, is broken.
pub fn fill(world: &mut World, needs: Needs) {
    if needs == Needs::Nothing {
        return;
    }
    let index = world.index();
    // An unfiltered read, with the `hist_filtered` predicate applied by
    // hand to every elem: what pushdown must agree with.
    let (mut records, mut elems, mut filtered, mut max_ts) = (0u64, 0u64, 0u64, 0u64);
    let mut s = stream(world, &index).start();
    while let Some(rec) = s.next_record() {
        records += 1;
        max_ts = max_ts.max(rec.timestamp);
        elems += rec.elems().len() as u64;
        filtered += rec
            .elems()
            .iter()
            .filter(|e| {
                e.elem_type == ElemType::Announcement
                    && e.prefix.is_some_and(|p| world.filter_prefix.contains(&p))
            })
            .count() as u64;
    }
    assert_eq!(
        records, world.expect["sim_records"],
        "the stream must deliver every record the simulator wrote"
    );
    assert!(
        filtered > 0,
        "the filtered prefix never appears in the archive"
    );
    world.expect.extend([
        ("elems".to_string(), elems),
        ("filtered_elems".to_string(), filtered),
        ("max_ts".to_string(), max_ts),
    ]);

    if needs == Needs::Pipeline {
        let store = MemoryRibStore::shared();
        let (pass, set) = pipeline_pass(world, &index, store.clone() as Arc<dyn RibStore>, None);
        assert_eq!(
            pass.records, records,
            "run_pipeline saw another record count"
        );
        assert_eq!(
            set.total_elems(),
            elems,
            "ElemCounter saw another elem count"
        );
        assert_eq!(set.bins(), max_ts / BIN + 1, "bins are dense from time 0");
        world.expect.extend([
            ("bins".to_string(), set.bins()),
            ("series_checksum".to_string(), set.checksum()),
            ("store_checksum".to_string(), store_checksum(&*store)),
        ]);
    }
}
