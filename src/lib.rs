//! Workspace root: canned simulation worlds shared by the runnable
//! examples, the integration tests and the benchmark harness.
//!
//! The individual crates are re-exported so examples can depend on a
//! single crate:
//!
//! * [`bgpstream`] — libBGPStream (core library);
//! * [`collector_sim`] / [`topology`] — the data-provider substrate;
//! * [`broker`], [`mrt`], [`bgp_types`] — lower layers;
//! * [`corsaro`], [`mq`], [`consumers`], [`analytics`] — upper layers;
//! * [`rib`] — stateful RIB reconstruction and time-travel queries;
//! * [`bmp`] — the RFC 7854 router-direct data path (§7 roadmap).
//!
//! Applications should start from the [`prelude`], which re-exports
//! the blessed surface without the crate paths.

#![forbid(unsafe_code)]

pub use analytics;
pub use bgp_types;
pub use bgpstream;
pub use bmp;
pub use broker;
pub use bsync;
pub use collector_sim;
pub use consumers;
pub use corsaro;
pub use mq;
pub use mrt;
pub use rib;
pub use topology;

pub mod worlds;

/// The blessed user-facing surface, one import away:
///
/// ```
/// use bgpstream_repro::prelude::*;
///
/// let index = Index::shared();
/// let builder = BgpStream::builder()
///     .broker_client(LocalBroker::shared(index))
///     .filters(Filters::default());
/// let query = RibQuery::new().at(0);
/// # let _ = (builder, query);
/// ```
///
/// Configuration (`BgpStreamBuilder`, `DataInterface`, `Filters`),
/// reading (`BgpStream`, records, elems), continuous processing
/// (`run_pipeline`, `ShardedRuntime`, `Supervisor`), and RIB
/// reconstruction (`RibFold`, `RibFeeder`, `RibQuery`,
/// `MemoryRibStore`) — deep crate paths stay available for the rest.
pub mod prelude {
    pub use bgp_types::{AsPath, Asn, Community, CommunitySet, Prefix};
    pub use bgpstream::{
        parse_filter_string, BgpStream, BgpStreamBuilder, BgpStreamElem, BgpStreamRecord, ElemType,
        Filters, RecordStatus,
    };
    pub use broker::{BrokerClient, DataInterface, DumpType, Index, LocalBroker, RemoteBroker};
    pub use corsaro::{
        run_pipeline, Plugin, RibFeeder, ShardedRuntime, ShardedRuntimeBuilder, Supervisor,
        SupervisorConfig,
    };
    pub use rib::{
        MemoryRibStore, PrefixMatch, RibError, RibFold, RibQuery, RibStore, RibTable, TableView,
    };
}
