//! BGPCorsaro (§6.1): continuous extraction of derived data from a
//! BGP stream in regular time bins, through a pipeline of plugins.
//!
//! Because libBGPStream provides a time-sorted stream of records,
//! BGPCorsaro can recognise the end of a time bin even when processing
//! data from multiple collectors: the runner watches record
//! timestamps and calls every plugin's `end_bin` when a boundary
//! passes.
//!
//! * [`pipeline`] — the [`pipeline::Plugin`] trait and the
//!   bin-driving runner;
//! * [`pfxmonitor`] — the §6.1 sample plugin: monitors prefixes
//!   overlapping a set of IP ranges and reports, per bin, the number
//!   of unique prefixes and unique origin ASNs (Figure 6);
//! * [`rt`] — the routing-tables (RT) plugin of §6.2.1: reconstructs
//!   each VP's observable Loc-RIB from RIB and Updates dumps via the
//!   Figure 8 FSM (shadow cells, events E1–E4), publishes per-bin
//!   diffs (§6.2.2, Figure 9) and tracks its own accuracy;
//! * [`codec`] — the diff/full-table serialization used for the
//!   Kafka-like queue;
//! * [`tag`] — §6.1's stateless classification/tagging class: taggers,
//!   the [`tag::Tagged`] gate that runs under every runner, and a
//!   per-bin tag counter;
//! * [`ribfeed`] — the RIB-feeding plugin: runs a `rib::RibFold`
//!   inside either runtime so live bin closes advance the queryable
//!   RIB watermark (`rib::RibQuery` resolves against the same store);
//! * [`runtime`] — the sharded multi-core runtime: fans the sorted
//!   elem stream out to N shard workers (hash-partitioned by prefix
//!   or by peer, declared per plugin via
//!   [`pipeline::Plugin::partitioning`]) and merges per-bin shard
//!   outputs deterministically, so results are byte-identical to the
//!   sequential pipeline.

#![forbid(unsafe_code)]

pub mod codec;
pub mod pfxmonitor;
pub mod pipeline;
pub mod ribfeed;
pub mod rt;
pub mod runtime;
pub mod stats;
pub mod tag;

pub use pfxmonitor::{PfxMonitor, PfxPoint};
pub use pipeline::{run_pipeline, run_pipeline_until, Partitioning, Plugin};
pub use ribfeed::RibFeeder;
pub use rt::{RtBinStats, RtErrorStats, RtPlugin};
pub use runtime::{
    BinStatus, Chaos, KillSpec, LiveRunReport, RuntimeError, ShardedPlugin, ShardedRuntime,
    ShardedRuntimeBuilder, Supervisor, SupervisorConfig,
};
pub use stats::{BinCounters, ElemCounter, StatsPoint};
pub use tag::{tag_record, ClassifierTagger, GeoTagger, TagCounter, TagSet, Tagged, Tagger};
