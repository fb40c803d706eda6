//! Massive-dataset analyses (paper §4.2 and §5).
//!
//! The paper deploys PyBGPStream scripts on an Apache Spark cluster;
//! every script shares one structure: (i) build a list of data
//! partitions split by time range and collector, (ii) map a
//! stream-consuming function over every partition, (iii) reduce per
//! VP, per collector, and overall. [`mapreduce`] reproduces that
//! skeleton on a thread pool; [`analyses`] implements the actual
//! studies:
//!
//! * routing-table growth per VP and full/partial-feed classification
//!   (Figure 5a);
//! * MOAS sets over time, overall vs per collector (Figure 5b);
//! * transit-AS fraction for IPv4/IPv6 (Figure 5c);
//! * community diversity per VP/collector (Figure 5d);
//! * AS-path inflation (§4.2, Listing 1), using the [`asgraph`]
//!   undirected AS graph in place of NetworkX.

#![forbid(unsafe_code)]

pub mod analyses;
pub mod asgraph;
pub mod mapreduce;

pub use analyses::{
    community_diversity, full_feed_vps, moas_sets, path_inflation, rib_partitions, rib_size_per_vp,
    transit_fraction, CommunityDiversity, InflationReport, MoasPoint, RibPartition, RibSizePoint,
    TransitPoint,
};
pub use asgraph::AsGraph;
pub use mapreduce::par_map;
