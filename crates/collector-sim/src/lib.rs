//! Route-collector simulation: the data-provider substrate.
//!
//! RouteViews and RIPE RIS run collector processes that peer with
//! vantage-point routers (VPs), maintain an image of each VP's
//! Adj-RIB-Out, and periodically dump (i) RIB snapshots and (ii) the
//! update messages received in the last window, as MRT files in a
//! public archive (paper §2, Figure 1). This crate reproduces that
//! pipeline against the simulated control plane:
//!
//! * [`project`] — the two collection projects with their real
//!   cadences: RouteViews (RIB every 2 h, updates every 15 min, no
//!   state messages) and RIS (RIB every 8 h, updates every 5 min,
//!   state messages dumped);
//! * [`sim::Simulator`] — drives virtual time: applies scenario
//!   events to the control plane, maintains per-VP Adj-RIB-Out images,
//!   emits `BGP4MP` update records with per-VP jitter, rotates and
//!   publishes dump files (with configurable publication delay), and
//!   registers every published file with a broker [`broker::Index`];
//! * [`archive`] — the on-disk archive layout
//!   (`root/<project>/<collector>/<type>/<type>.<start>.mrt`) plus a
//!   CSV manifest;
//! * fault injection — truncated (corrupt) dump files and session
//!   resets, exercising libBGPStream's error paths and the RT
//!   plugin's E1–E4 handling;
//! * [`feeder::LiveFeeder`] — replays a finished archive into a broker
//!   index as a *publication process* (jittered delays, stalls,
//!   out-of-order and duplicate publication) with a truthful
//!   completeness watermark; the substrate live streams tail and CI
//!   soaks against;
//! * [`clients`] — synthetic broker tenants (historical pagers, live
//!   tailers with crash/resume) that soaks compose into a fleet
//!   against a served [`broker::BrokerService`].

#![forbid(unsafe_code)]

pub mod archive;
pub mod clients;
pub mod feeder;
pub mod project;
pub mod sim;

pub use clients::{page_history, ClientReport, LiveTail};
pub use feeder::{FaultPlan, FeederStats, LiveFeeder, Stall};
pub use project::{ProjectSpec, RIS, ROUTEVIEWS};
pub use sim::{
    standard_collectors, CollectorSpec, FaultConfig, SimConfig, SimStats, Simulator, VpSpec,
};
