//! BGPStream meta-data providers (paper §3.2).
//!
//! The paper's Broker is a web service that continuously scrapes the
//! RouteViews/RIS archives, stores meta-data about every dump file in
//! an SQL database, and answers windowed HTTP queries from
//! libBGPStream ("which files match these projects/collectors/types
//! over this time range, and where are they?"). Offline we keep the
//! exact query semantics and drop the HTTP transport:
//!
//! * [`Index`] — the meta-data store. The collector simulator
//!   registers each dump file as it is *published* (nominal time plus
//!   publication delay), so live-mode consumers observe the same
//!   variable-latency behaviour the paper measures (§2, §6.2.3).
//! * [`Query`]/[`BrokerCursor`] — windowed iteration: each call
//!   returns at most one window's worth of files (overload
//!   protection), the cursor advances, and an empty final window
//!   signals end-of-stream — or, in live mode, "poll again later"
//!   (§3.3.2's blocking query mechanism).
//! * [`DataInterface`] — the alternative local interfaces the paper
//!   ships besides the Broker: a single file and a CSV manifest.
//!   (The SQLite interface is omitted — no SQL engine in the allowed
//!   dependency set; the CSV interface covers the same use case.)
//! * [`LiveCursor`] — the incremental live query handle: windowed
//!   release (grace- or watermark-driven), exactly-once delivery
//!   across polls, and a completeness watermark downstream time bins
//!   close against (§"(ii) live data processing").
//! * [`mirror::MirrorSet`] — §3.2's load balancing: the Broker
//!   "can transparently round-robin amongst multiple mirror servers or
//!   adopt more sophisticated policies"; response paths are rewritten
//!   onto the selected mirror, with transparent fallback when a mirror
//!   lacks a file.
//!
//! The broker is also *served*: the paper's deployment is a
//! multi-tenant HTTP service that many independent libBGPStream
//! processes query concurrently. We reproduce that topology over the
//! in-repo message queue instead of HTTP:
//!
//! * [`BrokerClient`] — the one query surface streams drive. Two
//!   implementations: [`LocalBroker`] (wraps an [`Index`] in-process,
//!   zero cost) and [`RemoteBroker`] (speaks the [`wire`] protocol
//!   over `mq` topics to a [`BrokerService`]). A pipeline is
//!   byte-identical through either.
//! * [`BrokerService`] — the served side: a partitioned, sorted
//!   [`service::IndexView`] answers historical windows; per-client
//!   live leases carry [`LiveCursor`] state server-side so a crashed
//!   client can resume exactly-once by lease id; admission control
//!   sheds load with an explicit [`BrokerError::Busy`].
//! * [`wire`] — the small versioned request/response protocol
//!   (hand-rolled little-endian frames; no serialization deps).
//! * [`BrokerError`] — typed errors across the public broker API.

#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod index;
pub mod interface;
pub mod lease;
pub mod live;
pub mod mirror;
pub mod remote;
pub mod service;
pub mod source;
pub mod wire;

pub use client::{BrokerClient, LeaseId, LocalBroker};
pub use error::BrokerError;
pub use index::{BrokerCursor, DumpMeta, DumpType, Index, Query, Response};
pub use interface::DataInterface;
pub use live::{LiveCursor, LivePoll, ReleasePolicy};
pub use mirror::{MirrorPolicy, MirrorSet};
pub use remote::{RemoteBroker, RemoteConfig};
pub use service::{BrokerService, ServiceConfig, ServiceHandle, ServiceStats};
pub use source::{SourceId, SourceMeta};
