//! libBGPStream — the paper's core library (§3.3), in Rust.
//!
//! Provides (i) transparent access to concurrent dumps from multiple
//! collectors, of different collector projects, and of both RIB and
//! Updates; (ii) live data processing; (iii) data extraction,
//! annotation and error checking; (iv) generation of a time-ordered
//! stream of BGP measurement data; (v) an API through which the user
//! specifies and receives a stream.
//!
//! The shape mirrors the C API: a *configuration phase* (builder:
//! projects, collectors, record types, time interval or live mode,
//! content filters) followed by a *reading phase* (`next_record()` in
//! a loop, then per-record elem iteration):
//!
//! ```no_run
//! use bgpstream::{BgpStream, Filters};
//! use broker::{DumpType, Index, LocalBroker};
//!
//! let index = Index::shared();
//! let mut stream = BgpStream::builder()
//!     .broker_client(LocalBroker::shared(index))
//!     .project("ris")
//!     .record_type(DumpType::Updates)
//!     .interval(0, Some(3600))
//!     .start();
//! while let Some(record) = stream.next_record() {
//!     for elem in record.elems() {
//!         println!("{}", elem.peer_asn);
//!     }
//! }
//! ```
//!
//! Modules:
//!
//! * [`record`] — `BGPStream record`: the de-serialized MRT record
//!   plus error flag and annotations (project, collector, dump type,
//!   dump time, position-in-dump);
//! * [`elem`] — `BGPStream elem` (Table 1) and extraction from
//!   records, including peer resolution through RIB `PEER_INDEX_TABLE`s;
//! * [`filter`] — elem-level filters (peer, prefix with four match
//!   modes, communities with wildcards, elem type, AS-path regex, IP
//!   version);
//! * [`aspath_re`] — BGP-style AS-path regular expressions backing the
//!   `aspath` filter;
//! * [`filter_lang`] — the `parse_filter_string` mini-language
//!   (`"collector rrc00 and prefix more 10.0.0.0/8 and comm *:666"`);
//! * [`sort`] — the §3.3.4 sorted-stream machinery: overlap-partition
//!   of dump-file sets and per-group multi-way merge;
//! * [`stream`] — the user-facing stream: broker-windowed iteration,
//!   historical and live modes (client-pull, blocking poll);
//! * [`ascii`] — `bgpdump`-style one-line rendering (BGPReader).

#![forbid(unsafe_code)]

pub mod ascii;
pub mod aspath_re;
pub mod elem;
pub mod filter;
pub mod filter_lang;
pub mod record;
pub mod sort;
pub mod stream;

pub use aspath_re::AsPathRegex;
pub use broker::{BrokerClient, BrokerError, LeaseId};
pub use broker::{SourceId, SourceMeta};
pub use elem::{BgpStreamElem, ElemType};
pub use filter::{CommunityFilter, CompiledFilters, Filters, IpVersion};
pub use filter_lang::{parse_filter_string, FilterLangError, ParsedFilter};
pub use record::{BgpStreamRecord, DumpPosition, RecordStatus};
pub use stream::{
    BatchStep, BgpStream, BgpStreamBuilder, Clock, ElemSource, StreamStartError, StreamStats,
};
