//! MRT — the Multi-Threaded Routing Toolkit routing information export
//! format (RFC 6396).
//!
//! RouteViews and RIPE RIS publish their RIB and Updates dumps as files
//! of MRT records; libBGPStream consumes them. This crate implements
//! both directions:
//!
//! * [`record::MrtRecord`] — one record (12-byte header + typed body);
//! * [`bgp4mp`] — `BGP4MP` bodies: `MESSAGE_AS4` (an embedded raw BGP
//!   message) and `STATE_CHANGE_AS4` (peer FSM transitions);
//! * [`table_dump_v2`] — `TABLE_DUMP_V2` bodies: the `PEER_INDEX_TABLE`
//!   that heads every RIB dump and the per-prefix `RIB_IPV4_UNICAST` /
//!   `RIB_IPV6_UNICAST` rows;
//! * [`raw::RawMrtView`] — the first half of the decoder: a view that
//!   frames a record body without decoding its UPDATE or RIB-row
//!   content, which filter pushdown scans for peers, NLRI and
//!   communities and which [`MrtRecord::decode`] then materialises —
//!   one grammar for both;
//! * [`reader::ChunkedReader`] — the record reader: frames records out
//!   of a bounded window refilled from any byte source (or an
//!   in-memory dump), sniffing and decompressing gzip on the fly, so
//!   dump files are never slurped whole into memory. It distinguishes
//!   clean end-of-file from *corrupted reads*: the paper extends
//!   libBGPdump to "signal a corrupted read" so that libBGPStream can
//!   mark records not-valid; [`MrtError`] is that signal here;
//! * [`writer::MrtWriter`] — the encoder used by the collector
//!   simulator to produce archives.
//!
//! Deviation from RFC 6396 noted in DESIGN.md: RIB rows encode their
//! IPv6 next hop with a full MP_REACH attribute (AFI/SAFI + next hop,
//! zero NLRI) rather than the truncated next-hop-only form; both forms
//! are accepted by real-world parsers and ours round-trips.

#![forbid(unsafe_code)]

pub mod bgp4mp;
pub mod raw;
pub mod reader;
pub mod record;
pub mod table_dump_v2;
pub mod writer;

pub use bgp4mp::Bgp4mp;
pub use raw::RawMrtView;
pub use reader::{ChunkedReader, MrtError, RawRecord};
pub use record::{MrtBody, MrtHeader, MrtRecord, MrtType};
pub use table_dump_v2::{PeerEntry, PeerIndexTable, RibEntry, RibRow};
pub use writer::MrtWriter;
