//! Core BGP protocol model shared by the whole BGPStream reproduction.
//!
//! This crate implements the data model of the Border Gateway Protocol
//! (RFC 4271) as needed by a route-collector pipeline:
//!
//! * [`Asn`] and [`AsPath`] — autonomous-system numbers and AS paths,
//!   including `AS_SET` / `AS_SEQUENCE` segments;
//! * [`Prefix`] — IPv4/IPv6 CIDR prefixes with containment/overlap tests
//!   and a longest-prefix-match [`trie::PrefixTrie`];
//! * [`Community`] — RFC 1997 communities (including the conventional
//!   `ASN:666` black-holing communities used in Section 4.3 of the
//!   paper);
//! * [`attrs::PathAttributes`] — the subset of path attributes that MRT
//!   dumps carry and that `BGPStream elem`s expose (Table 1);
//! * [`message`] — wire-format encoding/decoding of BGP UPDATE messages
//!   (the payload of MRT `BGP4MP_MESSAGE` records);
//! * [`codec`] — the checked [`codec::Reader`] every wire format and
//!   serialized state in the workspace is decoded through, plus the
//!   state codec's writers, sort keys and checksum frames;
//! * [`fsm::SessionState`] — the BGP finite-state-machine states used by
//!   RIPE RIS `STATE_CHANGE` records and by the `old_state`/`new_state`
//!   elem fields.
//!
//! Everything here is deterministic, allocation-conscious and free of
//! I/O; the `mrt` crate layers the RFC 6396 container format on top.

#![forbid(unsafe_code)]

pub mod asn;
pub mod attrs;
pub mod codec;
pub mod community;
pub mod fsm;
pub mod message;
pub mod prefix;
pub mod trie;

pub use asn::{AsPath, AsPathSegment, Asn};
pub use attrs::{Origin, PathAttributes};
pub use community::{Community, CommunitySet, BLACKHOLE_VALUE};
pub use fsm::SessionState;
pub use message::{BgpMessage, BgpUpdate, CodecError};
pub use prefix::{Prefix, PrefixParseError};
pub use trie::PrefixTrie;
