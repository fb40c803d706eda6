//! BGP message wire codec (RFC 4271), with multiprotocol extensions
//! (RFC 4760) for IPv6 NLRI.
//!
//! MRT `BGP4MP_MESSAGE(_AS4)` records embed a raw BGP message; this
//! module provides the encoder the collector simulator uses to produce
//! those records and the decoder libBGPStream uses to extract elems.
//! AS numbers are always encoded 4-byte (the `_AS4` record flavour),
//! matching what modern collectors emit.
//!
//! The wire grammar lives here once. [`MessageView`], [`UpdateView`],
//! [`walk_attrs`], [`walk_as_path`] and [`split_nlri`] frame and check
//! every structure without allocating; the decoder materialises on top
//! of them, and `mrt::raw`'s filter-pushdown scans walk the same
//! functions, so "the scan accepts these bytes" and "the decoder
//! accepts these bytes" cannot drift apart.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, Bytes, BytesMut};

use crate::asn::{AsPath, AsPathSegment, Asn};
use crate::attrs::{Origin, PathAttributes};
use crate::codec::Reader;
use crate::community::{Community, CommunitySet};
use crate::prefix::Prefix;

/// BGP message header marker: 16 bytes of 0xFF.
const MARKER: [u8; 16] = [0xFF; 16];
/// Fixed header size: marker + length + type.
pub const HEADER_LEN: usize = 19;
/// Maximum BGP message size (RFC 4271 §4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_COMMUNITIES: u8 = 8;
const ATTR_MP_REACH: u8 = 14;
const ATTR_MP_UNREACH: u8 = 15;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXT_LEN: u8 = 0x10;

const AFI_IPV4: u16 = 1;
const AFI_IPV6: u16 = 2;
const SAFI_UNICAST: u8 = 1;

const SEG_SET: u8 = 1;
const SEG_SEQUENCE: u8 = 2;

/// The error of every read through [`crate::codec::Reader`]: BGP wire
/// data here, the MRT and BMP records around it (whose decoders turn
/// it into their own error types), and every serialized state
/// (checkpoints, shard partials, queue messages, RIB journals and
/// snapshots).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Fewer bytes than a structure requires.
    Truncated(&'static str),
    /// A length field contradicts the enclosing structure.
    BadLength(&'static str),
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Unknown message type code.
    UnknownType(u8),
    /// A semantically invalid field (bad origin code, prefix length…).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated(w) => write!(f, "truncated {w}"),
            CodecError::BadLength(w) => write!(f, "bad length in {w}"),
            CodecError::BadMarker => write!(f, "bad BGP header marker"),
            CodecError::UnknownType(t) => write!(f, "unknown BGP message type {t}"),
            CodecError::Invalid(w) => write!(f, "invalid {w}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A BGP UPDATE message: withdrawals plus announcements sharing one
/// attribute set. IPv6 NLRI travels in MP_REACH/MP_UNREACH attributes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BgpUpdate {
    /// Prefixes no longer reachable.
    pub withdrawals: Vec<Prefix>,
    /// Shared path attributes (`None` for pure withdrawals).
    pub attrs: Option<PathAttributes>,
    /// Prefixes now reachable via `attrs`.
    pub announcements: Vec<Prefix>,
}

impl BgpUpdate {
    /// An announcement of `prefixes` with attributes `attrs`.
    pub fn announce(prefixes: Vec<Prefix>, attrs: PathAttributes) -> Self {
        BgpUpdate {
            withdrawals: Vec::new(),
            attrs: Some(attrs),
            announcements: prefixes,
        }
    }

    /// A withdrawal of `prefixes`.
    pub fn withdraw(prefixes: Vec<Prefix>) -> Self {
        BgpUpdate {
            withdrawals: prefixes,
            attrs: None,
            announcements: Vec::new(),
        }
    }

    /// True when the update carries nothing (keepalive-ish; collectors
    /// never emit these).
    pub fn is_empty(&self) -> bool {
        self.withdrawals.is_empty() && self.announcements.is_empty()
    }
}

/// A decoded BGP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMessage {
    /// Session open.
    Open {
        /// The speaker's AS number (AS_TRANS on the wire when > 16 bits).
        asn: Asn,
        /// Proposed hold time in seconds.
        hold_time: u16,
        /// The speaker's BGP identifier.
        bgp_id: u32,
    },
    /// Route update.
    Update(BgpUpdate),
    /// Error notification.
    Notification {
        /// Error code (RFC 4271 §4.5).
        code: u8,
        /// Error subcode.
        subcode: u8,
    },
    /// Keepalive.
    Keepalive,
}

impl BgpMessage {
    /// Encode to the full wire form (header + body).
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        let ty = match self {
            BgpMessage::Open {
                asn,
                hold_time,
                bgp_id,
            } => {
                body.put_u8(4); // version
                                // 2-byte ASN field: AS_TRANS for 4-byte ASNs.
                let as16 = if asn.0 > u16::MAX as u32 {
                    23456
                } else {
                    asn.0 as u16
                };
                body.put_u16(as16);
                body.put_u16(*hold_time);
                body.put_u32(*bgp_id);
                body.put_u8(0); // no optional parameters
                TYPE_OPEN
            }
            BgpMessage::Update(u) => {
                encode_update_body(u, &mut body);
                TYPE_UPDATE
            }
            BgpMessage::Notification { code, subcode } => {
                body.put_u8(*code);
                body.put_u8(*subcode);
                TYPE_NOTIFICATION
            }
            BgpMessage::Keepalive => TYPE_KEEPALIVE,
        };
        let mut out = BytesMut::with_capacity(HEADER_LEN + body.len());
        out.put_slice(&MARKER);
        out.put_u16((HEADER_LEN + body.len()) as u16);
        out.put_u8(ty);
        out.put_slice(&body);
        out.freeze()
    }

    /// Decode the message at the start of `buf`:
    /// [`MessageView::parse`], then the UPDATE's sections. Bytes past
    /// the length its header declares are ignored.
    pub fn decode(buf: &[u8]) -> Result<BgpMessage, CodecError> {
        match MessageView::parse(buf)? {
            MessageView::Update(update) => Ok(BgpMessage::Update(update.decode()?)),
            MessageView::Fixed(message) => Ok(message),
        }
    }
}

/// One BGP message after the header and fixed-size body checks, with
/// nothing allocated: the wire grammar that both
/// [`BgpMessage::decode`] and allocation-free scanners (MRT filter
/// pushdown) walk.
#[derive(Clone, Debug)]
pub enum MessageView<'a> {
    /// An UPDATE, split into its sections but not decoded.
    Update(UpdateView<'a>),
    /// An OPEN, NOTIFICATION or KEEPALIVE. Their bodies are fixed-size,
    /// so they are decoded in full.
    Fixed(BgpMessage),
}

impl<'a> MessageView<'a> {
    /// Check the RFC 4271 §4.1 header of the message at the start of
    /// `buf` (bytes past its declared length are ignored) and frame its
    /// body.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<MessageView<'a>, CodecError> {
        let mut r = Reader::new(buf, "BGP header");
        let marker = r.array::<16>()?;
        let total = r.u16()? as usize;
        let ty = r.u8()?;
        if marker != MARKER {
            return Err(CodecError::BadMarker);
        }
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
            return Err(CodecError::BadLength("BGP header"));
        }
        let body = r.relabel("BGP body").bytes(total - HEADER_LEN)?;
        let message = match ty {
            TYPE_UPDATE => return Ok(MessageView::Update(UpdateView::split(body)?)),
            TYPE_OPEN => {
                let mut r = Reader::new(body, "OPEN body");
                let _version = r.u8()?;
                let asn = Asn(r.u16()? as u32);
                let hold_time = r.u16()?;
                let bgp_id = r.u32()?;
                let _optional_parameters_len = r.u8()?;
                BgpMessage::Open {
                    asn,
                    hold_time,
                    bgp_id,
                }
            }
            TYPE_NOTIFICATION => {
                let mut r = Reader::new(body, "NOTIFICATION body");
                BgpMessage::Notification {
                    code: r.u8()?,
                    subcode: r.u8()?,
                }
            }
            TYPE_KEEPALIVE => BgpMessage::Keepalive,
            other => return Err(CodecError::UnknownType(other)),
        };
        Ok(MessageView::Fixed(message))
    }
}

fn split_by_family(prefixes: &[Prefix]) -> (Vec<Prefix>, Vec<Prefix>) {
    let (mut v4, mut v6) = (Vec::new(), Vec::new());
    for p in prefixes {
        if p.is_ipv4() {
            v4.push(*p);
        } else {
            v6.push(*p);
        }
    }
    (v4, v6)
}

fn encode_update_body(u: &BgpUpdate, out: &mut BytesMut) {
    let (wd_v4, wd_v6) = split_by_family(&u.withdrawals);
    let (ann_v4, ann_v6) = split_by_family(&u.announcements);

    // Withdrawn routes (IPv4 only in the base message).
    let mut wd = BytesMut::new();
    for p in &wd_v4 {
        encode_nlri(p, &mut wd);
    }
    out.put_u16(wd.len() as u16);
    out.put_slice(&wd);

    // Path attributes.
    let mut attrs = BytesMut::new();
    encode_attrs(u.attrs.as_ref(), &ann_v6, &wd_v6, false, &mut attrs);
    out.put_u16(attrs.len() as u16);
    out.put_slice(&attrs);

    // IPv4 NLRI.
    for p in &ann_v4 {
        encode_nlri(p, out);
    }
}

/// Encode a bare path-attribute sequence (no length prefix).
///
/// `ann_v6` prefixes are carried in an MP_REACH_NLRI attribute and
/// `wd_v6` in MP_UNREACH_NLRI. With `force_mp_nexthop`, an MP_REACH
/// attribute carrying only the IPv6 next hop (no NLRI) is emitted even
/// when `ann_v6` is empty — the shape TABLE_DUMP_V2 RIB rows use.
pub fn encode_attrs(
    a: Option<&PathAttributes>,
    ann_v6: &[Prefix],
    wd_v6: &[Prefix],
    force_mp_nexthop: bool,
    attrs: &mut BytesMut,
) {
    if let Some(a) = a {
        put_attr(attrs, FLAG_TRANSITIVE, ATTR_ORIGIN, &[a.origin.code()]);
        let mut path = BytesMut::new();
        encode_as_path(&a.as_path, &mut path);
        put_attr(attrs, FLAG_TRANSITIVE, ATTR_AS_PATH, &path);
        if let Some(IpAddr::V4(nh)) = a.next_hop {
            put_attr(attrs, FLAG_TRANSITIVE, ATTR_NEXT_HOP, &nh.octets());
        }
        if let Some(med) = a.med {
            put_attr(attrs, FLAG_OPTIONAL, ATTR_MED, &med.to_be_bytes());
        }
        if let Some(lp) = a.local_pref {
            put_attr(attrs, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, &lp.to_be_bytes());
        }
        if !a.communities.is_empty() {
            let mut cs = BytesMut::new();
            for c in a.communities.iter() {
                cs.put_u32(c.as_u32());
            }
            put_attr(
                attrs,
                FLAG_OPTIONAL | FLAG_TRANSITIVE,
                ATTR_COMMUNITIES,
                &cs,
            );
        }
        let v6_nexthop = matches!(a.next_hop, Some(IpAddr::V6(_)));
        if !ann_v6.is_empty() || (force_mp_nexthop && v6_nexthop) {
            let mut mp = BytesMut::new();
            mp.put_u16(AFI_IPV6);
            mp.put_u8(SAFI_UNICAST);
            let nh6: Ipv6Addr = match a.next_hop {
                Some(IpAddr::V6(nh)) => nh,
                _ => Ipv6Addr::UNSPECIFIED,
            };
            mp.put_u8(16);
            mp.put_slice(&nh6.octets());
            mp.put_u8(0); // reserved (SNPA count)
            for p in ann_v6 {
                encode_nlri(p, &mut mp);
            }
            put_attr(attrs, FLAG_OPTIONAL, ATTR_MP_REACH, &mp);
        }
    }
    if !wd_v6.is_empty() {
        let mut mp = BytesMut::new();
        mp.put_u16(AFI_IPV6);
        mp.put_u8(SAFI_UNICAST);
        for p in wd_v6 {
            encode_nlri(p, &mut mp);
        }
        put_attr(attrs, FLAG_OPTIONAL, ATTR_MP_UNREACH, &mp);
    }
}

fn put_attr(out: &mut BytesMut, flags: u8, ty: u8, data: &[u8]) {
    if data.len() > u8::MAX as usize {
        out.put_u8(flags | FLAG_EXT_LEN);
        out.put_u8(ty);
        out.put_u16(data.len() as u16);
    } else {
        out.put_u8(flags);
        out.put_u8(ty);
        out.put_u8(data.len() as u8);
    }
    out.put_slice(data);
}

fn encode_as_path(path: &AsPath, out: &mut BytesMut) {
    for seg in path.segments() {
        let (ty, asns) = match seg {
            AsPathSegment::Set(v) => (SEG_SET, v),
            AsPathSegment::Sequence(v) => (SEG_SEQUENCE, v),
        };
        // RFC limits a segment to 255 ASNs; split long sequences.
        for chunk in asns.chunks(255) {
            out.put_u8(ty);
            out.put_u8(chunk.len() as u8);
            for a in chunk {
                out.put_u32(a.0);
            }
        }
    }
}

/// Walk the segments of an AS_PATH value (4-byte ASNs), handing each
/// to `f` as `(is_set, asn bytes)`. Validates exactly what
/// [`decode_attrs`] does, without allocating.
pub fn walk_as_path<'a>(
    buf: &'a [u8],
    mut f: impl FnMut(bool, &'a [u8]),
) -> Result<(), CodecError> {
    let mut r = Reader::new(buf, "AS_PATH segment header");
    while !r.is_empty() {
        let [ty, count] = r.relabel("AS_PATH segment header").array()?;
        let asns = r
            .relabel("AS_PATH segment body")
            .bytes(count as usize * 4)?;
        let is_set = match ty {
            SEG_SET => true,
            SEG_SEQUENCE => false,
            _ => return Err(CodecError::Invalid("AS_PATH segment type")),
        };
        f(is_set, asns);
    }
    Ok(())
}

/// Split the next segment, `(is_set, asn bytes)`, off an AS_PATH value
/// [`walk_as_path`] has already validated.
fn next_segment<'a>(buf: &mut &'a [u8]) -> Option<(bool, &'a [u8])> {
    let ([ty, count], rest) = buf.split_first_chunk::<2>()?;
    let (asns, rest) = rest.split_at_checked(*count as usize * 4)?;
    *buf = rest;
    Some((*ty == SEG_SET, asns))
}

/// Whether a wire segment of `len` ASN bytes continues the segment
/// before it, `prev`: [`encode_as_path`] splits a sequence longer than
/// 255 hops into 255-hop segments, so consecutive sequences belong to
/// one run when either of them is full.
fn continues(prev: Option<(bool, usize)>, is_set: bool, len: usize) -> bool {
    const FULL: usize = 255 * 4;
    matches!(prev, Some((false, prev_len)) if !is_set && (prev_len == FULL || len == FULL))
}

fn asns_of(wire: &[u8]) -> impl Iterator<Item = Asn> + '_ {
    wire.as_chunks::<4>()
        .0
        .iter()
        .map(|w| Asn(u32::from_be_bytes(*w)))
}

fn decode_as_path(buf: &[u8]) -> Result<AsPath, CodecError> {
    // Validate, and count the segments left once the 255-hop pieces of
    // long sequences merge back.
    let mut count = 0;
    let mut prev = None;
    walk_as_path(buf, |is_set, asns| {
        count += usize::from(!continues(prev, is_set, asns.len()));
        prev = Some((is_set, asns.len()));
    })?;
    if count == 0 {
        return Ok(AsPath::empty());
    }
    // Then build the merged segments straight into the one shared
    // slice: a length-known iterator collects with a single allocation.
    let mut rest = buf;
    let mut wire = std::iter::from_fn(|| next_segment(&mut rest)).peekable();
    let mut merged = || {
        // Validated above: the walk yields `count` runs.
        let Some((is_set, first)) = wire.next() else {
            return AsPathSegment::Sequence(Vec::new());
        };
        let mut asns: Vec<Asn> = asns_of(first).collect();
        let mut last = first.len();
        while let Some((_, more)) =
            wire.next_if(|&(set, more)| continues(Some((is_set, last)), set, more.len()))
        {
            asns.extend(asns_of(more));
            last = more.len();
        }
        if is_set {
            AsPathSegment::Set(asns)
        } else {
            AsPathSegment::Sequence(asns)
        }
    };
    Ok(AsPath::from_shared((0..count).map(|_| merged()).collect()))
}

/// Encode a prefix in NLRI form: length byte + minimal network bytes.
pub fn encode_nlri(p: &Prefix, out: &mut BytesMut) {
    out.put_u8(p.len());
    let nbytes = (p.len() as usize).div_ceil(8);
    let raw = p.raw_bits().to_be_bytes();
    out.put_slice(&raw[..nbytes]);
}

/// Split one NLRI entry off `buf` — its prefix length and the minimal
/// network bytes — validating it as [`decode_nlri`] does, without
/// building the [`Prefix`].
#[inline]
pub fn split_nlri<'a>(buf: &mut &'a [u8], v4: bool) -> Result<(u8, &'a [u8]), CodecError> {
    let mut r = Reader::new(buf, "NLRI length");
    let len = r.u8()?;
    if len > if v4 { 32 } else { 128 } {
        return Err(CodecError::Invalid("NLRI prefix length"));
    }
    let network = r.relabel("NLRI body").bytes((len as usize).div_ceil(8))?;
    *buf = r.rest();
    Ok((len, network))
}

/// Decode one NLRI entry from `buf`, advancing it.
pub fn decode_nlri(buf: &mut &[u8], v4: bool) -> Result<Prefix, CodecError> {
    let (len, network) = split_nlri(buf, v4)?;
    let mut raw = [0u8; 16];
    raw[..network.len()].copy_from_slice(network);
    let bits = u128::from_be_bytes(raw);
    Ok(if v4 {
        Prefix::v4(Ipv4Addr::from((bits >> 96) as u32), len)
    } else {
        Prefix::v6(Ipv6Addr::from(bits), len)
    })
}

/// Decode a whole NLRI block onto the end of `out`.
fn decode_nlri_block(mut block: &[u8], v4: bool, out: &mut Vec<Prefix>) -> Result<(), CodecError> {
    while !block.is_empty() {
        out.push(decode_nlri(&mut block, v4)?);
    }
    Ok(())
}

/// The result of decoding a bare path-attribute sequence.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DecodedAttrs {
    /// The recognised attributes.
    pub attrs: PathAttributes,
    /// True if at least one attribute was present.
    pub present: bool,
    /// Prefixes announced via MP_REACH_NLRI.
    pub mp_announcements: Vec<Prefix>,
    /// Prefixes withdrawn via MP_UNREACH_NLRI.
    pub mp_withdrawals: Vec<Prefix>,
}

/// An UPDATE body (RFC 4271 §4.3) split into its three sections,
/// borrowed and not yet decoded. IPv6 NLRI travels inside the
/// attribute block (MP_REACH / MP_UNREACH, reached with
/// [`walk_attrs`]).
#[derive(Clone, Copy, Debug)]
pub struct UpdateView<'a> {
    /// Base withdrawn-routes NLRI (IPv4), already validated by
    /// [`UpdateView::split`].
    pub withdrawn: &'a [u8],
    /// The bare path-attribute block.
    pub attrs: &'a [u8],
    /// Base announced NLRI (IPv4).
    pub nlri: &'a [u8],
}

impl<'a> UpdateView<'a> {
    /// Split an UPDATE body into its sections. The withdrawn routes
    /// are validated on the way past, so errors surface in wire order:
    /// [`UpdateView::decode`] then reports the attribute and NLRI
    /// errors that follow them.
    #[inline]
    pub fn split(body: &'a [u8]) -> Result<UpdateView<'a>, CodecError> {
        let mut r = Reader::new(body, "UPDATE withdrawn length");
        let wd_len = r.u16()? as usize;
        let withdrawn = r.relabel("UPDATE withdrawn routes").section(wd_len)?;
        let mut wd = withdrawn;
        while !wd.is_empty() {
            split_nlri(&mut wd, true)?;
        }
        let attr_len = r.relabel("UPDATE attribute length").u16()? as usize;
        let attrs = r.relabel("UPDATE path attributes").section(attr_len)?;
        let nlri = r.rest();
        Ok(UpdateView {
            withdrawn,
            attrs,
            nlri,
        })
    }

    /// Materialise the update.
    pub fn decode(&self) -> Result<BgpUpdate, CodecError> {
        let mut withdrawals = Vec::new();
        decode_nlri_block(self.withdrawn, true, &mut withdrawals)?;
        let decoded = decode_attrs(self.attrs)?;
        withdrawals.extend(decoded.mp_withdrawals);
        let mut announcements = decoded.mp_announcements;
        decode_nlri_block(self.nlri, true, &mut announcements)?;
        Ok(BgpUpdate {
            withdrawals,
            attrs: decoded.present.then_some(decoded.attrs),
            announcements,
        })
    }
}

/// One path attribute, checked the way [`decode_attrs`] checks it but
/// not materialised. Nested variable-length structures — AS_PATH
/// segments and MP NLRI — are left for the caller to walk, with
/// [`walk_as_path`] and [`split_nlri`]/[`decode_nlri`], so each is
/// walked once.
#[derive(Clone, Copy, Debug)]
pub enum AttrView<'a> {
    /// ORIGIN.
    Origin(Origin),
    /// AS_PATH segments (unchecked until walked).
    AsPath(&'a [u8]),
    /// NEXT_HOP (IPv4).
    NextHop(Ipv4Addr),
    /// MULTI_EXIT_DISC.
    Med(u32),
    /// LOCAL_PREF.
    LocalPref(u32),
    /// COMMUNITIES values, a whole number of 4-byte communities.
    Communities(&'a [u8]),
    /// MP_REACH_NLRI (RFC 4760).
    MpReach {
        /// The IPv6 next hop, when the attribute carries one.
        next_hop: Option<Ipv6Addr>,
        /// Whether the NLRI is IPv4 (AFI 1); anything else is read as
        /// IPv6.
        v4: bool,
        /// The announced NLRI block.
        nlri: &'a [u8],
    },
    /// MP_UNREACH_NLRI (RFC 4760).
    MpUnreach {
        /// Whether the NLRI is IPv4 (AFI 1).
        v4: bool,
        /// The withdrawn NLRI block.
        nlri: &'a [u8],
    },
    /// Any other type: skipped, as bgpdump does.
    Other,
}

/// Walk a bare path-attribute block (no length prefix), handing each
/// attribute to `f` in wire order. Stops at the first error from the
/// walk, from an attribute's own checks, or from `f`.
pub fn walk_attrs<'a>(
    block: &'a [u8],
    mut f: impl FnMut(AttrView<'a>) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let mut r = Reader::new(block, "attribute header");
    while !r.is_empty() {
        let [flags, ty] = r.relabel("attribute header").array()?;
        let len = if flags & FLAG_EXT_LEN != 0 {
            r.relabel("attribute ext length").u16()? as usize
        } else {
            r.relabel("attribute length").u8()? as usize
        };
        let data = r.relabel("attribute body").section(len)?;
        f(attr_view(ty, data)?)?;
    }
    Ok(())
}

#[inline]
fn attr_view(ty: u8, data: &[u8]) -> Result<AttrView<'_>, CodecError> {
    let four = |what| Reader::new(data, what).exact::<4>();
    Ok(match ty {
        ATTR_ORIGIN => {
            let [code] = Reader::new(data, "ORIGIN").exact()?;
            AttrView::Origin(Origin::from_code(code).ok_or(CodecError::Invalid("ORIGIN code"))?)
        }
        ATTR_AS_PATH => AttrView::AsPath(data),
        ATTR_NEXT_HOP => AttrView::NextHop(Ipv4Addr::from(four("NEXT_HOP")?)),
        ATTR_MED => AttrView::Med(u32::from_be_bytes(four("MED")?)),
        ATTR_LOCAL_PREF => AttrView::LocalPref(u32::from_be_bytes(four("LOCAL_PREF")?)),
        ATTR_COMMUNITIES => {
            if !data.len().is_multiple_of(4) {
                return Err(CodecError::BadLength("COMMUNITIES"));
            }
            AttrView::Communities(data)
        }
        ATTR_MP_REACH => {
            let mut r = Reader::new(data, "MP_REACH header");
            // AFI, SAFI and the next-hop length; then the next hop and
            // one reserved byte.
            r.need(5)?;
            let afi = r.u16()?;
            let _safi = r.u8()?;
            let nh_len = r.u8()? as usize;
            let next_hop = r.relabel("MP_REACH next hop").bytes(nh_len)?;
            let _reserved = r.u8()?;
            AttrView::MpReach {
                // Only a next hop of at least 16 bytes carries an address.
                next_hop: match Reader::new(next_hop, "MP_REACH next hop").u128() {
                    Ok(nh) if afi == AFI_IPV6 => Some(Ipv6Addr::from(nh)),
                    _ => None,
                },
                v4: afi == AFI_IPV4,
                nlri: r.rest(),
            }
        }
        ATTR_MP_UNREACH => {
            let mut r = Reader::new(data, "MP_UNREACH header");
            let afi = r.u16()?;
            let _safi = r.u8()?;
            AttrView::MpUnreach {
                v4: afi == AFI_IPV4,
                nlri: r.rest(),
            }
        }
        _ => AttrView::Other,
    })
}

/// Decode a bare path-attribute sequence (no length prefix).
pub fn decode_attrs(block: &[u8]) -> Result<DecodedAttrs, CodecError> {
    let mut out = DecodedAttrs::default();
    walk_attrs(block, |attr| {
        out.present = true;
        let attrs = &mut out.attrs;
        match attr {
            AttrView::Origin(origin) => attrs.origin = origin,
            AttrView::AsPath(segments) => attrs.as_path = decode_as_path(segments)?,
            AttrView::NextHop(nh) => attrs.next_hop = Some(IpAddr::V4(nh)),
            AttrView::Med(med) => attrs.med = Some(med),
            AttrView::LocalPref(lp) => attrs.local_pref = Some(lp),
            AttrView::Communities(values) => {
                attrs.communities = CommunitySet::from_iter(
                    Reader::new(values, "COMMUNITIES")
                        .u32s(values.len() / 4)?
                        .map(Community::from_u32),
                );
            }
            AttrView::MpReach { next_hop, v4, nlri } => {
                if let Some(nh) = next_hop {
                    attrs.next_hop = Some(IpAddr::V6(nh));
                }
                decode_nlri_block(nlri, v4, &mut out.mp_announcements)?;
            }
            AttrView::MpUnreach { v4, nlri } => {
                decode_nlri_block(nlri, v4, &mut out.mp_withdrawals)?;
            }
            AttrView::Other => {}
        }
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::Community;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn sample_attrs() -> PathAttributes {
        let mut a = PathAttributes::route(
            AsPath::from_sequence([65001, 3356, 137]),
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
        );
        a.communities.insert(Community::new(3356, 100));
        a.communities.insert(Community::blackhole(3356));
        a.med = Some(50);
        a
    }

    #[test]
    fn update_roundtrip_v4() {
        let u = BgpUpdate {
            withdrawals: vec![p("198.51.100.0/24")],
            attrs: Some(sample_attrs()),
            announcements: vec![p("203.0.113.0/24"), p("203.0.113.0/25")],
        };
        let wire = BgpMessage::Update(u.clone()).encode();
        let back = BgpMessage::decode(&wire).unwrap();
        assert_eq!(back, BgpMessage::Update(u));
    }

    #[test]
    fn update_roundtrip_v6() {
        let mut a = PathAttributes::route(
            AsPath::from_sequence([65001, 6939]),
            IpAddr::V6("2001:db8::1".parse().unwrap()),
        );
        a.origin = Origin::Incomplete;
        let u = BgpUpdate {
            withdrawals: vec![p("2001:db8:dead::/48")],
            attrs: Some(a),
            announcements: vec![p("2001:db8:beef::/48")],
        };
        let wire = BgpMessage::Update(u.clone()).encode();
        let back = BgpMessage::decode(&wire).unwrap();
        assert_eq!(back, BgpMessage::Update(u));
    }

    #[test]
    fn pure_withdrawal_roundtrip() {
        let u = BgpUpdate::withdraw(vec![p("10.0.0.0/8"), p("10.1.0.0/16")]);
        let wire = BgpMessage::Update(u.clone()).encode();
        match BgpMessage::decode(&wire).unwrap() {
            BgpMessage::Update(back) => {
                assert_eq!(back.withdrawals, u.withdrawals);
                assert!(back.attrs.is_none());
                assert!(back.announcements.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mixed_family_update_roundtrip() {
        let mut a = sample_attrs();
        a.next_hop = Some(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        let u = BgpUpdate {
            withdrawals: vec![p("198.51.100.0/24"), p("2001:db8:1::/48")],
            attrs: Some(a),
            announcements: vec![p("203.0.113.0/24")],
        };
        let wire = BgpMessage::Update(u.clone()).encode();
        match BgpMessage::decode(&wire).unwrap() {
            BgpMessage::Update(back) => {
                // Withdrawals may be reordered (v6 travels in MP_UNREACH).
                let mut got = back.withdrawals.clone();
                let mut want = u.withdrawals.clone();
                got.sort();
                want.sort();
                assert_eq!(got, want);
                assert_eq!(back.announcements, u.announcements);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keepalive_and_notification_roundtrip() {
        let wire = BgpMessage::Keepalive.encode();
        assert_eq!(wire.len(), HEADER_LEN);
        assert_eq!(BgpMessage::decode(&wire).unwrap(), BgpMessage::Keepalive);

        let n = BgpMessage::Notification {
            code: 6,
            subcode: 2,
        };
        assert_eq!(BgpMessage::decode(&n.encode()).unwrap(), n);
    }

    #[test]
    fn open_roundtrip_small_asn() {
        let o = BgpMessage::Open {
            asn: Asn(65001),
            hold_time: 180,
            bgp_id: 0x0a000001,
        };
        assert_eq!(BgpMessage::decode(&o.encode()).unwrap(), o);
    }

    #[test]
    fn open_large_asn_uses_as_trans() {
        let o = BgpMessage::Open {
            asn: Asn(400_000),
            hold_time: 90,
            bgp_id: 1,
        };
        match BgpMessage::decode(&o.encode()).unwrap() {
            BgpMessage::Open { asn, .. } => assert_eq!(asn, Asn(23456)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_bad_marker() {
        let mut wire = BgpMessage::Keepalive.encode().to_vec();
        wire[3] = 0;
        assert_eq!(BgpMessage::decode(&wire), Err(CodecError::BadMarker));
    }

    #[test]
    fn decode_rejects_truncation() {
        let wire =
            BgpMessage::Update(BgpUpdate::announce(vec![p("10.0.0.0/8")], sample_attrs())).encode();
        for cut in [0, 5, HEADER_LEN, wire.len() - 1] {
            assert!(BgpMessage::decode(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_prefix_len() {
        // Hand-build an update whose NLRI claims /40 on IPv4.
        let mut body = BytesMut::new();
        body.put_u16(0); // no withdrawals
        body.put_u16(0); // no attributes
        body.put_u8(40); // bogus prefix length
        body.put_slice(&[1, 2, 3, 4, 5]);
        let mut wire = BytesMut::new();
        wire.put_slice(&MARKER);
        wire.put_u16((HEADER_LEN + body.len()) as u16);
        wire.put_u8(TYPE_UPDATE);
        wire.put_slice(&body);
        assert!(matches!(
            BgpMessage::decode(&wire),
            Err(CodecError::Invalid("NLRI prefix length"))
        ));
    }

    #[test]
    fn attribute_errors_name_the_first_broken_field() {
        // (flags, type, value) → the error decode_attrs reports.
        let cases: [(&[u8], CodecError); 5] = [
            (&[0x40], CodecError::Truncated("attribute header")),
            (&[0x50, 2, 0], CodecError::Truncated("attribute ext length")),
            (
                &[0x80, 14, 4, 0, 2, 1, 16],
                CodecError::Truncated("MP_REACH header"),
            ),
            (
                &[0x80, 14, 5, 0, 2, 1, 16, 0],
                CodecError::Truncated("MP_REACH next hop"),
            ),
            (
                &[0x80, 15, 2, 0, 2],
                CodecError::Truncated("MP_UNREACH header"),
            ),
        ];
        for (block, want) in cases {
            assert_eq!(decode_attrs(block), Err(want), "{block:?}");
        }
    }

    #[test]
    fn long_as_path_splits_and_merges() {
        // 300 hops forces two wire segments that must re-merge.
        let hops: Vec<u32> = (1..=300).collect();
        let u = BgpUpdate::announce(
            vec![p("10.0.0.0/8")],
            PathAttributes::route(
                AsPath::from_sequence(hops.clone()),
                IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            ),
        );
        let wire = BgpMessage::Update(u).encode();
        match BgpMessage::decode(&wire).unwrap() {
            BgpMessage::Update(back) => {
                let path = back.attrs.unwrap().as_path;
                assert_eq!(path.hop_count(), 300);
                assert_eq!(path.asns().map(|a| a.0).collect::<Vec<_>>(), hops);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_path_of_three_wire_segments_merges_back() {
        // 600 hops: two full 255-hop segments and a 90-hop tail.
        let hops: Vec<u32> = (1..=600).collect();
        let path = AsPath::from_sequence(hops);
        let mut attrs = BytesMut::new();
        encode_as_path(&path, &mut attrs);
        assert_eq!(decode_as_path(&attrs).unwrap(), path);
        // A set between two sequences stays three segments.
        let mixed = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![Asn(1)]),
            AsPathSegment::Set(vec![Asn(2), Asn(3)]),
            AsPathSegment::Sequence(vec![Asn(4)]),
        ]);
        let mut attrs = BytesMut::new();
        encode_as_path(&mixed, &mut attrs);
        assert_eq!(decode_as_path(&attrs).unwrap(), mixed);
        assert_eq!(decode_as_path(&[]).unwrap(), AsPath::empty());
    }

    #[test]
    fn nlri_zero_length_prefix() {
        let mut out = BytesMut::new();
        encode_nlri(&p("0.0.0.0/0"), &mut out);
        assert_eq!(out.as_ref(), &[0u8]);
        let mut sl: &[u8] = &out;
        assert_eq!(decode_nlri(&mut sl, true).unwrap(), p("0.0.0.0/0"));
    }
}
