//! Serialization of RT plugin output for the message queue (§6.2.2).
//!
//! At the end of each time bin the RT plugin transmits the *changed*
//! portions of each VP's routing table ("diff cells"); periodically it
//! also transmits entire routing tables so consumers can (re)sync and
//! then apply subsequent diffs. Cells are written with the
//! [`bgp_types::codec`] primitives plugin checkpoints also use, so a
//! restored plugin publishes byte-identically to one that never died,
//! and read back through its checked [`Reader`].

use bgp_types::codec::{put_prefix, put_route, Reader};
use bgp_types::{AsPath, AsPathSegment, Asn, CodecError, Prefix};
use bytes::{BufMut, BytesMut};

/// One changed (or full-table) cell: the state of `<prefix, VP>`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiffCell {
    /// The VP's AS number.
    pub vp: Asn,
    /// The prefix.
    pub prefix: Prefix,
    /// The AS path of the selected route; `None` = withdrawn
    /// (the cell's A/W flag).
    pub path: Option<AsPath>,
}

/// Sort cells into the canonical publication order: `(vp, prefix,
/// path)`, a path by its hops and then, if it holds an `AS_SET`, by
/// its segments' kinds and lengths. Both the sequential RT plugin and
/// the sharded runtime's merge publish in this order, which is what
/// makes their queue payloads byte-identical (a `HashMap` drain order
/// would differ from run to run, let alone between shard layouts).
pub fn sort_cells(cells: &mut [DiffCell]) {
    cells.sort_by_cached_key(|c| {
        (
            c.vp.0,
            !c.prefix.is_ipv4(),
            c.prefix.len(),
            c.prefix.raw_bits(),
            c.path.as_ref().map(|p| {
                let hops: Vec<u32> = p.asns().map(|a| a.0).collect();
                // A path of sequences alone is written as its hops; one
                // with a set is told apart by its segments as well.
                let segments = p.segments();
                let is_set = |s: &AsPathSegment| matches!(s, AsPathSegment::Set(_));
                let shape: Vec<(bool, usize)> = if segments.iter().any(is_set) {
                    segments.iter().map(|s| (is_set(s), s.len())).collect()
                } else {
                    Vec::new()
                };
                (hops, shape)
            }),
        )
    });
}

/// Append the wire form of `cells` (count-prefixed) to `out`.
pub fn encode_cells(out: &mut BytesMut, cells: &[DiffCell]) {
    out.put_u32(cells.len() as u32);
    for c in cells {
        out.put_u32(c.vp.0);
        put_prefix(out, &c.prefix);
        put_route(out, c.path.as_ref());
    }
}

/// Decode a count-prefixed cell list.
pub fn decode_cells(r: &mut Reader<'_>) -> Result<Vec<DiffCell>, CodecError> {
    // vp + prefix + the 2-byte "no path" route
    let count = r.count(4 + 18 + 2)?;
    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        cells.push(DiffCell {
            vp: Asn(r.u32()?),
            prefix: r.prefix()?,
            path: r.route()?,
        });
    }
    Ok(cells)
}

/// An RT plugin bin message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RtMessage {
    /// Changed cells between the previous bin's table and this one.
    Diff {
        /// Producing collector.
        collector: String,
        /// Bin start time.
        bin: u64,
        /// Changed cells.
        cells: Vec<DiffCell>,
    },
    /// A complete routing-table snapshot (sync point for consumers).
    Full {
        /// Producing collector.
        collector: String,
        /// Bin start time.
        bin: u64,
        /// Every announced cell.
        cells: Vec<DiffCell>,
    },
}

impl RtMessage {
    /// Bin start time.
    pub fn bin(&self) -> u64 {
        match self {
            RtMessage::Diff { bin, .. } | RtMessage::Full { bin, .. } => *bin,
        }
    }

    /// Producing collector.
    pub fn collector(&self) -> &str {
        match self {
            RtMessage::Diff { collector, .. } | RtMessage::Full { collector, .. } => collector,
        }
    }

    /// The cells.
    pub fn cells(&self) -> &[DiffCell] {
        match self {
            RtMessage::Diff { cells, .. } | RtMessage::Full { cells, .. } => cells,
        }
    }

    /// Binary encoding.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, collector, bin, cells) = match self {
            RtMessage::Diff {
                collector,
                bin,
                cells,
            } => (0u8, collector, *bin, cells),
            RtMessage::Full {
                collector,
                bin,
                cells,
            } => (1u8, collector, *bin, cells),
        };
        let mut out = BytesMut::new();
        out.put_u8(kind);
        out.put_u64(bin);
        out.put_u16(collector.len() as u16);
        out.put_slice(collector.as_bytes());
        encode_cells(&mut out, cells);
        out.into()
    }

    /// Binary decoding.
    pub fn decode(buf: &[u8]) -> Result<RtMessage, CodecError> {
        let mut r = Reader::new(buf, "rt message");
        let kind = r.u8()?;
        let bin = r.u64()?;
        let collector = r.str16()?.into_owned();
        let cells = decode_cells(&mut r)?;
        r.finish()?;
        match kind {
            0 => Ok(RtMessage::Diff {
                collector,
                bin,
                cells,
            }),
            1 => Ok(RtMessage::Full {
                collector,
                bin,
                cells,
            }),
            _ => Err(CodecError::Invalid("rt message kind")),
        }
    }
}

/// Sync meta-data: `(collector, bin)` markers watched by sync servers.
pub fn encode_meta(collector: &str, bin: u64) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u64(bin);
    out.put_slice(collector.as_bytes());
    out.to_vec()
}

/// Decode a sync meta-data marker (the name runs to the end).
pub fn decode_meta(buf: &[u8]) -> Result<(String, u64), CodecError> {
    let mut r = Reader::new(buf, "rt meta marker");
    let bin = r.u64()?;
    Ok((String::from_utf8_lossy(r.rest()).into_owned(), bin))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<DiffCell> {
        vec![
            DiffCell {
                vp: Asn(65001),
                prefix: "193.204.0.0/15".parse().unwrap(),
                path: Some(AsPath::from_sequence([65001, 3356, 137])),
            },
            DiffCell {
                vp: Asn(65002),
                prefix: "2001:db8::/32".parse().unwrap(),
                path: None,
            },
        ]
    }

    #[test]
    fn cells_whose_hops_tie_sort_by_their_segments() {
        let cell = |segments| DiffCell {
            vp: Asn(65001),
            prefix: "193.204.0.0/15".parse().unwrap(),
            path: Some(AsPath::from_segments(segments)),
        };
        let set = cell(vec![
            AsPathSegment::Sequence(vec![Asn(1)]),
            AsPathSegment::Set(vec![Asn(2), Asn(3)]),
        ]);
        let seq = cell(vec![AsPathSegment::Sequence(vec![Asn(1), Asn(2), Asn(3)])]);
        let mut a = vec![set.clone(), seq.clone()];
        let mut b = vec![seq, set];
        sort_cells(&mut a);
        sort_cells(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn diff_roundtrip() {
        let m = RtMessage::Diff {
            collector: "rrc00".into(),
            bin: 300,
            cells: cells(),
        };
        assert_eq!(RtMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn full_roundtrip() {
        let m = RtMessage::Full {
            collector: "route-views2".into(),
            bin: 0,
            cells: vec![],
        };
        assert_eq!(RtMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(RtMessage::decode(&[]).is_err());
        assert!(RtMessage::decode(&[9; 20]).is_err());
        let mut ok = RtMessage::Diff {
            collector: "c".into(),
            bin: 1,
            cells: cells(),
        }
        .encode();
        ok.truncate(ok.len() - 3);
        assert!(RtMessage::decode(&ok).is_err());
    }

    #[test]
    fn sort_cells_is_canonical_regardless_of_input_order() {
        let mut a = cells();
        a.push(DiffCell {
            vp: Asn(65001),
            prefix: "193.204.0.0/15".parse().unwrap(),
            path: None,
        });
        let mut b = a.clone();
        b.reverse();
        sort_cells(&mut a);
        sort_cells(&mut b);
        assert_eq!(a, b);
        // v4 sorts before v6 for the same VP ordering rules.
        assert!(a[0].prefix.is_ipv4());
    }

    #[test]
    fn meta_roundtrip() {
        let raw = encode_meta("rrc12", 900);
        assert_eq!(decode_meta(&raw).unwrap(), ("rrc12".to_string(), 900));
        assert!(decode_meta(&[1, 2]).is_err());
    }
}
