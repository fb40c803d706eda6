//! The index a sealed table is opened into: a section directory, each
//! section's rows in prefix order, and origin postings.
//!
//! [`TableIndex::build`] is the one reader of the table format's
//! structure. It walks the payload once, skipping every route
//! undecoded, and records where each row starts. Everything that
//! reads a table afterwards — a full decode, a narrowed query —
//! decodes rows at those offsets, so a narrowed query touches only the
//! rows it can admit.

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::ops::Range;
use std::sync::Arc;

use bgp_types::codec::{ip_sort_key, prefix_sort_key, Reader};
use bgp_types::trie::PrefixMatch;
use bgp_types::{Asn, CodecError, Prefix};

use crate::table::{get_rib_route, skip_rib_route, RibRoute, TABLE_VERSION};

/// [`prefix_sort_key`]'s key: family, then length, then bits.
pub(crate) type PrefixKey = (bool, u8, u128);

/// One vantage point of the directory.
#[derive(Debug)]
pub(crate) struct Section {
    /// Collector name.
    pub collector: Arc<str>,
    /// Vantage-point address.
    pub peer: IpAddr,
    /// Vantage-point AS number.
    pub peer_asn: Asn,
    /// Whether the session was Established.
    pub up: bool,
    /// The section's entries in [`TableIndex::rows`].
    rows: Range<usize>,
}

/// Where the rows of an encoded table are, by vantage point, prefix
/// and origin.
///
/// The table format's replacement rules are applied once, here: a
/// repeated section keeps its last copy, and a repeated prefix within a
/// section keeps its last row.
#[derive(Debug, Default)]
pub(crate) struct TableIndex {
    /// Sections in canonical `(collector, peer)` order.
    sections: Vec<Section>,
    /// Each row's payload offset, section by section, each section's
    /// rows in [`prefix_sort_key`] order.
    rows: Vec<u32>,
    /// `(origin, position in rows)` for every row whose path has an
    /// origin, ascending.
    origins: Vec<(Asn, u32)>,
}

impl TableIndex {
    /// Index an [`encode`](crate::RibTable::encode)d table. Every row's
    /// bytes are read through the same checked reads a decode makes, so
    /// a payload fails here exactly where decoding it would.
    pub(crate) fn build(payload: &[u8]) -> Result<TableIndex, CodecError> {
        let mut r = Reader::new(payload, "rib table");
        if r.u8()? != TABLE_VERSION {
            return Err(CodecError::Invalid("rib table version"));
        }
        // name length + peer + asn + up + route count
        let sections = r.count(2 + 17 + 4 + 1 + 4)?;
        // The last copy of each section, with its rows as read.
        let mut read = BTreeMap::new();
        for _ in 0..sections {
            let collector: Arc<str> = r.str16()?.into();
            let peer = r.ip()?;
            let peer_asn = Asn(r.u32()?);
            let up = r.u8()? == 1;
            // prefix + the smallest route: no path, no next hop, no
            // communities, a timestamp
            let n = r.count(18 + 2 + 1 + 2 + 8)?;
            let mut rows: Vec<(PrefixKey, u32, Option<Asn>)> = Vec::with_capacity(n);
            for _ in 0..n {
                let at = checked_u32(payload.len() - r.len())?;
                let key = prefix_sort_key(&r.prefix()?);
                rows.push((key, at, skip_rib_route(&mut r)?));
            }
            let section = Section {
                collector: collector.clone(),
                peer,
                peer_asn,
                up,
                rows: 0..0,
            };
            read.insert((collector, ip_sort_key(&peer)), (section, rows));
        }
        r.finish()?;

        let mut index = TableIndex::default();
        for (mut section, mut rows) in read.into_values() {
            // Stable: copies of a prefix stay in frame order, and the
            // last one is kept.
            rows.sort_by_key(|&(key, ..)| key);
            let start = index.rows.len();
            for (i, &(key, at, origin)) in rows.iter().enumerate() {
                if rows.get(i + 1).is_some_and(|next| next.0 == key) {
                    continue;
                }
                if let Some(origin) = origin {
                    index.origins.push((origin, checked_u32(index.rows.len())?));
                }
                index.rows.push(at);
            }
            section.rows = start..index.rows.len();
            index.sections.push(section);
        }
        index.origins.sort_unstable();
        Ok(index)
    }

    /// The directory, in canonical `(collector, peer)` order.
    pub(crate) fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// The payload offsets of a section's rows, in prefix order.
    pub(crate) fn rows(&self, section: &Section) -> &[u32] {
        &self.rows[section.rows.clone()]
    }

    /// The payload offsets of a section's rows whose path originates
    /// at `origin`, in prefix order.
    pub(crate) fn posted(&self, section: &Section, origin: Asn) -> impl Iterator<Item = u32> + '_ {
        let bound = |row: usize| {
            self.origins
                .partition_point(|&(o, at)| (o, at as usize) < (origin, row))
        };
        let posted = &self.origins[bound(section.rows.start)..bound(section.rows.end)];
        posted.iter().map(|&(_, row)| self.rows[row as usize])
    }

    /// The payload offsets of a section's rows whose prefix relates to
    /// `filter` under `mode`, as runs in prefix order.
    ///
    /// Rows sort by family, then length, then bits, so at each length
    /// the admitted rows are one run: at a length below the filter's,
    /// the row that is the filter cut to that length; at the filter's
    /// length or longer, the rows whose bits fall inside the filter.
    /// Each run is found by binary search, and lengths no row has are
    /// skipped.
    pub(crate) fn matching<'a>(
        &'a self,
        payload: &[u8],
        section: &Section,
        filter: &Prefix,
        mode: PrefixMatch,
    ) -> Result<Vec<&'a [u32]>, CodecError> {
        let rows = self.rows(section);
        let family = !filter.is_ipv4();
        let (min_len, max_len) = match mode {
            PrefixMatch::Exact => (filter.len(), filter.len()),
            PrefixMatch::MoreSpecific => (filter.len(), filter.max_len()),
            PrefixMatch::LessSpecific => (0, filter.len()),
            PrefixMatch::Any => (0, filter.max_len()),
        };
        let bits = |len: u8| {
            if len < filter.len() {
                let cut = Prefix::new(filter.network(), len).raw_bits();
                (cut, cut)
            } else {
                let host = u128::MAX.checked_shr(filter.len().into()).unwrap_or(0);
                (filter.raw_bits(), filter.raw_bits() | host)
            }
        };
        // The first row at or after `pos` whose key is not below `key`.
        let seek = |pos: usize, key: &dyn Fn(PrefixKey) -> bool| {
            lower_bound(payload, &rows[pos..], key).map(|n| pos + n)
        };
        let mut runs = Vec::new();
        let mut pos = seek(0, &|k| k < (family, min_len, 0))?;
        while let Some(&at) = rows.get(pos) {
            let (f, len, _) = prefix_key_at(payload, at)?;
            if f != family || len > max_len {
                break;
            }
            let (lo, hi) = bits(len);
            let start = seek(pos, &|k| k < (family, len, lo))?;
            let end = seek(start, &|k| k <= (family, len, hi))?;
            runs.push(&rows[start..end]);
            pos = seek(end, &|k| k < (family, len + 1, 0))?;
        }
        Ok(runs)
    }
}

/// Decode the row whose prefix starts at payload offset `at`.
pub(crate) fn read_row(payload: &[u8], at: u32) -> Result<(Prefix, RibRoute), CodecError> {
    let (prefix, mut r) = row_prefix(payload, at)?;
    Ok((prefix, get_rib_route(&mut r)?))
}

/// Decode the prefix of the row at payload offset `at`, answering it
/// with a reader left at the row's route: for a reader that decides
/// from the prefix whether to decode the route.
pub(crate) fn row_prefix(payload: &[u8], at: u32) -> Result<(Prefix, Reader<'_>), CodecError> {
    let mut r = reader_at(payload, at);
    Ok((r.prefix()?, r))
}

/// The sort key of the prefix at payload offset `at`.
fn prefix_key_at(payload: &[u8], at: u32) -> Result<PrefixKey, CodecError> {
    Ok(prefix_sort_key(&reader_at(payload, at).prefix()?))
}

fn reader_at(payload: &[u8], at: u32) -> Reader<'_> {
    Reader::new(payload.get(at as usize..).unwrap_or_default(), "rib table")
}

/// How many of `rows`, whose keys ascend, have a key that `below`
/// holds for.
fn lower_bound(
    payload: &[u8],
    rows: &[u32],
    below: &dyn Fn(PrefixKey) -> bool,
) -> Result<usize, CodecError> {
    let (mut lo, mut hi) = (0, rows.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(prefix_key_at(payload, rows[mid])?) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// An offset or position as the index stores it; a table too large
/// for one is refused.
fn checked_u32(n: usize) -> Result<u32, CodecError> {
    u32::try_from(n).map_err(|_| CodecError::BadLength("rib table"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{RibAction, RibEvent, RibTable};
    use bgp_types::AsPath;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        // Few distinct high bits, so prefixes nest and collide.
        (any::<bool>(), 0u8..=128, 0u8..4, any::<u128>()).prop_map(|(v4, len, top, low)| {
            let bits = ((top as u128) << 126) | (low >> 2);
            if v4 {
                Prefix::new(IpAddr::from(((bits >> 96) as u32).to_be_bytes()), len % 33)
            } else {
                Prefix::new(IpAddr::from(bits.to_be_bytes()), len)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The binary-searched runs and the origin postings hold
        /// exactly the rows a scan of every row admits.
        #[test]
        fn runs_and_postings_equal_a_scan(
            routes in vec((arb_prefix(), 0usize..2, 1u32..6), 0..200),
            filters in vec(arb_prefix(), 1..8),
        ) {
            let mut table = RibTable::new();
            for (t, &(prefix, peer, origin)) in routes.iter().enumerate() {
                table.apply(&RibEvent {
                    time: t as u64,
                    collector: "rrc00".into(),
                    peer: IpAddr::from([10, 0, 0, peer as u8]),
                    peer_asn: Asn(65000),
                    action: RibAction::Announce {
                        prefix,
                        route: RibRoute {
                            path: Some(AsPath::from_sequence([65000, origin])),
                            next_hop: None,
                            communities: Default::default(),
                            updated_at: t as u64,
                        },
                    },
                });
            }
            let payload = table.encode();
            let index = TableIndex::build(&payload).unwrap();
            for section in index.sections() {
                let all: Vec<(u32, Prefix, Option<Asn>)> = index
                    .rows(section)
                    .iter()
                    .map(|&at| {
                        let (prefix, route) = read_row(&payload, at).unwrap();
                        (at, prefix, route.origin_asn())
                    })
                    .collect();
                for filter in &filters {
                    for mode in [
                        PrefixMatch::Exact,
                        PrefixMatch::MoreSpecific,
                        PrefixMatch::LessSpecific,
                        PrefixMatch::Any,
                    ] {
                        let got: Vec<u32> = index
                            .matching(&payload, section, filter, mode)
                            .unwrap()
                            .concat();
                        let want: Vec<u32> = all
                            .iter()
                            .filter(|(_, p, _)| mode.relates(filter, p))
                            .map(|&(at, ..)| at)
                            .collect();
                        prop_assert_eq!(got, want, "{} {:?}", filter, mode);
                    }
                }
                for origin in 0..7 {
                    let got: Vec<u32> = index.posted(section, Asn(origin)).collect();
                    let want: Vec<u32> = all
                        .iter()
                        .filter(|(.., o)| *o == Some(Asn(origin)))
                        .map(|&(at, ..)| at)
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
