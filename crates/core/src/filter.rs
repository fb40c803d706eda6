//! Elem-level stream filters and their compiled, pushdown-ready form.
//!
//! Meta-data filters (project, collector, dump type, time) select
//! *files* and are pushed down into the broker query; the filters here
//! select *elems* within records: peer ASN, prefix (with the four
//! match modes of libBGPStream), communities (with wildcards, as used
//! by the RTBH case study to match any `*:666`), and elem type.
//!
//! [`Filters`] is the configuration-phase structure (cheap to build
//! and mutate); [`Filters::compile`] turns it into a
//! [`CompiledFilters`] for the reading phase: prefix constraints move
//! into a [`PrefixTrie`] (O(prefix length) membership instead of a
//! linear scan), peer/type sets become Fx-hashed lookups, and
//! [`CompiledFilters::record_may_match`] can reject a whole MRT record
//! from its [`RawMrtView`] — *before* the record body is decoded.

use bgp_types::trie::{PrefixMatch, PrefixTrie};
use bgp_types::{Asn, Community, Prefix};
use fxhash::FxHashSet;
use mrt::raw::{any_community_in_attrs, RawMrtView, RawRibRow, RawUpdate, ScanVerdict};
use mrt::PeerIndexTable;

use crate::aspath_re::AsPathRegex;
use crate::elem::{BgpStreamElem, ElemType};

/// Address-family constraint (`ipversion` filter term).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IpVersion {
    /// IPv4 prefixes only.
    V4,
    /// IPv6 prefixes only.
    V6,
}

impl IpVersion {
    fn admits(self, p: &Prefix) -> bool {
        match self {
            IpVersion::V4 => p.is_ipv4(),
            IpVersion::V6 => !p.is_ipv4(),
        }
    }
}

/// A community filter with optional wildcards on either half: e.g.
/// `(None, Some(666))` matches any black-holing community `*:666`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommunityFilter {
    /// Required AS identifier half; `None` = any.
    pub asn: Option<u16>,
    /// Required value half; `None` = any.
    pub value: Option<u16>,
}

impl CommunityFilter {
    /// Match any community whose value half is `value`.
    pub fn any_asn(value: u16) -> Self {
        CommunityFilter {
            asn: None,
            value: Some(value),
        }
    }

    /// Match an exact `asn:value` community.
    pub fn exact(asn: u16, value: u16) -> Self {
        CommunityFilter {
            asn: Some(asn),
            value: Some(value),
        }
    }

    /// Whether one community matches.
    pub fn matches(&self, c: &bgp_types::Community) -> bool {
        self.asn.is_none_or(|a| a == c.asn) && self.value.is_none_or(|v| v == c.value)
    }
}

/// The elem-level filter set. Empty collections mean "no constraint".
#[derive(Clone, Debug, Default)]
pub struct Filters {
    /// Accepted VP AS numbers.
    pub peer_asns: FxHashSet<Asn>,
    /// Prefix constraints (an elem passes if it matches *any*).
    pub prefixes: Vec<(Prefix, PrefixMatch)>,
    /// Community constraints (an elem passes if any community matches
    /// any filter). Elems without communities fail when this is
    /// non-empty.
    pub communities: Vec<CommunityFilter>,
    /// Accepted elem types.
    pub elem_types: FxHashSet<ElemType>,
    /// AS-path regex constraints (an elem passes if its path matches
    /// *any* pattern). Like community filters, withdrawals and state
    /// messages are exempt — they carry no path.
    pub as_paths: Vec<AsPathRegex>,
    /// Address-family constraint on the prefix.
    pub ip_version: Option<IpVersion>,
}

impl Filters {
    /// No constraints: everything passes.
    pub fn none() -> Self {
        Filters::default()
    }

    /// True when no constraint is configured, i.e. [`Filters::matches`]
    /// would accept every elem. Lets hot paths skip per-elem checks.
    pub fn is_pass_all(&self) -> bool {
        // Exhaustive destructuring: adding a Filters field without
        // deciding its pass-all semantics must not compile.
        let Filters {
            peer_asns,
            prefixes,
            communities,
            elem_types,
            as_paths,
            ip_version,
        } = self;
        peer_asns.is_empty()
            && prefixes.is_empty()
            && communities.is_empty()
            && elem_types.is_empty()
            && as_paths.is_empty()
            && ip_version.is_none()
    }

    /// Whether an elem passes all configured constraints.
    ///
    /// Withdrawals and state messages carry no communities or paths;
    /// they are exempt from community filters *if* they pass the
    /// prefix filter (withdrawals) — matching libBGPStream, which
    /// keeps withdrawal visibility when filtering on announcements'
    /// attributes would otherwise hide route removal.
    pub fn matches(&self, elem: &BgpStreamElem) -> bool {
        if !self.elem_types.is_empty() && !self.elem_types.contains(&elem.elem_type) {
            return false;
        }
        if !self.peer_asns.is_empty() && !self.peer_asns.contains(&elem.peer_asn) {
            return false;
        }
        if !self.prefixes.is_empty() {
            let Some(p) = &elem.prefix else {
                // Prefix filters exclude prefix-less elems (state msgs)
                // only when the filter is the sole way to scope the
                // stream; state messages always pass prefix filters.
                return elem.elem_type == ElemType::PeerState && self.passes_non_prefix(elem);
            };
            let hit = self.prefixes.iter().any(|(f, mode)| mode.relates(f, p));
            if !hit {
                return false;
            }
        }
        content_filters_pass(&self.communities, &self.as_paths, self.ip_version, elem)
    }

    fn passes_non_prefix(&self, elem: &BgpStreamElem) -> bool {
        self.peer_asns.is_empty() || self.peer_asns.contains(&elem.peer_asn)
    }

    /// Compile the filter set for the reading phase.
    ///
    /// The compiled form answers exactly the same per-elem question as
    /// [`Filters::matches`] (property-tested), but with the prefix
    /// constraints in a trie and the sets Fx-hashed — and it adds the
    /// record-level [`CompiledFilters::record_may_match`] prefilter
    /// the lazy-decode path pushes down below elem extraction.
    pub fn compile(&self) -> CompiledFilters {
        let prefixes = if self.prefixes.is_empty() {
            None
        } else {
            let mut trie: PrefixTrie<u8> = PrefixTrie::new();
            let mut want_covered_by = false;
            for (p, mode) in &self.prefixes {
                let bit = match mode {
                    PrefixMatch::Exact => MODE_EXACT,
                    PrefixMatch::MoreSpecific => MODE_MORE,
                    PrefixMatch::LessSpecific => MODE_LESS,
                    PrefixMatch::Any => MODE_ANY,
                };
                want_covered_by |= bit & (MODE_LESS | MODE_ANY) != 0;
                if let Some(mask) = trie.get_mut(p) {
                    *mask |= bit;
                } else {
                    trie.insert(*p, bit);
                }
            }
            Some(CompiledPrefixes {
                trie,
                want_covered_by,
            })
        };
        CompiledFilters {
            pass_all: self.is_pass_all(),
            peer_asns: self.peer_asns.clone(),
            elem_type_mask: if self.elem_types.is_empty() {
                TYPE_MASK_ALL
            } else {
                self.elem_types.iter().fold(0, |m, t| m | type_bit(*t))
            },
            prefixes,
            communities: self.communities.clone(),
            as_paths: self.as_paths.clone(),
            ip_version: self.ip_version,
        }
    }
}

/// The attribute-content tail shared verbatim by [`Filters::matches`]
/// and [`CompiledFilters::matches`]: community, AS-path and
/// address-family constraints, with the withdrawal/state-message
/// exemptions (withdrawals carry no attributes to test, and hiding
/// them would hide route removal — §4.3's second stream; prefix-less
/// state messages are family-agnostic).
fn content_filters_pass(
    communities: &[CommunityFilter],
    as_paths: &[AsPathRegex],
    ip_version: Option<IpVersion>,
    elem: &BgpStreamElem,
) -> bool {
    if !communities.is_empty() {
        match (&elem.communities, elem.elem_type) {
            (_, ElemType::Withdrawal) | (_, ElemType::PeerState) => {}
            (Some(cs), _) => {
                let hit = cs.iter().any(|c| communities.iter().any(|f| f.matches(c)));
                if !hit {
                    return false;
                }
            }
            (None, _) => return false,
        }
    }
    if !as_paths.is_empty() {
        match (&elem.as_path, elem.elem_type) {
            (_, ElemType::Withdrawal) | (_, ElemType::PeerState) => {}
            (Some(path), _) => {
                if !as_paths.iter().any(|r| r.matches_path(path)) {
                    return false;
                }
            }
            (None, _) => return false,
        }
    }
    if let Some(v) = ip_version {
        if let Some(p) = &elem.prefix {
            if !v.admits(p) {
                return false;
            }
        }
    }
    true
}

const MODE_EXACT: u8 = 1 << 0;
const MODE_MORE: u8 = 1 << 1;
const MODE_LESS: u8 = 1 << 2;
const MODE_ANY: u8 = 1 << 3;

const TYPE_MASK_ALL: u8 = 0b1111;

fn type_bit(t: ElemType) -> u8 {
    match t {
        ElemType::RibEntry => 1 << 0,
        ElemType::Announcement => 1 << 1,
        ElemType::Withdrawal => 1 << 2,
        ElemType::PeerState => 1 << 3,
    }
}

/// Prefix constraints compiled into one trie. Each stored prefix
/// carries the bitmask of match modes it was configured with, so a
/// single root-down walk answers `Exact`/`MoreSpecific`/`Any`
/// membership and one subtree probe (only when such modes exist)
/// answers `LessSpecific`/`Any`.
struct CompiledPrefixes {
    trie: PrefixTrie<u8>,
    /// Whether any `LessSpecific`/`Any` filter requires the
    /// covered-by subtree probe at all.
    want_covered_by: bool,
}

impl CompiledPrefixes {
    fn hit(&self, p: &Prefix) -> bool {
        if self.trie.any_covering(p, |stored, mask| {
            mask & (MODE_MORE | MODE_ANY) != 0 || (mask & MODE_EXACT != 0 && stored == p)
        }) {
            return true;
        }
        self.want_covered_by
            && self
                .trie
                .any_covered_by(p, |_, mask| mask & (MODE_LESS | MODE_ANY) != 0)
    }
}

/// The reading-phase form of [`Filters`]: same elem-level semantics,
/// faster data structures, plus the record-level pushdown predicate.
/// Build with [`Filters::compile`].
pub struct CompiledFilters {
    pass_all: bool,
    peer_asns: FxHashSet<Asn>,
    /// Accepted elem types as a bitmask ([`TYPE_MASK_ALL`] when the
    /// filter set leaves types unconstrained).
    elem_type_mask: u8,
    prefixes: Option<CompiledPrefixes>,
    communities: Vec<CommunityFilter>,
    as_paths: Vec<AsPathRegex>,
    ip_version: Option<IpVersion>,
}

impl CompiledFilters {
    /// True when the source filter set was pass-all:
    /// [`CompiledFilters::matches`] accepts every elem and
    /// [`CompiledFilters::record_may_match`] is a no-op that accepts
    /// every record.
    pub fn is_pass_all(&self) -> bool {
        self.pass_all
    }

    fn type_allowed(&self, t: ElemType) -> bool {
        self.elem_type_mask & type_bit(t) != 0
    }

    fn peer_allowed(&self, asn: Asn) -> bool {
        self.peer_asns.is_empty() || self.peer_asns.contains(&asn)
    }

    fn prefix_and_family_pass(&self, p: &Prefix) -> bool {
        (match &self.prefixes {
            None => true,
            Some(cp) => cp.hit(p),
        }) && self.ip_version.is_none_or(|v| v.admits(p))
    }

    /// Whether an elem passes — identical in outcome to
    /// [`Filters::matches`] on the filter set this was compiled from.
    pub fn matches(&self, elem: &BgpStreamElem) -> bool {
        if !self.type_allowed(elem.elem_type) {
            return false;
        }
        if !self.peer_allowed(elem.peer_asn) {
            return false;
        }
        if let Some(cp) = &self.prefixes {
            let Some(p) = &elem.prefix else {
                // Same carve-out as `Filters::matches`: state messages
                // pass prefix filters (peer filter already checked).
                return elem.elem_type == ElemType::PeerState;
            };
            if !cp.hit(p) {
                return false;
            }
        }
        content_filters_pass(&self.communities, &self.as_paths, self.ip_version, elem)
    }

    /// The record-level pushdown predicate: may **any** elem of the
    /// record behind `view` pass [`CompiledFilters::matches`]?
    ///
    /// Sound by construction — it only returns `false` when the raw
    /// view proves no elem can pass; every uncertainty (unparseable
    /// section, absent peer index table, AS-path filters, which need
    /// the decoded path) resolves to `true`, sending the record to the
    /// full decode where the per-elem filters run as before. A
    /// pass-all filter set compiles to a prefilter that accepts
    /// everything without looking.
    ///
    /// Rejection additionally guarantees the record body would have
    /// *decoded cleanly* (the underlying
    /// [`RawUpdate::prefilter_scan`] / [`RawRibRow::prefilter_scan`]
    /// walk the decoder's own checks as they scan): skipping the
    /// decode can therefore never hide a corrupted read, a poisoned
    /// dump, or a missing-peer flag that the decode-then-filter path
    /// would have signalled.
    pub fn record_may_match(&self, view: &RawMrtView<'_>, pit: Option<&PeerIndexTable>) -> bool {
        if self.pass_all {
            return true;
        }
        match view {
            // The peer index table must always reach the decoder (RIB
            // rows need it); it produces no elems either way.
            RawMrtView::PeerIndexTable(_) => true,
            // No elems can come out of these at all.
            RawMrtView::Unknown(_) | RawMrtView::NonUpdateMessage(_) => false,
            RawMrtView::StateChange(state) => {
                // State elems are exempt from prefix / community /
                // AS-path / family constraints (see `matches`).
                self.type_allowed(ElemType::PeerState) && self.peer_allowed(state.peer_asn())
            }
            RawMrtView::Update(u) => self.update_may_match(u),
            RawMrtView::RibRow(r) => self.rib_row_may_match(r, pit),
        }
    }

    fn update_may_match(&self, u: &RawUpdate<'_>) -> bool {
        // One VP per update record, so the peer filter (like elem-type
        // gating) folds into the per-prefix predicates: when it
        // excludes the VP no prefix can accept, and the validating
        // scan below proves the reject is safe in the same pass.
        // Announcements share the update's single attribute set, so
        // the community constraint holds or fails for all of them at
        // once (the scan's `comm_gate`). AS-path filters need the
        // decoded path and stay post-decode (conservative accept).
        let peer_ok = self.peer_allowed(u.peer_asn);
        let w_allowed = peer_ok && self.type_allowed(ElemType::Withdrawal);
        let a_allowed = peer_ok && self.type_allowed(ElemType::Announcement);
        let mut wd_pred = |p: &Prefix| self.prefix_and_family_pass(p);
        let mut ann_pred = |p: &Prefix| self.prefix_and_family_pass(p);
        let mut comm_pred = |c: Community| self.communities.iter().any(|f| f.matches(&c));
        match u.prefilter_scan(
            // `None` = this elem kind can never pass (gated off): the
            // scan then validates those NLRI without building prefixes.
            w_allowed.then_some(&mut wd_pred as &mut dyn FnMut(&Prefix) -> bool),
            a_allowed.then_some(&mut ann_pred as &mut dyn FnMut(&Prefix) -> bool),
            // The gate only influences announcement acceptance, so
            // skip the per-community predicate work entirely when
            // announcements are gated off (verdict-identical: the
            // attribute bytes are still content-validated).
            (a_allowed && !self.communities.is_empty())
                .then_some(&mut comm_pred as &mut dyn FnMut(Community) -> bool),
        ) {
            ScanVerdict::Reject => false,
            ScanVerdict::Accept | ScanVerdict::Unsure => true,
        }
    }

    fn rib_row_may_match(&self, r: &RawRibRow<'_>, pit: Option<&PeerIndexTable>) -> bool {
        if r.entry_count() == 0 {
            // No entries: no elems, no missing-peer flag, and nothing
            // left for the decoder to validate beyond the framing the
            // view already checked.
            return false;
        }
        // Without the dump's peer table the decoder must run — it is
        // what flags the row not-valid (missing peer).
        let Some(pit) = pit else { return true };
        let row_ok =
            self.type_allowed(ElemType::RibEntry) && self.prefix_and_family_pass(&r.prefix);
        let need_peer = !self.peer_asns.is_empty();
        let need_comm = !self.communities.is_empty();
        match r.prefilter_scan(|peer_index, attrs| {
            let Some(peer) = pit.peers.get(peer_index as usize) else {
                // Out-of-range index: the full decode must run so the
                // record is flagged not-valid — regardless of what
                // the filters say about the row.
                return true;
            };
            if !row_ok {
                return false;
            }
            if need_peer && !self.peer_asns.contains(&peer.asn) {
                return false;
            }
            if need_comm {
                // Unlike withdrawals, RIB entries are subject to
                // community filters; scan this entry's raw attrs.
                return any_community_in_attrs(attrs, |c| {
                    self.communities.iter().any(|f| f.matches(&c))
                })
                .unwrap_or(true);
            }
            true
        }) {
            ScanVerdict::Reject => false,
            ScanVerdict::Accept | ScanVerdict::Unsure => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, Community, CommunitySet, SessionState};
    use std::net::IpAddr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn announce(prefix: &str, comms: &[(u16, u16)]) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: 0,
            peer_address: "192.0.2.1".parse::<IpAddr>().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some(p(prefix)),
            next_hop: Some("192.0.2.1".parse().unwrap()),
            as_path: Some(AsPath::from_sequence([65001, 137])),
            communities: Some(CommunitySet::from_iter(
                comms.iter().map(|&(a, v)| Community::new(a, v)),
            )),
            old_state: None,
            new_state: None,
        }
    }

    fn withdrawal(prefix: &str) -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::Withdrawal,
            prefix: Some(p(prefix)),
            next_hop: None,
            as_path: None,
            communities: None,
            ..announce(prefix, &[])
        }
    }

    fn state_msg() -> BgpStreamElem {
        BgpStreamElem {
            elem_type: ElemType::PeerState,
            prefix: None,
            next_hop: None,
            as_path: None,
            communities: None,
            old_state: Some(SessionState::Established),
            new_state: Some(SessionState::Idle),
            ..announce("10.0.0.0/8", &[])
        }
    }

    #[test]
    fn empty_filters_pass_everything() {
        let f = Filters::none();
        assert!(f.matches(&announce("10.0.0.0/8", &[])));
        assert!(f.matches(&withdrawal("10.0.0.0/8")));
        assert!(f.matches(&state_msg()));
    }

    #[test]
    fn peer_filter() {
        let mut f = Filters::none();
        f.peer_asns.insert(Asn(65001));
        assert!(f.matches(&announce("10.0.0.0/8", &[])));
        f.peer_asns.clear();
        f.peer_asns.insert(Asn(9));
        assert!(!f.matches(&announce("10.0.0.0/8", &[])));
    }

    #[test]
    fn prefix_modes() {
        let mut f = Filters::none();
        f.prefixes
            .push((p("192.0.0.0/8"), PrefixMatch::MoreSpecific));
        // bgpreader -k 192.0.0.0/8: subprefixes match.
        assert!(f.matches(&announce("192.168.0.0/16", &[])));
        assert!(f.matches(&announce("192.0.0.0/8", &[])));
        assert!(!f.matches(&announce("10.0.0.0/8", &[])));

        let mut f = Filters::none();
        f.prefixes
            .push((p("192.168.1.0/24"), PrefixMatch::LessSpecific));
        assert!(f.matches(&announce("192.168.0.0/16", &[])));
        assert!(!f.matches(&announce("192.168.2.0/24", &[])));

        let mut f = Filters::none();
        f.prefixes.push((p("192.168.1.0/24"), PrefixMatch::Exact));
        assert!(f.matches(&announce("192.168.1.0/24", &[])));
        assert!(!f.matches(&announce("192.168.1.0/25", &[])));
    }

    #[test]
    fn community_wildcard_matches_blackholes() {
        let mut f = Filters::none();
        f.communities.push(CommunityFilter::any_asn(666));
        assert!(f.matches(&announce("10.0.0.0/8", &[(3356, 666)])));
        assert!(f.matches(&announce("10.0.0.0/8", &[(174, 666), (1, 2)])));
        assert!(!f.matches(&announce("10.0.0.0/8", &[(3356, 100)])));
        assert!(!f.matches(&announce("10.0.0.0/8", &[])));
    }

    #[test]
    fn community_filter_lets_withdrawals_through() {
        let mut f = Filters::none();
        f.communities.push(CommunityFilter::any_asn(666));
        assert!(f.matches(&withdrawal("10.0.0.0/8")));
    }

    #[test]
    fn elem_type_filter() {
        let mut f = Filters::none();
        f.elem_types.insert(ElemType::Withdrawal);
        assert!(f.matches(&withdrawal("10.0.0.0/8")));
        assert!(!f.matches(&announce("10.0.0.0/8", &[])));
    }

    #[test]
    fn state_messages_pass_prefix_filters() {
        let mut f = Filters::none();
        f.prefixes
            .push((p("10.0.0.0/8"), PrefixMatch::MoreSpecific));
        assert!(f.matches(&state_msg()));
        // But not when a peer filter excludes them.
        f.peer_asns.insert(Asn(42));
        assert!(!f.matches(&state_msg()));
    }

    #[test]
    fn aspath_filter_matches_paths() {
        let mut f = Filters::none();
        f.as_paths.push(AsPathRegex::parse("_137$").unwrap());
        assert!(f.matches(&announce("10.0.0.0/8", &[]))); // path ends in 137
        let mut f = Filters::none();
        f.as_paths.push(AsPathRegex::parse("^9 *").unwrap());
        assert!(!f.matches(&announce("10.0.0.0/8", &[])));
    }

    #[test]
    fn aspath_filter_exempts_withdrawals_and_state() {
        let mut f = Filters::none();
        f.as_paths.push(AsPathRegex::parse("_99999_").unwrap());
        assert!(f.matches(&withdrawal("10.0.0.0/8")));
        assert!(f.matches(&state_msg()));
        assert!(!f.matches(&announce("10.0.0.0/8", &[])));
    }

    #[test]
    fn ip_version_filter() {
        let mut f = Filters::none();
        f.ip_version = Some(IpVersion::V4);
        assert!(f.matches(&announce("10.0.0.0/8", &[])));
        let mut v6 = announce("10.0.0.0/8", &[]);
        v6.prefix = Some("2001:db8::/32".parse().unwrap());
        assert!(!f.matches(&v6));
        f.ip_version = Some(IpVersion::V6);
        assert!(f.matches(&v6));
        // State messages carry no prefix: family-agnostic.
        assert!(f.matches(&state_msg()));
    }

    #[test]
    fn combined_filters_are_conjunctive() {
        let mut f = Filters::none();
        f.peer_asns.insert(Asn(65001));
        f.prefixes
            .push((p("192.0.0.0/8"), PrefixMatch::MoreSpecific));
        f.communities.push(CommunityFilter::exact(3356, 666));
        assert!(f.matches(&announce("192.0.2.0/24", &[(3356, 666)])));
        assert!(!f.matches(&announce("192.0.2.0/24", &[(174, 666)])));
        assert!(!f.matches(&announce("10.0.2.0/24", &[(3356, 666)])));
    }

    /// Every filter-set/elem combination the tests above exercise,
    /// replayed through the compiled form: `compile().matches` must
    /// agree with `Filters::matches` everywhere.
    #[test]
    fn compiled_matches_agrees_with_interpreted() {
        let mut sets: Vec<Filters> = Vec::new();
        sets.push(Filters::none());
        let mut f = Filters::none();
        f.peer_asns.insert(Asn(65001));
        sets.push(f);
        for mode in [
            PrefixMatch::Exact,
            PrefixMatch::MoreSpecific,
            PrefixMatch::LessSpecific,
            PrefixMatch::Any,
        ] {
            let mut f = Filters::none();
            f.prefixes.push((p("192.0.0.0/8"), mode));
            f.prefixes.push((p("192.168.1.0/24"), mode));
            sets.push(f);
        }
        let mut f = Filters::none();
        f.communities.push(CommunityFilter::any_asn(666));
        sets.push(f);
        let mut f = Filters::none();
        f.elem_types.insert(ElemType::Withdrawal);
        sets.push(f);
        let mut f = Filters::none();
        f.as_paths.push(AsPathRegex::parse("_137$").unwrap());
        sets.push(f);
        let mut f = Filters::none();
        f.ip_version = Some(IpVersion::V6);
        sets.push(f);
        let mut f = Filters::none();
        f.peer_asns.insert(Asn(65001));
        f.prefixes
            .push((p("192.0.0.0/8"), PrefixMatch::MoreSpecific));
        f.prefixes.push((p("192.0.0.0/8"), PrefixMatch::Exact));
        f.communities.push(CommunityFilter::exact(3356, 666));
        sets.push(f);

        let mut v6 = announce("10.0.0.0/8", &[]);
        v6.prefix = Some("2001:db8::/32".parse().unwrap());
        let elems = vec![
            announce("192.0.2.0/24", &[(3356, 666)]),
            announce("192.0.0.0/8", &[]),
            announce("192.168.1.0/24", &[(174, 666)]),
            announce("192.168.0.0/16", &[]),
            announce("10.0.0.0/8", &[]),
            withdrawal("192.0.2.0/24"),
            withdrawal("10.0.0.0/8"),
            state_msg(),
            v6,
        ];
        for (i, f) in sets.iter().enumerate() {
            let compiled = f.compile();
            assert_eq!(compiled.is_pass_all(), f.is_pass_all());
            for (j, e) in elems.iter().enumerate() {
                assert_eq!(
                    compiled.matches(e),
                    f.matches(e),
                    "filter set {i} vs elem {j}"
                );
            }
        }
    }

    #[test]
    fn pass_all_compiles_to_noop_prefilter() {
        let compiled = Filters::none().compile();
        assert!(compiled.is_pass_all());
        // Any record view — even one that could never yield elems —
        // is accepted without inspection.
        use mrt::{Bgp4mp, MrtHeader, MrtRecord};
        let rec = MrtRecord::bgp4mp(
            1,
            Bgp4mp::StateChange {
                peer_asn: Asn(1),
                local_asn: Asn(2),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                old_state: SessionState::Established,
                new_state: SessionState::Idle,
            },
        );
        let wire = rec.encode();
        let header = MrtHeader::decode(&wire).unwrap();
        let view = RawMrtView::parse(&header, &wire[MrtHeader::LEN..]).unwrap();
        assert!(compiled.record_may_match(&view, None));
    }
}
