//! `bgpdump`-style ASCII rendering — the heart of BGPReader (§4.1).
//!
//! BGPReader "can be thought of as a drop-in replacement of the
//! analogous bgpdump tool". One pipe-separated line per elem:
//!
//! ```text
//! <dump-type>|<elem-type>|<time>|<project>|<collector>|<peer-ASN>|<peer-IP>|<prefix>|<next-hop>|<AS-path>|<communities>|<old-state>|<new-state>
//! ```
//!
//! Fields not applicable to the elem type are left empty, matching
//! libBGPStream's elem string format.

use crate::elem::BgpStreamElem;
use crate::record::BgpStreamRecord;
use broker::DumpType;

/// Render one elem in the context of its record.
pub fn elem_line(record: &BgpStreamRecord, elem: &BgpStreamElem) -> String {
    let dump = match record.dump_type() {
        DumpType::Rib => "R",
        DumpType::Updates => "U",
    };
    let prefix = elem.prefix.map(|p| p.to_string()).unwrap_or_default();
    let next_hop = elem.next_hop.map(|n| n.to_string()).unwrap_or_default();
    let as_path = elem
        .as_path
        .as_ref()
        .map(|p| p.to_bgpdump_string())
        .unwrap_or_default();
    let communities = elem
        .communities
        .as_ref()
        .map(|c| c.to_bgpdump_string())
        .unwrap_or_default();
    let old_state = elem.old_state.map(|s| s.to_string()).unwrap_or_default();
    let new_state = elem.new_state.map(|s| s.to_string()).unwrap_or_default();
    format!(
        "{dump}|{}|{}|{}|{}|{}|{}|{prefix}|{next_hop}|{as_path}|{communities}|{old_state}|{new_state}",
        elem.elem_type.code(),
        elem.time,
        record.project(),
        record.collector(),
        elem.peer_asn,
        elem.peer_address,
    )
}

/// Render every elem of a record, one line each.
pub fn record_lines(record: &BgpStreamRecord) -> Vec<String> {
    record
        .elems()
        .iter()
        .map(|e| elem_line(record, e))
        .collect()
}

/// Classic `bgpdump -m` one-line format — BGPReader's compatibility
/// mode ("a command line option sets bgpdump output format", §4.1):
///
/// ```text
/// BGP4MP|<time>|A|<peer-ip>|<peer-asn>|<prefix>|<as-path>|IGP|<next-hop>|0|0|<communities>|NAG||
/// BGP4MP|<time>|W|<peer-ip>|<peer-asn>|<prefix>
/// TABLE_DUMP2|<time>|B|<peer-ip>|<peer-asn>|<prefix>|<as-path>|IGP|<next-hop>|0|0|<communities>|NAG||
/// BGP4MP|<time>|STATE|<peer-ip>|<peer-asn>|<old>|<new>
/// ```
pub fn bgpdump_line(elem: &BgpStreamElem) -> String {
    let peer = format!("{}|{}", elem.peer_address, elem.peer_asn);
    match elem.elem_type {
        crate::elem::ElemType::Withdrawal => {
            format!(
                "BGP4MP|{}|W|{peer}|{}",
                elem.time,
                elem.prefix.map(|p| p.to_string()).unwrap_or_default()
            )
        }
        crate::elem::ElemType::PeerState => {
            format!(
                "BGP4MP|{}|STATE|{peer}|{}|{}",
                elem.time,
                elem.old_state
                    .map(|s| s.code().to_string())
                    .unwrap_or_default(),
                elem.new_state
                    .map(|s| s.code().to_string())
                    .unwrap_or_default()
            )
        }
        ty => {
            let marker = if ty == crate::elem::ElemType::RibEntry {
                "TABLE_DUMP2"
            } else {
                "BGP4MP"
            };
            let code = if ty == crate::elem::ElemType::RibEntry {
                "B"
            } else {
                "A"
            };
            format!(
                "{marker}|{}|{code}|{peer}|{}|{}|IGP|{}|0|0|{}|NAG||",
                elem.time,
                elem.prefix.map(|p| p.to_string()).unwrap_or_default(),
                elem.as_path
                    .as_ref()
                    .map(|p| p.to_bgpdump_string())
                    .unwrap_or_default(),
                elem.next_hop.map(|n| n.to_string()).unwrap_or_default(),
                elem.communities
                    .as_ref()
                    .map(|c| c.to_bgpdump_string())
                    .unwrap_or_default(),
            )
        }
    }
}

/// ExaBGP-style JSON line for one elem — the export format the paper
/// lists as planned future work ("support for more data formats, e.g.
/// JSON exports from ExaBGP"). Hand-rolled writer (all values are
/// numbers, plain addresses or controlled identifiers, so no JSON
/// escaping is required beyond control characters and quotes).
pub fn elem_json(record: &BgpStreamRecord, elem: &BgpStreamElem) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_kv(&mut out, "type", &elem.elem_type.code().to_string());
    out.push(',');
    out.push_str(&format!("\"time\":{}", elem.time));
    out.push(',');
    push_kv(&mut out, "project", record.project());
    out.push(',');
    push_kv(&mut out, "collector", record.collector());
    out.push(',');
    out.push_str(&format!("\"peer_asn\":{}", elem.peer_asn.0));
    out.push(',');
    push_kv(&mut out, "peer_address", &elem.peer_address.to_string());
    if let Some(p) = elem.prefix {
        out.push(',');
        push_kv(&mut out, "prefix", &p.to_string());
    }
    if let Some(nh) = elem.next_hop {
        out.push(',');
        push_kv(&mut out, "next_hop", &nh.to_string());
    }
    if let Some(path) = &elem.as_path {
        out.push(',');
        out.push_str("\"as_path\":[");
        for (i, a) in path.asns().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.0.to_string());
        }
        out.push(']');
    }
    if let Some(cs) = &elem.communities {
        if !cs.is_empty() {
            out.push(',');
            out.push_str("\"communities\":[");
            for (i, c) in cs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{c}\""));
            }
            out.push(']');
        }
    }
    if let (Some(old), Some(new)) = (elem.old_state, elem.new_state) {
        out.push(',');
        push_kv(&mut out, "old_state", &old.to_string());
        out.push(',');
        push_kv(&mut out, "new_state", &new.to_string());
    }
    out.push('}');
    out
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(&json_string(value));
    out.push('"');
}

/// Escape the characters JSON strings cannot carry verbatim.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::ElemType;
    use crate::record::{DumpPosition, RecordStatus};
    use bgp_types::{AsPath, AsPathSegment, Asn, Community, CommunitySet, SessionState};

    fn record(elems: Vec<BgpStreamElem>) -> BgpStreamRecord {
        BgpStreamRecord::new(
            "ris",
            "rrc01",
            DumpType::Updates,
            0,
            100,
            DumpPosition::Middle,
            RecordStatus::Valid,
            elems,
        )
    }

    #[test]
    fn announcement_line() {
        let elem = BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: 1463011200,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some("192.0.2.0/24".parse().unwrap()),
            next_hop: Some("192.0.2.1".parse().unwrap()),
            as_path: Some(AsPath::from_sequence([65001, 3356, 137])),
            communities: Some(CommunitySet::from_iter([Community::new(3356, 666)])),
            old_state: None,
            new_state: None,
        };
        let rec = record(vec![elem.clone()]);
        let line = elem_line(&rec, &elem);
        assert_eq!(
            line,
            "U|A|1463011200|ris|rrc01|65001|192.0.2.1|192.0.2.0/24|192.0.2.1|65001 3356 137|3356:666||"
        );
    }

    #[test]
    fn state_line_has_empty_route_fields() {
        let elem = BgpStreamElem {
            elem_type: ElemType::PeerState,
            time: 5,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: None,
            next_hop: None,
            as_path: None,
            communities: None,
            old_state: Some(SessionState::OpenConfirm),
            new_state: Some(SessionState::Established),
        };
        let rec = record(vec![elem.clone()]);
        let line = elem_line(&rec, &elem);
        assert_eq!(
            line,
            "U|S|5|ris|rrc01|65001|192.0.2.1|||||OPENCONFIRM|ESTABLISHED"
        );
    }

    #[test]
    fn bgpdump_mode_announcement() {
        let elem = BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: 1463011200,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some("192.0.2.0/24".parse().unwrap()),
            next_hop: Some("192.0.2.1".parse().unwrap()),
            as_path: Some(AsPath::from_sequence([65001, 137])),
            communities: Some(CommunitySet::from_iter([Community::new(3356, 666)])),
            old_state: None,
            new_state: None,
        };
        assert_eq!(
            bgpdump_line(&elem),
            "BGP4MP|1463011200|A|192.0.2.1|65001|192.0.2.0/24|65001 137|IGP|192.0.2.1|0|0|3356:666|NAG||"
        );
        let rib = BgpStreamElem {
            elem_type: ElemType::RibEntry,
            ..elem.clone()
        };
        assert!(bgpdump_line(&rib).starts_with("TABLE_DUMP2|1463011200|B|"));
        let wd = BgpStreamElem {
            elem_type: ElemType::Withdrawal,
            as_path: None,
            next_hop: None,
            communities: None,
            ..elem.clone()
        };
        assert_eq!(
            bgpdump_line(&wd),
            "BGP4MP|1463011200|W|192.0.2.1|65001|192.0.2.0/24"
        );
        let st = BgpStreamElem {
            elem_type: ElemType::PeerState,
            prefix: None,
            as_path: None,
            next_hop: None,
            communities: None,
            old_state: Some(SessionState::OpenConfirm),
            new_state: Some(SessionState::Established),
            ..elem
        };
        assert_eq!(
            bgpdump_line(&st),
            "BGP4MP|1463011200|STATE|192.0.2.1|65001|5|6"
        );
    }

    #[test]
    fn json_export_announcement() {
        let elem = BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: 100,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some("10.0.0.0/8".parse().unwrap()),
            next_hop: Some("192.0.2.1".parse().unwrap()),
            as_path: Some(AsPath::from_sequence([65001, 137])),
            communities: Some(CommunitySet::from_iter([Community::new(1, 2)])),
            old_state: None,
            new_state: None,
        };
        let rec = record(vec![elem.clone()]);
        let json = elem_json(&rec, &elem);
        assert_eq!(
            json,
            "{\"type\":\"A\",\"time\":100,\"project\":\"ris\",\"collector\":\"rrc01\",\
             \"peer_asn\":65001,\"peer_address\":\"192.0.2.1\",\"prefix\":\"10.0.0.0/8\",\
             \"next_hop\":\"192.0.2.1\",\"as_path\":[65001,137],\"communities\":[\"1:2\"]}"
        );
    }

    #[test]
    fn json_export_state_message() {
        let elem = BgpStreamElem {
            elem_type: ElemType::PeerState,
            time: 7,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: None,
            next_hop: None,
            as_path: None,
            communities: None,
            old_state: Some(SessionState::Established),
            new_state: Some(SessionState::Idle),
        };
        let rec = record(vec![elem.clone()]);
        let json = elem_json(&rec, &elem);
        assert!(json.contains("\"old_state\":\"ESTABLISHED\""));
        assert!(json.contains("\"new_state\":\"IDLE\""));
        assert!(!json.contains("prefix"));
    }

    #[test]
    fn json_export_goldens() {
        let base = BgpStreamElem {
            elem_type: ElemType::Announcement,
            time: 100,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some("10.0.0.0/8".parse().unwrap()),
            next_hop: Some("192.0.2.1".parse().unwrap()),
            as_path: None,
            communities: None,
            old_state: None,
            new_state: None,
        };
        let head = "{\"type\":\"A\",\"time\":100,\"project\":\"ris\",\"collector\":\"rrc01\",\
                    \"peer_asn\":65001,";
        let json = |elem: BgpStreamElem| elem_json(&record(vec![elem.clone()]), &elem);
        // A path ending in an AS_SET lists the set's members in place.
        let set_path = BgpStreamElem {
            as_path: Some(AsPath::from_segments(vec![
                AsPathSegment::Sequence(vec![Asn(65001), Asn(137)]),
                AsPathSegment::Set(vec![Asn(7), Asn(8)]),
            ])),
            ..base.clone()
        };
        assert_eq!(
            json(set_path),
            format!(
                "{head}\"peer_address\":\"192.0.2.1\",\"prefix\":\"10.0.0.0/8\",\
                 \"next_hop\":\"192.0.2.1\",\"as_path\":[65001,137,7,8]}}"
            )
        );
        let v6 = BgpStreamElem {
            peer_address: "2001:db8::2".parse().unwrap(),
            prefix: Some("2001:db8::/32".parse().unwrap()),
            next_hop: Some("2001:db8::1".parse().unwrap()),
            as_path: Some(AsPath::from_sequence([65001, 137])),
            ..base.clone()
        };
        assert_eq!(
            json(v6),
            format!(
                "{head}\"peer_address\":\"2001:db8::2\",\"prefix\":\"2001:db8::/32\",\
                 \"next_hop\":\"2001:db8::1\",\"as_path\":[65001,137]}}"
            )
        );
        let withdrawal = BgpStreamElem {
            elem_type: ElemType::Withdrawal,
            next_hop: None,
            ..base.clone()
        };
        assert_eq!(
            json(withdrawal),
            "{\"type\":\"W\",\"time\":100,\"project\":\"ris\",\"collector\":\"rrc01\",\
             \"peer_asn\":65001,\"peer_address\":\"192.0.2.1\",\"prefix\":\"10.0.0.0/8\"}"
        );
        // Six communities: one more than a set keeps inline.
        let many = BgpStreamElem {
            as_path: Some(AsPath::from_sequence([65001])),
            communities: Some(CommunitySet::from_iter(
                (1..=6).rev().map(|v| Community::new(3356, v)),
            )),
            ..base
        };
        assert_eq!(
            json(many),
            format!(
                "{head}\"peer_address\":\"192.0.2.1\",\"prefix\":\"10.0.0.0/8\",\
                 \"next_hop\":\"192.0.2.1\",\"as_path\":[65001],\"communities\":\
                 [\"3356:1\",\"3356:2\",\"3356:3\",\"3356:4\",\"3356:5\",\"3356:6\"]}}"
            )
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_string("x\ny"), "x\\u000ay");
    }

    #[test]
    fn record_lines_one_per_elem() {
        let e = BgpStreamElem {
            elem_type: ElemType::Withdrawal,
            time: 1,
            peer_address: "192.0.2.1".parse().unwrap(),
            peer_asn: Asn(65001),
            prefix: Some("10.0.0.0/8".parse().unwrap()),
            next_hop: None,
            as_path: None,
            communities: None,
            old_state: None,
            new_state: None,
        };
        let rec = record(vec![e.clone(), e]);
        assert_eq!(record_lines(&rec).len(), 2);
    }
}
