//! JSON-line elem ingest — the ExaBGP-style input path (§7).
//!
//! The paper's future-work list includes "support for more data
//! formats (e.g., JSON exports from ExaBGP)". [`crate::ascii::elem_json`]
//! is the export half; this module is the ingest half: it parses one
//! JSON object per line back into a [`BgpStreamElem`] plus its source
//! annotations, so a stream of JSON lines (a pipe from an ExaBGP-like
//! process) can feed the same analysis code as MRT archives.
//!
//! The parser is a small, dependency-free recursive-descent JSON
//! reader specialized to flat objects of strings, integers, and
//! arrays thereof — exactly the elem schema. It rejects anything the
//! schema cannot represent (nested objects, floats, booleans) rather
//! than guessing.

use std::collections::BTreeMap;

use bgp_types::{AsPath, Asn, Community, CommunitySet, SessionState};

use crate::elem::{BgpStreamElem, ElemType};

/// Errors from [`parse_elem_json`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JsonError {
    /// Structurally invalid JSON.
    Syntax(&'static str),
    /// Valid JSON that does not fit the elem schema.
    Schema(&'static str),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(w) => write!(f, "JSON syntax: {w}"),
            JsonError::Schema(w) => write!(f, "elem schema: {w}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed elem line: the elem plus its provenance fields.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonElem {
    /// The elem.
    pub elem: BgpStreamElem,
    /// `project` field, if present.
    pub project: Option<String>,
    /// `collector` field, if present.
    pub collector: Option<String>,
}

/// One flat JSON value of the elem schema.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Value {
    Str(String),
    Int(u64),
    StrArray(Vec<String>),
    IntArray(Vec<u64>),
}

/// Parse one `elem_json` line back into an elem.
pub fn parse_elem_json(line: &str) -> Result<JsonElem, JsonError> {
    let map = parse_flat_object(line)?;
    let get_str = |key: &str| -> Option<&String> {
        match map.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    };
    let elem_type = match get_str("type").map(String::as_str) {
        Some("R") => ElemType::RibEntry,
        Some("A") => ElemType::Announcement,
        Some("W") => ElemType::Withdrawal,
        Some("S") => ElemType::PeerState,
        Some(_) => return Err(JsonError::Schema("unknown elem type code")),
        None => return Err(JsonError::Schema("missing type")),
    };
    let time = match map.get("time") {
        Some(Value::Int(t)) => *t,
        _ => return Err(JsonError::Schema("missing/non-integer time")),
    };
    let peer_asn = match map.get("peer_asn") {
        Some(Value::Int(a)) => {
            Asn(u32::try_from(*a).map_err(|_| JsonError::Schema("peer_asn out of range"))?)
        }
        _ => return Err(JsonError::Schema("missing/non-integer peer_asn")),
    };
    let peer_address = get_str("peer_address")
        .ok_or(JsonError::Schema("missing peer_address"))?
        .parse()
        .map_err(|_| JsonError::Schema("bad peer_address"))?;
    let prefix = match get_str("prefix") {
        Some(s) => Some(s.parse().map_err(|_| JsonError::Schema("bad prefix"))?),
        None => None,
    };
    let next_hop = match get_str("next_hop") {
        Some(s) => Some(s.parse().map_err(|_| JsonError::Schema("bad next_hop"))?),
        None => None,
    };
    let as_path = match map.get("as_path") {
        Some(Value::IntArray(hops)) => {
            let hops: Result<Vec<u32>, _> = hops.iter().map(|&h| u32::try_from(h)).collect();
            Some(AsPath::from_sequence(hops.map_err(|_| {
                JsonError::Schema("as_path hop out of range")
            })?))
        }
        Some(_) => return Err(JsonError::Schema("as_path must be an integer array")),
        None => None,
    };
    let communities = match map.get("communities") {
        Some(Value::StrArray(cs)) => {
            let mut set = Vec::with_capacity(cs.len());
            for c in cs {
                let (a, v) = c
                    .split_once(':')
                    .ok_or(JsonError::Schema("bad community format"))?;
                let a = a
                    .parse()
                    .map_err(|_| JsonError::Schema("bad community asn"))?;
                let v = v
                    .parse()
                    .map_err(|_| JsonError::Schema("bad community value"))?;
                set.push(Community::new(a, v));
            }
            Some(CommunitySet::from_iter(set))
        }
        Some(_) => return Err(JsonError::Schema("communities must be a string array")),
        None => {
            // The exporter omits empty community sets; route-carrying
            // elems still have Some(empty) semantics downstream.
            matches!(elem_type, ElemType::RibEntry | ElemType::Announcement).then(CommunitySet::new)
        }
    };
    let parse_state = |key: &'static str| -> Result<Option<SessionState>, JsonError> {
        match get_str(key).map(String::as_str) {
            Some("IDLE") => Ok(Some(SessionState::Idle)),
            Some("CONNECT") => Ok(Some(SessionState::Connect)),
            Some("ACTIVE") => Ok(Some(SessionState::Active)),
            Some("OPENSENT") => Ok(Some(SessionState::OpenSent)),
            Some("OPENCONFIRM") => Ok(Some(SessionState::OpenConfirm)),
            Some("ESTABLISHED") => Ok(Some(SessionState::Established)),
            Some(_) => Err(JsonError::Schema("unknown FSM state")),
            None => Ok(None),
        }
    };
    let elem = BgpStreamElem {
        elem_type,
        time,
        peer_address,
        peer_asn,
        prefix,
        next_hop,
        as_path,
        communities,
        old_state: parse_state("old_state")?,
        new_state: parse_state("new_state")?,
    };
    // Schema cross-checks mirroring Table 1's conditional columns.
    match elem.elem_type {
        ElemType::RibEntry | ElemType::Announcement => {
            if elem.prefix.is_none() || elem.as_path.is_none() {
                return Err(JsonError::Schema("route elem missing prefix/as_path"));
            }
        }
        ElemType::Withdrawal => {
            if elem.prefix.is_none() {
                return Err(JsonError::Schema("withdrawal missing prefix"));
            }
        }
        ElemType::PeerState => {
            if elem.old_state.is_none() || elem.new_state.is_none() {
                return Err(JsonError::Schema("state elem missing states"));
            }
        }
    }
    Ok(JsonElem {
        elem,
        project: get_str("project").cloned(),
        collector: get_str("collector").cloned(),
    })
}

/// Parse a flat JSON object into a key→value map.
fn parse_flat_object(input: &str) -> Result<BTreeMap<String, Value>, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.consume(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.consume(b':')?;
            p.skip_ws();
            let value = p.value()?;
            map.insert(key, value);
            p.skip_ws();
            match p.next_byte()? {
                b',' => continue,
                b'}' => break,
                _ => return Err(JsonError::Syntax("expected ',' or '}'")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::Syntax("trailing bytes after object"));
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Result<u8, JsonError> {
        let b = self
            .peek()
            .ok_or(JsonError::Syntax("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn consume(&mut self, b: u8) -> Result<(), JsonError> {
        if self.next_byte()? != b {
            return Err(JsonError::Syntax("unexpected byte"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_byte()? {
                b'"' => return Ok(out),
                b'\\' => match self.next_byte()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err(JsonError::Syntax("truncated \\u escape"));
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| JsonError::Syntax("bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::Syntax("bad \\u escape"))?;
                        out.push(
                            char::from_u32(cp).ok_or(JsonError::Syntax("bad \\u code point"))?,
                        );
                        self.pos += 4;
                    }
                    _ => return Err(JsonError::Syntax("unknown escape")),
                },
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid; copy it through.
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    if start + width > self.bytes.len() {
                        return Err(JsonError::Syntax("truncated UTF-8"));
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..start + width])
                            .map_err(|_| JsonError::Syntax("invalid UTF-8"))?,
                    );
                    self.pos = start + width;
                }
            }
        }
    }

    fn integer(&mut self) -> Result<u64, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(JsonError::Syntax("expected digit"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::Schema("floats not in elem schema"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::Syntax("non-utf8 in number"))?
            .parse()
            .map_err(|_| JsonError::Syntax("integer overflow"))
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'0'..=b'9') => Ok(Value::Int(self.integer()?)),
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    // Ambiguous empty array: represent as empty
                    // integer array (schema uses arrays for paths and
                    // communities; both reject mixed use downstream).
                    return Ok(Value::IntArray(Vec::new()));
                }
                let mut strs = Vec::new();
                let mut ints = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b'"') => {
                            if !ints.is_empty() {
                                return Err(JsonError::Schema("mixed array"));
                            }
                            strs.push(self.string()?);
                        }
                        Some(b'0'..=b'9') => {
                            if !strs.is_empty() {
                                return Err(JsonError::Schema("mixed array"));
                            }
                            ints.push(self.integer()?);
                        }
                        _ => return Err(JsonError::Syntax("unsupported array element")),
                    }
                    self.skip_ws();
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => break,
                        _ => return Err(JsonError::Syntax("expected ',' or ']'")),
                    }
                }
                if strs.is_empty() {
                    Ok(Value::IntArray(ints))
                } else {
                    Ok(Value::StrArray(strs))
                }
            }
            _ => Err(JsonError::Syntax("unsupported value type")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ascii::elem_json;
    use crate::record::BgpStreamRecord;

    fn announce_elem() -> BgpStreamElem {
        BgpStreamElem {
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
        }
    }

    fn record_for(elem: BgpStreamElem) -> BgpStreamRecord {
        BgpStreamRecord::new(
            "ris",
            "rrc01",
            broker::DumpType::Updates,
            elem.time,
            elem.time,
            crate::record::DumpPosition::Only,
            crate::record::RecordStatus::Valid,
            vec![elem],
        )
    }

    #[test]
    fn roundtrips_announcement() {
        let elem = announce_elem();
        let rec = record_for(elem.clone());
        let line = elem_json(&rec, &elem);
        let parsed = parse_elem_json(&line).unwrap();
        assert_eq!(parsed.elem, elem);
        assert_eq!(parsed.project.as_deref(), Some("ris"));
        assert_eq!(parsed.collector.as_deref(), Some("rrc01"));
    }

    #[test]
    fn roundtrips_withdrawal() {
        let elem = BgpStreamElem {
            elem_type: ElemType::Withdrawal,
            next_hop: None,
            as_path: None,
            communities: None,
            ..announce_elem()
        };
        let rec = record_for(elem.clone());
        let parsed = parse_elem_json(&elem_json(&rec, &elem)).unwrap();
        assert_eq!(parsed.elem, elem);
    }

    #[test]
    fn roundtrips_state_message() {
        let elem = BgpStreamElem {
            elem_type: ElemType::PeerState,
            prefix: None,
            next_hop: None,
            as_path: None,
            communities: None,
            old_state: Some(SessionState::Established),
            new_state: Some(SessionState::Idle),
            ..announce_elem()
        };
        let rec = record_for(elem.clone());
        let parsed = parse_elem_json(&elem_json(&rec, &elem)).unwrap();
        assert_eq!(parsed.elem, elem);
    }

    #[test]
    fn announcement_without_communities_key_gets_empty_set() {
        // The exporter omits empty sets; ingest restores Some(empty).
        let line = "{\"type\":\"A\",\"time\":5,\"peer_asn\":1,\
                    \"peer_address\":\"10.0.0.1\",\"prefix\":\"10.0.0.0/8\",\
                    \"next_hop\":\"10.0.0.1\",\"as_path\":[1,2]}";
        let parsed = parse_elem_json(line).unwrap();
        assert_eq!(parsed.elem.communities, Some(CommunitySet::new()));
        assert!(parsed.project.is_none());
    }

    #[test]
    fn schema_violations_rejected() {
        // Route without prefix.
        let line = "{\"type\":\"A\",\"time\":5,\"peer_asn\":1,\
                    \"peer_address\":\"10.0.0.1\",\"next_hop\":\"10.0.0.1\",\
                    \"as_path\":[1]}";
        assert!(matches!(parse_elem_json(line), Err(JsonError::Schema(_))));
        // State message without states.
        let line = "{\"type\":\"S\",\"time\":5,\"peer_asn\":1,\
                    \"peer_address\":\"10.0.0.1\"}";
        assert!(matches!(parse_elem_json(line), Err(JsonError::Schema(_))));
        // Unknown type code.
        let line = "{\"type\":\"X\",\"time\":5,\"peer_asn\":1,\
                    \"peer_address\":\"10.0.0.1\"}";
        assert!(matches!(parse_elem_json(line), Err(JsonError::Schema(_))));
    }

    #[test]
    fn syntax_errors_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}trailing",
            "{\"a\":1.5}",
            "{\"a\":{\"nested\":1}}",
            "{\"a\":[1,\"x\"]}",
            "{\"a\":true}",
        ] {
            assert!(parse_elem_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escapes_in_strings() {
        let line = "{\"type\":\"S\",\"time\":1,\"peer_asn\":1,\
                    \"peer_address\":\"10.0.0.1\",\
                    \"old_state\":\"ESTABLISHED\",\"new_state\":\"IDLE\",\
                    \"collector\":\"rrc\\u0030\\n\"}";
        let parsed = parse_elem_json(line).unwrap();
        assert_eq!(parsed.collector.as_deref(), Some("rrc0\n"));
    }
}
