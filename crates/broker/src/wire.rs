//! The broker service's versioned wire protocol.
//!
//! The paper's broker speaks HTTP+JSON; ours speaks a compact binary
//! framing over `mq` messages (one request or response per message
//! payload). The format is deliberately boring: a leading protocol
//! version byte, a kind tag, then little-endian fixed-width integers
//! and `u32`-length-prefixed UTF-8 strings. No self-description — the
//! version byte is the compatibility contract, and a decoder that
//! meets a frame it cannot parse reports [`BrokerError::Malformed`]
//! (or [`BrokerError::Protocol`] for an unknown version) rather than
//! guessing.
//!
//! Layout:
//!
//! ```text
//! request  := ver:u8 kind:u8 client:str req_id:u64 body
//!   kind 0 Query    { query window_start:u64 now:u64 }
//!   kind 1 OpenLive { query policy resume:opt<u64> }
//!   kind 2 PollLive { lease:u64 now:u64 }
//!   kind 3 Renew    { lease:u64 }
//!   kind 4 Close    { lease:u64 }
//!
//! response := ver:u8 req_id:u64 index_version:u64 watermark:u64 kind:u8 body
//!   kind 0 Query      { files:vec<meta> exhausted:u8 next_window_start:u64 }
//!   kind 1 LiveOpened { lease:u64 }
//!   kind 2 Live       { files:vec<meta> late:vec<meta> advanced:u8
//!                       released_through:u64 }
//!   kind 3 Renewed
//!   kind 4 Closed
//!   kind 5 Error      { code:u8 msg:str }
//! ```
//!
//! Every response carries the server's index version and watermark so
//! clients keep a fresh local change detector for free.

use std::path::PathBuf;

use crate::client::LeaseId;
use crate::error::BrokerError;
use crate::index::{DumpMeta, DumpType, Query};
use crate::live::{LivePoll, ReleasePolicy};

/// Topic every client produces requests to (one partition: the service
/// is its only consumer and keeps arrival order).
pub(crate) const REQUEST_TOPIC: &str = "broker.requests";
/// Each client's replies go to `{REPLY_PREFIX}{client}`.
pub(crate) const REPLY_PREFIX: &str = "broker.replies.";
/// Topic carrying `(index_version, watermark)` change events.
pub(crate) const EVENTS_TOPIC: &str = "broker.events";

/// Protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// One client request frame.
#[derive(Clone, PartialEq, Debug)]
pub struct RequestEnvelope {
    /// Client identity; routes the response to the client's reply
    /// topic and scopes per-client admission control.
    pub client: String,
    /// Client-assigned correlation id, echoed in the response.
    pub req_id: u64,
    /// The operation.
    pub body: BrokerRequest,
}

/// The broker operations.
#[derive(Clone, PartialEq, Debug)]
pub enum BrokerRequest {
    /// One windowed historical query page.
    Query {
        /// Meta-data filters and interval.
        query: Query,
        /// The client's cursor position ([`BrokerCursor.window_start`]).
        ///
        /// [`BrokerCursor.window_start`]: crate::BrokerCursor
        window_start: u64,
        /// Virtual publication-visibility time.
        now: u64,
    },
    /// Open (or resume) a live-cursor lease.
    OpenLive {
        /// Meta-data filters; `end` is ignored (live never exhausts).
        query: Query,
        /// Window release policy for the server-side cursor.
        policy: ReleasePolicy,
        /// Existing lease to re-attach to (exactly-once resume).
        resume: Option<LeaseId>,
    },
    /// Advance a live lease by one poll.
    PollLive {
        /// The lease.
        lease: LeaseId,
        /// Virtual time of the poll.
        now: u64,
    },
    /// Keep a lease alive without polling it.
    Renew {
        /// The lease.
        lease: LeaseId,
    },
    /// Close a lease, freeing its cursor.
    Close {
        /// The lease.
        lease: LeaseId,
    },
}

/// One server response frame.
#[derive(Clone, PartialEq, Debug)]
pub struct ResponseEnvelope {
    /// Correlation id of the request this answers.
    pub req_id: u64,
    /// Server index version at response time (client change detector).
    pub index_version: u64,
    /// Server publication watermark at response time.
    pub watermark: u64,
    /// The payload.
    pub body: BrokerResponse,
}

/// Response payloads, one per [`BrokerRequest`] kind plus errors.
#[derive(Clone, PartialEq, Debug)]
pub enum BrokerResponse {
    /// Historical query page.
    Query {
        /// The window's files.
        files: Vec<DumpMeta>,
        /// Whether the interval is exhausted.
        exhausted: bool,
        /// Cursor position after this page.
        next_window_start: u64,
    },
    /// Lease granted (or resumed).
    LiveOpened {
        /// The lease id to poll with.
        lease: LeaseId,
    },
    /// One live poll's outcome.
    Live(LivePoll),
    /// Lease renewed.
    Renewed,
    /// Lease closed.
    Closed,
    /// The request failed.
    Error(BrokerError),
}

// ---------------------------------------------------------------- encode

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_strs(out: &mut Vec<u8>, v: &[String]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for s in v {
        put_str(out, s);
    }
}

fn dump_type_tag(t: DumpType) -> u8 {
    match t {
        DumpType::Rib => 0,
        DumpType::Updates => 1,
    }
}

fn put_query(out: &mut Vec<u8>, q: &Query) {
    put_strs(out, &q.projects);
    put_strs(out, &q.collectors);
    out.extend_from_slice(&(q.dump_types.len() as u32).to_le_bytes());
    for t in &q.dump_types {
        out.push(dump_type_tag(*t));
    }
    put_u64(out, q.start);
    match q.end {
        Some(e) => {
            out.push(1);
            put_u64(out, e);
        }
        None => out.push(0),
    }
}

fn put_meta(out: &mut Vec<u8>, m: &DumpMeta) {
    put_str(out, &m.project);
    put_str(out, &m.collector);
    out.push(dump_type_tag(m.dump_type));
    put_u64(out, m.interval_start);
    put_u64(out, m.duration);
    put_str(out, &m.path.to_string_lossy());
    put_u64(out, m.available_at);
    put_u64(out, m.size);
}

fn put_metas(out: &mut Vec<u8>, v: &[DumpMeta]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for m in v {
        put_meta(out, m);
    }
}

impl RequestEnvelope {
    /// Serialise to one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(WIRE_VERSION);
        let kind = match &self.body {
            BrokerRequest::Query { .. } => 0u8,
            BrokerRequest::OpenLive { .. } => 1,
            BrokerRequest::PollLive { .. } => 2,
            BrokerRequest::Renew { .. } => 3,
            BrokerRequest::Close { .. } => 4,
        };
        out.push(kind);
        put_str(&mut out, &self.client);
        put_u64(&mut out, self.req_id);
        match &self.body {
            BrokerRequest::Query {
                query,
                window_start,
                now,
            } => {
                put_query(&mut out, query);
                put_u64(&mut out, *window_start);
                put_u64(&mut out, *now);
            }
            BrokerRequest::OpenLive {
                query,
                policy,
                resume,
            } => {
                put_query(&mut out, query);
                match policy {
                    ReleasePolicy::Grace(g) => {
                        out.push(0);
                        put_u64(&mut out, *g);
                    }
                    ReleasePolicy::Watermark => out.push(1),
                }
                match resume {
                    Some(id) => {
                        out.push(1);
                        put_u64(&mut out, *id);
                    }
                    None => out.push(0),
                }
            }
            BrokerRequest::PollLive { lease, now } => {
                put_u64(&mut out, *lease);
                put_u64(&mut out, *now);
            }
            BrokerRequest::Renew { lease } | BrokerRequest::Close { lease } => {
                put_u64(&mut out, *lease);
            }
        }
        out
    }
}

fn error_code(e: &BrokerError) -> (u8, &str) {
    match e {
        BrokerError::Io(m) => (0, m.as_str()),
        BrokerError::Malformed(m) => (1, m.as_str()),
        BrokerError::LeaseExpired => (2, ""),
        BrokerError::Busy => (3, ""),
        BrokerError::Protocol(m) => (4, m.as_str()),
    }
}

impl ResponseEnvelope {
    /// Serialise to one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(WIRE_VERSION);
        put_u64(&mut out, self.req_id);
        put_u64(&mut out, self.index_version);
        put_u64(&mut out, self.watermark);
        match &self.body {
            BrokerResponse::Query {
                files,
                exhausted,
                next_window_start,
            } => {
                out.push(0);
                put_metas(&mut out, files);
                out.push(u8::from(*exhausted));
                put_u64(&mut out, *next_window_start);
            }
            BrokerResponse::LiveOpened { lease } => {
                out.push(1);
                put_u64(&mut out, *lease);
            }
            BrokerResponse::Live(poll) => {
                out.push(2);
                put_metas(&mut out, &poll.files);
                put_metas(&mut out, &poll.late);
                out.push(u8::from(poll.advanced));
                put_u64(&mut out, poll.released_through);
            }
            BrokerResponse::Renewed => out.push(3),
            BrokerResponse::Closed => out.push(4),
            BrokerResponse::Error(e) => {
                out.push(5);
                let (code, msg) = error_code(e);
                out.push(code);
                put_str(&mut out, msg);
            }
        }
        out
    }
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BrokerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| BrokerError::Malformed("truncated wire frame".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BrokerError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, BrokerError> {
        // xcheck:allow(unwrap) — take(4) returned exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, BrokerError> {
        // xcheck:allow(unwrap) — take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, BrokerError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| BrokerError::Malformed("non-UTF-8 string on the wire".into()))
    }

    fn strs(&mut self) -> Result<Vec<String>, BrokerError> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.str()).collect()
    }

    fn dump_type(&mut self) -> Result<DumpType, BrokerError> {
        match self.u8()? {
            0 => Ok(DumpType::Rib),
            1 => Ok(DumpType::Updates),
            t => Err(BrokerError::Malformed(format!("unknown dump type tag {t}"))),
        }
    }

    fn query(&mut self) -> Result<Query, BrokerError> {
        let projects = self.strs()?;
        let collectors = self.strs()?;
        let n = self.u32()? as usize;
        let dump_types = (0..n)
            .map(|_| self.dump_type())
            .collect::<Result<Vec<_>, _>>()?;
        let start = self.u64()?;
        let end = match self.u8()? {
            0 => None,
            _ => Some(self.u64()?),
        };
        Ok(Query {
            projects,
            collectors,
            dump_types,
            start,
            end,
        })
    }

    fn meta(&mut self) -> Result<DumpMeta, BrokerError> {
        Ok(DumpMeta {
            project: self.str()?,
            collector: self.str()?,
            dump_type: self.dump_type()?,
            interval_start: self.u64()?,
            duration: self.u64()?,
            path: PathBuf::from(self.str()?),
            available_at: self.u64()?,
            size: self.u64()?,
        })
    }

    fn metas(&mut self) -> Result<Vec<DumpMeta>, BrokerError> {
        let n = self.u32()? as usize;
        // Cap pre-allocation by the frame length: a corrupt count must
        // not trigger a huge allocation before `take` fails.
        let mut out = Vec::with_capacity(n.min(self.buf.len() / 8 + 1));
        for _ in 0..n {
            out.push(self.meta()?);
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), BrokerError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(BrokerError::Malformed(format!(
                "{} trailing bytes on wire frame",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn check_version(r: &mut Reader<'_>) -> Result<(), BrokerError> {
    match r.u8()? {
        WIRE_VERSION => Ok(()),
        v => Err(BrokerError::Protocol(format!(
            "unknown wire version {v} (this build speaks {WIRE_VERSION})"
        ))),
    }
}

impl RequestEnvelope {
    /// Parse one wire frame.
    pub fn decode(buf: &[u8]) -> Result<Self, BrokerError> {
        let mut r = Reader::new(buf);
        check_version(&mut r)?;
        let kind = r.u8()?;
        let client = r.str()?;
        let req_id = r.u64()?;
        let body = match kind {
            0 => BrokerRequest::Query {
                query: r.query()?,
                window_start: r.u64()?,
                now: r.u64()?,
            },
            1 => {
                let query = r.query()?;
                let policy = match r.u8()? {
                    0 => ReleasePolicy::Grace(r.u64()?),
                    1 => ReleasePolicy::Watermark,
                    t => {
                        return Err(BrokerError::Malformed(format!(
                            "unknown release policy tag {t}"
                        )))
                    }
                };
                let resume = match r.u8()? {
                    0 => None,
                    _ => Some(r.u64()?),
                };
                BrokerRequest::OpenLive {
                    query,
                    policy,
                    resume,
                }
            }
            2 => BrokerRequest::PollLive {
                lease: r.u64()?,
                now: r.u64()?,
            },
            3 => BrokerRequest::Renew { lease: r.u64()? },
            4 => BrokerRequest::Close { lease: r.u64()? },
            k => return Err(BrokerError::Malformed(format!("unknown request kind {k}"))),
        };
        r.done()?;
        Ok(RequestEnvelope {
            client,
            req_id,
            body,
        })
    }
}

impl ResponseEnvelope {
    /// Parse one wire frame.
    pub fn decode(buf: &[u8]) -> Result<Self, BrokerError> {
        let mut r = Reader::new(buf);
        check_version(&mut r)?;
        let req_id = r.u64()?;
        let index_version = r.u64()?;
        let watermark = r.u64()?;
        let body = match r.u8()? {
            0 => BrokerResponse::Query {
                files: r.metas()?,
                exhausted: r.u8()? != 0,
                next_window_start: r.u64()?,
            },
            1 => BrokerResponse::LiveOpened { lease: r.u64()? },
            2 => BrokerResponse::Live(LivePoll {
                files: r.metas()?,
                late: r.metas()?,
                advanced: r.u8()? != 0,
                released_through: r.u64()?,
            }),
            3 => BrokerResponse::Renewed,
            4 => BrokerResponse::Closed,
            5 => {
                let code = r.u8()?;
                let msg = r.str()?;
                BrokerResponse::Error(match code {
                    0 => BrokerError::Io(msg),
                    1 => BrokerError::Malformed(msg),
                    2 => BrokerError::LeaseExpired,
                    3 => BrokerError::Busy,
                    4 => BrokerError::Protocol(msg),
                    c => {
                        return Err(BrokerError::Malformed(format!("unknown error code {c}")));
                    }
                })
            }
            k => {
                return Err(BrokerError::Malformed(format!("unknown response kind {k}")));
            }
        };
        r.done()?;
        Ok(ResponseEnvelope {
            req_id,
            index_version,
            watermark,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta(start: u64) -> DumpMeta {
        DumpMeta {
            project: "ris".into(),
            collector: "rrc01".into(),
            dump_type: DumpType::Updates,
            interval_start: start,
            duration: 300,
            path: PathBuf::from(format!("/tmp/rrc01-{start}.mrt")),
            available_at: start + 90,
            size: 1234,
        }
    }

    fn sample_query() -> Query {
        Query {
            projects: vec!["ris".into(), "routeviews".into()],
            collectors: vec!["rrc01".into()],
            dump_types: vec![DumpType::Rib, DumpType::Updates],
            start: 100,
            end: Some(7200),
        }
    }

    #[test]
    fn request_roundtrip_all_kinds() {
        let bodies = vec![
            BrokerRequest::Query {
                query: sample_query(),
                window_start: 3600,
                now: 5000,
            },
            BrokerRequest::OpenLive {
                query: Query {
                    end: None,
                    ..sample_query()
                },
                policy: ReleasePolicy::Grace(300),
                resume: None,
            },
            BrokerRequest::OpenLive {
                query: Query::default(),
                policy: ReleasePolicy::Watermark,
                resume: Some(77),
            },
            BrokerRequest::PollLive { lease: 9, now: 42 },
            BrokerRequest::Renew { lease: 9 },
            BrokerRequest::Close { lease: 9 },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let env = RequestEnvelope {
                client: format!("client-{i}"),
                req_id: i as u64 * 31 + 1,
                body,
            };
            let back = RequestEnvelope::decode(&env.encode()).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn response_roundtrip_all_kinds() {
        let bodies = vec![
            BrokerResponse::Query {
                files: vec![sample_meta(0), sample_meta(300)],
                exhausted: true,
                next_window_start: 7201,
            },
            BrokerResponse::LiveOpened { lease: 5 },
            BrokerResponse::Live(LivePoll {
                files: vec![sample_meta(0)],
                late: vec![sample_meta(300)],
                advanced: true,
                released_through: 3600,
            }),
            BrokerResponse::Renewed,
            BrokerResponse::Closed,
            BrokerResponse::Error(BrokerError::Io("disk on fire".into())),
            BrokerResponse::Error(BrokerError::LeaseExpired),
            BrokerResponse::Error(BrokerError::Busy),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let env = ResponseEnvelope {
                req_id: i as u64,
                index_version: 12,
                watermark: 3600,
                body,
            };
            let back = ResponseEnvelope::decode(&env.encode()).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            RequestEnvelope::decode(&[]),
            Err(BrokerError::Malformed(_))
        ));
        // Unknown version is a protocol error, not a parse error.
        assert!(matches!(
            RequestEnvelope::decode(&[99, 0, 0, 0]),
            Err(BrokerError::Protocol(_))
        ));
        // Truncated mid-frame.
        let good = RequestEnvelope {
            client: "c".into(),
            req_id: 1,
            body: BrokerRequest::Renew { lease: 3 },
        }
        .encode();
        assert!(matches!(
            RequestEnvelope::decode(&good[..good.len() - 1]),
            Err(BrokerError::Malformed(_))
        ));
        // Trailing bytes are rejected too.
        let mut padded = good;
        padded.push(0);
        assert!(matches!(
            RequestEnvelope::decode(&padded),
            Err(BrokerError::Malformed(_))
        ));
        assert!(matches!(
            ResponseEnvelope::decode(&[1, 0]),
            Err(BrokerError::Malformed(_))
        ));
    }
}
