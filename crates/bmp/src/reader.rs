//! A pull parser for BMP byte streams.
//!
//! Mirrors [`mrt::ChunkedReader`]: wraps any [`std::io::Read`], yields one
//! message at a time, and — critically for the BGPStream error-checking
//! contract (§3.3.3) — distinguishes a clean end-of-stream from a
//! corrupted read so downstream code can mark records not-valid rather
//! than silently truncate.

use std::io::Read;

use bgp_types::codec::Reader;
use bgp_types::message::CodecError;

use crate::msg::{BmpMessage, BMP_VERSION, COMMON_HEADER_LEN};

/// Maximum BMP message we will buffer. RFC 7854 sets no limit; this
/// guards against a corrupted length field allocating gigabytes.
pub const MAX_MESSAGE_LEN: usize = 1 << 20;

/// Errors raised while decoding BMP wire data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BmpError {
    /// Fewer bytes than a structure requires.
    Truncated(&'static str),
    /// Unsupported BMP version byte.
    BadVersion(u8),
    /// Unknown message-type code.
    UnknownType(u8),
    /// A semantically invalid field.
    Invalid(&'static str),
    /// A length field outside sane bounds.
    BadLength(u32),
    /// An embedded BGP PDU failed to decode.
    Bgp(CodecError),
    /// Underlying I/O failure (message preserved; `io::Error` is not
    /// `Clone`).
    Io(String),
}

impl std::fmt::Display for BmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BmpError::Truncated(w) => write!(f, "truncated {w}"),
            BmpError::BadVersion(v) => write!(f, "unsupported BMP version {v}"),
            BmpError::UnknownType(t) => write!(f, "unknown BMP message type {t}"),
            BmpError::Invalid(w) => write!(f, "invalid {w}"),
            BmpError::BadLength(l) => write!(f, "implausible BMP message length {l}"),
            BmpError::Bgp(e) => write!(f, "embedded BGP PDU: {e}"),
            BmpError::Io(e) => write!(f, "I/O: {e}"),
        }
    }
}

impl std::error::Error for BmpError {}

impl BmpError {
    /// The error of a read through the checked reader over BMP
    /// structure. An embedded BGP PDU's error never comes here: it
    /// stays [`BmpError::Bgp`].
    pub(crate) fn framing(e: CodecError) -> BmpError {
        match e {
            CodecError::Truncated(w) => BmpError::Truncated(w),
            CodecError::Invalid(w) | CodecError::BadLength(w) => BmpError::Invalid(w),
            // Only the BGP header check raises these.
            CodecError::BadMarker | CodecError::UnknownType(_) => BmpError::Bgp(e),
        }
    }
}

/// Pull parser yielding [`BmpMessage`]s from a byte stream.
///
/// ```
/// use bmp::{BmpMessage, BmpReader};
/// use bmp::tlv::InfoTlv;
///
/// let wire = BmpMessage::Initiation(vec![InfoTlv::SysName("r1".into())]).encode();
/// let mut reader = BmpReader::new(&wire[..]);
/// let msg = reader.next().unwrap().unwrap();
/// assert!(matches!(msg, BmpMessage::Initiation(_)));
/// assert!(reader.next().is_none());
/// ```
pub struct BmpReader<R> {
    inner: R,
    messages_read: u64,
    poisoned: bool,
}

impl<R: Read> BmpReader<R> {
    /// Wrap a byte stream.
    pub fn new(inner: R) -> Self {
        BmpReader {
            inner,
            messages_read: 0,
            poisoned: false,
        }
    }

    /// Messages successfully decoded so far.
    pub fn messages_read(&self) -> u64 {
        self.messages_read
    }

    /// Drain the stream; returns decoded messages and the first error,
    /// if any.
    pub fn read_all(self) -> (Vec<BmpMessage>, Option<BmpError>) {
        let mut msgs = Vec::new();
        for r in self {
            match r {
                Ok(m) => msgs.push(m),
                Err(e) => return (msgs, Some(e)),
            }
        }
        (msgs, None)
    }
}

impl<R: Read> Iterator for BmpReader<R> {
    type Item = Result<BmpMessage, BmpError>;

    /// Pull the next message. `None` means clean end-of-stream;
    /// `Some(Err(_))` is a corrupted read, after which the reader
    /// yields nothing further (framing is lost).
    fn next(&mut self) -> Option<Result<BmpMessage, BmpError>> {
        if self.poisoned {
            return None;
        }
        let mut header = [0u8; COMMON_HEADER_LEN];
        let header = match fill_or_eof(&mut self.inner, &mut header) {
            Ok(0) => return None,
            Ok(n) => read_common_header(&header[..n]),
            Err(e) => Err(BmpError::Io(e.to_string())),
        };
        let (version, length, type_code) = match header {
            Ok(header) => header,
            Err(e) => {
                self.poisoned = true;
                return Some(Err(e));
            }
        };
        if version != BMP_VERSION {
            self.poisoned = true;
            return Some(Err(BmpError::BadVersion(version)));
        }
        let length = length as usize;
        if !(COMMON_HEADER_LEN..=MAX_MESSAGE_LEN).contains(&length) {
            self.poisoned = true;
            return Some(Err(BmpError::BadLength(length as u32)));
        }
        let mut body = vec![0u8; length - COMMON_HEADER_LEN];
        match fill_or_eof(&mut self.inner, &mut body) {
            Ok(n) if n < body.len() => {
                self.poisoned = true;
                return Some(Err(BmpError::Truncated("message body")));
            }
            Ok(_) => {}
            Err(e) => {
                self.poisoned = true;
                return Some(Err(BmpError::Io(e.to_string())));
            }
        }
        match BmpMessage::decode(type_code, &body) {
            Ok(msg) => {
                self.messages_read += 1;
                Some(Ok(msg))
            }
            Err(e) => {
                // Framing survives a bad body (we consumed exactly one
                // message), so subsequent messages remain readable.
                Some(Err(e))
            }
        }
    }
}

/// The RFC 7854 §4.1 common header: version, message length, type.
fn read_common_header(header: &[u8]) -> Result<(u8, u32, u8), BmpError> {
    let mut r = Reader::new(header, "common header");
    let mut read = || Ok((r.u8()?, r.u32()?, r.u8()?));
    read().map_err(BmpError::framing)
}

/// Read exactly `buf.len()` bytes unless EOF intervenes; returns the
/// number of bytes actually read.
fn fill_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::PerPeerHeader;
    use crate::tlv::InfoTlv;
    use bgp_types::Asn;
    use bytes::BufMut;

    fn init_msg(name: &str) -> BmpMessage {
        BmpMessage::Initiation(vec![InfoTlv::SysName(name.into())])
    }

    #[test]
    fn reads_message_sequence() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&init_msg("a").encode());
        wire.extend_from_slice(&init_msg("b").encode());
        let (msgs, err) = BmpReader::new(&wire[..]).read_all();
        assert!(err.is_none());
        assert_eq!(msgs.len(), 2);
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut r = BmpReader::new(&[][..]);
        assert!(r.next().is_none());
        assert_eq!(r.messages_read(), 0);
    }

    #[test]
    fn truncated_header_signals_corruption() {
        let wire = init_msg("a").encode();
        let mut r = BmpReader::new(&wire[..3]);
        assert!(matches!(r.next(), Some(Err(BmpError::Truncated(_)))));
        assert!(r.next().is_none()); // poisoned
    }

    #[test]
    fn truncated_body_signals_corruption() {
        let wire = init_msg("abcdef").encode();
        let mut r = BmpReader::new(&wire[..wire.len() - 2]);
        assert!(matches!(r.next(), Some(Err(BmpError::Truncated(_)))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = init_msg("a").encode().to_vec();
        wire[0] = 2;
        let mut r = BmpReader::new(&wire[..]);
        assert!(matches!(r.next(), Some(Err(BmpError::BadVersion(2)))));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut wire = bytes::BytesMut::new();
        wire.put_u8(BMP_VERSION);
        wire.put_u32(u32::MAX);
        wire.put_u8(4);
        let mut r = BmpReader::new(&wire[..]);
        assert!(matches!(r.next(), Some(Err(BmpError::BadLength(_)))));
    }

    #[test]
    fn bad_body_does_not_lose_framing() {
        // First message: a peer-down with an invalid reason code;
        // second message: a valid initiation. The reader reports the
        // error, then continues.
        let good = BmpMessage::PeerDown {
            peer: PerPeerHeader::global("10.0.0.1".parse().unwrap(), Asn(1), 1, 0),
            reason: crate::msg::PeerDownReason::RemoteNoData,
        };
        let mut bad = good.encode().to_vec();
        *bad.last_mut().unwrap() = 9; // invalid reason code
        let mut wire = bad;
        wire.extend_from_slice(&init_msg("ok").encode());
        let mut r = BmpReader::new(&wire[..]);
        assert!(matches!(r.next(), Some(Err(BmpError::Invalid(_)))));
        assert!(matches!(r.next(), Some(Ok(BmpMessage::Initiation(_)))));
        assert!(r.next().is_none());
    }
}
