//! The MRT record reader, with corruption signalling.
//!
//! The paper (§3.3.3) extends libBGPdump to "signal a corrupted read"
//! so libBGPStream can mark records not-valid instead of silently
//! skipping them. [`ChunkedReader`] does the same: every `next()`
//! yields `Some(Ok(record))`, `Some(Err(error))` (corrupted read — the
//! stream is not advanced further), or `None` (clean end of file).

use std::io::Read;

use bgp_types::message::CodecError;

use crate::record::{MrtHeader, MrtRecord};

/// Errors surfaced while reading MRT data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MrtError {
    /// The input ended inside a structure.
    Truncated(&'static str),
    /// A structurally valid but semantically bad field.
    Invalid(&'static str),
    /// A record type/subtype this implementation does not handle.
    Unsupported(&'static str),
    /// The embedded BGP message failed to decode.
    Bgp(CodecError),
    /// An I/O error from the underlying reader.
    Io(String),
    /// A record body larger than the sanity cap (corrupt length field).
    OversizedRecord(u32),
}

impl std::fmt::Display for MrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrtError::Truncated(w) => write!(f, "truncated {w}"),
            MrtError::Invalid(w) => write!(f, "invalid {w}"),
            MrtError::Unsupported(w) => write!(f, "unsupported {w}"),
            MrtError::Bgp(e) => write!(f, "embedded BGP message: {e}"),
            MrtError::Io(e) => write!(f, "I/O: {e}"),
            MrtError::OversizedRecord(n) => write!(f, "record body of {n} bytes exceeds cap"),
        }
    }
}

impl std::error::Error for MrtError {}

impl MrtError {
    /// The error of a read through the checked reader over MRT
    /// structure. An embedded BGP message's error never comes here: it
    /// stays [`MrtError::Bgp`].
    pub(crate) fn framing(e: CodecError) -> MrtError {
        match e {
            CodecError::Truncated(w) => MrtError::Truncated(w),
            CodecError::Invalid(w) | CodecError::BadLength(w) => MrtError::Invalid(w),
            // Only the BGP header check raises these.
            CodecError::BadMarker | CodecError::UnknownType(_) => MrtError::Bgp(e),
        }
    }
}

/// Sanity cap on record bodies; real RIB rows stay well under this and
/// a larger value almost certainly indicates a corrupt length field.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// One framed-but-undecoded record handed out by
/// [`ChunkedReader::next_raw`]: the decoded 12-byte header plus the
/// body bytes, borrowed straight from the reader's window.
#[derive(Debug)]
pub struct RawRecord<'a> {
    /// The record's common header.
    pub header: MrtHeader,
    /// The undecoded body (exactly `header.length` bytes).
    pub body: &'a [u8],
}

/// The MRT record reader: streaming, with transparent gzip
/// decompression and a **bounded** window.
///
/// On open, the first two bytes of the source are sniffed: a gzip
/// magic routes the stream through `flate-lite`'s streaming
/// [`MultiGzDecoder`](flate_lite::read::MultiGzDecoder) (concatenated
/// members decode back-to-back, exactly how collectors publish
/// rotated archives), anything else is read as plain MRT. Either way
/// the decompressed stream is framed incrementally: the window holds
/// only the records currently being framed (compacted as the cursor
/// advances), so peak memory is `O(read_size + largest record)`
/// regardless of dump size.
///
/// `next_raw` frames without decoding, `next` decodes, clean EOF at a
/// record boundary yields `None`, and any framing/IO/decompression or
/// decode fault yields `Some(Err(_))` exactly once before poisoning
/// the reader. Compression faults (truncated member, trailing garbage,
/// CRC mismatch) surface as [`MrtError::Io`]. An in-memory plain dump
/// ([`ChunkedReader::from_bytes`]) is framed in place, one window, no
/// refills and no per-record copies.
///
/// ```
/// use mrt::{Bgp4mp, ChunkedReader, MrtRecord, MrtWriter};
/// use bgp_types::{Asn, BgpMessage};
///
/// let mut buf = Vec::new();
/// {
///     let mut w = MrtWriter::new(&mut buf);
///     w.write(&MrtRecord::bgp4mp(10, Bgp4mp::Message {
///         peer_asn: Asn(65001), local_asn: Asn(6447),
///         peer_ip: "192.0.2.1".parse().unwrap(),
///         local_ip: "192.0.2.254".parse().unwrap(),
///         message: BgpMessage::Keepalive,
///     })).unwrap();
/// }
/// let mut r = ChunkedReader::from_bytes(buf);
/// let rec = r.next().unwrap().unwrap();
/// assert_eq!(rec.timestamp, 10);
/// assert!(r.next().is_none());
/// ```
pub struct ChunkedReader {
    src: Box<dyn Read + Send>,
    /// Window storage. `start..filled` is live (decompressed but
    /// unframed); `filled..len` is initialized spare space refills
    /// read into. The length only ever grows, so the zeroing a
    /// `resize` implies is paid once per high-water mark — not once
    /// per refill, which would dwarf the framing work itself when
    /// many small dumps are open at once (the k-way merge).
    window: Vec<u8>,
    start: usize,
    filled: usize,
    read_size: usize,
    /// Next refill size: starts small and doubles up to `read_size`,
    /// so a dump smaller than one full window never pays for one.
    next_read: usize,
    eof: bool,
    poisoned: bool,
    count: u64,
    gzip: bool,
}

/// Upper bound on how many bytes a refill asks the (decompressed)
/// source for.
const DEFAULT_READ_SIZE: usize = 64 * 1024;
/// First-refill size (doubles per growth up to [`DEFAULT_READ_SIZE`]).
const INITIAL_READ_SIZE: usize = 8 * 1024;
/// Consumed-prefix size that triggers a window compaction.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Serves buffered sniff bytes before delegating to the inner reader.
struct Prefixed<R: Read> {
    prefix: Vec<u8>,
    pos: usize,
    inner: R,
}

impl<R: Read> Read for Prefixed<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.prefix.len() {
            let n = (self.prefix.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
            self.pos += n;
            return Ok(n);
        }
        self.inner.read(buf)
    }
}

const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

impl ChunkedReader {
    /// Open a dump file, sniffing for gzip compression.
    pub fn open(path: &std::path::Path) -> std::io::Result<ChunkedReader> {
        Self::from_reader(std::fs::File::open(path)?)
    }

    /// Wrap any byte source, sniffing for gzip compression.
    pub fn from_reader<R: Read + Send + 'static>(mut inner: R) -> std::io::Result<ChunkedReader> {
        // Sniff with a full first-chunk read, not a 2-byte one: for
        // the common small plain dump this is the only read syscall
        // the whole file needs, and the chunk becomes the window
        // directly instead of living behind a prefix shim.
        let mut first = vec![0u8; INITIAL_READ_SIZE];
        let mut n = 0;
        let mut eof = false;
        while n < GZIP_MAGIC.len() {
            match inner.read(&mut first[n..]) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(m) => n += m,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        first.truncate(n);
        let gzip = first.starts_with(&GZIP_MAGIC);
        if gzip {
            let prefixed = Prefixed {
                prefix: first,
                pos: 0,
                inner,
            };
            let src: Box<dyn Read + Send> =
                Box::new(flate_lite::read::MultiGzDecoder::new(prefixed));
            Ok(Self::from_source(src, true))
        } else {
            let mut r = Self::from_source(Box::new(inner), false);
            r.filled = first.len();
            r.window = first;
            r.eof = eof;
            Ok(r)
        }
    }

    /// Wrap an in-memory buffer (compressed or plain), infallibly.
    pub fn from_bytes(buf: Vec<u8>) -> ChunkedReader {
        let gzip = buf.starts_with(&GZIP_MAGIC);
        if gzip {
            let cursor = std::io::Cursor::new(buf);
            let src: Box<dyn Read + Send> = Box::new(flate_lite::read::MultiGzDecoder::new(cursor));
            Self::from_source(src, true)
        } else {
            // Plain bytes need no refills at all: adopt the buffer as
            // the (fully-filled, already-ended) window.
            let mut r = Self::from_source(Box::new(std::io::empty()), false);
            r.filled = buf.len();
            r.window = buf;
            r.eof = true;
            r
        }
    }

    fn from_source(src: Box<dyn Read + Send>, gzip: bool) -> ChunkedReader {
        ChunkedReader {
            src,
            window: Vec::new(),
            start: 0,
            filled: 0,
            read_size: DEFAULT_READ_SIZE,
            next_read: INITIAL_READ_SIZE,
            eof: false,
            poisoned: false,
            count: 0,
            gzip,
        }
    }

    /// Shrink the per-refill read size (tests use this to force records
    /// to straddle refill boundaries).
    pub fn with_read_size(mut self, read_size: usize) -> ChunkedReader {
        self.read_size = read_size.max(1);
        self.next_read = self.read_size;
        self
    }

    /// Whether the source was recognized as gzip-compressed.
    pub fn is_gzip(&self) -> bool {
        self.gzip
    }

    /// Number of records read so far.
    pub fn records_read(&self) -> u64 {
        self.count
    }

    fn available(&self) -> usize {
        self.filled - self.start
    }

    /// Pull from the source until `need` unconsumed bytes are windowed
    /// or the source ends. IO/decompression faults are returned as
    /// [`MrtError::Io`].
    fn fill_to(&mut self, need: usize) -> Result<(), MrtError> {
        while self.available() < need && !self.eof {
            if self.start >= COMPACT_THRESHOLD || self.start == self.filled {
                // Slide the live bytes down; storage (and its
                // initialization) is kept.
                self.window.copy_within(self.start..self.filled, 0);
                self.filled -= self.start;
                self.start = 0;
            }
            let spare = self.window.len() - self.filled;
            let len = if spare == 0 {
                self.window.resize(self.filled + self.next_read, 0);
                let len = self.next_read;
                self.next_read = (self.next_read * 2).min(self.read_size);
                len
            } else {
                spare.min(self.read_size)
            };
            match self
                .src
                .read(&mut self.window[self.filled..self.filled + len])
            {
                Ok(0) => self.eof = true,
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(MrtError::Io(e.to_string())),
            }
        }
        Ok(())
    }

    /// Frame the next record against the streaming window: decode the
    /// header, bounds-check the body, advance past it. Framing errors
    /// poison the reader.
    fn frame_next(&mut self) -> Option<Result<(MrtHeader, std::ops::Range<usize>), MrtError>> {
        if self.poisoned {
            return None;
        }
        let fail = |this: &mut Self, e: MrtError| {
            this.poisoned = true;
            Some(Err(e))
        };
        if let Err(e) = self.fill_to(MrtHeader::LEN) {
            return fail(self, e);
        }
        if self.available() == 0 {
            return None; // clean EOF at record boundary
        }
        let header = match MrtHeader::decode(&self.window[self.start..self.filled]) {
            Ok(h) => h,
            Err(e) => return fail(self, e),
        };
        if header.length > MAX_RECORD_LEN {
            return fail(self, MrtError::OversizedRecord(header.length));
        }
        let total = MrtHeader::LEN + header.length as usize;
        if let Err(e) = self.fill_to(total) {
            return fail(self, e);
        }
        if self.available() < total {
            return fail(self, MrtError::Truncated("MRT body"));
        }
        let body_start = self.start + MrtHeader::LEN;
        let body_end = self.start + total;
        self.start = body_end;
        Some(Ok((header, body_start..body_end)))
    }

    /// Frame the next record without decoding its body.
    ///
    /// Framing errors (truncated/oversized/garbled header, body past
    /// the end of the input) poison the reader exactly as
    /// [`ChunkedReader::next`] does; whether and how to decode the
    /// returned body — and how to signal *decode* errors — is the
    /// caller's business. This is the filter-pushdown entry point: a
    /// caller can classify the body with [`crate::raw::RawMrtView`]
    /// and never build the owned record at all.
    pub fn next_raw(&mut self) -> Option<Result<RawRecord<'_>, MrtError>> {
        match self.frame_next()? {
            Ok((header, range)) => {
                self.count += 1;
                Some(Ok(RawRecord {
                    header,
                    body: &self.window[range],
                }))
            }
            Err(e) => Some(Err(e)),
        }
    }

    /// Read the next record.
    ///
    /// Returns `None` at a clean end of input, `Some(Err(_))` exactly
    /// once on a corrupted read (the reader is then poisoned), and
    /// `Some(Ok(_))` otherwise.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<MrtRecord, MrtError>> {
        let (header, range) = match self.frame_next()? {
            Ok(framed) => framed,
            Err(e) => return Some(Err(e)),
        };
        match MrtRecord::decode(&header, &self.window[range]) {
            Ok(rec) => {
                self.count += 1;
                Some(Ok(rec))
            }
            Err(e) => {
                self.poisoned = true;
                Some(Err(e))
            }
        }
    }

    /// Drain the remaining records, collecting successes; a corrupted
    /// read is returned as the error alongside everything read before
    /// it. Convenience for tests and small files.
    pub fn read_all(mut self) -> (Vec<MrtRecord>, Option<MrtError>) {
        let mut out = Vec::new();
        while let Some(item) = self.next() {
            match item {
                Ok(r) => out.push(r),
                Err(e) => return (out, Some(e)),
            }
        }
        (out, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp4mp::Bgp4mp;
    use crate::writer::MrtWriter;
    use bgp_types::{Asn, BgpMessage, SessionState};

    fn keepalive_record(ts: u32) -> MrtRecord {
        MrtRecord::bgp4mp(
            ts,
            Bgp4mp::Message {
                peer_asn: Asn(65001),
                local_asn: Asn(6447),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                message: BgpMessage::Keepalive,
            },
        )
    }

    fn encode_all(records: &[MrtRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        for r in records {
            w.write(r).unwrap();
        }
        buf
    }

    /// A source that hands out one byte per read.
    struct Trickle(std::io::Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    /// The same bytes read with the whole buffer as one window, and
    /// refilled one byte at a time so every record straddles refills.
    fn readers(buf: &[u8]) -> [ChunkedReader; 2] {
        let trickle = Trickle(std::io::Cursor::new(buf.to_vec()));
        [
            ChunkedReader::from_bytes(buf.to_vec()),
            ChunkedReader::from_reader(trickle)
                .unwrap()
                .with_read_size(1),
        ]
    }

    #[test]
    fn reads_sequence_then_clean_eof() {
        let recs = vec![
            keepalive_record(1),
            keepalive_record(2),
            keepalive_record(3),
        ];
        for r in readers(&encode_all(&recs)) {
            let (out, err) = r.read_all();
            assert!(err.is_none());
            assert_eq!(out, recs);
        }
    }

    #[test]
    fn empty_input_is_clean_eof() {
        for mut r in readers(&[]) {
            assert!(r.next().is_none());
            assert_eq!(r.records_read(), 0);
        }
    }

    #[test]
    fn truncated_header_is_corrupt() {
        let buf = encode_all(&[keepalive_record(1)]);
        for r in readers(&buf[..MrtHeader::LEN - 3]) {
            let (out, err) = r.read_all();
            assert!(out.is_empty());
            assert_eq!(err, Some(MrtError::Truncated("MRT header")));
        }
    }

    #[test]
    fn truncated_body_is_corrupt_after_good_records() {
        let buf = encode_all(&[keepalive_record(1), keepalive_record(2)]);
        for r in readers(&buf[..buf.len() - 4]) {
            let (out, err) = r.read_all();
            assert_eq!(out.len(), 1);
            assert_eq!(err, Some(MrtError::Truncated("MRT body")));
        }
    }

    #[test]
    fn poisoned_reader_stops() {
        let buf = encode_all(&[keepalive_record(1)]);
        for mut r in readers(&buf[..5]) {
            assert!(r.next().unwrap().is_err());
            assert!(r.next().is_none());
        }
        // A body that frames but does not decode poisons too: corrupt
        // the second record's BGP marker.
        let mut buf = encode_all(&[keepalive_record(1), keepalive_record(2)]);
        let second = buf.len() / 2;
        buf[second + MrtHeader::LEN + 20] ^= 0xFF;
        for mut r in readers(&buf) {
            assert!(r.next().unwrap().is_ok());
            assert_eq!(
                r.next().unwrap().unwrap_err(),
                MrtError::Bgp(CodecError::BadMarker)
            );
            assert!(r.next().is_none());
        }
    }

    #[test]
    fn oversized_length_field_rejected() {
        let mut buf = encode_all(&[keepalive_record(1)]);
        // Overwrite the body length field (bytes 8..12) with 8 MiB.
        buf[8..12].copy_from_slice(&(8u32 << 20).to_be_bytes());
        for r in readers(&buf) {
            let (out, err) = r.read_all();
            assert!(out.is_empty());
            assert!(matches!(err, Some(MrtError::OversizedRecord(_))));
        }
    }

    #[test]
    fn slice_reader_matches_stream_reader() {
        // The in-memory window and the trickled stream agree record
        // for record, and count what they produced.
        let recs = vec![
            keepalive_record(1),
            keepalive_record(2),
            keepalive_record(3),
        ];
        for mut r in readers(&encode_all(&recs)) {
            let out: Vec<MrtRecord> = std::iter::from_fn(|| r.next().map(Result::unwrap)).collect();
            assert_eq!(out, recs);
            assert_eq!(r.records_read(), 3);
            assert!(r.next().is_none());
        }
    }

    #[test]
    fn slice_reader_next_raw_frames_without_decoding() {
        let recs = vec![keepalive_record(4), keepalive_record(9)];
        for mut r in readers(&encode_all(&recs)) {
            // Raw framing sees the same records the decoding path does.
            let raw = r.next_raw().unwrap().unwrap();
            assert_eq!(raw.header.timestamp, 4);
            let decoded = MrtRecord::decode(&raw.header, raw.body).unwrap();
            assert_eq!(decoded, recs[0]);
            // Interleaving raw and decoded reads keeps the cursor in sync.
            assert_eq!(r.next().unwrap().unwrap(), recs[1]);
            assert!(r.next_raw().is_none());
            assert_eq!(r.records_read(), 2);
        }

        // Framing errors poison next_raw exactly like next.
        let mut cut = encode_all(&recs);
        cut.truncate(cut.len() - 4);
        for mut r in readers(&cut) {
            assert!(r.next_raw().unwrap().is_ok());
            assert_eq!(
                r.next_raw().unwrap().unwrap_err(),
                MrtError::Truncated("MRT body")
            );
            assert!(r.next_raw().is_none());
            assert!(r.next().is_none());
        }
    }

    #[test]
    fn slice_reader_signals_truncation_and_poisons() {
        let buf = encode_all(&[keepalive_record(1), keepalive_record(2)]);
        for mut r in readers(&buf[..buf.len() - 4]) {
            assert!(r.next().unwrap().is_ok());
            assert_eq!(
                r.next().unwrap().unwrap_err(),
                MrtError::Truncated("MRT body")
            );
            assert!(r.next().is_none());
        }
        // Oversized length field.
        let mut buf = encode_all(&[keepalive_record(1)]);
        buf[8..12].copy_from_slice(&(8u32 << 20).to_be_bytes());
        for mut r in readers(&buf) {
            assert!(matches!(
                r.next().unwrap().unwrap_err(),
                MrtError::OversizedRecord(_)
            ));
        }
    }

    #[test]
    fn state_change_records_flow_through() {
        let rec = MrtRecord::bgp4mp(
            9,
            Bgp4mp::StateChange {
                peer_asn: Asn(65001),
                local_asn: Asn(12654),
                peer_ip: "192.0.2.1".parse().unwrap(),
                local_ip: "192.0.2.254".parse().unwrap(),
                old_state: SessionState::Established,
                new_state: SessionState::Idle,
            },
        );
        for r in readers(&encode_all(std::slice::from_ref(&rec))) {
            let (out, err) = r.read_all();
            assert!(err.is_none());
            assert_eq!(out, vec![rec.clone()]);
        }
    }
}
