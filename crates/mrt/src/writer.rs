//! MRT record writer — the encoder side the collector simulator uses
//! to emit RIB and Updates dump files.

use std::io::Write;

use crate::record::MrtRecord;

/// Serializes records onto any [`Write`] sink.
pub struct MrtWriter<W> {
    inner: W,
    records: u64,
    bytes: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wrap a sink.
    pub fn new(inner: W) -> Self {
        MrtWriter {
            inner,
            records: 0,
            bytes: 0,
        }
    }

    /// Append one record.
    pub fn write(&mut self, record: &MrtRecord) -> std::io::Result<()> {
        let wire = record.encode();
        self.inner.write_all(&wire)?;
        self.records += 1;
        self.bytes += wire.len() as u64;
        Ok(())
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flush and return the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp4mp::Bgp4mp;
    use crate::reader::ChunkedReader;
    use bgp_types::{Asn, BgpMessage};

    #[test]
    fn counters_track_output() {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let rec = MrtRecord::bgp4mp(
            1,
            Bgp4mp::Message {
                peer_asn: Asn(1),
                local_asn: Asn(2),
                peer_ip: "10.0.0.1".parse().unwrap(),
                local_ip: "10.0.0.2".parse().unwrap(),
                message: BgpMessage::Keepalive,
            },
        );
        w.write(&rec).unwrap();
        w.write(&rec).unwrap();
        assert_eq!(w.records_written(), 2);
        assert_eq!(w.bytes_written() as usize, buf.len());
        let (out, err) = ChunkedReader::from_bytes(buf).read_all();
        assert!(err.is_none());
        assert_eq!(out.len(), 2);
    }
}
