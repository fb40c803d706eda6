//! Typed broker errors.
//!
//! Every fallible broker API — materialising a [`DataInterface`],
//! parsing a CSV manifest, and the whole client/server request path —
//! reports a [`BrokerError`] instead of a bare `String`. The variants
//! mirror what a caller can actually *do* about the failure: retry
//! later ([`BrokerError::Busy`]), re-open a session
//! ([`BrokerError::LeaseExpired`]), or give up and report
//! ([`BrokerError::Io`], [`BrokerError::Malformed`],
//! [`BrokerError::Protocol`]).
//!
//! [`DataInterface`]: crate::DataInterface

/// What went wrong talking to (or standing in for) the broker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BrokerError {
    /// An I/O failure: unreadable manifest, missing dump file, a
    /// request that timed out on the wire.
    Io(String),
    /// Input that could not be parsed: a malformed manifest line, an
    /// undecodable wire frame, an unknown dump type.
    Malformed(String),
    /// The referenced live-cursor lease no longer exists on the
    /// server: it expired (the client went quiet past the TTL) or was
    /// closed. The session state is gone; the client must open a new
    /// lease (losing exactly-once continuity) or treat the stream as
    /// ended.
    LeaseExpired,
    /// The server shed the request under admission control (per-client
    /// or global in-flight bound). Transient by design: retry with
    /// backoff.
    Busy,
    /// The two sides do not speak the same protocol: unknown wire
    /// version, a response of the wrong kind for the request, or an
    /// operation the interface cannot support.
    Protocol(String),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::Io(msg) => write!(f, "broker I/O error: {msg}"),
            BrokerError::Malformed(msg) => write!(f, "malformed broker input: {msg}"),
            BrokerError::LeaseExpired => f.write_str("broker lease expired"),
            BrokerError::Busy => f.write_str("broker busy (admission control)"),
            BrokerError::Protocol(msg) => write!(f, "broker protocol error: {msg}"),
        }
    }
}

impl std::error::Error for BrokerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_error_impl() {
        let cases = [
            (BrokerError::Io("x".into()), "broker I/O error: x"),
            (
                BrokerError::Malformed("bad line".into()),
                "malformed broker input: bad line",
            ),
            (BrokerError::LeaseExpired, "broker lease expired"),
            (BrokerError::Busy, "broker busy (admission control)"),
            (
                BrokerError::Protocol("v9".into()),
                "broker protocol error: v9",
            ),
        ];
        for (err, msg) in cases {
            assert_eq!(err.to_string(), msg);
            let _: &dyn std::error::Error = &err;
        }
    }
}
