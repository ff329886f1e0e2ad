//! Versioned wire format for [`Message`] — the one codec shared by the
//! deterministic simulator and the TCP transport.
//!
//! Every encoded message starts with a 4-byte magic (`CHMS`) and a
//! version byte, so a process talking to a peer from a different build
//! fails loudly instead of misparsing. The body is the message in the
//! store's value codec ([`chroma_store::codec`]), the same one that
//! encodes the node's 2PC records ([`TpcRecord`](crate::TpcRecord))
//! and every stored object state.

use chroma_store::codec::{self, CodecError, Stored};

use crate::msg::Message;

/// Magic prefix of every encoded [`Message`].
pub const WIRE_MAGIC: [u8; 4] = *b"CHMS";
/// Current wire-format version (bumped on any layout change).
pub const WIRE_VERSION: u8 = 2;

/// Why a buffer failed to decode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The version byte is one this build does not speak.
    BadVersion(u8),
    /// The body is not one message: truncated, out of range, or
    /// followed by trailing bytes.
    Body(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => f.write_str("bad wire magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Body(e) => write!(f, "bad wire message: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message into its versioned wire form.
#[must_use]
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    msg.encode(&mut out);
    out
}

/// Decodes a versioned wire message.
///
/// # Errors
///
/// [`WireError`] on bad magic, an unsupported version, or a body that
/// is not exactly one message.
pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
    let body = buf.strip_prefix(&WIRE_MAGIC).ok_or(WireError::BadMagic)?;
    let (&version, body) = body
        .split_first()
        .ok_or(WireError::Body(CodecError::UnexpectedEnd))?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    codec::from_bytes(body).map_err(WireError::Body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{TxnId, Write};
    use crate::node::TpcRecord;
    use chroma_base::{NodeId, ObjectId};
    use chroma_store::StoreBytes;

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&Message::VoteYes { txn: TxnId(1) });
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(WireError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&Message::VoteYes { txn: TxnId(1) });
        bytes[4] = WIRE_VERSION + 1;
        assert_eq!(decode(&bytes), Err(WireError::BadVersion(WIRE_VERSION + 1)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&Message::Decision {
            txn: TxnId(7),
            commit: true,
        });
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&Message::Ack { txn: TxnId(3) });
        bytes.push(0);
        assert_eq!(
            decode(&bytes),
            Err(WireError::Body(CodecError::TrailingBytes(1)))
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = encode(&Message::Ack { txn: TxnId(3) });
        bytes[5] = 200;
        assert!(matches!(
            decode(&bytes),
            Err(WireError::Body(CodecError::InvalidValue(_)))
        ));
    }

    #[test]
    fn tpc_log_round_trips() {
        let records = vec![
            TpcRecord::Prepared {
                txn: TxnId(4),
                coordinator: NodeId::from_raw(1),
                writes: vec![Write {
                    object: ObjectId::from_raw(9),
                    state: StoreBytes::from(vec![1, 2, 3]),
                }],
            },
            TpcRecord::CoordCommit {
                txn: TxnId(4),
                participants: vec![NodeId::from_raw(2), NodeId::from_raw(3)],
            },
            TpcRecord::ParticipantDone { txn: TxnId(4) },
            TpcRecord::CoordEnd { txn: TxnId(4) },
        ];
        let blob = codec::to_bytes(&records).unwrap();
        assert_eq!(codec::from_bytes::<Vec<TpcRecord>>(&blob).unwrap(), records);
        assert_eq!(
            codec::from_bytes::<Vec<TpcRecord>>(&blob[..3]),
            Err(CodecError::UnexpectedEnd)
        );
    }

    #[test]
    fn error_display() {
        assert!(WireError::BadVersion(9).to_string().contains('9'));
        let unknown = WireError::Body(CodecError::InvalidValue("variant index 7".into()));
        assert!(unknown.to_string().contains('7'));
    }
}
