//! Versioned wire format for [`Message`] — the one codec shared by the
//! deterministic simulator and the TCP transport.
//!
//! Every encoded message starts with a 4-byte magic (`CHMS`) and a
//! version byte, so a process talking to a peer from a different build
//! fails loudly instead of misparsing. The body is a 1-byte variant tag
//! followed by fixed-width little-endian fields; variable-length byte
//! strings carry a `u32` length prefix. The format is hand-rolled in
//! the same spirit as `chroma_store::codec`, but separate from it: its
//! lengths are `u32`, its errors are [`WireError`], and the payload
//! type [`StoreBytes`] is not a `Stored` type.
//!
//! [`TpcRecord`]s get the same treatment (magic `CHTL`) so a real
//! process can keep its durable protocol log in a
//! [`DiskStore`](chroma_store::DiskStore) and recover it after
//! `kill -9`: the node's durability barrier writes each record as its
//! own one-record encoding, at its own object id.

use chroma_base::{NodeId, ObjectId};
use chroma_store::StoreBytes;

use crate::msg::{Message, TxnId, Write};
use crate::node::TpcRecord;

/// Magic prefix of every encoded [`Message`].
pub const WIRE_MAGIC: [u8; 4] = *b"CHMS";
/// Magic prefix of an encoded [`TpcRecord`] log.
pub const LOG_MAGIC: [u8; 4] = *b"CHTL";
/// Current wire-format version (bumped on any layout change).
pub const WIRE_VERSION: u8 = 1;

/// Why a buffer failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The version byte is one this build does not speak.
    BadVersion(u8),
    /// The buffer ended before the message did.
    Truncated,
    /// An unknown variant tag.
    UnknownTag(u8),
    /// Bytes left over after a complete message.
    Trailing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => f.write_str("bad wire magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated => f.write_str("truncated wire message"),
            WireError::UnknownTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::Trailing => f.write_str("trailing bytes after wire message"),
        }
    }
}

impl std::error::Error for WireError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId::from_raw(self.u32()?))
    }

    fn bytes(&mut self) -> Result<StoreBytes, WireError> {
        let len = self.u32()? as usize;
        Ok(StoreBytes::from(self.take(len)?.to_vec()))
    }

    fn writes(&mut self) -> Result<Vec<Write>, WireError> {
        let count = self.u32()? as usize;
        let mut writes = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let object = ObjectId::from_raw(self.u64()?);
            let state = self.bytes()?;
            writes.push(Write { object, state });
        }
        Ok(writes)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(
        &u32::try_from(bytes.len())
            .expect("payload fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(bytes);
}

fn put_writes(out: &mut Vec<u8>, writes: &[Write]) {
    out.extend_from_slice(
        &u32::try_from(writes.len())
            .expect("write count fits u32")
            .to_le_bytes(),
    );
    for w in writes {
        out.extend_from_slice(&w.object.as_raw().to_le_bytes());
        put_bytes(out, &w.state);
    }
}

/// Encodes a message into its versioned wire form.
#[must_use]
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    match msg {
        Message::Prepare {
            txn,
            writes,
            coordinator,
        } => {
            out.push(0);
            out.extend_from_slice(&txn.0.to_le_bytes());
            out.extend_from_slice(&coordinator.as_raw().to_le_bytes());
            put_writes(&mut out, writes);
        }
        Message::VoteYes { txn } => {
            out.push(1);
            out.extend_from_slice(&txn.0.to_le_bytes());
        }
        Message::VoteNo { txn } => {
            out.push(2);
            out.extend_from_slice(&txn.0.to_le_bytes());
        }
        Message::Decision { txn, commit } => {
            out.push(3);
            out.extend_from_slice(&txn.0.to_le_bytes());
            out.push(u8::from(*commit));
        }
        Message::Ack { txn } => {
            out.push(4);
            out.extend_from_slice(&txn.0.to_le_bytes());
        }
        Message::DecisionQuery { txn } => {
            out.push(5);
            out.extend_from_slice(&txn.0.to_le_bytes());
        }
        Message::RpcRequest { call, body } => {
            out.push(6);
            out.extend_from_slice(&call.to_le_bytes());
            put_bytes(&mut out, body);
        }
        Message::RpcReply { call, body } => {
            out.push(7);
            out.extend_from_slice(&call.to_le_bytes());
            put_bytes(&mut out, body);
        }
        Message::ReplicaState {
            object,
            version,
            state,
            holder_stale,
        } => {
            out.push(8);
            out.extend_from_slice(&object.as_raw().to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            put_bytes(&mut out, state);
            out.push(u8::from(*holder_stale));
        }
        Message::ReplicaNone { object } => {
            out.push(9);
            out.extend_from_slice(&object.as_raw().to_le_bytes());
        }
        Message::ReplicaPull { object } => {
            out.push(10);
            out.extend_from_slice(&object.as_raw().to_le_bytes());
        }
    }
    out
}

/// Decodes a versioned wire message.
///
/// # Errors
///
/// [`WireError`] on bad magic, unsupported version, truncation, unknown
/// tags, or trailing garbage.
pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(buf);
    if r.take(4)? != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    let msg = match tag {
        0 => {
            let txn = TxnId(r.u64()?);
            let coordinator = r.node()?;
            let writes = r.writes()?;
            Message::Prepare {
                txn,
                writes,
                coordinator,
            }
        }
        1 => Message::VoteYes {
            txn: TxnId(r.u64()?),
        },
        2 => Message::VoteNo {
            txn: TxnId(r.u64()?),
        },
        3 => Message::Decision {
            txn: TxnId(r.u64()?),
            commit: r.bool()?,
        },
        4 => Message::Ack {
            txn: TxnId(r.u64()?),
        },
        5 => Message::DecisionQuery {
            txn: TxnId(r.u64()?),
        },
        6 => Message::RpcRequest {
            call: r.u64()?,
            body: r.bytes()?,
        },
        7 => Message::RpcReply {
            call: r.u64()?,
            body: r.bytes()?,
        },
        8 => Message::ReplicaState {
            object: ObjectId::from_raw(r.u64()?),
            version: r.u64()?,
            state: r.bytes()?,
            holder_stale: r.bool()?,
        },
        9 => Message::ReplicaNone {
            object: ObjectId::from_raw(r.u64()?),
        },
        10 => Message::ReplicaPull {
            object: ObjectId::from_raw(r.u64()?),
        },
        other => return Err(WireError::UnknownTag(other)),
    };
    r.done()?;
    Ok(msg)
}

/// Encodes a durable 2PC log as one versioned blob.
#[must_use]
pub fn encode_records(records: &[TpcRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + records.len() * 16);
    out.extend_from_slice(&LOG_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(
        &u32::try_from(records.len())
            .expect("record count fits u32")
            .to_le_bytes(),
    );
    for record in records {
        match record {
            TpcRecord::CoordCommit { txn, participants } => {
                out.push(0);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(
                    &u32::try_from(participants.len())
                        .expect("participant count fits u32")
                        .to_le_bytes(),
                );
                for p in participants {
                    out.extend_from_slice(&p.as_raw().to_le_bytes());
                }
            }
            TpcRecord::CoordEnd { txn } => {
                out.push(1);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
            TpcRecord::Prepared {
                txn,
                coordinator,
                writes,
            } => {
                out.push(2);
                out.extend_from_slice(&txn.0.to_le_bytes());
                out.extend_from_slice(&coordinator.as_raw().to_le_bytes());
                put_writes(&mut out, writes);
            }
            TpcRecord::ParticipantDone { txn } => {
                out.push(3);
                out.extend_from_slice(&txn.0.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes a durable 2PC log blob.
///
/// # Errors
///
/// [`WireError`] on bad magic, unsupported version, truncation, unknown
/// tags, or trailing garbage.
pub fn decode_records(buf: &[u8]) -> Result<Vec<TpcRecord>, WireError> {
    let mut r = Reader::new(buf);
    if r.take(4)? != LOG_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let count = r.u32()? as usize;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let record = match r.u8()? {
            0 => {
                let txn = TxnId(r.u64()?);
                let n = r.u32()? as usize;
                let mut participants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    participants.push(r.node()?);
                }
                TpcRecord::CoordCommit { txn, participants }
            }
            1 => TpcRecord::CoordEnd {
                txn: TxnId(r.u64()?),
            },
            2 => {
                let txn = TxnId(r.u64()?);
                let coordinator = r.node()?;
                let writes = r.writes()?;
                TpcRecord::Prepared {
                    txn,
                    coordinator,
                    writes,
                }
            }
            3 => TpcRecord::ParticipantDone {
                txn: TxnId(r.u64()?),
            },
            other => return Err(WireError::UnknownTag(other)),
        };
        records.push(record);
    }
    r.done()?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(decode(&bytes), Err(WireError::Trailing));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = encode(&Message::Ack { txn: TxnId(3) });
        bytes[5] = 200;
        assert_eq!(decode(&bytes), Err(WireError::UnknownTag(200)));
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
        let blob = encode_records(&records);
        assert_eq!(decode_records(&blob).unwrap(), records);
        assert_eq!(decode_records(&blob[..3]), Err(WireError::Truncated));
    }

    #[test]
    fn error_display() {
        assert!(WireError::BadVersion(9).to_string().contains('9'));
        assert!(WireError::UnknownTag(7).to_string().contains('7'));
    }
}
