//! The paper's five example applications (§4), built on the chroma
//! action structures.
//!
//! | Application | Paper | Structure used | Module |
//! |---|---|---|---|
//! | Bulletin board | §4 i | top-level independent actions + compensation | [`bulletin_board`] |
//! | Name server | §4 ii | async independent updates; replication over 2PC | [`name_server`] |
//! | Billing / accounting | §4 iii | independent charges that survive client aborts | [`billing`] |
//! | Distributed make | §4 iv, fig. 8 | serializing action, concurrent steps | [`dmake`] |
//! | Meeting scheduler | §4 v, fig. 9 | glued chain with per-round hand-over | [`diary`] |
//!
//! Each application is a small but complete program over the public
//! API; the root `tests/paper_claims.rs` drives them to check the
//! corresponding figures' claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod bulletin_board;
pub mod diary;
pub mod dmake;
pub mod name_server;

pub use billing::{Charge, Ledger};
pub use bulletin_board::{BulletinBoard, Post};
pub use diary::{schedule_meeting, Diary, ScheduleOutcome, Slot};
pub use dmake::{DistMake, FileState, MakeReport, Makefile, Rule};
pub use name_server::{Directory, NameServer, ReplicatedNameServer};

/// Asserts `value` encodes to exactly the bytes `hex` spells and
/// decodes back from them. The app types' literals were captured from
/// the serde-driven codec that `Stored` replaced, so states written by
/// that build still read.
#[cfg(test)]
fn assert_stored_bytes<T>(value: &T, hex: &str)
where
    T: chroma_store::codec::Stored + PartialEq + std::fmt::Debug,
{
    use chroma_store::codec::{from_bytes, to_bytes};
    let bytes = unhex(hex);
    assert_eq!(to_bytes(value).unwrap(), bytes, "encoding of {value:?}");
    assert_eq!(&from_bytes::<T>(&bytes).unwrap(), value, "decoding {hex}");
}

/// Decodes a hex literal.
#[cfg(test)]
fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}
