//! Object stores for chroma: the stable (crash-surviving) states of
//! committed objects, in memory or on disk.
//!
//! The paper's system model (§2) gives each node volatile storage, lost
//! on a crash, and optionally *stable storage*, which survives crashes;
//! the permanence-of-effect property requires that the new states of all
//! objects updated by a committing top-level (outermost-coloured) action
//! reach stable storage atomically. Volatile working states live in the
//! runtime itself; this crate provides the stable half:
//!
//! * [`DiskStore`] — the stable storage of every node, simulated or
//!   not: the intentions-list protocol (log intents → log commit record
//!   → install) over a segmented write-ahead log, recovered at open,
//!   with controllable crash points ([`DiskCrashPoint`]) for fault
//!   injection;
//! * [`Fs`] — the filesystem under it: [`OsFs`] for a real directory,
//!   [`MemFs`] for an in-memory disk whose [`crash`](MemFs::crash)
//!   loses everything no fsync made durable;
//! * [`VersionChains`] + [`StampClock`] — short per-object version
//!   chains and the published per-colour commit frontier that let
//!   declared read-only actions take consistent snapshots without
//!   touching the lock table;
//! * [`codec`] — the [`Stored`](codec::Stored) trait and
//!   [`stored!`] macro: a compact binary codec so applications store
//!   typed values.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use chroma_base::ObjectId;
//! use chroma_store::{DiskStore, DiskStoreOptions, MemFs, StoreBytes};
//!
//! let disk = MemFs::new();
//! let open = || DiskStore::open_fs(Arc::new(disk.clone()), "s", DiskStoreOptions::default());
//! let o = ObjectId::from_raw(1);
//! open()?.commit_batch(vec![(o, StoreBytes::from(vec![1, 2, 3]))])?;
//! disk.crash(); // power loss, then the recovery a restarted process runs
//! assert_eq!(open()?.read(o)?.as_deref(), Some(&[1u8, 2, 3][..]));
//! # Ok::<(), chroma_store::DiskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod crc32;
mod disk;
mod fs;
mod versions;

pub use disk::{DiskCrashPoint, DiskError, DiskStore, DiskStoreOptions, ReplayStats};
pub use fs::{Fs, FsFile, MemFs, OsFs};
pub use versions::{GcStats, SnapshotStamps, StampClock, VersionChains, VisibleVersion};

/// The byte-buffer type object states are stored as (cheaply clonable).
pub type StoreBytes = bytes::Bytes;
