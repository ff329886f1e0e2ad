//! # Chroma — objects and multi-coloured actions
//!
//! Chroma is a fault-tolerance toolkit built around **atomic actions**
//! (atomic transactions) on persistent objects, reproducing
//! Shrivastava & Wheater, *"Implementing Fault-Tolerant Distributed
//! Applications Using Objects and Multi-Coloured Actions"* (ICDCS 1990).
//!
//! The crate is a façade over the workspace:
//!
//! * [`base`] — identifiers, colours, lock modes;
//! * [`obs`] — structured tracing, metrics and the offline trace
//!   auditor that re-checks the paper's invariants from event streams;
//! * [`locks`] — the coloured lock manager plus the classic (Moss)
//!   nested-action baseline, with deadlock detection;
//! * [`store`] — volatile and stable object stores, intentions-list
//!   commit, crash semantics;
//! * [`core`] — the multi-coloured action runtime (begin / commit /
//!   abort with per-colour inheritance, permanence and recovery);
//! * [`structures`] — the paper's action structures implemented on top of
//!   colours: serializing, glued and top-level/n-level independent
//!   actions, plus the automatic colour-assignment compiler;
//! * [`dist`] — a deterministic simulated distributed system (fail-silent
//!   nodes, lossy network, RPC, two-phase commit, replication);
//! * [`apps`] — the paper's five example applications;
//! * [`typed`] — typed handles ([`EscrowCounter`], [`KeyedDirectory`])
//!   that encode an object's commutativity in its API.
//!
//! # Quickstart
//!
//! ```
//! use chroma::core::Runtime;
//! use chroma::{EscrowCounter, KeyedDirectory};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rt = Runtime::builder().build();
//! let account = rt.create_object(&100i64)?;
//!
//! // A conventional top-level atomic action: all-or-nothing.
//! rt.atomic(|a| {
//!     let balance: i64 = a.read(account)?;
//!     a.write(account, &(balance - 30))?;
//!     Ok(())
//! })?;
//!
//! assert_eq!(rt.read_committed::<i64>(account)?, 70);
//!
//! // Typed handles ride on the same runtime: a striped counter whose
//! // increments commute, and a directory whose entries lock per key.
//! let hits = EscrowCounter::create(&rt, 4)?;
//! rt.atomic(|a| hits.add(a, 3))?;
//! assert_eq!(hits.committed_value(&rt)?, 3);
//!
//! let dir: KeyedDirectory<String> = KeyedDirectory::create(&rt, 8)?;
//! rt.atomic(|a| dir.insert(a, "printer", &"room 3".to_owned()))?;
//! assert_eq!(
//!     rt.atomic(|a| dir.lookup(a, "printer"))?,
//!     Some("room 3".to_owned())
//! );
//!
//! // Declared read-only actions read a consistent MVCC snapshot
//! // without ever touching the lock table — they cannot block a
//! // writer or deadlock, no matter how long the scan runs.
//! let snap = rt.begin_read_only();
//! let frozen: i64 = snap.read(account)?;
//! rt.atomic(|a| a.modify(account, |b: &mut i64| *b += 5))?;
//! assert_eq!(snap.read::<i64>(account)?, frozen); // still the old cut
//! snap.end();
//! # Ok(())
//! # }
//! ```

pub use chroma_apps as apps;
pub use chroma_base as base;
pub use chroma_core as core;
pub use chroma_dist as dist;
pub use chroma_locks as locks;
pub use chroma_obs as obs;
pub use chroma_store as store;
pub use chroma_structures as structures;
pub use chroma_typed as typed;

// The typed handles are the recommended way to model commutative
// objects, so they are first-class citizens of the façade.
pub use chroma_typed::{EscrowCounter, KeyedDirectory};

// Declared read-only actions are the recommended way to run long
// scans, so the scope type is first-class too.
pub use chroma_core::SnapshotScope;

// The transport boundary is how a deployment graduates from the
// simulator to real processes (the `chroma-node` binary), so the trait
// and both implementations are first-class: `Transport` for writing a
// host, `TcpTransport` for real sockets, `NetConfig` for configuring
// the simulated network's fault injection.
pub use chroma_dist::{NetConfig, TcpTransport, Transport};
