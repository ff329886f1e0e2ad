//! Fundamental vocabulary types for the *chroma* multi-coloured action
//! system.
//!
//! This crate holds the identifiers and small value types shared by every
//! other chroma crate: [`ActionId`], [`ObjectId`], [`NodeId`], the colour
//! machinery ([`Colour`], [`ColourSet`], [`ColourUniverse`]) and the lock
//! vocabulary ([`LockMode`]).
//!
//! The terminology follows Shrivastava & Wheater, *"Implementing
//! Fault-Tolerant Distributed Applications Using Objects and
//! Multi-Coloured Actions"* (ICDCS 1990): an **action** is an atomic
//! transaction; a **colour** is an attribute statically assigned to an
//! action; actions of the same colour behave towards each other like
//! conventional atomic actions, but not necessarily towards actions of
//! other colours.
//!
//! # Examples
//!
//! ```
//! use chroma_base::{ColourUniverse, ColourSet};
//!
//! let universe = ColourUniverse::new();
//! let red = universe.colour("red");
//! let blue = universe.colour("blue");
//! let both = ColourSet::from_iter([red, blue]);
//! assert!(both.contains(red));
//! assert_eq!(both.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod colour;
mod error;
mod id;
mod mode;
mod sync;

pub use colour::{Colour, ColourSet, ColourSetIter, ColourUniverse, MAX_LIVE_COLOURS};
pub use error::{ColourError, LockDenied, LockError};
pub use id::{ActionId, NodeId, ObjectId};
pub use mode::LockMode;
pub use sync::{
    shard_index, shard_of, AppendList, CachePadded, IdHashMap, IdHasher, Sharded, SHARDS,
};
