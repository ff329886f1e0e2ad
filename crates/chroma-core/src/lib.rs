//! The chroma multi-coloured action runtime.
//!
//! Implements the action model of Shrivastava & Wheater (ICDCS 1990):
//! nested atomic actions over persistent objects, generalised by
//! **colours**. Every action possesses a statically assigned set of
//! colours and takes each lock *in* one of them. Per colour, the runtime
//! provides the three classical properties (§5.1):
//!
//! 1. **failure atomicity** — an aborting action's effects on objects
//!    accessed with its colours are undone from before-images;
//! 2. **serializability** — same-coloured actions are serializable via
//!    the coloured two-phase locking rules (caveat: no information flow
//!    between same-coloured actions through differently-coloured nested
//!    actions);
//! 3. **permanence of effect** — when an action *outermost* for a colour
//!    commits, that colour's updates are flushed atomically to stable
//!    storage.
//!
//! A system whose actions all share one colour behaves exactly like a
//! conventional nested atomic action system; richer assignments yield
//! the serializing, glued and independent structures of the paper's §3
//! (implemented in the `chroma-structures` crate). A structure step is
//! an ordinary [`ActionScope`] carrying a [`Fence`], so any code written
//! against `ActionScope` runs inside every structure.
//!
//! See [`Runtime`] for the entry point and a worked fig. 10 example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod error;
mod runtime;
mod scope;
mod snapshot;
mod tree;
mod undo;

pub use backend::{BackendError, DiskBackend, LocalBackend, PermanenceBackend};
pub use error::ActionError;
pub use runtime::{Runtime, RuntimeBuilder, RuntimeConfig, RuntimeStats};
pub use scope::{ActionScope, Fence};
pub use snapshot::SnapshotScope;
pub use tree::{ActionState, Ancestors};
pub use undo::{BeforeImage, UndoLog};

// Re-export the vocabulary types so most users need only this crate.
pub use chroma_base::{
    ActionId, Colour, ColourSet, ColourUniverse, LockDenied, LockError, LockMode, NodeId, ObjectId,
};
