//! Type-specific concurrency control over chroma actions.
//!
//! The paper (§2) reviews an enhancement of the object/action model:
//! *"type specific concurrency control … is a particularly attractive
//! means of increasing the concurrency in a system. The idea is to
//! permit concurrent read/write or write/write operations on an object
//! from different atomic actions provided these operations can be shown
//! to be non interfering (for example, for a directory object, reading
//! and deleting different entries can be permitted to take place
//! simultaneously). Object-oriented systems are well suited to this
//! approach, since semantic knowledge about the operations of objects
//! can be exploited."*
//!
//! This crate provides two such semantically-locked persistent types,
//! built purely from object granularity and the standard coloured lock
//! modes (no changes to the lock manager needed — the semantic
//! knowledge is encoded in how each type maps its operations onto
//! objects):
//!
//! * [`KeyedDirectory`] — the paper's own example: a directory whose
//!   entries are individually lockable, so operations on *different*
//!   keys never conflict;
//! * [`EscrowCounter`] — a striped counter in the spirit of the
//!   add/subtract commutativity discussion: concurrent increments land
//!   on different stripes and do not conflict; reading the total locks
//!   all stripes.
//!
//! Both types work inside any action — plain atomic, serializing step,
//! glued step or independent — because they only use the ordinary
//! [`ActionScope`](chroma_core::ActionScope) operations, and every
//! structure hands its step bodies a plain `ActionScope`. In a
//! serializing step the scope's fence makes each read, write and
//! modify also lock the touched stripe or bucket in the wrapper's
//! colour, so it stays protected until the wrapper ends; in a glued
//! step it is released at the step's commit unless the step
//! [`hand_over`](chroma_core::ActionScope::hand_over)s it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod directory;

pub use counter::EscrowCounter;
pub use directory::KeyedDirectory;
