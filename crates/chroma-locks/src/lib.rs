//! Lock management for chroma actions.
//!
//! This crate implements both lock rule-sets of the paper's §5.2:
//!
//! * the **classic** rules of conventional nested atomic actions
//!   (Moss 1981): reads are shared; writes and exclusive-reads require
//!   every holder to be an ancestor; a committing child's locks are
//!   inherited by its parent; an aborting child's locks are discarded
//!   ([`ClassicPolicy`]);
//! * the **coloured** rules of multi-coloured actions: identical, except
//!   that locks carry a colour, an action may only use colours it
//!   possesses, and a write lock may only be acquired in the colour of
//!   any existing write locks on the object ([`ColouredPolicy`]).
//!
//! A single-colour system under the coloured rules is behaviourally
//! identical to the classic rules — the paper's §5.1 observation — and
//! this crate's property tests check exactly that (grant/deny trace
//! equivalence on random request schedules).
//!
//! The [`LockTable`] provides blocking and non-blocking acquisition,
//! per-colour inheritance and release (driving the commit semantics of
//! the core runtime), and deadlock detection over a wait-for graph in
//! which a suspended ancestor counts as waiting for its waiting
//! descendants (for example, a parent blocked on a synchronously
//! invoked independent action). Each request brings the requester's
//! ancestor chain ([`Ancestry`]); the table never asks about any other
//! action's ancestry.
//!
//! # Examples
//!
//! ```
//! use chroma_base::{ActionId, Colour, LockMode, ObjectId};
//! use chroma_locks::{ColouredPolicy, FlatAncestry, LockTable};
//!
//! let table = LockTable::new(ColouredPolicy);
//! let ctx = FlatAncestry::new();
//! let red = Colour::from_index(0);
//! let (a, b) = (ActionId::from_raw(1), ActionId::from_raw(2));
//! let o = ObjectId::from_raw(1);
//!
//! table.try_acquire(&ctx, a, o, red, LockMode::Read)?;
//! table.try_acquire(&ctx, b, o, red, LockMode::Read)?; // reads are shared
//! assert!(table
//!     .try_acquire(&ctx, b, o, red, LockMode::Write)
//!     .is_err()); // a's read lock blocks the upgrade
//! # Ok::<(), chroma_base::LockError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ancestry;
mod deadlock;
mod entry;
mod policy;
mod table;

pub use ancestry::{Ancestry, FlatAncestry};
pub use deadlock::{DeadlockReport, WaitForGraph};
pub use entry::{LockEntry, LockSnapshot};
pub use policy::{ClassicPolicy, ColouredPolicy, LockPolicy};
pub use table::{AcquireOutcome, LockTable, WaitStats};
