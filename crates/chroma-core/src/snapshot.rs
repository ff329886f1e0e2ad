//! Read-only snapshot scopes: lock-free consistent reads.

use std::sync::Arc;

use chroma_base::{ActionId, Colour, ObjectId};
use chroma_store::codec::{self, Stored};
use chroma_store::{SnapshotStamps, StoreBytes};

use crate::error::ActionError;
use crate::runtime::Runtime;

/// A declared read-only action over one consistent snapshot.
///
/// Obtained from [`Runtime::begin_read_only`]. At open, the scope
/// captures the per-colour *published commit frontier*; every read then
/// serves the newest committed version at or below that frontier —
/// commits that publish later are invisible, so a scan of many objects
/// observes one consistent cut no matter how long it runs.
///
/// Snapshot reads are served from version chains and never touch the
/// lock table: a read-only action cannot block a writer, be blocked by
/// one, or participate in a deadlock. The trade for that freedom is
/// staleness — the scope sees the world as of its open, not "now".
///
/// The scope counts as a committed action when it ends (explicitly via
/// [`end`](SnapshotScope::end) or on drop). A node crash kills open
/// scopes like any other active action; their reads then fail
/// [`ActionError::NotActive`].
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let o = rt.create_object(&1u64)?;
///
/// let snap = rt.begin_read_only();
/// rt.atomic(|a| a.write(o, &2u64))?; // commits after the capture
///
/// assert_eq!(snap.read::<u64>(o)?, 1); // the snapshot still sees 1
/// assert_eq!(rt.read_committed::<u64>(o)?, 2);
/// snap.end();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SnapshotScope<'rt> {
    runtime: &'rt Runtime,
    id: ActionId,
    stamps: Arc<SnapshotStamps>,
}

impl<'rt> SnapshotScope<'rt> {
    pub(crate) fn new(runtime: &'rt Runtime, id: ActionId, stamps: Arc<SnapshotStamps>) -> Self {
        SnapshotScope {
            runtime,
            id,
            stamps,
        }
    }

    /// Returns the action id this snapshot reads as.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.id
    }

    /// The commit stamp this snapshot captured for `colour` (0 if the
    /// colour had published nothing at open).
    #[must_use]
    pub fn stamp_for(&self, colour: Colour) -> u64 {
        self.stamps.stamp_for(colour)
    }

    /// Reads an object at the snapshot, decoding its state.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] if the scope was killed by a crash,
    /// [`ActionError::NoSuchObject`] if the object did not exist at the
    /// snapshot, or decode failures.
    pub fn read<T: Stored>(&self, object: ObjectId) -> Result<T, ActionError> {
        let bytes = self.runtime.op_snapshot_read(self.id, object)?;
        Ok(codec::from_bytes(&bytes)?)
    }

    /// Reads an object's raw state at the snapshot.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] if the scope was killed by a crash or
    /// [`ActionError::NoSuchObject`] if the object did not exist at the
    /// snapshot.
    pub fn read_raw(&self, object: ObjectId) -> Result<StoreBytes, ActionError> {
        self.runtime.op_snapshot_read(self.id, object)
    }

    /// Ends the snapshot explicitly (dropping the scope is equivalent).
    pub fn end(self) {}
}

impl Drop for SnapshotScope<'_> {
    fn drop(&mut self) {
        self.runtime.end_read_only(self.id);
    }
}
