//! Read-only snapshot scopes: lock-free consistent reads.

use chroma_base::{ActionId, ObjectId};
use chroma_store::codec::{self, Stored};
use chroma_store::StoreBytes;

use crate::error::ActionError;
use crate::runtime::Runtime;

/// A declared read-only action over one consistent snapshot.
///
/// Obtained from [`Runtime::begin_read_only`]. At open, the scope
/// captures the *published commit frontier*, one stamp; every read then
/// serves the newest committed version at or below that stamp, whatever
/// its colour — commits that publish later are invisible, so a scan of
/// many objects observes one consistent cut no matter how long it runs:
/// a prefix of the one serial order of stamped flushes.
///
/// Snapshot reads are served from version chains and never touch the
/// lock table: a read-only action cannot block a writer, be blocked by
/// one, or participate in a deadlock. The trade for that freedom is
/// staleness — the scope sees the world as of its open, not "now".
/// The scope holds its captured stamp and the crash epoch it opened
/// in, so a read takes no runtime-wide lock, only the lock of the
/// object's version-chain shard. Nothing in the scope can take a lock,
/// and [`Runtime::scope`] refuses its id, which is never in the action
/// tree.
///
/// The scope counts as a committed action when it ends (explicitly via
/// [`end`](SnapshotScope::end) or on drop). A node crash kills open
/// scopes like any other active action: the crash moves the epoch on,
/// and reads through a scope opened before it fail
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
    /// The runtime's crash epoch at open.
    epoch: u64,
    /// The commit frontier captured at open.
    stamp: u64,
}

impl<'rt> SnapshotScope<'rt> {
    pub(crate) fn new(runtime: &'rt Runtime, id: ActionId, epoch: u64, stamp: u64) -> Self {
        SnapshotScope {
            runtime,
            id,
            epoch,
            stamp,
        }
    }

    /// Returns the action id this snapshot reads as.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.id
    }

    /// The commit stamp this snapshot captured (0 if nothing had
    /// published at open): it sees exactly the flushes stamped at or
    /// below it.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Reads an object at the snapshot, decoding its state.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] if the scope was killed by a crash,
    /// [`ActionError::NoSuchObject`] if the object did not exist at the
    /// snapshot, or decode failures.
    pub fn read<T: Stored>(&self, object: ObjectId) -> Result<T, ActionError> {
        Ok(codec::from_bytes(&self.read_raw(object)?)?)
    }

    /// Reads an object's raw state at the snapshot.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] if the scope was killed by a crash or
    /// [`ActionError::NoSuchObject`] if the object did not exist at the
    /// snapshot.
    pub fn read_raw(&self, object: ObjectId) -> Result<StoreBytes, ActionError> {
        self.runtime
            .op_snapshot_read(self.id, self.epoch, self.stamp, object)
    }

    /// Ends the snapshot explicitly (dropping the scope is equivalent).
    pub fn end(self) {}
}

impl Drop for SnapshotScope<'_> {
    fn drop(&mut self) {
        self.runtime.end_read_only(self.id);
    }
}
