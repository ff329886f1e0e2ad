//! The in-action operation surface.

use chroma_base::{ActionId, Colour, ColourSet, LockMode, ObjectId};
use chroma_store::codec::{self, Stored};
use chroma_store::StoreBytes;

use crate::error::ActionError;
use crate::runtime::Runtime;

/// Handle for performing operations *inside* an active action.
///
/// A scope is obtained from the scoped runners
/// ([`Runtime::atomic`], [`Runtime::run_top`], [`Runtime::run_nested`],
/// [`ActionScope::nested`]) or explicitly via [`Runtime::scope`].
///
/// Every operation names the colour it works in; the `_in`-less
/// convenience methods use the scope's *default colour* (for
/// single-colour actions, the only colour). Reads take read locks,
/// writes take write locks, and [`ActionScope::lock`] takes any mode
/// explicitly — including [`LockMode::ExclusiveRead`], the fencing mode
/// used by the serializing/glued implementations.
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let counter = rt.create_object(&0u64)?;
/// rt.atomic(|a| {
///     let n: u64 = a.read(counter)?;
///     a.write(counter, &(n + 1))?;
///     Ok(())
/// })?;
/// assert_eq!(rt.read_committed::<u64>(counter)?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ActionScope<'rt> {
    runtime: &'rt Runtime,
    id: ActionId,
    colours: ColourSet,
    default_colour: Colour,
}

impl<'rt> ActionScope<'rt> {
    pub(crate) fn new(
        runtime: &'rt Runtime,
        id: ActionId,
        colours: ColourSet,
        default_colour: Colour,
    ) -> Self {
        ActionScope {
            runtime,
            id,
            colours,
            default_colour,
        }
    }

    /// Returns the action this scope operates in.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.id
    }

    /// Returns the action's colour set.
    #[must_use]
    pub fn colours(&self) -> ColourSet {
        self.colours
    }

    /// Returns the colour used by the `_in`-less operations.
    #[must_use]
    pub fn default_colour(&self) -> Colour {
        self.default_colour
    }

    /// Returns the runtime this scope belongs to.
    #[must_use]
    pub fn runtime(&self) -> &'rt Runtime {
        self.runtime
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Reads an object in the default colour.
    ///
    /// # Errors
    ///
    /// Lock failures, [`ActionError::NoSuchObject`], or decode failures.
    pub fn read<T: Stored>(&self, object: ObjectId) -> Result<T, ActionError> {
        self.read_in(self.default_colour, object)
    }

    /// Reads an object, taking a read lock in `colour`.
    ///
    /// # Errors
    ///
    /// Lock failures, [`ActionError::NoSuchObject`], or decode failures.
    pub fn read_in<T: Stored>(&self, colour: Colour, object: ObjectId) -> Result<T, ActionError> {
        let bytes = self.runtime.op_read_raw(self.id, colour, object)?;
        Ok(codec::from_bytes(&bytes)?)
    }

    /// Reads an object's raw state, taking a read lock in `colour`.
    ///
    /// # Errors
    ///
    /// Lock failures or [`ActionError::NoSuchObject`].
    pub fn read_raw_in(&self, colour: Colour, object: ObjectId) -> Result<StoreBytes, ActionError> {
        self.runtime.op_read_raw(self.id, colour, object)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Writes an object in the default colour.
    ///
    /// # Errors
    ///
    /// Lock failures.
    pub fn write<T: Stored>(&self, object: ObjectId, value: &T) -> Result<(), ActionError> {
        self.write_in(self.default_colour, object, value)
    }

    /// Writes an object, taking a write lock in `colour`.
    ///
    /// # Errors
    ///
    /// Lock failures.
    pub fn write_in<T: Stored>(
        &self,
        colour: Colour,
        object: ObjectId,
        value: &T,
    ) -> Result<(), ActionError> {
        let bytes = StoreBytes::from(codec::to_bytes(value)?);
        self.runtime.op_write_raw(self.id, colour, object, bytes)
    }

    /// Writes an object's raw state, taking a write lock in `colour`.
    ///
    /// # Errors
    ///
    /// Lock failures.
    pub fn write_raw_in(
        &self,
        colour: Colour,
        object: ObjectId,
        state: StoreBytes,
    ) -> Result<(), ActionError> {
        self.runtime.op_write_raw(self.id, colour, object, state)
    }

    /// Reads, transforms and writes back an object in the default
    /// colour.
    ///
    /// # Errors
    ///
    /// Lock, object or codec failures from the underlying read/write.
    pub fn modify<T, R>(
        &self,
        object: ObjectId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ActionError>
    where
        T: Stored,
    {
        self.modify_in(self.default_colour, object, f)
    }

    /// Reads, transforms and writes back an object in `colour`.
    ///
    /// # Errors
    ///
    /// Lock, object or codec failures from the underlying read/write.
    pub fn modify_in<T, R>(
        &self,
        colour: Colour,
        object: ObjectId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ActionError>
    where
        T: Stored,
    {
        // Take the write lock before reading: two concurrent modifiers
        // would otherwise both take read locks and deadlock trying to
        // upgrade.
        self.lock(colour, object, LockMode::Write)?;
        let mut value: T = self.read_in(colour, object)?;
        let result = f(&mut value);
        self.write_in(colour, object, &value)?;
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Creation
    // ------------------------------------------------------------------

    /// Creates a new object inside the action, in the default colour.
    ///
    /// The object becomes permanent only when the colour's outermost
    /// action commits; on abort it vanishes.
    ///
    /// # Errors
    ///
    /// Lock failures (which cannot normally happen on a fresh object).
    pub fn create<T: Stored>(&self, value: &T) -> Result<ObjectId, ActionError> {
        self.create_in(self.default_colour, value)
    }

    /// Creates a new object inside the action, write-locked in `colour`.
    ///
    /// # Errors
    ///
    /// Lock failures.
    pub fn create_in<T: Stored>(&self, colour: Colour, value: &T) -> Result<ObjectId, ActionError> {
        let bytes = StoreBytes::from(codec::to_bytes(value)?);
        self.runtime.op_create_raw(self.id, colour, bytes)
    }

    // ------------------------------------------------------------------
    // Explicit locking
    // ------------------------------------------------------------------

    /// Takes a lock on `object` in `colour` and `mode` without touching
    /// its state. This is how control actions fence objects — e.g. the
    /// glued-action scheme exclusive-read-locks the hand-over set.
    ///
    /// # Errors
    ///
    /// Lock failures.
    pub fn lock(
        &self,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
    ) -> Result<(), ActionError> {
        self.runtime.op_lock(self.id, colour, object, mode)
    }

    /// Attempts a lock without waiting.
    ///
    /// # Errors
    ///
    /// [`ActionError::Lock`] with the denial reason if unavailable.
    pub fn try_lock(
        &self,
        colour: Colour,
        object: ObjectId,
        mode: LockMode,
    ) -> Result<(), ActionError> {
        self.runtime.op_try_lock(self.id, colour, object, mode)
    }

    // ------------------------------------------------------------------
    // Nesting
    // ------------------------------------------------------------------

    /// Runs a nested action with the same colours and default colour as
    /// this one; commit on `Ok`, abort on `Err` (the paper's plain
    /// nested atomic action).
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the child, or any
    /// commit error.
    pub fn nested<R>(
        &mut self,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        self.nested_in(self.colours, self.default_colour, body)
    }

    /// Runs a nested action with an explicit colour set and default
    /// colour; commit on `Ok`, abort on `Err`.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the child, or any
    /// commit error.
    pub fn nested_in<R>(
        &mut self,
        colours: ColourSet,
        default_colour: Colour,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        self.runtime
            .run_nested(self.id, colours, default_colour, body)
    }
}
