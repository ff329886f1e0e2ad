//! The in-action operation surface.

use chroma_base::{ActionId, Colour, ColourSet, LockMode, ObjectId};
use chroma_store::codec::{self, Stored};
use chroma_store::StoreBytes;

use crate::error::ActionError;
use crate::runtime::Runtime;
use crate::tree::Ancestors;

/// The fence a structure step keeps on the objects it touches: locks in
/// a wrapper's colour that pass to the wrapper at the step's commit and
/// protect those objects until the wrapper ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fence {
    /// Fig. 11 (serializing actions): every access also locks the object
    /// in this colour — `Read` for reads, `ExclusiveRead` for writes,
    /// modifies and creates — before touching it.
    EveryAccess(Colour),
    /// Fig. 12 (glued actions): only [`ActionScope::hand_over`] locks,
    /// `ExclusiveRead` in this colour.
    HandOver(Colour),
}

impl Fence {
    /// Returns the wrapper colour the fence locks are taken in.
    #[must_use]
    pub fn colour(self) -> Colour {
        match self {
            Fence::EveryAccess(colour) | Fence::HandOver(colour) => colour,
        }
    }
}

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
/// of the serializing/glued structures.
///
/// A structure step is a scope carrying a [`Fence`] (set with
/// [`ActionScope::set_fence`]): its reads, writes, modifies and creates
/// then also maintain the step's fence, so code written against
/// `ActionScope` runs unchanged inside any structure.
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
    ancestors: Ancestors,
    colours: ColourSet,
    default_colour: Colour,
    fence: Option<Fence>,
}

impl<'rt> ActionScope<'rt> {
    pub(crate) fn new(
        runtime: &'rt Runtime,
        id: ActionId,
        ancestors: Ancestors,
        colours: ColourSet,
        default_colour: Colour,
    ) -> Self {
        ActionScope {
            runtime,
            id,
            ancestors,
            colours,
            default_colour,
            fence: None,
        }
    }

    /// Returns the action this scope operates in.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.id
    }

    /// Returns the action's ancestors, closest first, each with its
    /// colour set.
    #[must_use]
    pub fn ancestors(&self) -> &Ancestors {
        &self.ancestors
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

    /// Makes this scope a structure step that keeps `fence` on what it
    /// touches. The action must possess the fence's colour, or fenced
    /// operations fail [`ActionError::ColourNotHeld`].
    pub fn set_fence(&mut self, fence: Fence) {
        self.fence = Some(fence);
    }

    /// Takes the fig. 11 fence on `object` in `mode`, if this scope has
    /// one.
    fn fence_access(&self, object: ObjectId, mode: LockMode) -> Result<(), ActionError> {
        match self.fence {
            Some(Fence::EveryAccess(colour)) => self.lock(colour, object, mode),
            _ => Ok(()),
        }
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
        Ok(codec::from_bytes(&self.read_raw_in(colour, object)?)?)
    }

    /// Reads an object's raw state, taking a read lock in `colour`.
    ///
    /// # Errors
    ///
    /// Lock failures or [`ActionError::NoSuchObject`].
    pub fn read_raw_in(&self, colour: Colour, object: ObjectId) -> Result<StoreBytes, ActionError> {
        self.fence_access(object, LockMode::Read)?;
        self.runtime.op_read_raw(self, colour, object)
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
        self.write_raw_in(colour, object, StoreBytes::from(codec::to_bytes(value)?))
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
        self.fence_access(object, LockMode::ExclusiveRead)?;
        self.runtime.op_write_raw(self, colour, object, state)
    }

    /// Reads, transforms and writes back an object in the default
    /// colour.
    ///
    /// # Errors
    ///
    /// Lock, object or codec failures.
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

    /// Reads, transforms and writes back an object in `colour`, under a
    /// single write-lock request taken before the read.
    ///
    /// # Errors
    ///
    /// Lock, object or codec failures.
    pub fn modify_in<T, R>(
        &self,
        colour: Colour,
        object: ObjectId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ActionError>
    where
        T: Stored,
    {
        self.fence_access(object, LockMode::ExclusiveRead)?;
        self.runtime
            .op_modify_raw(self, colour, object, |bytes: &StoreBytes| {
                let mut value: T = codec::from_bytes(bytes)?;
                let result = f(&mut value);
                Ok((StoreBytes::from(codec::to_bytes(&value)?), result))
            })
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
        let object = self.runtime.op_create_raw(self, colour, bytes)?;
        self.fence_access(object, LockMode::ExclusiveRead)?;
        Ok(object)
    }

    // ------------------------------------------------------------------
    // Explicit locking
    // ------------------------------------------------------------------

    /// Takes a lock on `object` in `colour` and `mode` without touching
    /// its state. Never fenced: this is how control actions fence
    /// objects by hand.
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
        self.runtime.op_lock(self, colour, object, mode)
    }

    /// Attempts a lock without waiting. Never fenced.
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
        self.runtime.op_try_lock(self, colour, object, mode)
    }

    /// Hands `object` over to the structure's next step: exclusive-read
    /// locks it in the fence colour, so the lock passes to the wrapper at
    /// this step's commit and only the wrapper's later steps can take it.
    ///
    /// # Errors
    ///
    /// [`ActionError::Failed`] if the scope has no fence (e.g. the final
    /// possible step of a glued chain); lock failures otherwise.
    pub fn hand_over(&self, object: ObjectId) -> Result<(), ActionError> {
        let fence = self
            .fence
            .ok_or_else(|| ActionError::failed("no next gap: chain capacity reached"))?;
        self.lock(fence.colour(), object, LockMode::ExclusiveRead)
    }

    // ------------------------------------------------------------------
    // Nesting
    // ------------------------------------------------------------------

    /// Runs a nested action with the same colours, default colour and
    /// fence as this one; commit on `Ok`, abort on `Err` (the paper's
    /// plain nested atomic action).
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the child, or any
    /// commit error.
    pub fn nested<R>(
        &mut self,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let fence = self.fence;
        self.runtime
            .run_nested(self.id, self.colours, self.default_colour, |child| {
                child.fence = fence;
                body(child)
            })
    }

    /// Runs a nested action with an explicit colour set and default
    /// colour, and no fence; commit on `Ok`, abort on `Err`.
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
