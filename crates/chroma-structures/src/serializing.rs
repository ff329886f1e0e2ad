//! Serializing actions (§3.1), implemented with the fig. 11 colour
//! scheme.
//!
//! A serializing action is "atomic with respect to concurrency but not
//! with respect to failures": its constituent steps are top-level for
//! permanence (each step's effects are flushed to stable storage at the
//! step's own commit), while the locks a step releases are retained by
//! the enclosing serializing action so no outside action can interpose
//! between steps.
//!
//! The colour scheme (fig. 11): the wrapper is a pure control action
//! with a private *fence* colour (the paper's red); each constituent
//! possesses the fence colour plus its own private *update* colour (the
//! paper's blue). Updates are written under the update colour — the
//! constituent is outermost for it, so they become permanent at the
//! constituent's commit. Every object a constituent touches is *also*
//! locked in the fence colour (exclusive-read for writes, read for
//! reads); those fence locks are inherited by the wrapper at the
//! constituent's commit, protecting the object until the wrapper ends.
//! A step is an ordinary [`ActionScope`] with a
//! [`Fence::EveryAccess`], so its own operations take the fence locks.

use chroma_base::ActionId;
use chroma_core::{ActionError, ActionScope, Fence, Runtime};

use crate::step::Control;

/// A serializing action: a sequence (or concurrent set) of top-level
/// steps whose locks are handed from each step to the wrapper and on to
/// later steps.
///
/// Possible outcomes for a two-step serializing action `A{B; C}` (§3.1):
///
/// 1. B aborts — nothing happened;
/// 2. B and C commit — both sets of effects are permanent, and become
///    visible together when [`end`](SerializingAction::end) releases the
///    fences;
/// 3. B commits, C aborts — B's effects alone are permanent (this is
///    exactly what plain nesting cannot express).
///
/// Dropping a `SerializingAction` without calling `end` aborts the
/// wrapper; effects of already-committed steps remain permanent (the
/// wrapper performs no writes of its own, so its abort only releases
/// the fences).
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_structures::SerializingAction;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let o = rt.create_object(&0i64)?;
///
/// let sa = SerializingAction::begin(&rt)?;
/// sa.step(|s| s.write(o, &1i64))?; // permanent at this step's commit
/// sa.step(|s| {
///     let v: i64 = s.read(o)?;
///     s.write(o, &(v + 1))
/// })?;
/// sa.end()?;
/// assert_eq!(rt.read_committed::<i64>(o)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SerializingAction {
    control: Control,
}

impl SerializingAction {
    /// Begins a serializing action as a top-level wrapper.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin(rt: &Runtime) -> Result<Self, ActionError> {
        Self::begin_under(rt, None)
    }

    /// Begins a serializing action nested under `parent`.
    ///
    /// The wrapper still uses a fresh private fence colour, so the
    /// constituents remain top-level for permanence even though the
    /// wrapper is lexically nested.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin_under(rt: &Runtime, parent: Option<ActionId>) -> Result<Self, ActionError> {
        Ok(SerializingAction {
            control: Control::begin(rt, parent)?,
        })
    }

    /// Runs one constituent step.
    ///
    /// The body gets a plain [`ActionScope`] whose default colour is the
    /// step's private update colour and whose [`Fence::EveryAccess`]
    /// fences every object it reads, writes, modifies or creates. The
    /// step is a top-level action for permanence: if the body returns
    /// `Ok`, its updates are immediately flushed to stable storage, and
    /// the fence locks on every object it touched pass to the wrapper.
    /// If the body returns `Err`, the step is aborted; earlier steps'
    /// effects are unaffected, and the serializing action may run
    /// further steps or end.
    ///
    /// Steps may run concurrently from several threads (fig. 8 uses
    /// this for distributed make): conflicting steps serialize on their
    /// object locks.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the step.
    pub fn step<R>(
        &self,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let fence = Fence::EveryAccess(self.control.colour);
        self.control.step(Some(fence), body)
    }

    /// Ends the serializing action: commits the wrapper, releasing every
    /// retained fence lock and making the steps' effects visible to
    /// other actions simultaneously.
    ///
    /// # Errors
    ///
    /// Propagates commit bookkeeping failures.
    pub fn end(self) -> Result<(), ActionError> {
        self.control.end()
    }

    /// Abandons the serializing action: aborts the wrapper.
    ///
    /// Effects of committed steps are **not** undone — they were
    /// permanent at each step's commit; only the fences are released.
    /// This is the "not atomic with respect to failures" half of the
    /// structure.
    pub fn abandon(self) {
        drop(self);
    }
}
