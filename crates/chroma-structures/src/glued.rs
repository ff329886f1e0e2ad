//! Glued actions (§3.2), implemented with the fig. 12 colour scheme.
//!
//! Gluing passes locks on a *selected subset* of objects atomically from
//! one top-level action to the next, while every other lock is released
//! at the first action's commit. This gets the concurrency of separate
//! top-level actions (fig. 4a) without the unprotected gap, and avoids
//! the over-locking of a serializing action (fig. 4b), which would fence
//! everything until the last step ends.
//!
//! **Single gap (fig. 12):** a control action G with a private glue
//! colour encloses A (glue + private update colour) and B (private
//! update colour). A writes everything in its update colour and
//! additionally exclusive-read-locks the hand-over set in the glue
//! colour; at A's commit the update locks are released (A is outermost
//! for them — effects permanent, non-handed objects free) while the glue
//! fences pass to G. B, nested in G, may then acquire write locks on the
//! handed-over objects — G's exclusive-read fence blocks everyone else.
//! A step is an ordinary [`ActionScope`] with a [`Fence::HandOver`], so
//! [`ActionScope::hand_over`] is the only operation that fences.
//!
//! **Chains (fig. 9):** the diary example needs slot locks released as
//! soon as a round rejects them. One wrapper per *gap* achieves this,
//! with wrappers nested outermost-first: `F_n ⊃ … ⊃ F_1`, step `I_1`,
//! `I_2` inside `F_1`, and `I_{i+1}` inside `F_i`. When `I_{i+1}`
//! commits, `F_i` commits too: `F_i` is outermost for gap colour `g_i`,
//! so *every* gap-i fence is released — objects the new step re-fenced
//! are protected by `g_{i+1}` (held by `F_{i+1}`), and rejected objects
//! become free immediately, mid-chain. This is the tree-shaped
//! realisation of the paper's "entries in diaries are not unnecessarily
//! kept locked".

use chroma_base::ActionId;
use chroma_core::{ActionError, ActionScope, Fence, Runtime};

use crate::step::{run_step, Control};

/// A chain of glued top-level actions with per-gap hand-over.
///
/// Each [`step`](GluedChain::step) is a top-level action for permanence.
/// Inside a step, [`ActionScope::hand_over`] fences an object for the
/// next step; everything else the step touched becomes available to
/// other actions the moment the step commits.
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_structures::GluedChain;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let kept = rt.create_object(&0i64)?;
/// let dropped = rt.create_object(&0i64)?;
///
/// let chain = GluedChain::begin(&rt, 4)?;
/// chain.step(|s| {
///     s.write(kept, &1i64)?;
///     s.write(dropped, &1i64)?;
///     s.hand_over(kept)?; // only `kept` stays locked after this step
///     Ok(())
/// })?;
/// // `dropped` is free here; `kept` is fenced for the next step.
/// chain.step(|s| {
///     let v: i64 = s.read(kept)?;
///     s.write(kept, &(v + 1))
/// })?;
/// chain.end()?;
/// assert_eq!(rt.read_committed::<i64>(kept)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GluedChain {
    rt: Runtime,
    state: parking_lot::Mutex<ChainState>,
}

#[derive(Debug)]
struct ChainState {
    /// Gap wrappers, outermost first: `wrappers[0]` is `F_capacity`,
    /// the last element is `F_1`. Wrappers are popped (committed) from
    /// the back as gaps close; dropping the rest aborts the outermost,
    /// and with it every wrapper inside.
    wrappers: Vec<Control>,
    /// Steps run so far.
    steps: usize,
}

impl GluedChain {
    /// Begins a glued chain able to run up to `capacity` steps.
    ///
    /// `capacity` gap wrappers (and gap colours) are pre-allocated,
    /// nested outermost-first; unused ones are committed (empty) by
    /// [`end`](GluedChain::end). Capacity is bounded by the 64-colour
    /// universe budget.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin(rt: &Runtime, capacity: usize) -> Result<Self, ActionError> {
        Self::begin_under(rt, None, capacity)
    }

    /// Begins a glued chain nested under `parent`.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin_under(
        rt: &Runtime,
        parent: Option<ActionId>,
        capacity: usize,
    ) -> Result<Self, ActionError> {
        let mut wrappers: Vec<Control> = Vec::with_capacity(capacity);
        // Outermost wrapper first: F_capacity, …, F_1.
        for _ in 0..capacity {
            let parent = wrappers.last().map_or(parent, |outer| Some(outer.id));
            wrappers.push(Control::begin(rt, parent)?);
        }
        Ok(GluedChain {
            rt: rt.clone(),
            state: parking_lot::Mutex::new(ChainState { wrappers, steps: 0 }),
        })
    }

    /// Returns how many further steps the chain can run.
    ///
    /// A chain begun with capacity `n` runs up to `n + 1` steps: the
    /// innermost wrapper hosts the first two steps, every other wrapper
    /// one; the final step cannot hand anything over.
    #[must_use]
    pub fn remaining_capacity(&self) -> usize {
        let state = self.state.lock();
        match state.wrappers.len() {
            0 => 0,
            n if state.steps <= 1 => n + 1 - state.steps,
            n => n,
        }
    }

    /// Runs the next step of the chain as a top-level (for permanence)
    /// action.
    ///
    /// The body gets a plain [`ActionScope`] whose default colour is the
    /// step's private update colour; [`ActionScope::hand_over`] fences
    /// an object for the next step. On commit, objects handed over by
    /// the *previous* step that this step did not re-fence become
    /// available to every other action.
    ///
    /// # Errors
    ///
    /// [`ActionError::Failed`] if capacity is exhausted; otherwise
    /// propagates the body's error after aborting the step (the chain
    /// stays usable — a failed step may be retried).
    pub fn step<R>(
        &self,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let (host, gap, closes_gap) = {
            let state = self.state.lock();
            // The host is always the innermost remaining wrapper: steps 1
            // and 2 run in F_1; once step i+1 commits, F_i closes, so
            // step i+2 finds F_{i+1} innermost.
            let host = state
                .wrappers
                .last()
                .ok_or_else(|| ActionError::failed("glued chain capacity exhausted"))?;
            let first_step = state.steps == 0;
            // The colour this step fences hand-overs in: the first step
            // uses its host's own gap (F_1 inherits it); later steps use
            // the next wrapper out (F_{i+1}), since their host closes
            // right after they commit. The final possible step has no
            // next gap.
            let gap = if first_step {
                Some(host.colour)
            } else {
                let n = state.wrappers.len();
                n.checked_sub(2).map(|p| state.wrappers[p].colour)
            };
            (host.id, gap, !first_step)
        };

        let value = run_step(&self.rt, host, gap.map(Fence::HandOver), body)?;
        let mut state = self.state.lock();
        state.steps += 1;
        if closes_gap {
            // Close the gap wrapper: releases the previous gap's fences
            // (rejected objects become free mid-chain).
            let host = state.wrappers.pop().expect("host wrapper still present");
            host.end()?;
        }
        Ok(value)
    }

    /// Ends the chain: commits every remaining wrapper (innermost
    /// first), releasing all fences.
    ///
    /// # Errors
    ///
    /// Propagates commit bookkeeping failures.
    pub fn end(self) -> Result<(), ActionError> {
        let mut state = self.state.lock();
        while let Some(wrapper) = state.wrappers.pop() {
            wrapper.end()?;
        }
        Ok(())
    }

    /// Abandons the chain: aborts every remaining wrapper. Effects of
    /// committed steps remain permanent; only fences are released.
    pub fn abandon(self) {
        drop(self);
    }
}

/// Concurrent glued actions (fig. 6): several contributor actions hand
/// objects over, through a single shared glue colour, to receiver
/// actions that run after them.
///
/// The scheme is the paper's: "giving A1..An colours red and blue and
/// enclosing them within a red coloured action".
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_structures::GluedGroup;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let o = rt.create_object(&1i64)?;
/// let group = GluedGroup::begin(&rt)?;
/// group.contribute(|s| {
///     s.write(o, &2i64)?;
///     s.hand_over(o)
/// })?;
/// group.receive(|s| {
///     let v: i64 = s.read(o)?;
///     s.write(o, &(v * 10))
/// })?;
/// group.end()?;
/// assert_eq!(rt.read_committed::<i64>(o)?, 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GluedGroup {
    control: Control,
}

impl GluedGroup {
    /// Begins a glued group as a top-level control action.
    ///
    /// # Errors
    ///
    /// Colour exhaustion or action bookkeeping failures.
    pub fn begin(rt: &Runtime) -> Result<Self, ActionError> {
        Ok(GluedGroup {
            control: Control::begin(rt, None)?,
        })
    }

    /// Runs a contributor action (an `A_i` of fig. 6): top-level for
    /// permanence, able to [`hand_over`](ActionScope::hand_over) objects
    /// into the group's glue. Safe to call from several threads.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the contributor.
    pub fn contribute<R>(
        &self,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        let fence = Fence::HandOver(self.control.colour);
        self.control.step(Some(fence), body)
    }

    /// Runs a receiver action (a `B_i` of fig. 6): top-level for
    /// permanence, able to lock the handed-over objects because it is
    /// nested inside the fence-holding control. It has no fence, so it
    /// cannot hand anything over. Safe to call from several threads.
    ///
    /// # Errors
    ///
    /// Propagates the body's error after aborting the receiver.
    pub fn receive<R>(
        &self,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        self.control.step(None, body)
    }

    /// Ends the group: commits the control action, releasing all glue
    /// fences.
    ///
    /// # Errors
    ///
    /// Propagates commit bookkeeping failures.
    pub fn end(self) -> Result<(), ActionError> {
        self.control.end()
    }

    /// Abandons the group: aborts the control action. Committed
    /// contributors'/receivers' effects remain permanent.
    pub fn abandon(self) {
        drop(self);
    }
}
