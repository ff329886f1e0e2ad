//! Top-level and n-level independent actions (§3.3, figs. 7, 13–15).
//!
//! A top-level independent action is invoked from inside another action
//! but commits or aborts independently of its invoker. The coloured
//! implementation (fig. 13) simply gives the invoked action a fresh
//! colour disjoint from the invoker's: it is then outermost for its own
//! colour, so its commit is immediately permanent, and the invoker's
//! abort never touches its effects.
//!
//! * **Synchronous** invocation runs the independent action to
//!   completion before the invoker continues; the invoker observes the
//!   outcome and may choose to abort itself (fig. 7a). The fig. 13
//!   caveat applies: if the invoked action needs conflicting access to
//!   objects locked by the invoker, the pair would deadlock — the
//!   invoked action is nested under the invoker, and the deadlock
//!   detector counts a parent as waiting for its waiting descendants, so
//!   the invoked action is victimised and the conflict surfaces as an
//!   error instead of a hang.
//! * **Asynchronous** invocation (fig. 7b) runs the independent action
//!   on its own thread as a detached top-level action; the invoker may
//!   await its outcome via the returned handle or simply proceed.
//! * **N-level** independence (figs. 14–15) falls out of colour choice:
//!   an action whose colour is possessed by the k-th enclosing ancestor
//!   is independent of everything below that ancestor. The
//!   [`independent_at_level`] helper expresses this directly.

use chroma_base::{ColourSet, LockMode, ObjectId};
use chroma_core::{ActionError, ActionScope, Runtime};

/// Runs `body` as a **synchronous top-level independent action** invoked
/// from `scope` (fig. 7a / fig. 13b).
///
/// The independent action is nested in the invoker's tree position but
/// coloured with a fresh colour, so:
///
/// * if it commits, its effects are immediately permanent — a later
///   abort of the invoker does not undo them;
/// * if it aborts, the invoker is unaffected and decides for itself what
///   to do with the returned error.
///
/// # Errors
///
/// Propagates the body's error (after the independent action aborted).
/// The invoker stays active either way.
///
/// # Examples
///
/// ```
/// use chroma_core::{ActionError, Runtime};
/// use chroma_structures::independent_sync;
///
/// # fn main() -> Result<(), ActionError> {
/// let rt = Runtime::builder().build();
/// let audit = rt.create_object(&0u32)?;
/// let result: Result<(), ActionError> = rt.atomic(|a| {
///     independent_sync(a, |log| log.modify(audit, |n: &mut u32| *n += 1))?;
///     Err(ActionError::failed("main work failed"))
/// });
/// assert!(result.is_err());
/// // The audit record survived the invoker's abort.
/// assert_eq!(rt.read_committed::<u32>(audit)?, 1);
/// # Ok(())
/// # }
/// ```
pub fn independent_sync<R>(
    scope: &mut ActionScope<'_>,
    body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
) -> Result<R, ActionError> {
    let rt = scope.runtime();
    let colour = rt.universe().fresh()?;
    // Nesting the child under the invoker is also what lets the deadlock
    // detector see the invoker waiting for it, so a child blocked on the
    // invoker's locks is victimised (fig. 13 caveat) rather than hanging.
    let result = rt.run_nested(scope.id(), ColourSet::single(colour), colour, body);
    rt.universe().release(colour);
    result
}

/// Handle to an asynchronously invoked independent action (fig. 7b).
///
/// The invoker may [`join`](IndependentHandle::join) to observe the
/// outcome, or drop the handle to let the action finish on its own
/// (truly fire-and-forget).
#[derive(Debug)]
pub struct IndependentHandle<R> {
    thread: Option<std::thread::JoinHandle<Result<R, ActionError>>>,
}

impl<R> IndependentHandle<R> {
    /// Waits for the independent action and returns its outcome.
    ///
    /// # Errors
    ///
    /// The action's own error if it aborted, or
    /// [`ActionError::Failed`] if its thread panicked.
    pub fn join(mut self) -> Result<R, ActionError> {
        match self.thread.take().expect("thread not yet joined").join() {
            Ok(result) => result,
            Err(_) => Err(ActionError::failed("independent action panicked")),
        }
    }

    /// Returns `true` if the action has terminated (its outcome is ready
    /// to [`join`](IndependentHandle::join) without blocking).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.thread
            .as_ref()
            .is_none_or(std::thread::JoinHandle::is_finished)
    }
}

/// Invokes `body` as an **asynchronous top-level independent action**
/// (fig. 7b): a detached top-level action on its own thread, with a
/// fresh colour.
///
/// The invoking action — if any — continues immediately; the two commit
/// or abort independently. Used by the paper's bulletin-board and
/// name-server examples to publish updates that must not be undone by
/// the invoker's abort.
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_structures::independent_async;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let o = rt.create_object(&0u32)?;
/// let handle = independent_async(&rt, move |a| a.write(o, &7u32));
/// handle.join()?;
/// assert_eq!(rt.read_committed::<u32>(o)?, 7);
/// # Ok(())
/// # }
/// ```
pub fn independent_async<R, F>(rt: &Runtime, body: F) -> IndependentHandle<R>
where
    R: Send + 'static,
    F: FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError> + Send + 'static,
{
    let rt = rt.clone();
    let thread = std::thread::spawn(move || {
        let colour = rt.universe().fresh()?;
        let result = rt.run_top(ColourSet::single(colour), colour, body);
        rt.universe().release(colour);
        result
    });
    IndependentHandle {
        thread: Some(thread),
    }
}

/// Runs `body` as an action independent of its `level` closest
/// enclosing ancestors (figs. 14–15).
///
/// `level = 0` is a plain nested action (same colours as the invoker);
/// `level` ≥ the nesting depth is a fully independent top-level action.
/// In between, the action is coloured with a colour possessed by the
/// ancestor `level` steps up — fig. 15's action E (coloured blue, run
/// inside red B, inside red+blue A) is `independent_at_level(b, 1, …)`:
/// B's abort does not undo E, but A's abort does.
///
/// The implementation allocates a fresh colour and *registers it* on the
/// target ancestor... it cannot: colour sets are statically assigned at
/// begin time. Instead it reuses one of the target ancestor's own
/// colours that no intermediate ancestor possesses; if every colour of
/// the target is also held by an intermediate ancestor, independence at
/// exactly that level is unrepresentable and an error is returned —
/// assign the outer action a private colour at creation (the automatic
/// compiler in [`crate::compiler`] always does).
///
/// # Errors
///
/// [`ActionError::Failed`] if no suitable colour exists; otherwise the
/// body's error after the child aborted.
pub fn independent_at_level<R>(
    scope: &mut ActionScope<'_>,
    level: usize,
    body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
) -> Result<R, ActionError> {
    if level == 0 {
        return scope.nested(body);
    }
    let rt = scope.runtime();
    // Find the ancestor `level` steps up and a colour of theirs not
    // possessed by any intermediate ancestor.
    let mut cursor = scope.id();
    let mut blocked = ColourSet::EMPTY; // colours of intermediates (and self)
    for _ in 0..level {
        blocked = blocked.union(
            rt.action_colours(cursor)
                .ok_or(ActionError::NotActive(cursor))?,
        );
        match rt.action_parent(cursor) {
            Some(parent) => cursor = parent,
            None => {
                // Ran out of ancestors: fully independent.
                return independent_sync(scope, body);
            }
        }
    }
    let target_colours = rt
        .action_colours(cursor)
        .ok_or(ActionError::NotActive(cursor))?;
    let usable = target_colours.minus(blocked);
    let colour = usable.iter().next().ok_or_else(|| {
        ActionError::failed(
            "no colour distinguishes the target ancestor from intermediates; \
             give it a private colour",
        )
    })?;
    rt.run_nested(scope.id(), ColourSet::single(colour), colour, body)
}

/// A compensation hook: registers `compensation` to run as an
/// asynchronous independent action if `body` (run as a synchronous
/// independent action) committed but the *invoker* subsequently needs to
/// undo it.
///
/// The paper leaves compensation as further work (§3.4) but notes the
/// bulletin-board example "may well need to invoke a compensating
/// top-level action" when the invoker aborts. This helper implements
/// the minimal pattern: run the independent action now, and return a
/// [`Compensation`] the caller fires (or discards) once the invoker's
/// own fate is known.
///
/// # Errors
///
/// Propagates the independent action's error; no compensation is
/// registered in that case.
pub fn independent_with_compensation<R>(
    scope: &mut ActionScope<'_>,
    body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    compensation: impl FnOnce(&mut ActionScope<'_>) -> Result<(), ActionError> + Send + 'static,
) -> Result<(R, Compensation), ActionError> {
    let value = independent_sync(scope, body)?;
    Ok((
        value,
        Compensation {
            rt: scope.runtime().clone(),
            run: Some(Box::new(compensation)),
        },
    ))
}

/// A registered compensating action (see
/// [`independent_with_compensation`]).
pub struct Compensation {
    rt: Runtime,
    #[allow(clippy::type_complexity)]
    run: Option<Box<dyn FnOnce(&mut ActionScope<'_>) -> Result<(), ActionError> + Send>>,
}

impl Compensation {
    /// Fires the compensation as an asynchronous independent action and
    /// returns a handle to its outcome.
    #[must_use]
    pub fn fire(mut self) -> IndependentHandle<()> {
        let run = self.run.take().expect("compensation not yet consumed");
        independent_async(&self.rt, run)
    }

    /// Discards the compensation (the invoker committed; the
    /// independent action's effects should stand).
    pub fn discard(mut self) {
        self.run = None;
    }
}

impl std::fmt::Debug for Compensation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compensation")
            .field("armed", &self.run.is_some())
            .finish()
    }
}

/// Probes whether an independent action could take `mode` on `object`
/// without conflicting with its invoker — the fig. 13 "strictly
/// speaking independent" test.
///
/// # Errors
///
/// Never fails; the `Result` mirrors the try-lock outcome (`Ok(true)` =
/// no conflict).
pub fn probe_conflict(
    scope: &mut ActionScope<'_>,
    object: ObjectId,
    mode: LockMode,
) -> Result<bool, ActionError> {
    let rt = scope.runtime().clone();
    let colour = rt.universe().fresh()?;
    // Probe as a *detached* top-level action: a nested probe would be
    // granted access to the invoker's own locks through the ancestor
    // rule, which is exactly the "not strictly independent" case the
    // probe exists to detect.
    let probe = rt.begin_top(ColourSet::single(colour))?;
    let outcome = rt
        .scope(probe)
        .and_then(|s| s.try_lock(colour, object, mode));
    rt.abort(probe);
    rt.universe().release(colour);
    match outcome {
        Ok(()) => Ok(true),
        Err(ActionError::Lock(_)) => Ok(false),
        Err(other) => Err(other),
    }
}
