//! What every wrapper structure is built from (§5, figs. 11–12): a
//! control action with a private colour, and steps nested in it that
//! are outermost for their own private update colour.

use chroma_base::{ActionId, Colour, ColourSet};
use chroma_core::{ActionError, ActionScope, Fence, Runtime};

/// A control (wrapper) action possessing one private colour.
///
/// It performs no writes of its own: the locks its steps take in its
/// colour pass to it at their commits and are held until
/// [`end`](Control::end) commits it. Dropping it unfinished aborts it,
/// which only releases those locks — the steps' effects were permanent
/// at their own commits.
#[derive(Debug)]
pub(crate) struct Control {
    rt: Runtime,
    pub(crate) id: ActionId,
    pub(crate) colour: Colour,
    finished: bool,
}

impl Control {
    /// Begins a control action with a fresh colour, top-level or nested
    /// under `parent`.
    pub(crate) fn begin(rt: &Runtime, parent: Option<ActionId>) -> Result<Self, ActionError> {
        let colour = rt.universe().fresh()?;
        let colours = ColourSet::single(colour);
        let begun = match parent {
            Some(parent) => rt.begin_nested(parent, colours),
            None => rt.begin_top(colours),
        };
        match begun {
            Ok(id) => Ok(Control {
                rt: rt.clone(),
                id,
                colour,
                finished: false,
            }),
            Err(error) => {
                rt.universe().release(colour);
                Err(error)
            }
        }
    }

    /// Commits the control action, releasing every lock held in its
    /// colour.
    pub(crate) fn end(mut self) -> Result<(), ActionError> {
        self.finished = true;
        let result = self.rt.commit(self.id);
        self.rt.universe().release(self.colour);
        result
    }

    /// Runs one step nested in this control action (see [`run_step`]).
    pub(crate) fn step<R>(
        &self,
        fence: Option<Fence>,
        body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        run_step(&self.rt, self.id, fence, body)
    }
}

impl Drop for Control {
    fn drop(&mut self) {
        if !self.finished {
            self.rt.abort(self.id);
            self.rt.universe().release(self.colour);
        }
    }
}

/// Runs `body` as one structure step nested in `host`: a plain
/// [`ActionScope`] whose default colour is a fresh private update
/// colour, plus `fence`'s colour if there is one. The step is outermost
/// for its update colour, so its updates are permanent at its commit;
/// its fence locks pass to the enclosing holder of the fence colour.
/// Commit on `Ok`, abort on `Err`.
pub(crate) fn run_step<R>(
    rt: &Runtime,
    host: ActionId,
    fence: Option<Fence>,
    body: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
) -> Result<R, ActionError> {
    let update = rt.universe().fresh()?;
    let colours = match fence {
        Some(fence) => ColourSet::single(update).with(fence.colour()),
        None => ColourSet::single(update),
    };
    let result = rt.run_nested(host, colours, update, |scope| {
        if let Some(fence) = fence {
            scope.set_fence(fence);
        }
        body(scope)
    });
    rt.universe().release(update);
    result
}
