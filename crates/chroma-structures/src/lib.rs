//! The paper's action structures (§3), implemented uniformly on
//! multi-coloured actions (§5).
//!
//! | Structure | Paper | Type / function |
//! |---|---|---|
//! | Serializing action | §3.1, figs. 3, 11 | [`SerializingAction`] |
//! | Glued actions (chain) | §3.2, figs. 5, 9, 12 | [`GluedChain`] |
//! | Glued actions (concurrent) | fig. 6 | [`GluedGroup`] |
//! | Top-level independent (sync) | §3.3, figs. 7a, 13 | [`independent_sync`] |
//! | Top-level independent (async) | fig. 7b | [`independent_async`] |
//! | N-level independent | figs. 14–15 | [`independent_at_level`] |
//! | Automatic colour assignment | §6 | [`compiler`] |
//! | Compensating chain (further work, §3.4) | §3.4 | [`CompensatingChain`] |
//!
//! Conventional (single-colour) atomic and nested actions are provided
//! directly by [`chroma_core::Runtime::atomic`] and
//! [`chroma_core::ActionScope::nested`]; a coloured system in which all
//! actions share one colour *is* the conventional system (§5.1).
//!
//! Every structure body takes a plain [`chroma_core::ActionScope`]. A
//! serializing step's scope carries a
//! [`Fence::EveryAccess`](chroma_core::Fence::EveryAccess), so each of
//! its reads, writes, modifies and creates also locks the object in the
//! wrapper's colour (fig. 11); a glued step's carries a
//! [`Fence::HandOver`](chroma_core::Fence::HandOver), so only
//! [`hand_over`](chroma_core::ActionScope::hand_over) does (fig. 12).
//! Code written against `ActionScope` — typed objects, the §4 apps,
//! nested actions — therefore runs unchanged inside any structure.
//!
//! # Choosing a structure
//!
//! * Use a plain atomic action when the whole job is short and must be
//!   all-or-nothing.
//! * Use a **serializing action** when the job splits into steps whose
//!   completed work must survive later failures, but no other action
//!   may interpose between steps (distributed make, fig. 8).
//! * Use a **glued chain** when, additionally, each step should release
//!   everything it no longer needs (diary scheduling, fig. 9).
//! * Use an **independent action** for side ledgers that must not be
//!   rolled back with the invoker: bulletin boards, name servers,
//!   billing (§4 i–iii).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compensating;
pub mod compiler;
mod glued;
mod independent;
mod serializing;
mod step;

pub use compensating::{CompensatingChain, UnwindReport};
pub use glued::{GluedChain, GluedGroup};
pub use independent::{
    independent_async, independent_at_level, independent_sync, independent_with_compensation,
    probe_conflict, Compensation, IndependentHandle,
};
pub use serializing::SerializingAction;
