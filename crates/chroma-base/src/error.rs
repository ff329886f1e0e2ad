//! Error types shared across the chroma crates.

use std::error::Error;
use std::fmt;

use crate::{ActionId, Colour, LockMode, ObjectId};

/// Errors arising from colour allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ColourError {
    /// The universe already holds the maximum number of live colours.
    Exhausted,
}

impl fmt::Display for ColourError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColourError::Exhausted => {
                write!(f, "colour universe exhausted (64 live colours)")
            }
        }
    }
}

impl Error for ColourError {}

/// Why a lock request could not be granted *right now*.
///
/// A denial is not fatal: a blocking acquire waits for the conflicting
/// holders to release, while a try-acquire surfaces the denial to the
/// caller.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum LockDenied {
    /// A holder that is not an ancestor of the requester holds a
    /// conflicting lock.
    ConflictingHolder {
        /// The holder that blocks the request.
        holder: ActionId,
        /// The mode in which the blocking lock is held.
        mode: LockMode,
    },
    /// The coloured write rule: a write lock of a different colour exists
    /// on the object, so a write may only be acquired in that colour.
    WrongWriteColour {
        /// The colour of the existing write lock(s).
        existing: Colour,
        /// The colour in which the request was made.
        requested: Colour,
    },
}

impl fmt::Display for LockDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockDenied::ConflictingHolder { holder, mode } => {
                write!(f, "conflicting {mode} lock held by non-ancestor {holder}")
            }
            LockDenied::WrongWriteColour {
                existing,
                requested,
            } => write!(
                f,
                "object already write-locked in colour {existing}; a write in colour \
                 {requested} is not permitted"
            ),
        }
    }
}

impl Error for LockDenied {}

/// Errors returned by lock acquisition.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum LockError {
    /// A try-acquire was denied; the reason is attached.
    Denied {
        /// The object the request was made on.
        object: ObjectId,
        /// Why the request was denied.
        reason: LockDenied,
    },
    /// The requester was chosen as a deadlock victim while waiting.
    DeadlockVictim {
        /// The object the victim was waiting on.
        object: ObjectId,
    },
    /// A blocking acquire exceeded its deadline.
    Timeout {
        /// The object the request was made on.
        object: ObjectId,
    },
    /// The requesting action does not possess the colour it tried to lock
    /// in (paper rule: "when acquiring locks, a coloured action may only
    /// use the colours which it possesses").
    ColourNotHeld {
        /// The requesting action.
        action: ActionId,
        /// The colour it does not possess.
        colour: Colour,
    },
    /// The requesting action is not active (already committed or aborted).
    ActionNotActive {
        /// The requesting action.
        action: ActionId,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Denied { object, reason } => {
                write!(f, "lock on {object} denied: {reason}")
            }
            LockError::DeadlockVictim { object } => {
                write!(f, "aborted as deadlock victim while waiting on {object}")
            }
            LockError::Timeout { object } => {
                write!(f, "timed out waiting for lock on {object}")
            }
            LockError::ColourNotHeld { action, colour } => {
                write!(f, "{action} does not possess colour {colour}")
            }
            LockError::ActionNotActive { action } => {
                write!(f, "{action} is not active")
            }
        }
    }
}

impl Error for LockError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let denied = LockError::Denied {
            object: ObjectId::from_raw(4),
            reason: LockDenied::ConflictingHolder {
                holder: ActionId::from_raw(2),
                mode: LockMode::Write,
            },
        };
        let text = denied.to_string();
        assert!(text.contains("O4"));
        assert!(text.contains("A2"));
        assert!(text.contains("write"));
    }

    #[test]
    fn wrong_write_colour_display() {
        let reason = LockDenied::WrongWriteColour {
            existing: Colour::from_index(0),
            requested: Colour::from_index(1),
        };
        let text = reason.to_string();
        assert!(text.contains("c0"));
        assert!(text.contains("c1"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ColourError>();
        assert_error::<LockDenied>();
        assert_error::<LockError>();
    }
}
