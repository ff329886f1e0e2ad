//! Lock modes.

use std::fmt;

/// The mode in which a lock is held on an object.
///
/// The paper (§5.2) assumes three modes:
///
/// * [`Read`](LockMode::Read) — shared read access;
/// * [`Write`](LockMode::Write) — exclusive write access;
/// * [`ExclusiveRead`](LockMode::ExclusiveRead) — exclusive *read*
///   access. Exclusive-read locks exist purely so that a coloured system
///   can implement the serializing/glued action structures: a control
///   action retains an exclusive-read lock in its own colour to fence an
///   object between two constituent actions without itself writing it.
///
/// # Examples
///
/// ```
/// use chroma_base::LockMode;
///
/// assert!(LockMode::Write.is_exclusive());
/// assert!(!LockMode::Read.is_exclusive());
/// assert!(LockMode::Write.permits_write());
/// assert!(!LockMode::ExclusiveRead.permits_write());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LockMode {
    /// Shared read access; compatible with other read locks.
    Read,
    /// Exclusive read access; incompatible with every other lock.
    ExclusiveRead,
    /// Exclusive write access; incompatible with every other lock.
    Write,
}

impl LockMode {
    /// Returns `true` for modes incompatible with any concurrent holder
    /// (`Write` and `ExclusiveRead`).
    #[must_use]
    pub const fn is_exclusive(self) -> bool {
        matches!(self, LockMode::Write | LockMode::ExclusiveRead)
    }

    /// Returns `true` if holding the lock permits writing the object.
    #[must_use]
    pub const fn permits_write(self) -> bool {
        matches!(self, LockMode::Write)
    }

    /// Returns `true` if holding the lock permits reading the object.
    ///
    /// All three modes permit reading.
    #[must_use]
    pub const fn permits_read(self) -> bool {
        true
    }

    /// Returns the stronger of two modes.
    ///
    /// Used when a parent inherits a child's lock on an object it already
    /// holds: the parent keeps the most restrictive of the two modes.
    /// The strength order is `Read < ExclusiveRead < Write`.
    #[must_use]
    pub fn strongest(self, other: LockMode) -> LockMode {
        self.max(other)
    }

    /// Returns `true` if a holder of `self` may be joined by a new holder
    /// of `other` irrespective of ancestry (the plain compatibility
    /// matrix: only read/read is compatible).
    #[must_use]
    pub const fn compatible_with(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Read, LockMode::Read))
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LockMode::Read => "read",
            LockMode::ExclusiveRead => "exclusive-read",
            LockMode::Write => "write",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        for (a, b, expected) in [
            (Read, Read, true),
            (Read, Write, false),
            (Read, ExclusiveRead, false),
            (Write, Read, false),
            (Write, Write, false),
            (Write, ExclusiveRead, false),
            (ExclusiveRead, Read, false),
            (ExclusiveRead, Write, false),
            (ExclusiveRead, ExclusiveRead, false),
        ] {
            assert_eq!(a.compatible_with(b), expected, "{a} vs {b}");
        }
    }

    #[test]
    fn strength_order() {
        use LockMode::*;
        assert_eq!(Read.strongest(Write), Write);
        assert_eq!(ExclusiveRead.strongest(Read), ExclusiveRead);
        assert_eq!(Write.strongest(ExclusiveRead), Write);
        assert_eq!(Read.strongest(Read), Read);
    }

    #[test]
    fn exclusivity_and_permissions() {
        assert!(LockMode::ExclusiveRead.is_exclusive());
        assert!(LockMode::Write.permits_write());
        assert!(!LockMode::Read.permits_write());
        assert!(LockMode::Read.permits_read());
        assert!(LockMode::ExclusiveRead.permits_read());
    }

    #[test]
    fn display_names() {
        assert_eq!(LockMode::Read.to_string(), "read");
        assert_eq!(LockMode::Write.to_string(), "write");
        assert_eq!(LockMode::ExclusiveRead.to_string(), "exclusive-read");
    }
}
