//! Opaque identifiers for actions, objects and nodes.

use std::fmt;

/// Identifier of an action (an atomic transaction, possibly nested and
/// possibly multi-coloured).
///
/// Values are allocated by the runtime that owns the action tree; they are
/// unique within one runtime and never reused.
///
/// # Examples
///
/// ```
/// use chroma_base::ActionId;
///
/// let a = ActionId::from_raw(7);
/// assert_eq!(a.as_raw(), 7);
/// assert_eq!(a.to_string(), "A7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActionId(u64);

impl ActionId {
    /// Creates an identifier from its raw representation.
    ///
    /// Intended for runtimes allocating identifiers and for tests; two
    /// actions in the same runtime never share a raw value.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        ActionId(raw)
    }

    /// Returns the raw representation of the identifier.
    #[must_use]
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Identifier of a persistent object.
///
/// Objects are the unit of locking and of recovery: locks are acquired on
/// whole objects and before-images are taken of whole object states.
///
/// # Examples
///
/// ```
/// use chroma_base::ObjectId;
///
/// let o = ObjectId::from_raw(3);
/// assert_eq!(o.to_string(), "O3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Creates an identifier from its raw representation.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// Returns the raw representation of the identifier.
    #[must_use]
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// Identifier of a node (a fail-silent workstation) in the simulated
/// distributed system.
///
/// # Examples
///
/// ```
/// use chroma_base::NodeId;
///
/// let n = NodeId::from_raw(2);
/// assert_eq!(n.to_string(), "N2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an identifier from its raw representation.
    #[must_use]
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw representation of the identifier.
    #[must_use]
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_id_round_trips_raw_value() {
        assert_eq!(ActionId::from_raw(42).as_raw(), 42);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(ActionId::from_raw(1) < ActionId::from_raw(2));
        assert!(ObjectId::from_raw(9) > ObjectId::from_raw(3));
        assert!(NodeId::from_raw(0) < NodeId::from_raw(1));
    }

    #[test]
    fn display_forms_are_prefixed() {
        assert_eq!(ActionId::from_raw(5).to_string(), "A5");
        assert_eq!(ObjectId::from_raw(5).to_string(), "O5");
        assert_eq!(NodeId::from_raw(5).to_string(), "N5");
    }

    #[test]
    fn ids_are_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(ObjectId::from_raw(1), "one");
        assert_eq!(m.get(&ObjectId::from_raw(1)), Some(&"one"));
    }
}
