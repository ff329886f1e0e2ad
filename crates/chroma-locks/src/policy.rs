//! The two lock rule-sets of §5.2.

use chroma_base::{ActionId, Colour, LockDenied, LockMode};

use crate::ancestry::is_ancestor_or_self;
use crate::entry::LockEntry;

/// A lock granting rule-set.
///
/// Implementations decide, given the current holders of an object and the
/// requester's ancestor chain, whether a request may be granted *now*. They do not
/// concern themselves with waiting, inheritance or recovery — that is the
/// [`LockTable`](crate::LockTable)'s job and is common to both rule-sets.
///
/// This trait is sealed in spirit: chroma ships exactly the two policies
/// the paper compares, but the trait is public so the table can be
/// instantiated with either and so experiment code can wrap policies to
/// count decisions.
pub trait LockPolicy {
    /// Decides whether `requester`, whose proper ancestors are `chain`
    /// (closest first), may acquire a lock in `mode`/`colour` given the
    /// object's current `holders`.
    ///
    /// Entries belonging to the requester itself are included in
    /// `holders`; policies treat the requester as its own ancestor
    /// (enabling conversion), subject to the rest of the rules.
    ///
    /// # Errors
    ///
    /// Returns the [`LockDenied`] reason when the request must wait.
    fn permits(
        &self,
        chain: &[ActionId],
        holders: &[LockEntry],
        requester: ActionId,
        colour: Colour,
        mode: LockMode,
    ) -> Result<(), LockDenied>;
}

/// The conventional nested atomic action rules (Moss 1981), as restated
/// in §5.2 of the paper:
///
/// * **read**: granted if every holder has a read lock, or every holder
///   of a write or exclusive-read lock is an ancestor of the requester;
/// * **write / exclusive-read**: granted if every holder is an ancestor
///   of the requester.
///
/// Colour fields on entries are ignored — a classic system is a
/// single-colour system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassicPolicy;

impl LockPolicy for ClassicPolicy {
    fn permits(
        &self,
        chain: &[ActionId],
        holders: &[LockEntry],
        requester: ActionId,
        _colour: Colour,
        mode: LockMode,
    ) -> Result<(), LockDenied> {
        for holder in holders {
            let blocking = match mode {
                // Readers only conflict with exclusive holders.
                LockMode::Read => holder.mode.is_exclusive(),
                // Exclusive requests conflict with every holder.
                LockMode::Write | LockMode::ExclusiveRead => true,
            };
            if blocking && !is_ancestor_or_self(holder.action, requester, chain) {
                return Err(LockDenied::ConflictingHolder {
                    holder: holder.action,
                    mode: holder.mode,
                });
            }
        }
        Ok(())
    }
}

/// The multi-coloured action rules (§5.2). Identical to
/// [`ClassicPolicy`] except for the write-colour constraint:
///
/// * **write in colour a**: every holder (any colour, any mode) must be
///   an ancestor of the requester, **and** every write lock on the object
///   must itself be coloured `a` — "if an ancestor of a coloured action
///   has a write lock of colour a on an object, then the coloured action
///   may only acquire a write lock on that object using colour a";
/// * **read in colour a**: every holder has a read lock, or every
///   write/exclusive-read holder is an ancestor (no colour constraint —
///   this is what lets fig. 11's action C read, in blue, objects the
///   serializing wrapper retains in red);
/// * **exclusive-read in colour a**: every holder is an ancestor (no
///   write-colour constraint — this is what lets fig. 12's action A
///   exclusive-read-lock in red the hand-over set it itself
///   write-locked in blue).
///
/// The requirement that an action only *requests* colours it possesses is
/// enforced by the [`LockTable`](crate::LockTable) before the policy is
/// consulted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColouredPolicy;

impl LockPolicy for ColouredPolicy {
    fn permits(
        &self,
        chain: &[ActionId],
        holders: &[LockEntry],
        requester: ActionId,
        colour: Colour,
        mode: LockMode,
    ) -> Result<(), LockDenied> {
        for holder in holders {
            let blocking = match mode {
                LockMode::Read => holder.mode.is_exclusive(),
                LockMode::Write | LockMode::ExclusiveRead => true,
            };
            if blocking && !is_ancestor_or_self(holder.action, requester, chain) {
                return Err(LockDenied::ConflictingHolder {
                    holder: holder.action,
                    mode: holder.mode,
                });
            }
            if mode == LockMode::Write && holder.mode == LockMode::Write && holder.colour != colour
            {
                return Err(LockDenied::WrongWriteColour {
                    existing: holder.colour,
                    requested: colour,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn red() -> Colour {
        Colour::from_index(0)
    }

    fn blue() -> Colour {
        Colour::from_index(1)
    }

    fn a(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }

    #[test]
    fn classic_read_shares_with_readers() {
        let holders = [LockEntry::new(a(1), red(), LockMode::Read)];
        assert!(ClassicPolicy
            .permits(&[], &holders, a(2), red(), LockMode::Read)
            .is_ok());
    }

    #[test]
    fn classic_read_blocked_by_stranger_writer() {
        let holders = [LockEntry::new(a(1), red(), LockMode::Write)];
        assert!(ClassicPolicy
            .permits(&[], &holders, a(2), red(), LockMode::Read)
            .is_err());
    }

    #[test]
    fn classic_read_allowed_under_ancestor_writer() {
        let chain = [a(1)];
        let holders = [LockEntry::new(a(1), red(), LockMode::Write)];
        assert!(ClassicPolicy
            .permits(&chain, &holders, a(2), red(), LockMode::Read)
            .is_ok());
    }

    #[test]
    fn classic_write_requires_all_holders_ancestors() {
        let chain = [a(1)];
        // Reader a(2) is a stranger: write denied even though reads are "weak".
        let holders = [
            LockEntry::new(a(1), red(), LockMode::Read),
            LockEntry::new(a(2), red(), LockMode::Read),
        ];
        assert!(ClassicPolicy
            .permits(&chain, &holders, a(3), red(), LockMode::Write)
            .is_err());
        // Only the ancestor reader: granted.
        let holders = [LockEntry::new(a(1), red(), LockMode::Read)];
        assert!(ClassicPolicy
            .permits(&chain, &holders, a(3), red(), LockMode::Write)
            .is_ok());
    }

    #[test]
    fn classic_xread_behaves_like_write_for_granting() {
        let holders = [LockEntry::new(a(1), red(), LockMode::Read)];
        assert!(ClassicPolicy
            .permits(&[], &holders, a(2), red(), LockMode::ExclusiveRead)
            .is_err());
    }

    #[test]
    fn coloured_write_requires_matching_write_colour() {
        let chain = [a(1)];
        // Ancestor holds a RED write; BLUE write must be denied...
        let holders = [LockEntry::new(a(1), red(), LockMode::Write)];
        let denied = ColouredPolicy
            .permits(&chain, &holders, a(2), blue(), LockMode::Write)
            .unwrap_err();
        assert!(matches!(denied, LockDenied::WrongWriteColour { .. }));
        // ...while a RED write is granted.
        assert!(ColouredPolicy
            .permits(&chain, &holders, a(2), red(), LockMode::Write)
            .is_ok());
    }

    #[test]
    fn coloured_write_over_ancestor_xread_of_other_colour_is_granted() {
        // Fig. 11/12 mechanism: the control action retains an
        // exclusive-read in red; a nested blue action may still write.
        let chain = [a(1)];
        let holders = [LockEntry::new(a(1), red(), LockMode::ExclusiveRead)];
        assert!(ColouredPolicy
            .permits(&chain, &holders, a(2), blue(), LockMode::Write)
            .is_ok());
    }

    #[test]
    fn coloured_xread_over_own_write_of_other_colour_is_granted() {
        // Fig. 12 mechanism: A write-locks P in blue then
        // exclusive-read-locks P in red; self counts as ancestor and no
        // colour constraint applies to exclusive-read.
        let holders = [LockEntry::new(a(1), blue(), LockMode::Write)];
        assert!(ColouredPolicy
            .permits(&[], &holders, a(1), red(), LockMode::ExclusiveRead)
            .is_ok());
    }

    #[test]
    fn coloured_read_has_no_colour_constraint() {
        let chain = [a(1)];
        let holders = [LockEntry::new(a(1), red(), LockMode::Write)];
        assert!(ColouredPolicy
            .permits(&chain, &holders, a(2), blue(), LockMode::Read)
            .is_ok());
    }

    #[test]
    fn coloured_stranger_writer_blocks_everything() {
        let holders = [LockEntry::new(a(1), red(), LockMode::Write)];
        for mode in [LockMode::Read, LockMode::Write, LockMode::ExclusiveRead] {
            assert!(
                ColouredPolicy
                    .permits(&[], &holders, a(2), red(), mode)
                    .is_err(),
                "{mode} should be denied"
            );
        }
    }

    #[test]
    fn single_colour_policies_agree_on_basic_matrix() {
        let chain = [a(1)];
        for holder_mode in [LockMode::Read, LockMode::Write, LockMode::ExclusiveRead] {
            for req_mode in [LockMode::Read, LockMode::Write, LockMode::ExclusiveRead] {
                for (holder, requester) in [(a(1), a(2)), (a(9), a(2))] {
                    let holders = [LockEntry::new(holder, red(), holder_mode)];
                    let classic = ClassicPolicy
                        .permits(&chain, &holders, requester, red(), req_mode)
                        .is_ok();
                    let coloured = ColouredPolicy
                        .permits(&chain, &holders, requester, red(), req_mode)
                        .is_ok();
                    assert_eq!(
                        classic, coloured,
                        "disagreement: holder {holder_mode} by {holder}, request {req_mode}"
                    );
                }
            }
        }
    }
}
