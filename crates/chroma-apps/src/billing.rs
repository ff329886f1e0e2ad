//! Billing and accounting of resource usage (§4 iii).
//!
//! "If a service is accessed by an action and the user of the service is
//! to be charged, then the charging information should not be recovered
//! if the action aborts. Top-level independent actions again provide
//! the required functionality."

use chroma_core::{ActionError, ActionScope, ObjectId, Runtime};
use chroma_store::stored;
use chroma_structures::independent_sync;

stored! {
    /// One charge on the ledger.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Charge {
        /// The account charged.
        pub account: String,
        /// What was used.
        pub resource: String,
        /// Cost in abstract units.
        pub amount: u64,
    }
}

stored! {
    #[derive(Clone, Debug, Default, PartialEq)]
    struct LedgerState {
        charges: Vec<Charge>,
        total: u64,
    }
}

/// A persistent usage ledger whose charges survive client aborts.
///
/// # Examples
///
/// ```
/// use chroma_core::{ActionError, Runtime};
/// use chroma_apps::Ledger;
///
/// # fn main() -> Result<(), ActionError> {
/// let rt = Runtime::builder().build();
/// let ledger = Ledger::create(&rt)?;
/// let result: Result<(), ActionError> = rt.atomic(|a| {
///     ledger.charge_from(a, "ada", "cpu", 5)?;
///     Err(ActionError::failed("client work failed"))
/// });
/// assert!(result.is_err());
/// assert_eq!(ledger.total()?, 5); // the charge stands
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Ledger {
    rt: Runtime,
    ledger: ObjectId,
}

impl Ledger {
    /// Creates an empty ledger.
    ///
    /// # Errors
    ///
    /// Codec failures (never occur for the empty state).
    pub fn create(rt: &Runtime) -> Result<Self, ActionError> {
        let ledger = rt.create_object(&LedgerState::default())?;
        Ok(Ledger {
            rt: rt.clone(),
            ledger,
        })
    }

    /// Records a charge from inside a client action, as a synchronous
    /// independent action: the charge is permanent immediately and is
    /// *not* recovered if the client aborts.
    ///
    /// # Errors
    ///
    /// Lock or codec failures from the ledger update.
    pub fn charge_from(
        &self,
        scope: &mut ActionScope<'_>,
        account: &str,
        resource: &str,
        amount: u64,
    ) -> Result<(), ActionError> {
        let ledger = self.ledger;
        let charge = Charge {
            account: account.to_owned(),
            resource: resource.to_owned(),
            amount,
        };
        independent_sync(scope, move |b| {
            b.modify(ledger, |state: &mut LedgerState| {
                state.total += charge.amount;
                state.charges.push(charge);
            })
        })
    }

    /// Runs `service` inside the client's action, charging `cost`
    /// *whether or not the service body succeeds* — metering covers
    /// resource consumption, not outcomes.
    ///
    /// # Errors
    ///
    /// The service body's error (the charge stands either way), or
    /// ledger failures.
    pub fn metered<R>(
        &self,
        scope: &mut ActionScope<'_>,
        account: &str,
        resource: &str,
        cost: u64,
        service: impl FnOnce(&mut ActionScope<'_>) -> Result<R, ActionError>,
    ) -> Result<R, ActionError> {
        self.charge_from(scope, account, resource, cost)?;
        scope.nested(service)
    }

    /// Returns the sum of all charges.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn total(&self) -> Result<u64, ActionError> {
        let ledger = self.ledger;
        self.rt
            .atomic(|a| a.read::<LedgerState>(ledger))
            .map(|s| s.total)
    }

    /// Returns all recorded charges.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn charges(&self) -> Result<Vec<Charge>, ActionError> {
        let ledger = self.ledger;
        self.rt
            .atomic(|a| a.read::<LedgerState>(ledger))
            .map(|s| s.charges)
    }

    /// Settles the ledger: folds the itemised charges into the running
    /// total (which they already contribute to) and clears the list,
    /// keeping ledger state bounded under sustained charging. Returns
    /// the number of charges folded.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn settle(&self) -> Result<usize, ActionError> {
        let ledger = self.ledger;
        self.rt.atomic(|a| {
            a.modify(ledger, |state: &mut LedgerState| {
                let folded = state.charges.len();
                state.charges.clear();
                folded
            })
        })
    }

    /// Returns the total charged to one account.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn account_total(&self, account: &str) -> Result<u64, ActionError> {
        Ok(self
            .charges()?
            .iter()
            .filter(|c| c.account == account)
            .map(|c| c.amount)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_types_keep_their_bytes() {
        let charge = Charge {
            account: "ada".into(),
            resource: "cpu".into(),
            amount: 5,
        };
        crate::assert_stored_bytes(
            &charge,
            "030000000000000061646103000000000000006370750500000000000000",
        );
        crate::assert_stored_bytes(
            &LedgerState {
                charges: vec![charge],
                total: 5,
            },
            "01000000000000000300000000000000616461030000000000000063707505000000000000000500000000000000",
        );
    }

    #[test]
    fn charges_survive_client_abort() {
        let rt = Runtime::builder().build();
        let ledger = Ledger::create(&rt).unwrap();
        let result: Result<(), ActionError> = rt.atomic(|a| {
            ledger.charge_from(a, "ada", "compile", 3)?;
            Err(ActionError::failed("client aborts"))
        });
        assert!(result.is_err());
        assert_eq!(ledger.total().unwrap(), 3);
    }

    #[test]
    fn metered_service_charges_even_on_failure() {
        let rt = Runtime::builder().build();
        let ledger = Ledger::create(&rt).unwrap();
        let work = rt.create_object(&0u32).unwrap();
        let result: Result<(), ActionError> = rt.atomic(|a| {
            ledger.metered(a, "bob", "render", 7, |s| {
                s.write(work, &99u32)?;
                Err::<(), _>(ActionError::failed("render crashed"))
            })
        });
        assert!(result.is_err());
        assert_eq!(ledger.total().unwrap(), 7); // charged
        assert_eq!(rt.read_committed::<u32>(work).unwrap(), 0); // work undone
    }

    #[test]
    fn metered_service_success_keeps_both() {
        let rt = Runtime::builder().build();
        let ledger = Ledger::create(&rt).unwrap();
        let work = rt.create_object(&0u32).unwrap();
        rt.atomic(|a| ledger.metered(a, "bob", "render", 7, |s| s.write(work, &42u32)))
            .unwrap();
        assert_eq!(ledger.total().unwrap(), 7);
        assert_eq!(rt.read_committed::<u32>(work).unwrap(), 42);
    }

    #[test]
    fn per_account_totals() {
        let rt = Runtime::builder().build();
        let ledger = Ledger::create(&rt).unwrap();
        rt.atomic(|a| {
            ledger.charge_from(a, "ada", "cpu", 5)?;
            ledger.charge_from(a, "bob", "cpu", 2)?;
            ledger.charge_from(a, "ada", "disk", 1)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(ledger.account_total("ada").unwrap(), 6);
        assert_eq!(ledger.account_total("bob").unwrap(), 2);
        assert_eq!(ledger.charges().unwrap().len(), 3);
    }

    #[test]
    fn settle_keeps_total_and_clears_items() {
        let rt = Runtime::builder().build();
        let ledger = Ledger::create(&rt).unwrap();
        rt.atomic(|a| {
            ledger.charge_from(a, "ada", "cpu", 5)?;
            ledger.charge_from(a, "bob", "cpu", 2)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(ledger.settle().unwrap(), 2);
        assert_eq!(ledger.total().unwrap(), 7); // total survives
        assert!(ledger.charges().unwrap().is_empty());
        assert_eq!(ledger.settle().unwrap(), 0); // idempotent when empty
                                                 // Post-settlement charges accumulate afresh.
        rt.atomic(|a| ledger.charge_from(a, "ada", "disk", 1))
            .unwrap();
        assert_eq!(ledger.total().unwrap(), 8);
        assert_eq!(ledger.charges().unwrap().len(), 1);
    }

    #[test]
    fn concurrent_charges_serialize() {
        let rt = Runtime::builder().build();
        let ledger = Ledger::create(&rt).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let rt = rt.clone();
                let ledger = ledger.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        rt.atomic(|a| ledger.charge_from(a, "x", "op", 1)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ledger.total().unwrap(), 40);
    }
}
