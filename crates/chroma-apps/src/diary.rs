//! Arranging a meeting (§4 v, fig. 9): glued actions over personal
//! diaries.
//!
//! "Glued actions are useful in structuring such applications, since
//! locks on diary entries can be passed from one top-level action to
//! the other. … Each Ii is a top-level action, so its results survive
//! crashes; at the same time meeting slots not found acceptable are
//! released (and not handed over to Ii+1) thereby ensuring that entries
//! in diaries are not unnecessarily kept locked."
//!
//! Each participant owns a [`Diary`] whose slots are *individually
//! lockable* persistent objects. Scheduling proceeds in rounds: round
//! *i* consults participant *i*'s diary, intersects their free slots
//! with the candidates handed over by the previous round, hands the
//! survivors (in every consulted diary) to the next round, and lets the
//! rejected slots go free immediately. The final round books the chosen
//! slot in all diaries.

use chroma_core::{ActionError, ObjectId, Runtime};
use chroma_store::stored;
use chroma_structures::GluedChain;

stored! {
    /// One diary slot: free or holding an appointment.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Slot {
        /// The appointment text, if booked.
        pub appointment: Option<String>,
    }
}

/// A personal diary: one individually lockable object per time slot.
#[derive(Clone, Debug)]
pub struct Diary {
    /// The owner's name.
    pub owner: String,
    slots: Vec<ObjectId>,
}

impl Diary {
    /// Creates a diary with `slot_count` free slots.
    ///
    /// # Errors
    ///
    /// Codec failures creating slot objects.
    pub fn create(rt: &Runtime, owner: &str, slot_count: usize) -> Result<Self, ActionError> {
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            slots.push(rt.create_object(&Slot::default())?);
        }
        Ok(Diary {
            owner: owner.to_owned(),
            slots,
        })
    }

    /// Returns the number of slots.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Returns the object id of slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn slot(&self, index: usize) -> ObjectId {
        self.slots[index]
    }

    /// Books an appointment directly (a top-level atomic action), e.g.
    /// to pre-populate diaries.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn book(&self, rt: &Runtime, index: usize, text: &str) -> Result<(), ActionError> {
        let slot = self.slot(index);
        let text = text.to_owned();
        rt.atomic(move |a| a.modify(slot, |s: &mut Slot| s.appointment = Some(text)))
    }

    /// Reads the committed state of slot `index`.
    ///
    /// # Errors
    ///
    /// Codec failures.
    pub fn slot_state(&self, rt: &Runtime, index: usize) -> Result<Slot, ActionError> {
        rt.read_committed(self.slot(index))
    }
}

/// The outcome of a scheduling run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleOutcome {
    /// A slot was found and booked in every diary.
    Booked {
        /// The chosen slot index.
        slot: usize,
    },
    /// No slot suits everyone; nothing was booked.
    NoSlot,
}

/// Schedules `title` across `diaries` using a glued chain (fig. 9).
///
/// Round *i* (`i = 1..n`) reads participant *i*'s candidate slots,
/// narrows the candidate set, and hands the surviving slot objects (of
/// all consulted diaries) to the next round; a final round books the
/// earliest surviving slot everywhere. Rejected slots are released
/// mid-chain, not held to the end.
///
/// Every round is top-level for permanence, so a crash between rounds
/// loses no completed negotiation state (the booked appointments of the
/// final round are all-or-nothing, since they are written by the one
/// final step).
///
/// # Errors
///
/// Lock or codec failures; capacity errors if `diaries` outgrows the
/// chain (it cannot — capacity is sized from the input).
pub fn schedule_meeting(
    rt: &Runtime,
    diaries: &[Diary],
    title: &str,
) -> Result<ScheduleOutcome, ActionError> {
    if diaries.is_empty() {
        return Ok(ScheduleOutcome::NoSlot);
    }
    let slot_count = diaries.iter().map(Diary::slot_count).min().unwrap_or(0);
    let chain = GluedChain::begin(rt, diaries.len() + 1)?;
    let mut candidates: Vec<usize> = (0..slot_count).collect();

    for (round, diary) in diaries.iter().enumerate() {
        let consulted = &diaries[..=round];
        let surviving = chain.step(|s| {
            // Read this participant's candidate slots and narrow.
            let mut surviving = Vec::new();
            for &slot_index in &candidates {
                let slot: Slot = s.read(diary.slot(slot_index))?;
                if slot.appointment.is_none() {
                    surviving.push(slot_index);
                }
            }
            // Hand over the survivors in *every* consulted diary, so no
            // one can grab them between rounds; rejected slots are not
            // handed over and become free when this round's gap closes.
            for d in consulted {
                for &slot_index in &surviving {
                    s.hand_over(d.slot(slot_index))?;
                }
            }
            Ok(surviving)
        })?;
        candidates = surviving;
        if candidates.is_empty() {
            chain.end()?;
            return Ok(ScheduleOutcome::NoSlot);
        }
    }

    // Final round: book the earliest surviving slot in every diary.
    let chosen = candidates[0];
    chain.step(|s| {
        for diary in diaries {
            let object = diary.slot(chosen);
            s.modify(object, |slot: &mut Slot| {
                slot.appointment = Some(title.to_owned());
            })?;
        }
        Ok(())
    })?;
    chain.end()?;
    Ok(ScheduleOutcome::Booked { slot: chosen })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chroma_core::RuntimeConfig;
    use std::time::Duration;

    fn rt_fast() -> Runtime {
        Runtime::builder()
            .config(RuntimeConfig {
                lock_timeout: Some(Duration::from_millis(300)),
            })
            .build()
    }

    #[test]
    fn slots_keep_their_bytes() {
        crate::assert_stored_bytes(
            &Slot {
                appointment: Some("lunch".into()),
            },
            "0105000000000000006c756e6368",
        );
        crate::assert_stored_bytes(&Slot::default(), "00");
    }

    #[test]
    fn finds_the_common_free_slot() {
        let rt = Runtime::builder().build();
        let a = Diary::create(&rt, "ada", 4).unwrap();
        let b = Diary::create(&rt, "bob", 4).unwrap();
        let c = Diary::create(&rt, "cleo", 4).unwrap();
        a.book(&rt, 0, "dentist").unwrap();
        b.book(&rt, 1, "gym").unwrap();
        c.book(&rt, 0, "call").unwrap();
        let outcome = schedule_meeting(&rt, &[a.clone(), b.clone(), c.clone()], "kickoff").unwrap();
        assert_eq!(outcome, ScheduleOutcome::Booked { slot: 2 });
        for diary in [&a, &b, &c] {
            assert_eq!(
                diary.slot_state(&rt, 2).unwrap().appointment.as_deref(),
                Some("kickoff")
            );
        }
    }

    #[test]
    fn reports_no_slot_when_calendars_conflict() {
        let rt = Runtime::builder().build();
        let a = Diary::create(&rt, "ada", 2).unwrap();
        let b = Diary::create(&rt, "bob", 2).unwrap();
        a.book(&rt, 0, "x").unwrap();
        b.book(&rt, 1, "y").unwrap();
        a.book(&rt, 1, "z").unwrap();
        let outcome = schedule_meeting(&rt, &[a.clone(), b], "doomed").unwrap();
        assert_eq!(outcome, ScheduleOutcome::NoSlot);
        // Nothing was booked anywhere.
        assert_eq!(
            a.slot_state(&rt, 0).unwrap().appointment.as_deref(),
            Some("x")
        );
    }

    #[test]
    fn rejected_slots_are_usable_mid_negotiation() {
        let rt = rt_fast();
        let a = Diary::create(&rt, "ada", 3).unwrap();
        let b = Diary::create(&rt, "bob", 3).unwrap();
        b.book(&rt, 2, "busy").unwrap();

        // Drive the chain manually to observe the mid-chain state.
        let chain = GluedChain::begin(&rt, 3).unwrap();
        // Round 1 (ada): all three slots free, hand over all.
        chain
            .step(|s| {
                for i in 0..3 {
                    let slot: Slot = s.read(a.slot(i))?;
                    assert!(slot.appointment.is_none());
                    s.hand_over(a.slot(i))?;
                }
                Ok(())
            })
            .unwrap();
        // Round 2 (bob): slot 2 is busy -> survivors {0, 1}.
        chain
            .step(|s| {
                for i in 0..2 {
                    s.hand_over(a.slot(i))?;
                    s.hand_over(b.slot(i))?;
                }
                let _: Slot = s.read(b.slot(2))?;
                Ok(())
            })
            .unwrap();
        // Ada's slot 2 was rejected: someone else can book it NOW,
        // while the negotiation continues.
        a.book(&rt, 2, "walk-in").unwrap();
        // Slot 0 is still fenced.
        assert!(a.book(&rt, 0, "intruder").is_err());
        chain.end().unwrap();
    }

    #[test]
    fn single_participant_books_first_free_slot() {
        let rt = Runtime::builder().build();
        let a = Diary::create(&rt, "solo", 2).unwrap();
        let outcome = schedule_meeting(&rt, std::slice::from_ref(&a), "standup").unwrap();
        assert_eq!(outcome, ScheduleOutcome::Booked { slot: 0 });
        assert_eq!(
            a.slot_state(&rt, 0).unwrap().appointment.as_deref(),
            Some("standup")
        );
    }

    #[test]
    fn no_participants_is_a_no_op() {
        let rt = Runtime::builder().build();
        assert_eq!(
            schedule_meeting(&rt, &[], "ghost").unwrap(),
            ScheduleOutcome::NoSlot
        );
    }

    #[test]
    fn booking_is_atomic_across_diaries() {
        // The final round writes every diary in one step: all-or-none.
        let rt = rt_fast();
        let a = Diary::create(&rt, "ada", 2).unwrap();
        let b = Diary::create(&rt, "bob", 2).unwrap();
        let outcome = schedule_meeting(&rt, &[a.clone(), b.clone()], "sync").unwrap();
        let ScheduleOutcome::Booked { slot } = outcome else {
            panic!("expected booking");
        };
        let a_booked = a.slot_state(&rt, slot).unwrap().appointment.is_some();
        let b_booked = b.slot_state(&rt, slot).unwrap().appointment.is_some();
        assert_eq!(a_booked, b_booked);
        assert!(a_booked);
    }
}
