//! Per-action, per-colour before-images.
//!
//! When an action first writes an object under a colour, the object's
//! prior state is recorded here. The record's fate follows the colour's
//! commit path (§5.2):
//!
//! * **abort** — the before-image is restored to volatile storage;
//! * **commit, inner for the colour** — the record transfers to the
//!   closest ancestor possessing the colour (which keeps its own, older,
//!   image if it already has one — exactly mirroring lock inheritance);
//! * **commit, outermost for the colour** — the record identifies the
//!   object as part of the colour's permanence batch, then is dropped.
//!
//! The log is sharded by [`ActionId`], so actions in different shards
//! record and take their images under different locks. An inner
//! commit's transfer touches two actions: it holds both shard locks,
//! taken in index order, so it is atomic against a concurrent
//! [`UndoLog::take_all`] of either.

use std::collections::HashMap;

use chroma_base::{shard_of, ActionId, Colour, IdHashMap, ObjectId, Sharded};
use chroma_store::StoreBytes;
use parking_lot::Mutex;

/// A saved prior state: `None` means the object did not exist before the
/// first write (it was created inside the action), so undo removes it.
pub type BeforeImage = Option<StoreBytes>;

/// Before-images of one action, keyed by object and colour.
type ActionImages = HashMap<(ObjectId, Colour), BeforeImage>;

type Shard = Mutex<IdHashMap<ActionId, ActionImages>>;

/// The undo log: before-images for every active action.
#[derive(Debug, Default)]
pub struct UndoLog {
    records: Sharded<Shard>,
}

/// Removes and returns `action`'s records in `colour`, dropping the
/// action's entry once it is empty.
fn take_colour_from(
    records: &mut IdHashMap<ActionId, ActionImages>,
    action: ActionId,
    colour: Colour,
) -> Vec<((ObjectId, Colour), BeforeImage)> {
    let Some(map) = records.get_mut(&action) else {
        return Vec::new();
    };
    let keys: Vec<(ObjectId, Colour)> = map.keys().filter(|(_, c)| *c == colour).copied().collect();
    let taken = keys
        .into_iter()
        .map(|key| (key, map.remove(&key).expect("key present")))
        .collect();
    if map.is_empty() {
        records.remove(&action);
    }
    taken
}

/// Gives `moved` to `parent`, which keeps its own image where it has
/// one.
fn keep_older(
    records: &mut IdHashMap<ActionId, ActionImages>,
    parent: ActionId,
    moved: Vec<((ObjectId, Colour), BeforeImage)>,
) {
    if moved.is_empty() {
        return;
    }
    let parent_map = records.entry(parent).or_default();
    for (key, image) in moved {
        parent_map.entry(key).or_insert(image);
    }
}

impl UndoLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        UndoLog::default()
    }

    fn shard(&self, action: ActionId) -> &Shard {
        self.records.of(action.as_raw())
    }

    /// Records `prior` as the before-image of `(object, colour)` for
    /// `action`, unless the action already has one (the first image
    /// wins: later writes by the same action must not overwrite it).
    pub fn record_before(
        &self,
        action: ActionId,
        object: ObjectId,
        colour: Colour,
        prior: BeforeImage,
    ) {
        self.shard(action)
            .lock()
            .entry(action)
            .or_default()
            .entry((object, colour))
            .or_insert(prior);
    }

    /// Returns `true` if `action` has a record for `(object, colour)`.
    #[must_use]
    pub fn has_record(&self, action: ActionId, object: ObjectId, colour: Colour) -> bool {
        self.shard(action)
            .lock()
            .get(&action)
            .is_some_and(|m| m.contains_key(&(object, colour)))
    }

    /// Removes and returns the records `action` holds in `colour`
    /// (outermost commit: these identify the permanence batch).
    #[must_use]
    pub fn take_colour(&self, action: ActionId, colour: Colour) -> Vec<(ObjectId, BeforeImage)> {
        let mut taken: Vec<(ObjectId, BeforeImage)> =
            take_colour_from(&mut self.shard(action).lock(), action, colour)
                .into_iter()
                .map(|((object, _), image)| (object, image))
                .collect();
        taken.sort_by_key(|(object, _)| *object);
        taken
    }

    /// Transfers the colour-`colour` records of `child` to `parent`
    /// (inner commit). The parent keeps its own record where both have
    /// one — its image is older, taken before the child ever ran.
    ///
    /// Holds both actions' shard locks, taken in index order.
    pub fn transfer_colour(&self, child: ActionId, colour: Colour, parent: ActionId) {
        let (from, to) = (shard_of(child.as_raw()), shard_of(parent.as_raw()));
        if from == to {
            let mut records = self.records.at(from).lock();
            let moved = take_colour_from(&mut records, child, colour);
            keep_older(&mut records, parent, moved);
            return;
        }
        let mut low = self.records.at(from.min(to)).lock();
        let mut high = self.records.at(from.max(to)).lock();
        let (child_records, parent_records) = if from < to {
            (&mut *low, &mut *high)
        } else {
            (&mut *high, &mut *low)
        };
        let moved = take_colour_from(child_records, child, colour);
        keep_older(parent_records, parent, moved);
    }

    /// Removes and returns every record of `action` (abort), sorted by
    /// object id for deterministic restoration.
    #[must_use]
    pub fn take_all(&self, action: ActionId) -> Vec<(ObjectId, Colour, BeforeImage)> {
        let map = self
            .shard(action)
            .lock()
            .remove(&action)
            .unwrap_or_default();
        let mut taken: Vec<(ObjectId, Colour, BeforeImage)> = map
            .into_iter()
            .map(|((object, colour), image)| (object, colour, image))
            .collect();
        taken.sort_by_key(|&(object, colour, _)| (object, colour));
        taken
    }

    /// Returns the number of records held for `action`.
    #[must_use]
    pub fn record_count(&self, action: ActionId) -> usize {
        self.shard(action)
            .lock()
            .get(&action)
            .map_or(0, HashMap::len)
    }

    /// Drops every record of every action (used by crash simulation: a
    /// crash loses volatile state, and the undo log is volatile).
    pub fn clear(&self) {
        for shard in self.records.iter() {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }
    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }
    fn red() -> Colour {
        Colour::from_index(0)
    }
    fn blue() -> Colour {
        Colour::from_index(1)
    }
    fn img(v: u8) -> BeforeImage {
        Some(StoreBytes::from(vec![v]))
    }

    #[test]
    fn first_image_wins() {
        let log = UndoLog::new();
        log.record_before(a(1), o(1), red(), img(1));
        log.record_before(a(1), o(1), red(), img(2));
        let taken = log.take_colour(a(1), red());
        assert_eq!(taken, vec![(o(1), img(1))]);
    }

    #[test]
    fn take_colour_leaves_other_colours() {
        let log = UndoLog::new();
        log.record_before(a(1), o(1), red(), img(1));
        log.record_before(a(1), o(2), blue(), img(2));
        let taken = log.take_colour(a(1), red());
        assert_eq!(taken.len(), 1);
        assert_eq!(log.record_count(a(1)), 1);
        assert!(log.has_record(a(1), o(2), blue()));
    }

    #[test]
    fn transfer_prefers_parent_image() {
        let log = UndoLog::new();
        log.record_before(a(1), o(1), red(), img(10)); // parent's older image
        log.record_before(a(2), o(1), red(), img(20)); // child's newer image
        log.record_before(a(2), o(2), red(), img(21));
        log.transfer_colour(a(2), red(), a(1));
        assert_eq!(log.record_count(a(2)), 0);
        let taken = log.take_colour(a(1), red());
        assert_eq!(taken, vec![(o(1), img(10)), (o(2), img(21))]);
    }

    #[test]
    fn transfer_across_shards_moves_every_record() {
        let parent = a(1);
        let home = shard_of(parent.as_raw());
        // A child in another shard, either side of the parent's index,
        // and one in the same shard.
        let find = |wanted: fn(usize, usize) -> bool| {
            (2..1000)
                .map(a)
                .find(|c| wanted(shard_of(c.as_raw()), home))
        };
        let (above, below) = (find(|i, h| i > h), find(|i, h| i < h));
        assert!(above.is_some() || below.is_some());
        let same = find(|i, h| i == h);
        for child in [above, below, same].into_iter().flatten() {
            let log = UndoLog::new();
            log.record_before(parent, o(1), red(), img(10));
            for n in 1..=20 {
                log.record_before(child, o(n), red(), img(100 + n as u8));
            }
            log.record_before(child, o(1), blue(), img(7));
            log.transfer_colour(child, red(), parent);
            // The blue record stays with the child.
            assert_eq!(log.record_count(child), 1);
            assert!(log.has_record(child, o(1), blue()));
            let taken = log.take_colour(parent, red());
            assert_eq!(taken.len(), 20);
            assert_eq!(taken[0], (o(1), img(10)), "the parent's older image wins");
            for (n, (object, image)) in taken.iter().enumerate().skip(1) {
                assert_eq!((*object, image), (o(n as u64 + 1), &img(101 + n as u8)));
            }
            assert_eq!(log.record_count(parent), 0);
        }
    }

    #[test]
    fn take_all_returns_everything_sorted() {
        let log = UndoLog::new();
        log.record_before(a(1), o(2), red(), img(2));
        log.record_before(a(1), o(1), blue(), None);
        let taken = log.take_all(a(1));
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].0, o(1));
        assert_eq!(taken[0].2, None);
        assert_eq!(log.record_count(a(1)), 0);
    }

    #[test]
    fn clear_drops_all() {
        let log = UndoLog::new();
        log.record_before(a(1), o(1), red(), img(1));
        log.record_before(a(2), o(2), red(), img(2));
        log.clear();
        assert_eq!(log.record_count(a(1)), 0);
        assert_eq!(log.record_count(a(2)), 0);
    }
}
