//! Colours, colour sets and the colour universe.
//!
//! A *colour* is an attribute statically assigned to an action (paper §5).
//! Actions may possess several colours; locks are acquired *in* one of the
//! requesting action's colours. The colour machinery is deliberately
//! cheap: a [`Colour`] is a small index and a [`ColourSet`] is a 64-bit
//! bitset, so colour tests on the locking fast path are single
//! instructions.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use parking_lot::Mutex;

use crate::error::ColourError;
use crate::sync::{AppendList, CachePadded};

/// Maximum number of colours that may be live simultaneously in one
/// [`ColourUniverse`].
pub const MAX_LIVE_COLOURS: usize = 64;

/// A colour: the attribute the paper assigns to actions to relax atomicity
/// boundaries selectively.
///
/// Colours are created by (and scoped to) a [`ColourUniverse`]; comparing
/// colours from different universes is meaningless but harmless.
///
/// # Examples
///
/// ```
/// use chroma_base::ColourUniverse;
///
/// let universe = ColourUniverse::new();
/// let red = universe.colour("red");
/// assert_eq!(universe.colour("red"), red); // interned by name
/// assert_eq!(universe.name(red), "red");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Colour(u8);

impl Colour {
    /// Returns the slot index of this colour inside its universe.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a colour from a raw slot index.
    ///
    /// Intended for serialisation layers; the index must come from
    /// [`Colour::index`] on the same universe.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_LIVE_COLOURS`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(
            index < MAX_LIVE_COLOURS,
            "colour index {index} out of range (max {MAX_LIVE_COLOURS})"
        );
        Colour(index as u8)
    }
}

impl fmt::Display for Colour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A set of colours, stored as a 64-bit bitset.
///
/// `ColourSet` is the type of an action's colour assignment. It is `Copy`
/// and all operations are O(1).
///
/// # Examples
///
/// ```
/// use chroma_base::{ColourSet, ColourUniverse};
///
/// let u = ColourUniverse::new();
/// let (red, blue) = (u.colour("red"), u.colour("blue"));
/// let set = ColourSet::from_iter([red, blue]);
/// assert!(set.contains(red));
/// assert!(set.intersects(ColourSet::single(blue)));
/// assert_eq!(set.minus(ColourSet::single(red)), ColourSet::single(blue));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ColourSet(u64);

impl ColourSet {
    /// The empty colour set.
    pub const EMPTY: ColourSet = ColourSet(0);

    /// Creates an empty colour set.
    #[must_use]
    pub const fn new() -> Self {
        ColourSet(0)
    }

    /// Creates a set containing exactly one colour.
    #[must_use]
    pub const fn single(colour: Colour) -> Self {
        ColourSet(1 << colour.0)
    }

    /// Returns `true` if the set contains `colour`.
    #[must_use]
    pub const fn contains(self, colour: Colour) -> bool {
        self.0 & (1 << colour.0) != 0
    }

    /// Returns the set with `colour` added.
    #[must_use]
    pub const fn with(self, colour: Colour) -> Self {
        ColourSet(self.0 | (1 << colour.0))
    }

    /// Returns the set with `colour` removed.
    #[must_use]
    pub const fn without(self, colour: Colour) -> Self {
        ColourSet(self.0 & !(1 << colour.0))
    }

    /// Returns the union of the two sets.
    #[must_use]
    pub const fn union(self, other: ColourSet) -> Self {
        ColourSet(self.0 | other.0)
    }

    /// Returns the intersection of the two sets.
    #[must_use]
    pub const fn intersection(self, other: ColourSet) -> Self {
        ColourSet(self.0 & other.0)
    }

    /// Returns the colours in `self` that are not in `other`.
    #[must_use]
    pub const fn minus(self, other: ColourSet) -> Self {
        ColourSet(self.0 & !other.0)
    }

    /// Returns `true` if the two sets share at least one colour.
    #[must_use]
    pub const fn intersects(self, other: ColourSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `true` if every colour of `self` is in `other`.
    #[must_use]
    pub const fn is_subset_of(self, other: ColourSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Returns `true` if the set contains no colours.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns the number of colours in the set.
    #[must_use]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the colours in the set, in increasing index order.
    #[must_use]
    pub fn iter(self) -> ColourSetIter {
        ColourSetIter(self.0)
    }
}

impl FromIterator<Colour> for ColourSet {
    fn from_iter<I: IntoIterator<Item = Colour>>(iter: I) -> Self {
        iter.into_iter()
            .fold(ColourSet::EMPTY, |set, colour| set.with(colour))
    }
}

impl Extend<Colour> for ColourSet {
    fn extend<I: IntoIterator<Item = Colour>>(&mut self, iter: I) {
        for colour in iter {
            *self = self.with(colour);
        }
    }
}

impl From<Colour> for ColourSet {
    fn from(colour: Colour) -> Self {
        ColourSet::single(colour)
    }
}

impl IntoIterator for ColourSet {
    type Item = Colour;
    type IntoIter = ColourSetIter;

    fn into_iter(self) -> ColourSetIter {
        self.iter()
    }
}

impl fmt::Debug for ColourSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ColourSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for colour in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{colour}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over the colours of a [`ColourSet`], produced by
/// [`ColourSet::iter`].
#[derive(Clone, Debug)]
pub struct ColourSetIter(u64);

impl Iterator for ColourSetIter {
    type Item = Colour;

    fn next(&mut self) -> Option<Colour> {
        if self.0 == 0 {
            return None;
        }
        let index = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(Colour(index))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ColourSetIter {}

/// The shared state of a [`ColourUniverse`].
struct UniverseState {
    /// Bit *i* set: slot *i* is live. `fresh` and `release` claim and
    /// clear bits here, with no lock.
    live: CachePadded<AtomicU64>,
    /// Per slot: the serial of the named interning that claimed it, or
    /// 0 for an anonymous (or free) slot.
    keys: [AtomicU64; MAX_LIVE_COLOURS],
    /// Every named interning ever made, as `(serial, name)`; a slot's
    /// name is the entry its key points at.
    names: AppendList<(u64, String)>,
    /// Serialises named interning (so racing `colour("x")` calls agree)
    /// and holds the last serial handed out.
    interning: Mutex<u64>,
}

/// The names of anonymous colours, by slot.
static ANON_NAMES: LazyLock<[String; MAX_LIVE_COLOURS]> =
    LazyLock::new(|| std::array::from_fn(|i| format!("#anon-{i}")));

/// The registry of colours for one runtime.
///
/// Colours are interned by name: asking twice for `"red"` yields the same
/// [`Colour`]. Anonymous colours (used by the automatic colour-assignment
/// compiler for independence boundaries) are allocated with
/// [`ColourUniverse::fresh`] and may be recycled with
/// [`ColourUniverse::release`] once no live action uses them, keeping
/// long-running systems inside the 64-live-colour budget.
///
/// Liveness is one atomic 64-bit mask: `fresh` and `release` claim and
/// clear its bits without a lock, and name lookups take none either.
/// Only interning a *named* colour locks.
///
/// The universe is cheap to clone; clones share the same registry.
///
/// # Examples
///
/// ```
/// use chroma_base::ColourUniverse;
///
/// let u = ColourUniverse::new();
/// let red = u.colour("red");
/// let anon = u.fresh().unwrap();
/// assert_ne!(red, anon);
/// u.release(anon);
/// ```
#[derive(Clone)]
pub struct ColourUniverse {
    state: Arc<UniverseState>,
}

impl Default for ColourUniverse {
    fn default() -> Self {
        ColourUniverse {
            state: Arc::new(UniverseState {
                live: CachePadded(AtomicU64::new(0)),
                keys: std::array::from_fn(|_| AtomicU64::new(0)),
                names: AppendList::default(),
                interning: Mutex::new(0),
            }),
        }
    }
}

impl ColourUniverse {
    /// Creates an empty universe.
    #[must_use]
    pub fn new() -> Self {
        ColourUniverse::default()
    }

    /// Returns the colour interned under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the universe already holds [`MAX_LIVE_COLOURS`] live
    /// colours; use [`ColourUniverse::try_colour`] to handle exhaustion.
    #[must_use]
    pub fn colour(&self, name: &str) -> Colour {
        self.try_colour(name)
            .expect("colour universe exhausted (64 live colours)")
    }

    /// Returns the colour interned under `name`, creating it on first use.
    ///
    /// # Errors
    ///
    /// Returns [`ColourError::Exhausted`] if the universe already holds
    /// [`MAX_LIVE_COLOURS`] live colours.
    pub fn try_colour(&self, name: &str) -> Result<Colour, ColourError> {
        let state = &*self.state;
        let mut serial = state.interning.lock();
        let live = state.live.load(Ordering::Acquire);
        if let Some(colour) = ColourSet(live)
            .iter()
            .find(|&c| state.named(c).is_some_and(|(_, n)| n == name))
        {
            return Ok(colour);
        }
        let colour = self.claim()?;
        *serial += 1;
        // The name is in the list before the key points at it (the
        // key's Release pairs with the Acquire load in `named`).
        state.names.push((*serial, name.to_owned()));
        state.keys[colour.index()].store(*serial, Ordering::Release);
        Ok(colour)
    }

    /// Allocates a fresh anonymous colour.
    ///
    /// # Errors
    ///
    /// Returns [`ColourError::Exhausted`] if the universe already holds
    /// [`MAX_LIVE_COLOURS`] live colours.
    pub fn fresh(&self) -> Result<Colour, ColourError> {
        self.claim()
    }

    /// Releases a colour back to the universe so its slot can be reused.
    ///
    /// Callers must ensure no live action still possesses the colour; the
    /// chroma runtime does this automatically for compiler-allocated
    /// colours.
    pub fn release(&self, colour: Colour) {
        let key = &self.state.keys[colour.index()];
        // An anonymous slot's key is already 0: leave its line clean.
        if key.load(Ordering::Relaxed) != 0 {
            key.store(0, Ordering::Relaxed);
        }
        // Release pairs with `claim`'s Acquire: the next claimer of the
        // slot sees its key cleared.
        self.state
            .live
            .fetch_and(!(1u64 << colour.index()), Ordering::Release);
    }

    /// Returns the name under which `colour` was interned.
    ///
    /// Anonymous colours are named `#anon-<slot>`; released slots
    /// report `"<released>"`.
    #[must_use]
    pub fn name(&self, colour: Colour) -> String {
        self.with_name(colour, str::to_owned)
    }

    /// Calls `f` with the name [`ColourUniverse::name`] returns, without
    /// copying it or taking a lock.
    pub fn with_name<R>(&self, colour: Colour, f: impl FnOnce(&str) -> R) -> R {
        let state = &*self.state;
        if state.live.load(Ordering::Acquire) & (1u64 << colour.index()) == 0 {
            return f("<released>");
        }
        f(state
            .named(colour)
            .map_or(ANON_NAMES[colour.index()].as_str(), |(_, name)| name))
    }

    /// Identifies the name `colour` carries now: two reads of one slot
    /// that return the same key saw the same name. Anonymous colours
    /// key 0. Lets callers cache something per name without a lock.
    #[must_use]
    pub fn name_key(&self, colour: Colour) -> u64 {
        self.state.keys[colour.index()].load(Ordering::Acquire)
    }

    /// Returns the number of live colours.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.state.live.load(Ordering::Relaxed).count_ones() as usize
    }

    /// Claims the lowest free slot.
    fn claim(&self) -> Result<Colour, ColourError> {
        let live = &self.state.live;
        let mut seen = live.load(Ordering::Relaxed);
        loop {
            let free = !seen;
            if free == 0 {
                return Err(ColourError::Exhausted);
            }
            let bit = free.trailing_zeros();
            match live.compare_exchange_weak(
                seen,
                seen | (1u64 << bit),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(Colour(bit as u8)),
                Err(now) => seen = now,
            }
        }
    }
}

impl UniverseState {
    /// The `(serial, name)` entry of a named slot; `None` if anonymous.
    fn named(&self, colour: Colour) -> Option<&(u64, String)> {
        let key = self.keys[colour.index()].load(Ordering::Acquire);
        if key == 0 {
            return None;
        }
        self.names.iter().find(|(serial, _)| *serial == key)
    }
}

impl fmt::Debug for ColourUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColourUniverse")
            .field("live", &self.live_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colours_are_interned_by_name() {
        let u = ColourUniverse::new();
        assert_eq!(u.colour("red"), u.colour("red"));
        assert_ne!(u.colour("red"), u.colour("blue"));
    }

    #[test]
    fn names_round_trip() {
        let u = ColourUniverse::new();
        let c = u.colour("magenta");
        assert_eq!(u.name(c), "magenta");
    }

    #[test]
    fn fresh_colours_are_distinct() {
        let u = ColourUniverse::new();
        let a = u.fresh().unwrap();
        let b = u.fresh().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn release_recycles_slots() {
        let u = ColourUniverse::new();
        for _ in 0..MAX_LIVE_COLOURS {
            u.fresh().unwrap();
        }
        assert!(matches!(u.fresh(), Err(ColourError::Exhausted)));
        u.release(Colour::from_index(5));
        let recycled = u.fresh().unwrap();
        assert_eq!(recycled.index(), 5);
    }

    #[test]
    fn universe_exhaustion_is_reported() {
        let u = ColourUniverse::new();
        for i in 0..MAX_LIVE_COLOURS {
            u.try_colour(&format!("c{i}")).unwrap();
        }
        assert_eq!(u.try_colour("one-too-many"), Err(ColourError::Exhausted));
        // Existing names still resolve.
        assert!(u.try_colour("c0").is_ok());
    }

    #[test]
    fn set_operations_behave_like_sets() {
        let u = ColourUniverse::new();
        let (r, g, b) = (u.colour("r"), u.colour("g"), u.colour("b"));
        let rg = ColourSet::from_iter([r, g]);
        let gb = ColourSet::from_iter([g, b]);
        assert_eq!(rg.union(gb).len(), 3);
        assert_eq!(rg.intersection(gb), ColourSet::single(g));
        assert_eq!(rg.minus(gb), ColourSet::single(r));
        assert!(rg.intersects(gb));
        assert!(!rg.minus(gb).intersects(gb));
        assert!(ColourSet::single(g).is_subset_of(rg));
        assert!(!rg.is_subset_of(gb));
    }

    #[test]
    fn set_iteration_is_ordered_and_complete() {
        let set = ColourSet::from_iter([
            Colour::from_index(9),
            Colour::from_index(1),
            Colour::from_index(42),
        ]);
        let indices: Vec<usize> = set.iter().map(Colour::index).collect();
        assert_eq!(indices, vec![1, 9, 42]);
        assert_eq!(set.iter().len(), 3);
    }

    #[test]
    fn empty_set_properties() {
        let set = ColourSet::EMPTY;
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().count(), 0);
        assert!(set.is_subset_of(set));
        assert!(!set.intersects(set));
    }

    #[test]
    fn display_forms() {
        let set = ColourSet::from_iter([Colour::from_index(0), Colour::from_index(3)]);
        assert_eq!(set.to_string(), "{c0,c3}");
        assert_eq!(format!("{:?}", ColourSet::EMPTY), "{}");
    }

    #[test]
    fn extend_and_collect() {
        let mut set = ColourSet::new();
        set.extend([Colour::from_index(2)]);
        assert!(set.contains(Colour::from_index(2)));
        let collected: ColourSet = set.iter().collect();
        assert_eq!(collected, set);
    }
}
