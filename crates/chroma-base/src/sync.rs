//! Small helpers the sharded chroma structures share: the id → shard
//! hash and the [`Sharded`] container it indexes, a map hasher for ids
//! the program allocates, cache-line padding for shards, and an
//! append-only list readers walk without a lock.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::OnceLock;

/// 2⁶⁴ / φ, the Fibonacci hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard of the id `raw` among `1 << bits` shards.
///
/// Fibonacci hashing: multiply by 2⁶⁴/φ and keep the top `bits` bits,
/// so sequential ids (actions, objects) scatter evenly. With `bits`
/// 0 every id maps to shard 0.
///
/// # Examples
///
/// ```
/// use chroma_base::shard_index;
///
/// assert_eq!(shard_index(7, 0), 0);
/// assert!((0..100).all(|id| shard_index(id, 4) < 16));
/// assert_ne!(shard_index(1, 4), shard_index(2, 4));
/// ```
#[must_use]
pub const fn shard_index(raw: u64, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (raw.wrapping_mul(FIB) >> (64 - bits)) as usize
    }
}

/// A `HashMap` keyed by ids the program allocates itself (action ids),
/// hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A map hasher for ids the program allocates itself: one rotate, xor
/// and multiply per word (FxHash's), where the default SipHash costs
/// tens of nanoseconds per lookup. It offers no protection against keys
/// crafted to collide, so it must not hash keys that arrive from outside
/// the program. Its multiplier differs from [`shard_index`]'s, so the
/// keys of one shard still spread over the map's buckets.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A value on cache lines of its own (128 bytes: two 64-byte lines, as
/// adjacent-line prefetchers pull pairs), so two threads working on two
/// neighbouring shards never write a line they share.
#[derive(Default, Debug)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Shards per [`Sharded`] value (a power of two).
pub const SHARDS: usize = 16;

/// The [`Sharded`] shard of the id `raw`.
#[must_use]
pub const fn shard_of(raw: u64) -> usize {
    shard_index(raw, SHARDS.trailing_zeros())
}

/// [`SHARDS`] values of `T` (each typically a lock around a map), one
/// per id hash ([`shard_of`]), each on cache lines of its own.
pub struct Sharded<T> {
    shards: Box<[CachePadded<T>]>,
}

impl<T> Sharded<T> {
    /// Shard `i` made by `make(i)`.
    pub fn new(make: impl FnMut(usize) -> T) -> Self {
        Sharded {
            shards: (0..SHARDS).map(make).map(CachePadded).collect(),
        }
    }

    /// The shard of the raw id `raw`.
    pub fn of(&self, raw: u64) -> &T {
        self.at(shard_of(raw))
    }

    /// The shard at `index`.
    pub fn at(&self, index: usize) -> &T {
        &self.shards[index].0
    }

    /// Every shard, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.shards.iter().map(|shard| &shard.0)
    }
}

impl<T: Default> Default for Sharded<T> {
    fn default() -> Self {
        Sharded::new(|_| T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Sharded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An append-only list that readers walk without a lock: each link is
/// written once, and writers race only to fill the tail.
///
/// Elements are never removed, so it suits rare installs (observability
/// handles, interned names) read on a hot path.
///
/// # Examples
///
/// ```
/// use chroma_base::AppendList;
///
/// let list = AppendList::default();
/// list.push(1);
/// assert_eq!(*list.find_or_push(|&v| v == 2, || 2), 2);
/// assert_eq!(*list.find_or_push(|&v| v == 1, || 3), 1);
/// assert_eq!(list.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
/// ```
pub struct AppendList<T> {
    head: OnceLock<Box<Link<T>>>,
}

struct Link<T> {
    value: T,
    next: OnceLock<Box<Link<T>>>,
}

impl<T> Default for AppendList<T> {
    fn default() -> Self {
        AppendList {
            head: OnceLock::new(),
        }
    }
}

impl<T> AppendList<T> {
    /// Iterates the elements in append order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        std::iter::successors(self.head.get(), |link| link.next.get()).map(|link| &link.value)
    }

    /// Appends `value`.
    pub fn push(&self, value: T) {
        self.find_or_push(|_| false, || value);
    }

    /// The first element matching `same`, else `make()` appended. Two
    /// racing calls for one `same` return one element.
    pub fn find_or_push(&self, same: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> &T {
        let mut tail = &self.head;
        let mut make = Some(make);
        let mut link = None;
        loop {
            if let Some(present) = tail.get() {
                if same(&present.value) {
                    return &present.value;
                }
                tail = &present.next;
                continue;
            }
            let new = link.take().unwrap_or_else(|| {
                Box::new(Link {
                    value: make.take().expect("made at most once")(),
                    next: OnceLock::new(),
                })
            });
            match tail.set(new) {
                Ok(()) => return &tail.get().expect("just set").value,
                // Another writer filled the tail first: check it.
                Err(back) => link = Some(back),
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for AppendList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_matches_the_top_bits_of_the_product() {
        for raw in [0u64, 1, 2, 63, 1 << 40, u64::MAX] {
            for bits in 1..=6 {
                let expected = (raw.wrapping_mul(FIB) >> (64 - bits)) as usize;
                assert_eq!(shard_index(raw, bits), expected);
                assert!(shard_index(raw, bits) < 1 << bits);
            }
        }
    }

    #[test]
    fn id_hasher_spreads_one_shards_sequential_ids() {
        use std::hash::BuildHasher;
        // The ids one of 16 shards holds, as the action tree sees them.
        let ids: Vec<u64> = (1..200_000).filter(|&id| shard_index(id, 4) == 3).collect();
        let build = BuildHasherDefault::<IdHasher>::default();
        let hashes: Vec<u64> = ids.iter().map(|id| build.hash_one(id)).collect();
        // Low bits pick the bucket, the top 7 bits are the map's tag:
        // both take every value.
        let mut low = [0usize; 256];
        let mut top = [0usize; 128];
        for h in &hashes {
            low[(h & 255) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        let even = ids.len() / 256;
        assert!(low.iter().all(|&n| n > even / 2 && n < even * 2), "{low:?}");
        let even = ids.len() / 128;
        assert!(top.iter().all(|&n| n > even / 2 && n < even * 2), "{top:?}");
    }

    #[test]
    fn racing_pushes_of_one_key_keep_one_element() {
        let list = AppendList::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for key in 0..50u32 {
                        assert_eq!(*list.find_or_push(|&v| v == key, || key), key);
                    }
                });
            }
        });
        assert_eq!(
            list.iter().copied().collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
    }
}
