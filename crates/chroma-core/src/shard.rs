//! Per-id sharding for the runtime's bookkeeping: a fixed number of
//! locks, each on its own cache lines, picked by the id's hash.

use std::fmt;

use chroma_base::{shard_index, CachePadded};

/// Shards per map (a power of two).
const SHARDS: usize = 16;

/// `SHARDS` values of `T` (each typically a lock around a map), one per
/// id hash, each on cache lines of its own.
pub(crate) struct Sharded<T> {
    shards: Box<[CachePadded<T>]>,
}

impl<T: Default> Default for Sharded<T> {
    fn default() -> Self {
        Sharded {
            shards: (0..SHARDS).map(|_| CachePadded::default()).collect(),
        }
    }
}

/// The shard index of the raw id `raw`.
pub(crate) fn index(raw: u64) -> usize {
    shard_index(raw, SHARDS.trailing_zeros())
}

impl<T> Sharded<T> {
    /// The shard of the raw id `raw`.
    pub(crate) fn of(&self, raw: u64) -> &T {
        self.at(index(raw))
    }

    /// The shard at `index`.
    pub(crate) fn at(&self, index: usize) -> &T {
        &self.shards[index].0
    }

    /// Every shard, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.shards.iter().map(|shard| &shard.0)
    }
}

impl<T: fmt::Debug> fmt::Debug for Sharded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
