//! The paper's directory example: per-entry lockable directories.

use std::marker::PhantomData;

use chroma_core::{ActionError, ActionScope, ObjectId, Runtime};
use chroma_store::codec::{self, Stored};

/// One bucket's persisted form: association list of key → encoded value.
type Bucket = Vec<(String, Vec<u8>)>;

/// A persistent directory whose entries are individually lockable, so
/// operations on different keys do not conflict.
///
/// This is the §2 example verbatim: *"for a directory object, reading
/// and deleting different entries can be permitted to take place
/// simultaneously."* The semantic knowledge — that directory operations
/// on distinct keys commute — is encoded by spreading entries over
/// `buckets` separate persistent objects; each operation locks only its
/// key's bucket. Keys hashing to the same bucket still serialize
/// (granularity is the bucket), so size `buckets` for the concurrency
/// you need.
///
/// # Examples
///
/// ```
/// use chroma_core::Runtime;
/// use chroma_typed::KeyedDirectory;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let rt = Runtime::builder().build();
/// let dir: KeyedDirectory<String> = KeyedDirectory::create(&rt, 8)?;
/// rt.atomic(|a| dir.insert(a, "printer", &"room 3".to_owned()))?;
/// assert_eq!(
///     rt.atomic(|a| dir.lookup(a, "printer"))?,
///     Some("room 3".to_owned())
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KeyedDirectory<V> {
    buckets: Vec<ObjectId>,
    _value: PhantomData<fn() -> V>,
}

impl<V: Stored> KeyedDirectory<V> {
    /// Creates an empty directory spread over `buckets` lockable parts.
    ///
    /// # Errors
    ///
    /// Backend or codec failures creating the bucket objects.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn create(rt: &Runtime, buckets: usize) -> Result<Self, ActionError> {
        assert!(buckets > 0, "a directory needs at least one bucket");
        let mut objects = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            objects.push(rt.create_object::<Bucket>(&Vec::new())?);
        }
        Ok(KeyedDirectory {
            buckets: objects,
            _value: PhantomData,
        })
    }

    /// Returns the number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, key: &str) -> ObjectId {
        // FNV-1a over the key bytes: stable, dependency-free.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.buckets[(hash as usize) % self.buckets.len()]
    }

    /// Binds `key` to `value`, returning the previous value if any.
    /// Write-locks only the key's bucket.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn insert(
        &self,
        scope: &ActionScope<'_>,
        key: &str,
        value: &V,
    ) -> Result<Option<V>, ActionError> {
        let encoded = codec::to_bytes(value)?;
        let bucket = self.bucket_of(key);
        let previous = scope.modify_in(
            scope.default_colour(),
            bucket,
            |entries: &mut Bucket| match entries.iter_mut().find(|(k, _)| k == key) {
                Some((_, existing)) => Some(std::mem::replace(existing, encoded)),
                None => {
                    entries.push((key.to_owned(), encoded));
                    None
                }
            },
        )?;
        Ok(previous
            .map(|bytes| codec::from_bytes(&bytes))
            .transpose()?)
    }

    /// Removes `key`, returning its value if it was bound. Write-locks
    /// only the key's bucket.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn remove(&self, scope: &ActionScope<'_>, key: &str) -> Result<Option<V>, ActionError> {
        let bucket = self.bucket_of(key);
        let removed = scope.modify_in(scope.default_colour(), bucket, |entries: &mut Bucket| {
            entries
                .iter()
                .position(|(k, _)| k == key)
                .map(|index| entries.remove(index).1)
        })?;
        Ok(removed.map(|bytes| codec::from_bytes(&bytes)).transpose()?)
    }

    /// Looks up `key`. Read-locks only the key's bucket, so lookups of
    /// different keys run concurrently with each other *and* with
    /// updates to other keys.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn lookup(&self, scope: &ActionScope<'_>, key: &str) -> Result<Option<V>, ActionError> {
        let bucket = self.bucket_of(key);
        let entries: Bucket = scope.read_in(scope.default_colour(), bucket)?;
        Ok(entries
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, bytes)| codec::from_bytes(&bytes))
            .transpose()?)
    }

    /// Returns every binding, sorted by key (read-locks all buckets —
    /// the one whole-directory operation).
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn entries(&self, scope: &ActionScope<'_>) -> Result<Vec<(String, V)>, ActionError> {
        let mut all = Vec::new();
        for &bucket in &self.buckets {
            let entries: Bucket = scope.read_in(scope.default_colour(), bucket)?;
            for (key, bytes) in entries {
                all.push((key, codec::from_bytes(&bytes)?));
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(all)
    }

    /// Returns the number of bindings (read-locks all buckets).
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn len(&self, scope: &ActionScope<'_>) -> Result<usize, ActionError> {
        let mut count = 0;
        for &bucket in &self.buckets {
            count += scope
                .read_in::<Bucket>(scope.default_colour(), bucket)?
                .len();
        }
        Ok(count)
    }

    /// Returns `true` if the directory holds no bindings.
    ///
    /// # Errors
    ///
    /// Lock or codec failures.
    pub fn is_empty(&self, scope: &ActionScope<'_>) -> Result<bool, ActionError> {
        Ok(self.len(scope)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chroma_base::ColourSet;
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
    fn insert_lookup_remove() {
        let rt = Runtime::builder().build();
        let dir: KeyedDirectory<u32> = KeyedDirectory::create(&rt, 4).unwrap();
        rt.atomic(|a| {
            assert_eq!(dir.insert(a, "a", &1)?, None);
            assert_eq!(dir.insert(a, "a", &2)?, Some(1));
            assert_eq!(dir.lookup(a, "a")?, Some(2));
            assert_eq!(dir.remove(a, "a")?, Some(2));
            assert_eq!(dir.lookup(a, "a")?, None);
            assert_eq!(dir.remove(a, "a")?, None);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn entries_and_len() {
        let rt = Runtime::builder().build();
        let dir: KeyedDirectory<String> = KeyedDirectory::create(&rt, 3).unwrap();
        rt.atomic(|a| {
            dir.insert(a, "b", &"two".to_owned())?;
            dir.insert(a, "a", &"one".to_owned())?;
            assert!(!dir.is_empty(a)?);
            assert_eq!(dir.len(a)?, 2);
            let entries = dir.entries(a)?;
            assert_eq!(entries[0].0, "a");
            assert_eq!(entries[1].0, "b");
            Ok(())
        })
        .unwrap();
    }

    /// Find two keys living in different buckets of `dir`.
    fn disjoint_keys(dir: &KeyedDirectory<u32>) -> (String, String) {
        let first = "k0".to_owned();
        let home = dir.bucket_of(&first);
        for i in 1..1000 {
            let candidate = format!("k{i}");
            if dir.bucket_of(&candidate) != home {
                return (first, candidate);
            }
        }
        panic!("no disjoint keys found");
    }

    #[test]
    fn different_keys_do_not_conflict() {
        // The paper's claim: "reading and deleting different entries can
        // be permitted to take place simultaneously."
        let rt = rt_fast();
        let dir: KeyedDirectory<u32> = KeyedDirectory::create(&rt, 8).unwrap();
        let (k1, k2) = disjoint_keys(&dir);
        rt.atomic(|a| {
            dir.insert(a, &k1, &1)?;
            dir.insert(a, &k2, &2)
        })
        .unwrap();

        // Action 1 deletes k1 and stays open; action 2 reads AND writes
        // k2 without blocking.
        let a1 = rt
            .begin_top(ColourSet::single(rt.default_colour()))
            .unwrap();
        dir.remove(&rt.scope(a1).unwrap(), &k1).unwrap();
        rt.atomic(|a| {
            assert_eq!(dir.lookup(a, &k2)?, Some(2));
            dir.insert(a, &k2, &22)?;
            Ok(())
        })
        .unwrap();
        rt.commit(a1).unwrap();
        rt.atomic(|a| {
            assert_eq!(dir.lookup(a, &k1)?, None);
            assert_eq!(dir.lookup(a, &k2)?, Some(22));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn same_key_operations_serialize() {
        let rt = rt_fast();
        let dir: KeyedDirectory<u32> = KeyedDirectory::create(&rt, 8).unwrap();
        rt.atomic(|a| dir.insert(a, "x", &1)).unwrap();
        let a1 = rt
            .begin_top(ColourSet::single(rt.default_colour()))
            .unwrap();
        dir.insert(&rt.scope(a1).unwrap(), "x", &2).unwrap();
        // A second action on the same key blocks (here: times out).
        let blocked = rt.atomic(|a| dir.lookup(a, "x"));
        assert!(blocked.is_err());
        rt.commit(a1).unwrap();
        assert_eq!(rt.atomic(|a| dir.lookup(a, "x")).unwrap(), Some(2));
    }

    #[test]
    fn aborted_updates_are_undone_per_key() {
        let rt = Runtime::builder().build();
        let dir: KeyedDirectory<u32> = KeyedDirectory::create(&rt, 4).unwrap();
        rt.atomic(|a| dir.insert(a, "kept", &1)).unwrap();
        let _ = rt.atomic(|a| {
            dir.insert(a, "kept", &99)?;
            dir.insert(a, "new", &5)?;
            Err::<(), _>(ActionError::failed("abort"))
        });
        rt.atomic(|a| {
            assert_eq!(dir.lookup(a, "kept")?, Some(1));
            assert_eq!(dir.lookup(a, "new")?, None);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn concurrent_threads_on_disjoint_keys() {
        let rt = Runtime::builder().build();
        let dir: std::sync::Arc<KeyedDirectory<u32>> =
            std::sync::Arc::new(KeyedDirectory::create(&rt, 16).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rt = rt.clone();
                let dir = std::sync::Arc::clone(&dir);
                std::thread::spawn(move || {
                    for i in 0..25u32 {
                        let key = format!("t{t}-{i}");
                        rt.atomic(|a| dir.insert(a, &key, &i)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        rt.atomic(|a| {
            assert_eq!(dir.len(a)?, 100);
            Ok(())
        })
        .unwrap();
    }
}
