//! A [`PermanenceBackend`] that times the real one from outside.
//!
//! The traced repetition hands the runtime this wrapper instead of the
//! backend itself. Every method forwards unchanged; `commit_batch` and
//! `read` additionally record a span on the calling thread (so they
//! nest under the operation that caused them) and count what crossed
//! the boundary: batches, objects, user bytes, and the highest
//! checkpoint backlog seen right after a commit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chroma_base::ObjectId;
use chroma_core::{BackendError, PermanenceBackend};
use chroma_obs::{Obs, Observable};
use chroma_store::StoreBytes;

use crate::span::{self, SpanName};

/// What crossed the backend boundary during a repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCounts {
    pub commits: u64,
    pub objects: u64,
    pub user_bytes: u64,
    pub reads: u64,
    pub backlog_max: u64,
}

pub struct TimedBackend {
    inner: Arc<dyn PermanenceBackend>,
    commits: AtomicU64,
    objects: AtomicU64,
    user_bytes: AtomicU64,
    reads: AtomicU64,
    backlog_max: AtomicU64,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn PermanenceBackend>) -> Self {
        TimedBackend {
            inner,
            commits: AtomicU64::new(0),
            objects: AtomicU64::new(0),
            user_bytes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            backlog_max: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> BackendCounts {
        BackendCounts {
            commits: self.commits.load(Ordering::Relaxed),
            objects: self.objects.load(Ordering::Relaxed),
            user_bytes: self.user_bytes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            backlog_max: self.backlog_max.load(Ordering::Relaxed),
        }
    }
}

impl PermanenceBackend for TimedBackend {
    fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), BackendError> {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.objects
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        let bytes: usize = updates.iter().map(|(_, state)| state.len()).sum();
        self.user_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        span::enter(SpanName::BackendCommit);
        let result = self.inner.commit_batch(updates);
        span::exit();
        self.backlog_max
            .fetch_max(self.inner.checkpoint_backlog(), Ordering::Relaxed);
        result
    }

    fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        span::enter(SpanName::BackendRead);
        let state = self.inner.read(object);
        span::exit();
        state
    }

    fn contains(&self, object: ObjectId) -> bool {
        self.inner.contains(object)
    }

    fn recover(&self) {
        self.inner.recover();
    }

    fn max_object(&self) -> Option<ObjectId> {
        self.inner.max_object()
    }

    fn queue_depth(&self) -> u64 {
        self.inner.queue_depth()
    }

    fn checkpoint_backlog(&self) -> u64 {
        self.inner.checkpoint_backlog()
    }
}

impl Observable for TimedBackend {
    fn install_obs(&self, obs: Obs) {
        self.inner.install_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records every call and answers with recognisable values.
    #[derive(Default)]
    struct Spy {
        calls: Mutex<Vec<String>>,
    }

    impl Spy {
        fn log(&self, call: impl Into<String>) {
            self.calls.lock().unwrap().push(call.into());
        }
    }

    impl PermanenceBackend for Spy {
        fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), BackendError> {
            self.log(format!("commit_batch {updates:?}"));
            if updates.is_empty() {
                return Err(BackendError::Unavailable("empty".into()));
            }
            Ok(())
        }
        fn read(&self, object: ObjectId) -> Option<StoreBytes> {
            self.log(format!("read {}", object.as_raw()));
            (object.as_raw() == 1).then(|| StoreBytes::from(vec![9, 9]))
        }
        fn contains(&self, object: ObjectId) -> bool {
            self.log(format!("contains {}", object.as_raw()));
            object.as_raw() == 1
        }
        fn recover(&self) {
            self.log("recover");
        }
        fn max_object(&self) -> Option<ObjectId> {
            self.log("max_object");
            Some(ObjectId::from_raw(41))
        }
        fn queue_depth(&self) -> u64 {
            self.log("queue_depth");
            5
        }
        fn checkpoint_backlog(&self) -> u64 {
            self.log("checkpoint_backlog");
            6
        }
    }

    impl Observable for Spy {
        fn install_obs(&self, obs: Obs) {
            self.log(format!("install_obs enabled={}", obs.enabled()));
        }
    }

    #[test]
    fn forwards_every_method_unchanged() {
        let spy = Arc::new(Spy::default());
        let timed = TimedBackend::new(spy.clone());
        let (one, two) = (ObjectId::from_raw(1), ObjectId::from_raw(2));
        let batch = vec![
            (one, StoreBytes::from(vec![1, 2, 3])),
            (two, StoreBytes::from(vec![4])),
        ];

        assert_eq!(timed.commit_batch(batch.clone()), Ok(()));
        assert_eq!(
            timed.commit_batch(Vec::new()),
            Err(BackendError::Unavailable("empty".into())),
            "errors pass through"
        );
        assert_eq!(timed.read(one).as_deref(), Some(&[9u8, 9][..]));
        assert_eq!(timed.read(two), None);
        assert!(timed.contains(one));
        assert!(!timed.contains(two));
        timed.recover();
        assert_eq!(timed.max_object(), Some(ObjectId::from_raw(41)));
        assert_eq!(timed.queue_depth(), 5);
        assert_eq!(timed.checkpoint_backlog(), 6);
        timed.install_obs(Obs::new(Arc::new(chroma_obs::EventBus::new())));
        timed.install_obs(Obs::none());

        let calls = spy.calls.lock().unwrap().clone();
        assert_eq!(
            calls,
            vec![
                format!("commit_batch {batch:?}"),
                "checkpoint_backlog".to_string(), // sampled after a commit
                "commit_batch []".to_string(),
                "checkpoint_backlog".to_string(),
                "read 1".to_string(),
                "read 2".to_string(),
                "contains 1".to_string(),
                "contains 2".to_string(),
                "recover".to_string(),
                "max_object".to_string(),
                "queue_depth".to_string(),
                "checkpoint_backlog".to_string(),
                "install_obs enabled=true".to_string(),
                "install_obs enabled=false".to_string(),
            ]
        );
        assert_eq!(
            timed.counts(),
            BackendCounts {
                commits: 2,
                objects: 2,
                user_bytes: 4,
                reads: 2,
                backlog_max: 6,
            }
        );
    }

    #[test]
    fn backend_calls_nest_under_the_open_span() {
        span::install(span::ThreadTrace::new(0, std::time::Instant::now()));
        let timed = TimedBackend::new(Arc::new(Spy::default()));
        span::enter(SpanName::Op);
        timed.read(ObjectId::from_raw(1));
        span::exit();
        let summary = span::TraceSummary::merge(vec![span::take().expect("installed above")]);
        let (read, op) = (&summary.raw[0], &summary.raw[1]);
        assert_eq!(read.name, SpanName::BackendRead);
        assert_eq!(read.parent, op.id);
    }
}
