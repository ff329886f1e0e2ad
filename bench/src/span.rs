//! Spans the benchmark records around its own calls into each layer.
//!
//! A traced repetition installs one [`ThreadTrace`] per client thread.
//! Every operation is a root span; the structure call, each scope
//! read/write made in the closure, and the [`TimedBackend`] calls the
//! product makes underneath nest inside it through the thread-local
//! stack, so a backend commit is parented to the operation that caused
//! it without the product knowing. A span's self time is its duration
//! minus the part its children cover.
//!
//! Totals are kept for every span; the spans themselves are kept for
//! the first [`RAW_ROOTS`] operations of each thread only, so a
//! four-million-operation repetition does not hold its trace in the
//! resident set it reports.
//!
//! [`TimedBackend`]: crate::timed_backend::TimedBackend

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Histogram;

/// Root spans per thread whose whole tree is written out.
pub const RAW_ROOTS: u32 = 500;

/// Every span the benchmark records, tagged with the layer (crate) the
/// time inside it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanName {
    Op,
    Serializing,
    Glued,
    Independent,
    ScopeRead,
    ScopeWrite,
    ScopeModify,
    SnapshotRead,
    BackendCommit,
    BackendRead,
    StoreOpen,
    Dispatch,
    Barrier,
    ApplyEffects,
    Poll,
}

impl SpanName {
    pub const ALL: [SpanName; 15] = [
        SpanName::Op,
        SpanName::Serializing,
        SpanName::Glued,
        SpanName::Independent,
        SpanName::ScopeRead,
        SpanName::ScopeWrite,
        SpanName::ScopeModify,
        SpanName::SnapshotRead,
        SpanName::BackendCommit,
        SpanName::BackendRead,
        SpanName::StoreOpen,
        SpanName::Dispatch,
        SpanName::Barrier,
        SpanName::ApplyEffects,
        SpanName::Poll,
    ];

    /// `<layer>.<what>` as it appears in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Op => "driver.op",
            SpanName::Serializing => "structures.serializing",
            SpanName::Glued => "structures.glued",
            SpanName::Independent => "structures.independent",
            SpanName::ScopeRead => "core.scope_read",
            SpanName::ScopeWrite => "core.scope_write",
            SpanName::ScopeModify => "core.scope_modify",
            SpanName::SnapshotRead => "core.snapshot_read",
            SpanName::BackendCommit => "store.commit_batch",
            SpanName::BackendRead => "store.read",
            SpanName::StoreOpen => "store.open",
            SpanName::Dispatch => "dist.dispatch",
            SpanName::Barrier => "node.persist_barrier",
            SpanName::ApplyEffects => "dist.apply_effects",
            SpanName::Poll => "dist.poll",
        }
    }
}

/// Aggregate of every span of one name.
#[derive(Clone, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Histogram,
}

impl SpanTotals {
    fn merge(&mut self, other: &SpanTotals) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durations.merge(&other.durations);
    }

    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1e3
    }

    pub fn p50_us(&self) -> f64 {
        self.durations.quantile(0.5) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.durations.quantile(0.99) / 1e3
    }
}

/// One recorded span: name, start, end, and the span that caused it.
/// Spans of one operation share `key` (the thread's operation number,
/// or the transaction id for the cluster).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawSpan {
    pub id: u32,
    /// `0` for a root.
    pub parent: u32,
    pub thread: u32,
    pub name: SpanName,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Frame {
    id: u32,
    name: SpanName,
    start_ns: u64,
    children_ns: u64,
}

/// One thread's recorder.
pub struct ThreadTrace {
    thread: u32,
    origin: Instant,
    stack: Vec<Frame>,
    totals: Vec<SpanTotals>,
    raw: Vec<RawSpan>,
    roots: u32,
    next_id: u32,
    /// Overrides the root count as the spans' key.
    key: Option<u64>,
}

impl ThreadTrace {
    /// `origin` is shared by all threads of a repetition so their
    /// spans sit on one time axis.
    pub fn new(thread: u32, origin: Instant) -> Self {
        ThreadTrace {
            thread,
            origin,
            stack: Vec::with_capacity(8),
            totals: vec![SpanTotals::default(); SpanName::ALL.len()],
            raw: Vec::new(),
            roots: 0,
            next_id: 1,
            key: None,
        }
    }

    /// Opens a span at `now_ns`; it becomes a child of the innermost
    /// open span.
    pub fn enter_at(&mut self, name: SpanName, now_ns: u64) {
        if self.stack.is_empty() {
            self.roots += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Frame {
            id,
            name,
            start_ns: now_ns,
            children_ns: 0,
        });
    }

    /// Closes the innermost open span at `now_ns`.
    pub fn exit_at(&mut self, now_ns: u64) {
        let frame = self.stack.pop().expect("exit without a matching enter");
        let duration = now_ns.saturating_sub(frame.start_ns);
        let totals = &mut self.totals[frame.name as usize];
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(frame.children_ns);
        totals.durations.record(duration);
        let parent = match self.stack.last_mut() {
            Some(parent) => {
                parent.children_ns += duration;
                parent.id
            }
            None => 0,
        };
        if self.roots <= RAW_ROOTS {
            self.raw.push(RawSpan {
                id: frame.id,
                parent,
                thread: self.thread,
                name: frame.name,
                key: self.key.unwrap_or(u64::from(self.roots)),
                start_ns: frame.start_ns,
                end_ns: now_ns,
            });
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static TRACE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread.
pub fn install(trace: ThreadTrace) {
    TRACE.with(|t| *t.borrow_mut() = Some(trace));
}

/// Stops recording on the calling thread and hands the recorder back.
pub fn take() -> Option<ThreadTrace> {
    TRACE.with(|t| t.borrow_mut().take())
}

/// Keys the calling thread's following spans by `key` (a transaction
/// id) instead of the thread's operation number.
pub fn set_key(key: u64) {
    TRACE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            trace.key = Some(key);
        }
    });
}

/// Opens a span on the calling thread if it is recording.
pub fn enter(name: SpanName) {
    TRACE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            let now = trace.now_ns();
            trace.enter_at(name, now);
        }
    });
}

/// Closes the innermost span on the calling thread if it is recording.
pub fn exit() {
    TRACE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            let now = trace.now_ns();
            trace.exit_at(now);
        }
    });
}

/// Runs `f` inside a span when `TRACED`; compiles to a plain call when
/// not, so the untraced repetitions that produce the end-to-end numbers
/// carry no tracing code at all.
#[inline(always)]
pub fn span<const TRACED: bool, R>(name: SpanName, f: impl FnOnce() -> R) -> R {
    if TRACED {
        enter(name);
        let out = f();
        exit();
        out
    } else {
        f()
    }
}

/// The traced repetition's result: totals per span name over all
/// threads, and the raw spans of each thread's first operations.
pub struct TraceSummary {
    /// One entry per [`SpanName`], in declaration order.
    totals: Vec<SpanTotals>,
    pub raw: Vec<RawSpan>,
    pub threads: u32,
}

impl TraceSummary {
    pub fn merge(traces: Vec<ThreadTrace>) -> Self {
        let mut summary = TraceSummary {
            totals: vec![SpanTotals::default(); SpanName::ALL.len()],
            raw: Vec::new(),
            threads: traces.len() as u32,
        };
        for trace in traces {
            assert!(trace.stack.is_empty(), "a span was left open");
            for (mine, theirs) in summary.totals.iter_mut().zip(&trace.totals) {
                mine.merge(theirs);
            }
            summary.raw.extend(trace.raw);
        }
        summary
    }

    pub fn of(&self, name: SpanName) -> &SpanTotals {
        &self.totals[name as usize]
    }

    /// The trace file: per-name totals with self time, the extra
    /// `counts` the workload measured at the same boundaries, and the
    /// raw spans.
    pub fn to_json(&self, workload: &str, counts: &[(String, f64)]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"threads\":{},\"raw_roots_per_thread\":{RAW_ROOTS},\"totals\":{{",
            self.threads
        );
        let mut first = true;
        for name in SpanName::ALL {
            let t = self.of(name);
            if t.count == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3}}}",
                name.label(),
                t.count,
                t.total_us(),
                t.self_ns as f64 / 1e3,
                t.p50_us(),
                t.p99_us()
            );
        }
        s.push_str("},\"counts\":{");
        for (i, (name, value)) in counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        s.push_str("},\"spans\":[");
        for (i, span) in self.raw.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"key\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                span.id,
                span.parent,
                span.thread,
                span.name.label(),
                span.key,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ThreadTrace {
        ThreadTrace::new(0, Instant::now())
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) { modify [10,40) { commit [20,30) }  read [50,70) }
        let mut t = trace();
        t.enter_at(SpanName::Op, 0);
        t.enter_at(SpanName::ScopeModify, 10);
        t.enter_at(SpanName::BackendCommit, 20);
        t.exit_at(30);
        t.exit_at(40);
        t.enter_at(SpanName::ScopeRead, 50);
        t.exit_at(70);
        t.exit_at(100);
        let s = TraceSummary::merge(vec![t]);

        let op = s.of(SpanName::Op);
        assert_eq!((op.count, op.total_ns), (1, 100));
        // siblings modify (30) and read (20) are subtracted; the
        // grandchild commit is not subtracted twice
        assert_eq!(op.self_ns, 50);
        let modify = s.of(SpanName::ScopeModify);
        assert_eq!((modify.total_ns, modify.self_ns), (30, 20));
        let commit = s.of(SpanName::BackendCommit);
        assert_eq!((commit.total_ns, commit.self_ns), (10, 10));
        let read = s.of(SpanName::ScopeRead);
        assert_eq!((read.total_ns, read.self_ns), (20, 20));
        // self times partition the root exactly
        let selves: u64 = SpanName::ALL.iter().map(|&n| s.of(n).self_ns).sum();
        assert_eq!(selves, 100);
    }

    #[test]
    fn raw_spans_carry_parent_and_key() {
        let mut t = trace();
        for op in 0..2u64 {
            t.enter_at(SpanName::Op, op * 10);
            t.enter_at(SpanName::BackendRead, op * 10 + 1);
            t.exit_at(op * 10 + 2);
            t.exit_at(op * 10 + 5);
        }
        let s = TraceSummary::merge(vec![t]);
        assert_eq!(s.raw.len(), 4);
        let (child, root) = (&s.raw[0], &s.raw[1]);
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!((child.key, root.key), (1, 1));
        assert_eq!(s.raw[3].key, 2);
        let json = s.to_json("w", &[("locks.waits".into(), 3.0)]);
        assert!(json.contains("\"store.read\":{\"count\":2"));
        assert!(json.contains("\"locks.waits\":3"));
        assert!(json.contains("\"name\":\"driver.op\",\"key\":2"));
    }

    #[test]
    fn raw_spans_stop_after_the_first_roots_but_totals_do_not() {
        let mut t = trace();
        for op in 0..u64::from(RAW_ROOTS) + 10 {
            t.enter_at(SpanName::Op, op);
            t.exit_at(op + 1);
        }
        let s = TraceSummary::merge(vec![t]);
        assert_eq!(s.raw.len(), RAW_ROOTS as usize);
        assert_eq!(s.of(SpanName::Op).count, u64::from(RAW_ROOTS) + 10);
    }

    #[test]
    fn thread_local_recorder_round_trips() {
        assert!(take().is_none());
        enter(SpanName::Op); // not installed: ignored
        exit();
        install(trace());
        set_key(77);
        let out = span::<true, _>(SpanName::Op, || span::<false, _>(SpanName::Poll, || 5));
        assert_eq!(out, 5);
        let s = TraceSummary::merge(vec![take().expect("installed above")]);
        assert_eq!(s.of(SpanName::Op).count, 1);
        assert_eq!(s.of(SpanName::Poll).count, 0);
        assert_eq!(s.raw[0].key, 77);
    }
}
