//! Structured tracing, metrics and invariant auditing for chroma.
//!
//! The paper argues fault tolerance by construction: actions obey
//! strict two-phase locking, nested commits pass locks to ancestors by
//! the Moss rules, and distributed commitment never diverges. This
//! crate makes those claims *checkable* on real executions instead of
//! trusted:
//!
//! * [`Event`] is a typed record of one step of the action lifecycle —
//!   begins/commits/aborts, lock traffic, undo logging, the disk log,
//!   two-phase commit, crashes and network behaviour;
//! * [`EventBus`] collects events from every subsystem, counts them,
//!   feeds latency [`Histogram`]s and hands each event in-line to
//!   pluggable [`EventSink`]s ([`AppendJsonlSink`] streams a process's
//!   trace to disk for offline analysis);
//! * one rule engine states the paper's invariants R1–R11 once —
//!   strict 2PL, commit-time lock inheritance by the closest ancestor
//!   holding the colour, no write without a write lock, 2PC safety,
//!   replication monotonicity, happens-before (per-node Lamport clocks
//!   and send/receive correlation ids), group-commit coverage,
//!   snapshot reads, segment lifecycle — and runs under two retention
//!   policies: [`TraceAuditor`] replays a captured event stream with
//!   nothing ever evicted, and reports each [`Violation`];
//! * [`SpanForest`] folds a trace back into action/transaction span
//!   trees, pairs RPC sends with deliveries as [`Flow`]s, and its
//!   critical-path profiler attributes end-to-end commit latency to
//!   lock-wait / fsync / network / 2PC phases per colour;
//! * [`chrome_trace`] exports a trace as Chrome trace-event JSON
//!   (one track per node, flow arrows for RPC pairs) for Perfetto;
//!   the `chroma-trace` binary wraps audit, export and profiling as
//!   a CLI over JSONL trace files;
//! * [`Watchdog`] is the same engine under the windowed policy:
//!   installed on a bus it checks R1–R4 and R9–R11 with bounded memory,
//!   over the bus's events in stamp order, and raises
//!   `watchdog_violation` events plus a non-fatal callback while the
//!   system is running;
//! * [`FlightRecorder`] is an always-on ring of recent events, fed in
//!   the same order, that dumps an offline-analyzable JSONL post-mortem
//!   on crash, violation, or demand. It is also the in-memory trace
//!   that tests audit: every read drains the bus first, so it holds
//!   every event emitted so far, pending violations included, in the
//!   order the watchdog checked them.
//!
//! Instrumented code holds an [`Obs`] handle — a cheap clone that is a
//! no-op until a bus is installed, so the hot paths pay one branch when
//! tracing is off.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use chroma_base::ActionId;
//! use chroma_obs::{EventBus, EventKind, FlightRecorder, Obs, TraceAuditor};
//!
//! let bus = Arc::new(EventBus::new());
//! let recorder = FlightRecorder::attach(&bus, 1024);
//!
//! let obs = Obs::new(bus.clone());
//! let a = ActionId::from_raw(1);
//! obs.emit(EventKind::ActionBegin { action: a, parent: None, colours: 0b1 });
//! obs.emit(EventKind::ActionCommit { action: a });
//!
//! assert_eq!(bus.counter("action_begin"), 1);
//! let report = TraceAuditor::audit_events(&recorder.events());
//! assert!(report.is_clean(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod bus;
mod event;
mod export;
mod merge;
mod metrics;
mod recorder;
mod rules;
mod span;
mod watchdog;

pub use audit::{AuditReport, TraceAuditor};
pub use bus::{AppendJsonlSink, EventBus, EventSink, Obs, ObsCell, Observable};
pub use event::{escape_json_str, Event, EventKind, MsgKind, TraceParseError, WatchdogRule};
pub use export::{chrome_trace, chrome_trace_from};
pub use merge::{merge_events, merge_trace_files, MergeOutcome};
pub use metrics::{Histogram, Snapshot, Summary};
pub use recorder::FlightRecorder;
pub use rules::Violation;
pub use span::{
    ColourBreakdown, CriticalPathReport, Flow, Outcome, Phase, Span, SpanForest, SpanKind,
    TxnBreakdown,
};
pub use watchdog::Watchdog;
