//! Offline span-tree reconstruction and critical-path profiling.
//!
//! A trace is a flat stream of events; this module folds it back into
//! the shapes the paper reasons about — nested action spans, 2PC
//! transaction spans, lock waits, replica catch-up windows — and
//! pairs cross-node sends with the deliveries they caused via the
//! correlation ids stamped by the transport.
//!
//! On top of the tree sits a **critical-path profiler**: every
//! committed top-level action's wall time is partitioned exactly
//! (gap by gap, attributed to the event that terminates the gap) into
//! lock wait, fsync, network, 2PC and compute phases, aggregated per
//! colour. A lock wait runs from a request's `lock_conflict` to its
//! `lock_grant`; an uncontended grant ends a compute gap. The
//! partition is exact by construction, so the phase sum of a colour
//! always equals the measured end-to-end commit latency.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::num::NonZeroU64;

use chroma_base::{ActionId, NodeId, ObjectId};

use crate::event::{Event, EventKind, MsgKind};

/// Why a span closed (or that it never did).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Closed by a commit (or a 2PC commit decision).
    Committed,
    /// Closed by an abort (or a 2PC abort decision).
    Aborted,
    /// Still open when the trace ended.
    Open,
}

/// What a reconstructed span covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// One action, begin to termination.
    Action {
        /// The action.
        action: ActionId,
        /// Its colour bitmask (bit *i* = colour index *i*).
        colours: u64,
        /// How it ended.
        outcome: Outcome,
    },
    /// The window between a refused lock request (its
    /// `lock_conflict`) and its grant, or the action's end if it never
    /// won.
    LockWait {
        /// The waiting action.
        action: ActionId,
        /// The contended object.
        object: ObjectId,
    },
    /// One distributed transaction, first 2PC event to last.
    Txn {
        /// The transaction id.
        txn: u64,
        /// The decision, once one was traced.
        decision: Option<bool>,
    },
    /// A recovering replica's catch-up window.
    Catchup {
        /// The recovering member.
        node: NodeId,
        /// The object being caught up.
        object: ObjectId,
    },
    /// A read-only action's snapshot scope: from its frontier capture
    /// (`snapshot_open`) to the action's termination, with the
    /// snapshot reads attributed inside.
    Snapshot {
        /// The reading action.
        action: ActionId,
    },
}

/// One reconstructed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// The node it ran on, when the trace says.
    pub node: Option<NodeId>,
    /// Opening timestamp (µs).
    pub begin_us: u64,
    /// Closing timestamp (µs); equals the last attributed event for
    /// spans still open at end of trace.
    pub end_us: u64,
    /// Index of the enclosing span in [`SpanForest::spans`].
    pub parent: Option<usize>,
    /// Indices of enclosed spans.
    pub children: Vec<usize>,
    /// Indices (into the audited event slice) of the events
    /// attributed to this span.
    pub events: Vec<usize>,
}

impl Span {
    /// Closed-minus-open, saturating.
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.begin_us)
    }

    /// A short human label (also used as the exported slice name).
    #[must_use]
    pub fn label(&self) -> String {
        match self.kind {
            SpanKind::Action {
                action, outcome, ..
            } => match outcome {
                Outcome::Committed => format!("{action}"),
                Outcome::Aborted => format!("{action} (aborted)"),
                Outcome::Open => format!("{action} (open)"),
            },
            SpanKind::LockWait { object, .. } => format!("wait {object}"),
            SpanKind::Txn { txn, decision } => match decision {
                Some(true) => format!("T{txn} commit"),
                Some(false) => format!("T{txn} abort"),
                None => format!("T{txn} undecided"),
            },
            SpanKind::Catchup { object, .. } => format!("catchup {object}"),
            SpanKind::Snapshot { action } => format!("snapshot {action}"),
        }
    }
}

/// One send paired with the delivery it caused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flow {
    /// The correlation id the transport stamped on both halves.
    pub corr: u64,
    /// The message class.
    pub kind: MsgKind,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Index of the `msg_send` event.
    pub send_idx: usize,
    /// Index of the `msg_deliver` event.
    pub recv_idx: usize,
    /// Send timestamp (µs).
    pub send_us: u64,
    /// Delivery timestamp (µs).
    pub recv_us: u64,
}

/// The reconstructed shape of one trace.
#[derive(Clone, Debug, Default)]
pub struct SpanForest {
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Indices of spans with no parent.
    pub roots: Vec<usize>,
    /// Every send/delivery pair, in delivery order. A duplicated
    /// message yields one flow per delivery, all sharing the send.
    pub flows: Vec<Flow>,
    /// Correlation ids of sends that never produced a delivery
    /// (dropped, or still in flight) — legal under loss.
    pub unpaired_sends: Vec<u64>,
    /// Correlation ids of deliveries with no matching send — these
    /// are causality breaches (R8 flags them too).
    pub unpaired_receives: Vec<u64>,
}

impl SpanForest {
    /// Folds a trace back into spans and flows.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn build(events: &[Event]) -> SpanForest {
        let mut forest = SpanForest::default();
        // open-span bookkeeping, keyed by what closes them
        let mut action_spans: HashMap<ActionId, usize> = HashMap::new();
        let mut lock_waits: HashMap<(ActionId, u64), usize> = HashMap::new();
        let mut txn_spans: HashMap<u64, usize> = HashMap::new();
        let mut catchups: HashMap<(u32, u64), usize> = HashMap::new();
        let mut snapshot_spans: HashMap<ActionId, usize> = HashMap::new();
        // begin-order stack of actions still open, for attributing
        // node-less store events to the innermost enclosing action
        let mut open_actions: Vec<ActionId> = Vec::new();
        let mut sends: HashMap<u64, usize> = HashMap::new();
        let mut paired: HashMap<u64, bool> = HashMap::new();

        let push_span = |forest: &mut SpanForest, span: Span| -> usize {
            let idx = forest.spans.len();
            if let Some(p) = span.parent {
                forest.spans[p].children.push(idx);
            } else {
                forest.roots.push(idx);
            }
            forest.spans.push(span);
            idx
        };
        let attribute = |forest: &mut SpanForest, span: usize, i: usize, at_us: u64| {
            forest.spans[span].events.push(i);
            let s = &mut forest.spans[span];
            s.end_us = s.end_us.max(at_us);
        };

        for (i, event) in events.iter().enumerate() {
            let at = event.at_us;
            match event.kind {
                EventKind::ActionBegin {
                    action,
                    parent,
                    colours,
                } => {
                    let parent_span = parent.and_then(|p| action_spans.get(&p).copied());
                    let idx = push_span(
                        &mut forest,
                        Span {
                            kind: SpanKind::Action {
                                action,
                                colours,
                                outcome: Outcome::Open,
                            },
                            node: event.node,
                            begin_us: at,
                            end_us: at,
                            parent: parent_span,
                            children: Vec::new(),
                            events: vec![i],
                        },
                    );
                    action_spans.insert(action, idx);
                    open_actions.push(action);
                }
                EventKind::ActionCommit { action } | EventKind::ActionAbort { action } => {
                    let committed = matches!(event.kind, EventKind::ActionCommit { .. });
                    if let Some(&idx) = action_spans.get(&action) {
                        attribute(&mut forest, idx, i, at);
                        if let SpanKind::Action { outcome, .. } = &mut forest.spans[idx].kind {
                            *outcome = if committed {
                                Outcome::Committed
                            } else {
                                Outcome::Aborted
                            };
                        }
                        // close any lock wait the action never won
                        lock_waits.retain(|&(a, _), &mut widx| {
                            if a == action {
                                forest.spans[widx].end_us = forest.spans[widx].end_us.max(at);
                                false
                            } else {
                                true
                            }
                        });
                        // a snapshot scope ends with its action
                        if let Some(sidx) = snapshot_spans.remove(&action) {
                            forest.spans[sidx].end_us = forest.spans[sidx].end_us.max(at);
                        }
                    }
                    open_actions.retain(|a| *a != action);
                }
                EventKind::LockConflict { action, object, .. } => {
                    // a refusal opens a wait; an uncontended acquire
                    // (a lone grant) never has one
                    if let Some(&aidx) = action_spans.get(&action) {
                        attribute(&mut forest, aidx, i, at);
                        lock_waits
                            .entry((action, object.as_raw()))
                            .or_insert_with(|| {
                                push_span(
                                    &mut forest,
                                    Span {
                                        kind: SpanKind::LockWait { action, object },
                                        node: event.node,
                                        begin_us: at,
                                        end_us: at,
                                        parent: Some(aidx),
                                        children: Vec::new(),
                                        events: Vec::new(),
                                    },
                                )
                            });
                    }
                }
                EventKind::LockGrant { action, object, .. } => {
                    if let Some(widx) = lock_waits.remove(&(action, object.as_raw())) {
                        forest.spans[widx].end_us = forest.spans[widx].end_us.max(at);
                    }
                    if let Some(&aidx) = action_spans.get(&action) {
                        attribute(&mut forest, aidx, i, at);
                    }
                }
                EventKind::LockRelease { action, .. } | EventKind::UndoRecord { action, .. } => {
                    if let Some(&aidx) = action_spans.get(&action) {
                        attribute(&mut forest, aidx, i, at);
                    }
                }
                EventKind::SnapshotOpen { action, .. } => {
                    // the frontier capture opens the snapshot scope as
                    // a child of the action span
                    if let Some(&aidx) = action_spans.get(&action) {
                        let sidx = match snapshot_spans.get(&action) {
                            Some(&idx) => idx,
                            None => {
                                let idx = push_span(
                                    &mut forest,
                                    Span {
                                        kind: SpanKind::Snapshot { action },
                                        node: event.node,
                                        begin_us: at,
                                        end_us: at,
                                        parent: Some(aidx),
                                        children: Vec::new(),
                                        events: Vec::new(),
                                    },
                                );
                                snapshot_spans.insert(action, idx);
                                idx
                            }
                        };
                        attribute(&mut forest, sidx, i, at);
                    }
                }
                EventKind::SnapshotRead { action, .. } => match snapshot_spans.get(&action) {
                    Some(&sidx) => attribute(&mut forest, sidx, i, at),
                    // a read with no traced open still belongs to the
                    // action span
                    None => {
                        if let Some(&aidx) = action_spans.get(&action) {
                            attribute(&mut forest, aidx, i, at);
                        }
                    }
                },
                EventKind::LockInherit { from, .. } => {
                    if let Some(&aidx) = action_spans.get(&from) {
                        attribute(&mut forest, aidx, i, at);
                    }
                }
                EventKind::DiskAppend { .. }
                | EventKind::DiskReplay { .. }
                | EventKind::DiskGroupCommit { .. }
                | EventKind::SegmentSeal { .. } => {
                    // store traffic carries no action id: charge the
                    // innermost action open on the same node (or any
                    // innermost one, for node-less local traces)
                    let owner = open_actions
                        .iter()
                        .rev()
                        .find(|a| {
                            let span = &forest.spans[action_spans[*a]];
                            span.node.is_none() || event.node.is_none() || span.node == event.node
                        })
                        .copied();
                    if let Some(action) = owner {
                        let aidx = action_spans[&action];
                        attribute(&mut forest, aidx, i, at);
                    }
                }
                EventKind::TpcVote { txn, .. }
                | EventKind::TpcDecide { txn, .. }
                | EventKind::TpcResolve { txn, .. } => {
                    let idx = match txn_spans.get(&txn) {
                        Some(&idx) => idx,
                        None => {
                            let idx = push_span(
                                &mut forest,
                                Span {
                                    kind: SpanKind::Txn {
                                        txn,
                                        decision: None,
                                    },
                                    node: event.node,
                                    begin_us: at,
                                    end_us: at,
                                    parent: None,
                                    children: Vec::new(),
                                    events: Vec::new(),
                                },
                            );
                            txn_spans.insert(txn, idx);
                            idx
                        }
                    };
                    attribute(&mut forest, idx, i, at);
                    // a merged trace is in causal order, and its nodes'
                    // clocks disagree: the span opens at its earliest
                    // stamp, not at its first event
                    let span = &mut forest.spans[idx];
                    span.begin_us = span.begin_us.min(at);
                    if let EventKind::TpcDecide { commit, .. } = event.kind {
                        if let SpanKind::Txn { decision, .. } = &mut forest.spans[idx].kind {
                            decision.get_or_insert(commit);
                        }
                    }
                }
                EventKind::CatchupBegin { node, object } => {
                    let idx = push_span(
                        &mut forest,
                        Span {
                            kind: SpanKind::Catchup { node, object },
                            node: Some(node),
                            begin_us: at,
                            end_us: at,
                            parent: None,
                            children: Vec::new(),
                            events: vec![i],
                        },
                    );
                    catchups.insert((node.as_raw(), object.as_raw()), idx);
                }
                EventKind::CatchupEnd { node, object, .. } => {
                    if let Some(idx) = catchups.remove(&(node.as_raw(), object.as_raw())) {
                        attribute(&mut forest, idx, i, at);
                    }
                }
                EventKind::MsgSend { .. } => {
                    if let Some(corr) = event.corr.map(NonZeroU64::get) {
                        sends.entry(corr).or_insert(i);
                        paired.entry(corr).or_insert(false);
                    }
                }
                EventKind::MsgDeliver { from, to, kind } => {
                    if let Some(corr) = event.corr.map(NonZeroU64::get) {
                        match sends.get(&corr) {
                            Some(&send_idx) => {
                                paired.insert(corr, true);
                                forest.flows.push(Flow {
                                    corr,
                                    kind,
                                    from,
                                    to,
                                    send_idx,
                                    recv_idx: i,
                                    send_us: events[send_idx].at_us,
                                    recv_us: at,
                                });
                            }
                            None => forest.unpaired_receives.push(corr),
                        }
                    }
                }
                EventKind::MsgDrop { .. }
                | EventKind::MsgDup { .. }
                | EventKind::NodeCrash { .. }
                | EventKind::NodeRecover { .. }
                | EventKind::ReplicaWrite { .. }
                | EventKind::ReplicaInstall { .. }
                | EventKind::ReplicaRead { .. }
                | EventKind::VersionPublish { .. }
                | EventKind::VersionGc { .. }
                | EventKind::WatchdogViolation { .. }
                | EventKind::MetricsSnapshot { .. }
                // checkpointer traffic is background work: it belongs
                // to no action and must not be charged to one
                | EventKind::CheckpointBegin { .. }
                | EventKind::CheckpointEnd { .. }
                | EventKind::SegmentGc { .. } => {}
            }
        }
        forest.unpaired_sends = paired
            .iter()
            .filter(|(_, &p)| !p)
            .map(|(&corr, _)| corr)
            .collect();
        forest.unpaired_sends.sort_unstable();
        forest.unpaired_receives.sort_unstable();
        forest
    }

    /// Walks every committed top-level action span and attributes its
    /// end-to-end latency to phases; aggregates 2PC transaction spans
    /// alongside. `events` must be the slice the forest was built
    /// from.
    #[must_use]
    pub fn critical_path(&self, events: &[Event]) -> CriticalPathReport {
        let mut report = CriticalPathReport::default();
        for &root in &self.roots {
            match self.spans[root].kind {
                SpanKind::Action {
                    colours,
                    outcome: Outcome::Committed,
                    ..
                } => {
                    let span = &self.spans[root];
                    // every attributed event in the subtree, as
                    // (timestamp, event index) partition points, in
                    // trace order within a timestamp
                    let mut points: Vec<(u64, usize)> = Vec::new();
                    let mut stack = vec![root];
                    while let Some(idx) = stack.pop() {
                        for &i in &self.spans[idx].events {
                            let at = events[i].at_us.clamp(span.begin_us, span.end_us);
                            points.push((at, i));
                        }
                        stack.extend(self.spans[idx].children.iter().copied());
                    }
                    points.sort_unstable();
                    let mut phases = [0u64; Phase::COUNT];
                    // refused requests whose grant is still to come:
                    // only the gap a grant closes after its conflict
                    // is a lock wait
                    let mut waiting: HashSet<(ActionId, ObjectId)> = HashSet::new();
                    let mut prev = span.begin_us;
                    for (at, i) in points {
                        let phase = match events[i].kind {
                            EventKind::LockConflict { action, object, .. } => {
                                waiting.insert((action, object));
                                Phase::Compute
                            }
                            EventKind::LockGrant { action, object, .. }
                                if waiting.remove(&(action, object)) =>
                            {
                                Phase::LockWait
                            }
                            ref kind => classify(kind),
                        };
                        phases[phase as usize] += at - prev;
                        prev = at;
                    }
                    phases[Phase::Compute as usize] += span.end_us - prev;
                    for colour in colour_indices(colours) {
                        let row = report.colours.entry(colour).or_default();
                        row.actions += 1;
                        row.total_us += span.duration_us();
                        for (p, us) in phases.iter().enumerate() {
                            row.phases[p] += us;
                        }
                    }
                }
                SpanKind::Txn { decision, .. } => {
                    let span = &self.spans[root];
                    report.txns.count += 1;
                    report.txns.total_us += span.duration_us();
                    if decision.is_some() {
                        // the decide event splits vote collection
                        // from decision propagation; clamped like an
                        // action's points, so the two halves sum to
                        // the total whatever the nodes' clocks say
                        let decide_at = span
                            .events
                            .iter()
                            .find(|&&i| matches!(events[i].kind, EventKind::TpcDecide { .. }))
                            .map_or(span.end_us, |&i| events[i].at_us)
                            .clamp(span.begin_us, span.end_us);
                        report.txns.vote_collection_us += decide_at - span.begin_us;
                        report.txns.resolution_us += span.end_us - decide_at;
                    }
                }
                _ => {}
            }
        }
        report
    }
}

/// The phases one committed action's latency is attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Phase {
    /// Waiting for a lock: from a request's `lock_conflict` to its
    /// grant.
    LockWait = 0,
    /// Durable store work: log appends, group fsyncs, replays, seals.
    Fsync = 1,
    /// Message transit.
    Network = 2,
    /// Two-phase-commit protocol steps and replica traffic.
    TwoPc = 3,
    /// Everything else (application work between traced steps).
    Compute = 4,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 5;
    /// Column labels, indexed by discriminant.
    pub const NAMES: [&'static str; Phase::COUNT] =
        ["lock_wait", "fsync", "network", "2pc", "compute"];
}

/// The phase of the gap an event ends, for every kind but a grant
/// that closes a conflict (lock wait, decided in
/// [`SpanForest::critical_path`]). Every other lock event, the
/// conflict included, ends compute.
fn classify(kind: &EventKind) -> Phase {
    match kind {
        EventKind::DiskAppend { .. }
        | EventKind::DiskReplay { .. }
        | EventKind::DiskGroupCommit { .. }
        | EventKind::SegmentSeal { .. } => Phase::Fsync,
        EventKind::MsgSend { .. }
        | EventKind::MsgDeliver { .. }
        | EventKind::MsgDrop { .. }
        | EventKind::MsgDup { .. } => Phase::Network,
        EventKind::TpcVote { .. }
        | EventKind::TpcDecide { .. }
        | EventKind::TpcResolve { .. }
        | EventKind::ReplicaWrite { .. }
        | EventKind::ReplicaInstall { .. }
        | EventKind::ReplicaRead { .. }
        | EventKind::CatchupBegin { .. }
        | EventKind::CatchupEnd { .. } => Phase::TwoPc,
        _ => Phase::Compute,
    }
}

fn colour_indices(colours: u64) -> impl Iterator<Item = u32> {
    (0..64u32).filter(move |i| colours & (1 << i) != 0)
}

/// Per-colour latency attribution of committed top-level actions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColourBreakdown {
    /// How many committed top-level actions carried the colour.
    pub actions: u64,
    /// Sum of their end-to-end latencies (µs).
    pub total_us: u64,
    /// Attribution by [`Phase`] discriminant; sums exactly to
    /// `total_us`.
    pub phases: [u64; Phase::COUNT],
}

/// Aggregate 2PC transaction timing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnBreakdown {
    /// Transactions traced.
    pub count: u64,
    /// Sum of first-to-last 2PC event windows (µs).
    pub total_us: u64,
    /// First 2PC event to the coordinator's decision.
    pub vote_collection_us: u64,
    /// Decision to the last resolution.
    pub resolution_us: u64,
}

/// What [`SpanForest::critical_path`] found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// Per-colour breakdown (key = colour index). A multi-coloured
    /// action contributes to each of its colours' rows.
    pub colours: BTreeMap<u32, ColourBreakdown>,
    /// Aggregate 2PC timing.
    pub txns: TxnBreakdown,
}

impl fmt::Display for CriticalPathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "critical path — committed top-level actions by colour:")?;
        write!(f, "{:<8} {:>8} {:>10}", "colour", "actions", "total_us")?;
        for name in Phase::NAMES {
            write!(f, " {name:>10}")?;
        }
        writeln!(f)?;
        if self.colours.is_empty() {
            writeln!(f, "  (no committed top-level actions in trace)")?;
        }
        for (colour, row) in &self.colours {
            write!(f, "c{colour:<7} {:>8} {:>10}", row.actions, row.total_us)?;
            for us in row.phases {
                write!(f, " {us:>10}")?;
            }
            writeln!(f)?;
        }
        if self.txns.count > 0 {
            writeln!(
                f,
                "2pc — {} transaction(s), {} µs total: vote collection {} µs, decision propagation {} µs",
                self.txns.count,
                self.txns.total_us,
                self.txns.vote_collection_us,
                self.txns.resolution_us
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chroma_base::{Colour, LockMode};

    fn ev(at_us: u64, kind: EventKind) -> Event {
        Event::at(at_us, kind)
    }

    #[test]
    fn nested_actions_fold_into_a_tree() {
        let a = ActionId::from_raw(1);
        let b = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let events = vec![
            ev(
                0,
                EventKind::ActionBegin {
                    action: a,
                    parent: None,
                    colours: 1,
                },
            ),
            ev(
                10,
                EventKind::ActionBegin {
                    action: b,
                    parent: Some(a),
                    colours: 1,
                },
            ),
            ev(
                20,
                EventKind::LockConflict {
                    action: b,
                    object: o,
                    colour: c,
                    mode: LockMode::Write,
                },
            ),
            ev(
                35,
                EventKind::LockGrant {
                    action: b,
                    object: o,
                    colour: c,
                    mode: LockMode::Write,
                },
            ),
            ev(50, EventKind::ActionCommit { action: b }),
            ev(80, EventKind::ActionCommit { action: a }),
        ];
        let forest = SpanForest::build(&events);
        assert_eq!(forest.roots.len(), 1);
        let root = &forest.spans[forest.roots[0]];
        assert_eq!(root.begin_us, 0);
        assert_eq!(root.end_us, 80);
        assert!(
            matches!(
                root.kind,
                SpanKind::Action {
                    outcome: Outcome::Committed,
                    ..
                }
            ),
            "{:?}",
            root.kind
        );
        assert_eq!(root.children.len(), 1);
        let child = &forest.spans[root.children[0]];
        assert_eq!((child.begin_us, child.end_us), (10, 50));
        // the child's lock wait is a grandchild span of 15 µs
        assert_eq!(child.children.len(), 1);
        let wait = &forest.spans[child.children[0]];
        assert!(matches!(wait.kind, SpanKind::LockWait { .. }));
        assert_eq!(wait.duration_us(), 15);
    }

    #[test]
    fn critical_path_partitions_latency_exactly() {
        let a = ActionId::from_raw(1);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(2);
        let events = vec![
            ev(
                0,
                EventKind::ActionBegin {
                    action: a,
                    parent: None,
                    colours: 0b100,
                },
            ),
            ev(
                5,
                EventKind::LockConflict {
                    action: a,
                    object: o,
                    colour: c,
                    mode: LockMode::Write,
                },
            ),
            // 25 µs of lock wait (30 - 5)
            ev(
                30,
                EventKind::LockGrant {
                    action: a,
                    object: o,
                    colour: c,
                    mode: LockMode::Write,
                },
            ),
            ev(
                40,
                EventKind::UndoRecord {
                    action: a,
                    object: o,
                    colour: c,
                },
            ),
            // 50 µs of fsync (90 - 40)
            ev(
                90,
                EventKind::DiskGroupCommit {
                    batches: 1,
                    records: 2,
                    bytes: 64,
                },
            ),
            ev(100, EventKind::ActionCommit { action: a }),
        ];
        let forest = SpanForest::build(&events);
        let report = forest.critical_path(&events);
        let row = report.colours.get(&2).expect("colour 2 committed");
        assert_eq!(row.actions, 1);
        assert_eq!(row.total_us, 100);
        assert_eq!(row.phases[Phase::LockWait as usize], 25);
        assert_eq!(row.phases[Phase::Fsync as usize], 50);
        // the partition is exact: phases sum to the measured latency
        assert_eq!(row.phases.iter().sum::<u64>(), row.total_us);
        let text = report.to_string();
        assert!(text.contains("lock_wait"), "{text}");
        assert!(text.contains("c2"), "{text}");
    }

    #[test]
    fn only_a_conflict_opens_a_lock_wait() {
        let a = ActionId::from_raw(1);
        let free = ObjectId::from_raw(5);
        let held = ObjectId::from_raw(6);
        let refused = ObjectId::from_raw(7);
        let c = Colour::from_index(0);
        let mode = LockMode::Write;
        let grant = |object| EventKind::LockGrant {
            action: a,
            object,
            colour: c,
            mode,
        };
        let conflict = |object| EventKind::LockConflict {
            action: a,
            object,
            colour: c,
            mode,
        };
        let events = vec![
            ev(
                0,
                EventKind::ActionBegin {
                    action: a,
                    parent: None,
                    colours: 0b1,
                },
            ),
            // uncontended: the 10 µs before the grant are compute
            ev(10, grant(free)),
            // contended: 5 µs of compute to the first failed check,
            // then 30 µs of lock wait to the grant
            ev(15, conflict(held)),
            ev(45, grant(held)),
            // refused and never granted (a try-acquire): no wait is
            // charged, though its span runs to the action's end
            ev(50, conflict(refused)),
            ev(60, EventKind::ActionCommit { action: a }),
        ];
        let forest = SpanForest::build(&events);
        let root = &forest.spans[forest.roots[0]];
        let waits: Vec<_> = root
            .children
            .iter()
            .map(|&w| &forest.spans[w])
            .map(|w| (w.kind, w.begin_us, w.end_us))
            .collect();
        assert_eq!(
            waits,
            vec![
                (
                    SpanKind::LockWait {
                        action: a,
                        object: held
                    },
                    15,
                    45
                ),
                (
                    SpanKind::LockWait {
                        action: a,
                        object: refused
                    },
                    50,
                    60
                ),
            ],
            "no wait span for the uncontended grant"
        );
        let row = forest.critical_path(&events).colours[&0].clone();
        assert_eq!(row.phases[Phase::LockWait as usize], 30, "conflict → grant");
        assert_eq!(row.phases[Phase::Compute as usize], 30);
        assert_eq!(row.phases.iter().sum::<u64>(), row.total_us);

        // an uncontended acquire alone: no wait span, 0 µs of lock wait
        let events = [
            events[0],
            events[1],
            ev(20, EventKind::ActionCommit { action: a }),
        ];
        let forest = SpanForest::build(&events);
        assert!(forest.spans[forest.roots[0]].children.is_empty());
        let row = forest.critical_path(&events).colours[&0].clone();
        assert_eq!(row.phases[Phase::LockWait as usize], 0);
        assert_eq!(row.phases[Phase::Compute as usize], 20);
    }

    #[test]
    fn flows_pair_sends_with_deliveries_under_dup_and_loss() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let msg = |kind| EventKind::MsgSend {
            from: n1,
            to: n2,
            kind,
        };
        let deliver = |kind| EventKind::MsgDeliver {
            from: n1,
            to: n2,
            kind,
        };
        let with_corr = |mut e: Event, corr: u64| {
            e.corr = NonZeroU64::new(corr);
            e
        };
        let events = vec![
            with_corr(ev(0, msg(MsgKind::Prepare)), 1),
            // corr 1 is duplicated: two deliveries, one send
            with_corr(ev(5, deliver(MsgKind::Prepare)), 1),
            with_corr(ev(9, deliver(MsgKind::Prepare)), 1),
            // corr 2 is lost: send, no delivery
            with_corr(ev(12, msg(MsgKind::Decision)), 2),
            // corr 3 arrives from nowhere
            with_corr(ev(20, deliver(MsgKind::Ack)), 3),
        ];
        let forest = SpanForest::build(&events);
        assert_eq!(forest.flows.len(), 2, "one flow per delivery of corr 1");
        assert!(forest.flows.iter().all(|f| f.corr == 1 && f.send_idx == 0));
        assert_eq!(forest.unpaired_sends, vec![2]);
        assert_eq!(forest.unpaired_receives, vec![3]);
    }

    #[test]
    fn snapshot_scope_folds_into_a_child_span() {
        let a = ActionId::from_raw(9);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let events = vec![
            ev(
                0,
                EventKind::ActionBegin {
                    action: a,
                    parent: None,
                    colours: 0,
                },
            ),
            // a repeated open still makes one scope
            ev(
                5,
                EventKind::SnapshotOpen {
                    action: a,
                    stamp: 3,
                },
            ),
            ev(
                6,
                EventKind::SnapshotOpen {
                    action: a,
                    stamp: 1,
                },
            ),
            ev(
                20,
                EventKind::SnapshotRead {
                    action: a,
                    object: o,
                    colour: c,
                    stamp: 3,
                },
            ),
            // GC sweeps belong to no span
            ev(
                25,
                EventKind::VersionGc {
                    reclaimed: 2,
                    retained: 1,
                },
            ),
            ev(30, EventKind::ActionCommit { action: a }),
        ];
        let forest = SpanForest::build(&events);
        assert_eq!(forest.roots.len(), 1);
        let root = &forest.spans[forest.roots[0]];
        assert_eq!(root.children.len(), 1, "one snapshot scope");
        let snap = &forest.spans[root.children[0]];
        assert_eq!(snap.kind, SpanKind::Snapshot { action: a });
        assert_eq!((snap.begin_us, snap.end_us), (5, 30), "open to commit");
        assert_eq!(snap.events, vec![1, 2, 3], "opens and reads attributed");
        assert_eq!(snap.label(), format!("snapshot {a}"));
        // the critical-path partition stays exact with the new span
        let report = forest.critical_path(&events);
        assert!(report.colours.is_empty(), "colour-less snapshot action");
    }

    #[test]
    fn txn_spans_split_at_the_decision() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let n3 = NodeId::from_raw(3);
        let events = vec![
            ev(
                10,
                EventKind::TpcVote {
                    node: n3,
                    txn: 4,
                    yes: true,
                },
            ),
            ev(
                20,
                EventKind::TpcVote {
                    node: n2,
                    txn: 4,
                    yes: true,
                },
            ),
            ev(
                50,
                EventKind::TpcDecide {
                    node: n1,
                    txn: 4,
                    commit: true,
                    participants: 2,
                },
            ),
            ev(
                70,
                EventKind::TpcResolve {
                    node: n2,
                    txn: 4,
                    commit: true,
                },
            ),
        ];
        let forest = SpanForest::build(&events);
        let report = forest.critical_path(&events);
        assert_eq!(report.txns.count, 1);
        assert_eq!(report.txns.total_us, 60);
        assert_eq!(report.txns.vote_collection_us, 40);
        assert_eq!(report.txns.resolution_us, 20);
    }

    #[test]
    fn txn_span_of_a_merged_trace_opens_at_its_earliest_stamp() {
        // two nodes' traces merged in causal order: the first voter's
        // clock reads ahead of the coordinator's, so the first event in
        // trace order is not the earliest stamp
        let coordinator = NodeId::from_raw(1);
        let voter = NodeId::from_raw(2);
        let events = vec![
            ev(
                100,
                EventKind::TpcVote {
                    node: voter,
                    txn: 9,
                    yes: true,
                },
            ),
            ev(
                30,
                EventKind::TpcVote {
                    node: coordinator,
                    txn: 9,
                    yes: true,
                },
            ),
            ev(
                45,
                EventKind::TpcDecide {
                    node: coordinator,
                    txn: 9,
                    commit: true,
                    participants: 2,
                },
            ),
            ev(
                130,
                EventKind::TpcResolve {
                    node: voter,
                    txn: 9,
                    commit: true,
                },
            ),
        ];
        let forest = SpanForest::build(&events);
        let txns = forest.critical_path(&events).txns;
        assert_eq!(txns.vote_collection_us + txns.resolution_us, txns.total_us);
        assert_eq!(txns.total_us, 100);
        assert_eq!(txns.vote_collection_us, 15);
        assert_eq!(txns.resolution_us, 85);
        let span = &forest.spans[forest.roots[0]];
        assert_eq!((span.begin_us, span.end_us), (30, 130));
    }
}
