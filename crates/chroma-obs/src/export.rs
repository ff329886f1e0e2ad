//! Chrome trace-event JSON export (loadable in Perfetto or
//! `chrome://tracing`).
//!
//! The exported profile has one *process* (track group) per traced
//! node — plus a `local` track for node-less events — with
//! reconstructed spans as complete (`"X"`) slices, crashes and
//! recoveries as instants, and one flow arrow (`"s"`/`"f"` pair) per
//! correlated send/delivery, anchored on thin per-message slices so
//! the arrows survive viewers that bind flows to enclosing slices.
//!
//! Timestamps are microseconds, which is exactly the unit the event
//! bus stamps, so no scaling happens on export.

use chroma_base::NodeId;

use crate::event::{escape_json_str, Event, EventKind};
use crate::span::{SpanForest, SpanKind};

/// Builds the trace-event JSON for a captured event slice.
#[must_use]
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_trace_from(&SpanForest::build(events), events)
}

/// Builds the trace-event JSON from an already-built forest (must be
/// the forest of `events`).
#[must_use]
pub fn chrome_trace_from(forest: &SpanForest, events: &[Event]) -> String {
    let mut entries: Vec<String> = Vec::new();

    // one process per node; metadata names the tracks
    let mut pids: Vec<u64> = events.iter().map(|e| pid(e.node)).collect();
    pids.sort_unstable();
    pids.dedup();
    for &p in &pids {
        let name = if p == 0 {
            "local".to_owned()
        } else {
            format!("node N{}", p - 1)
        };
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":1,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json_str(&name)
        ));
        // order tracks by node id, local last
        let sort = if p == 0 { u64::from(u32::MAX) } else { p };
        entries.push(format!(
            "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{p},\"tid\":1,\
             \"args\":{{\"sort_index\":{sort}}}}}"
        ));
    }

    for span in &forest.spans {
        let cat = match span.kind {
            SpanKind::Action { .. } => "action",
            SpanKind::LockWait { .. } => "lock",
            SpanKind::Txn { .. } => "2pc",
            SpanKind::Catchup { .. } => "catchup",
            SpanKind::Snapshot { .. } => "snapshot",
        };
        entries.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":1}}",
            escape_json_str(&span.label()),
            span.begin_us,
            span.duration_us().max(1),
            pid(span.node)
        ));
    }

    for event in events {
        match event.kind {
            EventKind::NodeCrash { node } => entries.push(instant("crash", node, event.at_us)),
            EventKind::NodeRecover { node } => {
                entries.push(instant("recover", node, event.at_us));
            }
            // version-chain GC sweeps have no span; show them as
            // instants on the emitting track
            EventKind::VersionGc {
                reclaimed,
                retained,
            } => {
                entries.push(format!(
                    "{{\"name\":\"version gc\",\"cat\":\"gc\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{},\"pid\":{},\"tid\":1,\
                     \"args\":{{\"reclaimed\":{reclaimed},\"retained\":{retained}}}}}",
                    event.at_us,
                    pid(event.node)
                ));
            }
            _ => {}
        }
    }

    for flow in &forest.flows {
        let name = escape_json_str(&format!("msg {}", flow.kind));
        let from_pid = pid(Some(flow.from));
        let to_pid = pid(Some(flow.to));
        // thin slices anchor the arrow endpoints on both tracks
        entries.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
             \"pid\":{from_pid},\"tid\":1}}",
            flow.send_us
        ));
        entries.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
             \"pid\":{to_pid},\"tid\":1}}",
            flow.recv_us
        ));
        // recv_idx is unique per flow, so it doubles as the arrow id
        entries.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"net\",\"ph\":\"s\",\"id\":{},\"ts\":{},\
             \"pid\":{from_pid},\"tid\":1}}",
            flow.recv_idx, flow.send_us
        ));
        entries.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"net\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
             \"ts\":{},\"pid\":{to_pid},\"tid\":1}}",
            flow.recv_idx, flow.recv_us
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn pid(node: Option<NodeId>) -> u64 {
    node.map_or(0, |n| u64::from(n.as_raw()) + 1)
}

fn instant(name: &str, node: NodeId, at_us: u64) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"node\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{at_us},\
         \"pid\":{},\"tid\":1}}",
        pid(Some(node))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MsgKind;
    use chroma_base::ActionId;

    #[test]
    fn export_has_node_tracks_and_flow_arrows() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let with_corr = |mut e: Event, corr: u64| {
            e.corr = std::num::NonZeroU64::new(corr);
            e
        };
        let events = vec![
            Event::at(
                0,
                EventKind::ActionBegin {
                    action: ActionId::from_raw(1),
                    parent: None,
                    colours: 1,
                },
            ),
            with_corr(
                Event::at(
                    5,
                    EventKind::MsgSend {
                        from: n1,
                        to: n2,
                        kind: MsgKind::Prepare,
                    },
                ),
                1,
            ),
            with_corr(
                Event::at(
                    9,
                    EventKind::MsgDeliver {
                        from: n1,
                        to: n2,
                        kind: MsgKind::Prepare,
                    },
                ),
                1,
            ),
            Event::at(12, EventKind::NodeCrash { node: n2 }),
            Event::at(
                20,
                EventKind::ActionCommit {
                    action: ActionId::from_raw(1),
                },
            ),
        ];
        let json = chrome_trace(&events);
        // one track per node plus the local track
        assert!(json.contains("\"name\":\"node N1\""), "{json}");
        assert!(json.contains("\"name\":\"node N2\""), "{json}");
        assert!(json.contains("\"name\":\"local\""), "{json}");
        // the send/deliver pair became a flow arrow
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1, "{json}");
        // the crash is an instant on N2's track
        assert!(json.contains("\"name\":\"crash\""), "{json}");
        // the action span exported as a complete slice
        assert!(json.contains("\"cat\":\"action\""), "{json}");
    }

    #[test]
    fn export_has_snapshot_slices_and_gc_instants() {
        use chroma_base::{Colour, ObjectId};
        let a = ActionId::from_raw(9);
        let events = vec![
            Event::at(
                0,
                EventKind::ActionBegin {
                    action: a,
                    parent: None,
                    colours: 0,
                },
            ),
            Event::at(
                2,
                EventKind::SnapshotOpen {
                    action: a,
                    stamp: 3,
                },
            ),
            Event::at(
                5,
                EventKind::SnapshotRead {
                    action: a,
                    object: ObjectId::from_raw(7),
                    colour: Colour::from_index(0),
                    stamp: 3,
                },
            ),
            Event::at(
                8,
                EventKind::VersionGc {
                    reclaimed: 4,
                    retained: 2,
                },
            ),
            Event::at(10, EventKind::ActionCommit { action: a }),
        ];
        let json = chrome_trace(&events);
        // the snapshot scope exported as a categorized slice
        assert!(json.contains("\"cat\":\"snapshot\""), "{json}");
        assert!(json.contains(&format!("snapshot {a}")), "{json}");
        // the GC sweep is an instant carrying its counters
        assert!(json.contains("\"name\":\"version gc\""), "{json}");
        assert!(
            json.contains("\"args\":{\"reclaimed\":4,\"retained\":2}"),
            "{json}"
        );
    }
}
