//! Merging per-process traces into one auditable stream.
//!
//! A real (`chroma-node`) deployment writes one Lamport-clocked JSONL
//! trace per process. The offline [`TraceAuditor`](crate::TraceAuditor)
//! wants a single stream in an order consistent with causality — which
//! the per-node Lamport clocks provide: a delivery's clock is forced
//! past the matching send's, so sorting by `(lc, node, source)` puts
//! every send before its receives and is stable for concurrent events.
//!
//! Parsing here is **lenient** where [`Event::from_json_line`] is
//! strict: a `kill -9` mid-write can leave a torn final line in a
//! process's trace, and that must not make the whole cluster's history
//! unauditable. Malformed lines are skipped and counted, never
//! silently absorbed — the count is reported so an unexpected number
//! of skips is visible.

use std::io::{self, BufRead};
use std::path::Path;

use crate::event::Event;

/// The result of merging trace files.
#[derive(Debug)]
pub struct MergeOutcome {
    /// All parsed events, in causal `(lc, node, source)` order.
    pub events: Vec<Event>,
    /// Lines that failed to parse (torn tails, junk) and were skipped.
    pub skipped: usize,
    /// Lines parsed, per input file (same order as the input paths).
    pub per_file: Vec<usize>,
}

/// Merges per-process JSONL trace files into one causally ordered
/// stream, sorted by `(lc, node, source)`: the per-node Lamport clocks
/// put every send before its receives.
///
/// # Errors
///
/// I/O failures opening or reading any input file. Malformed *lines*
/// are not errors; they are skipped and counted.
pub fn merge_trace_files(paths: &[impl AsRef<Path>]) -> io::Result<MergeOutcome> {
    let mut tagged: Vec<(usize, Event)> = Vec::new();
    let mut skipped = 0;
    let mut per_file = Vec::with_capacity(paths.len());
    for (source, path) in paths.iter().enumerate() {
        let file = std::fs::File::open(path.as_ref())?;
        let mut parsed = 0;
        for line in io::BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match Event::from_json_line(&line) {
                Ok(event) => {
                    parsed += 1;
                    tagged.push((source, event));
                }
                Err(_) => skipped += 1,
            }
        }
        per_file.push(parsed);
    }
    merge_sort(&mut tagged);
    Ok(MergeOutcome {
        events: tagged.into_iter().map(|(_, e)| e).collect(),
        skipped,
        per_file,
    })
}

/// Merges already-parsed per-process event streams (each tagged with a
/// source index) into causal order — the in-memory core of
/// [`merge_trace_files`], usable by tests that never touch disk.
pub fn merge_events(inputs: Vec<Vec<Event>>) -> Vec<Event> {
    let mut tagged: Vec<(usize, Event)> = inputs
        .into_iter()
        .enumerate()
        .flat_map(|(source, events)| events.into_iter().map(move |e| (source, e)))
        .collect();
    merge_sort(&mut tagged);
    tagged.into_iter().map(|(_, e)| e).collect()
}

fn merge_sort(tagged: &mut [(usize, Event)]) {
    // stable: within one (lc, node) the source file's own order — which
    // is the emitting process's real order — is preserved
    tagged.sort_by_key(|(source, event)| {
        (
            event.lc,
            event.node.map_or(u32::MAX, chroma_base::NodeId::as_raw),
            *source,
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use chroma_base::NodeId;

    fn ev(node: u32, lc: u64) -> Event {
        let node = NodeId::from_raw(node);
        let mut event = Event::at(12, EventKind::NodeRecover { node });
        event.lc = lc;
        event
    }

    #[test]
    fn merge_orders_by_clock_then_node() {
        let merged = merge_events(vec![vec![ev(2, 5), ev(2, 9)], vec![ev(1, 5), ev(1, 7)]]);
        let order: Vec<(u64, u32)> = merged
            .iter()
            .map(|e| (e.lc, e.node.unwrap().as_raw()))
            .collect();
        assert_eq!(order, vec![(5, 1), (5, 2), (7, 1), (9, 2)]);
    }

    #[test]
    fn merge_files_is_lenient_about_torn_tails() {
        let dir = std::env::temp_dir().join(format!("chroma-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(
            &a,
            format!("{}\n{{\"at_us\":12,\"ev\":\"no", ev(1, 1).to_json_line()),
        )
        .unwrap();
        std::fs::write(&b, format!("{}\n\n", ev(2, 2).to_json_line())).unwrap();
        let outcome = merge_trace_files(&[&a, &b]).unwrap();
        assert_eq!(outcome.events.len(), 2);
        assert_eq!(outcome.skipped, 1, "the torn tail is counted, not fatal");
        assert_eq!(outcome.per_file, vec![1, 1]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
