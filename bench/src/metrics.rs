//! The benchmark's metric names, units and directions — the same table
//! `BENCHMARK.json` carries (a unit test holds the two together) — and
//! the flat name → value map a repetition reports.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end
    /// metrics only; `0.0` for per-layer ones, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

const fn layer_up(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

/// What a user of the system sees; the same four on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("throughput_ops_s", "ops/s", true, 0.25),
    e2e("latency_p50_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Single-layer metrics, layer = crate. A workload that does not
/// exercise a layer reports its metrics as 0.
pub const PER_LAYER: [MetricDef; 72] = [
    // chroma-core
    layer("core.op_self_us", "us"),
    layer("core.empty_action_ns", "ns"),
    layer("core.actions_per_op", "count"),
    layer("core.actions_begun", "count"),
    layer_up("core.actions_committed", "count"),
    layer("core.actions_aborted", "count"),
    layer("core.deadlock_victims", "count"),
    layer("core.retries_per_op", "count"),
    // chroma-locks
    layer("locks.waits", "count"),
    layer("locks.wait_us_total", "us"),
    layer("locks.wait_share", "ratio"),
    layer("locks.probe_acquire_release_ns", "ns"),
    layer("locks.probe_inherit_ns", "ns"),
    layer("locks.entries_max", "count"),
    // chroma-store: write side
    layer("store.commit_batch_us_p50", "us"),
    layer("store.commit_batch_us_p99", "us"),
    layer("store.commit_share", "ratio"),
    layer("store.fsyncs_per_commit", "count"),
    layer("store.dir_fsyncs_per_kcommit", "count"),
    layer("store.log_bytes_per_commit", "B"),
    layer("store.write_amp", "ratio"),
    layer("store.segments_sealed", "count"),
    layer("store.checkpoints", "count"),
    layer("store.ckpt_backlog_max", "count"),
    // chroma-store: recovery side
    layer("store.open_us", "us"),
    layer("store.replay_us_per_batch", "us"),
    layer("store.replayed_batches", "count"),
    layer("store.open_noreplay_us", "us"),
    // chroma-store: read side and space
    layer("store.snapshot_read_ns_p50", "ns"),
    layer("store.backend_reads_per_op", "count"),
    layer("store.versions_max", "count"),
    layer("store.gc_runs", "count"),
    layer("store.gc_reclaimed", "count"),
    layer("store.codec_encode_ns", "ns"),
    layer("store.codec_decode_ns", "ns"),
    // chroma-structures
    layer("structures.serializing_us_p50", "us"),
    layer("structures.glued_us_p50", "us"),
    layer("structures.independent_us_p50", "us"),
    layer("structures.coloured_vs_nested_ratio", "ratio"),
    // chroma-obs
    layer("obs.events_per_op", "count"),
    layer("obs.monitoring_overhead_ratio", "ratio"),
    layer("obs.jsonl_encode_ns", "ns"),
    layer("obs.watchdog_violations", "count"),
    // chroma-dist
    layer("dist.dispatch_us_per_txn", "us"),
    layer("dist.persist_us_per_txn", "us"),
    layer("dist.persists_per_txn", "count"),
    layer("dist.persist_bytes_per_txn", "B"),
    layer("dist.persist_bytes_growth", "ratio"),
    layer("dist.fsyncs_per_txn", "count"),
    layer("dist.msgs_per_txn", "count"),
    layer("dist.wire_bytes_per_txn", "B"),
    layer("dist.wire_encode_ns", "ns"),
    layer("dist.wire_decode_ns", "ns"),
    layer("dist.poll_wait_us_per_txn", "us"),
    layer("dist.resent", "count"),
    layer("dist.duplicates", "count"),
    layer("dist.gaps", "count"),
    layer("dist.reconnects", "count"),
    layer("dist.send_errors", "count"),
    layer("dist.sim_cpu_us_per_txn", "us"),
    layer("dist.tcp_vs_sim_ratio", "ratio"),
    // chroma-node
    layer("node.cpu_ms_per_txn", "ms"),
    layer("node.disk_write_bytes_per_txn", "B"),
    layer("node.trace_bytes_per_txn", "B"),
    layer("node.rss_mb_coordinator", "MiB"),
    layer("node.rss_mb_worker", "MiB"),
    layer("node.spawn_ready_ms", "ms"),
    // the benchmark itself
    layer("driver.latency_p99_us", "us"),
    layer("driver.latency_max_us", "us"),
    layer_up("driver.samples", "count"),
    layer_up("driver.trace_overhead_ratio", "ratio"),
    layer("driver.input_hash", "hash"),
];

/// Bookkeeping a repetition reports next to its metrics.
pub const ATTEMPTED: &str = "rep.attempted";
pub const FAILED: &str = "rep.failed";
pub const CORRECT: &str = "rep.correct";
pub const TIMED_WALL_S: &str = "rep.timed_wall_s";

/// Flat name → value map: what one repetition measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(pub BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// `0.0` for a metric the repetition did not measure.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Copies every entry of `other` in, overwriting.
    pub fn absorb(&mut self, other: &Values) {
        for (name, value) in &other.0 {
            self.0.insert(name.clone(), *value);
        }
    }

    /// One `M <name> <value>` line per entry: how a repetition's child
    /// process hands its numbers to the runner.
    pub fn to_lines(&self) -> String {
        self.0
            .iter()
            .map(|(name, value)| format!("M {name} {value}\n"))
            .collect()
    }

    /// Inverse of [`to_lines`](Self::to_lines); ignores other lines.
    pub fn from_lines(text: &str) -> Values {
        let mut values = Values::default();
        for line in text.lines() {
            let mut words = line.split(' ');
            if let (Some("M"), Some(name), Some(value)) = (words.next(), words.next(), words.next())
            {
                if let Ok(value) = value.parse() {
                    values.set(name, value);
                }
            }
        }
        values
    }
}

/// The 48 low bits of a stream hash: exact in an `f64`.
pub fn hash_as_number(hash: u64) -> f64 {
    (hash & ((1 << 48) - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_all_digits() {
        let mut values = Values::default();
        values.set("throughput_ops_s", 3_187.123_456_789_012);
        values.set("driver.input_hash", hash_as_number(u64::MAX));
        values.set(CORRECT, 1.0);
        let text = format!("noise\n{}OK\n", values.to_lines());
        assert_eq!(Values::from_lines(&text), values);
        assert_eq!(values.get("absent"), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the table above without parsing JSON.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let mut entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                def.name, def.unit
            );
            if def.bound > 0.0 {
                entry.push_str(&format!(", \"bound\": {}", def.bound));
            }
            entry.push('}');
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::Workload::ALL.len(),
            "BENCHMARK.json lists a metric or workload the table does not"
        );
    }
}
