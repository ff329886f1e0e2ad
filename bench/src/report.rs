//! Turning repetitions into what the benchmark prints and writes: the
//! median-of-repetitions summary, the contract's result line, the raw
//! per-workload output, and the A/A self-check verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{MetricDef, Values, ATTEMPTED, CORRECT, END_TO_END, FAILED, PER_LAYER};
use crate::procfs::Environment;
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::Workload;

/// A JSON number: as measured, with all its digits; `0` for the ratios
/// whose denominator a workload never touched.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// What an invocation measured for one workload.
pub struct Measured {
    /// Every repetition's raw values, kept in the raw output.
    pub reps: Vec<Values>,
    /// Median over the repetitions of each end-to-end metric.
    pub end_to_end: Values,
    /// Per-layer values (filled by the traced measurement).
    pub per_layer: Values,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// `(max - min) / median` of the repetitions' throughput.
    pub rep_spread: f64,
}

impl Measured {
    pub fn from_reps(reps: Vec<Values>) -> Self {
        let mut end_to_end = Values::default();
        for def in &END_TO_END {
            let values: Vec<f64> = reps.iter().map(|r| r.get(def.name)).collect();
            end_to_end.set(def.name, median(&values));
        }
        let throughputs: Vec<f64> = reps.iter().map(|r| r.get("throughput_ops_s")).collect();
        Measured {
            end_to_end,
            per_layer: Values::default(),
            attempted: reps.iter().map(|r| r.get(ATTEMPTED) as u64).sum(),
            failed: reps.iter().map(|r| r.get(FAILED) as u64).sum(),
            correct: reps.iter().all(|r| r.get(CORRECT) == 1.0),
            rep_spread: relative_spread(&throughputs),
            reps,
        }
    }
}

pub fn environment_line(env: &Environment) -> String {
    format!(
        "environment: nproc {} | data dir fs {} | {} | commit {}",
        env.nproc, env.fs_type, env.rustc, env.git_commit
    )
}

fn environment_json(env: &Environment) -> String {
    format!(
        "{{\"nproc\":{},\"data_dir_fs\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\"}}",
        env.nproc, env.fs_type, env.rustc, env.git_commit
    )
}

/// Every metric of `defs` by name, with its value and unit.
pub fn metric_table(defs: &[MetricDef], source: &Values) -> String {
    let mut table = String::new();
    for def in defs {
        let _ = writeln!(
            table,
            "  {:<40} {:>16} {}",
            def.name,
            num(source.get(def.name)),
            def.unit
        );
    }
    table.pop();
    table
}

fn metrics_json(defs: &[MetricDef], source: &Values) -> String {
    let entries: Vec<String> = defs
        .iter()
        .map(|def| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                num(source.get(def.name)),
                def.unit
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The contract's last line of standard output.
pub fn result_line(measured: &Measured, defs: &[MetricDef], source: &Values) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.correct && measured.failed == 0,
        measured.attempted.max(1),
        measured.failed,
        metrics_json(defs, source)
    )
}

/// `bench/out/<workload>.json`: the summary, every repetition, and the
/// environment the numbers were taken in.
pub fn raw_output(
    workload: Workload,
    seed: u64,
    seconds: u64,
    env: &Environment,
    measured: &Measured,
) -> String {
    let reps: Vec<String> = measured
        .reps
        .iter()
        .map(|rep| {
            let entries: Vec<String> = rep
                .0
                .iter()
                .map(|(name, value)| format!("\"{name}\": {}", num(*value)))
                .collect();
            format!("    {{{}}}", entries.join(", "))
        })
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \
         \"environment\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"driver.rep_spread\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {},\n  \
         \"repetitions\": [\n{}\n  ]\n}}\n",
        workload.name(),
        environment_json(env),
        measured.correct,
        measured.attempted,
        measured.failed,
        num(measured.rep_spread),
        metrics_json(&END_TO_END, &measured.end_to_end),
        metrics_json(&PER_LAYER, &measured.per_layer),
        reps.join(",\n")
    )
}

/// The A/A self-check's samples: per workload and end-to-end metric,
/// the values of set A and of set B.
#[derive(Default)]
pub struct Selfcheck {
    samples: BTreeMap<(usize, usize), [Vec<f64>; 2]>,
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the benchmark's driver computes.
fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

impl Selfcheck {
    pub fn add(&mut self, workload: Workload, set: usize, end_to_end: &Values) {
        for (m, def) in END_TO_END.iter().enumerate() {
            self.samples.entry((workload as usize, m)).or_default()[set]
                .push(end_to_end.get(def.name));
        }
    }

    /// The printed table, the JSON to commit, and whether every pairing
    /// passed: the two sets' medians within the metric's bound of each
    /// other, and (except for `setup_s`, as in the driver) every spread
    /// within the bound too.
    pub fn verdict(&self, seed: u64, seconds: u64, env: &Environment) -> (String, String, bool) {
        let mut table = format!(
            "{:<22}{:<18}{:>13}{:>13}{:>9}{:>9}{:>9}{:>8}  verdict\n",
            "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound"
        );
        let mut rows = Vec::new();
        let mut all_pass = true;
        for (&(w, m), sets) in &self.samples {
            let (workload, def) = (Workload::ALL[w], &END_TO_END[m]);
            let [a, b] = sets;
            let (qa, qb) = (quartiles(a), quartiles(b));
            // how much worse set B's median is than set A's (negative:
            // better); either sign beyond the bound is noise too wide
            let worse_by = if def.higher_is_better {
                qa[1] - qb[1]
            } else {
                qb[1] - qa[1]
            };
            let diff = worse_by / qa[1];
            let (spread_a, spread_b) = (quartile_spread(a), quartile_spread(b));
            let pooled: Vec<f64> = a.iter().chain(b).copied().collect();
            let spread_all = quartile_spread(&pooled);
            let spreads_ok = def.name == "setup_s"
                || [spread_a, spread_b, spread_all]
                    .iter()
                    .all(|&s| s <= def.bound);
            let pass = diff.abs() <= def.bound && spreads_ok;
            all_pass &= pass;
            let verdict = if pass { "PASS" } else { "FAIL" };
            let _ = writeln!(
                table,
                "{:<22}{:<18}{:>13.3}{:>13.3}{:>9.4}{:>9.4}{:>9.4}{:>8.2}  {verdict}",
                workload.name(),
                def.name,
                qa[1],
                qb[1],
                diff,
                spread_a,
                spread_b,
                def.bound
            );
            let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"bound\": {}, \
                 \"median_a\": {}, \"median_b\": {}, \"quartiles_a\": [{}], \"quartiles_b\": [{}], \
                 \"relative_difference\": {}, \"spread_a\": {}, \"spread_b\": {}, \
                 \"spread_pooled\": {}, \"values_a\": [{}], \"values_b\": [{}], \"verdict\": \"{verdict}\"}}",
                workload.name(),
                def.name,
                def.unit,
                def.bound,
                num(qa[1]),
                num(qb[1]),
                list(&qa),
                list(&qb),
                num(diff),
                num(spread_a),
                num(spread_b),
                num(spread_all),
                list(a),
                list(b)
            ));
        }
        table.push_str(if all_pass {
            "selfcheck: PASS"
        } else {
            "selfcheck: FAIL"
        });
        let json = format!(
            "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"environment\": {},\n  \
             \"verdict\": \"{}\",\n  \"pairings\": [\n{}\n  ]\n}}\n",
            environment_json(env),
            if all_pass { "PASS" } else { "FAIL" },
            rows.join(",\n")
        );
        (table, json, all_pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(throughput: f64, failed: f64) -> Values {
        let mut v = Values::default();
        v.set("throughput_ops_s", throughput);
        v.set("latency_p50_us", 1e6 / throughput);
        v.set("peak_rss_mb", 10.0);
        v.set("setup_s", 0.5);
        v.set(ATTEMPTED, 100.0);
        v.set(FAILED, failed);
        v.set(CORRECT, 1.0);
        v
    }

    fn env() -> Environment {
        Environment {
            nproc: 2,
            fs_type: "ext4".into(),
            rustc: "rustc 1.0".into(),
            git_commit: "unknown".into(),
        }
    }

    #[test]
    fn summary_is_the_median_of_the_repetitions() {
        let measured = Measured::from_reps(vec![rep(90.0, 0.0), rep(110.0, 1.0), rep(100.0, 0.0)]);
        assert_eq!(measured.end_to_end.get("throughput_ops_s"), 100.0);
        assert_eq!((measured.attempted, measured.failed), (300, 1));
        assert!(measured.correct);
        assert_eq!(measured.rep_spread, 0.2);
        let line = result_line(&measured, &END_TO_END, &measured.end_to_end);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 300, \"failed\": 1, "));
        assert!(line.contains("\"throughput_ops_s\": {\"value\": 100, \"unit\": \"ops/s\"}"));
        assert!(!line.contains('\n'));
        let raw = raw_output(Workload::ReadMostly, 1, 12, &env(), &measured);
        assert!(raw.contains("\"workload\": \"read_mostly\""));
        assert!(raw.contains("\"rep.failed\": 1"));
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn selfcheck_passes_equal_sets_and_fails_shifted_ones() {
        let mut same = Selfcheck::default();
        let mut shifted = Selfcheck::default();
        for i in 0..5 {
            let jitter = 1.0 + f64::from(i) * 0.002;
            for set in 0..2 {
                let e2e = Measured::from_reps(vec![rep(100.0 * jitter, 0.0)]).end_to_end;
                same.add(Workload::DurableCommit, set, &e2e);
                let scale = if set == 0 { 1.0 } else { 1.3 };
                let e2e = Measured::from_reps(vec![rep(100.0 * jitter * scale, 0.0)]).end_to_end;
                shifted.add(Workload::DurableCommit, set, &e2e);
            }
        }
        let (table, json, pass) = same.verdict(42, 12, &env());
        assert!(pass, "{table}");
        assert!(json.contains("\"verdict\": \"PASS\""));
        let (table, json, pass) = shifted.verdict(42, 12, &env());
        assert!(!pass, "{table}");
        assert!(table.contains("FAIL"));
        assert!(json.contains("\"metric\": \"throughput_ops_s\""));
    }
}
