//! The Chroma benchmark runner.
//!
//! ```text
//! chroma-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, as BENCHMARK.json's contract runs it: the last line
//!     of stdout is one JSON object with the end-to-end metrics
//!     (--trace 0) or the per-layer metrics (--trace 1)
//! chroma-benchmark [--seed <n>] [--seconds <s>]
//!     every workload, untraced and traced; prints every metric by name
//!     with its unit and writes bench/out/<workload>.json
//! chroma-benchmark --smoke
//!     every workload at 1/20 of its work, one repetition, checks on
//! chroma-benchmark --selfcheck [--seed <n>] [--seconds <s>]
//!     A/A noise check: per workload, two alternating sets of five
//!     invocations of this same build, compared against the bounds;
//!     writes bench/out/selfcheck.json
//! ```
//!
//! Every repetition runs in a child process of the runner (this same
//! executable, `--rep-child`), on fresh state, so that its peak resident
//! set is its own.

#![forbid(unsafe_code)]

mod gen;
mod metrics;
mod probes;
mod procfs;
mod report;
mod span;
mod stats;
mod timed_backend;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{Values, END_TO_END, PER_LAYER};
use report::{Measured, Selfcheck};
use workloads::{Mode, RepParams, Workload, REF_SECONDS};

/// Repetitions behind every end-to-end number.
const REPS: usize = 5;
/// `--smoke` divides the work by this.
const SMOKE_DIVISOR: u64 = 20;
/// `--selfcheck`: invocations per set.
const SELFCHECK_RUNS: usize = 5;

/// Where trace files and raw outputs go.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    selfcheck: bool,
    /// `--rep-child <mode>`: be one repetition.
    rep_child: Option<Mode>,
    /// `--scale <num>/<den>` (with `--rep-child`).
    scale: (u64, u64),
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 42,
            seconds: REF_SECONDS,
            trace: None,
            smoke: false,
            selfcheck: false,
            rep_child: None,
            scale: (1, 1),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--smoke" => parsed.smoke = true,
                "--selfcheck" => parsed.selfcheck = true,
                _ => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("flag {flag} needs a value"))?;
                    let bad = || format!("bad value for {flag}: {value}");
                    match flag.as_str() {
                        "--workload" => {
                            parsed.workload = Some(Workload::parse(value).ok_or_else(bad)?);
                        }
                        "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                        "--seconds" => {
                            parsed.seconds = value.parse().map_err(|_| bad())?;
                            if !(1..=600).contains(&parsed.seconds) {
                                return Err(bad());
                            }
                        }
                        "--trace" => {
                            parsed.trace = Some(match value.as_str() {
                                "0" => false,
                                "1" => true,
                                _ => return Err(bad()),
                            });
                        }
                        "--rep-child" => {
                            parsed.rep_child = Some(Mode::parse(value).ok_or_else(bad)?);
                        }
                        "--scale" => {
                            let (num, den) = value.split_once('/').ok_or_else(bad)?;
                            parsed.scale = (
                                num.parse().map_err(|_| bad())?,
                                den.parse().map_err(|_| bad())?,
                            );
                            if parsed.scale.1 == 0 {
                                return Err(bad());
                            }
                        }
                        _ => return Err(format!("unknown flag {flag}")),
                    }
                }
            }
        }
        Ok(parsed)
    }

    /// Work scale of this invocation: `--seconds` against the reference
    /// run length, or 1/20 of the reference for `--smoke`.
    fn run_scale(&self) -> (u64, u64) {
        if self.smoke {
            (1, SMOKE_DIVISOR)
        } else {
            (self.seconds, REF_SECONDS)
        }
    }
}

/// One repetition in a child process of the runner.
fn spawn_rep(
    workload: Workload,
    mode: Mode,
    seed: u64,
    (num, den): (u64, u64),
) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--rep-child", mode.name()])
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &format!("{num}/{den}")])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} {} repetition exited with {}",
            workload.name(),
            mode.name(),
            output.status
        ));
    }
    let values = Values::from_lines(&String::from_utf8_lossy(&output.stdout));
    if values.0.is_empty() {
        return Err(format!(
            "{} {} repetition reported nothing",
            workload.name(),
            mode.name()
        ));
    }
    Ok(values)
}

/// Being the child: run the repetition, leave the trace file, print the
/// numbers.
fn rep_child(args: &Args, mode: Mode, started: Instant) -> Result<(), String> {
    let workload = args.workload.ok_or("--rep-child needs --workload")?;
    let params = RepParams {
        workload,
        mode,
        seed: args.seed,
        scale_num: args.scale.0,
        scale_den: args.scale.1,
        started,
    };
    let output = workloads::run_rep(&params);
    if let Some(trace) = output.trace_json {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, trace).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    print!("{}", output.values.to_lines());
    Ok(())
}

/// The untraced measurement: [`REPS`] repetitions (`reps`) on fresh
/// state; every end-to-end metric is the median over them.
fn measure_untraced(
    workload: Workload,
    seed: u64,
    scale: (u64, u64),
    reps: usize,
) -> Result<Measured, String> {
    let mut all = Vec::with_capacity(reps);
    for rep in 0..reps {
        let values = spawn_rep(workload, Mode::Untraced, seed, scale)?;
        println!(
            "  {} rep {}: {:.1} ops/s, p50 {:.1} us, rss {:.1} MiB, setup {:.3} s",
            workload.name(),
            rep + 1,
            values.get("throughput_ops_s"),
            values.get("latency_p50_us"),
            values.get("peak_rss_mb"),
            values.get("setup_s"),
        );
        all.push(values);
    }
    Ok(Measured::from_reps(all))
}

/// The traced measurement: one untraced repetition for the base, one
/// traced, and for `contended_structures` its twin without the event
/// bus. Per-layer numbers come from the traced repetition and its
/// probes; `driver.*`, `node.*` and the event-bus counts come from the
/// untraced one, which is the run they describe.
fn measure_traced(workload: Workload, seed: u64, scale: (u64, u64)) -> Result<Measured, String> {
    let base = spawn_rep(workload, Mode::Untraced, seed, scale)?;
    let traced = spawn_rep(workload, Mode::Traced, seed, scale)?;
    let mut layers = traced.clone();
    for (name, value) in &base.0 {
        if ["driver.", "node.", "obs."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            layers.set(name, *value);
        }
    }
    layers.set(
        "driver.trace_overhead_ratio",
        traced.get("throughput_ops_s") / base.get("throughput_ops_s"),
    );
    let mut children = vec![base.clone(), traced];
    if workload == Workload::ContendedStructures {
        let twin = spawn_rep(workload, Mode::Twin, seed, scale)?;
        layers.set(
            "obs.monitoring_overhead_ratio",
            twin.get("throughput_ops_s") / base.get("throughput_ops_s"),
        );
        children.push(twin);
    }
    let mut measured = Measured::from_reps(children);
    measured.per_layer = layers;
    Ok(measured)
}

/// One workload the way `BENCHMARK.json`'s contract runs it.
fn contract_run(args: &Args, workload: Workload, traced: bool) -> Result<bool, String> {
    let env = procfs::Environment::detect();
    println!("{}", report::environment_line(&env));
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    let measured = if traced {
        measure_traced(workload, args.seed, args.run_scale())?
    } else {
        measure_untraced(workload, args.seed, args.run_scale(), REPS)?
    };
    let defs: &[metrics::MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    let source = if traced {
        &measured.per_layer
    } else {
        &measured.end_to_end
    };
    println!("{}", report::metric_table(defs, source));
    println!("{}", report::result_line(&measured, defs, source));
    Ok(measured.correct && measured.failed == 0)
}

/// Every workload, untraced and traced; raw outputs under `bench/out`.
fn full_run(args: &Args) -> Result<bool, String> {
    let env = procfs::Environment::detect();
    println!("{}", report::environment_line(&env));
    let reps = if args.smoke { 1 } else { REPS };
    let mut all_ok = true;
    for workload in Workload::ALL {
        println!("== {} (seed {})", workload.name(), args.seed);
        let mut measured = measure_untraced(workload, args.seed, args.run_scale(), reps)?;
        println!(
            "{}",
            report::metric_table(&END_TO_END, &measured.end_to_end)
        );
        println!(
            "  driver.rep_spread {:.4}  driver.input_hash {}",
            measured.rep_spread,
            measured.reps[0].get("driver.input_hash")
        );
        if !args.smoke {
            let traced = measure_traced(workload, args.seed, args.run_scale())?;
            println!("{}", report::metric_table(&PER_LAYER, &traced.per_layer));
            measured.per_layer = traced.per_layer;
            measured.attempted += traced.attempted;
            measured.failed += traced.failed;
            measured.correct &= traced.correct;
        }
        println!(
            "  attempted {} failed {} correct {}",
            measured.attempted, measured.failed, measured.correct
        );
        all_ok &= measured.correct && measured.failed == 0;
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", workload.name()));
        let raw = report::raw_output(workload, args.seed, args.seconds, &env, &measured);
        std::fs::write(&path, raw).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

/// A/A noise check: per workload, ten invocations of this build one
/// after the other, alternately assigned to set A and set B, each with
/// another seed — the way the benchmark's driver runs a workload.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let env = procfs::Environment::detect();
    println!("{}", report::environment_line(&env));
    let mut check = Selfcheck::default();
    for workload in Workload::ALL {
        for run in 0..2 * SELFCHECK_RUNS {
            let (set, seed) = (run % 2, args.seed + run as u64);
            println!(
                "== {} invocation {} (set {}, seed {seed})",
                workload.name(),
                run + 1,
                ["A", "B"][set]
            );
            let measured = measure_untraced(workload, seed, args.run_scale(), REPS)?;
            if !(measured.correct && measured.failed == 0) {
                return Err(format!("{} failed its check", workload.name()));
            }
            check.add(workload, set, &measured.end_to_end);
        }
    }
    let (table, json, pass) = check.verdict(args.seed, args.seconds, &env);
    println!("{table}");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("selfcheck.json");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(pass)
}

fn main() -> ExitCode {
    let started = Instant::now();
    if cfg!(debug_assertions) {
        eprintln!("chroma-benchmark: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("chroma-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.rep_child, args.workload, args.trace) {
        (Some(mode), _, _) => rep_child(&args, mode, started).map(|()| true),
        (None, _, _) if args.selfcheck => selfcheck(&args),
        (None, Some(workload), trace) if !args.smoke => {
            contract_run(&args, workload, trace.unwrap_or(false))
        }
        _ => full_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("chroma-benchmark: a correctness check or an operation failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("chroma-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let args = parse(&[
            "--workload",
            "read_mostly",
            "--seed",
            "7",
            "--seconds",
            "6",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::ReadMostly));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 6, Some(true)));
        assert_eq!(args.run_scale(), (6, REF_SECONDS));
        assert_eq!(parse(&["--smoke"]).unwrap().run_scale(), (1, SMOKE_DIVISOR));
        assert_eq!(parse(&[]).unwrap().seed, 42);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--scale", "1/0"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn reference_seconds_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.contains(&format!("\"run_seconds\": {REF_SECONDS}")));
        for workload in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
        }
    }
}
