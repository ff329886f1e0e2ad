//! `chroma-load` — a seeded, deterministic end-to-end load harness
//! with latency SLOs.
//!
//! The benchmark's workloads (`bench/`) each stress a few layers; this
//! crate referees the *whole stack*: seeded open- and
//! closed-loop traffic generators behind a [`Workload`] trait drive
//! millions of mixed coloured actions — Zipfian hot-key skew with
//! configurable θ, a configurable read/write/structure mix across
//! serializing/glued/independent colours, and arrival-rate ramps —
//! against the real `Runtime::builder()` + `DiskBackend` stack and the
//! paper's §4 applications (`billing`, `bulletin_board`).
//!
//! The `load_bench` binary (in `src/bin/`) reports per-phase
//! throughput and per-class p50/p95/p99 latency to `BENCH_load.json`,
//! feeds the run's trace through the critical-path profiler so tail
//! latency is attributed to lock-wait/fsync/network/2PC/compute, and
//! exits non-zero when a smoke-scale SLO is violated or the R1–R10
//! trace audit fails. Every perf-oriented PR gates on it.
//!
//! Determinism contract: for a fixed seed, generated operation
//! sequences and arrival schedules are byte-identical across runs (see
//! `tests/determinism.rs`). Execution timing is, of course, not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod exec;
pub mod workload;
pub mod zipf;

pub use driver::{run_closed, run_open, PhaseResult};
pub use exec::{BillingExecutor, BulletinExecutor, Executor, KvExecutor};
pub use workload::{
    ActionClass, MixConfig, MixWorkload, Op, OpKind, RampPhase, RampSchedule, Workload,
};
pub use zipf::Zipf;

/// Which stack a phase drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Raw `Runtime` + backend over a `u64` object table.
    Kv,
    /// The §4(iii) billing ledger.
    Billing,
    /// The §4(i) bulletin board.
    Bulletin,
}

impl Target {
    /// Stable lowercase label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Target::Kv => "kv",
            Target::Billing => "billing",
            Target::Bulletin => "bulletin",
        }
    }
}

/// Closed loop, or open loop under a ramp schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhaseMode {
    /// Workers issue the next op when the previous completes.
    Closed,
    /// Ops are released at scheduled arrivals.
    Open(RampSchedule),
}

/// One phase of a load run: a seeded workload against one target in
/// one mode.
#[derive(Clone, Debug)]
pub struct PhaseSpec {
    /// Report key.
    pub name: &'static str,
    /// Stack under load.
    pub target: Target,
    /// Generator configuration.
    pub mix: MixConfig,
    /// Operations generated (for open mode this equals the schedule's
    /// total).
    pub ops: u64,
    /// Closed or open loop.
    pub mode: PhaseMode,
    /// Worker threads.
    pub threads: usize,
    /// Seed for this phase's generator, derived from the run seed.
    pub workload_seed: u64,
}

impl PhaseSpec {
    /// Builds this phase's generator.
    #[must_use]
    pub fn workload(&self) -> MixWorkload {
        MixWorkload::new(self.mix, self.workload_seed)
    }
}

/// Run scale: CI smoke or the full million-action profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~116k actions; finishes in about a minute on a few cores.
    Smoke,
    /// ~1.16M actions.
    Full,
}

/// A complete load-run specification: the phase list is a pure
/// function of `(seed, scale)`.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Run seed (`CHROMA_TORTURE_SEED` by convention).
    pub seed: u64,
    /// Smoke or full scale.
    pub scale: Scale,
}

/// Derives a phase seed from the run seed (SplitMix64 step, so nearby
/// run seeds do not produce overlapping phase streams).
fn phase_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl LoadSpec {
    /// The phase list for this spec.
    #[must_use]
    pub fn phases(&self) -> Vec<PhaseSpec> {
        let m = match self.scale {
            Scale::Smoke => 1,
            Scale::Full => 10,
        };
        // The ramp tops out below the stack's measured smoke-scale
        // capacity (~3.5k mixed ops/s at 16 threads on a dev box): the
        // open phase is meant to measure queueing under an increasing
        // but sustainable offered rate, not to demonstrate collapse.
        let ramp = RampSchedule::new(vec![
            RampPhase {
                rate_per_sec: 500,
                ops: 3_000 * m,
            },
            RampPhase {
                rate_per_sec: 1_000,
                ops: 5_000 * m,
            },
            RampPhase {
                rate_per_sec: 2_000,
                ops: 8_000 * m,
            },
        ]);
        let specs = vec![
            PhaseSpec {
                name: "closed_kv_read_heavy",
                target: Target::Kv,
                mix: MixConfig::read_heavy(4_096),
                ops: 64_000 * m,
                mode: PhaseMode::Closed,
                threads: 16,
                workload_seed: 0,
            },
            PhaseSpec {
                name: "open_kv_ramp",
                target: Target::Kv,
                mix: MixConfig::read_heavy(4_096),
                ops: ramp.total_ops(),
                mode: PhaseMode::Open(ramp),
                threads: 16,
                workload_seed: 0,
            },
            PhaseSpec {
                name: "closed_kv_write_heavy",
                target: Target::Kv,
                mix: MixConfig::write_heavy(1_024),
                ops: 16_000 * m,
                mode: PhaseMode::Closed,
                // Deliberate hot-key write contention: fewer workers
                // keep read queues behind fsync-holding writers short
                // enough that tail latency measures the stack, not the
                // queue length this harness chose.
                threads: 8,
                workload_seed: 0,
            },
            PhaseSpec {
                name: "closed_billing",
                target: Target::Billing,
                mix: MixConfig::read_heavy(512),
                ops: 10_000 * m,
                mode: PhaseMode::Closed,
                threads: 4,
                workload_seed: 0,
            },
            PhaseSpec {
                name: "closed_bulletin",
                target: Target::Bulletin,
                mix: MixConfig::read_heavy(512),
                ops: 10_000 * m,
                mode: PhaseMode::Closed,
                threads: 4,
                workload_seed: 0,
            },
            // Appended after the original five so their derived phase
            // seeds (by index) — and hence their op streams — are
            // unchanged from pre-snapshot runs.
            PhaseSpec {
                name: "closed_kv_snapshots",
                target: Target::Kv,
                mix: MixConfig::read_heavy_snapshots(4_096),
                ops: 16_000 * m,
                mode: PhaseMode::Closed,
                threads: 16,
                workload_seed: 0,
            },
        ];
        specs
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                p.workload_seed = phase_seed(self.seed, i as u64);
                p
            })
            .collect()
    }

    /// Total operations across all phases.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.phases().iter().map(|p| p.ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_spec_clears_the_hundred_k_floor() {
        let spec = LoadSpec {
            seed: 42,
            scale: Scale::Smoke,
        };
        assert!(
            spec.total_ops() >= 100_000,
            "smoke must generate >= 100k actions, got {}",
            spec.total_ops()
        );
        let full = LoadSpec {
            seed: 42,
            scale: Scale::Full,
        };
        assert!(full.total_ops() >= 1_000_000);
    }

    #[test]
    fn phase_seeds_differ_but_are_stable() {
        let a = LoadSpec {
            seed: 7,
            scale: Scale::Smoke,
        };
        let phases = a.phases();
        let again = a.phases();
        for (x, y) in phases.iter().zip(again.iter()) {
            assert_eq!(x.workload_seed, y.workload_seed);
        }
        let mut seeds: Vec<u64> = phases.iter().map(|p| p.workload_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), phases.len(), "phase seeds must differ");
    }

    #[test]
    fn open_phase_ops_match_schedule() {
        let spec = LoadSpec {
            seed: 1,
            scale: Scale::Smoke,
        };
        for p in spec.phases() {
            if let PhaseMode::Open(ramp) = &p.mode {
                assert_eq!(p.ops, ramp.total_ops());
            }
        }
    }
}
