//! The dependency-free JSON report writer (`report`) the load harness
//! (`chroma-load`'s `load_bench`) writes its results with.
//!
//! Performance is measured by the benchmark package under `bench/`
//! (`bash bench/run.sh`, contract in `/BENCHMARK.json`), which has its
//! own report writer; this crate holds no benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
