#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds chroma-node (root
# workspace) and the benchmark (this directory's own workspace) into one
# target directory, then runs the benchmark with the arguments given.
# Run from the root of a checkout.
set -euo pipefail

root=$PWD
if [[ ! -f $root/bench/Cargo.toml || ! -f $root/Cargo.toml ]]; then
    echo "bench/run.sh: run from the root of a chroma checkout" >&2
    exit 2
fi

# One target directory for both workspaces, so the benchmark finds
# chroma-node next to its own executable and the crates they share are
# compiled once. A relative CARGO_TARGET_DIR is relative to the root.
target=${CARGO_TARGET_DIR:-.bench_build}
[[ $target = /* ]] || target=$root/$target
export CARGO_TARGET_DIR=$target

# Scratch data stays inside the checkout (the benchmark itself asks
# std::env::temp_dir() for it).
export TMPDIR=$target/tmp
mkdir -p "$TMPDIR"

cargo build --release --offline --quiet -p chroma-node 1>&2
cargo build --release --offline --quiet --manifest-path "$root/bench/Cargo.toml" 1>&2
exec "$target/release/chroma-benchmark" "$@"
