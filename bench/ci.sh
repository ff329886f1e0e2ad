#!/usr/bin/env bash
# What CI calls: build chroma-node and the benchmark, then run every
# workload at 1/20 of its work with the correctness checks on.
set -euo pipefail
cd "$(dirname "$0")/.."
exec bash bench/run.sh --smoke
