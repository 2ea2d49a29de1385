#!/bin/sh
# Regenerate the committed micro-benchmark reports from a release build:
# BENCH_compile.json (`compile_time diffeq1 --runs 5`) and
# BENCH_specialize.json (`specialize --turns 2048`). Each run is pinned
# to CPU 1 with taskset, so a report does not depend on where the
# scheduler put it. Each report carries its own provenance block (git
# revision and dirty flag, build profile, rustc, host threads).
# Usage: ./bench.sh
set -eu

export CARGO_NET_OFFLINE=true

cargo build --release -q -p pfdbg-bench --bin compile_time --bin specialize
taskset -c 1 ./target/release/compile_time diffeq1 --runs 5 --out BENCH_compile.json
taskset -c 1 ./target/release/specialize --turns 2048 --out BENCH_specialize.json
