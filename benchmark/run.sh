#!/usr/bin/env bash
# The benchmark's one command (see README.md):
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
#   bash benchmark/run.sh [--smoke] [--repeat 2] [--seed <n>]                         all four, untraced then traced
# Builds offline, then runs the untraced binary, or the traced one (the
# only one with the counting allocator linked) for --trace 1.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
bin=bench
case " $* " in *" --trace 1 "*) bin=bench_traced ;; esac
cargo build --release --offline --quiet --manifest-path "$manifest"
exec cargo run --release --offline --quiet --manifest-path "$manifest" --bin "$bin" -- "$@"
