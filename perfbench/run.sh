#!/usr/bin/env bash
# Builds the benchmark and the parrot-serve daemon from source, then runs
# the benchmark with the given arguments. Run from any directory; the
# build and every output stay under .bench_build in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
cargo build --release --quiet --offline -p serve --bin parrot-serve
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
