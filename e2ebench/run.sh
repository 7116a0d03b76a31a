#!/usr/bin/env bash
# Builds drdesync and the e2e benchmark from source, then runs e2e from
# the repository root with the given arguments:
#
#   bash e2ebench/run.sh --workload paper_cores --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --seed 1              # every workload, fresh process each
#   bash e2ebench/run.sh compare BASE CHANGE
#
# Builds go to $CARGO_TARGET_DIR (default: target).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin drdesync >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
