#!/usr/bin/env bash
# Build the release `hmh` binary and the benchmark from source, then run
# the benchmark. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
  echo "perfbench: run from the root of the repository" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p hmh-cli --bin hmh
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --hmh "$CARGO_TARGET_DIR/release/hmh" "$@"
