#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from anywhere inside a checkout of the repository. Build output
# goes to $CARGO_TARGET_DIR (default: target/ at the repository root).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "perfbench/run.sh: not inside a checkout of the repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# The serve workloads spawn the release mosc-cli, built as users build it.
cargo build --release --quiet --bin mosc-cli >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mosc-perfbench" "$@" \
    --daemon "$CARGO_TARGET_DIR/release/mosc-cli" --out-dir perfbench/out
