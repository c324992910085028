#!/usr/bin/env bash
# The repo's one benchmark command. Builds the standalone package under
# benchmark/ (release profile, offline) and runs it from the repo root.
# See benchmark/README.md; `benchmark/run.sh --help` lists the modes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/cind-benchmark" "$@"
