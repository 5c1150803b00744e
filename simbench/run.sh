#!/usr/bin/env bash
# Builds the benchmark (and the sim-serve daemon it spawns) from source in
# release mode, then runs it with the given arguments:
#
#   bash simbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Honours CARGO_TARGET_DIR; otherwise builds into simbench/target.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/simbench" "$@"
