#!/usr/bin/env bash
# The one command of the repo benchmark: builds the benchmark package
# offline (it depends on nothing but the repository itself) and runs it.
# `benchmark/run.sh --help` lists the options; README.md explains them.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo puts the build where CARGO_TARGET_DIR says (relative to this
# directory, the checkout root), or else under the package's own target/.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/p4db-benchmark" "$@"
