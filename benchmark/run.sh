#!/usr/bin/env bash
# One command for the whole benchmark: builds the harness from source, then
# hands every argument to it. See README.md for the modes.
set -euo pipefail
DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
TARGET="${CARGO_TARGET_DIR:-$DIR/target}"
cargo build --release --offline --quiet --manifest-path "$DIR/Cargo.toml" --target-dir "$TARGET" >&2
exec "$TARGET/release/benchmark" --dir "$DIR" "$@"
