#!/usr/bin/env bash
# Builds rjamd and the e2e benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash crates/bench/src/bin/e2e/run.sh --workload detect_sweep --seed 1 --seconds 10 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default: .bench_build in the current
# directory), so e2e finds rjamd next to its own executable. Build output
# goes to stderr; the benchmark's last stdout line is its JSON summary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p rjam-daemon --bin rjamd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/e2e" "$@"
