#!/usr/bin/env bash
# Builds (release, offline) and runs the repo benchmark; see README.md.
# Every argument is passed through, so the driver's
#   --workload NAME --seed N --seconds S --trace 0|1
# lands in the binary unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
