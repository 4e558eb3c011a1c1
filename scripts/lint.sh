#!/usr/bin/env sh
# Static-analysis gate on its own (subset of scripts/verify.sh).
#
# Runs the rh-lint source pass against the ratcheted baseline, the
# warm-reboot protocol checker, the fleet rolling-rejuvenation checker,
# the streamed-reboot post-copy checker and the cell balloon checker.
# Any arguments replace the default
# `--check` mode of the source pass, e.g.:
#
#   scripts/lint.sh --check --json       machine-readable findings
#   scripts/lint.sh --update-baseline    re-baseline after a burn-down
#
# Usage: scripts/lint.sh [rh-lint args]  (from anywhere; cd's to the root)
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- --check
fi
echo "==> rh-lint $*"
cargo run -q -p rh-lint --offline -- "$@"

echo "==> rh-lint protocol --domains 3"
cargo run -q -p rh-lint --offline -- protocol --domains 3

echo "==> rh-lint fleet"
cargo run -q -p rh-lint --offline -- fleet

echo "==> rh-lint postcopy"
cargo run -q -p rh-lint --offline -- postcopy

echo "==> rh-lint balloon --domains 3"
cargo run -q -p rh-lint --offline -- balloon --domains 3

echo "==> lint OK"
