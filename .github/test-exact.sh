#!/usr/bin/env bash
# Runs the named tests and fails unless every one of them ran and passed.
#
#   .github/test-exact.sh <cargo test arguments> -- <test name>...
#
# The names go to the test binary with `--exact`, so each selects one
# test; a name that matches nothing would otherwise pass silently. The
# cargo arguments must select one test binary, whose summary line must
# then report as many passed tests as there are names.
set -euo pipefail

args=()
while [[ $# -gt 0 && $1 != -- ]]; do
    args+=("$1")
    shift
done
if [[ $# -lt 2 ]]; then
    echo "usage: $0 <cargo test arguments> -- <test name>..." >&2
    exit 2
fi
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test "${args[@]}" -- --exact "$@" 2>&1 | tee "$log"
if ! grep -Eq "^test result: ok\. $# passed;" "$log"; then
    echo "expected exactly $# passed tests: a name matched no test" >&2
    exit 1
fi
