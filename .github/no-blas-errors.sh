#!/usr/bin/env bash
# Usage: bash .github/no-blas-errors.sh COMMAND [ARGS...]
# Runs COMMAND and shows its output.  Fails if COMMAND fails, or if its
# stdout or stderr holds a BLAS argument error: OpenBLAS reports a bad
# argument ("** On entry to DSYRK parameter number 10 had an illegal value")
# through C stdio and carries on, so the exit status does not show it.
set -uo pipefail
log=$(mktemp)
"$@" > "$log" 2>&1
status=$?
cat "$log"
if grep -q "On entry to" "$log"; then
    echo "BLAS argument error from: $*" >&2
    status=1
fi
rm -f "$log"
exit "$status"
