#!/usr/bin/env bash
# Run one command and fail when it exits nonzero or writes any byte to
# stderr.  Its stderr is passed through either way, and a failure names
# the label, the exit status and the number of stderr bytes.
#
# Usage: bash .github/stderr-gate.sh LABEL COMMAND [ARG...]
set -u
label=$1
shift
err=$(mktemp)
status=0
"$@" 2> "$err" || status=$?
cat "$err" >&2
bytes=$(wc -c < "$err")
rm -f "$err"
if [ "$status" -ne 0 ] || [ "$bytes" -ne 0 ]; then
  echo "$label: exit status $status, $bytes bytes on stderr"
  exit 1
fi
