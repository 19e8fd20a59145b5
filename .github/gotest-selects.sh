#!/usr/bin/env bash
# Runs `go test "$@"` and fails when its -run pattern selects no test in a
# package: go test passes such a run, so a misspelled or outdated pattern
# would gate nothing.
set -o pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test "$@" 2>&1 | tee "$log" || exit
if grep -Eq 'testing: warning: no tests to run|\[no tests to run\]' "$log"; then
	echo "go test $*: the -run pattern selects no test in a package" >&2
	exit 1
fi
